import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dighom import CP, build_image, np_product
from dighom.errors import CapExceeded, ValidationError
from dighom import maps
from dighom.lattice import Explicit, induced_subimage, interval_image, normalize_edge
from dighom.maps import (
    compose,
    constant_map,
    continuity_violation,
    continuous_value_tuples,
    diagonal_map,
    digital_map,
    enumerate_continuous_maps,
    identity_map,
    is_continuous,
    load_map,
    map_from_json,
    map_to_json,
    projection_map,
    random_continuous_map,
)

from conftest import RING8, SQUARE


def brute_force_continuous(domain, codomain):
    """Reference enumeration: filter every assignment by the edge condition."""
    pts = list(domain.points)
    adj = codomain.adjacent_or_equal
    out = []
    for values in itertools.product(codomain.points, repeat=len(pts)):
        val = dict(zip(pts, values))
        if all(adj(val[a], val[b]) for a, b in domain.edges):
            out.append(values)
    return sorted(out)


def test_continuity_violation_on_square(c4):
    mapping = {p: p for p in SQUARE}
    mapping[(1, 1)] = (1, 0)
    f = digital_map(c4, c4, mapping)
    violation = continuity_violation(f)
    assert violation is not None
    assert set(violation) == {(1, 1), (0, 1)}
    assert not is_continuous(f)


def test_digital_map_validates_totality_and_targets(c4):
    partial = {p: p for p in SQUARE[:-1]}
    with pytest.raises(ValidationError):
        digital_map(c4, c4, partial)
    stray = {p: p for p in SQUARE}
    stray[(0, 0)] = (5, 5)
    with pytest.raises(ValidationError):
        digital_map(c4, c4, stray)


def test_compose_identity_constant(r8):
    ident = identity_map(r8)
    const = constant_map(r8, r8, (0, 0))
    assert compose(ident, const).values == const.values
    assert compose(const, ident).values == const.values


def test_projection_and_diagonal(i1):
    prod = np_product([i1, i1], 2)
    pr1 = projection_map(prod, 1)
    pr2 = projection_map(prod, 2)
    assert pr1.mapping[(0, 1)] == (0,)
    assert pr2.mapping[(0, 1)] == (1,)
    delta = diagonal_map(i1, 2, prod)
    assert delta.mapping[(0,)] == (0, 0)
    assert delta.mapping[(1,)] == (1, 1)
    assert compose(pr1, delta).values == identity_map(i1).values


def test_projections_of_products_are_continuous(i1, i2, c4):
    for factors in ([i1, c4], [i2, i1, c4], [c4, c4]):
        for m in range(1, len(factors) + 1):
            prod = np_product(factors, m)
            for i in range(1, len(factors) + 1):
                assert is_continuous(projection_map(prod, i))


def test_isomorphism_rotation_yes_path_no(c4):
    # The rotation and its inverse are continuous and compose to the
    # identity; a bijection onto the path is not continuous, as the edge
    # closing the cycle spans the whole path.
    cyc = SQUARE
    rot = digital_map(c4, c4, {cyc[i]: cyc[(i + 1) % 4] for i in range(4)})
    inv = digital_map(c4, c4, {cyc[(i + 1) % 4]: cyc[i] for i in range(4)})
    assert is_continuous(rot) and is_continuous(inv)
    assert compose(inv, rot).values == identity_map(c4).values

    path4 = interval_image(0, 3)
    bijection = digital_map(
        c4, path4,
        {cyc[0]: (0,), cyc[1]: (1,), cyc[2]: (2,), cyc[3]: (3,)},
    )
    assert not is_continuous(bijection)


def test_enumerate_count_interval_to_cycle(i1, c4):
    maps = list(enumerate_continuous_maps(i1, c4))
    assert len(maps) == 12
    brute = brute_force_continuous(i1, c4)
    assert sorted(m.values for m in maps) == brute


def test_enumerate_brute_force_agreement_small(i2, c4):
    maps = list(enumerate_continuous_maps(i2, c4))
    assert sorted(m.values for m in maps) == brute_force_continuous(i2, c4)


def test_enumeration_stream_is_the_filtered_product(c4, r8):
    """The lex stream is every assignment in itertools.product order that
    keeps edges adjacent-or-equal; the search order yields the same set."""
    paw = build_image([(0,), (1,), (2,), (3,)], Explicit(frozenset(
        {((0,), (1,)), ((0,), (2,)), ((1,), (2,)), ((2,), (3,))})))
    for dom, cod in ((c4, c4), (interval_image(0, 2), r8), (paw, c4)):
        index = {p: i for i, p in enumerate(dom.points)}
        want = [vals for vals in itertools.product(cod.points, repeat=len(dom))
                if all(cod.adjacent_or_equal(vals[index[a]], vals[index[b]])
                       for a, b in dom.edges)]
        lex = [m.values for m in enumerate_continuous_maps(dom, cod)]
        assert lex == want
        search = [m.values for m in enumerate_continuous_maps(dom, cod, order="search")]
        assert sorted(search) == want
        onto = [m.values for m in enumerate_continuous_maps(dom, cod, surjective_only=True)]
        assert onto == [vals for vals in want if len(set(vals)) == len(cod)]


def _placed_value_tuples(domain, codomain, surjective_only, cap, order):
    """The enumerator's order by brute force: assignments to the points in
    placement order (domain order for "lex", ``_search_order`` for
    "search"), in itertools.product order, kept when continuous (and onto),
    read back in domain order; CapExceeded on the map after ``cap``."""
    points = list(domain.points) if order == "lex" else maps._search_order(domain)
    adj = codomain.adjacent_or_equal
    produced = 0
    for values in itertools.product(codomain.points, repeat=len(points)):
        val = dict(zip(points, values))
        if not all(adj(val[a], val[b]) for a, b in domain.edges):
            continue
        if surjective_only and len(set(values)) < len(codomain):
            continue
        produced += 1
        if cap is not None and produced > cap:
            raise CapExceeded("cap", cap_name="max_probe_maps")
        yield tuple(val[p] for p in domain.points)


def _drain(stream):
    """The items of stream, and whether it ended in CapExceeded."""
    out = []
    try:
        for item in stream:
            out.append(item)
    except CapExceeded:
        return out, True
    return out, False


@st.composite
def _small_images(draw):
    """One to five points with random edges, possibly disconnected."""
    n = draw(st.integers(1, 5))
    pts = [(i,) for i in range(n)]
    pairs = [(pts[a], pts[b]) for b in range(n) for a in range(b)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return build_image(pts, Explicit(frozenset(normalize_edge(a, b) for a, b in edges)))


@settings(max_examples=80, deadline=None)
@given(dom=_small_images(), cod=_small_images(), surjective_only=st.booleans(),
       order=st.sampled_from(("lex", "search")), cap=st.none() | st.integers(0, 40))
def test_value_tuples_are_the_enumerated_maps(dom, cod, surjective_only, order, cap):
    opts = dict(surjective_only=surjective_only, cap=cap, order=order)
    want = _drain(_placed_value_tuples(dom, cod, **opts))
    assert _drain(continuous_value_tuples(dom, cod, **opts)) == want
    got, capped = _drain(enumerate_continuous_maps(dom, cod, **opts))
    assert ([f.values for f in got], capped) == want
    for f, values in zip(got, want[0]):
        assert f.mapping == dict(zip(dom.points, values))


def _round_robin(streams):
    """The items of each stream, drawn one at a time from each in turn."""
    out = [[] for _ in streams]
    live = list(enumerate(streams))
    while live:
        for entry in list(live):
            k, stream = entry
            item = next(stream, None)
            if item is None:
                live.remove(entry)
            else:
                out[k].append(item)
    return out


def test_interleaved_streams_of_one_placement_equal_separate_ones(r8):
    """One placement table serves every frame move of a search, so streams
    drawn from it in turn must not share an assignment."""
    cod = build_image(RING8 + [(3, 0), (3, 1)], CP(1), name="R8+square")
    rng = random.Random(4)
    f, g = (random_continuous_map(r8, cod, rng).values for _ in range(2))
    asks = [dict(within=f), dict(), dict(within=g)]
    table = maps._Placement(r8, cod, "search")
    together = _round_robin([table.stream(**ask) for ask in asks])
    apart = [list(maps._Placement(r8, cod, "search").stream(**ask)) for ask in asks]
    assert together == apart
    assert f in together[0] and g in together[2]
    assert set(together[0]) == {v for v in together[1]
                                if all(map(cod.adjacent_or_equal, v, f))}


def test_enumerate_surjective_filter(i1, c4):
    surj = list(enumerate_continuous_maps(i1, c4, surjective_only=True))
    # Two points can never cover four.
    assert surj == []
    onto_edge = list(
        enumerate_continuous_maps(
            i1, build_image([(0,), (1,)], CP(1)), surjective_only=True
        )
    )
    assert len(onto_edge) == 2


def test_enumerate_cap(i2, r8):
    with pytest.raises(CapExceeded):
        list(enumerate_continuous_maps(i2, r8, cap=3))


def test_self_map_count_of_ring_matches_transfer_matrix(r8):
    # Continuous self-maps of an 8-cycle correspond to closed walks of
    # length 8 in the reflexive cycle: the count is the trace of A^8 for
    # A = I + adjacency, computed here with plain integer arithmetic.
    size = 8
    a = [[1 if i == j or (i - j) % size in (1, size - 1) else 0
          for j in range(size)] for i in range(size)]

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(size))
                 for j in range(size)] for i in range(size)]

    power = a
    for _ in range(7):
        power = matmul(power, a)
    expected = sum(power[i][i] for i in range(size))
    assert expected == 8872
    assert sum(1 for _ in enumerate_continuous_maps(r8, r8)) == 8872


def test_random_continuous_map_is_continuous(r8, c4):
    rng = random.Random(42)
    for _ in range(25):
        f = random_continuous_map(r8, c4, rng)
        assert is_continuous(f)


def test_restrict_and_inclusion(r8):
    arc = {(0, 0), (1, 0), (2, 0)}
    ident = identity_map(r8)
    # A restriction is the composite with the inclusion of the subimage.
    inc = digital_map(induced_subimage(r8, arc), r8, {p: p for p in arc})
    part = compose(ident, inc)
    assert set(part.domain.points) == arc
    assert all(inc.mapping[p] == p for p in arc)
    assert all(part.mapping[p] == p for p in arc)


def test_map_json_round_trip(r8, tmp_path):
    cyc = RING8
    rot = digital_map(r8, r8, {cyc[i]: cyc[(i + 1) % 8] for i in range(8)})
    blob = map_to_json(rot)
    back = map_from_json(blob)
    assert back.values == rot.values
    assert set(back.domain.points) == set(r8.points)
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(blob))
    loaded = load_map(str(path))
    assert loaded.values == rot.values


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_interval_map_count_formula(a_len, b_len):
    # Continuous maps between intervals are walks in a reflexive path
    # graph; cross-check the enumerator against the brute filter.
    dom = interval_image(0, a_len)
    cod = interval_image(0, b_len)
    if (b_len + 1) ** (a_len + 1) > 10 ** 5:
        return
    maps = list(enumerate_continuous_maps(dom, cod))
    assert sorted(m.values for m in maps) == brute_force_continuous(dom, cod)
