import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dighom import CP, build_image, np_product
from dighom.errors import CapExceeded, ValidationError
from dighom.lattice import induced_subimage, interval_image
from dighom.maps import (
    compose,
    constant_map,
    continuity_violation,
    count_continuous_maps,
    diagonal_map,
    digital_map,
    enumerate_continuous_maps,
    identity_map,
    inclusion_map,
    is_continuous,
    is_isomorphism,
    inverse_map,
    load_map,
    map_from_json,
    map_to_json,
    projection_map,
    random_continuous_map,
    tuple_map,
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


def test_tuple_map_matches_diagonal(i1):
    prod = np_product([i1, i1], 2)
    ident = identity_map(i1)
    paired = tuple_map([ident, ident], prod)
    assert paired.values == diagonal_map(i1, 2, prod).values


def test_isomorphism_rotation_yes_path_no(c4):
    cyc = SQUARE
    rot = digital_map(c4, c4, {cyc[i]: cyc[(i + 1) % 4] for i in range(4)})
    assert is_isomorphism(rot)
    inv = inverse_map(rot)
    assert compose(inv, rot).values == identity_map(c4).values

    path4 = interval_image(0, 3)
    bijection = digital_map(
        c4, path4,
        {cyc[0]: (0,), cyc[1]: (1,), cyc[2]: (2,), cyc[3]: (3,)},
    )
    assert not is_isomorphism(bijection)


def test_enumerate_count_interval_to_cycle(i1, c4):
    maps = list(enumerate_continuous_maps(i1, c4))
    assert len(maps) == 12
    brute = brute_force_continuous(i1, c4)
    assert sorted(m.values for m in maps) == brute


def test_enumerate_brute_force_agreement_small(i2, c4):
    maps = list(enumerate_continuous_maps(i2, c4))
    assert sorted(m.values for m in maps) == brute_force_continuous(i2, c4)


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
    assert count_continuous_maps(r8, r8) == 8872


def test_random_continuous_map_is_continuous(r8, c4):
    rng = random.Random(42)
    for _ in range(25):
        f = random_continuous_map(r8, c4, rng)
        assert is_continuous(f)


def test_restrict_and_inclusion(r8):
    arc = {(0, 0), (1, 0), (2, 0)}
    ident = identity_map(r8)
    # A restriction is the composite with the inclusion of the subimage.
    inc = inclusion_map(induced_subimage(r8, arc), r8)
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
