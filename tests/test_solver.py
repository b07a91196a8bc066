import functools
import itertools
import json
import operator
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dighom import (
    DEFAULT_CAPS,
    INFINITE,
    HomotopySession,
    SearchCaps,
    SolverSession,
    are_homotopic,
    are_m_homotopic,
    cat_kind,
    cat_map_kind,
    check_equivalence_invariance,
    check_fiber_m_equivalence,
    compute_cover,
    compute_invariant,
    distance_kind,
    maximal_good_sets,
    min_cover,
    minimal_bad_sets,
    report_to_json,
    subset_good,
    verify_inequality_suite,
    verify_report,
)
from dighom import homotopy
from dighom import maps as maps_mod
from dighom.errors import CapExceeded, ValidationError
from dighom.lattice import CP, Explicit, build_image, interval_image, np_product
from dighom.maps import (
    compose,
    constant_map,
    diagonal_map,
    digital_map,
    identity_map,
    is_continuous,
    projection_map,
    random_continuous_map,
)
from dighom.probes import ProbeFamily, standard_m2
from dighom.solver import (
    HARVEST_CAP,
    N1_CONVENTION_NOTE,
    _column_masks,
    _refinement_cover,
    _scan_bad_sets,
    suite_to_json,
)

from conftest import RING8, SQUARE


def ring_rotation(r8, shift):
    rotated = RING8[shift:] + RING8[:shift]
    return digital_map(r8, r8, dict(zip(RING8, rotated)))


def ring_reflection(r8):
    idx = {p: i for i, p in enumerate(RING8)}
    return digital_map(r8, r8, {p: RING8[(-idx[p]) % 8] for p in RING8})


def connected_subset(img, size, rng):
    start = rng.choice(img.points)
    sub = {start}
    frontier = [start]
    while len(sub) < size and frontier:
        x = frontier[rng.randrange(len(frontier))]
        fresh = [y for y in img.neighbors(x) if y not in sub]
        if not fresh:
            frontier.remove(x)
            continue
        y = rng.choice(fresh)
        sub.add(y)
        frontier.append(y)
    return frozenset(sub)


# --- kind constructors --------------------------------------------------------


def test_kind_constructors_validate(r8, c4):
    with pytest.raises(ValidationError):
        distance_kind([identity_map(r8)])
    with pytest.raises(ValidationError):
        distance_kind([identity_map(r8), identity_map(c4)])
    torn = {p: (0, 0) for p in RING8}
    torn[(2, 2)] = (2, 2)
    jump = digital_map(r8, r8, torn)
    with pytest.raises(ValidationError):
        distance_kind([identity_map(r8), jump])
    with pytest.raises(ValidationError):
        cat_map_kind(jump)
    with pytest.raises(ValidationError):
        compute_invariant("TC_of_map", maps=(jump,))
    with pytest.raises(ValidationError):
        compute_invariant("nTC^m_of_map", maps=(jump,), family=standard_m2(), n=3)


def test_cat_is_cat_of_identity(r8, family):
    ident = identity_map(r8)
    assert cat_kind(r8) == cat_map_kind(ident)
    assert cat_kind(r8, family) == cat_map_kind(ident, family)
    session = SolverSession(DEFAULT_CAPS)
    compute_invariant("cat_m", image=r8, family=family, session=session)
    covers = len(session._covers)
    rep = compute_invariant("cat_m_of_map", maps=(ident,), family=family, session=session)
    assert rep.value == 1
    assert len(session._covers) == covers


def test_family_max_maps_caps_every_probe_enumeration(r8):
    capped = standard_m2(max_maps=5)
    pair = (identity_map(r8), ring_rotation(r8, 1))
    assert are_m_homotopic(*pair, capped).decided == "cap-exceeded"
    rep = compute_invariant("D_m", maps=pair, family=capped)
    assert rep.value is None
    assert rep.cover.caps_hit
    square = build_image(SQUARE, CP(1))
    prod = np_product([square, square], 2)
    assert SolverSession(DEFAULT_CAPS).goodness(cat_kind(prod, capped)).e2() is None


def test_subset_good_validates_points(r8, session):
    kind = cat_kind(r8)
    with pytest.raises(ValidationError):
        subset_good(kind, [], session=session)
    with pytest.raises(ValidationError):
        subset_good(kind, [(9, 9)], session=session)


# --- goodness structure -------------------------------------------------------


def test_goodness_downward_closed_on_ring(r8, session):
    kind = cat_kind(r8)
    rng = random.Random(7)
    for _ in range(6):
        big = connected_subset(r8, 6, rng)
        res = subset_good(kind, big, session=session)
        if res.status is not True:
            continue
        inner = sorted(big)[: len(big) - 2]
        if not inner:
            continue
        sub = session.induced(r8, frozenset(inner))
        for comp_pts in sub.components():
            res_sub = subset_good(kind, comp_pts, session=session)
            assert res_sub.status is True


def test_minimal_bad_sets_whole_ring_only(r8, family, session):
    bad_plain = minimal_bad_sets(cat_kind(r8), session=session)
    assert bad_plain == [frozenset(r8.points)]
    bad_m = minimal_bad_sets(cat_kind(r8, family), session=session)
    assert bad_m == [frozenset(r8.points)]


def test_maximal_good_sets_drop_one_point(r8):
    goods = maximal_good_sets(r8.points, [frozenset(r8.points)])
    assert len(goods) == 8
    assert all(len(s) == 7 for s in goods)
    assert len({frozenset(s) for s in goods}) == 8


def test_maximal_good_sets_synthetic():
    uni = [(1,), (2,), (3,), (4,)]
    bads = [frozenset({(1,), (2,)}), frozenset({(3,)})]
    goods = maximal_good_sets(uni, bads)
    assert set(goods) == {frozenset({(1,), (4,)}), frozenset({(2,), (4,)})}
    with pytest.raises(ValidationError):
        maximal_good_sets(uni, [frozenset({(9,)})])


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_min_cover_matches_brute_force(data):
    n = data.draw(st.integers(2, 6))
    uni = [(i,) for i in range(n)]
    k = data.draw(st.integers(1, 6))
    sets = [
        frozenset({(i,) for i in sub})
        for sub in data.draw(
            st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=k, max_size=k)
        )
    ]
    result = min_cover(uni, sets)
    covered = set().union(*sets) if sets else set()
    if covered != set(uni):
        assert result.value is INFINITE
        return
    best = None
    distinct = list({s for s in sets})
    for r in range(1, len(distinct) + 1):
        for combo in itertools.combinations(distinct, r):
            if set().union(*combo) == set(uni):
                best = r
                break
        if best:
            break
    assert result.value == best - 1
    assert set().union(*(set(p) for p in result.pieces)) == set(uni)
    greedy = min_cover(uni, sets, mode="greedy")
    assert result.value <= greedy.value


# --- routed values on the ring --------------------------------------------------


def test_cat_values_on_ring(r8, family, session):
    plain = compute_invariant("cat", image=r8, session=session)
    assert plain.value == 1 and plain.cover.exactness == "exact"
    relative = compute_invariant("cat_m", image=r8, family=family, session=session)
    assert relative.value == 1
    assert relative.cover.exactness == "lower_bound_family"
    for piece in relative.cover.pieces:
        res = subset_good(cat_kind(r8, family), piece, session=session)
        assert res.status is True


def test_distance_values_on_ring(r8, family, session):
    ident = identity_map(r8)
    const = constant_map(r8, r8, (0, 0))
    plain = compute_invariant("D", maps=(ident, const), session=session)
    assert plain.value == 1
    relative = compute_invariant("D_m", maps=(ident, const), family=family,
                                 session=session)
    assert relative.value == 1


def test_tc_m_and_product_forms_agree(r8, family, session):
    tc_m = compute_invariant("TC^m", image=r8, family=family, session=session)
    assert tc_m.value == 1
    prod = np_product([r8, r8], 2)
    pr1 = projection_map(prod, 1)
    pr2 = projection_map(prod, 2)
    via_proj = compute_invariant("D_m", maps=(pr1, pr2), family=family,
                                 session=session)
    assert via_proj.value == tc_m.value
    via_diag = compute_invariant("cat_m_of_map",
                                 maps=(diagonal_map(r8, 2, prod),),
                                 family=family, session=session)
    assert via_diag.value == tc_m.value
    cat_prod = compute_invariant("cat_m", image=prod, family=family,
                                 session=session)
    assert cat_prod.value == 1


def test_plain_tc_on_ring_is_undecided(r8, session):
    rep = compute_invariant("TC", image=r8, session=session)
    assert rep.value is None
    assert rep.cover.caps_hit or rep.notes or rep.cover.notes


def test_n_of_one_convention(r8, family, session):
    rep = compute_invariant("nTC^m", image=r8, family=family, n=1,
                            session=session)
    assert rep.value == 1
    assert N1_CONVENTION_NOTE in rep.notes or N1_CONVENTION_NOTE in rep.cover.notes
    status, msgs = verify_report(report_to_json(rep))
    assert status == "ok"


def test_infinite_distance_across_components(point):
    gap = build_image([(0,), (5,)], CP(1))
    f = constant_map(point, gap, (0,))
    g = constant_map(point, gap, (5,))
    rep = compute_invariant("D", maps=(f, g))
    assert rep.value is INFINITE
    blob = report_to_json(rep)
    assert blob["value"] == "infinite"
    status, msgs = verify_report(blob)
    assert status == "ok"


def test_tiny_caps_turn_undecided():
    # R8 with a square attached along its edge from (2, 0) to (2, 1) folds
    # to no ring, so its identity's class needs a closure, which caps.
    r8_square = build_image(RING8 + [(3, 0), (3, 1)], CP(1), name="R8+square")
    tiny = SearchCaps(max_visited_maps=6, max_probe_maps=6)
    rep = compute_invariant("cat", image=r8_square, caps=tiny)
    assert rep.value is None
    assert rep.cover.caps_hit


def test_tiny_caps_decide_cat_of_ring(r8):
    # R8 is a ring, so degrees decide every piece whatever the caps.
    tiny = SearchCaps(max_visited_maps=6, max_probe_maps=6)
    rep = compute_invariant("cat", image=r8, caps=tiny)
    assert rep.value == 1
    assert not rep.cover.caps_hit


def test_session_caps_are_the_caps(r8, c4, family):
    small = SearchCaps(max_visited_maps=10, max_probe_maps=10)
    rep = compute_invariant("cat_m", image=r8, family=family,
                            session=SolverSession(small))
    assert rep.value is None
    assert rep.config["caps"] == {"max_visited_maps": 10, "max_probe_maps": 10}
    fresh = compute_invariant("cat_m", image=r8, family=family, caps=small)
    assert report_to_json(fresh) == report_to_json(rep)
    # Explicit caps equal to the session's are fine; different ones are not.
    same = compute_invariant("cat_m", image=r8, family=family, caps=DEFAULT_CAPS,
                             session=SolverSession(DEFAULT_CAPS))
    assert same.value == 1
    kind = cat_kind(r8, family)
    ident = identity_map(c4)
    calls = (
        lambda s: compute_invariant("cat_m", image=r8, family=family, caps=small, session=s),
        lambda s: compute_cover(kind, small, session=s),
        lambda s: subset_good(kind, r8.points[:2], caps=small, session=s),
        lambda s: minimal_bad_sets(kind, small, s),
        lambda s: verify_inequality_suite(r8, family, small, session=s),
        lambda s: check_equivalence_invariance((ident, ident), (ident, ident),
                                               ident, ident, family, small, s),
    )
    for call in calls:
        with pytest.raises(ValidationError):
            call(SolverSession(DEFAULT_CAPS))


def test_unknown_and_mismatched_kinds(r8, family):
    with pytest.raises(ValidationError):
        compute_invariant("width", image=r8)
    with pytest.raises(ValidationError):
        compute_invariant("cat_m", image=r8)
    with pytest.raises(ValidationError):
        compute_invariant("cat", image=r8, family=family)


# --- the solver against the reference oracle ---------------------------------------


def _oracle_kinds(img, family):
    """cat, cat_m, D, D_m, cat_m_of_map and cat_of_map on one image; the
    distance pair is the identity and squash, a map constant on each
    component, which also gets a plain cat_of_map."""
    ident = identity_map(img)
    firsts = {}
    for p in img.points:
        firsts.setdefault(img.component_id(p), p)
    squash = digital_map(img, img,
                         {p: firsts[img.component_id(p)] for p in img.points})
    return (cat_kind(img), cat_kind(img, family),
            distance_kind((ident, squash)), distance_kind((ident, squash), family),
            cat_map_kind(ident, family), cat_map_kind(squash))


def test_solver_matches_cover_oracle(r8, c4, family, session):
    images = (r8, c4, interval_image(0, 3, name="I3"),
              build_image([(0,), (1,), (5,), (6,)], CP(1), name="split"))
    for img in images:
        kinds = _oracle_kinds(img, family)
        if img is r8:
            kinds += (cat_map_kind(ring_rotation(r8, 1)),)
        for i, kind in enumerate(kinds):
            uni = kind.universe_image.points
            got = compute_cover(kind, session=session)
            goods = maximal_good_sets(uni, minimal_bad_sets(kind, session=session))
            assert got.value == min_cover(uni, goods).value, (img.name, i)
            pieces = [frozenset(p) for p in got.pieces]
            assert sum(len(p) for p in pieces) == len(uni)
            assert frozenset().union(*pieces) == frozenset(uni)
            for piece in pieces:
                assert subset_good(kind, piece, session=session).status is True
            if kind.is_m:
                # Only an m-kind's failing piece names its bad sets, so only
                # m-kinds refine from a partial seed.
                g = session.goodness(kind)
                ref = _refinement_cover(kind, g, "exact", _scan_bad_sets(g, 2))
                assert ref.value == got.value, (img.name, i)


def test_plain_refinement_from_a_partial_seed_stalls(r8, session):
    """No 2-point set is bad for cat(R8), and the failing piece R8 names no
    bad set, so the refinement has nothing to learn from."""
    kind = cat_kind(r8)
    g = session.goodness(kind)
    cover = _refinement_cover(kind, g, "exact", _scan_bad_sets(g, 2))
    assert cover.value is None
    assert cover.notes == ("refinement stalled without new bad sets",)


def test_greedy_and_capped_m_covers_are_upper_bounds(r8, family, session):
    greedy = compute_invariant("cat_m", image=r8, family=family, mode="greedy",
                               session=session)
    assert greedy.value == 1
    assert greedy.cover.exactness == "upper_bound"
    assert not greedy.cover.caps_hit
    capped = compute_invariant("cat_m", image=r8, family=family, exact_cap=4,
                               session=session)
    assert capped.value == 1
    assert capped.cover.exactness == "upper_bound"
    assert capped.cover.caps_hit
    assert "universe above the exact-cover cap 4; greedy used" in capped.cover.notes
    plain = compute_invariant("cat", image=r8, exact_cap=4, session=session)
    assert plain.value == 1
    assert plain.cover.exactness == "upper_bound"
    assert plain.cover.caps_hit
    assert "universe above the exact-cover cap 4; greedy used" in plain.cover.notes


def test_restriction_covers_above_ten_points_are_exact(session):
    """On the 14-point ring the identity is homotopic to its one-step
    rotation, so their distance is 0; cat is 1.  Both are exact and agree
    with the cover oracle."""
    ring = ([(x, 0) for x in range(6)] + [(5, 1)]
            + [(x, 2) for x in range(5, -1, -1)] + [(0, 1)])
    img = build_image(ring, CP(1), name="R14")
    step = digital_map(img, img, {p: ring[(i + 1) % len(ring)]
                                  for i, p in enumerate(ring)})
    cases = (
        (compute_invariant("D", maps=(identity_map(img), step), session=session),
         distance_kind((identity_map(img), step)), 0),
        (compute_invariant("cat", image=img, session=session), cat_kind(img), 1),
    )
    for rep, kind, value in cases:
        assert rep.value == value
        assert rep.cover.exactness == "exact"
        assert rep.notes == () and rep.cover.notes == ()
        goods = maximal_good_sets(img.points, minimal_bad_sets(kind, session=session))
        assert min_cover(img.points, goods).value == value


def _r8_product_kinds(r8, family):
    """R8 x R8, five kinds the product engine takes on it, and pieces that
    each kind finds partly good and partly bad."""
    prod = np_product([r8, r8], 2)
    pr1, pr2 = projection_map(prod, 1), projection_map(prod, 2)
    refl = digital_map(r8, r8, {p: p[::-1] for p in RING8})
    flip2 = compose(refl, pr2)
    kinds = (
        cat_kind(prod, family),
        distance_kind((pr1, pr2), family),
        distance_kind((pr2, flip2), family),
        distance_kind((pr1, flip2), family),
        # Two maps through side 1 can disagree there, whatever side 2 does.
        distance_kind((pr1, compose(refl, pr1), pr2), family),
    )
    a0, a1 = RING8[0], RING8[1]
    pieces = (
        [a + a0 for a in RING8],
        [a + a for a in RING8],
        [a + a[::-1] for a in RING8],
        [a0 + a0, a1 + a0, a0 + a1],
    )
    return prod, kinds, pieces


def _per_map_scan(e2, X):
    """Reference for ``_E2Context.scan``: every side-2 map ANDs the piece's
    side-1 position masks into its fail mask, and each survivor's partners
    are harvested in order."""
    by_second = {}
    for u in X:
        a, b = e2.universe.split_point(u)
        by_second.setdefault(b, []).append(a)
    images = []
    for vals1, at1, vals2, _, fail, _ in e2.probes:
        cols = [{b: functools.reduce(operator.or_, (at_t.get(a, 0) for a in alist), 0)
                 for b, alist in by_second.items()} for at_t in at1]
        for v2, mask in zip(vals2, fail):
            for col, b in zip(cols, v2):
                mask &= col.get(b, 0)
            while mask:
                low = mask & -mask
                v1 = vals1[low.bit_length() - 1]
                images.append(frozenset(a + b for a, b in zip(v1, v2)))
                if len(images) == HARVEST_CAP:
                    return images
                mask ^= low
    return images


def test_e2_scan_harvest_matches_per_map_reference(r8, family, session):
    prod, kinds, pieces = _r8_product_kinds(r8, family)
    # The whole universe and a 59-point piece both fill the harvest.
    pieces += (prod.points, sorted(prod.points)[:59])
    full = 0
    for k, kind in enumerate(kinds):
        e2 = session.goodness(kind).e2()
        for X in pieces:
            got = e2.scan(frozenset(X))
            assert got == _per_map_scan(e2, X), (k, len(X))
            full += len(got) == HARVEST_CAP
    assert full == 2 * len(kinds)


def _per_bit_positions(vals, n):
    """Reference position masks: one OR per map and probe point."""
    at = [{} for _ in range(n)]
    for i, v in enumerate(vals):
        for at_t, a in zip(at, v):
            at_t[a] = at_t.get(a, 0) | (1 << i)
    return at


_LONG_PATH = interval_image(0, 299)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_coordinate_masks_equal_per_bit_reference(family, data):
    # The family's probes into random images of up to 7 points (3 for
    # cycle8, whose spaces grow fastest), or its point and interval2 into a
    # 300-point path, whose columns hold more than 255 values.
    probe = data.draw(st.sampled_from(family.complexes)).image
    if len(probe) <= 2 and data.draw(st.booleans()):
        factor = _LONG_PATH
    else:
        n = data.draw(st.integers(1, 7 if len(probe) <= 4 else 3))
        pairs = [((a,), (b,)) for b in range(n) for a in range(b)]
        edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        factor = build_image([(i,) for i in range(n)], Explicit(frozenset(edges)))
    vals, at = SolverSession(DEFAULT_CAPS).coordinate_maps(probe, factor, 10_000)
    assert vals == sorted(maps_mod.continuous_value_tuples(probe, factor))
    assert at == _per_bit_positions(vals, len(probe))


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 700), n=st.integers(0, 3000), seed=st.integers(0, 2**32))
def test_column_masks_equal_per_bit_reference(k, n, seed):
    # Labels mix strings and tuples; over 255 values take several runs.
    values = ["free", "bad"] + [(i,) for i in range(k)]
    rng = random.Random(seed)
    column = [rng.choice(values) for _ in range(n)]
    want = {}
    for i, x in enumerate(column):
        want[x] = want.get(x, 0) | (1 << i)
    assert _column_masks(column) == want


def test_e2_scan_matches_reference(r8, family):
    square = build_image(SQUARE, CP(1))
    prod = np_product([square, square], 2)
    session = SolverSession(DEFAULT_CAPS)
    swap = digital_map(prod, prod, {p: p[2:] + p[:2] for p in prod.points})
    assert session.goodness(cat_map_kind(swap, family)).e2() is None
    # Both maps of the distance kind factor through the second coordinate.
    pr2 = projection_map(prod, 2)
    spin = digital_map(square, square, dict(zip(SQUARE, SQUARE[1:] + SQUARE[:1])))
    kinds = (cat_kind(prod, family), distance_kind((pr2, compose(spin, pr2)), family))
    rng = random.Random(11)
    for kind in kinds:
        g = session.goodness(kind)
        assert g.e2() is not None
        for _ in range(8):
            X = connected_subset(prod, rng.randrange(3, 9), rng)
            fast, _ = g.check_piece(X)
            slow = g.check(X)
            assert fast.status == slow.status

    # C4 contracts here, so every piece above is good.  On R8 x R8 each
    # kind below finds some of these pieces good and others bad.
    prod, kinds, pieces = _r8_product_kinds(r8, family)
    for k, kind in enumerate(kinds):
        g = session.goodness(kind)
        assert g.e2() is not None, k
        seen = set()
        for X in pieces:
            fast, images = g.check_piece(X)
            assert fast.status == g.check(X).status, (k, X)
            seen.add(fast.status)
            assert bool(images) == (fast.status is False), (k, X)
            for img in images[:3]:
                assert g.check(img).status is False, (k, X, img)
        assert seen == {True, False}, k

    # Maps into the full product label their coordinate maps by the tuple of
    # their factors' class keys (``HomotopySession.class_keys``).  (x, y) -> (rot x, rot x) is at distance
    # 0 from (x, y) -> (x, x), and the reflection is at distance 1.
    on_diagonal = functools.partial(compose, diagonal_map(r8))
    pr1 = projection_map(prod, 1)
    for twist, value in ((ring_rotation(r8, 1), 0), (ring_reflection(r8), 1)):
        maps = (on_diagonal(pr1), on_diagonal(compose(twist, pr1)))
        g = session.goodness(distance_kind(maps, family))
        assert g.e2() is not None
        for X in pieces:
            fast, _ = g.check_piece(X)
            assert fast.status == g.check(X).status, (value, X)
        rep = compute_invariant("D_m", maps=maps, family=family, session=session)
        assert rep.value == value


def test_distance_of_maps_through_either_coordinate_agrees(r8, family, session):
    # Equal maps are at distance 0 whichever coordinate they factor through.
    prod = np_product([r8, r8], 2)
    reports = [compute_invariant("D_m", maps=(projection_map(prod, i),) * 2,
                                 family=family, session=session) for i in (1, 2)]
    first, second = [(r.value, r.cover.exactness) for r in reports]
    assert first[0] == 0
    assert second == first


# --- algebraic laws of the distance ----------------------------------------------


def test_distance_zero_iff_m_homotopic(r8, family, session):
    ident = identity_map(r8)
    rot = ring_rotation(r8, 2)
    refl = ring_reflection(r8)
    near = compute_invariant("D_m", maps=(ident, rot), family=family,
                             session=session)
    assert near.value == 0
    assert are_m_homotopic(ident, rot, family).decided == "yes"
    far = compute_invariant("D_m", maps=(ident, refl), family=family,
                            session=session)
    assert far.value >= 1
    assert are_m_homotopic(ident, refl, family).decided == "no"


_R8 = build_image(RING8, CP(1), name="R8")
_SPLIT = build_image([(0,), (1,), (5,), (6,)], CP(1), name="split")
_STANDARD = standard_m2()
# The 4-cycle contracts under this homotopy relation, so the 8-cycle is
# the family's only probe that does not.
_CYCLE8_ONLY = ProbeFamily(2, tuple(p for p in _STANDARD.complexes if p.name == "cycle8"),
                           name="cycle8-only")
_PAIR_IMAGES = (build_image(SQUARE, CP(1), name="C4"), _R8, interval_image(0, 3), _SPLIT)
_RIGID_R8 = [ring_rotation(_R8, k) for k in range(8)] + [
    compose(ring_reflection(_R8), ring_rotation(_R8, k)) for k in range(8)]


@st.composite
def _self_map_pairs(draw):
    """Two continuous self-maps of C4, R8, [0, 3] or {0, 1, 5, 6}; on R8
    each is a rotation or reflection half the time, so that windings meet."""
    img = draw(st.sampled_from(_PAIR_IMAGES))

    def one_map():
        if img is _R8 and draw(st.booleans()):
            return draw(st.sampled_from(_RIGID_R8))
        return random_continuous_map(img, img, random.Random(draw(st.integers(0, 2**32))))

    return one_map(), one_map()


@given(pair=_self_map_pairs(), family=st.sampled_from((_STANDARD, _CYCLE8_ONLY)))
@settings(max_examples=40, deadline=None)
def test_distance_zero_iff_m_homotopic_on_random_pairs(pair, family, session):
    f, g = pair
    rep = compute_invariant("D_m", maps=pair, family=family, session=session)
    verdict = are_m_homotopic(f, g, family)
    assert verdict.decided in ("yes", "no")
    assert (rep.value == 0) == (verdict.decided == "yes")
    if verdict.decided == "no":
        probe = next(p for p in family.complexes if p.name == verdict.witness_probe)
        phi = verdict.witness_map
        assert phi.domain == probe.image and phi.codomain == f.domain
        assert is_continuous(phi)
        if len(set(phi.values)) == 1:
            comp = f.codomain.component_id
            x = phi.values[0]
            assert comp(f.mapping[x]) != comp(g.mapping[x])
        else:
            # A "no" from the plain BFS in either direction exhausts a
            # component.  From a winding g*phi that component is small; from
            # a null f*phi it can hold thousands of maps, so the capped
            # search from g*phi goes first.
            fphi, gphi = compose(f, phi), compose(g, phi)
            if are_homotopic(gphi, fphi, SearchCaps(max_visited_maps=1000)).decided != "no":
                assert are_homotopic(fphi, gphi).decided == "no"


def test_component_violation_witness_names_the_bad_point(family, session):
    """The goodness check names a piece's component violation as the
    constant probe map at the offending point, and that point is the bad set
    a refinement learns."""
    ident = identity_map(_SPLIT)
    const = constant_map(_SPLIT, _SPLIT, (0,))
    kind = distance_kind((ident, const), family)
    res, images = session.goodness(kind).check_piece({(0,), (5,)})
    assert res.status is False
    assert res.witness[0].name == "point"
    assert res.witness[1] == constant_map(family.complexes[0].image, _SPLIT, (5,))
    assert images == [frozenset({(5,)})]


def test_m_homotopy_component_mismatch_and_capped_probe(r8, family, session):
    ident = identity_map(_SPLIT)
    const = constant_map(_SPLIT, _SPLIT, (0,))
    assert compute_invariant("D_m", maps=(ident, const), family=family,
                             session=session).value == INFINITE
    # (5,) is the first point whose images lie in different components.
    verdict = are_m_homotopic(ident, const, family)
    assert verdict.decided == "no"
    assert verdict.witness_probe == "point"
    assert verdict.witness_map == constant_map(family.complexes[0].image, _SPLIT, (5,))
    # Under a cap of one visited map, whether the probe cycle8 contracts is
    # undecided, and neither question gets an answer.
    tiny = SearchCaps(max_visited_maps=1)
    pair = (identity_map(r8), ring_rotation(r8, 2))
    assert are_m_homotopic(*pair, family, tiny).decided == "cap-exceeded"
    assert compute_invariant("D_m", maps=pair, family=family, caps=tiny).value is None


def test_distance_symmetric_and_prefix_monotone(r8, family, session):
    ident = identity_map(r8)
    const = constant_map(r8, r8, (0, 0))
    rot = ring_rotation(r8, 1)

    def dm(*ms):
        return compute_invariant("D_m", maps=ms, family=family,
                                 session=session).value

    assert dm(ident, const) == dm(const, ident)
    assert dm(ident, const) <= dm(ident, const, rot)


def test_distance_homotopy_invariant(r8, family, session):
    ident = identity_map(r8)
    rot = ring_rotation(r8, 3)
    const = constant_map(r8, r8, (0, 0))

    def dm(*ms):
        return compute_invariant("D_m", maps=ms, family=family,
                                 session=session).value

    assert dm(ident, const) == dm(rot, const)


def test_post_composition_cannot_raise_distance(r8, family, session):
    ident = identity_map(r8)
    const = constant_map(r8, r8, (0, 0))
    alpha = ring_rotation(r8, 1)

    def dm(*ms):
        return compute_invariant("D_m", maps=ms, family=family,
                                 session=session).value

    base = dm(ident, const)
    assert dm(compose(alpha, ident), compose(alpha, const)) <= base
    two = ring_rotation(r8, 2)
    assert session.h.homotopic(alpha, two) is True
    assert dm(compose(alpha, ident), compose(two, const)) <= base


def test_pre_composition_cannot_raise_distance(r8, family, session):
    ident = identity_map(r8)
    const = constant_map(r8, r8, (0, 0))
    beta = ring_rotation(r8, 1)

    def dm(*ms):
        return compute_invariant("D_m", maps=ms, family=family,
                                 session=session).value

    base = dm(ident, const)
    assert dm(compose(ident, beta), compose(const, beta)) <= base


def test_family_monotonicity(r8, family, session):
    points_only = ProbeFamily(2, (family.complexes[0],), name="points-only")
    ident = identity_map(r8)
    refl = ring_reflection(r8)
    small = compute_invariant("D_m", maps=(ident, refl), family=points_only,
                              session=session)
    big = compute_invariant("D_m", maps=(ident, refl), family=family,
                            session=session)
    assert small.value <= big.value
    assert small.value == 0 and big.value >= 1
    weak_cat = compute_invariant("cat_m", image=r8, family=points_only,
                                 session=session)
    assert weak_cat.value == 0


# --- dominance between adjacencies ------------------------------------------------


def test_dominance_lowers_distance_on_codomain(r8, family, session):
    # Every c_1 edge of the ring is also a c_2 edge, and the extra c_2
    # chords make the ring contractible, so relaxing only the codomain
    # adjacency drops the identity-reflection distance from 1 to 0.
    r8_dense = build_image(RING8, CP(2))
    ident = identity_map(r8)
    refl = ring_reflection(r8)
    d_strict = compute_invariant("D_m", maps=(ident, refl), family=family,
                                 session=session).value
    relax_i = digital_map(r8, r8_dense, dict(ident.mapping))
    relax_r = digital_map(r8, r8_dense, dict(refl.mapping))
    d_relaxed = compute_invariant("D_m", maps=(relax_i, relax_r),
                                  family=family, session=session).value
    assert d_relaxed <= d_strict
    assert d_relaxed == 0 and d_strict == 1


def test_dominance_lowers_distance_on_domain(family):
    # A map continuous on the denser c_2 square stays continuous on the
    # sparser c_1 square, and homotopies transfer the same way, so the
    # sparse-domain distance can only be smaller.
    square_c1 = build_image(SQUARE, CP(1))
    square_c2 = build_image(SQUARE, CP(2))
    target = build_image([(i, 0) for i in range(3)], CP(1))
    assignment = {(0, 0): (0, 0), (1, 0): (1, 0), (1, 1): (1, 0), (0, 1): (1, 0)}
    f_dense = digital_map(square_c2, target, assignment)
    g_dense = constant_map(square_c2, target, (0, 0))
    d_dense = compute_invariant("D_m", maps=(f_dense, g_dense),
                                family=family).value
    f_sparse = digital_map(square_c1, target, assignment)
    g_sparse = constant_map(square_c1, target, (0, 0))
    d_sparse = compute_invariant("D_m", maps=(f_sparse, g_sparse),
                                 family=family).value
    assert d_sparse <= d_dense


# --- reports -----------------------------------------------------------------------


def test_report_round_trip_and_verify(r8, family, session, tmp_path):
    rep = compute_invariant("cat_m", image=r8, family=family, session=session)
    blob = report_to_json(rep)
    status, msgs = verify_report(blob)
    assert status == "ok", msgs

    path = tmp_path / "rep.json"
    path.write_text(json.dumps(blob))
    status2, _ = verify_report(str(path))
    assert status2 == "ok"

    broken = json.loads(json.dumps(blob))
    broken["pieces"] = broken["pieces"][:1]
    merged_status, merged_msgs = verify_report(broken)
    assert merged_status == "fail"

    wrong_val = json.loads(json.dumps(blob))
    wrong_val["value"] = wrong_val["value"] + 3
    status3, _ = verify_report(wrong_val)
    assert status3 == "fail"

    alien = json.loads(json.dumps(blob))
    alien["kind"] = "width"
    status4, _ = verify_report(alien)
    assert status4 == "fail"


def test_verify_report_undecided_passthrough(r8, session):
    rep = compute_invariant("TC", image=r8, session=session)
    status, msgs = verify_report(report_to_json(rep))
    assert status == "undecided"


def test_verify_report_splits_a_whole_product_piece_by_factors(c4, monkeypatch):
    """TC(C4) has the one piece C4 x C4.  Checking it asks whether the
    product contracts, which its factors answer, with no frame BFS over
    the 16-point torus."""
    rep = report_to_json(compute_invariant("TC", image=c4))
    assert rep["pieces"] == [[list(p) for p in np_product([c4, c4], 2).points]]
    states = []
    bfs = homotopy._frame_bfs

    def counting_bfs(*args):
        got = bfs(*args)
        states.append(len(got[1]))
        return got

    monkeypatch.setattr(homotopy, "_frame_bfs", counting_bfs)
    assert verify_report(rep)[0] == "ok"
    assert sum(states) < 1000


def test_report_byte_determinism(r8, family):
    def once():
        rep = compute_invariant("cat_m", image=r8, family=family,
                                session=SolverSession(DEFAULT_CAPS))
        return json.dumps(report_to_json(rep), sort_keys=True)

    assert once() == once()


# --- theorem harnesses --------------------------------------------------------------


def test_fiber_equivalence_positive(r8, family):
    collapse = constant_map(r8, build_image([(0, 0)], CP(1)), (0, 0))
    verdict = check_fiber_m_equivalence(collapse, collapse,
                                        identity_map(r8), identity_map(r8),
                                        family)
    assert verdict.commutes and verdict.ok
    assert verdict.strict_equivalent is True
    assert verdict.consistent


def test_fiber_equivalence_non_commuting(r8, family):
    ident = identity_map(r8)
    const = constant_map(r8, r8, (0, 0))
    verdict = check_fiber_m_equivalence(ident, ident, const, const, family)
    assert not verdict.commutes
    assert verdict.commute_witness is not None
    assert verdict.m_equivalent is None


def test_fiber_equivalence_detects_failure(r8, family):
    tip = build_image([(0, 0)], CP(1))
    collapse = constant_map(r8, tip, (0, 0))
    const = constant_map(r8, r8, (0, 0))
    verdict = check_fiber_m_equivalence(collapse, collapse, const, const, family)
    assert verdict.commutes
    assert verdict.m_equivalent is False
    assert verdict.m_witness is not None
    assert verdict.consistent


def test_fiber_equivalence_validates_shapes(r8, c4, family):
    with pytest.raises(ValidationError):
        check_fiber_m_equivalence(identity_map(r8), identity_map(c4),
                                  identity_map(r8), identity_map(c4), family)


def test_equivalence_invariance_by_rotation(r8, family, session):
    rot = ring_rotation(r8, 1)
    hs = (identity_map(r8), ring_rotation(r8, 2))
    ks = (ring_rotation(r8, 2), ring_rotation(r8, 4))
    report = check_equivalence_invariance(hs, ks, rot, rot, family,
                                          session=session)
    assert report.hypotheses_ok, report.hypotheses
    assert report.equal is True


def test_harnesses_use_one_session(r8, family, monkeypatch):
    made = []
    init = HomotopySession.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HomotopySession, "__init__", counting_init)
    collapse = constant_map(r8, build_image([(0, 0)], CP(1)), (0, 0))
    ident = identity_map(r8)
    assert check_fiber_m_equivalence(collapse, collapse, ident, ident, family).ok
    assert len(made) == 1

    made.clear()
    rot = ring_rotation(r8, 1)
    hs = (ident, ring_rotation(r8, 2))
    ks = (ring_rotation(r8, 2), ring_rotation(r8, 4))
    report = check_equivalence_invariance(hs, ks, rot, rot, family)
    assert report.equal is True
    assert len(made) == 1


def test_equivalence_invariance_rejects_bad_hypotheses(r8, family, session):
    const = constant_map(r8, r8, (0, 0))
    hs = (identity_map(r8), ring_rotation(r8, 2))
    report = check_equivalence_invariance(hs, hs, const, const, family,
                                          session=session)
    assert not report.hypotheses_ok
    assert report.equal is None


# --- inequality suite ---------------------------------------------------------------


def test_suite_on_ring(r8, family, session):
    report = verify_inequality_suite(r8, family, session=session)
    assert len(report.entries) == 17
    assert report.all_pass
    assert not report.failed
    undecided = {e.name for e in report.undecided}
    assert len(undecided) == 6
    assert any("3-TC^m" in name for name in undecided)
    blob1 = json.dumps(suite_to_json(report, r8, family), sort_keys=True)
    fresh = verify_inequality_suite(r8, family,
                                    session=SolverSession(DEFAULT_CAPS))
    blob2 = json.dumps(suite_to_json(fresh, r8, family), sort_keys=True)
    assert blob1 == blob2


def test_big_products_are_never_materialised(r8, family, tmp_path, product_builds):
    """The R8 suite and the n = 3, 4 entries stop on universe size alone, so
    no product above R8 x R8 gets its edges built."""
    from dighom import cli
    from dighom.lattice import image_to_json

    path = tmp_path / "r8.json"
    path.write_text(json.dumps(image_to_json(r8)))
    assert cli.main(["verify-suite", "--image", str(path),
                     "-o", str(tmp_path / "suite.json")]) == 2
    start = time.perf_counter()
    rep = compute_invariant("nTC^m", image=r8, n=4, family=family,
                            session=SolverSession(DEFAULT_CAPS))
    elapsed = time.perf_counter() - start
    assert rep.value is None
    assert compute_invariant("nTC", image=r8, n=3,
                             session=SolverSession(DEFAULT_CAPS)).value is None
    assert product_builds and max(product_builds) <= 64
    # Building R8^4 alone took about 1.1 s; without it the entry takes
    # a few hundredths of a second.
    assert elapsed < 0.5
