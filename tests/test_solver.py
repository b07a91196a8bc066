import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dighom import (
    DEFAULT_CAPS,
    INFINITE,
    HomotopySession,
    SearchCaps,
    SolverSession,
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
from dighom.errors import CapExceeded, ValidationError
from dighom.lattice import CP, build_image, interval_image, np_product
from dighom.maps import (
    compose,
    constant_map,
    diagonal_map,
    digital_map,
    identity_map,
    projection_map,
)
from dighom.probes import ProbeFamily, standard_m2
from dighom.solver import (
    N1_CONVENTION_NOTE,
    _refinement_cover,
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


def test_tiny_caps_turn_undecided(r8):
    tiny = SearchCaps(max_visited_maps=6, max_probe_maps=6)
    rep = compute_invariant("cat", image=r8, caps=tiny)
    assert rep.value is None
    assert rep.cover.caps_hit


def test_unknown_and_mismatched_kinds(r8, family):
    with pytest.raises(ValidationError):
        compute_invariant("width", image=r8)
    with pytest.raises(ValidationError):
        compute_invariant("cat_m", image=r8)
    with pytest.raises(ValidationError):
        compute_invariant("cat", image=r8, family=family)


# --- the solver against the reference oracle ---------------------------------------


def _oracle_kinds(img, family):
    """cat, cat_m, D, D_m and cat_m_of_map on one image; the distance pair
    is the identity and a map constant on each component."""
    ident = identity_map(img)
    firsts = {}
    for p in img.points:
        firsts.setdefault(img.component_id(p), p)
    squash = digital_map(img, img,
                         {p: firsts[img.component_id(p)] for p in img.points})
    return (cat_kind(img), cat_kind(img, family),
            distance_kind((ident, squash)), distance_kind((ident, squash), family),
            cat_map_kind(ident, family))


def test_solver_matches_cover_oracle(r8, c4, family, session):
    images = (r8, c4, interval_image(0, 3, name="I3"),
              build_image([(0,), (1,), (5,), (6,)], CP(1), name="split"))
    for img in images:
        for kind in _oracle_kinds(img, family):
            uni = kind.universe_image.points
            got = compute_cover(kind, session=session)
            goods = maximal_good_sets(uni, minimal_bad_sets(kind, session=session))
            assert got.value == min_cover(uni, goods).value, (img.name, kind.tag)
            pieces = [frozenset(p) for p in got.pieces]
            assert sum(len(p) for p in pieces) == len(uni)
            assert frozenset().union(*pieces) == frozenset(uni)
            for piece in pieces:
                assert subset_good(kind, piece, session=session).status is True
            g = session.goodness(kind)
            ref = _refinement_cover(kind, g, session, DEFAULT_CAPS, "exact",
                                    piece_cap=None, seed_size=2)
            assert ref.value == got.value, (img.name, kind.tag)


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


def test_e2_scan_matches_reference(family):
    square = build_image(SQUARE, CP(1))
    prod = np_product([square, square], 2)
    session = SolverSession(DEFAULT_CAPS)
    kind = cat_kind(prod, family)
    g = session.goodness(kind)
    assert g.e2() is not None
    rng = random.Random(11)
    for _ in range(8):
        X = connected_subset(prod, rng.randrange(3, 9), rng)
        fast, _ = g.check_piece(X)
        slow = g.check(X)
        assert fast.status == slow.status


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
