import itertools
import random

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from dighom import (
    DEFAULT_CAPS,
    HomotopySession,
    SearchCaps,
    are_homotopic,
    are_m_homotopic,
    find_homotopy_inverse,
    function_space,
    is_contractible,
    is_nullhomotopic,
    path_space_with_fibration,
    verify_certificate,
)
from dighom import homotopy
from dighom import maps as maps_mod
from dighom.errors import CapExceeded, ValidationError
from dighom.homotopy import (
    CAP,
    NO,
    YES,
    HomotopyCertificate,
    _map_from_values,
    function_space_adjacent,
    one_step_related,
)
from dighom.lattice import (
    CP,
    Explicit,
    build_image,
    induced_subimage,
    interval_image,
    normalize_edge,
    np_product,
)
from dighom.maps import (
    DigitalMap,
    compose,
    constant_map,
    digital_map,
    enumerate_continuous_maps,
    identity_map,
    is_continuous,
    random_continuous_map,
)
from dighom.probes import ProbeFamily, standard_m2

from conftest import RING8, SQUARE


def ring_rotation(r8, shift):
    rotated = RING8[shift:] + RING8[:shift]
    return digital_map(r8, r8, dict(zip(RING8, rotated)))


def ring_reflection(r8):
    idx = {p: i for i, p in enumerate(RING8)}
    return digital_map(r8, r8, {p: RING8[(-idx[p]) % 8] for p in RING8})


def test_one_step_related_rotation_yes_far_no(r8):
    ident = identity_map(r8)
    assert one_step_related(ident, ring_rotation(r8, 1))
    assert not one_step_related(ident, ring_rotation(r8, 3))


def test_function_space_adjacent_is_stricter(i1, c4):
    maps = list(enumerate_continuous_maps(i1, c4))
    assert len(maps) == 12
    stricter_somewhere = False
    for f, g in itertools.product(maps, maps):
        if function_space_adjacent(f, g):
            assert one_step_related(f, g)
        elif one_step_related(f, g):
            stricter_somewhere = True
    assert stricter_somewhere
    f = digital_map(i1, c4, {(0,): (0, 0), (1,): (0, 1)})
    g = digital_map(i1, c4, {(0,): (0, 1), (1,): (1, 1)})
    assert one_step_related(f, g)
    assert not function_space_adjacent(f, g)


def test_are_homotopic_reflexive(r8):
    ident = identity_map(r8)
    verdict = are_homotopic(ident, ident)
    assert verdict.decided == YES
    assert verdict.states_explored == 0
    assert verify_certificate(verdict.certificate, ident, ident).ok


def test_are_homotopic_interval_contraction(i2):
    ident = identity_map(i2)
    const = constant_map(i2, i2, (0,))
    verdict = are_homotopic(ident, const)
    assert verdict.decided == YES
    check = verify_certificate(verdict.certificate, ident, const)
    assert check.ok, check.reason


def test_ring_identity_not_nullhomotopic(r8):
    verdict = is_nullhomotopic(identity_map(r8))
    assert verdict.decided == NO
    # The identity component consists of exactly the eight rotations.
    assert verdict.states_explored == 8


def test_ring_rotations_homotopic_to_identity(r8):
    ident = identity_map(r8)
    for shift in range(1, 8):
        verdict = are_homotopic(ident, ring_rotation(r8, shift))
        assert verdict.decided == YES
        assert verify_certificate(verdict.certificate, ident,
                                  ring_rotation(r8, shift)).ok


def test_ring_reflection_not_homotopic_to_identity(r8):
    verdict = are_homotopic(identity_map(r8), ring_reflection(r8))
    assert verdict.decided == NO


def test_certificate_tamper_detection(i2):
    ident = identity_map(i2)
    const = constant_map(i2, i2, (0,))
    cert = are_homotopic(ident, const).certificate

    # Endpoint mismatch.
    other = constant_map(i2, i2, (2,))
    assert verify_certificate(cert, ident, other).reason == "endpoint mismatch"

    # A teleporting frame breaks the one-step condition.
    frames = list(cert.frames)
    frames.insert(1, constant_map(i2, i2, (2,)))
    broken = HomotopyCertificate(tuple(frames))
    check = verify_certificate(broken, ident, const)
    assert not check.ok
    assert "step violation" in check.reason or "endpoint" in check.reason


def test_contractibility_zoo(point, i1, i4, c4, k4_square, r8):
    for img in (point, i1, i4, k4_square):
        assert is_contractible(img).decided == YES
    # The four-point cycle folds onto an edge in three steps even though
    # no single point can move first; the certificate is checkable.
    verdict = is_contractible(c4)
    assert verdict.decided == YES
    cert = verdict.certificate
    assert verify_certificate(cert, identity_map(c4), cert.frames[-1]).ok
    assert len(set(cert.frames[-1].values)) == 1
    assert is_contractible(r8).decided == NO


def test_cap_reports_undecided(r8):
    tiny = SearchCaps(max_visited_maps=2, max_probe_maps=10)
    verdict = are_homotopic(identity_map(r8), ring_rotation(r8, 4), tiny)
    assert verdict.decided == CAP


def test_path_space_counts_and_fibration(i1, c4):
    ps = path_space_with_fibration(i1, 1)
    assert len(ps.paths) == 4
    ps2 = path_space_with_fibration(c4, 1)
    assert len(ps2.paths) == 12
    assert is_continuous(ps2.endpoint_map)
    prod = ps2.endpoint_map.codomain
    assert prod.is_np_full and len(prod.factors) == 2
    # Every pair of adjacent-or-equal endpoints is hit: the fibration is
    # onto when paths of length one exist between all such pairs.
    hit = set(ps2.endpoint_map.values)
    want = {a + b for a in c4.points for b in c4.points
            if c4.adjacent_or_equal(a, b)}
    assert hit == want


def test_path_space_validates_length(c4):
    with pytest.raises(ValidationError):
        path_space_with_fibration(c4, 0)


def test_function_space_adjacency_matches_predicate(i1, c4):
    maps, space = function_space(i1, c4)
    index = {(i,): m for i, m in enumerate(maps)}
    for pa, pb in itertools.combinations(space.points, 2):
        expected = function_space_adjacent(index[pa], index[pb])
        assert space.adjacent_or_equal(pa, pb) == expected


def test_m_homotopy_extends_homotopy(r8, family):
    ident = identity_map(r8)
    rot = ring_rotation(r8, 2)
    assert are_m_homotopic(ident, rot, family).decided == YES


def test_m_homotopy_separates_reflection(r8, family):
    verdict = are_m_homotopic(identity_map(r8), ring_reflection(r8), family)
    assert verdict.decided == NO
    assert verdict.witness_probe == "cycle8"
    phi = verdict.witness_map
    assert is_continuous(phi)
    comp = compose(identity_map(r8), phi)
    ref = compose(ring_reflection(r8), phi)
    assert are_homotopic(comp, ref).decided == NO


def test_contractible_probes_cannot_see_winding(r8, family):
    intervals = tuple(p for p in family.complexes if p.name != "cycle8")
    weak = ProbeFamily(m=2, complexes=intervals, name="no-cycles")
    ident = identity_map(r8)
    const = constant_map(r8, r8, (0, 0))
    assert are_homotopic(ident, const).decided == NO
    assert are_m_homotopic(ident, const, weak).decided == YES


def test_find_homotopy_inverse(point, i2, r8):
    inc = digital_map(point, i2, {(0,): (0,)})
    inv = find_homotopy_inverse(inc)
    assert inv is not None and set(inv.values) == {(0,)}

    collapse = constant_map(r8, point, (0,))
    assert find_homotopy_inverse(collapse) is None

    ident = identity_map(i2)
    g = find_homotopy_inverse(ident)
    assert g is not None
    assert are_homotopic(compose(g, ident), identity_map(i2)).decided == YES


def test_composition_preserves_homotopy(i2, c4):
    walk = digital_map(i2, c4, {(0,): (0, 0), (1,): (1, 0), (2,): (1, 1)})
    hold = constant_map(i2, c4, (0, 0))
    start = are_homotopic(walk, hold)
    assert start.decided == YES
    spin = digital_map(c4, c4, dict(zip(SQUARE, SQUARE[1:] + SQUARE[:1])))
    post = are_homotopic(compose(spin, walk), compose(spin, hold))
    assert post.decided == YES
    pick = digital_map(interval_image(0, 1), i2, {(0,): (0,), (1,): (1,)})
    pre = are_homotopic(compose(walk, pick), compose(hold, pick))
    assert pre.decided == YES


def test_session_agrees_with_direct_search(i1, c4):
    session = HomotopySession(DEFAULT_CAPS)
    maps = list(enumerate_continuous_maps(i1, c4))
    for f, g in itertools.product(maps, maps):
        direct = are_homotopic(f, g).decided == YES
        assert session.homotopic(f, g) is direct


def test_session_relation_laws_random(r8, c4):
    session = HomotopySession(DEFAULT_CAPS)
    rng = random.Random(2024)
    pool = [random_continuous_map(c4, r8, rng) for _ in range(8)]
    for f in pool:
        assert session.homotopic(f, f) is True
    for f, g in itertools.combinations(pool, 2):
        assert session.homotopic(f, g) == session.homotopic(g, f)


def test_session_certificate_between(r8):
    session = HomotopySession(DEFAULT_CAPS)
    ident = identity_map(r8)
    rot = ring_rotation(r8, 3)
    cert = session.certificate_between(ident, rot)
    assert cert is not None
    assert verify_certificate(cert, ident, rot).ok
    assert session.certificate_between(ident, ring_reflection(r8)) is None


def test_session_handles_product_codomain(i1):
    prod = np_product([i1, i1], 2)
    session = HomotopySession(DEFAULT_CAPS)
    assert session.contractible(prod) is True
    a = constant_map(i1, prod, (0, 0))
    b = constant_map(i1, prod, (1, 1))
    assert session.homotopic(a, b) is True


_I2 = interval_image(0, 2, name="I2")
_C4 = build_image(SQUARE, CP(1), name="C4")
_R8 = build_image(RING8, CP(1), name="R8")
# The product codomain is split per factor by the session and searched
# whole by the reference BFS; R8 is left out as its domain because that
# map space holds millions of maps.
_R8_I1 = np_product([_R8, interval_image(0, 1)], 2)
_SMALL_PAIRS = [(dom, cod) for dom in (_I2, _C4, _R8) for cod in (_I2, _C4, _R8)] + [
    (_I2, _R8_I1), (_C4, _R8_I1)]
_RIGID_R8 = [ring_rotation(_R8, k) for k in range(8)] + [
    compose(ring_reflection(_R8), ring_rotation(_R8, k)) for k in range(8)]


@st.composite
def _small_parallel_maps(draw):
    dom, cod = draw(st.sampled_from(_SMALL_PAIRS))

    def one_map():
        if dom is _R8 and cod is _R8 and draw(st.booleans()):
            return draw(st.sampled_from(_RIGID_R8))
        return random_continuous_map(dom, cod, random.Random(draw(st.integers(0, 2**32))))

    return one_map(), one_map()


def _reference_homotopic(f, g):
    """The plain frame BFS, started from a non-null map when there is one:
    a null map's component can hold thousands of maps, a rigid map's few.
    Two null maps into a connected image are homotopic through constants."""
    f_null = is_nullhomotopic(f).decided
    g_null = is_nullhomotopic(g).decided
    assert CAP not in (f_null, g_null)
    if f_null == YES and g_null == YES:
        return True
    start, end = (f, g) if f_null == NO else (g, f)
    verdict = are_homotopic(start, end)
    assert verdict.decided != CAP
    return verdict.decided == YES


@pytest.fixture(scope="module")
def shared_session():
    # Shared by every example, as the solver shares one session: each small
    # map space is partitioned once and later examples read its classes.
    return HomotopySession(DEFAULT_CAPS)


@settings(max_examples=40, deadline=None)
@given(pair=_small_parallel_maps())
def test_session_partition_matches_reference_search(shared_session, pair):
    f, g = pair
    session = shared_session
    expected = _reference_homotopic(f, g)
    assert session.homotopic(f, g) is expected
    assert session.nullhomotopic(f) is (is_nullhomotopic(f).decided == YES)
    cert = session.certificate_between(f, g)
    assert (cert is not None) is expected
    if cert is not None:
        check = verify_certificate(cert, f, g)
        assert check.ok, check.reason


# R8 with a square attached along its edge from (2, 0) to (2, 1).  No point
# folds, so this core is not a ring and maps into it go through search.
_R8_SQUARE = build_image(RING8 + [(3, 0), (3, 1)], CP(1), name="R8+square")


def _square_turn(shift, sign=1):
    """The self-map of R8+square that folds the square onto its edge from
    (2, 0) to (2, 1) and sends ring point i to RING8[shift + sign * i]."""
    mapping = {p: RING8[(shift + sign * i) % 8] for i, p in enumerate(RING8)}
    mapping.update({(3, 0): mapping[(2, 0)], (3, 1): mapping[(2, 1)]})
    return digital_map(_R8_SQUARE, _R8_SQUARE, mapping)


def test_session_over_cap_closes_queried_component(monkeypatch):
    # 100 visited maps is below the 148 412 continuous self-maps of
    # R8+square, which has no ring table, so the space is not partitioned;
    # the identity's component of 53 maps still closes, while a null map's
    # component overruns the cap.
    img = _R8_SQUARE
    session = HomotopySession(SearchCaps(max_visited_maps=100))
    ident = identity_map(img)
    turned = _square_turn(3)
    assert session.homotopic(ident, turned) is True
    assert len(session._roots[(img.key, img.key)]) == 53
    assert session.homotopic(ident, _square_turn(0, -1)) is False
    assert session.nullhomotopic(ident) is False
    cert = session.certificate_between(ident, turned)
    assert cert is not None and verify_certificate(cert, ident, turned).ok
    null = constant_map(img, img, RING8[0])
    searches = []
    real_bfs = homotopy._frame_bfs

    def counted_bfs(*args):
        searches.append(real_bfs(*args))
        return searches[-1]

    monkeypatch.setattr(homotopy, "_frame_bfs", counted_bfs)
    assert session.class_root(img, img, null.values) is None
    [(_, parents, _, capped)] = searches
    assert capped
    # Every map the capped search touched lies in the one over-cap
    # component, so no query about any of them searches again.
    other = max(parents)
    assert other != null.values
    assert session.class_root(img, img, other) is None
    assert session.homotopic(null, constant_map(img, img, RING8[4])) is None
    assert len(searches) == 1


def test_session_ring_small_domain_decided_under_any_cap(r8, monkeypatch):
    # 100 visited maps is below the 8 872 continuous self-maps of R8, but
    # R8 is a ring, so degrees decide: no search and no enumeration.
    _refuse_searches(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("a map space was enumerated")

    monkeypatch.setattr(maps_mod, "continuous_value_tuples", refuse)
    session = HomotopySession(SearchCaps(max_visited_maps=100))
    const = constant_map(r8, r8, RING8[0])
    assert session.homotopic(const, constant_map(r8, r8, RING8[4])) is True
    assert session.homotopic(identity_map(r8), ring_reflection(r8)) is False
    assert session.nullhomotopic(ring_rotation(r8, 3)) is False


def _racket(tail=4):
    """R8 with a straight tail off (2, 1); with the default 4-point tail it
    has 12 points, above FLAT_CLASS_LIMIT."""
    return build_image(RING8 + [(2 + i, 1) for i in range(1, tail + 1)], CP(1),
                       name=f"racket{8 + tail}")


def _ring_map(racket, r8, ring_index):
    """Ring point i to RING8[ring_index(i)]; the tail follows (2, 1)."""
    mapping = {p: RING8[ring_index(i) % 8] for i, p in enumerate(RING8)}
    tip = mapping[(2, 1)]
    mapping.update({p: tip for p in racket.points if p not in mapping})
    return digital_map(racket, r8, mapping)


def test_session_big_domain_matches_reference(r8):
    racket = _racket()
    session = HomotopySession(DEFAULT_CAPS)
    forward = _ring_map(racket, r8, lambda i: i)
    turned = _ring_map(racket, r8, lambda i: i + 3)
    backward = _ring_map(racket, r8, lambda i: -i)
    for f, g, expected in ((forward, turned, True), (forward, backward, False)):
        assert session.homotopic(f, g) is expected
        assert are_homotopic(f, g).decided == (YES if expected else NO)
    assert session.nullhomotopic(forward) is False
    assert is_nullhomotopic(forward).decided == NO
    # Folding the ring onto an arc misses ring points, so the map is null;
    # the reference BFS from it is too slow to run here.
    folded = _ring_map(racket, r8, lambda i: min(i, 8 - i))
    assert session.nullhomotopic(folded) is True
    # Twelve points are too many to classify: the answers came from search.
    assert (racket.key, r8.key) not in session._roots


def test_session_big_domain_no_from_ring_under_cap(r8):
    # At cap 1 000 a null map's component overruns the cap, but R8 is a
    # ring, so the winding map's degree proves no without a search.
    racket = _racket()
    session = HomotopySession(SearchCaps(max_visited_maps=1000))
    folded = _ring_map(racket, r8, lambda i: min(i, 8 - i))
    forward = _ring_map(racket, r8, lambda i: i)
    assert session.homotopic(folded, forward) is False
    assert session.homotopic(forward, folded) is False
    assert session.nullhomotopic(forward) is False


def test_session_certificate_between_windings_skips_search(r8):
    racket = _racket()
    session = HomotopySession(SearchCaps(max_visited_maps=1000))
    forward = _ring_map(racket, r8, lambda i: i)
    backward = _ring_map(racket, r8, lambda i: -i)
    assert session.certificate_between(forward, backward) is None
    # R8's degrees proved no, so no search ran over the racket's map space.
    assert (racket.key, r8.key) not in session._graphs


def test_session_refuses_discontinuous_maps(r8):
    # A map that winds the racket's ring once, with its tail jumping from
    # (2, 2) across the ring; the second map differs from it only there.
    racket = _racket()
    winding = _ring_map(racket, r8, lambda i: i).mapping
    tail = [(2 + i, 1) for i in range(1, 5)]
    f = DigitalMap(racket, r8, {**winding, **{p: (0, 0) for p in tail}})
    g = DigitalMap(racket, r8, {**winding, **{p: (0, 2) for p in tail}})
    # [0, 3] into R8 with 1 sent across the ring from its neighbours.
    i3 = interval_image(0, 3)
    h = DigitalMap(i3, r8, {(0,): (0, 0), (1,): (2, 2), (2,): (0, 0), (3,): (0, 0)})
    for caps in (DEFAULT_CAPS, SearchCaps(max_visited_maps=100)):
        # 100 is below the 216 continuous maps of [0, 3] into R8, so that
        # session closes components instead of partitioning the space.
        session = HomotopySession(caps)
        with pytest.raises(ValidationError):
            session.homotopic(f, g)
        with pytest.raises(ValidationError):
            session.nullhomotopic(h)
        with pytest.raises(ValidationError):
            session.class_root(i3, r8, h.values)
        with pytest.raises(ValidationError):
            session.certificate_between(f, g)
    with pytest.raises(ValidationError):
        are_homotopic(f, g)
    with pytest.raises(ValidationError):
        is_nullhomotopic(h)
    # [0, 3] into itself with 1 sent to 3: equal maps, and a contractible
    # codomain, must not let the session answer before it checks.  A
    # continuous winding map paired with a discontinuous one is refused too.
    i3_jump = DigitalMap(i3, i3, {(0,): (0,), (1,): (3,), (2,): (0,), (3,): (0,)})
    forward = _ring_map(racket, r8, lambda i: i)
    for caps in (DEFAULT_CAPS, SearchCaps(max_visited_maps=100)):
        session = HomotopySession(caps)
        for ask in (lambda: session.homotopic(i3_jump, i3_jump),
                    lambda: session.nullhomotopic(i3_jump),
                    lambda: session.homotopic(forward, g),
                    lambda: session.certificate_between(i3_jump, i3_jump),
                    lambda: session.certificate_between(forward, g)):
            with pytest.raises(ValidationError):
                ask()
    for ask in (lambda: are_homotopic(i3_jump, i3_jump),
                lambda: is_nullhomotopic(i3_jump),
                lambda: are_homotopic(forward, g)):
        with pytest.raises(ValidationError):
            ask()


def test_session_certificate_between_null_maps(r8, reference_search_forbidden):
    # Both maps are null, so they share the largest class of R8's self-maps.
    session = HomotopySession(DEFAULT_CAPS)
    folded = digital_map(r8, r8, {p: RING8[min(i, 8 - i)] for i, p in enumerate(RING8)})
    const = constant_map(r8, r8, RING8[4])
    assert session.homotopic(folded, const) is True
    cert = session.certificate_between(folded, const)
    assert cert is not None
    check = verify_certificate(cert, folded, const)
    assert check.ok, check.reason


_GRID3 = build_image([(x, y) for x in range(3) for y in range(3)], CP(1), name="grid3")
_SPLIT = build_image([(0,), (1,), (5,), (6,)], CP(1), name="split")


@st.composite
def _contractibility_images(draw):
    """An interval, a connected induced subimage of R8 or of the 3x3 grid,
    or one of C4, R8, the 9- and 10-point rackets and a disconnected image."""
    kind = draw(st.sampled_from(("interval", "subimage", "named")))
    if kind == "interval":
        return interval_image(0, draw(st.integers(0, 6)))
    if kind == "subimage":
        ambient = draw(st.sampled_from((_R8, _GRID3)))
        points = draw(st.sets(st.sampled_from(ambient.points), min_size=1))
        sub = induced_subimage(ambient, points)
        return induced_subimage(ambient, sub.components()[0])
    return draw(st.sampled_from((_C4, _R8, _racket(1), _racket(2), _SPLIT)))


_DECIDED = {YES: True, NO: False, CAP: None}


def _reference_contractible(real_search, img, caps):
    """``is_contractible`` with the real reference search put back."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homotopy, "_reference_search", real_search)
        return _DECIDED[is_contractible(img, caps).decided]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(img=_contractibility_images())
def test_session_contractible_matches_reference(img, reference_search_forbidden):
    got = HomotopySession(DEFAULT_CAPS).contractible(img)
    assert got is _reference_contractible(reference_search_forbidden, img, DEFAULT_CAPS)


def test_session_contractible_under_tiny_cap(r8, c4, i4, reference_search_forbidden):
    # C4's identity admits no single-point move, so A* stops at once and the
    # frame BFS overruns a cap of one map, as the reference search does.
    tiny = SearchCaps(max_visited_maps=1)
    assert HomotopySession(tiny).contractible(c4) is None
    assert _reference_contractible(reference_search_forbidden, c4, tiny) is None
    # R8 is a ring of 8 points, so its identity's degree decides, whatever
    # the cap, where the reference search gives up.
    assert HomotopySession(tiny).contractible(r8) is False
    assert _reference_contractible(reference_search_forbidden, r8, tiny) is None
    # The interval folds to a point, so its fold chain stands where the
    # reference search gives up.
    assert HomotopySession(tiny).contractible(i4) is True
    assert _reference_contractible(reference_search_forbidden, i4, tiny) is None


def _counting(searches, name, real):
    def counted(*args):
        searches.append(name)
        return real(*args)
    return counted


def _count_searches(monkeypatch):
    """Names each A* and frame BFS, in order, while the test runs."""
    searches = []
    monkeypatch.setattr(homotopy, "_frame_bfs",
                        _counting(searches, "bfs", homotopy._frame_bfs))
    monkeypatch.setattr(HomotopySession, "_astar_single_point",
                        _counting(searches, "astar", HomotopySession._astar_single_point))
    return searches


def _refuse_searches(monkeypatch):
    def refuse(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(homotopy, "_frame_bfs", refuse)
    monkeypatch.setattr(HomotopySession, "_astar_single_point", refuse)


def _racket_maps(cod):
    """Maps from the 12-point racket into cod, an image holding R8:
    windings each way, a fold onto an arc and a random map."""
    racket = _racket()
    windings = [_ring_map(racket, cod, index) for index in (
        lambda i: i, lambda i: i + 3, lambda i: -i, lambda i: min(i, 8 - i))]
    return (*windings, random_continuous_map(racket, cod, random.Random(7)))


def _racket_questions(session, cod):
    """Eight questions on ``_racket_maps(cod)``; the last three ask for
    certificates from forward to turned, scattered to folded and forward
    to folded."""
    forward, turned, backward, folded, scattered = _racket_maps(cod)
    return [session.homotopic(forward, turned), session.homotopic(forward, backward),
            session.homotopic(folded, scattered), session.nullhomotopic(folded),
            session.nullhomotopic(forward), session.certificate_between(forward, turned),
            session.certificate_between(scattered, folded),
            session.certificate_between(forward, folded)]


def test_session_repeated_queries_run_no_search(monkeypatch):
    # The codomain is R8 with a square attached, which folds to no ring,
    # and twelve points are too many to classify, so every answer below
    # comes from a directed search the first time and from a kept one after.
    cod = _R8_SQUARE
    session = HomotopySession(SearchCaps(max_visited_maps=1000))
    searches = _count_searches(monkeypatch)
    first = _racket_questions(session, cod)
    assert first[:5] == [True, False, True, True, False]
    assert first[5] is not None and first[6] is not None and first[7] is None
    assert "astar" in searches and "bfs" in searches
    _refuse_searches(monkeypatch)
    assert _racket_questions(session, cod) == first


def test_session_ring_queries_run_no_search(r8, monkeypatch):
    # Into R8, a ring of 8 points, and into R8 with a one-point tail, which
    # folds onto R8, degrees answer every question and the certificates
    # are chains of folds and clamps: no search runs, even the first time.
    _refuse_searches(monkeypatch)
    for cod, caps in itertools.product((r8, _racket(1)),
                                       (SearchCaps(max_visited_maps=1000), DEFAULT_CAPS)):
        session = HomotopySession(caps)
        got = _racket_questions(session, cod)
        assert got[:5] == [True, False, True, True, False]
        assert got[5] is not None and got[6] is not None and got[7] is None
        forward, turned, _, folded, scattered = _racket_maps(cod)
        for cert, f, g in ((got[5], forward, turned), (got[6], scattered, folded)):
            check = verify_certificate(cert, f, g)
            assert check.ok, check.reason
    assert HomotopySession(SearchCaps(max_visited_maps=1)).contractible(_racket(1)) is False


def test_session_contractible_searches_once(r8, c4, monkeypatch):
    searches = _count_searches(monkeypatch)
    # C4 and R8 with a square attached fold to no ring, so a search decides
    # them.  A cap of one map leaves the latter undecided, and that outcome
    # is kept too.
    for caps, img, expected in ((DEFAULT_CAPS, c4, True), (DEFAULT_CAPS, _R8_SQUARE, False),
                                (SearchCaps(max_visited_maps=1), _R8_SQUARE, None)):
        session = HomotopySession(caps)
        searches.clear()
        assert session.contractible(img) is expected
        assert searches
        ran = list(searches)
        assert session.contractible(img) is expected
        assert searches == ran
    # R8 is a ring, R8 with a one-point tail folds onto it, and an arc of R8
    # and a tree fold to a point: degrees decide them under any cap.
    searches.clear()
    arc = induced_subimage(r8, RING8[:5])
    tree = induced_subimage(_GRID3, [(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)])
    for caps in (DEFAULT_CAPS, SearchCaps(max_visited_maps=1)):
        for img, expected in ((r8, False), (_racket(1), False), (arc, True), (tree, True)):
            assert HomotopySession(caps).contractible(img) is expected
    assert searches == []
    # A full product splits by its factors and reads their kept answers.
    session = HomotopySession(DEFAULT_CAPS)
    assert session.contractible(c4) is True and session.contractible(_R8_SQUARE) is False
    searches.clear()
    assert session.contractible(np_product([c4, _R8_SQUARE], 2)) is False
    assert searches == []


def _winding(f):
    """Winding number around R8 of f on the ring R8 inside its domain;
    continuity makes each step -1, 0 or +1."""
    pos = {p: i for i, p in enumerate(RING8)}
    steps = {0: 0, 1: 1, 7: -1}
    return sum(steps[(pos[f.mapping[b]] - pos[f.mapping[a]]) % 8]
               for a, b in zip(RING8, RING8[1:] + RING8[:1])) // 8


@st.composite
def _query_streams(draw):
    """Queries on two or three maps into R8 from one domain: the 9- or
    10-point racket or R8.  The maps come from a small pool, eight random
    seeds and the windings each way, so queries share endpoints and repeat,
    within an example and across examples."""
    dom = draw(st.sampled_from((_racket(1), _racket(2), _R8)))

    def one_map():
        if draw(st.booleans()):
            shift, sign = draw(st.integers(0, 7)), draw(st.sampled_from((1, -1)))
            return _ring_map(dom, _R8, lambda i: shift + sign * i)
        return random_continuous_map(dom, _R8, random.Random(draw(st.integers(0, 7))))

    pool = [one_map() for _ in range(draw(st.integers(2, 3)))]
    query = st.tuples(st.sampled_from(("null", "homotopic", "certificate")),
                      st.sampled_from(pool), st.sampled_from(pool))
    queries = draw(st.lists(query, min_size=1, max_size=5))
    # Each question again with its maps swapped: a search back along an
    # earlier chain is where answers built from kept chains would show.
    return queries + [(op, g, f) for op, f, g in queries]


def _ask(session, op, f, g):
    if op == "null":
        return session.nullhomotopic(f)
    if op == "homotopic":
        return session.homotopic(f, g)
    return session.certificate_between(f, g)


def _fresh_session(shared):
    """A session with no kept answers, under the shared session's caps.  At
    the default cap every map space queried here is partitioned, and a
    partition does not depend on earlier queries, so the fresh session
    borrows the partitions; building them again costs seconds per query."""
    fresh = HomotopySession(shared.caps)
    if shared.caps == DEFAULT_CAPS:
        fresh._partitioned = set(shared._partitioned)
        fresh._roots = {key: shared._roots[key] for key in shared._partitioned}
        fresh._spaces = dict(shared._spaces)
    return fresh


@pytest.fixture(scope="module")
def memo_sessions():
    # Under 1 000 visited maps each of these map spaces is closed component
    # by component, and null components cap; under the default they are
    # partitioned.
    return [HomotopySession(SearchCaps(max_visited_maps=1000)),
            HomotopySession(DEFAULT_CAPS)]


@settings(max_examples=30, deadline=None)
@given(queries=_query_streams(), which=st.sampled_from((0, 1)))
def test_shared_session_answers_as_a_fresh_one(memo_sessions, queries, which):
    shared = memo_sessions[which]
    for op, f, g in queries:
        g = None if op == "null" else g
        got = _ask(shared, op, f, g)
        assert got == _ask(_fresh_session(shared), op, f, g)
        if op == "certificate":
            if got is None:
                continue
            check = verify_certificate(got, f, g)
            assert check.ok, check.reason
            got = True
        if got is not None:
            assert got is (_winding(f) == (0 if g is None else _winding(g)))


# --- maps into codomains that fold to a point or to a ring of at least 5
# points: degrees decide


def _explicit_image(n, edges):
    """Points (0,) .. (n - 1,) with the given index pairs as edges."""
    return build_image([(i,) for i in range(n)],
                       Explicit(frozenset(normalize_edge((a,), (b,)) for a, b in edges)))


_RINGS = {m: _explicit_image(m, [(i, (i + 1) % m) for i in range(m)]) for m in range(4, 13)}
# Rings of 5 to 12 points hold few maps from a domain with many edges, so
# spaces over this many maps are skipped; union-find over them is slow.
_RING_SPACE_LIMIT = 3000


def _folding_onto(img, draw, most):
    """img with 1 to ``most`` more points, each joined to a random earlier
    point p and to some of p's neighbours, so that it folds onto p: pendant
    paths, trees and dominated points.  The result folds back onto img."""
    points, edges = list(img.points), set(img.edges)
    for k in range(draw(st.integers(1, most))):
        new = (100 + k,) * len(points[0])
        p = draw(st.sampled_from(points))
        nbrs = sorted({b if a == p else a for a, b in edges if p in (a, b)})
        joined = [p] + (draw(st.lists(st.sampled_from(nbrs), unique=True)) if nbrs else [])
        edges |= {normalize_edge(new, q) for q in joined}
        points.append(new)
    return build_image(points, Explicit(frozenset(edges)))


def _folding_codomain(draw, ring):
    """ring itself, ring with points that fold onto it, an interval, or
    another image that folds to a point: a tree or a point grown as above."""
    kind = draw(st.sampled_from(("folds to the ring", "ring", "folds to a point", "interval")))
    if kind == "ring":
        return ring
    if kind == "folds to the ring":
        return _folding_onto(ring, draw, 3)
    if kind == "interval":
        return interval_image(0, draw(st.integers(1, 4)))
    return _folding_onto(_explicit_image(1, []), draw, 3)


@st.composite
def _ring_spaces(draw):
    """A domain of at most 10 points and a codomain that folds to a point
    or to a ring of 5 to 12 points.  The domain is a cycle of 3 to 8
    points with random chords, and up to two more points joined to random
    earlier ones, or to none."""
    length = draw(st.integers(3, 8))
    n = draw(st.integers(length, min(10, length + 2)))
    edges = {(i, (i + 1) % length) for i in range(length)}
    pairs = [(a, b) for b in range(n) for a in range(b) if (a, b) not in edges
             and (b, a) not in edges]
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs), max_size=3))
    # Half the rings are no longer than the cycle, so that maps can wind.
    size = draw(st.integers(5, 12) | st.integers(5, max(5, length)))
    return _explicit_image(n, edges), _folding_codomain(draw, _RINGS[size])


# Domains with a small induced cycle, each marked whether R8 lies inside
# it, so that maps from it can wind around the ring.
_RING_DOMAINS = [(_C4, False), (_R8, True), (_racket(1), True), (_racket(2), True)]


@st.composite
def _ring_domain_maps(draw):
    """Two maps from one domain into R8 or into a codomain that folds to R8
    or to a point, each random or, when R8 lies in both images, winding
    once around it: random maps into R8 are almost all null."""
    dom, winds = draw(st.sampled_from(_RING_DOMAINS))
    cod = _folding_codomain(draw, _R8)
    winds = winds and set(RING8) <= set(cod.points)

    def one_map():
        if winds and draw(st.booleans()):
            shift, sign = draw(st.integers(0, 7)), draw(st.sampled_from((1, -1)))
            return _ring_map(dom, cod, lambda i: shift + sign * i)
        return random_continuous_map(dom, cod, random.Random(draw(st.integers(0, 2**32))))

    return one_map(), one_map()


@settings(max_examples=50, deadline=None)
@given(space=_ring_spaces(), data=st.data())
def test_ring_degree_classes_equal_union_find(space, data):
    dom, ring = space
    caps = SearchCaps(max_visited_maps=_RING_SPACE_LIMIT)
    by_degree = HomotopySession(caps)
    assert by_degree._ring(dom, ring) is not None
    try:
        space = by_degree.map_space(dom, ring, _RING_SPACE_LIMIT)
    except CapExceeded:
        reject()
    keys = by_degree.class_keys(dom, ring, space)
    by_search = HomotopySession(caps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HomotopySession, "_ring", lambda self, domain, codomain: None)
        found = by_search.class_keys(dom, ring, space)
    # Without a ring table the keys are union-find's class roots.
    assert found == [by_search._roots[(dom.key, ring.key)][v] for v in space]
    # Degree keys and roots split the space alike: each key meets one root.
    assert len(set(keys)) == len(set(found)) == len(set(zip(keys, found)))
    # The ring route of _reach agrees with the union-find classes, and
    # every clamp chain is a certificate.
    roots = dict(zip(space, found))
    index = st.integers(0, len(space) - 1)
    for _ in range(3):
        f = _map_from_values(dom, ring, space[data.draw(index)])
        g = _map_from_values(dom, ring, space[data.draw(index)])
        for end in (g, None):
            chain = by_degree._reach(f, end)
            target = end or _map_from_values(dom, ring, (f.values[0],) * len(dom))
            assert bool(chain) is (roots[f.values] == roots[target.values])
            if chain:
                cert = homotopy._certificate_from_chain(dom, ring, chain)
                check = verify_certificate(cert, f, target)
                assert check.ok, check.reason


@settings(max_examples=50, deadline=None)
@given(space=_ring_spaces(), data=st.data())
def test_space_key_columns_equal_per_map_degrees(space, data):
    dom, cod = space
    session = HomotopySession()
    try:
        maps = session.map_space(dom, cod, _RING_SPACE_LIMIT)
    except CapExceeded:
        reject()
    ring = session._ring(dom, cod)
    assert session.space_keys(dom, cod, cod, cod.points) == [
        ring.degrees(ring.lift(v)) for v in maps]
    # Through a random continuous value table into another codomain that
    # folds to a point or to a ring.
    target = _folding_codomain(data.draw, _RINGS[data.draw(st.integers(5, 12))])
    table = random_continuous_map(cod, target, random.Random(data.draw(st.integers(0, 2**32))))
    composites = [tuple(map(table.mapping.__getitem__, v)) for v in maps]
    tring = session._ring(dom, target)
    keys = session.space_keys(dom, cod, target, table.values)
    assert keys == [tring.degrees(tring.lift(v)) for v in composites]
    assert keys == session.class_keys(dom, target, composites)


@settings(max_examples=30, deadline=None)
@given(pair=_ring_domain_maps())
def test_ring_decide_agrees_with_reference_search(pair):
    # Every domain here has at most 10 points, so _decide reads degree keys;
    # they decide without a search or an enumeration, even under a cap of
    # one map.
    f, g = pair
    expected = (_reference_homotopic(f, g), is_nullhomotopic(f).decided == YES)

    def refuse(*args, **kwargs):
        raise AssertionError("a search or an enumeration ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homotopy, "_frame_bfs", refuse)
        mp.setattr(HomotopySession, "_astar_single_point", refuse)
        mp.setattr(maps_mod, "continuous_value_tuples", refuse)
        for caps in (DEFAULT_CAPS, SearchCaps(max_visited_maps=1)):
            session = HomotopySession(caps)
            assert (session._decide(f, g), session._decide(f, None)) == expected


@settings(max_examples=40, deadline=None)
@given(pair=_ring_domain_maps())
def test_ring_route_agrees_with_reference_search(pair):
    f, g = pair
    session = HomotopySession(DEFAULT_CAPS)
    assert session._ring(f.domain, f.codomain) is not None
    for end in (g, None):
        chain = session._reach(f, end)
        if end is None:
            expected = is_nullhomotopic(f).decided == YES
            end = constant_map(f.domain, f.codomain, f.values[0])
        else:
            expected = _reference_homotopic(f, end)
        assert bool(chain) is expected
        if chain:
            cert = homotopy._certificate_from_chain(f.domain, f.codomain, chain)
            check = verify_certificate(cert, f, end)
            assert check.ok, check.reason


def test_four_point_ring_keeps_union_find_and_astar(i2, monkeypatch):
    # On 4 points the degree rule is false: C4 contracts, so its maps go
    # through the old engines, while 5 points already make a ring table.
    # C4 with a one-point tail folds onto C4, so it gets no table either.
    c4 = _RINGS[4]
    tailed = _explicit_image(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    session = HomotopySession(DEFAULT_CAPS)
    assert session._ring(c4, c4) is None and session._ring(i2, c4) is None
    assert session._ring(tailed, tailed) is None and session._ring(i2, tailed) is None
    assert session._ring(i2, _RINGS[5]) is not None
    searches = _count_searches(monkeypatch)
    moves = []
    monkeypatch.setattr(homotopy._MapGraph, "single_point_moves",
                        _counting(moves, "move", homotopy._MapGraph.single_point_moves))
    assert session.contractible(c4) is True
    assert searches[0] == "astar"
    ident = identity_map(c4)
    assert session.class_root(c4, c4, ident.values) == min(session._spaces[(c4.key, c4.key)])
    assert moves


# The 5x3 grid without its point (1, 1).
_GRID_HOLE = build_image([(x, y) for x in range(5) for y in range(3) if (x, y) != (1, 1)],
                         CP(1), name="grid-hole")


@st.composite
def _frame_starts(draw):
    """A map to take frame moves from: from C4, R8, R8+square, the 9-point
    racket or a connected piece of the one-hole grid, into C4, R8,
    R8+square or the one-hole grid.  Only domains of at most 6 points go
    into the grid, and domains over 8 points only into C4 or R8, so the
    oracle's product stays small."""
    dom = draw(st.sampled_from(("piece", _C4, _R8, _R8_SQUARE, _racket(1))))
    if dom == "piece":
        points = draw(st.sets(st.sampled_from(_GRID_HOLE.points), min_size=1, max_size=6))
        dom = induced_subimage(_GRID_HOLE, induced_subimage(_GRID_HOLE, points).components()[0])
    cods = (_C4, _R8) if len(dom) > 8 else (_C4, _R8, _R8_SQUARE)
    if len(dom) <= 6:
        cods += (_GRID_HOLE,)
    cod = draw(st.sampled_from(cods))
    return random_continuous_map(dom, cod, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=40, deadline=None)
@given(f=_frame_starts())
def test_frame_moves_are_the_filtered_product(f):
    """The frame moves from f are the continuous maps g with g(p) in the
    closed neighbourhood of f(p) at every point p, f excluded, in
    itertools.product order over those neighbourhoods in ``_search_order``
    (sorted, so the order of the product over all codomain points),
    read back in domain order."""
    dom, cod = f.domain, f.codomain
    order = maps_mod._search_order(dom)
    index = {p: i for i, p in enumerate(order)}
    edges = [(index[a], index[b]) for a, b in dom.edges]
    back = [index[p] for p in dom.points]
    want = []
    for vals in itertools.product(*(cod.closed_neighborhood(f.mapping[p]) for p in order)):
        if all(cod.adjacent_or_equal(vals[i], vals[j]) for i, j in edges):
            g = tuple(vals[i] for i in back)
            if g != f.values:
                want.append(g)
    assert list(homotopy._MapGraph(dom, cod).frame_neighbors(f.values)) == want


def test_frame_bfs_cap_boundary():
    # The component of this path of [0, 2] in R8+square holds 104 maps.  A
    # closure exhausts it at cap 104, caps at every smaller cap, and never
    # touches more maps besides its start than the cap.
    mg = homotopy._MapGraph(interval_image(0, 2), _R8_SQUARE)
    start = ((0, 0), (1, 0), (2, 0))
    hit, parents, explored, capped = homotopy._frame_bfs(
        mg, start, (), SearchCaps(max_visited_maps=104))
    assert (hit, len(parents), explored, capped) == (None, 104, 104, False)
    component = set(parents)
    for cap in range(1, 104):
        hit, parents, _, capped = homotopy._frame_bfs(
            mg, start, (), SearchCaps(max_visited_maps=cap))
        assert hit is None and capped
        assert len(parents) - 1 <= cap and set(parents) <= component
