import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

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
from dighom.errors import CapExceeded, ValidationError
from dighom.homotopy import (
    CAP,
    NO,
    YES,
    HomotopyCertificate,
    certificate_from_json,
    certificate_to_json,
    function_space_adjacent,
    one_step_related,
)
from dighom.lattice import CP, build_image, interval_image, np_product
from dighom.maps import (
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


def test_certificate_json_round_trip(i2):
    ident = identity_map(i2)
    const = constant_map(i2, i2, (0,))
    cert = are_homotopic(ident, const).certificate
    back = certificate_from_json(certificate_to_json(cert))
    assert verify_certificate(back, ident, const).ok
    with pytest.raises(ValidationError):
        certificate_from_json({"nonsense": 1})


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


def test_session_over_cap_closes_queried_component(r8):
    # 100 visited maps is below the 8 872 continuous self-maps of R8, so the
    # space is not partitioned; the 8 rotations still form a closable
    # component, while a null map's component overruns the cap.
    session = HomotopySession(SearchCaps(max_visited_maps=100))
    ident = identity_map(r8)
    rot = ring_rotation(r8, 3)
    assert session.homotopic(ident, rot) is True
    assert len(session._roots[(r8.key, r8.key)]) == 8
    assert session.homotopic(ident, ring_reflection(r8)) is False
    assert session.nullhomotopic(ident) is False
    cert = session.certificate_between(ident, rot)
    assert cert is not None and verify_certificate(cert, ident, rot).ok
    null = constant_map(r8, r8, RING8[0])
    assert session.class_root(r8, r8, null.values) is None
    assert session.homotopic(null, constant_map(r8, r8, RING8[4])) is None


def _racket():
    """R8 with a 4-point tail off (2, 1): 12 points, above FLAT_CLASS_LIMIT."""
    return build_image(RING8 + [(2 + i, 1) for i in range(1, 5)], CP(1), name="racket12")


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
