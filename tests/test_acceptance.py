"""End-to-end acceptance checks.

Each test prints exactly one line of the form

    ACCEPTANCE <n>: PASS - <detail>
    ACCEPTANCE <n>: FAIL - <detail>

so a plain run doubles as a go/no-go report.  Run with ``pytest -s`` to see
the lines from passing tests as well.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from dighom import (
    DEFAULT_CAPS,
    HomotopySession,
    SolverSession,
    cli,
    compute_invariant,
    check_equivalence_invariance,
    check_fiber_m_equivalence,
    distance_kind,
    is_contractible,
    path_space_with_fibration,
    verify_certificate,
    verify_inequality_suite,
)
from dighom.lattice import (
    CP,
    build_image,
    image_to_json,
    interval_image,
    np_product,
)
from dighom.maps import (
    compose,
    constant_map,
    diagonal_map,
    digital_map,
    enumerate_continuous_maps,
    identity_map,
    projection_map,
    random_continuous_map,
)
from dighom.homotopy import NO, YES, function_space_adjacent, one_step_related
from dighom.probes import ProbeFamily, enumerate_maps, standard_m2
from dighom.solver import _refinement_cover, _scan_bad_sets

from conftest import RING8, SQUARE


def line(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {detail}")
    return ok


def rotation(r8, shift):
    rotated = RING8[shift:] + RING8[:shift]
    return digital_map(r8, r8, dict(zip(RING8, rotated)))


def reflection(r8):
    idx = {p: i for i, p in enumerate(RING8)}
    return digital_map(r8, r8, {p: RING8[(-idx[p]) % 8] for p in RING8})


def distance_via_refinement(maps, family, session):
    """The distance computed by the lazy partition engine, bypassing the
    router, as an independent code path for the cross-checks."""
    kind = distance_kind(maps, family)
    g = session.goodness(kind)
    cover = _refinement_cover(kind, g, "exact", _scan_bad_sets(g, 2))
    return cover.value


def test_acceptance_01_one_point_triviality(point, family, session):
    ident = identity_map(point)
    values = {
        "cat": compute_invariant("cat", image=point, session=session).value,
        "cat_m": compute_invariant("cat_m", image=point, family=family,
                                   session=session).value,
        "TC": compute_invariant("TC", image=point, session=session).value,
        "TC^m": compute_invariant("TC^m", image=point, family=family,
                                  session=session).value,
        "D": compute_invariant("D", maps=(ident, ident), session=session).value,
        "D_m": compute_invariant("D_m", maps=(ident, ident), family=family,
                                 session=session).value,
    }
    for n in (2, 3, 4):
        values[f"{n}-TC^m"] = compute_invariant("nTC^m", image=point, n=n,
                                                family=family,
                                                session=session).value
    one = compute_invariant("nTC^m", image=point, n=1, family=family,
                            session=session).value
    ok = all(v == 0 for v in values.values()) and one == 1
    assert line(1, ok, f"one-point image: all invariants 0, 1-TC^m = {one}"), values


def test_acceptance_02_contractible_images(k4_square, family, session):
    images = [interval_image(0, z) for z in range(1, 5)] + [k4_square]
    failures = []
    for img in images:
        if is_contractible(img).decided != YES:
            failures.append((img.name or img.points, "not contractible"))
            continue
        for name in ("cat", "TC"):
            value = compute_invariant(name, image=img, session=session).value
            if value != 0:
                failures.append((img.name, name, value))
        for name in ("cat_m", "TC^m"):
            value = compute_invariant(name, image=img, family=family,
                                      session=session).value
            if value != 0:
                failures.append((img.name, name, value))
    ok = not failures
    assert line(2, ok, "intervals [0,z] for z<=4 and the complete 4-point "
                       "square are contractible with all invariants 0"), failures


def test_acceptance_03_cycle_rigidity(c4, r8):
    ring_verdict = is_contractible(r8)
    ring_rigid = (ring_verdict.decided == NO
                  and ring_verdict.states_explored == 8)
    square_verdict = is_contractible(c4)
    square_rigid = square_verdict.decided == NO
    cert_note = ""
    if square_verdict.decided == YES:
        cert = square_verdict.certificate
        check = verify_certificate(cert, identity_map(c4), cert.frames[-1])
        cert_note = (f"; the 4-cycle instead contracts in {cert.steps} steps "
                     f"(certificate verified: {check.ok}) because the homotopy "
                     f"relation used here constrains frames per variable only")
    ok = ring_rigid and square_rigid
    line(3, ok,
         f"R8 rigid: {ring_rigid} (component of the identity has "
         f"{ring_verdict.states_explored} maps, no constant); "
         f"4-cycle rigid: {square_rigid}{cert_note}")
    assert ring_rigid
    assert square_rigid, (
        "the 4-point 4-adjacency cycle is required to be non-contractible, "
        "but BFS finds a 3-step contraction whose certificate passes "
        "verify_certificate; with frames only required to be continuous and "
        "pointwise adjacent-or-equal this contraction exists and the "
        "requirement is unattainable" + cert_note
    )


def test_acceptance_04_cross_path_equalities(point, i1, c4, k4_square, r8,
                                             family, session):
    intervals = (i1, interval_image(0, 3))
    images = (point,) + intervals + (c4, k4_square, r8)
    mismatches = []
    for img in images:
        ident = identity_map(img)
        const = constant_map(img, img, img.points[0])
        cat_m = compute_invariant("cat_m", image=img, family=family,
                                  session=session).value
        alt = distance_via_refinement((ident, const), family, session)
        if cat_m != alt:
            mismatches.append((img.name, "cat_m vs D_m(1,c)", cat_m, alt))

        tc_m = compute_invariant("TC^m", image=img, family=family,
                                 session=session).value
        prod = np_product([img, img], 2)
        fresh = SolverSession(DEFAULT_CAPS)
        via_proj = compute_invariant(
            "D_m", maps=(projection_map(prod, 1), projection_map(prod, 2)),
            family=family, session=fresh).value
        if tc_m != via_proj:
            mismatches.append((img.name, "TC^m vs D_m(pr1,pr2)", tc_m, via_proj))

        diag = compute_invariant("cat_m_of_map",
                                 maps=(diagonal_map(img, 2, prod),),
                                 family=family, session=session).value
        if diag != cat_m:
            mismatches.append((img.name, "cat_m(diagonal) vs cat_m", diag, cat_m))

    rng = random.Random(404)
    samples = [identity_map(r8), rotation(r8, 3), reflection(r8),
               random_continuous_map(r8, r8, rng),
               random_continuous_map(c4, r8, rng)]
    for h in samples:
        lhs = compute_invariant("cat_m_of_map", maps=(h,), family=family,
                                session=session).value
        const = constant_map(h.domain, h.codomain, h.codomain.points[0])
        rhs = distance_via_refinement((h, const), family, session)
        if lhs != rhs:
            mismatches.append(("map sample", "cat_m(h) vs D_m(h,c)", lhs, rhs))

    ok = not mismatches
    assert line(4, ok, f"cat_m, TC^m, cat_m of maps and the diagonal agree "
                       f"across independent engines on {len(images)} images "
                       f"and {len(samples)} sampled maps"), mismatches


def test_acceptance_05_inequality_sweep(point, i1, i2, c4, k4_square, r8,
                                        family, session):
    rng = random.Random(505)
    plan = [(point, 2), (i1, 3), (i2, 3), (c4, 4), (k4_square, 4), (r8, 4)]
    failures = []
    undecided = 0
    pair_count = 0
    for img, want in plan:
        pairs = []
        while len(pairs) < want:
            f = random_continuous_map(img, img, rng)
            g = random_continuous_map(img, img, rng)
            pairs.append((f, g))
        pair_count += len(pairs)
        report = verify_inequality_suite(img, family, pairs=pairs,
                                         session=session)
        failures.extend((img.name, e.name, e.lhs, e.rhs) for e in report.failed)
        undecided += len(report.undecided)
    ok = not failures and pair_count == 20
    assert line(5, ok, f"all decided inequalities hold on 6 images with "
                       f"{pair_count} random map pairs "
                       f"({undecided} entries undecided under caps, none "
                       f"violated)"), failures


def test_acceptance_06_family_laws(c4, r8, family, session):
    failures = []
    point_fam = ProbeFamily(2, (family.complexes[0],), name="points-only")
    interval_fam = ProbeFamily(2, family.complexes[1:4], name="intervals-only")
    for img in (c4, r8):
        for name in ("cat_m", "TC^m"):
            value = compute_invariant(name, image=img, family=point_fam,
                                      session=session).value
            if value != 0:
                failures.append((img.name, name, "point family", value))

    ident = identity_map(r8)
    pairs = [(ident, reflection(r8)),
             (ident, constant_map(r8, r8, (0, 0))),
             (rotation(r8, 1), reflection(r8)),
             (identity_map(c4), constant_map(c4, c4, (0, 0)))]
    for f, g in pairs:
        value = compute_invariant("D_m", maps=(f, g), family=interval_fam,
                                  session=session).value
        if value != 0:
            failures.append(("interval family", f.domain.name, value))

    chain = [point_fam, interval_fam,
             ProbeFamily(2, family.complexes[:5], name="no-big-cycle"),
             family]
    instances = 0
    for small, big in zip(chain, chain[1:]):
        for value_of in (
            lambda fam: compute_invariant("cat_m", image=r8, family=fam,
                                          session=session).value,
            lambda fam: compute_invariant("D_m",
                                          maps=(ident, reflection(r8)),
                                          family=fam, session=session).value,
            lambda fam: compute_invariant("cat_m", image=c4, family=fam,
                                          session=session).value,
            lambda fam: compute_invariant("cat_m_of_map", maps=(ident,),
                                          family=fam, session=session).value,
        ):
            lo, hi = value_of(small), value_of(big)
            instances += 1
            if lo is None or hi is None or lo > hi:
                failures.append(("monotonicity", small.name, big.name, lo, hi))
    ok = not failures and instances >= 10
    assert line(6, ok, f"point family trivializes, interval families see no "
                       f"distance, and growing the family is monotone on "
                       f"{instances} instances"), failures


def test_acceptance_07_homotopy_relation_laws(i1, i2, c4, r8, session):
    hsession = session.h
    rng = random.Random(707)
    pools = (
        [random_continuous_map(i2, c4, rng) for _ in range(6)],
        [random_continuous_map(c4, r8, rng) for _ in range(6)],
        [random_continuous_map(r8, r8, rng) for _ in range(6)],
    )
    failures = []
    certificates = 0
    triples = 0
    for pool in pools:
        for f, g, h in itertools.islice(
                itertools.product(pool, pool, pool), 0, None, 7):
            triples += 1
            if triples > 50:
                break
            if hsession.homotopic(f, f) is not True:
                failures.append(("reflexivity", f.values))
            fg = hsession.homotopic(f, g)
            if fg != hsession.homotopic(g, f):
                failures.append(("symmetry", f.values, g.values))
            gh = hsession.homotopic(g, h)
            if fg is True and gh is True:
                if hsession.homotopic(f, h) is not True:
                    failures.append(("transitivity", f.values, g.values, h.values))
            if fg is True:
                cert = hsession.certificate_between(f, g)
                if cert is None or not verify_certificate(cert, f, g).ok:
                    failures.append(("certificate", f.values, g.values))
                else:
                    certificates += 1

    maps = list(enumerate_continuous_maps(i1, c4))
    counterexample = None
    for f, g in itertools.product(maps, maps):
        if function_space_adjacent(f, g) and not one_step_related(f, g):
            failures.append(("adjacency strength", f.values, g.values))
        if counterexample is None and one_step_related(f, g) \
                and not function_space_adjacent(f, g):
            counterexample = (f.values, g.values)
    if counterexample is None:
        failures.append(("no converse counterexample found",))

    ok = not failures
    assert line(7, ok, f"equivalence laws hold on {min(triples, 50)} sampled "
                       f"triples with {certificates} verified certificates; "
                       f"one-step relation without function-space adjacency: "
                       f"{counterexample}"), failures


def test_acceptance_08_product_adjacency_coincidence():
    base = interval_image(0, 3)
    product = np_product([base, base], 2)
    grid = build_image(list(itertools.product(range(4), repeat=2)), CP(2))
    ok = (set(product.points) == set(grid.points)
          and set(product.edges) == set(grid.edges))
    assert line(8, ok, f"2-factor product of [0,3] matches the CP(2) grid: "
                       f"{len(product.edges)} edges equal as sets")


def test_acceptance_09_composition_and_dominance(c4, r8, family, session):
    failures = []

    def dm(ms, sess=session):
        return compute_invariant("D_m", maps=ms, family=family,
                                 session=sess).value

    ident = identity_map(r8)
    const = constant_map(r8, r8, (0, 0))
    refl = reflection(r8)
    ident4 = identity_map(c4)
    const4 = constant_map(c4, c4, (0, 0))
    spin4 = digital_map(c4, c4, dict(zip(SQUARE, SQUARE[1:] + SQUARE[:1])))
    triples = [
        (rotation(r8, 1), ident, const),
        (rotation(r8, 2), ident, refl),
        (refl, ident, const),
        (const, ident, refl),
        (rotation(r8, 3), rotation(r8, 1), refl),
        (spin4, ident4, const4),
    ]
    done = 0
    for alpha, h, k in triples:
        base = dm((h, k))
        post = dm((compose(alpha, h), compose(alpha, k)))
        done += 1
        if post > base:
            failures.append(("post-composition", base, post))
    pre_triples = [
        (rotation(r8, 1), ident, const),
        (rotation(r8, 1), ident, refl),
        (refl, ident, const),
        (spin4, ident4, const4),
    ]
    for beta, h, k in pre_triples:
        base = dm((h, k))
        pre = dm((compose(h, beta), compose(k, beta)))
        done += 1
        if pre > base:
            failures.append(("pre-composition", base, pre))

    # Adjacency dominance: every 4-adjacency edge is an 8-adjacency edge,
    # and the extra chords of the dense ring make it contractible.
    r8_dense = build_image(RING8, CP(2))
    d_strict = dm((ident, refl))
    d_relaxed = dm((digital_map(r8, r8_dense, dict(ident.mapping)),
                    digital_map(r8, r8_dense, dict(refl.mapping))))
    if not (d_relaxed <= d_strict and d_relaxed == 0 and d_strict == 1):
        failures.append(("codomain dominance", d_strict, d_relaxed))

    square_c1 = build_image(SQUARE, CP(1))
    square_c2 = build_image(SQUARE, CP(2))
    target = build_image([(i, 0) for i in range(3)], CP(1))
    assignment = {(0, 0): (0, 0), (1, 0): (1, 0), (1, 1): (1, 0), (0, 1): (1, 0)}
    d_dense = dm((digital_map(square_c2, target, assignment),
                  constant_map(square_c2, target, (0, 0))))
    d_sparse = dm((digital_map(square_c1, target, assignment),
                   constant_map(square_c1, target, (0, 0))))
    if d_sparse > d_dense:
        failures.append(("domain dominance", d_dense, d_sparse))

    ok = not failures and done == 10
    assert line(9, ok, f"composition cannot raise the distance on {done} "
                       f"triples; both adjacency-dominance directions hold, "
                       f"one strictly (1 drops to 0)"), failures


def test_acceptance_10_equivalence_invariance(point, i2, c4, r8, family,
                                              session):
    failures = []
    ident_r8 = identity_map(r8)
    rot = rotation(r8, 1)
    collapse = constant_map(i2, point, (0,))
    include = digital_map(point, i2, {(0,): (0,)})
    spin4 = digital_map(c4, c4, dict(zip(SQUARE, SQUARE[1:] + SQUARE[:1])))
    scenarios = [
        ("identity omegas",
         (identity_map(i2), constant_map(i2, i2, (0,))),
         (identity_map(i2), constant_map(i2, i2, (0,))),
         identity_map(i2), identity_map(i2)),
        ("ring rotation",
         (ident_r8, reflection(r8)),
         (rotation(r8, 2), reflection(r8)),
         rot, rot),
        ("interval to point collapse",
         (identity_map(i2), constant_map(i2, i2, (0,))),
         (identity_map(point), identity_map(point)),
         collapse, include),
        ("point to interval inclusion",
         (identity_map(point), identity_map(point)),
         (constant_map(i2, i2, (0,)), constant_map(i2, i2, (0,))),
         include, collapse),
        ("square rotation",
         (identity_map(c4), constant_map(c4, c4, (0, 0))),
         (compose(spin4, compose(identity_map(c4), spin4)),
          compose(spin4, compose(constant_map(c4, c4, (0, 0)), spin4))),
         spin4, spin4),
    ]
    for name, hs, ks, omega1, omega2 in scenarios:
        report = check_equivalence_invariance(hs, ks, omega1, omega2, family,
                                              session=session)
        if not report.hypotheses_ok or report.equal is not True:
            failures.append((name, report.hypotheses, report.value_h,
                             report.value_k))

    tip = build_image([(0, 0)], CP(1))
    good = check_fiber_m_equivalence(constant_map(r8, tip, (0, 0)),
                                     constant_map(r8, tip, (0, 0)),
                                     identity_map(r8), identity_map(r8),
                                     family)
    if not (good.ok and good.consistent):
        failures.append(("fiber true case", good))
    broken = check_fiber_m_equivalence(identity_map(r8), identity_map(r8),
                                       constant_map(r8, r8, (0, 0)),
                                       constant_map(r8, r8, (0, 0)), family)
    if broken.commutes or broken.commute_witness is None:
        failures.append(("fiber commute witness", broken))
    false_case = check_fiber_m_equivalence(constant_map(r8, tip, (0, 0)),
                                           constant_map(r8, tip, (0, 0)),
                                           constant_map(r8, r8, (0, 0)),
                                           constant_map(r8, r8, (0, 0)),
                                           family)
    if false_case.m_equivalent is not False or false_case.m_witness is None:
        failures.append(("fiber false witness", false_case))

    ok = not failures
    assert line(10, ok, "distance invariant under 5 homotopy-equivalence "
                        "scenarios; fiber comparison returns true, "
                        "commute-failure and probe-failure witnesses"), failures


def test_acceptance_11_map_count_oracles(i1, i2, c4, r8):
    failures = []
    twelve = len(list(enumerate_maps(i1, c4)))
    if twelve != 12:
        failures.append(("interval to 4-cycle", twelve))
    paths = path_space_with_fibration(i1, 1)
    if len(paths.paths) != 4:
        failures.append(("paths of length 1 in [0,1]", len(paths.paths)))

    checked = []
    for dom, cod in ((i2, c4), (c4, c4), (i1, r8), (c4, r8), (r8, c4)):
        total = len(cod.points) ** len(dom.points)
        assert total <= 10 ** 6
        fast = sorted(m.values for m in enumerate_continuous_maps(dom, cod))
        adj = cod.adjacent_or_equal
        brute = sorted(
            values
            for values in itertools.product(cod.points, repeat=len(dom.points))
            if all(adj(values[i], values[j])
                   for i, j in ((dom.points.index(a), dom.points.index(b))
                                for a, b in dom.edges))
        )
        if fast != brute:
            failures.append(("brute force mismatch", dom.name, cod.name))
        checked.append(len(fast))

    ok = not failures
    assert line(11, ok, f"12 maps from the 2-point interval to the 4-cycle, "
                        f"4 one-step paths, enumerator equals the brute "
                        f"filter on 5 spaces sized {checked}"), failures


def test_acceptance_12_cli_determinism(tmp_path, r8):
    img_path = tmp_path / "ring.json"
    img_path.write_text(json.dumps(image_to_json(r8)))
    outputs = []
    codes = []
    for i, workers in enumerate(("1", "4", "1")):
        out = tmp_path / f"suite{i}.json"
        code = cli.main(["verify-suite", "--image", str(img_path),
                         "--workers", workers, "-o", str(out)])
        codes.append(code)
        outputs.append(out.read_bytes())
    body = json.loads(outputs[0])
    no_failures = all(e["status"] != "fail" for e in body["entries"])
    golden = outputs[0] == (Path(__file__).parent / "golden" / "suite_R8.json").read_bytes()
    ok = (outputs[0] == outputs[1] == outputs[2] and golden
          and no_failures and all(c in (0, 2) for c in codes))
    assert line(12, ok, f"verify-suite over the ring emitted "
                        f"{len(outputs[0])} identical bytes across 3 runs "
                        f"with different worker counts, golden match {golden}"), codes
