"""The benchmark's workloads: seeded inputs, set-up, one timed pass, checks.

Each workload builds its inputs from the seed alone and hands dighom only
those inputs, through the package's public entry points (``suite-r8`` goes
through the command line, with its image in a JSON file).  The checks are
semantic: they hold for any correct answer, so a later change that decides
more entries still passes them, while a wrong value or a certificate that
does not verify fails the run.

The ring R8 is the 8-point 4-connected cycle.  Its self-maps fall into
three homotopy classes told apart by the winding number of the map around
the ring: null (winding 0, every non-bijective map), the rotations (+1) and
the reflections (-1).  The same number classifies maps from a "racket" (R8
with a tail attached) into R8, because the tail retracts onto the ring.
The queries workload confirms that oracle against the reference BFS
``are_homotopic`` on small cases before relying on it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from dighom import cli, lattice, maps
from dighom.homotopy import (
    DEFAULT_CAPS,
    NO,
    YES,
    HomotopySession,
    SearchCaps,
    are_homotopic,
    is_nullhomotopic,
    verify_certificate,
)

RING8 = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1))

# Entry values the R8 suite decides at the commit that defined this
# benchmark (None: undecided there).  A decided value must stay; an
# undecided one may become decided, but its entry must then not fail.
SUITE_R8_VALUES = {
    "cat_m(A) <= cat(A)": (1, 1),
    "TC^m(A) <= TC(A)": (1, None),
    "cat_m(A) <= TC^m(A)": (1, 1),
    "TC^m(A) <= cat_m(AxA)": (1, 1),
    "1-TC^m(A) == 1": (1, 1),
    "2-TC^m(A) == TC^m(A)": (1, 1),
    "3-TC^m(A) >= 2-TC^m(A)": (None, 1),
    "4-TC^m(A) >= 3-TC^m(A)": (None, None),
    "2-TC^m(A) <= 2-TC(A)": (1, None),
    "3-TC^m(A) <= 3-TC(A)": (None, None),
    "D_m(h,k) <= D(h,k) [pair 0]": (1, 1),
    "D_m(h,k) <= cat_m(A) [pair 0]": (1, 1),
    "D_m(h,k) <= TC^m(A) [pair 0]": (1, 1),
    "D_m(h,k) <= cat_m(h) [pair 0]": (1, 1),
    "D_m(h,k) <= TC^m(h) [pair 0]": (1, 1),
    "D_m(h,k) <= 2-TC^m(B) [pair 0]": (1, 1),
    "TC^m(h) <= TC(h) [pair 0]": (1, None),
}

RACKET_VISITED_CAP = 1_000


@dataclass
class Tally:
    """Answers checked in one pass: undecided ones are not wrong, but both
    count as failed operations in ``failed_share``."""

    attempted: int = 0
    undecided: int = 0
    wrong: list = field(default_factory=list)

    def add(self, other):
        self.attempted += other.attempted
        self.undecided += other.undecided
        self.wrong.extend(other.wrong)


def _rng(seed, *parts):
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def winding(f):
    """Winding number around R8 of f on the ring R8 inside its domain;
    continuity makes each step -1, 0 or +1."""
    pos = {p: i for i, p in enumerate(RING8)}
    total = 0
    for a, b in zip(RING8, RING8[1:] + RING8[:1]):
        total += {0: 0, 1: 1, 7: -1}[(pos[f.mapping[b]] - pos[f.mapping[a]]) % 8]
    return total // 8


def _values(entry):
    return entry["lhs"], entry["rhs"]


def check_suite_entries(entries, tally, label):
    """The R8 suite: no entry fails, and every side decided when this
    benchmark was defined keeps its value."""
    names = [e["name"] for e in entries]
    missing = sorted(set(SUITE_R8_VALUES) - set(names))
    if missing:
        tally.wrong.append(f"{label}: suite entries missing: {missing}")
    for e in entries:
        tally.attempted += 1
        if e["status"] == "undecided":
            tally.undecided += 1
        if e["status"] == "fail":
            tally.wrong.append(f"{label}: entry {e['name']!r} fails: {_values(e)}")
        want = SUITE_R8_VALUES.get(e["name"])
        if want is None:
            continue
        for side, value, got in zip(("lhs", "rhs"), want, _values(e)):
            if value is not None and got != value:
                tally.wrong.append(
                    f"{label}: {e['name']!r} {side} is {got!r}, expected {value!r}")


# --- suite-r8 -------------------------------------------------------------------


class SuiteR8:
    """``dighom verify-suite`` on a seeded copy of R8, through ``cli.main``.
    The command builds its own session, so every pass starts cold."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.image_path = workdir / f"suite-r8-{seed}.json"
        self.report_path = workdir / f"suite-r8-{seed}-report.json"

    def setup(self):
        ring = list(RING8)
        _rng(self.seed, "order").shuffle(ring)
        doc = {"name": "R8", "dim": 2, "adjacency": {"type": "cp", "p": 1},
               "points": [list(p) for p in ring]}
        self.image_path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return None

    def pass_inputs(self, state):
        # A pass that writes no report must not be checked against the
        # report of an earlier pass.
        self.report_path.unlink(missing_ok=True)
        return ["verify-suite", "--image", str(self.image_path),
                "-o", str(self.report_path)]

    def run_pass(self, state, argv):
        t0 = time.perf_counter()
        code = cli.main(argv)
        latency = time.perf_counter() - t0
        return code, [latency]

    def check(self, state, argv, code):
        """The report's entries, and an exit code that agrees with them."""
        tally = Tally()
        if code not in (cli.EXIT_OK, cli.EXIT_UNDECIDED, cli.EXIT_FAILED_CHECK):
            tally.wrong.append(f"verify-suite exited {code}")
            return tally
        if not self.report_path.is_file():
            tally.wrong.append(f"verify-suite exited {code} and wrote no report")
            return tally
        entries = json.loads(self.report_path.read_text(encoding="utf-8"))["entries"]
        check_suite_entries(entries, tally, "verify-suite")
        statuses = {e["status"] for e in entries}
        want = (cli.EXIT_FAILED_CHECK if "fail" in statuses
                else cli.EXIT_UNDECIDED if "undecided" in statuses else cli.EXIT_OK)
        if code != want:
            tally.wrong.append(f"verify-suite exited {code}, its report implies {want}")
        return tally

    def check_setup(self, state):
        return Tally()


# --- queries-racket ---------------------------------------------------------------


def racket_image(tail):
    """R8 with a straight tail of the given length off the point (2, 1)."""
    pts = list(RING8) + [(2 + i, 1) for i in range(1, tail + 1)]
    return lattice.build_image(pts, lattice.CP(1), name=f"racket{len(pts)}")


def _winding_map(domain, codomain, tail, sign, rng):
    """Ring point i to codomain ring point shift + sign*i; the tail walks
    away from the image of its attaching point by lazy random steps."""
    shift = rng.randrange(8)
    mapping = {RING8[i]: RING8[(shift + sign * i) % 8] for i in range(8)}
    prev = mapping[(2, 1)]
    for i in range(1, tail + 1):
        prev = rng.choice(codomain.closed_neighborhood(prev))
        mapping[(2 + i, 1)] = prev
    return maps.digital_map(domain, codomain, mapping)


@dataclass
class Query:
    op: str  # "null", "homotopic" or "certificate"
    f: object
    g: object
    wf: int
    wg: int


class QueriesRacket:
    """A seeded stream of nullhomotopy, homotopy and certificate queries on
    maps from 11- and 12-point rackets into R8, all on one session with a
    visited-maps cap of 1 000.  The domains exceed the class-table limit,
    so the session answers by A* and then a capped frame BFS."""

    # (op, kind of f, kind of g, count), for each of the 11- and 12-point
    # rackets.  Half of the maps are random continuous maps and half wind
    # once around the ring, in a random direction unless "same" or
    # "opposite" ties g to f.  The counts are fixed, not drawn, so every
    # seed asks the same number of queries of each kind.
    PLAN = (
        ("null", "random", None, 10),
        ("null", "wind", None, 10),
        ("homotopic", "random", "random", 6),
        ("homotopic", "random", "wind", 4),
        ("homotopic", "wind", "random", 4),
        ("homotopic", "wind", "same", 3),
        ("homotopic", "wind", "opposite", 3),
        ("certificate", "random", "random", 6),
        ("certificate", "random", "wind", 4),
        ("certificate", "wind", "random", 4),
        ("certificate", "wind", "same", 3),
        ("certificate", "wind", "opposite", 3),
    )
    TAILS = (3, 4)

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        rng = _rng(self.seed, "queries")
        codomain = lattice.build_image(RING8, lattice.CP(1), name="R8")
        queries = []
        for tail in self.TAILS:
            domain = racket_image(tail)
            for op, fkind, gkind, count in self.PLAN:
                for _ in range(count):
                    f, wf = self._map(domain, codomain, tail, fkind, 0, rng)
                    g, wg = (None, None) if gkind is None else self._map(
                        domain, codomain, tail, gkind, wf, rng)
                    queries.append(Query(op, f, g, wf, wg))
        rng.shuffle(queries)
        caps = SearchCaps(max_visited_maps=RACKET_VISITED_CAP,
                          max_probe_maps=DEFAULT_CAPS.max_probe_maps)
        return {"queries": queries, "session": HomotopySession(caps)}

    @staticmethod
    def _map(domain, codomain, tail, kind, wf, rng):
        if kind == "random":
            # About 2% of these wind around the ring; the oracle reads the
            # winding of each map, so they are checked like the others.
            f = maps.random_continuous_map(domain, codomain, rng)
        else:
            sign = {"wind": rng.choice((1, -1)), "same": wf, "opposite": -wf}[kind]
            f = _winding_map(domain, codomain, tail, sign, rng)
        return f, winding(f)

    def pass_inputs(self, state):
        return state["queries"]

    def run_pass(self, state, queries):
        session = state["session"]
        answers, latencies = [], []
        clock = time.perf_counter
        for q in queries:
            t0 = clock()
            if q.op == "null":
                answer = session.nullhomotopic(q.f)
            elif q.op == "homotopic":
                answer = session.homotopic(q.f, q.g)
            else:
                cert = session.certificate_between(q.f, q.g)
                answer = None if cert is None else verify_certificate(cert, q.f, q.g)
            latencies.append(clock() - t0)
            answers.append(answer)
        return answers, latencies

    def check(self, state, queries, answers):
        """Answers against the winding oracle.  ``certificate_between``
        returns None both for maps that are not homotopic and when its
        capped search gives up, so a missing certificate is undecided."""
        tally = Tally()
        for i, (q, answer) in enumerate(zip(queries, answers)):
            tally.attempted += 1
            if answer is None:
                tally.undecided += 1
                continue
            if q.op == "certificate":
                if not answer.ok:
                    tally.wrong.append(f"query {i}: certificate rejected: {answer.reason}")
                elif q.wf != q.wg:
                    tally.wrong.append(f"query {i}: certificate between windings "
                                       f"{q.wf} and {q.wg}")
                continue
            expected = (q.wf == 0) if q.op == "null" else (q.wf == q.wg)
            if answer is not expected:
                tally.wrong.append(f"query {i}: {q.op} answered {answer}, windings "
                                   f"{q.wf}, {q.wg}")
        return tally

    def check_setup(self, state):
        return confirm_winding_oracle(self.seed)


def confirm_winding_oracle(seed, samples=4):
    """Check the winding oracle against the reference BFS on a 9-point
    racket, where the reference search finishes: BFS from a winding map
    explores its small component, and null maps reach a constant fast."""
    tally = Tally()
    rng = _rng(seed, "oracle")
    codomain = lattice.build_image(RING8, lattice.CP(1), name="R8")
    domain = racket_image(1)
    winders = [_winding_map(domain, codomain, 1, sign, rng)
               for sign in (1, -1) for _ in range(samples // 2)]
    randoms = [maps.random_continuous_map(domain, codomain, rng) for _ in range(samples)]
    for f in winders:
        for g in winders + randoms:
            verdict = are_homotopic(f, g)
            expected = winding(f) == winding(g)
            if verdict.decided not in (YES, NO) or (verdict.decided == YES) != expected:
                tally.wrong.append(f"winding oracle disagrees with are_homotopic: "
                                   f"{verdict.decided}, expected {expected}")
    for f in randoms:
        verdict = is_nullhomotopic(f)
        expected = winding(f) == 0
        if verdict.decided not in (YES, NO) or (verdict.decided == YES) != expected:
            tally.wrong.append(f"winding oracle disagrees with is_nullhomotopic: "
                               f"{verdict.decided}, expected {expected}")
    return tally


WORKLOADS = {
    "suite-r8": SuiteR8,
    "queries-racket": QueriesRacket,
}
