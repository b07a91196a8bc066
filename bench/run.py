"""Benchmark runner for dighom: one workload, one client, closed loop.

    python3 bench/run.py --workload suite-r8 --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One client sends the next operation only when the previous
one has returned.  A run sets up, then times whole passes over the
workload's inputs for as long as another pass fits in ``--seconds`` (at
least one pass), checks every answer, and prints one JSON object as its
last line of output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
one untraced pass and two traced passes, each on a fresh set-up of the
same inputs, and reports the per-layer metrics of the first traced pass,
the tracing overhead against the untraced pass, and fails the run unless
every work count repeats exactly in the second traced pass.

Exit codes: 0 when every check passes, 1 when a check fails (the result
is still printed), 2 when the program cannot be found or the arguments
are wrong (nothing is printed).
"""

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "dighom-bench"

# The workloads in BENCHMARK.json, run in this order by "--workload all".
WORKLOAD_NAMES = ("suite-r8", "queries-racket")
# The dighom modules the workloads import; set-up times importing them.
PROGRAM_MODULES = ("dighom.cli", "dighom.homotopy", "dighom.lattice", "dighom.maps")
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "failed_share": "ratio",
    "peak_rss_mb": "MB",
}


def _quantile(values, q):
    """Inclusive-method quantile, as ``statistics.quantiles`` computes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed_pass(wl, state):
    inputs = wl.pass_inputs(state)
    t0 = time.perf_counter()
    outputs, latencies = wl.run_pass(state, inputs)
    wall = time.perf_counter() - t0
    return wall, latencies, wl.check(state, inputs, outputs)


def _import_program():
    """Import dighom afresh and return the seconds it took.  The modules
    already loaded are put back afterwards, so the workloads keep using
    them; the bytecode is cached by then, so this times the program's own
    import work, not compiling it or reading it from disk."""
    loaded = {name: mod for name, mod in sys.modules.items()
              if name == "dighom" or name.startswith("dighom.")}
    for name in loaded:
        del sys.modules[name]
    t0 = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    seconds = time.perf_counter() - t0
    for name in [n for n in sys.modules if n == "dighom" or n.startswith("dighom.")]:
        del sys.modules[name]
    sys.modules.update(loaded)
    return seconds


def untraced_run(wl, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = _import_program()
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(import_s + time.perf_counter() - t0)
    tally = wl.check_setup(state)
    walls, latencies = [], []
    begin = time.perf_counter()
    # Whole passes only: stop before a pass that would end past the budget.
    while not walls or (time.perf_counter() - begin
                        + statistics.median(walls) <= seconds):
        wall, lat, pass_tally = _timed_pass(wl, state)
        if not walls:
            # Through set-up and one pass, so the number of passes that fit
            # in the run does not move it.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(wall)
        latencies.extend(lat)
        tally.add(pass_tally)
    values = {
        # Time to the first timed operation: importing dighom and one set-up.
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * _quantile(latencies, 0.5),
        "op_p90_ms": 1000 * _quantile(latencies, 0.9),
        "failed_share": (tally.undecided + len(tally.wrong)) / max(tally.attempted, 1),
        "peak_rss_mb": rss_mb,
    }
    info = {"passes": len(walls), "operations": len(latencies),
            "setups": len(setups)}
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return tally, metrics, info


def traced_run(wl):
    import tracing

    wall0, _, tally = _timed_pass(wl, wl.setup())
    tracer = tracing.install()
    trials = []
    for _ in range(2):
        tracer.reset()
        state = wl.setup()
        _, setup_self = tracer.snapshot()
        inputs = wl.pass_inputs(state)
        tracer.reset()
        t0 = time.perf_counter()
        outputs, _ = wl.run_pass(state, inputs)
        wall = time.perf_counter() - t0
        counts, self_s = tracer.snapshot()
        tally.add(wl.check(state, inputs, outputs))
        trials.append((wall, counts, self_s, setup_self.get("lattice", 0.0)))
    tally.add(wl.check_setup(state))

    (wall, counts, self_s, setup_lattice), (_, counts2, _, _) = trials
    for name in sorted(set(counts) | set(counts2)):
        if counts[name] != counts2[name]:
            tally.wrong.append(f"count {name} did not repeat: {counts[name]} "
                               f"then {counts2[name]}")

    m = {}
    for name in tracing.SPAN_LAYERS:
        m[f"{name}.calls"] = _metric(counts[f"{name}.calls"], "count")
        m[f"{name}.self_s"] = _metric(self_s.get(name, 0.0), "s")
        m[f"{name}.self_share"] = _metric(self_s.get(name, 0.0) / wall, "ratio")
    for name in tracing.COUNTERS:
        m[name] = _metric(counts[name], "count")
    root_calls = counts["homotopy.class_root.calls"]
    m["homotopy.class_root.hit_ratio"] = _metric(
        (root_calls - counts["homotopy.class_root.closures"]) / root_calls
        if root_calls else 0.0, "ratio")
    astar_calls = counts["homotopy.astar.calls"]
    m["homotopy.astar.hit_ratio"] = _metric(
        counts["homotopy.astar.hits"] / astar_calls if astar_calls else 0.0, "ratio")
    outside = wall - sum(self_s.values())
    m[f"{tracing.UNATTRIBUTED}.self_s"] = _metric(outside, "s")
    m[f"{tracing.UNATTRIBUTED}.self_share"] = _metric(outside / wall, "ratio")
    m["lattice.setup_self_s"] = _metric(setup_lattice, "s")
    m["trace.untraced_wall_s"] = _metric(wall0, "s")
    m["trace.traced_wall_s"] = _metric(wall, "s")
    m["trace.overhead_s"] = _metric(wall - wall0, "s")
    m["trace.overhead_share"] = _metric((wall - wall0) / wall0, "ratio")
    return tally, m, {"passes": 3}


def run_one(args):
    if not (SRC / "dighom" / "__init__.py").is_file():
        print(f"error: dighom sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    WORKDIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.trace:
        tally, metrics, info = traced_run(wl)
    else:
        tally, metrics, info = untraced_run(wl, args.seconds)
    for line in tally.wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, undecided=tally.undecided)
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": max(tally.attempted, 1),
        "failed": len(tally.wrong),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process, so set-up and memory start clean."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited {proc.returncode} without a result")
            status = max(status, proc.returncode or 1)
            continue
        result = json.loads(lines[-1])
        verdict = "correct" if result["correct"] else "WRONG"
        print(f"{name}: {verdict}, {result['failed']} wrong of {result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:42s} {entry['value']:>14.6g} {entry['unit']}")
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
            status = max(status, 1)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOAD_NAMES)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
