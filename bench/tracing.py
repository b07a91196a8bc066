"""Per-layer tracing for the benchmark, installed at run time.

``install()`` replaces dighom's layer functions with thin wrappers that
open a span around each call (name, start, end and the enclosing span as
parent) and count the work the call did.  The program itself is not
changed: the wrappers live here and are swapped into the dighom modules
only for a traced run.

A span is folded into per-name totals as it closes: its duration is added
to its name's total time, and to its parent's child time, so a layer's
self time is its span time minus the time of the spans nested inside it.
Keeping every span would cost some 70 000 records per ``suite-r8`` pass,
for no number the benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
import time
from collections import Counter, defaultdict

# Layers that get a span; each reports <name>.calls, .self_s and .self_share.
SPAN_LAYERS = (
    "homotopy.class_root",
    "homotopy.astar",
    "homotopy.frame_bfs",
    "homotopy.contractible",
    "maps.enumerate",
    "solver.compute_cover",
    "solver.goodness_check",
    "solver.e2_prepare",
    "solver.e2_scan",
    "solver.min_partition",
    "solver.minimal_bad_sets",
    "lattice",
    "cli",
)

# Work counters reported next to the span layers; "homotopy.astar.hits"
# is counted too, and reported as a hit ratio.  Every count must repeat
# exactly when the same inputs run twice.
COUNTERS = (
    "homotopy.sessions",
    "homotopy.class_root.closures",
    "homotopy.frame_neighbors.calls",
    "homotopy.frame_neighbors.frames",
    "homotopy.astar.explored",
    "homotopy.frame_bfs.explored",
    "homotopy.frame_bfs.capped",
    "maps.enumerate.maps",
    "solver.compute_cover.memo_hits",
)

# Time outside every layer span: the benchmark's own loop and program code
# no layer covers (report assembly, continuity checks, suite bookkeeping).
UNATTRIBUTED = "unattributed"

_LATTICE_FUNCTIONS = (
    "build_image",
    "interval_image",
    "np_product",
    "induced_subimage",
    "image_from_json",
    "image_to_json",
    "load_image",
)

_first = operator.itemgetter(0)


class Tracer:
    """Span stack plus per-name totals for one traced phase."""

    def __init__(self):
        self._clock = time.perf_counter
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._frame_counters = []

    def reset(self):
        """Start a new phase; the wrappers keep references to these tables,
        so they are cleared in place."""
        self.stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._frame_counters.clear()

    def enter(self, name):
        self.stack.append([name, self._clock(), 0.0])

    def exit(self):
        name, start, child = self.stack.pop()
        duration = self._clock() - start
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def count_frames(self, frames):
        """Pass a frame generator through a C-level counter, so counting the
        tens of millions of frames a closure makes stays cheap."""
        counter = itertools.count()
        self._frame_counters.append(counter)
        return map(_first, zip(frames, counter))

    def snapshot(self):
        """Counts and self times of everything traced since the last reset;
        reads the frame counters, so call it once per phase."""
        counts = Counter(self.counts)
        counts["homotopy.frame_neighbors.frames"] += sum(
            next(c) for c in self._frame_counters)
        for name in SPAN_LAYERS:
            counts[f"{name}.calls"] = self.calls[name]
        return counts, dict(self.self_s)


def _span(tracer, name, fn, after=None):
    """Wrap a plain function in a span; ``after(result)`` may count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result)
        return result

    return wrapper


def _generator_span(tracer, name, fn, item_counter):
    """Wrap a generator function: each resumption is a span of its own, so
    the time the consumer spends between items is not charged to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        gen = fn(*args, **kwargs)
        counts = tracer.counts
        while True:
            tracer.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.exit()
            counts[item_counter] += 1
            yield item

    return wrapper


def _replace_everywhere(orig, new):
    """Point every dighom module attribute bound to ``orig`` at ``new``;
    ``from x import f`` leaves a second reference behind in each importer."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dighom" or mod_name.startswith("dighom.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install():
    """Wrap dighom's layer functions and return the tracer they report to."""
    from dighom import cli, homotopy, lattice, maps, solver

    tracer = Tracer()
    counts = tracer.counts

    # -- homotopy
    session_cls = homotopy.HomotopySession
    orig_init = session_cls.__init__

    @functools.wraps(orig_init)
    def session_init(self, *args, **kwargs):
        counts["homotopy.sessions"] += 1
        orig_init(self, *args, **kwargs)

    session_cls.__init__ = session_init

    orig_class_root = session_cls.class_root

    @functools.wraps(orig_class_root)
    def class_root(self, domain, codomain, values):
        roots = self._roots.get((domain.key, codomain.key))
        if roots is None or values not in roots:
            counts["homotopy.class_root.closures"] += 1
        tracer.calls["homotopy.class_root"] += 1
        tracer.enter("homotopy.class_root")
        try:
            return orig_class_root(self, domain, codomain, values)
        finally:
            tracer.exit()

    session_cls.class_root = class_root

    def after_astar(result):
        counts["homotopy.astar.explored"] += result[2]
        if result[0] is not None:
            counts["homotopy.astar.hits"] += 1

    session_cls._astar_single_point = _span(
        tracer, "homotopy.astar", session_cls._astar_single_point, after_astar)
    session_cls.contractible = _span(
        tracer, "homotopy.contractible", session_cls.contractible)

    def after_bfs(result):
        counts["homotopy.frame_bfs.explored"] += result[2]
        if result[3]:
            counts["homotopy.frame_bfs.capped"] += 1

    orig_bfs = homotopy._frame_bfs
    _replace_everywhere(orig_bfs, _span(tracer, "homotopy.frame_bfs", orig_bfs, after_bfs))

    graph_cls = homotopy._MapGraph
    orig_frames = graph_cls.frame_neighbors

    @functools.wraps(orig_frames)
    def frame_neighbors(self, *args, **kwargs):
        counts["homotopy.frame_neighbors.calls"] += 1
        return tracer.count_frames(orig_frames(self, *args, **kwargs))

    graph_cls.frame_neighbors = frame_neighbors

    # -- maps
    orig_enum = maps.enumerate_continuous_maps
    _replace_everywhere(orig_enum, _generator_span(
        tracer, "maps.enumerate", orig_enum, "maps.enumerate.maps"))

    # -- solver
    orig_cover = solver.compute_cover

    @functools.wraps(orig_cover)
    def compute_cover(*args, **kwargs):
        # A memo hit is a call that leaves the session's cover memo unchanged.
        session = kwargs.get("session", args[3] if len(args) > 3 else None)
        before = len(session._covers) if session is not None else None
        tracer.calls["solver.compute_cover"] += 1
        tracer.enter("solver.compute_cover")
        try:
            return orig_cover(*args, **kwargs)
        finally:
            tracer.exit()
            if before is not None and len(session._covers) == before:
                counts["solver.compute_cover.memo_hits"] += 1

    _replace_everywhere(orig_cover, compute_cover)

    goodness_cls = solver._Goodness
    goodness_cls.check = _span(tracer, "solver.goodness_check", goodness_cls.check)
    e2_cls = solver._E2Context
    e2_cls._prepare = _span(tracer, "solver.e2_prepare", e2_cls._prepare)
    e2_cls.scan = _span(tracer, "solver.e2_scan", e2_cls.scan)
    for attr, name in (("_min_partition", "solver.min_partition"),
                       ("minimal_bad_sets", "solver.minimal_bad_sets")):
        orig = getattr(solver, attr)
        _replace_everywhere(orig, _span(tracer, name, orig))

    # -- lattice: image construction and (de)serialisation
    for attr in _LATTICE_FUNCTIONS:
        orig = getattr(lattice, attr)
        _replace_everywhere(orig, _span(tracer, "lattice", orig))

    # -- cli
    _replace_everywhere(cli.main, _span(tracer, "cli", cli.main))
    return tracer
