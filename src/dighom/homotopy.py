"""Deciding homotopy of maps between digital images.

Two continuous maps are homotopic when one can be slid to the other
through a sequence of continuous maps, each frame moving every point to
an equal or adjacent point.  On finite images that sliding relation is a
finite graph over the continuous maps, so homotopy is decidable by
breadth-first search and a homotopy is a checkable certificate: the list
of intermediate frames.

The search state space grows exponentially with the domain, so every
entry point takes explicit caps and reports "cap-exceeded" rather than
guessing.  The frame moves of every search are streamed by the placement
table of ``maps``, which owns their order; the frame BFS owns the
visited-maps cap, which it charges once per distinct map it touches.  The
plain frame BFS of ``are_homotopic`` and ``is_nullhomotopic`` is the
reference.  A ``HomotopySession`` adds memoization.  On small domains
every class question reads one class key per map (``class_keys``), which
is what makes the invariant solver practical.
Into a codomain with another core than those below, the key is a class
root: the session partitions the whole map space into homotopy classes
once, by union-find over single-point and frame moves, or when the space
has more maps than the visited-maps cap, closes only the component of each
queried map, by frame BFS, and remembers every map a capped closure
touched, so no map of that component is searched again.  Everything else
goes through one directed search, whose every answer the session keeps: it
depends on the two maps and the caps alone, so a question asked again is
answered as a fresh session would.

A point folds onto a neighbour when its other neighbours all neighbour
that one, and folding until no point folds leaves a core that the codomain
retracts onto, one step per fold.  Maps into a codomain whose core is a
single point, or a ring of m >= 5 points, a connected image whose every
point has two neighbours, need no search.  Two of them are homotopic
exactly when their retractions have the same degree around every cycle
of the domain, and then a chain of frames follows from the folds and
from the lifts to the integers.  So a map into such a codomain has its
degrees as its class key, read without enumerating its map space, and
every directed question on it gets a chain or a definite no, under any
caps.  On 4 points the rule is false, since C4 contracts, so C4 keeps the
search engines, as does every other core.

Only plain homotopy is decided here.  Homotopy through every probe map
is m-homotopic distance zero, which the solver decides.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

from .errors import CapExceeded, ValidationError
from .lattice import DigitalImage, DigitalPath, interval_image, np_product
from .maps import (
    DigitalMap,
    compose,
    continuity_violation,
    enumerate_continuous_maps,
    identity_map,
)
from . import lattice
from . import maps as maps_mod

YES = "yes"
NO = "no"
CAP = "cap-exceeded"

# Class-table closure is only attempted for domains up to this many points;
# larger domains use directed search instead of full component closure.
FLAT_CLASS_LIMIT = 10

# Only codomains up to this many points get the contractible shortcut in
# ``_decide``.
SMALL_CODOMAIN_LIMIT = 64


@dataclass(frozen=True)
class SearchCaps:
    """Resource bounds for homotopy searches and map enumerations."""

    max_visited_maps: int = 1_000_000
    max_probe_maps: int = 100_000


DEFAULT_CAPS = SearchCaps()


@dataclass(frozen=True)
class HomotopyCertificate:
    """Frames of a homotopy; consecutive frames pointwise within one step."""

    frames: tuple  # of DigitalMap

    @property
    def steps(self):
        return len(self.frames) - 1


@dataclass
class HomotopyVerdict:
    decided: str  # YES, NO or CAP
    certificate: Optional[HomotopyCertificate] = None
    states_explored: int = 0
    reason: str = ""


@dataclass
class CertificateCheck:
    ok: bool
    reason: str = ""


def _require_continuous(f, label="map"):
    bad = continuity_violation(f)
    if bad is not None:
        raise ValidationError(f"{label} is not continuous, e.g. on edge {bad!r}")


def _validate_parallel(f, g):
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValidationError("maps must share domain and codomain")
    _require_continuous(f, "first map")
    _require_continuous(g, "second map")


def one_step_related(f, g):
    """Every point moves to an equal or adjacent point between f and g."""
    _validate_parallel(f, g)
    adj = f.codomain.adjacent_or_equal
    return all(adj(f.mapping[p], g.mapping[p]) for p in f.domain.points)


def _function_space_adjacency(domain, codomain):
    """Adjacency of the function space as a test on two value tuples:
    adjacent-or-equal arguments land on adjacent-or-equal values, across
    the two maps in both directions."""
    adj = codomain.adjacent_or_equal
    pos = {p: i for i, p in enumerate(domain.points)}
    slots = [(pos[a], pos[b]) for a, b in domain.edges]

    def adjacent(u, v):
        if not all(map(adj, u, v)):
            return False
        for i, j in slots:
            if not adj(u[i], v[j]) or not adj(u[j], v[i]):
                return False
        return True

    return adjacent


def function_space_adjacent(f, g):
    """Adjacency of the function space: adjacent-or-equal arguments land on
    adjacent-or-equal values, across the two maps in both directions."""
    _validate_parallel(f, g)
    return _function_space_adjacency(f.domain, f.codomain)(f.values, g.values)


def verify_certificate(cert, f, g):
    """Check a certificate against its endpoints; never trusts the prover."""
    if not cert.frames:
        raise ValidationError("certificate has no frames")
    for frame in cert.frames:
        if frame.domain != f.domain or frame.codomain != f.codomain:
            raise ValidationError("certificate frame domain or codomain mismatch")
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValidationError("endpoints do not share domain and codomain")
    if cert.frames[0].values != f.values or cert.frames[-1].values != g.values:
        return CertificateCheck(False, "endpoint mismatch")
    for t, frame in enumerate(cert.frames):
        if continuity_violation(frame) is not None:
            return CertificateCheck(False, f"discontinuous frame {t}")
    adj = f.codomain.adjacent_or_equal
    for t in range(len(cert.frames) - 1):
        cur, nxt = cert.frames[t], cert.frames[t + 1]
        for a in f.domain.points:
            if not adj(cur.mapping[a], nxt.mapping[a]):
                return CertificateCheck(False, f"step violation at ({a}, {t})")
    return CertificateCheck(True, "")


# --- search machinery --------------------------------------------------------


class _MapGraph:
    """The moves between the continuous maps from one fixed domain into one
    fixed codomain.  States are value tuples in domain point order.

    Frame moves are the stream of the one search-order placement table of
    ``maps`` (``_Placement``), which owns the point order; the visited-maps
    cap belongs to the search that takes the moves (``_frame_bfs``)."""

    def __init__(self, domain, codomain):
        self.domain = domain
        self.codomain = codomain
        self.placement = maps_mod._Placement(domain, codomain, "search")
        dpos = {p: i for i, p in enumerate(domain.points)}
        self.dom_nbr_pos = [
            [dpos[q] for q in domain.neighbors(p)] for p in domain.points
        ]

    def frame_neighbors(self, values):
        """All continuous maps with every point inside the closed
        neighborhood of its current value, in the placement's order;
        excludes the state itself."""
        return filter(values.__ne__, self.placement.stream(within=values))

    def single_point_moves(self, values):
        """Continuous maps differing from the state at exactly one point."""
        nbhd, near = self.placement.nbhd, self.placement.near
        for i, v in enumerate(values):
            nbrs = self.dom_nbr_pos[i]
            for w in nbhd[v]:
                if w == v:
                    continue
                if all(w in near[values[j]] for j in nbrs):
                    yield values[:i] + (w,) + values[i + 1 :]


class _Ring:
    """Degrees and chains of the maps from one domain into a codomain that
    folds to a single point or to a ring of m >= 5 points, a connected
    image whose every point has two neighbours.

    A point x folds onto a neighbour y when every other neighbour of x is
    a neighbour of y.  Sending x to y is then a continuous retraction onto
    the image without x, and it moves one point one step, so folding until
    no point folds leaves a core C with a retraction r onto it, and f is
    joined to r*f by frames that each fold one point.  So f and g are
    homotopic exactly when r*f and r*g are, and ``index`` gives every
    codomain point the ring index of its retraction.  A one-point core is
    the ring m = 1: every degree is 0.

    A map lifts to the integers along a BFS spanning forest of the domain:
    each root to its ring index, each child to its parent's lift plus the
    step, -1, 0 or +1, between their images.  A chord, an edge outside the
    forest, closes one cycle of the domain, and the map's degree around it
    is the multiple of m that the lift gains across the chord.  Two maps
    are homotopic exactly when their degrees agree on every chord.

    A frame moves each point at most one step, so a frame's lift can be
    taken within 1 of the last one; its steps along an edge then differ
    from the last frame's by at most 3.  Modulo m >= 5 that fixes them, so
    a frame keeps every degree.  On 4 points it does not, and C4 contracts.
    Conversely, when f and g have equal degrees, the lift difference
    d = g~ - f~ is a function on the domain, and the frames
    f~ + clamp(d, -t, t) for t = 0 .. max|d| are medians of the three
    1-Lipschitz functions f~ - t, g~, f~ + t on every edge, so each is
    continuous and each moves every point at most one step: a certificate
    from r*f to r*g built without search.
    """

    def __init__(self, domain, order, folds):
        self.order = order
        self.folds = folds
        # Each point folds onto one that folds later or lies on the core.
        self.index = {x: i for i, x in enumerate(order)}
        for x, y in reversed(folds):
            self.index[x] = self.index[y]
        pos = {p: i for i, p in enumerate(domain.points)}
        # (point, parent) domain positions in ``maps._search_order``, a BFS
        # order, where a point's parent is its neighbour placed first, so
        # every parent comes before its children; a root's parent is None.
        order = maps_mod._search_order(domain)
        rank = {p: i for i, p in enumerate(order)}
        parent = {}
        for p in order:
            up = min(domain.neighbors(p), key=rank.__getitem__, default=None)
            parent[p] = up if up is not None and rank[up] < rank[p] else None
        self.forest = [(pos[p], None if parent[p] is None else pos[parent[p]])
                       for p in order]
        self.chords = [(pos[a], pos[b]) for a, b in domain.edges
                       if parent[a] != b and parent[b] != a]

    @classmethod
    def build(cls, domain, codomain):
        """The table for maps from domain into codomain, or None unless the
        codomain folds to a single point or to a ring of at least 5 points.
        Passes over ``codomain.points`` fold each point onto its least
        neighbour that it folds onto, until a pass folds none."""
        if not codomain.is_connected():
            return None
        nbrs = {x: set(codomain.neighbors(x)) for x in codomain.points}
        folds = []
        folded = True
        while folded:
            folded = False
            for x in codomain.points:
                if x not in nbrs:
                    continue
                y = next((y for y in sorted(nbrs[x]) if nbrs[x] <= nbrs[y] | {y}), None)
                if y is not None:
                    for z in nbrs.pop(x):
                        nbrs[z].discard(x)
                    folds.append((x, y))
                    folded = True
        core = [x for x in codomain.points if x in nbrs]
        if len(core) == 1:
            return cls(domain, tuple(core), folds)
        if len(core) < 5 or any(len(nbrs[x]) != 2 for x in core):
            return None
        # A retract of a connected image is connected, so the core is one ring.
        order = [core[0], min(nbrs[core[0]])]
        while len(order) < len(core):
            a, b = order[-2:]
            order.append(next(x for x in nbrs[b] if x != a))
        return cls(domain, tuple(order), folds)

    def lift(self, values, near=None):
        """The lift of the map with these values, in domain order.  Each
        root lifts to its ring index, or given ``near``, another lift, to
        the lift of its value nearest to near's at that root."""
        m = len(self.order)
        half = m // 2
        idx = [self.index[v] for v in values]
        out = [0] * len(idx)
        for i, up in self.forest:
            if up is not None:
                base = out[up]
            elif near is None:
                out[i] = idx[i]
                continue
            else:
                base = near[i]
            out[i] = base + (idx[i] - base + half) % m - half
        return out

    def degrees(self, lift):
        """The degree around each chord's cycle, the multiple of m by which
        the lift jumps across the chord; the map's homotopy class."""
        m = len(self.order)
        return tuple((lift[v] - lift[u] + m // 2) // m for u, v in self.chords)

    def column_degrees(self, columns, index):
        """``degrees(lift(v))`` of every map v of a space at once.  The
        space is given by its columns, per domain point each map's value
        there as a position into ``index``, the ring index of each value;
        the lift takes one list pass per forest edge, the degrees one per
        chord."""
        m = len(self.order)
        half = m // 2
        lift = [list(map(index.__getitem__, col)) for col in columns]
        for i, up in self.forest:
            if up is not None:
                lift[i] = [b + (x - b + half) % m - half for b, x in zip(lift[up], lift[i])]
        jumps = [[(y - x + half) // m for x, y in zip(lift[u], lift[v])]
                 for u, v in self.chords]
        return list(zip(*jumps)) if jumps else [()] * len(columns[0])

    def _folding(self, values):
        """The frames from the map with these values to its retraction
        onto the core, one for each fold that moves a value."""
        frames = [values]
        for x, y in self.folds:
            if x in frames[-1]:
                frames.append(tuple(y if v == x else v for v in frames[-1]))
        return frames

    def chain(self, f, g):
        """The value tuples of a frame path from f to g, or () when their
        degrees differ: the folds from f to r*f, the clamp chain from r*f
        to r*g, and the folds from g to r*g backwards."""
        a = self.lift(f)
        b = self.lift(g, near=a)
        if self.degrees(a) != self.degrees(b):
            return ()
        order, m = self.order, len(self.order)
        d = [y - x for x, y in zip(a, b)]
        clamp = [tuple(order[(x + max(-t, min(t, e))) % m] for x, e in zip(a, d))
                 for t in range(max(map(abs, d)) + 1)]
        return tuple(self._folding(f)[:-1] + clamp + self._folding(g)[-2::-1])


def _map_from_values(domain, codomain, values):
    return DigitalMap(domain, codomain, dict(zip(domain.points, values)))


def _frame_bfs(mg, start, targets, caps):
    """BFS over frame moves from start until any target is reached.

    Returns (hit, parents, explored, capped); ``hit is None`` with
    ``capped False`` means the component was exhausted, a definite no.
    The search owns the visited-maps cap: it caps when the distinct maps
    it has touched besides start would exceed it, or when it would expand
    more states than that.
    """
    if start in targets:
        return start, {start: None}, 0, False
    parents = {start: None}
    queue = deque([start])
    budget = caps.max_visited_maps
    explored = 0
    while queue:
        cur = queue.popleft()
        explored += 1
        if explored > budget:
            return None, parents, explored, True
        for nxt in mg.frame_neighbors(cur):
            if nxt in parents:
                continue
            if len(parents) > budget:
                return None, parents, explored, True
            parents[nxt] = cur
            if nxt in targets:
                return nxt, parents, explored, False
            queue.append(nxt)
    return None, parents, explored, False


def _chain_to(parents, end):
    chain = [end]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    chain.reverse()
    return chain


def _certificate_from_chain(domain, codomain, chain):
    frames = tuple(_map_from_values(domain, codomain, v) for v in chain)
    return HomotopyCertificate(frames)


def _component_mismatch(f, g):
    """Why f cannot reach g, or with g None any constant map, because some
    image points lie in different codomain components; None if none do."""
    comp = f.codomain.component_id
    if g is None:
        if len({comp(v) for v in f.values}) > 1:
            return "image spans several codomain components"
        return None
    for p, a, b in zip(f.domain.points, f.values, g.values):
        if comp(a) != comp(b):
            return f"images of {p!r} lie in different codomain components"
    return None


def _constant_targets(f):
    """Value tuples of the constant maps into the component of f's image."""
    cod = f.codomain
    n = len(f.domain)
    return {(x,) * n for x in cod.components()[cod.component_id(f.values[0])]}


def _factor_maps(f):
    """The coordinate maps of f into the factors of its full-product codomain."""
    cod = f.codomain
    blocks = zip(*(cod.split_point(v) for v in f.values))
    for factor, values in zip(cod.factors, blocks):
        yield _map_from_values(f.domain, factor, values)


def _reference_search(f, g, caps):
    """Plain frame BFS from f to g, or with g None to any constant map in
    f's component; a yes carries a shortest certificate."""
    reason = _component_mismatch(f, g)
    if reason is not None:
        return HomotopyVerdict(NO, None, 0, reason)
    targets = {g.values} if g is not None else _constant_targets(f)
    if f.values in targets:
        return HomotopyVerdict(YES, HomotopyCertificate((f,)), 0)
    mg = _MapGraph(f.domain, f.codomain)
    hit, parents, explored, capped = _frame_bfs(mg, f.values, targets, caps)
    if hit is not None:
        cert = _certificate_from_chain(f.domain, f.codomain, _chain_to(parents, hit))
        return HomotopyVerdict(YES, cert, explored)
    if capped:
        return HomotopyVerdict(CAP, None, explored, "visited-maps cap exceeded")
    if g is None:
        return HomotopyVerdict(NO, None, explored, "no constant map in the component")
    return HomotopyVerdict(NO, None, explored, "component of the first map exhausted")


def are_homotopic(f, g, caps=DEFAULT_CAPS):
    """Decide homotopy by BFS from f; a yes carries a shortest certificate."""
    _validate_parallel(f, g)
    return _reference_search(f, g, caps)


def is_nullhomotopic(f, caps=DEFAULT_CAPS):
    """Decide whether f is homotopic to some constant map (multi-target BFS)."""
    _require_continuous(f)
    return _reference_search(f, None, caps)


def is_contractible(img, caps=DEFAULT_CAPS):
    """Whether the identity map is nullhomotopic."""
    return is_nullhomotopic(identity_map(img), caps)


def find_homotopy_inverse(f, caps=DEFAULT_CAPS):
    """Search for g with g*f and f*g homotopic to the identities; see
    ``HomotopySession.homotopy_inverse``."""
    return HomotopySession(caps).homotopy_inverse(f)


# --- function and path spaces -------------------------------------------------


def function_space(domain, codomain, cap=None):
    """All continuous maps as an explicit image under function-space adjacency.

    Returns (maps, space); point (i,) of the space stands for maps[i].
    """
    maps = list(enumerate_continuous_maps(domain, codomain, cap=cap))
    adjacent = _function_space_adjacency(domain, codomain)
    points = [(i,) for i in range(len(maps))]
    edges = set()
    vals = [m.values for m in maps]
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            if adjacent(vals[i], vals[j]):
                edges.add(((i,), (j,)))
    space = DigitalImage(points, lattice.Explicit(frozenset(edges)), edges)
    return maps, space


@dataclass
class PathSpace:
    """All paths of a fixed length with the endpoint fibration over them."""

    interval: DigitalImage
    paths: tuple  # of DigitalPath
    space: DigitalImage
    endpoint_map: DigitalMap


def path_space_with_fibration(img, z, caps=DEFAULT_CAPS):
    """Maps from [0, z] into the image, with endpoints as the fibration."""
    if z < 1:
        raise ValidationError("path length must be at least 1")
    dom = interval_image(0, z)
    est = len(img) ** min(z + 1, 4)
    if est > 4 * caps.max_probe_maps:
        raise CapExceeded("path space too large for the probe-maps cap",
                          cap_name="max_probe_maps")
    maps, space = function_space(dom, img, cap=caps.max_probe_maps)
    paths = tuple(DigitalPath(m.values) for m in maps)
    target = np_product([img, img], 2)
    mapping = {(i,): paths[i].start + paths[i].end for i in range(len(paths))}
    endpoint = DigitalMap(space, target, mapping)
    return PathSpace(dom, paths, space, endpoint)


# --- memoizing session ---------------------------------------------------------


class HomotopySession:
    """Caches homotopy component structure across many queries.

    ``class_keys`` is the one class path, read by ``_decide`` and by the
    product engine: for many maps at once it gives each a key that equals
    another's exactly when the two are homotopic.  Into a codomain that
    folds to a point or to a ring of at least 5 points the key is the
    map's degrees (``_Ring``), decided under any caps with no map space
    enumerated.  Degrees are kept per map for the short lists of
    ``_decide``, and per column for whole spaces: ``space_keys`` lifts a
    kept space by its columns (``space_columns``) and keeps one key column
    per value table.  Over a full strong product the key is the tuple of
    the coordinate maps' keys.  Into any other codomain it is the class
    root, the least map of the class (``class_root``): the first root
    asked for partitions the whole map space into its homotopy classes, by
    union-find over single-point moves, then over frame moves from the
    maps outside the largest class.  When the map space has more maps than
    the visited-maps cap, only the queried component is closed, by frame
    BFS.  A closure that hits the cap has touched more maps of one
    component than the cap allows, and a closure from any of them would
    too, so every map it touched is remembered and later answers None
    without a search.  The session keeps every whole map space it
    enumerates (``map_space``), so the class table and the product
    engine's coordinate maps read one enumeration.

    Every other question goes to ``_reach``, the one directed search from
    f to g, or with g None to any constant map.  Into a codomain that folds
    to a point or to a ring of at least 5 points it searches nothing:
    unequal degrees say no, equal ones give a chain of folds and clamps
    (``_Ring``), under any caps.  ``_decide`` reads degree keys there
    instead, so only ``certificate_between`` and ``contractible`` build
    such chains.  Into any other codomain it runs a component check, a
    single-point-move A* that can only prove yes, and a frame BFS within
    caps, so there a "no" on a domain over ``FLAT_CLASS_LIMIT`` points
    comes only from a frame BFS that exhausts the component of f.  Its
    chain of states is the certificate.  Every answer of ``_reach``, chain,
    no or capped, is kept and returned again for the same maps.  That is
    exact: degrees depend on the maps alone, and both searches start from
    f alone, so a kept answer is the one a fresh session would give.

    ``homotopic`` and ``nullhomotopic`` are both answered by ``_decide``:
    it splits full-product codomains into their factors, accepts at once
    when the codomain contracts, compares degree keys into a codomain with
    a ring table on a domain of any size, asks ``_reach`` on a domain over
    ``FLAT_CLASS_LIMIT`` points, and otherwise reads the class roots.  Both
    check that their maps are continuous first.  ``contractible`` asks
    ``_reach`` whether the identity reaches a constant, classifying no map
    space, and keeps the answer per image.  ``homotopy_inverse`` runs many
    queries on the one session, so each map space is classified once per
    harness.

    Not thread-safe; share one session per computation, not across threads.
    """

    def __init__(self, caps=DEFAULT_CAPS):
        self.caps = caps
        self._graphs = {}
        self._roots = {}
        self._partitioned = set()
        self._spaces = {}
        self._capped = {}
        self._chains = {}
        self._dist = {}
        self._rings = {}
        self._degrees = {}
        self._columns = {}
        self._key_columns = {}
        self._contractible = {}

    # -- plumbing

    def _graph(self, domain, codomain):
        key = (domain.key, codomain.key)
        mg = self._graphs.get(key)
        if mg is None:
            mg = _MapGraph(domain, codomain)
            self._graphs[key] = mg
        return mg

    def _ring(self, domain, codomain):
        """The ring table of maps from domain into codomain, or None when
        the codomain folds neither to a point nor to a ring of at least 5
        points; built once."""
        key = (domain.key, codomain.key)
        if key not in self._rings:
            self._rings[key] = _Ring.build(domain, codomain)
        return self._rings[key]

    def _distances(self, codomain):
        tab = self._dist.get(codomain.key)
        if tab is None:
            tab = {}
            for src in codomain.points:
                dist = {src: 0}
                queue = deque([src])
                while queue:
                    cur = queue.popleft()
                    for nb in codomain.neighbors(cur):
                        if nb not in dist:
                            dist[nb] = dist[cur] + 1
                            queue.append(nb)
                tab[src] = dist
            self._dist[codomain.key] = tab
        return tab

    # -- component classification for small domains

    def class_root(self, domain, codomain, values):
        """Canonical representative (minimum value tuple) of the homotopy
        component containing the given map; None when closure hit the cap.
        Raises ValidationError for a discontinuous map."""
        key = (domain.key, codomain.key)
        roots = self._roots.setdefault(key, {})
        got = roots.get(values)
        if got is not None:
            return got
        if key not in self._partitioned and key not in self._capped:
            self._partition(domain, codomain)
            got = roots.get(values)
            if got is not None:
                return got
        if values in self._capped.get(key, ()):
            return None
        # A partitioned space holds every continuous map, and a closure
        # from a discontinuous one would hand it a root.
        _require_continuous(_map_from_values(domain, codomain, values))
        # The map space overran the cap: close the queried component only.
        _, parents, _, hit_cap = _frame_bfs(
            self._graph(domain, codomain), values, (), self.caps)
        if hit_cap:
            # The search touched more maps of this one component than the
            # cap allows, and a search from any of them must touch them all
            # before it can finish, so under these caps it would cap too.
            self._capped[key].update(parents)
            return None
        root = min(parents)
        for state in parents:
            roots.setdefault(state, root)
        return root

    def _partition(self, domain, codomain):
        """Split the whole map space into homotopy classes, filling its roots.

        The space is read through ``map_space``, so it stays kept, in lex
        order, for the product engine to take its coordinate maps from.
        A space with more maps than the visited-maps cap is marked capped
        instead, with no roots filled in.

        The classes come from union-find.  Single-point moves are frame
        moves, so union-find over them gives classes no coarser than the
        true ones.  Frame moves are then followed only from maps not yet in
        the largest class.  The frame relation is symmetric, so an edge
        skipped at both of its ends joins two maps already in the largest
        class and would merge nothing.
        """
        key = (domain.key, codomain.key)
        try:
            space = self.map_space(domain, codomain, self.caps.max_visited_maps)
        except CapExceeded:
            self._capped[key] = set()
            return
        roots = self._roots[key]
        self._partitioned.add(key)
        mg = self._graph(domain, codomain)
        index = {v: i for i, v in enumerate(space)}
        up = list(range(len(space)))

        def find(i):
            top = i
            while up[top] != top:
                top = up[top]
            while up[i] != top:
                up[i], i = top, up[i]
            return top

        def union(i, j):
            a, b = find(i), find(j)
            if a != b:
                if space[b] < space[a]:
                    a, b = b, a
                up[b] = a

        for i, v in enumerate(space):
            for w in mg.single_point_moves(v):
                union(i, index[w])
        sizes = Counter(find(i) for i in range(len(space)))
        largest = max(sizes, key=sizes.get)
        for i, v in enumerate(space):
            if find(i) != find(largest):
                for w in mg.frame_neighbors(v):
                    union(i, index[w])
        for i, v in enumerate(space):
            roots[v] = space[find(i)]

    def map_space(self, domain, codomain, cap):
        """Every continuous map from domain to codomain, as lex-ordered value
        tuples.  A space is enumerated once per session and kept, for the
        class table and for the product engine's coordinate maps; a space
        over ``cap`` raises CapExceeded and is not kept."""
        key = (domain.key, codomain.key)
        space = self._spaces.get(key)
        if space is None:
            space = list(maps_mod.continuous_value_tuples(domain, codomain, cap=cap))
            self._spaces[key] = space
        elif len(space) > cap:
            raise CapExceeded(f"map enumeration exceeded cap of {cap}",
                              cap_name="max_probe_maps")
        return space

    def space_columns(self, domain, codomain):
        """The kept space of ``map_space`` read by columns: per domain
        point, the position in ``codomain.points`` of every map's value
        there, in the space's order.  Built once per session."""
        key = (domain.key, codomain.key)
        columns = self._columns.get(key)
        if columns is None:
            pos = {p: i for i, p in enumerate(codomain.points)}
            columns = [list(map(pos.__getitem__, col)) for col in zip(*self._spaces[key])]
            self._columns[key] = columns
        return columns

    def space_keys(self, domain, factor, codomain, table):
        """The class key of every map of the kept space from domain into
        factor after the value table ``table``, the codomain point of each
        point of ``factor.points``, in the space's order; ``class_keys``
        for the whole space at once, kept per session.  With a ring table
        the space is lifted by columns (``_Ring.column_degrees``); into any
        other codomain each composite goes to ``class_keys``."""
        key = (domain.key, factor.key, codomain.key, table)
        keys = self._key_columns.get(key)
        if keys is None:
            ring = None if codomain.is_np_full else self._ring(domain, codomain)
            if ring is None:
                through = dict(zip(factor.points, table))
                keys = self.class_keys(domain, codomain, [
                    tuple(map(through.__getitem__, v))
                    for v in self._spaces[(domain.key, factor.key)]])
            else:
                keys = ring.column_degrees(self.space_columns(domain, factor),
                                           [ring.index[b] for b in table])
            self._key_columns[key] = keys
        return keys

    def class_keys(self, domain, codomain, values):
        """The class key of each map from domain to codomain, given by its
        value tuple: maps have equal keys exactly when they are homotopic.
        None for a map whose class closure capped.

        Into a codomain that folds to a point or to a ring of at least 5
        points the key is the map's degrees (``_Ring``), kept per map and
        decided under any caps.  Over a full strong product it is the tuple
        of the coordinate maps' keys, and into any other codomain it is the
        class root.  Callers pass continuous maps."""
        if codomain.is_np_full:
            blocks = [tuple(zip(*map(codomain.split_point, v))) for v in values]
            per_factor = [self.class_keys(domain, factor, [b[k] for b in blocks])
                          for k, factor in enumerate(codomain.factors)]
            return [None if None in ids else ids for ids in zip(*per_factor)]
        ring = self._ring(domain, codomain)
        if ring is None:
            return [self.class_root(domain, codomain, v) for v in values]
        degrees = self._degrees.setdefault((domain.key, codomain.key), {})
        out = []
        for v in values:
            got = degrees.get(v)
            if got is None:
                got = degrees[v] = ring.degrees(ring.lift(v))
            out.append(got)
        return out

    # -- contractibility

    def contractible(self, img):
        """Whether the identity of img is nullhomotopic; None when capped.
        A full normal product contracts exactly when every factor does; any
        other image costs one ``_reach``, not a classified map space, and
        only the first time: its answer is kept per image."""
        if img.is_np_full and len(img.factors) > 1:
            for factor in img.factors:
                result = self.contractible(factor)
                if not result:
                    return result
            return True
        if img.key not in self._contractible:
            chain = self._reach(identity_map(img), None)
            self._contractible[img.key] = None if chain is None else bool(chain)
        return self._contractible[img.key]

    # -- the one directed search

    def _astar_single_point(self, mg, start, targets, budget):
        """Best-first search over single-point moves; sound for yes only."""
        dist_tab = self._distances(mg.codomain)
        goal = min(targets)

        def h(v):
            total = 0
            for a, b in zip(v, goal):
                d = dist_tab[a].get(b)
                if d is None:
                    return None
                total += d
            return total

        h0 = h(start)
        if h0 is None:
            return None, {}, 0, False
        heap = [(h0, start)]
        parents = {start: None}
        explored = 0
        while heap:
            _, cur = heapq.heappop(heap)
            explored += 1
            if explored > budget:
                return None, parents, explored, True
            if cur in targets:
                return cur, parents, explored, False
            for nxt in mg.single_point_moves(cur):
                if nxt not in parents:
                    parents[nxt] = cur
                    hn = h(nxt)
                    if hn is not None:
                        heapq.heappush(heap, (hn, nxt))
        return None, parents, explored, False

    def _astar_budget(self):
        return max(self.caps.max_visited_maps // 4, 1000)

    def _reach(self, f, g):
        """The value tuples of a frame path from f to g, or with g None to
        some constant map, as a tuple; () when there is none, None when
        capped.  Callers pass continuous maps.

        Into a codomain that folds to a point or to a ring of at least 5
        points the degrees decide, without search and whatever the caps:
        unequal degrees give (), equal ones the chain of ``_Ring``, with g
        None to the constant at f's first value.  Into any other codomain,
        in order: the component check, A* over single-point moves, frame
        BFS; only an exhausted frame BFS says no there.

        Every answer, cap outcomes included, is kept, so a question asked
        again costs one lookup.  It is exact because the answer depends on
        f, g and the caps alone, as the class docstring explains."""
        key = (f.domain.key, f.codomain.key, f.values,
               None if g is None else g.values)
        if key in self._chains:
            return self._chains[key]
        ring = self._ring(f.domain, f.codomain)
        if ring is not None:
            end = (f.values[0],) * len(f.values) if g is None else g.values
            chain = ring.chain(f.values, end)
        elif _component_mismatch(f, g) is not None:
            chain = ()
        else:
            targets = {g.values} if g is not None else _constant_targets(f)
            mg = self._graph(f.domain, f.codomain)
            hit, parents, _, _ = self._astar_single_point(
                mg, f.values, targets, self._astar_budget())
            if hit is None:
                hit, parents, _, capped = _frame_bfs(mg, f.values, targets, self.caps)
            if hit is not None:
                chain = tuple(_chain_to(parents, hit))
            else:
                chain = None if capped else ()
        self._chains[key] = chain
        return chain

    # -- the one decision routine

    def _decide(self, f, g):
        """Whether frames lead from f to g, or with g None to some constant
        map: True, False, or None when caps prevented a decision."""
        if g is not None and f.values == g.values:
            return True
        cod = f.codomain
        if cod.is_np_full:
            # Both target sets are products of per-factor sets, so f reaches
            # one exactly when every coordinate map reaches its factor's.
            others = _factor_maps(g) if g is not None else itertools.repeat(None)
            for fk, gk in zip(_factor_maps(f), others):
                sub = self._decide(fk, gk)
                if not sub:
                    return sub
            return True
        if len(cod) <= SMALL_CODOMAIN_LIMIT and self.contractible(cod):
            return True
        if self._ring(f.domain, cod) is not None:
            # Degrees decide under any caps.  The codomain is connected, so
            # every constant map has the key of the one at f's first value.
            end = g.values if g is not None else (f.values[0],) * len(f.values)
            key_f, key_g = self.class_keys(f.domain, cod, (f.values, end))
            return key_f == key_g
        if len(f.domain) > FLAT_CLASS_LIMIT:
            chain = self._reach(f, g)
            return None if chain is None else bool(chain)
        # Components answer no even where the closure of f would cap.
        if _component_mismatch(f, g) is not None:
            return False
        root = self.class_root(f.domain, cod, f.values)
        if root is None:
            return None
        # f's whole component is closed, so membership is a lookup.
        roots = self._roots[(f.domain.key, cod.key)]
        targets = {g.values} if g is not None else _constant_targets(f)
        return any(roots.get(t) == root for t in targets)

    # -- the public queries

    def homotopic(self, f, g):
        """True, False, or None when caps prevented a decision."""
        _validate_parallel(f, g)
        return self._decide(f, g)

    def nullhomotopic(self, f):
        """Whether f is homotopic to a constant map; None when capped."""
        _require_continuous(f)
        return self._decide(f, None)

    def certificate_between(self, f, g):
        """A verifiable certificate for a yes answer, not necessarily
        shortest: the chain that ``_reach`` found.  On small domains the
        class keys answer no first, without a search.  None when the
        maps are not homotopic or caps prevented a decision."""
        _validate_parallel(f, g)
        if f.values == g.values:
            return HomotopyCertificate((f,))
        if len(f.domain) <= FLAT_CLASS_LIMIT and self._decide(f, g) is False:
            return None
        chain = self._reach(f, g)
        return _certificate_from_chain(f.domain, f.codomain, chain) if chain else None

    # -- harness queries

    def homotopy_inverse(self, f):
        """Search for g with g*f and f*g homotopic to the identities.

        Candidates are enumerated in lexicographic order of their value
        tuples, so the returned witness is the lexicographically first one.
        Raises CapExceeded when enumeration or any homotopy query hits its
        cap.  f is checked once; the composites of continuous maps are
        continuous, so they go to ``_decide`` unchecked.
        """
        _require_continuous(f)
        id_dom = identity_map(f.domain)
        id_cod = identity_map(f.codomain)
        for g in enumerate_continuous_maps(f.codomain, f.domain,
                                           cap=self.caps.max_probe_maps):
            left = self._decide(compose(g, f), id_dom)
            right = left and self._decide(compose(f, g), id_cod)
            if left is None or right is None:
                raise CapExceeded("homotopy query capped during inverse search",
                                  cap_name="max_visited_maps")
            if right:
                return g
        return None
