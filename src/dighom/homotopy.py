"""Deciding homotopy of maps between digital images.

Two continuous maps are homotopic when one can be slid to the other
through a sequence of continuous maps, each frame moving every point to
an equal or adjacent point.  On finite images that sliding relation is a
finite graph over the continuous maps, so homotopy is decidable by
breadth-first search and a homotopy is a checkable certificate: the list
of intermediate frames.

The search state space grows exponentially with the domain, so every
entry point takes explicit caps and reports "cap-exceeded" rather than
guessing.  The plain frame BFS of ``are_homotopic`` and ``is_nullhomotopic``
is the reference.  A ``HomotopySession`` adds memoization: for small domains
it partitions a whole map space into homotopy classes once, by union-find
over single-point and frame moves, and answers later queries by table
lookup, which is what makes the invariant solver practical.  A space with
more maps than the visited-maps cap is not partitioned; the session then
closes only the component of each queried map, by frame BFS, and remembers
every map a capped closure touched, so no map of that component is
searched again.  Everything else goes through one directed search.

A homotopy restricts to any induced subimage S of its domain: each frame
stays continuous on S and consecutive frames stay pointwise adjacent or
equal there.  So for a larger domain a "no" can come from the restriction
to an induced cycle of at most ``FLAT_CLASS_LIMIT`` points, whose map space
the session classifies; a "yes" still needs a chain of frames.

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
from .lattice import DigitalImage, DigitalPath, induced_subimage, interval_image, np_product
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
# ``_decide`` and the small-cycle restriction, whose map spaces
# ``class_root`` partitions.
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


def function_space_adjacent(f, g):
    """Adjacency of the function space: adjacent-or-equal arguments land on
    adjacent-or-equal values, across the two maps in both directions."""
    _validate_parallel(f, g)
    adj = f.codomain.adjacent_or_equal
    fm, gm = f.mapping, g.mapping
    for p in f.domain.points:
        if not adj(fm[p], gm[p]):
            return False
    for a, b in f.domain.edges:
        if not adj(fm[a], gm[b]) or not adj(fm[b], gm[a]):
            return False
    return True


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
    """Precomputed tables for searching the space of continuous maps
    between one fixed pair of images.  States are value tuples in domain
    point order."""

    def __init__(self, domain, codomain):
        self.domain = domain
        self.codomain = codomain
        order = maps_mod._search_order(domain)
        self.n = len(order)
        dpos = {p: i for i, p in enumerate(domain.points)}
        self.search_to_domain = [dpos[p] for p in order]
        spos = {p: i for i, p in enumerate(order)}
        self.earlier = [
            [spos[q] for q in domain.neighbors(p) if spos[q] < i]
            for i, p in enumerate(order)
        ]
        self.dom_nbr_pos = [
            [dpos[q] for q in domain.neighbors(p)] for p in domain.points
        ]
        self.closed = {x: codomain.closed_neighborhood(x) for x in codomain.points}
        self.adj = {x: frozenset(codomain.neighbors(x)) | {x} for x in codomain.points}

    def frame_neighbors(self, values, counter, budget, known=None):
        """All continuous maps with every point inside the closed
        neighborhood of its current value; excludes the state itself.
        Only states absent from `known` are charged against the budget,
        so the cap measures distinct maps touched, not re-generations."""
        n = self.n
        s2d = self.search_to_domain
        cur = [values[s2d[i]] for i in range(n)]
        cands = [self.closed[v] for v in cur]
        earlier = self.earlier
        adj = self.adj
        out = [None] * n  # domain-order buffer
        sbuf = [None] * n

        def rec(i):
            if i == n:
                state = tuple(out)
                if known is None or state not in known:
                    counter[0] += 1
                    if counter[0] > budget:
                        raise CapExceeded(
                            "homotopy search exceeded the visited-maps cap",
                            cap_name="max_visited_maps")
                if state != values:
                    yield state
                return
            for w in cands[i]:
                ok = True
                for j in earlier[i]:
                    if w not in adj[sbuf[j]]:
                        ok = False
                        break
                if ok:
                    sbuf[i] = w
                    out[s2d[i]] = w
                    yield from rec(i + 1)

        yield from rec(0)

    def single_point_moves(self, values):
        """Continuous maps differing from the state at exactly one point."""
        adj = self.adj
        for i, v in enumerate(values):
            nbrs = self.dom_nbr_pos[i]
            for w in self.closed[v]:
                if w == v:
                    continue
                if all(w in adj[values[j]] for j in nbrs):
                    yield values[:i] + (w,) + values[i + 1 :]


def _map_from_values(domain, codomain, values):
    return DigitalMap(domain, codomain, dict(zip(domain.points, values)))


def _frame_bfs(mg, start, targets, caps):
    """BFS over frame moves from start until any target is reached.

    Returns (hit, parents, explored, capped); ``hit is None`` with
    ``capped False`` means the component was exhausted, a definite no.
    """
    if start in targets:
        return start, {start: None}, 0, False
    parents = {start: None}
    queue = deque([start])
    counter = [0]
    budget = caps.max_visited_maps
    explored = 0
    try:
        while queue:
            cur = queue.popleft()
            explored += 1
            if explored > budget:
                return None, parents, explored, True
            for nxt in mg.frame_neighbors(cur, counter, budget, known=parents):
                if nxt in parents:
                    continue
                parents[nxt] = cur
                if nxt in targets:
                    return nxt, parents, explored, False
                queue.append(nxt)
    except CapExceeded:
        return None, parents, explored, True
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
    edge_list = domain.edges
    adj = codomain.adjacent_or_equal
    idx = {p: i for i, p in enumerate(domain.points)}
    epairs = [(idx[a], idx[b]) for a, b in edge_list]

    def fs_adjacent(u, v):
        for i in range(len(u)):
            if not adj(u[i], v[i]):
                return False
        for i, j in epairs:
            if not adj(u[i], v[j]) or not adj(u[j], v[i]):
                return False
        return True

    points = [(i,) for i in range(len(maps))]
    edges = set()
    vals = [m.values for m in maps]
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            if fs_adjacent(vals[i], vals[j]):
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

    For domains of up to ``FLAT_CLASS_LIMIT`` points the first query about
    a (domain, codomain) pair partitions that whole map space into its
    homotopy classes: union-find over single-point moves, then over frame
    moves from the maps outside the largest class.  Later queries compare
    canonical roots.  The session keeps every whole map space it
    enumerates (``map_space``), so the class table and the product engine's
    coordinate maps read one enumeration.  When the map space has more
    maps than the visited-maps cap, only the queried component is closed,
    by frame BFS.
    A closure that hits the cap has touched more maps of one component than
    the cap allows, and a closure from any of them would too, so every map
    it touched is remembered and later answers None without a search.

    Every other question goes to ``_reach``, the one directed search from
    f to g, or with g None to any constant map: a component check; for
    larger domains the restriction to each induced subimage on the
    shortest cycle through an edge, of at most ``FLAT_CLASS_LIMIT`` points,
    where a class that closes without the other restriction proves no; a
    single-point-move A* that can only prove yes; a frame BFS within caps.
    Its chain of states is the certificate.

    ``homotopic`` and ``nullhomotopic`` are both answered by ``_decide``:
    it splits full-product codomains into their factors, accepts at once
    when the codomain contracts, and otherwise reads the class table or
    asks ``_reach``.  ``contractible`` asks ``_reach`` whether the identity
    reaches a constant, classifying no map space.  ``homotopy_inverse``
    runs many queries on the one session, so each map space is classified
    once per harness.

    Not thread-safe; share one session per computation, not across threads.
    """

    def __init__(self, caps=DEFAULT_CAPS):
        self.caps = caps
        self._graphs = {}
        self._roots = {}
        self._partitioned = set()
        self._spaces = {}
        self._capped = {}
        self._cycles = {}
        self._contract = {}
        self._dist = {}

    # -- plumbing

    def _graph(self, domain, codomain):
        key = (domain.key, codomain.key)
        mg = self._graphs.get(key)
        if mg is None:
            mg = _MapGraph(domain, codomain)
            self._graphs[key] = mg
        return mg

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
            self._partition(key, self._graph(domain, codomain))
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

    def _partition(self, key, mg):
        """Split the whole map space into homotopy classes, filling its roots.

        Single-point moves are frame moves, so union-find over them gives
        classes no coarser than the true ones.  Frame moves are then
        followed only from maps not yet in the largest class.  The frame
        relation is symmetric, so an edge skipped at both of its ends joins
        two maps already in the largest class and would merge nothing.
        The space is read through ``map_space``, so it stays kept, in lex
        order, for the product engine to take its coordinate maps from.
        A space with more maps than the visited-maps cap is marked capped
        instead, with no roots filled in.
        """
        budget = self.caps.max_visited_maps
        try:
            space = self.map_space(mg.domain, mg.codomain, budget)
        except CapExceeded:
            self._capped[key] = set()
            return
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
        counter = [0]
        for i, v in enumerate(space):
            if find(i) != find(largest):
                for w in mg.frame_neighbors(v, counter, budget, known=index):
                    union(i, index[w])
        roots = self._roots[key]
        for i, v in enumerate(space):
            roots[v] = space[find(i)]
        self._partitioned.add(key)

    def map_space(self, domain, codomain, cap):
        """Every continuous map from domain to codomain, as lex-ordered value
        tuples.  A space is enumerated once per session and kept, for the
        class table and for the product engine's coordinate maps; a space
        over ``cap`` raises CapExceeded and is not kept."""
        key = (domain.key, codomain.key)
        space = self._spaces.get(key)
        if space is None:
            space = [f.values for f in enumerate_continuous_maps(domain, codomain, cap=cap)]
            self._spaces[key] = space
        elif len(space) > cap:
            raise CapExceeded(f"map enumeration exceeded cap of {cap}",
                              cap_name="max_probe_maps")
        return space

    def class_of(self, f):
        """Homotopy class of f: its class root, or over a strong product the
        tuple of its coordinate maps' classes; None when capped."""
        cod = f.codomain
        if cod.is_np_full:
            ids = []
            for sub in _factor_maps(f):
                cid = self.class_of(sub)
                if cid is None:
                    return None
                ids.append(cid)
            return tuple(ids)
        return self.class_root(f.domain, cod, f.values)

    # -- restriction to small induced cycles

    def _small_cycles(self, domain):
        """The induced subimages on the shortest cycle through each edge of
        the domain that has at most ``FLAT_CLASS_LIMIT`` points, each with
        the domain positions of its points; computed once per domain."""
        got = self._cycles.get(domain.key)
        if got is not None:
            return got
        got = []
        seen = set()
        pos = {p: i for i, p in enumerate(domain.points)}
        for a, b in domain.edges:
            # A shortest path from a to b that avoids the edge ab closes the
            # shortest cycle through it; a shorter chord would shorten it.
            prev = {a: None}
            frontier = [a]
            for _ in range(FLAT_CLASS_LIMIT - 1):
                if b in prev or not frontier:
                    break
                nxt = []
                for cur in frontier:
                    for nb in domain.neighbors(cur):
                        if nb not in prev and (cur, nb) != (a, b):
                            prev[nb] = cur
                            nxt.append(nb)
                frontier = nxt
            if b not in prev:
                continue
            cycle = [b]
            while prev[cycle[-1]] is not None:
                cycle.append(prev[cycle[-1]])
            points = frozenset(cycle)
            if points not in seen:
                seen.add(points)
                sub = induced_subimage(domain, points)
                got.append((sub, [pos[p] for p in sub.points]))
        self._cycles[domain.key] = got
        return got

    def _restriction_says_no(self, f, g):
        """Whether some small induced cycle S of the domain proves that f
        does not reach g, or with g None any constant map.  A homotopy
        restricts to S, so f|S and g|S lying in different components, one
        of them closed within the caps, proves no.  False means unproven.
        Only codomains of at most ``SMALL_CODOMAIN_LIMIT`` points are tried."""
        cod = f.codomain
        if len(cod) > SMALL_CODOMAIN_LIMIT:
            return False
        # Constant maps into one codomain component form one class, so one
        # constant stands for all of them.
        base = cod.components()[cod.component_id(f.values[0])][0]
        for sub, idx in self._small_cycles(f.domain):
            fs = tuple(f.values[i] for i in idx)
            gs = (base,) * len(idx) if g is None else tuple(g.values[i] for i in idx)
            if fs == gs:
                continue
            for a, b in ((fs, gs), (gs, fs)):
                root = self.class_root(sub, cod, a)
                if root is not None:
                    if self._roots[(sub.key, cod.key)].get(b) != root:
                        return True
                    break
        return False

    # -- contractibility

    def contractible(self, img):
        """Whether the identity of img is nullhomotopic; None when capped.
        A full normal product contracts exactly when every factor does; any
        other image costs one ``_reach``, not a classified map space."""
        if img.key in self._contract:
            return self._contract[img.key]
        if img.is_np_full and len(img.factors) > 1:
            result = True
            for factor in img.factors:
                result = self.contractible(factor)
                if not result:
                    break
        else:
            chain = self._reach(identity_map(img), None)
            result = None if chain is None else bool(chain)
        self._contract[img.key] = result
        return result

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
        some constant map; [] when there is none, None when capped.  In
        order: the component check, the small-cycle restriction for domains
        over ``FLAT_CLASS_LIMIT``, A* over single-point moves, frame BFS.
        A discontinuous f raises ValidationError before any search."""
        if _component_mismatch(f, g) is not None:
            return []
        if len(f.domain) > FLAT_CLASS_LIMIT and self._restriction_says_no(f, g):
            return []
        _require_continuous(f)
        targets = {g.values} if g is not None else _constant_targets(f)
        mg = self._graph(f.domain, f.codomain)
        hit, parents, _, _ = self._astar_single_point(
            mg, f.values, targets, self._astar_budget())
        if hit is None:
            hit, parents, _, capped = _frame_bfs(mg, f.values, targets, self.caps)
            if hit is None:
                return None if capped else []
        return _chain_to(parents, hit)

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
        if f.domain != g.domain or f.codomain != g.codomain:
            raise ValidationError("maps must share domain and codomain")
        return self._decide(f, g)

    def nullhomotopic(self, f):
        """Whether f is homotopic to a constant map; None when capped."""
        return self._decide(f, None)

    def certificate_between(self, f, g):
        """A verifiable certificate for a yes answer, not necessarily
        shortest: the chain that ``_reach`` found.  On small domains the
        class table answers no first, without a search.  None when the
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
        cap.
        """
        id_dom = identity_map(f.domain)
        id_cod = identity_map(f.codomain)
        for g in enumerate_continuous_maps(f.codomain, f.domain,
                                           cap=self.caps.max_probe_maps):
            left = self.homotopic(compose(g, f), id_dom)
            right = left and self.homotopic(compose(f, g), id_cod)
            if left is None or right is None:
                raise CapExceeded("homotopy query capped during inverse search",
                                  cap_name="max_visited_maps")
            if right:
                return g
        return None


# --- certificate JSON ----------------------------------------------------------


def certificate_to_json(cert):
    first = cert.frames[0]
    return {
        "domain": lattice.image_to_json(first.domain),
        "codomain": lattice.image_to_json(first.codomain),
        "frames": [
            [[list(p), list(fr.mapping[p])] for p in fr.domain.points]
            for fr in cert.frames
        ],
    }


def certificate_from_json(obj):
    if not isinstance(obj, dict) or "frames" not in obj:
        raise ValidationError("certificate document must contain frames")
    domain = lattice.image_from_json(obj["domain"])
    codomain = lattice.image_from_json(obj["codomain"])
    frames = []
    for t, entries in enumerate(obj["frames"]):
        mapping = {}
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValidationError(f"frames[{t}]: expected [source, target] pairs")
            src = lattice._point_from_json(entry[0], f"frames[{t}] source")
            dst = lattice._point_from_json(entry[1], f"frames[{t}] target")
            mapping[src] = dst
        frames.append(maps_mod.digital_map(domain, codomain, mapping))
    return HomotopyCertificate(tuple(frames))
