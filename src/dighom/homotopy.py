"""Deciding homotopy of maps between digital images.

Two continuous maps are homotopic when one can be slid to the other
through a sequence of continuous maps, each frame moving every point to
an equal or adjacent point.  On finite images that sliding relation is a
finite graph over the continuous maps, so homotopy is decidable by
breadth-first search and a homotopy is a checkable certificate: the list
of intermediate frames.

The search state space grows exponentially with the domain, so every
entry point takes explicit caps and reports "cap-exceeded" rather than
guessing.  A ``HomotopySession`` adds memoization: for small domains it
partitions a whole map space into homotopy classes once, by union-find
over single-point and frame moves, and answers later queries by table
lookup, which is what makes the invariant solver practical.  A space with
more maps than the visited-maps cap is not partitioned; the session then
closes only the component of each queried map, by frame BFS.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import Optional

from .errors import CapExceeded, ValidationError
from .lattice import DigitalImage, DigitalPath, interval_image, np_product
from .maps import (
    DigitalMap,
    compose,
    constant_map,
    continuity_violation,
    enumerate_continuous_maps,
    identity_map,
    is_continuous,
)
from . import lattice
from . import maps as maps_mod

YES = "yes"
NO = "no"
CAP = "cap-exceeded"

# Class-table closure is only attempted for domains up to this many points;
# larger domains use directed search instead of full component closure.
FLAT_CLASS_LIMIT = 10


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
class MHomotopyVerdict:
    decided: str
    witness_probe: Optional[str] = None
    witness_map: Optional[DigitalMap] = None
    maps_checked: int = 0


@dataclass
class CertificateCheck:
    ok: bool
    reason: str = ""


def _validate_parallel(f, g):
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValidationError("maps must share domain and codomain")
    for h, label in ((f, "first"), (g, "second")):
        bad = continuity_violation(h)
        if bad is not None:
            raise ValidationError(f"{label} map is not continuous, e.g. on edge {bad!r}")


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


def _values_of(f):
    return f.values


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


def _component_prefilter(f, g):
    """Each point must land in one codomain component under both maps."""
    comp = {}
    for i, c in enumerate(f.codomain.components()):
        for x in c:
            comp[x] = i
    for p in f.domain.points:
        if comp[f.mapping[p]] != comp[g.mapping[p]]:
            return p
    return None


def are_homotopic(f, g, caps=DEFAULT_CAPS):
    """Decide homotopy by BFS from f; a yes carries a shortest certificate."""
    _validate_parallel(f, g)
    if f.values == g.values:
        return HomotopyVerdict(YES, HomotopyCertificate((f,)), 0)
    bad = _component_prefilter(f, g)
    if bad is not None:
        return HomotopyVerdict(
            NO, None, 0, f"images of {bad!r} lie in different codomain components"
        )
    mg = _MapGraph(f.domain, f.codomain)
    hit, parents, explored, capped = _frame_bfs(mg, f.values, {g.values}, caps)
    if hit is not None:
        cert = _certificate_from_chain(f.domain, f.codomain, _chain_to(parents, hit))
        return HomotopyVerdict(YES, cert, explored)
    if capped:
        return HomotopyVerdict(CAP, None, explored, "visited-maps cap exceeded")
    return HomotopyVerdict(NO, None, explored, "component of the first map exhausted")


def is_nullhomotopic(f, caps=DEFAULT_CAPS):
    """Decide whether f is homotopic to some constant map (multi-target BFS)."""
    bad = continuity_violation(f)
    if bad is not None:
        raise ValidationError(f"map is not continuous, e.g. on edge {bad!r}")
    comps = f.codomain.components()
    comp = {}
    for i, c in enumerate(comps):
        for x in c:
            comp[x] = i
    image_comps = {comp[v] for v in f.values}
    if len(image_comps) > 1:
        return HomotopyVerdict(NO, None, 0, "image spans several codomain components")
    n = len(f.domain.points)
    targets = {tuple([x] * n) for x in comps[next(iter(image_comps))]}
    if f.values in targets:
        return HomotopyVerdict(YES, HomotopyCertificate((f,)), 0)
    mg = _MapGraph(f.domain, f.codomain)
    hit, parents, explored, capped = _frame_bfs(mg, f.values, targets, caps)
    if hit is not None:
        cert = _certificate_from_chain(f.domain, f.codomain, _chain_to(parents, hit))
        return HomotopyVerdict(YES, cert, explored)
    if capped:
        return HomotopyVerdict(CAP, None, explored, "visited-maps cap exceeded")
    return HomotopyVerdict(NO, None, explored, "no constant map in the component")


def is_contractible(img, caps=DEFAULT_CAPS):
    """Whether the identity map is nullhomotopic."""
    return is_nullhomotopic(identity_map(img), caps)


def find_homotopy_inverse(f, caps=DEFAULT_CAPS):
    """Search for g with g*f and f*g homotopic to the identities.

    Candidates are enumerated in lexicographic order of their value tuples,
    so the returned witness is the lexicographically first one.  Raises
    CapExceeded when enumeration or any homotopy query hits its cap.
    """
    session = HomotopySession(caps)
    id_dom = identity_map(f.domain)
    id_cod = identity_map(f.codomain)
    for g in enumerate_continuous_maps(f.codomain, f.domain, cap=caps.max_probe_maps):
        left = session.homotopic(compose(g, f), id_dom)
        if left is None:
            raise CapExceeded("homotopy query capped during inverse search",
                              cap_name="max_visited_maps")
        if not left:
            continue
        right = session.homotopic(compose(f, g), id_cod)
        if right is None:
            raise CapExceeded("homotopy query capped during inverse search",
                              cap_name="max_visited_maps")
        if right:
            return g
    return None


def are_m_homotopic(f, g, family, caps=DEFAULT_CAPS):
    """Whether f*phi and g*phi are homotopic for every probe map phi.

    Probes that are themselves contractible only constrain components, so
    they are handled by a pointwise check; the rest are enumerated.
    """
    _validate_parallel(f, g)
    session = HomotopySession(caps)
    checked = 0
    comp = {}
    for i, c in enumerate(f.codomain.components()):
        for x in c:
            comp[x] = i
    for probe in family.complexes:
        pimg = probe.image
        contractible = session.contractible(pimg)
        if contractible is None:
            return MHomotopyVerdict(CAP, probe.name, None, checked)
        if contractible:
            # A contractible probe sees only where each point lands; the two
            # composites are homotopic iff the images sit in one component.
            for x in f.domain.points:
                checked += 1
                if comp[f.mapping[x]] != comp[g.mapping[x]]:
                    witness = constant_map(pimg, f.domain, x)
                    return MHomotopyVerdict(NO, probe.name, witness, checked)
            continue
        cap = family.max_maps if family.max_maps else caps.max_probe_maps
        try:
            for phi in enumerate_continuous_maps(pimg, f.domain, cap=cap, order="search"):
                checked += 1
                verdict = session.homotopic(compose(f, phi), compose(g, phi))
                if verdict is None:
                    return MHomotopyVerdict(CAP, probe.name, phi, checked)
                if not verdict:
                    return MHomotopyVerdict(NO, probe.name, phi, checked)
        except CapExceeded:
            return MHomotopyVerdict(CAP, probe.name, None, checked)
    return MHomotopyVerdict(YES, None, None, checked)


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
    canonical roots, and the union edges form a spanning forest that
    certificates are read from.  When the map space has more maps than the
    visited-maps cap, only the queried component is closed, by frame BFS.
    For larger domains the session uses directed search: a single-point-move
    A* that can only prove yes cheaply, then a frame BFS within caps.

    Not thread-safe; share one session per computation, not across threads.
    """

    def __init__(self, caps=DEFAULT_CAPS):
        self.caps = caps
        self._graphs = {}
        self._roots = {}
        self._forest = {}
        self._contract = {}
        self._dist = {}
        self._intern = {}

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

    def _intern_id(self, obj):
        got = self._intern.get(obj)
        if got is None:
            got = len(self._intern)
            self._intern[obj] = got
        return got

    # -- component classification for small domains

    def class_root(self, domain, codomain, values):
        """Canonical representative (minimum value tuple) of the homotopy
        component containing the given map; None when closure hit the cap."""
        key = (domain.key, codomain.key)
        roots = self._roots.setdefault(key, {})
        got = roots.get(values)
        if got is not None:
            return got
        mg = self._graph(domain, codomain)
        forest = self._forest.get(key)
        if forest is None:
            forest = self._partition(mg, roots)
            self._forest[key] = forest
            got = roots.get(values)
            if got is not None:
                return got
        # The map space overran the cap: close the queried component only.
        _, parents, _, capped = _frame_bfs(mg, values, (), self.caps)
        if capped:
            return None
        root = min(parents)
        for state, parent in parents.items():
            if state not in roots:
                roots[state] = root
                forest[state] = parent
        return root

    def _partition(self, mg, roots):
        """Split the whole map space into homotopy classes, filling ``roots``.

        Single-point moves are frame moves, so union-find over them gives
        classes no coarser than the true ones.  Frame moves are then
        followed only from maps not yet in the largest class.  The frame
        relation is symmetric, so an edge skipped at both of its ends joins
        two maps already in the largest class and would merge nothing.
        Returns the union edges as a parent forest rooted at each class
        root; returns an empty forest, leaving ``roots`` untouched, when
        the space has more maps than the visited-maps cap.
        """
        budget = self.caps.max_visited_maps
        try:
            space = [f.values for f in enumerate_continuous_maps(
                mg.domain, mg.codomain, cap=budget)]
        except CapExceeded:
            return {}
        index = {v: i for i, v in enumerate(space)}
        up = list(range(len(space)))
        edges = []

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
                edges.append((i, j))

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

        links = defaultdict(list)
        for i, j in edges:
            links[i].append(j)
            links[j].append(i)
        forest = {}
        for i, v in enumerate(space):
            top = find(i)
            roots[v] = space[top]
            if top == i:
                forest[v] = None
                stack = [i]
                while stack:
                    a = stack.pop()
                    for b in links[a]:
                        if space[b] not in forest:
                            forest[space[b]] = space[a]
                            stack.append(b)
        return forest

    def class_of(self, f):
        """Interned homotopy class id; componentwise over strong products."""
        cod = f.codomain
        if cod.is_np_full and cod.factors is not None:
            ids = []
            offs = cod._offsets
            for k, factor in enumerate(cod.factors):
                a, b = offs[k]
                sliced = tuple(v[a:b] for v in f.values)
                sub = DigitalMap(f.domain, factor, dict(zip(f.domain.points, sliced)))
                cid = self.class_of(sub)
                if cid is None:
                    return None
                ids.append(cid)
            return self._intern_id(("prod", tuple(ids)))
        root = self.class_root(f.domain, cod, f.values)
        if root is None:
            return None
        return self._intern_id(("flat", f.domain.key, cod.key, root))

    # -- contractibility

    def contractible(self, img):
        """Whether the identity of img is nullhomotopic; None when capped.
        A full normal product contracts exactly when every factor does."""
        if img.key in self._contract:
            return self._contract[img.key]
        if img.is_np_full and img.factors is not None and len(img.factors) > 1:
            result = True
            for factor in img.factors:
                result = self.contractible(factor)
                if not result:
                    break
        else:
            decided = is_nullhomotopic(identity_map(img), self.caps).decided
            result = None if decided == CAP else decided == YES
        self._contract[img.key] = result
        return result

    # -- directed search for larger domains

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

    def _reach(self, mg, start, targets):
        """Whether a frame path leads from start into targets, for domains
        too large to classify: True, False, or None when capped."""
        hit = self._astar_single_point(mg, start, targets, self._astar_budget())[0]
        if hit is not None:
            return True
        hit, _, _, capped = _frame_bfs(mg, start, targets, self.caps)
        if hit is not None:
            return True
        return None if capped else False

    # -- the public queries

    def homotopic(self, f, g):
        """True, False, or None when caps prevented a decision."""
        if f.domain != g.domain or f.codomain != g.codomain:
            raise ValidationError("maps must share domain and codomain")
        if f.values == g.values:
            return True
        if _component_prefilter(f, g) is not None:
            return False
        cod = f.codomain
        if cod.is_np_full and cod.factors is not None:
            offs = cod._offsets
            for k, factor in enumerate(cod.factors):
                a, b = offs[k]
                fk = DigitalMap(f.domain, factor,
                                dict(zip(f.domain.points, (v[a:b] for v in f.values))))
                gk = DigitalMap(g.domain, factor,
                                dict(zip(g.domain.points, (v[a:b] for v in g.values))))
                sub = self.homotopic(fk, gk)
                if sub is None:
                    return None
                if not sub:
                    return False
            return True
        if len(cod) <= 64:
            c = self.contractible(cod)
            if c:
                return True
        if len(f.domain) <= FLAT_CLASS_LIMIT:
            rf = self.class_root(f.domain, cod, f.values)
            if rf is None:
                return None
            # f's whole component is closed, so membership is a lookup.
            roots = self._roots[(f.domain.key, cod.key)]
            return roots.get(g.values) == rf
        return self._reach(self._graph(f.domain, cod), f.values, {g.values})

    def nullhomotopic(self, f):
        comps = f.codomain.components()
        comp = {}
        for i, c in enumerate(comps):
            for x in c:
                comp[x] = i
        image_comps = {comp[v] for v in f.values}
        if len(image_comps) > 1:
            return False
        cod = f.codomain
        if cod.is_np_full and cod.factors is not None:
            offs = cod._offsets
            for k, factor in enumerate(cod.factors):
                a, b = offs[k]
                fk = DigitalMap(f.domain, factor,
                                dict(zip(f.domain.points, (v[a:b] for v in f.values))))
                sub = self.nullhomotopic(fk)
                if sub is None:
                    return None
                if not sub:
                    return False
            return True
        if len(cod) <= 64:
            c = self.contractible(cod)
            if c:
                return True
        n = len(f.domain.points)
        targets = {tuple([x] * n) for x in comps[next(iter(image_comps))]}
        if len(f.domain) <= FLAT_CLASS_LIMIT:
            rf = self.class_root(f.domain, cod, f.values)
            if rf is None:
                return None
            # f's whole component is closed; any constant homotopic to f
            # must already appear there.
            roots = self._roots[(f.domain.key, cod.key)]
            return any(roots.get(t) == rf for t in targets)
        return self._reach(self._graph(f.domain, cod), f.values, targets)

    def certificate_between(self, f, g):
        """A verifiable certificate for a yes answer, not necessarily
        shortest; None when the maps are not homotopic or caps prevented a
        decision."""
        _validate_parallel(f, g)
        if f.values == g.values:
            return HomotopyCertificate((f,))
        cod = f.codomain
        if len(f.domain) <= FLAT_CLASS_LIMIT and not (cod.is_np_full and cod.factors):
            rf = self.class_root(f.domain, cod, f.values)
            rg = self.class_root(f.domain, cod, g.values)
            if rf is not None and rg is not None:
                if rf != rg:
                    return None
                # One tree spans each class: walk f up to its top, then down to g.
                forest = self._forest[(f.domain.key, cod.key)]
                chain = _chain_to(forest, f.values)[::-1] + _chain_to(forest, g.values)[1:]
                return _certificate_from_chain(f.domain, cod, chain)
        verdict = are_homotopic(f, g, self.caps)
        if verdict.decided != CAP:
            return verdict.certificate
        # The frame BFS overran its cap; an A* over single-point moves may
        # still find a path that the breadth-first order did not reach.
        mg = self._graph(f.domain, cod)
        hit, parents, _, _ = self._astar_single_point(
            mg, f.values, {g.values}, self._astar_budget())
        if hit is None:
            return None
        return _certificate_from_chain(f.domain, cod, _chain_to(parents, hit))


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
