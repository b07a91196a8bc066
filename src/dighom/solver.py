"""Covering invariants: homotopic distance, category, topological complexity.

Every invariant here is the same optimization problem with a different
per-piece predicate: split the universe into the fewest pieces on which
the predicate ("goodness") holds, and report pieces minus one.  Goodness
is downward closed for all supported kinds, so the structure of the
problem is carried entirely by the inclusion-minimal bad subsets.

Three engines decide goodness.  Direct probe enumeration is the
reference; a bitmask scan handles two-factor strong-product universes
where maps factor through the coordinates; restriction kinds go straight
to the homotopy engine.  Small universes are solved by exhausting the
minimal bad sets; larger ones by refinement: seed some bad sets, compute
an optimal partition avoiding them (a lower bound), verify every piece,
and harvest new bad sets from failures until the partition verifies.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

from .errors import CapExceeded, ValidationError
from . import lattice
from . import maps as maps_mod
from .homotopy import DEFAULT_CAPS, NO, YES, HomotopySession
from .lattice import DigitalImage, induced_subimage, np_product
from .maps import DigitalMap, constant_map, identity_map, projection_map
from . import probes as probes_mod
from .probes import ProbeFamily

INFINITE = float("inf")

EXACT_COVER_CAP = 16
RESTRICTION_EXHAUSTIVE_CAP = 10
M_KIND_EXHAUSTIVE_CAP = 12
COLOR_NODE_CAP = 500_000
MAX_REFINE_ROUNDS = 200
HARVEST_CAP = 400

M_TAGS = ("distance_m", "cat_m", "cat_map_m")
RESTRICTION_TAGS = ("distance_restriction", "cat_restriction", "cat_map_restriction")


@dataclass(frozen=True)
class GoodnessKind:
    """A per-piece predicate: which maps must agree (or contract) on a piece."""

    tag: str
    maps: tuple = ()
    ambient: Optional[DigitalImage] = None
    family: Optional[ProbeFamily] = None

    @property
    def is_m(self):
        return self.tag in M_TAGS

    @property
    def universe_image(self):
        if self.tag.startswith("cat_m") or self.tag == "cat_restriction":
            return self.ambient
        return self.maps[0].domain

    @property
    def target_image(self):
        """Where the composites land; contractible target forces value 0."""
        if self.tag in ("cat_m", "cat_restriction"):
            return self.ambient
        return self.maps[0].codomain


def distance_kind(maps, family=None):
    ms = tuple(maps)
    if len(ms) < 2:
        raise ValidationError("distance kinds need at least two maps")
    dom, cod = ms[0].domain, ms[0].codomain
    for h in ms:
        if h.domain != dom or h.codomain != cod:
            raise ValidationError("all maps of a distance kind must share domain and codomain")
        if not maps_mod.is_continuous(h):
            raise ValidationError("distance kinds need continuous maps")
    tag = "distance_m" if family is not None else "distance_restriction"
    return GoodnessKind(tag, ms, None, family)


def cat_kind(img, family=None):
    tag = "cat_m" if family is not None else "cat_restriction"
    return GoodnessKind(tag, (), img, family)


def cat_map_kind(h, family=None):
    if not maps_mod.is_continuous(h):
        raise ValidationError("cat of a map needs a continuous map")
    tag = "cat_map_m" if family is not None else "cat_map_restriction"
    return GoodnessKind(tag, (h,), h.domain, family)


@dataclass
class GoodnessResult:
    status: Optional[bool]  # True good, False bad, None undecided
    witness: Optional[dict] = None
    checked: int = 0


@dataclass
class CoverResult:
    value: object  # int, INFINITE, or None when undecided
    pieces: tuple = ()
    witnesses: tuple = ()
    exactness: str = "exact"  # exact | upper_bound | lower_bound_family
    caps_hit: bool = False
    notes: tuple = ()


class SolverSession:
    """Shared homotopy caches plus solver-side memo tables."""

    def __init__(self, caps=DEFAULT_CAPS):
        self.caps = caps
        self.h = HomotopySession(caps)
        self._goodness = {}
        self._const_classes = {}
        self._induced = {}
        self._covers = {}

    def goodness(self, kind):
        g = self._goodness.get(kind)
        if g is None:
            g = _Goodness(kind, self)
            self._goodness[kind] = g
        return g

    def induced(self, ambient, points):
        key = (ambient.key, frozenset(points))
        img = self._induced.get(key)
        if img is None:
            img = induced_subimage(ambient, points)
            self._induced[key] = img
        return img

    def class_of(self, domain, codomain, values):
        """Interned homotopy class id of the map with these values, via the
        session's componentwise decomposition over full products."""
        return self.h.class_of(DigitalMap(domain, codomain, dict(zip(domain.points, values))))

    def const_classes(self, domain, codomain):
        """Interned class ids of the constant maps; safe for product
        codomains, where flat closures would be astronomically large."""
        key = (domain.key, codomain.key)
        got = self._const_classes.get(key)
        if got is None:
            ids = set()
            n = len(domain)
            for x in codomain.points:
                cid = self.class_of(domain, codomain, (x,) * n)
                if cid is None:
                    return None
                ids.add(cid)
            got = frozenset(ids)
            self._const_classes[key] = got
        return got


class _Goodness:
    """All machinery for one kind: goodness checks, bad-set search, engines."""

    def __init__(self, kind, session):
        self.kind = kind
        self.session = session
        self.caps = session.caps
        self.universe = kind.universe_image
        self.target = kind.target_image
        self._probe_contractible = {}
        self._e2 = None
        self._e2_tried = False
        self._max_bad_size = None

    # -- small helpers

    def chain_ok_at(self, x):
        """Pointwise necessary condition: consecutive images share a component."""
        if self.kind.tag.startswith("cat"):
            return True
        comp = self.target.component_id
        ms = self.kind.maps
        for i in range(len(ms) - 1):
            if comp(ms[i].mapping[x]) != comp(ms[i + 1].mapping[x]):
                return False
        return True

    def chain_violation(self, X):
        for x in sorted(X):
            if not self.chain_ok_at(x):
                return x
        return None

    def nontrivial_probes(self):
        """Probes that are not contractible; contractible ones can only fail
        through the pointwise component condition, checked separately."""
        out = []
        for probe in self.kind.family.complexes:
            got = self._probe_contractible.get(probe.name)
            if got is None:
                got = self.session.h.contractible(probe.image)
                if got is None:
                    raise CapExceeded(
                        f"probe {probe.name} contractibility undecided under caps",
                        cap_name="max_visited_maps",
                    )
                self._probe_contractible[probe.name] = got
            if not got:
                out.append(probe)
        return out

    def max_bad_size(self):
        """For m-kinds, minimal bad sets are images of surjective probe maps,
        so their size is bounded by the largest non-contractible probe."""
        if self._max_bad_size is None:
            if self.kind.is_m:
                sizes = [len(p.image) for p in self.nontrivial_probes()]
                self._max_bad_size = max(sizes) if sizes else 1
            else:
                self._max_bad_size = len(self.universe)
        return self._max_bad_size

    def _phi_fails(self, probe, phi_values):
        """Whether one probe map violates the kind; None when capped."""
        kind = self.kind
        sess = self.session
        pimg = probe.image
        if kind.tag == "distance_m":
            prev = None
            for h in kind.maps:
                comp = tuple(h.mapping[v] for v in phi_values)
                cid = sess.class_of(pimg, h.codomain, comp)
                if cid is None:
                    return None
                if prev is not None and cid != prev:
                    return True
                prev = cid
            return False
        # cat_m and cat_map_m: the composite must be nullhomotopic.
        if kind.tag == "cat_m":
            cid = sess.class_of(pimg, self.universe, phi_values)
            consts = sess.const_classes(pimg, self.universe)
        else:
            h = kind.maps[0]
            comp = tuple(h.mapping[v] for v in phi_values)
            cid = sess.class_of(pimg, h.codomain, comp)
            consts = sess.const_classes(pimg, h.codomain)
        if cid is None or consts is None:
            return None
        return cid not in consts

    def check(self, X, surjective_only=False, harvest=None):
        """Reference goodness decision by direct enumeration.

        With ``surjective_only`` just the maps onto X are tried, which is
        what minimality scans need.  ``harvest`` collects failing images.
        """
        kind = self.kind
        pts = sorted(X)
        bad_x = self.chain_violation(pts)
        if bad_x is not None:
            return GoodnessResult(False, {"point": list(bad_x)})
        sub = self.session.induced(self.universe, pts)
        if not kind.is_m:
            return self._check_restriction(sub)
        contract = self.session.h.contractible(sub)
        if contract:
            return GoodnessResult(True)
        checked = 0
        undecided = False
        for probe in self.nontrivial_probes():
            if surjective_only and len(probe.image) < len(pts):
                continue
            try:
                stream = maps_mod.enumerate_continuous_maps(
                    probe.image, sub,
                    surjective_only=surjective_only,
                    cap=self.caps.max_probe_maps,
                    order="search",
                )
                for phi in stream:
                    checked += 1
                    fails = self._phi_fails(probe, phi.values)
                    if fails is None:
                        undecided = True
                        break
                    if fails:
                        if harvest is not None:
                            harvest.append(frozenset(phi.values))
                        return GoodnessResult(
                            False,
                            {"probe": probe.name,
                             "map": [[list(a), list(b)] for a, b in
                                     zip(probe.image.points, phi.values)]},
                            checked,
                        )
            except CapExceeded:
                undecided = True
            if undecided:
                break
        if undecided:
            return GoodnessResult(None, None, checked)
        return GoodnessResult(True, None, checked)

    def _check_restriction(self, sub):
        kind = self.kind
        sess = self.session.h
        pts = sub.points
        contract = sess.contractible(sub)
        if contract:
            return GoodnessResult(True)
        if kind.tag == "distance_restriction":
            restricted = [
                DigitalMap(sub, h.codomain, {p: h.mapping[p] for p in pts})
                for h in kind.maps
            ]
            for i in range(len(restricted) - 1):
                verdict = sess.homotopic(restricted[i], restricted[i + 1])
                if verdict is None:
                    return GoodnessResult(None)
                if not verdict:
                    return GoodnessResult(False, {"pair": [i, i + 1]})
            return GoodnessResult(True)
        if kind.tag == "cat_restriction":
            inclusion = DigitalMap(sub, self.universe, {p: p for p in pts})
            verdict = sess.nullhomotopic(inclusion)
        else:
            h = kind.maps[0]
            verdict = sess.nullhomotopic(
                DigitalMap(sub, h.codomain, {p: h.mapping[p] for p in pts})
            )
        if verdict is None:
            return GoodnessResult(None)
        if not verdict:
            return GoodnessResult(False, {"restriction": "not nullhomotopic"})
        return GoodnessResult(True)

    # -- badness tests used by minimality searches

    def bad_via_surjection(self, X):
        """For m-kinds: some surjective probe map onto X fails.  The smallest
        subset with this property is an inclusion-minimal bad set."""
        res = self.check(X, surjective_only=True)
        if res.status is None:
            raise CapExceeded("goodness undecided during minimality search",
                              cap_name="max_probe_maps")
        return res.status is False

    def is_bad(self, X):
        res = self.check(X)
        if res.status is None:
            raise CapExceeded("goodness undecided during minimality search",
                              cap_name="max_probe_maps")
        return res.status is False

    def shrink_bad(self, Y):
        """Greedily drop points while badness persists.

        For restriction kinds the test is true badness, and downward
        closure makes the fixpoint inclusion-minimal.  For m-kinds the
        cheaper surjective test is used; the result is still a bad set,
        which is all the refinement loop needs.
        """
        cur = frozenset(Y)
        test = self.bad_via_surjection if self.kind.is_m else self.is_bad
        changed = True
        while changed and len(cur) > 1:
            changed = False
            for p in sorted(cur):
                smaller = cur - {p}
                if test(smaller):
                    cur = smaller
                    changed = True
                    break
        return cur

    # -- product bitmask engine

    def e2(self):
        if not self._e2_tried:
            self._e2_tried = True
            self._e2 = _E2Context.build(self.kind, self.session)
        return self._e2

    def check_piece(self, X):
        """Goodness with the fastest applicable engine, harvesting failures."""
        e2 = self.e2()
        if e2 is not None:
            good, fails = e2.scan(frozenset(X))
            images = [e2.pair_image(pi, a, b) for pi, a, b in fails]
            return GoodnessResult(True if good else False), images
        harvest = []
        res = self.check(X, harvest=harvest)
        return res, harvest


class _E2Context:
    """Bitmask goodness scans over a two-factor strong-product universe.

    A continuous map from a probe into the product is exactly a pair of
    continuous coordinate maps whose pointwise pairs stay inside the piece.
    With per-point position masks the compatible partners of each map come
    out of a few big-integer ANDs, and class agreement is one mask test.
    """

    def __init__(self, kind, session, mode, sides):
        self.kind = kind
        self.session = session
        self.mode = mode  # "distance" or "cat"
        self.sides = sides  # per map: (side index, value table) for distance
        self.universe = kind.universe_image
        self.f1, self.f2 = self.universe.factors
        self.offsets = self.universe._offsets
        self.probes = []

    @classmethod
    def build(cls, kind, session):
        uni = kind.universe_image
        if not (uni.is_np_full and uni.factors and len(uni.factors) == 2):
            return None
        if len(uni) != len(uni.factors[0]) * len(uni.factors[1]):
            return None
        if kind.tag == "cat_m":
            ctx = cls(kind, session, "cat", ())
        elif kind.tag == "distance_m":
            sides = []
            for h in kind.maps:
                side = _factors_through(h, uni)
                if side is None:
                    return None
                sides.append(side)
            ctx = cls(kind, session, "distance", tuple(sides))
        else:
            return None
        try:
            ctx._prepare()
        except CapExceeded:
            return None
        return ctx

    def _prepare(self):
        g = self.session.goodness(self.kind)
        for probe in g.nontrivial_probes():
            pimg = probe.image
            tabs = []
            for factor in (self.f1, self.f2):
                vals = [
                    f.values
                    for f in maps_mod.enumerate_continuous_maps(
                        pimg, factor, cap=self.session.caps.max_probe_maps
                    )
                ]
                pos = {p: i for i, p in enumerate(factor.points)}
                npts = len(pimg.points)
                mpos = [[0] * len(factor.points) for _ in range(npts)]
                for i, v in enumerate(vals):
                    bit = 1 << i
                    for t in range(npts):
                        mpos[t][pos[v[t]]] |= bit
                tabs.append({"vals": vals, "mpos": mpos, "pos": pos})
            if self.mode == "cat":
                ok1, any1, key2 = self._null_tables(probe, tabs)
            else:
                ok1, any1, key2 = self._class_tables(probe, tabs)
            self.probes.append(
                {"probe": probe, "tabs": tabs, "ok1": ok1, "any1": any1, "key2": key2}
            )

    def _class_tables(self, probe, tabs):
        """Masks over side-1 maps per common class, and side-2 keys."""
        pimg = probe.image
        side_js = ([], [])
        for j, (side, table) in enumerate(self.sides):
            side_js[side].append((j, table))
        cod = self.kind.maps[0].codomain

        def keys_for(side_idx):
            vals = tabs[side_idx]["vals"]
            js = side_js[side_idx]
            out = []
            for v in vals:
                key = []
                for _, table in js:
                    cid = self.session.class_of(pimg, cod, tuple(table[x] for x in v))
                    if cid is None:
                        raise CapExceeded("class closure capped in product engine",
                                          cap_name="max_visited_maps")
                    key.append(cid)
                out.append(tuple(key))
            return out

        keys1 = keys_for(0)
        keys2 = keys_for(1)
        ok1 = {}
        any1 = 0
        for i, key in enumerate(keys1):
            if len(set(key)) <= 1:
                any1 |= 1 << i
                if key:
                    ok1[key[0]] = ok1.get(key[0], 0) | (1 << i)
        key2 = []
        for key in keys2:
            if len(set(key)) > 1:
                key2.append(("bad",))
            elif key:
                key2.append(("cls", key[0]))
            else:
                key2.append(("free",))
        return ok1, any1, key2

    def _null_tables(self, probe, tabs):
        """Nullhomotopy masks: a pair is good when both coordinates are null."""
        sess = self.session
        pimg = probe.image

        def null_flags(side_idx, factor):
            consts = sess.const_classes(pimg, factor)
            if consts is None:
                raise CapExceeded("constant classes capped in product engine",
                                  cap_name="max_visited_maps")
            flags = []
            for v in tabs[side_idx]["vals"]:
                cid = sess.class_of(pimg, factor, v)
                if cid is None:
                    raise CapExceeded("class closure capped in product engine",
                                      cap_name="max_visited_maps")
                flags.append(cid in consts)
            return flags

        flags1 = null_flags(0, self.f1)
        flags2 = null_flags(1, self.f2)
        null1 = 0
        for i, ok in enumerate(flags1):
            if ok:
                null1 |= 1 << i
        key2 = [("cls", "null") if ok else ("bad",) for ok in flags2]
        # In cat mode ok1 maps the single key "null" to the null mask.
        return {"null": null1}, null1, key2

    def pair_image(self, probe_idx, i1, i2):
        entry = self.probes[probe_idx]
        v1 = entry["tabs"][0]["vals"][i1]
        v2 = entry["tabs"][1]["vals"][i2]
        return frozenset(a + b for a, b in zip(v1, v2))

    def scan(self, X, harvest_cap=HARVEST_CAP):
        """Check a piece; on failure return up to harvest_cap failing pairs
        as (probe_idx embedded) coordinate index pairs."""
        fails = []
        good = True
        for pidx, entry in enumerate(self.probes):
            tabs = entry["tabs"]
            npts = len(entry["probe"].image.points)
            pos2 = tabs[1]["pos"]
            by_second = {}
            for u in X:
                a, b = self.universe.split_point(u)
                by_second.setdefault(b, []).append(a)
            pos1 = tabs[0]["pos"]
            mpos1 = tabs[0]["mpos"]
            colmask = [dict() for _ in range(npts)]
            for b, alist in by_second.items():
                for t in range(npts):
                    m = 0
                    for a in alist:
                        m |= mpos1[t][pos1[a]]
                    colmask[t][b] = m
            ok1 = entry["ok1"]
            any1 = entry["any1"]
            key2 = entry["key2"]
            for j, v2 in enumerate(tabs[1]["vals"]):
                adm = None
                for t in range(npts):
                    m = colmask[t].get(v2[t], 0)
                    adm = m if adm is None else adm & m
                    if not adm:
                        break
                if not adm:
                    continue
                tag = key2[j]
                if tag[0] == "bad":
                    failmask = adm
                elif tag[0] == "free":
                    failmask = adm & ~any1
                else:
                    failmask = adm & ~ok1.get(tag[1], 0)
                while failmask and len(fails) < harvest_cap:
                    low = (failmask & -failmask).bit_length() - 1
                    fails.append((pidx, low, j))
                    failmask &= failmask - 1
                    good = False
                if failmask:
                    good = False
                if not good and len(fails) >= harvest_cap:
                    return False, fails
        return good, fails


def _factors_through(h, product):
    """If h depends on only one coordinate block, return (side, value table)."""
    offsets = product._offsets
    for side in range(2):
        a, b = offsets[side]
        table = {}
        ok = True
        for u in product.points:
            blk = u[a:b]
            v = h.mapping[u]
            if table.setdefault(blk, v) != v:
                ok = False
                break
        if ok:
            return side, table
    return None


# --- public pipeline operations -------------------------------------------------


def subset_good(kind, X, caps=DEFAULT_CAPS, session=None):
    """Reference goodness decision for one piece."""
    session = session or SolverSession(caps)
    pts = frozenset(X)
    if not pts:
        raise ValidationError("pieces must be nonempty")
    uni = kind.universe_image
    for p in pts:
        if p not in uni:
            raise ValidationError(f"{p!r} is not a point of the universe")
    return session.goodness(kind).check(pts)


def minimal_bad_sets(kind, universe=None, caps=DEFAULT_CAPS, session=None):
    """All inclusion-minimal subsets failing goodness, smallest first.

    For m-kinds candidates are connected subsets no larger than the biggest
    non-contractible probe, because a minimal bad set must be the image of
    a failing surjective probe map.  Restriction kinds scan all connected
    subsets, plus cross-component pairs for the contraction kinds.
    """
    session = session or SolverSession(caps)
    g = session.goodness(kind)
    uni = kind.universe_image
    pts = list(universe) if universe is not None else list(uni.points)
    nbrs = {p: [q for q in uni.neighbors(p) if q in set(pts)] for p in pts}
    max_size = min(g.max_bad_size(), len(pts))
    by_size = {}
    for sub in probes_mod._connected_subsets(sorted(pts), nbrs, max_size):
        by_size.setdefault(len(sub), []).append(tuple(sorted(sub)))
    if not kind.is_m and kind.tag != "distance_restriction":
        comp = uni.component_id
        for a, b in itertools.combinations(sorted(pts), 2):
            if comp(a) != comp(b):
                by_size.setdefault(2, []).append(tuple(sorted((a, b))))
    found = []
    for size in sorted(by_size):
        for cand in sorted(set(by_size[size])):
            cs = frozenset(cand)
            if any(b <= cs for b in found):
                continue
            if kind.is_m and size > 1:
                bad = g.bad_via_surjection(cs)
            else:
                bad = g.is_bad(cs)
            if bad:
                found.append(cs)
    return found


def maximal_good_sets(universe, bad, output_cap=100_000):
    """All inclusion-maximal subsets containing no bad set."""
    uni = frozenset(universe)
    bads = [frozenset(b) for b in bad]
    for b in bads:
        if not b <= uni:
            raise ValidationError("bad sets must lie inside the universe")
    results = set()
    seen = set()

    def rec(cur):
        if cur in seen:
            return
        seen.add(cur)
        if len(seen) > output_cap:
            raise CapExceeded("maximal good set enumeration too large",
                              cap_name="output_cap")
        for b in bads:
            if b <= cur:
                for x in sorted(b):
                    rec(cur - {x})
                return
        results.add(cur)

    rec(uni)
    maximal = [
        s for s in results if not any(s < t for t in results if t is not s)
    ]
    return sorted(maximal, key=lambda s: (-len(s), sorted(s)))


def min_cover(universe, sets, mode="exact", exact_cap=EXACT_COVER_CAP):
    """Fewest sets covering the universe; INFINITE when a point is uncoverable."""
    uni = sorted(set(universe))
    cand = sorted({frozenset(s) for s in sets if s}, key=lambda s: (-len(s), sorted(s)))
    for s in cand:
        if not s <= set(uni):
            raise ValidationError("cover sets must lie inside the universe")
    covering = {p: [s for s in cand if p in s] for p in uni}
    for p in uni:
        if not covering[p]:
            return CoverResult(INFINITE, (), ({"uncovered": list(p)},), "exact", False)

    def greedy():
        left = set(uni)
        picked = []
        while left:
            best = max(cand, key=lambda s: (len(s & left), sorted(s)))
            gain = len(best & left)
            if gain == 0:
                break
            picked.append(best)
            left -= best
        return picked

    greedy_pick = greedy()
    if mode == "greedy" or len(uni) > exact_cap:
        notes = ()
        exactness = "upper_bound"
        if mode != "greedy":
            notes = (f"universe above the exact-cover cap {exact_cap}; greedy used",)
        pieces = tuple(tuple(sorted(s)) for s in greedy_pick)
        return CoverResult(len(pieces) - 1, pieces, (), exactness, mode != "greedy", notes)

    best = list(greedy_pick)

    def bnb(left, picked):
        nonlocal best
        if not left:
            if len(picked) < len(best):
                best = list(picked)
            return
        if len(picked) + 1 >= len(best):
            # Even one more set cannot beat the incumbent.
            biggest = max(len(s) for s in cand)
            if len(picked) + (len(left) + biggest - 1) // biggest >= len(best):
                return
        p = min(left, key=lambda q: (len(covering[q]), q))
        for s in covering[p]:
            if len(picked) + 1 >= len(best):
                break
            bnb(left - s, picked + [s])

    bnb(frozenset(uni), [])
    pieces = tuple(tuple(sorted(s)) for s in best)
    return CoverResult(len(pieces) - 1, pieces, (), "exact", False)


# --- partition search (hypergraph coloring) -------------------------------------


def _min_partition(points, bads, piece_cap, node_cap=COLOR_NODE_CAP):
    """Fewest pieces avoiding every bad set, by backtracking coloring.

    Returns (pieces, capped): pieces None when the node cap interrupted the
    search before any feasible count was proven.
    """
    pts = sorted(points)
    if not bads:
        if piece_cap is None or len(pts) <= piece_cap:
            return [tuple(pts)], False
    blist = [frozenset(b) for b in bads]
    involve = {p: [] for p in pts}
    for bi, b in enumerate(blist):
        for p in b:
            involve[p].append(bi)
    order = sorted(pts, key=lambda p: (-len(involve[p]), p))
    start_k = 2 if blist else 1
    if piece_cap is not None:
        start_k = max(start_k, -(-len(pts) // piece_cap))

    class _Stop(Exception):
        pass

    for k in range(start_k, len(pts) + 1):
        color = {}
        counts = [dict() for _ in blist]  # per bad: color -> points colored
        assigned = [0] * len(blist)
        sizes = [0] * k
        nodes = 0

        def feasible(p, c):
            if piece_cap is not None and sizes[c] >= piece_cap:
                return False
            for bi in involve[p]:
                b = blist[bi]
                if assigned[bi] == len(b) - 1 and counts[bi].get(c, 0) == len(b) - 1:
                    return False
            return True

        def assign(p, c):
            color[p] = c
            sizes[c] += 1
            for bi in involve[p]:
                counts[bi][c] = counts[bi].get(c, 0) + 1
                assigned[bi] += 1

        def unassign(p, c):
            del color[p]
            sizes[c] -= 1
            for bi in involve[p]:
                counts[bi][c] -= 1
                assigned[bi] -= 1

        def bt(i, used):
            nonlocal nodes
            nodes += 1
            if nodes > node_cap:
                raise _Stop
            if i == len(order):
                return True
            p = order[i]
            limit = min(k, used + 1)
            for c in range(limit):
                if feasible(p, c):
                    assign(p, c)
                    if bt(i + 1, max(used, c + 1)):
                        return True
                    unassign(p, c)
            return False

        try:
            if bt(0, 0):
                pieces = [[] for _ in range(k)]
                for p in pts:
                    pieces[color[p]].append(p)
                pieces = [tuple(sorted(piece)) for piece in pieces if piece]
                return sorted(pieces), False
        except _Stop:
            return None, True
    return None, False


def _greedy_partition(points, bads, piece_cap):
    pts = sorted(points)
    blist = [frozenset(b) for b in bads]
    pieces = []
    for p in pts:
        placed = False
        for piece in pieces:
            if piece_cap is not None and len(piece) >= piece_cap:
                continue
            if any(p in b and b - {p} <= piece for b in blist):
                continue
            piece.add(p)
            placed = True
            break
        if not placed:
            pieces.append({p})
    return sorted(tuple(sorted(piece)) for piece in pieces)


# --- cover computation routing ---------------------------------------------------


def _piece_witnesses(g, pieces):
    wits = []
    for i, piece in enumerate(pieces):
        res, _ = g.check_piece(piece)
        if res.status is not True:
            raise CapExceeded("final piece verification failed unexpectedly",
                              cap_name="max_probe_maps")
        wits.append({"piece": i, "size": len(piece), "checked": res.checked})
    return tuple(wits)


def _exhaustive_cover(kind, g, session, caps, mode, exact_cap):
    bads = minimal_bad_sets(kind, None, caps, session)
    uni = kind.universe_image.points
    goods = maximal_good_sets(uni, bads)
    cover = min_cover(uni, goods, mode, exact_cap)
    if cover.value is INFINITE:
        return cover
    exactness = "lower_bound_family" if kind.is_m else cover.exactness
    wits = _piece_witnesses(g, cover.pieces)
    return CoverResult(cover.value, cover.pieces, wits, exactness,
                       cover.caps_hit, cover.notes)


def _refinement_cover(kind, g, session, caps, mode, piece_cap, seed_size):
    """Lazy-exact cover: partition against known bad sets, verify, harvest."""
    uni = kind.universe_image
    pts = list(uni.points)
    bads = []
    known = set()
    if seed_size:
        nbrs = {p: list(uni.neighbors(p)) for p in pts}
        by_size = {}
        for sub in probes_mod._connected_subsets(sorted(pts), nbrs, seed_size):
            by_size.setdefault(len(sub), []).append(tuple(sorted(sub)))
        for size in sorted(by_size):
            if size < 2:
                continue
            for cand in sorted(set(by_size[size])):
                cs = frozenset(cand)
                if any(b <= cs for b in bads):
                    continue
                bad = g.bad_via_surjection(cs) if kind.is_m else g.is_bad(cs)
                if bad:
                    bads.append(cs)
                    known.add(cs)
    notes = []
    capped_any = False
    for _ in range(MAX_REFINE_ROUNDS):
        if mode == "greedy":
            pieces, lb_pieces = _greedy_partition(pts, bads, piece_cap), None
            capped = False
        else:
            pieces, capped = _min_partition(pts, bads, piece_cap)
            lb_pieces = pieces
            if capped or pieces is None:
                capped_any = True
                pieces = _greedy_partition(pts, bads, piece_cap)
        failures = []
        undecided = False
        for piece in pieces:
            res, images = g.check_piece(piece)
            if res.status is None:
                undecided = True
                break
            if res.status is False:
                failures.append((piece, images))
        if undecided:
            return CoverResult(None, (), (), "exact", True,
                               ("piece goodness undecided under caps",))
        if not failures:
            value = len(pieces) - 1
            if kind.is_m:
                exactness = "lower_bound_family"
                if capped_any or mode == "greedy":
                    exactness = "upper_bound"
                    notes.append("partition search capped; value may exceed the optimum")
            else:
                exactness = "exact"
                if capped_any or mode == "greedy":
                    exactness = "upper_bound"
                elif piece_cap is not None:
                    lb, lb_capped = _min_partition(pts, bads, None)
                    if lb_capped or lb is None or len(lb) < len(pieces):
                        exactness = "upper_bound"
                        if lb is not None:
                            notes.append(f"lower bound {len(lb) - 1} from relaxation")
            wits = tuple(
                {"piece": i, "size": len(p)} for i, p in enumerate(pieces)
            )
            return CoverResult(value, tuple(pieces), wits, exactness,
                               capped_any, tuple(notes))
        new = 0
        for piece, images in failures:
            if not images:
                images = [frozenset(piece)]
            for img_set in images:
                core = img_set if kind.is_m else g.shrink_bad(img_set)
                if core not in known:
                    known.add(core)
                    bads.append(core)
                    new += 1
        if new == 0:
            return CoverResult(None, (), (), "exact", True,
                               ("refinement stalled without new bad sets",))
    return CoverResult(None, (), (), "exact", True,
                       ("refinement round cap exceeded",))


def compute_cover(kind, caps=DEFAULT_CAPS, mode="exact", session=None,
                  exact_cap=EXACT_COVER_CAP):
    """Route one goodness kind to the engine that can decide it."""
    session = session or SolverSession(caps)
    memo_key = (kind, mode, exact_cap)
    cached = session._covers.get(memo_key)
    if cached is not None:
        return cached
    try:
        result = _route_cover(kind, session, caps, mode, exact_cap)
    except CapExceeded as exc:
        tag = "lower_bound_family" if kind.is_m else "exact"
        result = CoverResult(None, (), (), tag, True, (str(exc),))
    session._covers[memo_key] = result
    return result


def _route_cover(kind, session, caps, mode, exact_cap):
    g = session.goodness(kind)
    uni = kind.universe_image
    pts = uni.points
    contractible = session.h.contractible(kind.target_image)
    if contractible:
        wits = ({"piece": 0, "size": len(pts), "note": "contractible target"},)
        exactness = "lower_bound_family" if kind.is_m else "exact"
        return CoverResult(0, (tuple(pts),), wits, exactness, False)
    if kind.tag.startswith("distance"):
        bad_x = g.chain_violation(pts)
        if bad_x is not None:
            return CoverResult(
                INFINITE, (), ({"point": list(bad_x)},), "exact", False,
                ("a point's images fall in different components",),
            )
    if kind.is_m:
        if len(pts) <= M_KIND_EXHAUSTIVE_CAP:
            return _exhaustive_cover(kind, g, session, caps, mode, exact_cap)
        if g.e2() is not None:
            return _refinement_cover(kind, g, session, caps, mode, None, 0)
        if len(pts) <= exact_cap:
            return _exhaustive_cover(kind, g, session, caps, mode, exact_cap)
        return CoverResult(None, (), (), "lower_bound_family", True,
                           ("universe too large for the probe engines",))
    if len(pts) <= RESTRICTION_EXHAUSTIVE_CAP:
        return _exhaustive_cover(kind, g, session, caps, mode, exact_cap)
    if len(pts) <= exact_cap:
        return _refinement_cover(kind, g, session, caps, mode,
                                 RESTRICTION_EXHAUSTIVE_CAP, 5)
    return CoverResult(None, (), (), "exact", True,
                       ("restriction goodness infeasible at this size",))


# --- invariants and reports -------------------------------------------------------


KIND_NAMES = (
    "D", "D_m", "cat", "cat_m", "cat_of_map", "cat_m_of_map",
    "TC", "TC^m", "nTC", "nTC^m",
    "TC_of_map", "TC^m_of_map", "nTC_of_map", "nTC^m_of_map",
)

M_KIND_NAMES = frozenset(
    ("D_m", "cat_m", "cat_m_of_map", "TC^m", "nTC^m", "TC^m_of_map", "nTC^m_of_map")
)

_N_ARY_NAMES = frozenset(("nTC", "nTC^m", "nTC_of_map", "nTC^m_of_map"))

N1_CONVENTION_NOTE = "n of 1: value 1 by convention, not a cover optimum"


def _build_kind(name, image, maps, family, n):
    """Goodness kind and universe for one invariant name; None for the n=1 case."""
    maps = tuple(maps)
    notes = []
    if name in _N_ARY_NAMES:
        if n is None or n < 1:
            raise ValidationError(f"{name} needs n >= 1")
    else:
        n = 2 if name in ("TC", "TC^m", "TC_of_map", "TC^m_of_map") else None

    if name in ("D", "D_m"):
        kind = distance_kind(maps, family)
    elif name in ("cat", "cat_m"):
        if image is None:
            raise ValidationError(f"{name} needs an image")
        kind = cat_kind(image, family)
    elif name in ("cat_of_map", "cat_m_of_map"):
        if len(maps) != 1:
            raise ValidationError(f"{name} needs exactly one map")
        kind = cat_map_kind(maps[0], family)
    elif name in ("TC", "TC^m", "nTC", "nTC^m"):
        if image is None:
            raise ValidationError(f"{name} needs an image")
        if n == 1:
            return None, n, notes
        prod = np_product([image] * n, n)
        prs = [projection_map(prod, i) for i in range(1, n + 1)]
        kind = distance_kind(prs, family)
    else:
        if len(maps) != 1:
            raise ValidationError(f"{name} needs exactly one map")
        h = maps[0]
        if n == 1:
            return None, n, notes
        prod = np_product([h.domain] * n, n)
        comps = [maps_mod.compose(h, projection_map(prod, i)) for i in range(1, n + 1)]
        kind = distance_kind(comps, family)

    base = image if image is not None else (maps[0].domain if maps else None)
    if base is not None and len(base.components()) > 1:
        notes.append("input image is disconnected; several theorems assume connectivity")
    return kind, n, notes


@dataclass
class InvariantReport:
    kind: str
    n: Optional[int]
    cover: CoverResult
    family: Optional[ProbeFamily]
    inputs: dict
    config: dict
    notes: tuple = ()

    @property
    def value(self):
        return self.cover.value


def compute_invariant(name, *, image=None, maps=(), family=None, n=None,
                      mode="exact", caps=DEFAULT_CAPS, session=None,
                      exact_cap=EXACT_COVER_CAP):
    """Compute one named invariant and wrap the cover in a report."""
    if name not in KIND_NAMES:
        raise ValidationError(f"unknown invariant kind {name!r}")
    if name in M_KIND_NAMES and family is None:
        raise ValidationError(f"{name} needs a probe family")
    if name not in M_KIND_NAMES and family is not None:
        raise ValidationError(f"{name} does not take a probe family; "
                              f"use the m-variant instead")
    maps = tuple(maps)
    kind, used_n, notes = _build_kind(name, image, maps, family, n)
    inputs = {}
    if image is not None:
        inputs["image"] = lattice.image_to_json(image)
    if maps:
        inputs["maps"] = [maps_mod.map_to_json(h) for h in maps]
    config = {
        "mode": mode,
        "caps": {"max_visited_maps": caps.max_visited_maps,
                 "max_probe_maps": caps.max_probe_maps},
        "exact_cover_cap": exact_cap,
    }
    if kind is None:
        uni = image if image is not None else maps[0].domain
        cover = CoverResult(1, (tuple(uni.points),), (), "exact", False,
                            (N1_CONVENTION_NOTE,))
        return InvariantReport(name, used_n, cover, family, inputs, config,
                               tuple(notes))
    session = session or SolverSession(caps)
    cover = compute_cover(kind, caps, mode, session, exact_cap)
    return InvariantReport(name, used_n, cover, family, inputs, config,
                           tuple(notes))


def _value_to_json(value):
    if value is None:
        return "undecided"
    if value is INFINITE:
        return "infinite"
    return int(value)


def report_to_json(report):
    cover = report.cover
    return {
        "kind": report.kind,
        "n": report.n,
        "value": _value_to_json(cover.value),
        "exactness": cover.exactness,
        "pieces": [[list(p) for p in piece] for piece in cover.pieces],
        "witnesses": list(cover.witnesses),
        "family": probes_mod.family_to_json(report.family) if report.family else None,
        "inputs": report.inputs,
        "config": report.config,
        "caps_hit": cover.caps_hit,
        "notes": list(report.notes) + list(cover.notes),
        "timing_ms": 0,
    }


def dump_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_json(report), fh, indent=2)
        fh.write("\n")


def verify_report(source, caps=DEFAULT_CAPS):
    """Replay a report's pieces against fresh goodness checks.

    Returns (status, messages) with status "ok", "fail", or "undecided".
    """
    obj = lattice._read_json(source) if isinstance(source, str) else source
    if not isinstance(obj, dict):
        raise ValidationError("report document must be a JSON object")
    msgs = []
    name = obj.get("kind")
    if name not in KIND_NAMES:
        return "fail", [f"unknown kind {name!r}"]
    family = probes_mod.family_from_json(obj["family"]) if obj.get("family") else None
    image = None
    maps = ()
    inputs = obj.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ValidationError("report inputs must be a JSON object")
    if "image" in inputs:
        image = lattice.image_from_json(inputs["image"])
    if "maps" in inputs:
        maps = tuple(maps_mod.map_from_json(m) for m in inputs["maps"])
    try:
        kind, _, _ = _build_kind(name, image, maps, family, obj.get("n"))
    except ValidationError as exc:
        return "fail", [f"cannot rebuild inputs: {exc}"]
    value = obj.get("value")
    notes = obj.get("notes", [])
    if value == "undecided":
        return "undecided", ["report is undecided; nothing to replay"]
    if kind is None:
        if value == 1 and N1_CONVENTION_NOTE in notes:
            return "ok", ["n=1 convention confirmed"]
        return "fail", ["n=1 report does not carry the convention value"]
    session = SolverSession(caps)
    g = session.goodness(kind)
    uni = kind.universe_image
    if value == "infinite":
        bad_x = g.chain_violation(uni.points)
        if bad_x is None:
            return "fail", ["report claims infinite but every point passes the chain check"]
        return "ok", [f"infinite confirmed by point {bad_x!r}"]
    pieces = obj.get("pieces", [])
    if not isinstance(pieces, list) or not all(isinstance(p, list) for p in pieces):
        raise ValidationError("report pieces must be a JSON array of point arrays")
    pieces = [
        frozenset(lattice._point_from_json(pt, f"pieces[{i}] point") for pt in piece)
        for i, piece in enumerate(pieces)
    ]
    if not pieces:
        return "fail", ["finite value but no pieces recorded"]
    if value != len(pieces) - 1:
        return "fail", [f"value {value} does not match {len(pieces)} pieces"]
    union = set().union(*pieces)
    if union != set(uni.points):
        return "fail", ["pieces do not cover the universe"]
    for i, piece in enumerate(pieces):
        res, _ = g.check_piece(piece)
        if res.status is None:
            return "undecided", [f"piece {i} undecided under current caps"]
        if res.status is False:
            return "fail", [f"piece {i} fails goodness"]
        msgs.append(f"piece {i} ok ({len(piece)} points)")
    return "ok", msgs


# --- inequality suite -------------------------------------------------------------


@dataclass
class SuiteEntry:
    name: str
    relation: str
    lhs: object
    rhs: object

    @property
    def status(self):
        if self.lhs is None or self.rhs is None:
            return "undecided"
        if self.relation == "<=":
            ok = self.lhs <= self.rhs
        elif self.relation == ">=":
            ok = self.lhs >= self.rhs
        else:
            ok = self.lhs == self.rhs
        return "pass" if ok else "fail"


@dataclass
class SuiteReport:
    entries: tuple
    notes: tuple = ()

    @property
    def failed(self):
        return [e for e in self.entries if e.status == "fail"]

    @property
    def undecided(self):
        return [e for e in self.entries if e.status == "undecided"]

    @property
    def all_pass(self):
        return not self.failed


def suite_to_json(report, image=None, family=None):
    return {
        "image": lattice.image_to_json(image) if image is not None else None,
        "family": probes_mod.family_to_json(family) if family is not None else None,
        "entries": [
            {
                "name": e.name,
                "relation": e.relation,
                "lhs": _value_to_json(e.lhs),
                "rhs": _value_to_json(e.rhs),
                "status": e.status,
            }
            for e in report.entries
        ],
        "summary": {
            "pass": sum(1 for e in report.entries if e.status == "pass"),
            "fail": len(report.failed),
            "undecided": len(report.undecided),
        },
        "notes": list(report.notes),
        "timing_ms": 0,
    }


def verify_inequality_suite(image, family, caps=DEFAULT_CAPS, pairs=(),
                            session=None, exact_cap=EXACT_COVER_CAP):
    """Evaluate the theorem inequalities on one image, with optional map pairs.

    Each entry carries both sides' values; entries whose inputs could not
    be decided under the caps come out "undecided" rather than pass/fail.
    """
    session = session or SolverSession(caps)
    notes = []

    def inv(name, **kw):
        rep = compute_invariant(name, caps=caps, session=session,
                                exact_cap=exact_cap, **kw)
        return rep.value

    fam = {"family": family}
    cat_m = inv("cat_m", image=image, **fam)
    cat_plain = inv("cat", image=image)
    tc_m = inv("TC^m", image=image, **fam)
    tc_plain = inv("TC", image=image)
    product = np_product([image, image], 2)
    cat_m_product = inv("cat_m", image=product, **fam)
    ntc_m = {nn: inv("nTC^m", image=image, n=nn, **fam) for nn in (1, 2, 3, 4)}
    ntc = {nn: inv("nTC", image=image, n=nn) for nn in (2, 3)}

    entries = [
        SuiteEntry("cat_m(A) <= cat(A)", "<=", cat_m, cat_plain),
        SuiteEntry("TC^m(A) <= TC(A)", "<=", tc_m, tc_plain),
        SuiteEntry("cat_m(A) <= TC^m(A)", "<=", cat_m, tc_m),
        SuiteEntry("TC^m(A) <= cat_m(AxA)", "<=", tc_m, cat_m_product),
        SuiteEntry("1-TC^m(A) == 1", "==", ntc_m[1], 1),
        SuiteEntry("2-TC^m(A) == TC^m(A)", "==", ntc_m[2], tc_m),
        SuiteEntry("3-TC^m(A) >= 2-TC^m(A)", ">=", ntc_m[3], ntc_m[2]),
        SuiteEntry("4-TC^m(A) >= 3-TC^m(A)", ">=", ntc_m[4], ntc_m[3]),
        SuiteEntry("2-TC^m(A) <= 2-TC(A)", "<=", ntc_m[2], ntc[2]),
        SuiteEntry("3-TC^m(A) <= 3-TC(A)", "<=", ntc_m[3], ntc[3]),
    ]

    use_pairs = list(pairs)
    if not use_pairs and len(image.components()) == 1:
        ident = identity_map(image)
        const = constant_map(image, image, image.points[0])
        use_pairs = [(ident, const)]
    for idx, (h, k) in enumerate(use_pairs):
        label = f"pair {idx}"
        d_m = inv("D_m", maps=(h, k), **fam)
        d_plain = inv("D", maps=(h, k))
        cat_m_h = inv("cat_m_of_map", maps=(h,), **fam)
        tc_m_h = inv("TC^m_of_map", maps=(h,), **fam)
        tc_h = inv("TC_of_map", maps=(h,))
        tc_m_cod = tc_m if h.codomain == image else inv("TC^m", image=h.codomain, **fam)
        entries.extend([
            SuiteEntry(f"D_m(h,k) <= D(h,k) [{label}]", "<=", d_m, d_plain),
            SuiteEntry(f"D_m(h,k) <= cat_m(A) [{label}]", "<=", d_m, cat_m),
            SuiteEntry(f"D_m(h,k) <= TC^m(A) [{label}]", "<=", d_m, tc_m),
            SuiteEntry(f"D_m(h,k) <= cat_m(h) [{label}]", "<=", d_m, cat_m_h),
            SuiteEntry(f"D_m(h,k) <= TC^m(h) [{label}]", "<=", d_m, tc_m_h),
            SuiteEntry(f"D_m(h,k) <= 2-TC^m(B) [{label}]", "<=", d_m, tc_m_cod),
            SuiteEntry(f"TC^m(h) <= TC(h) [{label}]", "<=", tc_m_h, tc_h),
        ])

    if len(image.components()) > 1:
        notes.append("image is disconnected; connectivity-dependent entries may fail")
    return SuiteReport(tuple(entries), tuple(notes))


# --- theorem-check harnesses ------------------------------------------------------


@dataclass
class FiberVerdict:
    commutes: bool
    commute_witness: Optional[dict]
    m_equivalent: Optional[bool]
    m_witness: Optional[dict]
    strict_equivalent: Optional[bool]

    @property
    def consistent(self):
        """A strict equivalence must imply the probe-level one."""
        return not (self.strict_equivalent is True and self.m_equivalent is False)

    @property
    def ok(self):
        return self.commutes and self.m_equivalent is True


def check_fiber_m_equivalence(h, k, v, w, family, caps=DEFAULT_CAPS):
    """Fiberwise comparison of two maps over a common codomain.

    Requires the triangles to commute strictly, then asks the composites
    v*w and w*v to be homotopic to the identities through every probe.
    """
    if v.domain != h.domain or w.domain != k.domain:
        raise ValidationError("fiber check: v must start at h's domain, w at k's")
    if v.codomain != k.domain or w.codomain != h.domain:
        raise ValidationError("fiber check: v and w must run between the two domains")
    if h.codomain != k.codomain:
        raise ValidationError("fiber check: h and k must share a codomain")
    for a in sorted(v.domain.points):
        if k.mapping[v.mapping[a]] != h.mapping[a]:
            return FiberVerdict(False, {"side": "k*v != h", "point": list(a)},
                                None, None, None)
    for b in sorted(w.domain.points):
        if h.mapping[w.mapping[b]] != k.mapping[b]:
            return FiberVerdict(False, {"side": "h*w != k", "point": list(b)},
                                None, None, None)
    vw = maps_mod.compose(v, w)
    wv = maps_mod.compose(w, v)
    id_b = identity_map(k.domain)
    id_a = identity_map(h.domain)
    session = HomotopySession(caps)
    res_vw = session.m_homotopic(vw, id_b, family)
    res_wv = session.m_homotopic(wv, id_a, family)
    if res_vw.decided == NO or res_wv.decided == NO:
        m_eq = False
        bad = res_vw if res_vw.decided == NO else res_wv
        m_wit = {"probe": bad.witness_probe,
                 "map": [[list(a), list(t)]
                         for a, t in sorted(bad.witness_map.mapping.items())]
                 if bad.witness_map else None}
    elif res_vw.decided == YES and res_wv.decided == YES:
        m_eq, m_wit = True, None
    else:
        m_eq, m_wit = None, None
    s1 = session.homotopic(vw, id_b)
    s2 = session.homotopic(wv, id_a)
    strict = (s1 and s2) if (s1 is not None and s2 is not None) else (
        False if (s1 is False or s2 is False) else None
    )
    return FiberVerdict(True, None, m_eq, m_wit, strict)


@dataclass
class InvarianceReport:
    hypotheses: tuple  # (name, ok, detail) triples
    value_h: object
    value_k: object

    @property
    def hypotheses_ok(self):
        return all(ok for _, ok, _ in self.hypotheses)

    @property
    def equal(self):
        if not self.hypotheses_ok or self.value_h is None or self.value_k is None:
            return None
        return self.value_h == self.value_k


def check_equivalence_invariance(h_list, k_list, omega1, omega2, family,
                                 caps=DEFAULT_CAPS, session=None):
    """Distance is preserved along homotopy equivalences of both ends.

    Hypotheses are re-verified before the conclusion is asserted, so a
    failure here points at the solver rather than at the inputs.  Every
    homotopy query runs on one session, under that session's caps.
    """
    hs = tuple(h_list)
    ks = tuple(k_list)
    if len(hs) != len(ks) or len(hs) < 2:
        raise ValidationError("need matching lists of at least two maps")
    session = session or SolverSession(caps)
    hyp = []
    for name, omega in (("omega1", omega1), ("omega2", omega2)):
        try:
            inverse = session.h.homotopy_inverse(omega)
        except CapExceeded as exc:
            hyp.append((f"{name} is a homotopy equivalence", False, str(exc)))
            continue
        ok = inverse is not None
        hyp.append((f"{name} is a homotopy equivalence", ok,
                    "inverse found" if ok else "no inverse exists"))
    for i, (h, k) in enumerate(zip(hs, ks)):
        conj = maps_mod.compose(omega1, maps_mod.compose(h, omega2))
        verdict = session.h.homotopic(conj, k)
        ok = verdict is True
        detail = {True: "homotopic", False: "not homotopic", None: "undecided"}[verdict]
        hyp.append((f"omega1*h_{i}*omega2 ~ k_{i}", ok, detail))
    if not all(ok for _, ok, _ in hyp):
        return InvarianceReport(tuple(hyp), None, None)
    rep_h = compute_invariant("D_m", maps=hs, family=family, caps=caps,
                              session=session)
    rep_k = compute_invariant("D_m", maps=ks, family=family, caps=caps,
                              session=session)
    return InvarianceReport(tuple(hyp), rep_h.value, rep_k.value)
