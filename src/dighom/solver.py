"""Covering invariants: homotopic distance, category, topological complexity.

Every invariant here is the same optimization problem with a different
per-piece predicate: split the universe into the fewest pieces on which
the predicate ("goodness") holds, and report pieces minus one.  Goodness
is downward closed for all supported kinds, so the structure of the
problem is carried entirely by the inclusion-minimal bad subsets.

A kind is a tuple of maps and an optional probe family.  A piece is good
when consecutive maps are homotopic on it, or for one map when that map
is nullhomotopic there; cat of an image is cat of its identity.  Without
a family "on the piece" means on its inclusion, with one it means after
every probe map into the piece, and each such question is one session
query.  A bitmask scan answers the same questions faster on two-factor
strong-product universes whose maps factor through the coordinates, and
for the identity of such a product.  It labels each coordinate map of a
probe map "bad" (it alone breaks the kind), "free" (it constrains
nothing) or with the one class the kind's maps through its side give it;
a probe map is good when neither label is "bad" and the two are equal or
one is "free".

One solver computes every cover, by refinement: seed some bad sets,
compute an optimal partition avoiding them (a lower bound), verify every
piece, and add the images of the failing probe maps that the check
names as new bad sets until the partition verifies.  A large two-factor
product that the bitmask scan handles for an m-kind starts from no bad
sets; every other universe gets the full seed, every minimal bad set, so
its first partition verifies at once.

Two maps are m-homotopic exactly when their m-homotopic distance is zero,
that is when the whole domain is one good piece of their distance kind.
``are_m_homotopic`` asks exactly that, through the same goodness check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

from .errors import CapExceeded, ValidationError
from . import lattice
from . import maps as maps_mod
from .homotopy import CAP, DEFAULT_CAPS, NO, YES, HomotopySession
from .lattice import induced_subimage, np_product
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


@dataclass(frozen=True)
class GoodnessKind:
    """A per-piece predicate.  With several maps a piece is good when
    consecutive maps agree on it; with one map, when that map contracts
    there.  Without a family "on a piece" means on its inclusion; with one
    it means through every probe map into the piece."""

    maps: tuple
    family: Optional[ProbeFamily] = None

    @property
    def is_m(self):
        return self.family is not None

    @property
    def universe_image(self):
        return self.maps[0].domain

    @property
    def target_image(self):
        """Where the composites land; contractible target forces value 0."""
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
    return GoodnessKind(ms, family)


def cat_kind(img, family=None):
    """The category of an image is the category of its identity map."""
    return cat_map_kind(identity_map(img), family)


def cat_map_kind(h, family=None):
    if not maps_mod.is_continuous(h):
        raise ValidationError("cat of a map needs a continuous map")
    return GoodnessKind((h,), family)


@dataclass
class GoodnessResult:
    status: Optional[bool]  # True good, False bad, None undecided
    witness: Optional[tuple] = None  # (probe, probe map) that failed


@dataclass
class MHomotopyVerdict:
    decided: str  # YES, NO or CAP
    witness_probe: Optional[str] = None
    witness_map: Optional[DigitalMap] = None


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
        self._induced = {}
        self._covers = {}
        self._positions = {}

    def goodness(self, kind):
        g = self._goodness.get(kind)
        if g is None:
            g = _Goodness(kind, self)
            self._goodness[kind] = g
        return g

    def induced(self, image, points):
        """The subimage on points; image itself when they are all of it, so
        a product keeps the factors that ``contractible`` splits by."""
        pts = frozenset(points)
        if len(pts) == len(image):
            return image
        key = (image.key, pts)
        img = self._induced.get(key)
        if img is None:
            img = induced_subimage(image, points)
            self._induced[key] = img
        return img

    def coordinate_maps(self, probe_image, factor, cap):
        """The continuous maps from a probe image into a factor, lex-ordered
        as the homotopy session keeps them, and their position masks: bit i
        of ``at[t][a]`` is set when map i sends probe point t to a.  The
        masks are built by columns: one buffer per probe point and factor
        point, read as an int once (``_column_masks``).  Both are built
        once per session and shared by both sides of every kind; more than
        ``cap`` maps raise CapExceeded."""
        vals = self.h.map_space(probe_image, factor, cap)
        key = (probe_image.key, factor.key)
        at = self._positions.get(key)
        if at is None:
            points = factor.points
            at = [{points[c]: mask for c, mask in _column_masks(col).items()}
                  for col in self.h.space_columns(probe_image, factor)]
            self._positions[key] = at
        return vals, at

    def m_homotopic(self, f, g, family):
        """Whether f*phi and g*phi are homotopic for every probe map phi:
        whether D_m(f, g) = 0, that is the whole domain is one good piece.
        A "no" carries the goodness check's witness."""
        good = self.goodness(distance_kind((f, g), family))
        try:
            res = good.check(f.domain.points)
        except CapExceeded:
            return MHomotopyVerdict(CAP)
        if res.status is None:
            return MHomotopyVerdict(CAP)
        if res.status:
            return MHomotopyVerdict(YES)
        probe, phi = res.witness
        return MHomotopyVerdict(NO, probe.name, phi)


def are_m_homotopic(f, g, family, caps=DEFAULT_CAPS):
    """Whether f*phi and g*phi are homotopic for every probe map phi; see
    ``SolverSession.m_homotopic``."""
    return SolverSession(caps).m_homotopic(f, g, family)


def _session_for(caps, session):
    """The session to run on.  A given session's caps are the caps: an
    explicit ``caps`` that differs from them is an error."""
    if session is None:
        return SolverSession(DEFAULT_CAPS if caps is None else caps)
    if caps is not None and caps != session.caps:
        raise ValidationError(f"caps {caps} differ from the session's caps {session.caps}")
    return session


class _Goodness:
    """All machinery for one kind: goodness checks, bad-set search, engines."""

    def __init__(self, kind, session):
        self.kind = kind
        self.session = session
        self.caps = session.caps
        self.universe = kind.universe_image
        self.target = kind.target_image
        self._e2 = None
        self._e2_tried = False
        self._max_bad_size = None

    # -- small helpers

    def chain_violation(self, X):
        """The least point of X whose consecutive images lie in different
        components of the target, a pointwise necessary condition of
        goodness; None when there is none, at once when the target is
        connected."""
        if self.target.is_connected():
            return None
        comp = self.target.component_id
        ms = self.kind.maps
        for x in sorted(X):
            for a, b in zip(ms, ms[1:]):
                if comp(a.mapping[x]) != comp(b.mapping[x]):
                    return x
        return None

    def nontrivial_probes(self):
        """Probes that are not contractible; contractible ones can only fail
        through the pointwise component condition, checked separately."""
        out = []
        for probe in self.kind.family.complexes:
            got = self.session.h.contractible(probe.image)
            if got is None:
                raise CapExceeded(
                    f"probe {probe.name} contractibility undecided under caps",
                    cap_name="max_visited_maps",
                )
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

    def _fails(self, domain, values):
        """Whether the map sending domain's points to ``values`` in the
        universe breaks the kind: two consecutive composites are not
        homotopic, or the one composite is not nullhomotopic.  None when
        capped.  The composites of continuous maps are continuous, so they
        go to the session's ``_decide`` without its entry checks."""
        sess = self.session.h
        comps = [DigitalMap(domain, h.codomain,
                            {p: h.mapping[v] for p, v in zip(domain.points, values)})
                 for h in self.kind.maps]
        if len(comps) == 1:
            verdict = sess._decide(comps[0], None)
        else:
            verdict = True
            for f, g in zip(comps, comps[1:]):
                verdict = sess._decide(f, g)
                if not verdict:
                    break
        return None if verdict is None else not verdict

    def check(self, X, surjective_only=False):
        """Reference goodness decision by direct enumeration.

        A piece with a point whose images lie in different components is
        bad, and a piece that contracts is good.  Otherwise ``_fails`` is
        asked about the piece's inclusion, or for m-kinds about every probe
        map into the piece.  With ``surjective_only`` just the probe maps
        onto X are tried, which is what minimality scans need.  Every "bad"
        of an m-kind has a (probe, probe map) witness: the failing probe
        map, or for a component violation the constant map at the first
        offending point from the family's first probe.  Other results have
        none.
        """
        pts = sorted(X)
        x = self.chain_violation(pts)
        if x is not None:
            if not self.kind.is_m:
                return GoodnessResult(False)
            probe = self.kind.family.complexes[0]
            phi = constant_map(probe.image, self.universe, x)
            return GoodnessResult(False, (probe, phi))
        sub = self.session.induced(self.universe, pts)
        if self.session.h.contractible(sub):
            return GoodnessResult(True)
        if not self.kind.is_m:
            fails = self._fails(sub, sub.points)
            return GoodnessResult(None if fails is None else not fails)
        cap = self.kind.family.map_cap(self.caps)
        for probe in self.nontrivial_probes():
            if surjective_only and len(probe.image) < len(pts):
                continue
            try:
                stream = maps_mod.enumerate_continuous_maps(
                    probe.image, sub,
                    surjective_only=surjective_only,
                    cap=cap,
                    order="search",
                )
                for phi in stream:
                    fails = self._fails(probe.image, phi.values)
                    if fails is None:
                        return GoodnessResult(None)
                    if fails:
                        return GoodnessResult(False, (probe, phi))
            except CapExceeded:
                return GoodnessResult(None)
        return GoodnessResult(True)

    # -- product bitmask engine

    def e2(self):
        if not self._e2_tried:
            self._e2_tried = True
            self._e2 = _E2Context.build(self.kind, self.session)
        return self._e2

    def check_piece(self, X):
        """Goodness by the fastest applicable engine, and the bad images it names."""
        e2 = self.e2()
        if e2 is not None:
            images = e2.scan(frozenset(X))
            return GoodnessResult(not images), images
        res = self.check(X)
        return res, [frozenset(res.witness[1].values)] if res.witness else []


class _E2Context:
    """Bitmask goodness scans over a two-factor full strong product.

    A continuous map from a probe into the product is exactly a pair of
    continuous coordinate maps whose pointwise pairs stay inside the piece.
    Each coordinate map gets a label.  It is "bad" when it alone breaks the
    kind: for the identity, when it is not null; for a distance kind, when
    the kind's maps through its side send it to different classes.  It is
    "free" when it constrains nothing: a null coordinate map of the
    identity, or any map on a side no map of the kind goes through.
    Otherwise its label is the one class the kind's maps through its side
    give it.  A pair is good when neither label is "bad" and the two are
    equal or one is "free".  Classes are the homotopy session's class keys
    for a whole side's space at once (``HomotopySession.space_keys``):
    degrees into a codomain that folds to a point or to a ring of at least
    5 points, class roots into any other.

    Every table is built by columns and shared.  Per probe and side,
    ``_prepare`` takes the coordinate maps and their position masks (for
    each probe point and factor point, the maps sending one to the other)
    from the session, which builds them once per (probe, factor) and
    shares them between both sides and every kind.  The key column of a
    side is kept by the homotopy session per (probe, factor, codomain,
    value table), so the identity and the projections, which label one
    space through the identity table, lift it once.  ``_prepare`` then
    groups the side-2 maps by label; the side-1 partners that fail with a
    group are one mask, fixed by the label.  Label masks come from the
    same column-mask helper as the position masks (``_column_masks``).

    ``scan`` finds the failing side-2 maps of each group from its smaller
    side.  When the fail mask holds fewer side-1 maps than the group has
    side-2 maps, it walks those side-1 maps and ANDs the side-2 position
    masks of the piece; otherwise it walks the group and ANDs the side-1
    position masks into the fail mask.  Images are then harvested from the
    failing side-2 maps in ascending order, each with its side-1 partners
    in ascending order, so the first ``HARVEST_CAP`` images do not depend
    on which side was walked.
    """

    def __init__(self, kind, session, tables):
        self.kind = kind
        self.session = session
        # Per side, the value tables of the kind's maps through it, each the
        # image of every factor point in order; None for the identity.
        self.tables = tables
        self.universe = kind.universe_image
        self.probes = []

    @classmethod
    def build(cls, kind, session):
        uni = kind.universe_image
        if not (kind.is_m and uni.is_np_full and len(uni.factors) == 2):
            return None
        if len(kind.maps) == 1:
            if kind.maps[0] != identity_map(uni):
                return None
            tables = None
        else:
            tables = ([], [])
            for h in kind.maps:
                through = _factors_through(h, uni)
                if through is None:
                    return None
                side, table = through
                tables[side].append(table)
        ctx = cls(kind, session, tables)
        try:
            ctx._prepare()
        except CapExceeded:
            return None
        return ctx

    def _prepare(self):
        g = self.session.goodness(self.kind)
        cap = self.kind.family.map_cap(self.session.caps)
        factor1, factor2 = self.universe.factors
        for probe in g.nontrivial_probes():
            pimg = probe.image
            vals1, at1 = self.session.coordinate_maps(pimg, factor1, cap)
            vals2, at2 = self.session.coordinate_maps(pimg, factor2, cap)
            labels1 = self._labels(pimg, 0, vals1)
            by_label = _column_masks(labels1)
            # The side-1 partners that fail with each side-2 label, one
            # shared mask per label: a class fails with every label that
            # is neither "free" nor that class.
            everyone = (1 << len(vals1)) - 1
            free1 = by_label.get("free", 0)
            fail_of = {label: everyone & ~(free1 | m) for label, m in by_label.items()}
            fail_of.update(bad=everyone, free=by_label.get("bad", 0))
            unmatched = everyone & ~free1
            # Sides over one factor that the kind treats alike label alike.
            if factor1.key == factor2.key and (
                    self.tables is None or self.tables[0] == self.tables[1]):
                labels2, group_masks = labels1, by_label
            else:
                labels2 = self._labels(pimg, 1, vals2)
                group_masks = _column_masks(labels2)
            group_of = {}
            for j, label in enumerate(labels2):
                group_of.setdefault(label, []).append(j)
            # A group whose fail mask is the smaller side is kept as (its
            # side-2 mask, the side-1 maps to walk, None); any other as
            # (its fail mask, None, its side-2 maps).
            fail = [None] * len(vals2)
            groups = []
            for label, js in group_of.items():
                mask = fail_of.get(label, unmatched)
                for j in js:
                    fail[j] = mask
                if not mask:
                    continue
                if mask.bit_count() < len(js):
                    groups.append((group_masks[label], list(_bits(mask)), None))
                else:
                    groups.append((mask, None, js))
            self.probes.append((vals1, at1, vals2, at2, fail, groups))

    def _labels(self, pimg, side, vals):
        """The label of each coordinate map from the probe image into the
        factor on ``side``, in the order of ``vals``, the session's kept
        space; classes are the session's key columns of that space."""
        h = self.session.h
        factor = self.universe.factors[side]

        def checked(ids):
            if None in ids:
                raise CapExceeded("class closure capped in product engine",
                                  cap_name="max_visited_maps")
            return ids

        def keys(cod, table):
            return checked(h.space_keys(pimg, factor, cod, table))

        if self.tables is None:
            null = set(checked(h.class_keys(pimg, factor,
                                            [(x,) * len(pimg) for x in factor.points])))
            return ["free" if cid in null else "bad" for cid in keys(factor, factor.points)]
        tables = self.tables[side]
        if not tables:
            return ["free"] * len(vals)
        cod = self.kind.target_image
        labels = keys(cod, tables[0])
        for table in tables[1:]:
            labels = [a if a == b else "bad" for a, b in zip(labels, keys(cod, table))]
        return labels

    def scan(self, X):
        """The images of failing probe maps into the piece X, at most
        ``HARVEST_CAP`` of them; X is good when there are none."""
        by_first, by_second = {}, {}
        for u in X:
            a, b = self.universe.split_point(u)
            by_first.setdefault(a, []).append(b)
            by_second.setdefault(b, []).append(a)
        images = []
        for vals1, at1, vals2, at2, fail, groups in self.probes:
            # Bit i of cols[t][b] is set when side-1 map i sends point t to
            # some a with (a, b) in X; rows[t][a] likewise for side-2 maps.
            cols = _piece_masks(at1, by_second)
            rows = None
            failing = 0
            for mask, walk, js in groups:
                if walk is None:
                    for j in js:
                        m = mask
                        for col, b in zip(cols, vals2[j]):
                            m &= col.get(b, 0)
                            if not m:
                                break
                        else:
                            failing |= 1 << j
                    continue
                if rows is None:
                    rows = _piece_masks(at2, by_first)
                for i in walk:
                    m = mask
                    for row, a in zip(rows, vals1[i]):
                        m &= row.get(a, 0)
                        if not m:
                            break
                    failing |= m
            for j in _bits(failing):
                v2 = vals2[j]
                mask = fail[j]
                for col, b in zip(cols, v2):
                    mask &= col.get(b, 0)
                for i in _bits(mask):
                    images.append(frozenset(a + b for a, b in zip(vals1[i], v2)))
                    if len(images) == HARVEST_CAP:
                        return images
        return images


def _bits(mask):
    """The indices of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _column_masks(column):
    """Per value of column, the mask whose bit i is set when column[i]
    holds it.  Each run of up to 255 values codes the column into one byte
    buffer, last entry first, and each value reads its mask from that
    buffer as a base-2 int once."""
    masks = {}
    values = list(dict.fromkeys(column))
    for start in range(0, len(values), 255):
        code = {x: c for c, x in enumerate(values[start:start + 255])}
        buf = bytes(map(code.get, reversed(column), itertools.repeat(255)))
        for x, c in code.items():
            masks[x] = int(buf.translate(b"0" * c + b"1" + b"0" * (255 - c)), 2)
    return masks


def _piece_masks(at, groups):
    """Per probe point t, the OR of ``at[t][a]`` over each group's points a."""
    out = []
    for at_t in at:
        masks = {}
        for key, pts in groups.items():
            m = 0
            for p in pts:
                m |= at_t.get(p, 0)
            masks[key] = m
        out.append(masks)
    return out


def _factors_through(h, product):
    """If h depends on only one coordinate block, return (side, value
    table), the table giving the image of each point of that side's factor
    in order."""
    for side in range(2):
        table = {}
        for u in product.points:
            v = h.mapping[u]
            if table.setdefault(product.split_point(u)[side], v) != v:
                break
        else:
            return side, tuple(map(table.__getitem__, product.factors[side].points))
    return None


# --- public pipeline operations -------------------------------------------------


def subset_good(kind, X, caps=None, session=None):
    """Reference goodness decision for one piece."""
    session = _session_for(caps, session)
    pts = frozenset(X)
    if not pts:
        raise ValidationError("pieces must be nonempty")
    uni = kind.universe_image
    for p in pts:
        if p not in uni:
            raise ValidationError(f"{p!r} is not a point of the universe")
    return session.goodness(kind).check(pts)


def _scan_bad_sets(g, max_size):
    """Inclusion-minimal bad sets of at most max_size points, smallest first.

    Candidates are the connected subsets, plus cross-component pairs for
    the contraction kinds.  For m-kinds only the probe maps onto a
    candidate are tried: a failing map into a proper subset is missed, but
    that subset was scanned first, because a minimal bad set is the image
    of a failing surjective probe map.  Restriction kinds run the full test.
    """
    kind = g.kind
    uni = g.universe
    pts = sorted(uni.points)
    nbrs = {p: uni.neighbors(p) for p in pts}
    by_size = {}
    for sub in probes_mod._connected_subsets(pts, nbrs, max_size):
        by_size.setdefault(len(sub), set()).add(tuple(sorted(sub)))
    if max_size >= 2 and not kind.is_m and len(kind.maps) == 1:
        comp = uni.component_id
        for a, b in itertools.combinations(pts, 2):
            if comp(a) != comp(b):
                by_size.setdefault(2, set()).add((a, b))
    found = []
    for size in sorted(by_size):
        for cand in sorted(by_size[size]):
            cs = frozenset(cand)
            if any(b <= cs for b in found):
                continue
            res = g.check(cs, surjective_only=True)
            if res.status is None:
                raise CapExceeded("goodness undecided during minimality search",
                                  cap_name="max_probe_maps")
            if res.status is False:
                found.append(cs)
    return found


def minimal_bad_sets(kind, caps=None, session=None):
    """All inclusion-minimal subsets failing goodness, smallest first.

    For m-kinds candidates are no larger than the biggest non-contractible
    probe, because a minimal bad set must be the image of a failing
    surjective probe map.  Restriction kinds scan subsets of every size.
    """
    session = _session_for(caps, session)
    g = session.goodness(kind)
    return _scan_bad_sets(g, min(g.max_bad_size(), len(g.universe)))


def maximal_good_sets(universe, bad, output_cap=100_000):
    """All inclusion-maximal subsets containing no bad set; with
    ``min_cover`` the reference oracle that tests check the solver against."""
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
    """Fewest sets covering the universe; INFINITE when a point is uncoverable.
    Reference oracle: over the maximal good sets it gives the solver's value."""
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


def _min_partition(points, bads, node_cap=COLOR_NODE_CAP):
    """Fewest pieces avoiding every bad set, by backtracking coloring.

    Returns (pieces, capped): pieces None when the node cap interrupted the
    search before any feasible count was proven.
    """
    pts = sorted(points)
    if not bads:
        return [tuple(pts)], False
    blist = [frozenset(b) for b in bads]
    involve = {p: [] for p in pts}
    for bi, b in enumerate(blist):
        for p in b:
            involve[p].append(bi)
    order = sorted(pts, key=lambda p: (-len(involve[p]), p))

    class _Stop(Exception):
        pass

    for k in range(2, len(pts) + 1):
        color = {}
        counts = [dict() for _ in blist]  # per bad: color -> points colored
        assigned = [0] * len(blist)
        nodes = 0

        def feasible(p, c):
            for bi in involve[p]:
                b = blist[bi]
                if assigned[bi] == len(b) - 1 and counts[bi].get(c, 0) == len(b) - 1:
                    return False
            return True

        def assign(p, c):
            color[p] = c
            for bi in involve[p]:
                counts[bi][c] = counts[bi].get(c, 0) + 1
                assigned[bi] += 1

        def unassign(p, c):
            del color[p]
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


def _greedy_partition(points, bads):
    pts = sorted(points)
    blist = [frozenset(b) for b in bads]
    pieces = []
    for p in pts:
        placed = False
        for piece in pieces:
            if any(p in b and b - {p} <= piece for b in blist):
                continue
            piece.add(p)
            placed = True
            break
        if not placed:
            pieces.append({p})
    return sorted(tuple(sorted(piece)) for piece in pieces)


# --- cover computation routing ---------------------------------------------------


def _optimum_exactness(kind):
    """The exactness of an optimal or undecided cover: the one rule, exact
    for a plain kind and a family lower bound for an m-kind."""
    return "lower_bound_family" if kind.is_m else "exact"


def _undecided(kind, note):
    """An undecided cover: an m-kind stays a family lower bound."""
    return CoverResult(None, (), (), _optimum_exactness(kind), True, (note,))


def _refinement_cover(kind, g, mode, bads):
    """Lazy-exact cover: partition against known bad sets, verify, harvest.

    bads is the seed list; each failing piece extends it with the images
    that ``check_piece`` reports for it, the witnesses of the goodness
    check or of the product engine.  A plain kind's failing piece has no
    witness, so plain kinds need the full seed: with any less, a failing
    piece stalls the refinement and the cover is undecided.
    """
    pts = list(kind.universe_image.points)
    known = set(bads)
    capped_any = False
    for _ in range(MAX_REFINE_ROUNDS):
        if mode == "greedy":
            pieces = _greedy_partition(pts, bads)
        else:
            pieces, capped = _min_partition(pts, bads)
            if capped or pieces is None:
                capped_any = True
                pieces = _greedy_partition(pts, bads)
        failures = []
        for piece in pieces:
            res, images = g.check_piece(piece)
            if res.status is None:
                return _undecided(kind, "piece goodness undecided under caps")
            if res.status is False:
                failures.append(images)
        if not failures:
            # A greedy or capped partition is an upper bound; an optimal one
            # is exact, or a family lower bound for m-kinds.
            notes = ()
            exactness = _optimum_exactness(kind)
            if capped_any or mode == "greedy":
                exactness = "upper_bound"
                if capped_any:
                    notes = ("partition search capped; value may exceed the optimum",)
            wits = tuple({"piece": i, "size": len(p)} for i, p in enumerate(pieces))
            return CoverResult(len(pieces) - 1, tuple(pieces), wits, exactness,
                               capped_any, notes)
        new = 0
        for images in failures:
            for img_set in images:
                if img_set not in known:
                    known.add(img_set)
                    bads.append(img_set)
                    new += 1
        if new == 0:
            return _undecided(kind, "refinement stalled without new bad sets")
    return _undecided(kind, "refinement round cap exceeded")


def compute_cover(kind, caps=None, mode="exact", session=None,
                  exact_cap=EXACT_COVER_CAP):
    """Route one goodness kind to the engine that can decide it."""
    session = _session_for(caps, session)
    memo_key = (kind, mode, exact_cap)
    cached = session._covers.get(memo_key)
    if cached is not None:
        return cached
    try:
        result = _route_cover(kind, session, mode, exact_cap)
    except CapExceeded as exc:
        result = _undecided(kind, str(exc))
    session._covers[memo_key] = result
    return result


def _route_cover(kind, session, mode, exact_cap):
    g = session.goodness(kind)
    uni = kind.universe_image
    pts = uni.points
    contractible = session.h.contractible(kind.target_image)
    if contractible:
        wits = ({"piece": 0, "size": len(pts), "note": "contractible target"},)
        return CoverResult(0, (tuple(pts),), wits, _optimum_exactness(kind), False)
    bad_x = g.chain_violation(pts)
    if bad_x is not None:
        return CoverResult(
            INFINITE, (), ({"point": list(bad_x)},), "exact", False,
            ("a point's images fall in different components",),
        )
    if kind.is_m:
        if len(pts) > M_KIND_EXHAUSTIVE_CAP and g.e2() is not None:
            # The bitmask scan verifies pieces fast enough to start unseeded.
            return _refinement_cover(kind, g, mode, [])
        limit, note = M_KIND_EXHAUSTIVE_CAP, "universe too large for the probe engines"
    else:
        limit, note = RESTRICTION_EXHAUSTIVE_CAP, "restriction goodness infeasible at this size"
    if len(pts) > max(limit, exact_cap):
        return _undecided(kind, note)
    # Every other universe gets every minimal bad set as its seed, so its
    # first optimal partition verifies at once.
    over_cap = mode != "greedy" and len(pts) > exact_cap
    cover = _refinement_cover(kind, g, "greedy" if over_cap else mode,
                              minimal_bad_sets(kind, session=session))
    if over_cap and cover.value is not None:
        note = f"universe above the exact-cover cap {exact_cap}; greedy used"
        cover = replace(cover, caps_hit=True, notes=cover.notes + (note,))
    return cover


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
        own = 2 if name in ("TC", "TC^m", "TC_of_map", "TC^m_of_map") else None
        if n is not None and n != own:
            raise ValidationError(f"{name} takes no n" if own is None
                                  else f"{name} has n = {own}, got {n}")
        n = own

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
        # Projections of a normal product are continuous by construction.
        prod = np_product([image] * n, n)
        kind = GoodnessKind(tuple(projection_map(prod, i) for i in range(1, n + 1)),
                            family)
    else:
        if len(maps) != 1:
            raise ValidationError(f"{name} needs exactly one map")
        h = maps[0]
        if n == 1:
            return None, n, notes
        if not maps_mod.is_continuous(h):
            raise ValidationError("distance kinds need continuous maps")
        prod = np_product([h.domain] * n, n)
        kind = GoodnessKind(tuple(maps_mod.compose(h, projection_map(prod, i))
                                  for i in range(1, n + 1)), family)

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
                      mode="exact", caps=None, session=None,
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
    session = _session_for(caps, session)
    caps = session.caps
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
    n = obj.get("n")
    if n is not None and not lattice._is_int(n):
        raise ValidationError(f"report n must be an integer or null, got {n!r}")
    try:
        kind, _, _ = _build_kind(name, image, maps, family, n)
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


def verify_inequality_suite(image, family, caps=None, pairs=(),
                            session=None, exact_cap=EXACT_COVER_CAP):
    """Evaluate the theorem inequalities on one image, with optional map pairs.

    Each entry carries both sides' values; entries whose inputs could not
    be decided under the caps come out "undecided" rather than pass/fail.
    """
    session = _session_for(caps, session)
    notes = []

    def inv(name, **kw):
        rep = compute_invariant(name, session=session,
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
    session = SolverSession(caps)
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
    s1 = session.h.homotopic(vw, id_b)
    s2 = session.h.homotopic(wv, id_a)
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
                                 caps=None, session=None):
    """Distance is preserved along homotopy equivalences of both ends.

    Hypotheses are re-verified before the conclusion is asserted, so a
    failure here points at the solver rather than at the inputs.  Every
    homotopy query runs on one session, under that session's caps.
    """
    hs = tuple(h_list)
    ks = tuple(k_list)
    if len(hs) != len(ks) or len(hs) < 2:
        raise ValidationError("need matching lists of at least two maps")
    session = _session_for(caps, session)
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
    rep_h = compute_invariant("D_m", maps=hs, family=family, session=session)
    rep_k = compute_invariant("D_m", maps=ks, family=family, session=session)
    return InvarianceReport(tuple(hyp), rep_h.value, rep_k.value)
