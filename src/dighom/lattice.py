"""Finite digital images: sets of lattice points with an adjacency relation.

A digital image is a finite subset of Z^r together with one of a small
family of adjacency relations.  Once built, an image is just an undirected
graph whose vertices are the points; every algorithm downstream works on
that graph and never re-reads the adjacency rule.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations, product as iterproduct
from typing import Union

from .errors import ValidationError

Point = tuple

# Documented machine range: coordinates and dimensions beyond this are
# rejected at validation time rather than silently mishandled.
MAX_DIM = 16
MAX_COORD = 2**31


def _check_point(p, dim=None, what="point"):
    if not isinstance(p, tuple) or len(p) == 0:
        raise ValidationError(f"{what} must be a nonempty tuple of integers, got {p!r}")
    for c in p:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValidationError(f"{what} {p!r} has a non-integer coordinate {c!r}")
        if abs(c) > MAX_COORD:
            raise ValidationError(f"{what} {p!r} has a coordinate outside +/-{MAX_COORD}")
    if len(p) > MAX_DIM:
        raise ValidationError(f"{what} {p!r} exceeds the supported dimension {MAX_DIM}")
    if dim is not None and len(p) != dim:
        raise ValidationError(f"{what} {p!r} has dimension {len(p)}, expected {dim}")


def cp_adjacent(a, b, p):
    """Standard lattice adjacency: a != b, every coordinate within 1, and
    between 1 and p coordinates differing by exactly 1.

    p=1 gives 2-adjacency on Z and 4-adjacency on Z^2; p=2 gives
    8-adjacency on Z^2, and so on.
    """
    _check_point(a)
    _check_point(b, dim=len(a), what="second point")
    if not 1 <= p <= len(a):
        raise ValidationError(f"cp index p={p} out of range for dimension {len(a)}")
    ones = 0
    for x, y in zip(a, b):
        d = abs(x - y)
        if d > 1:
            return False
        ones += d
    return 1 <= ones <= p


# --- adjacency specifications -------------------------------------------------


@dataclass(frozen=True)
class CP:
    """c_p adjacency with the given p, interpreted in the ambient dimension."""

    p: int


@dataclass(frozen=True)
class NP:
    """Normal-product adjacency over factor blocks.

    Two tuples are adjacent when they differ in at least one and at most m
    factor blocks and every differing block is adjacent under its factor
    spec.  ``dims`` records the ambient dimension of each block so the
    coordinates can be split.
    """

    factors: tuple
    m: int
    dims: tuple


@dataclass(frozen=True)
class Explicit:
    """An explicit symmetric irreflexive edge set."""

    edges: frozenset  # of (a, b) pairs normalized so a < b


@dataclass(frozen=True)
class Induced:
    """Marker spec for images cut out of a parent image."""

    parent: object


Adjacency = Union[CP, NP, Explicit, Induced]


def normalize_edge(a, b):
    if a == b:
        raise ValidationError(f"edge endpoints must differ, got {a!r} twice")
    return (a, b) if a < b else (b, a)


def _validate_spec(spec, dim):
    if isinstance(spec, CP):
        if not isinstance(spec.p, int) or not 1 <= spec.p <= dim:
            raise ValidationError(f"cp spec p={spec.p!r} invalid for dimension {dim}")
    elif isinstance(spec, NP):
        if len(spec.factors) < 1 or len(spec.factors) != len(spec.dims):
            raise ValidationError("np spec needs one dimension per factor")
        if not isinstance(spec.m, int) or not 1 <= spec.m <= len(spec.factors):
            raise ValidationError(
                f"np spec m={spec.m!r} out of range for {len(spec.factors)} factors"
            )
        if sum(spec.dims) != dim:
            raise ValidationError(
                f"np factor dimensions {spec.dims} do not sum to ambient dimension {dim}"
            )
        for sub, d in zip(spec.factors, spec.dims):
            _validate_spec(sub, d)
    elif isinstance(spec, Explicit):
        for e in spec.edges:
            if len(e) != 2:
                raise ValidationError(f"explicit edge {e!r} is not a pair")
            a, b = e
            _check_point(a, dim, "edge endpoint")
            _check_point(b, dim, "edge endpoint")
            if a >= b:
                raise ValidationError(f"explicit edge {e!r} is not normalized")
    elif isinstance(spec, Induced):
        _validate_spec(spec.parent, dim)
    else:
        raise ValidationError(f"unknown adjacency spec {spec!r}")


def spec_adjacent(a, b, spec):
    """Pointwise adjacency test for a spec, independent of any point set."""
    if isinstance(spec, CP):
        return cp_adjacent(a, b, spec.p)
    if isinstance(spec, NP):
        if a == b:
            return False
        moved = 0
        off = 0
        for sub, d in zip(spec.factors, spec.dims):
            xa, xb = a[off : off + d], b[off : off + d]
            off += d
            if xa != xb:
                moved += 1
                if moved > spec.m or not spec_adjacent(xa, xb, sub):
                    return False
        return moved >= 1
    if isinstance(spec, Explicit):
        return a != b and normalize_edge(a, b) in spec.edges
    if isinstance(spec, Induced):
        return spec_adjacent(a, b, spec.parent)
    raise ValidationError(f"unknown adjacency spec {spec!r}")


def _cp_offsets(dim, p):
    # All nonzero moves in {-1,0,1}^dim with at most p moving coordinates.
    out = []
    for delta in iterproduct((-1, 0, 1), repeat=dim):
        k = sum(1 for d in delta if d != 0)
        if 1 <= k <= p:
            out.append(delta)
    return out


def _spec_neighbor_values(value, spec):
    """Candidate adjacent values of a block under a spec, over all of Z^d."""
    if isinstance(spec, CP):
        return [
            tuple(v + d for v, d in zip(value, delta))
            for delta in _cp_offsets(len(value), spec.p)
        ]
    if isinstance(spec, Explicit):
        out = []
        for a, b in spec.edges:
            if a == value:
                out.append(b)
            elif b == value:
                out.append(a)
        return out
    if isinstance(spec, NP):
        out = []
        blocks = _split(value, spec.dims)
        for moved in _subsets_upto(len(blocks), spec.m):
            choices = [
                _spec_neighbor_values(blocks[i], spec.factors[i]) if i in moved else [blocks[i]]
                for i in range(len(blocks))
            ]
            for combo in iterproduct(*choices):
                out.append(tuple(c for blk in combo for c in blk))
        return out
    if isinstance(spec, Induced):
        return _spec_neighbor_values(value, spec.parent)
    raise ValidationError(f"unknown adjacency spec {spec!r}")


def _split(point, dims):
    blocks = []
    off = 0
    for d in dims:
        blocks.append(point[off : off + d])
        off += d
    return tuple(blocks)


def _subsets_upto(n, m):
    for k in range(1, m + 1):
        yield from (frozenset(c) for c in combinations(range(n), k))


def _derive_edges(points, spec):
    """Edge set of a spec over a concrete point set, as normalized pairs."""
    pts = set(points)
    edges = set()
    if isinstance(spec, Explicit):
        for a, b in spec.edges:
            if a not in pts or b not in pts:
                raise ValidationError(f"explicit edge ({a!r}, {b!r}) leaves the point set")
            edges.add((a, b))
        return edges
    if isinstance(spec, Induced):
        return _derive_edges(points, spec.parent)
    for a in pts:
        for b in _spec_neighbor_values(a, spec):
            if b in pts and a < b:
                edges.add((a, b))
    return edges


# --- the image itself ---------------------------------------------------------


class DigitalImage:
    """A finite set of lattice points with a materialized edge set.

    Instances are immutable once constructed; build them through
    ``build_image``, ``np_product`` or ``induced_subimage``.
    """

    __slots__ = (
        "name",
        "points",
        "dim",
        "spec",
        "factors",
        "np_m",
        "_edge_set",
        "_nbrs",
        "_index",
        "_offsets",
        "_edges",
        "_components",
        "_component_ids",
        "_key",
    )

    def __init__(self, points, spec, edges, *, factors=None, np_m=None, name=""):
        pts = sorted(points)
        self.points = tuple(pts)
        self.dim = len(pts[0])
        self.spec = spec
        self.name = name
        self._edge_set = frozenset(edges)
        nbrs = {p: [] for p in pts}
        for a, b in self._edge_set:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self._nbrs = {p: tuple(sorted(v)) for p, v in nbrs.items()}
        self._index = {p: i for i, p in enumerate(self.points)}
        self.factors = tuple(factors) if factors else None
        self.np_m = np_m
        if self.factors:
            offs, off = [], 0
            for f in self.factors:
                offs.append((off, off + f.dim))
                off += f.dim
            self._offsets = tuple(offs)
        else:
            self._offsets = None
        self._edges = None
        self._components = None
        self._component_ids = None
        self._key = None

    # -- basic queries

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self._index

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        if not isinstance(other, DigitalImage):
            return NotImplemented
        return self.points == other.points and self._edge_set == other._edge_set

    def __hash__(self):
        return hash((self.points, self._edge_set))

    def __repr__(self):
        label = self.name or "image"
        return f"<DigitalImage {label}: {len(self.points)} points, {len(self._edge_set)} edges, dim {self.dim}>"

    def neighbors(self, p):
        return self._nbrs[p]

    def closed_neighborhood(self, p):
        merged = sorted(self._nbrs[p] + (p,))
        return tuple(merged)

    def has_edge(self, a, b):
        return a != b and (min(a, b), max(a, b)) in self._edge_set

    def adjacent_or_equal(self, a, b):
        return a == b or self.has_edge(a, b)

    @property
    def edges(self):
        """Edges as sorted normalized pairs, sorted once per image."""
        if self._edges is None:
            self._edges = tuple(sorted(self._edge_set))
        return self._edges

    @property
    def is_np_full(self):
        return self.factors is not None and self.np_m == len(self.factors)

    def split_point(self, p):
        if self._offsets is None:
            raise ValidationError("image has no product factor structure")
        return tuple(p[a:b] for a, b in self._offsets)

    def components(self):
        if self._components is None:
            seen = set()
            comps = []
            for start in self.points:
                if start in seen:
                    continue
                comp, queue = {start}, [start]
                while queue:
                    cur = queue.pop()
                    for nb in self._nbrs[cur]:
                        if nb not in comp:
                            comp.add(nb)
                            queue.append(nb)
                seen |= comp
                comps.append(tuple(sorted(comp)))
            self._components = tuple(sorted(comps))
            self._component_ids = {
                x: i for i, comp in enumerate(self._components) for x in comp}
        return self._components

    def component_id(self, p):
        """Index of the component holding p, in ``components()`` order."""
        if self._component_ids is None:
            self.components()
        got = self._component_ids.get(p)
        if got is None:
            raise ValidationError(f"{p!r} is not a point of the image")
        return got

    def is_connected(self):
        return len(self.components()) <= 1

    @property
    def key(self):
        """Stable content hash used for memo tables and report references."""
        if self._key is None:
            blob = repr((self.dim, self.points, self.edges))
            self._key = hashlib.sha1(blob.encode()).hexdigest()
        return self._key


def build_image(points, spec, name=""):
    """Construct an image from points and an adjacency rule.

    Points must be distinct tuples of integers of a common dimension;
    edges are materialized from the rule at construction time.
    """
    pts = list(points)
    if not pts:
        raise ValidationError("an image needs at least one point")
    _check_point(pts[0])
    dim = len(pts[0])
    seen = set()
    for p in pts:
        _check_point(p, dim)
        if p in seen:
            raise ValidationError(f"duplicate point {p!r}")
        seen.add(p)
    _validate_spec(spec, dim)
    edges = _derive_edges(seen, spec)
    return DigitalImage(seen, spec, edges, name=name)


def interval_image(a, b, name=""):
    """The digital interval [a, b] in Z with 2-adjacency."""
    if a > b:
        raise ValidationError(f"empty interval [{a}, {b}]")
    return build_image([(i,) for i in range(a, b + 1)], CP(1), name=name or f"interval[{a},{b}]")


def np_product(images, m, name=""):
    """Normal product of images: tuples adjacent when at most m factors move.

    With m equal to the number of factors this is the strong product; the
    result remembers its factor images so projections can be formed later.
    """
    imgs = list(images)
    if not imgs:
        raise ValidationError("product of zero images")
    if not 1 <= m <= len(imgs):
        raise ValidationError(f"np product m={m} out of range for {len(imgs)} factors")
    dims = tuple(f.dim for f in imgs)
    spec = NP(tuple(f.spec for f in imgs), m, dims)
    points = []
    for combo in iterproduct(*(f.points for f in imgs)):
        points.append(tuple(c for blk in combo for c in blk))
    pts = set(points)
    edges = set()
    k = len(imgs)
    for combo in iterproduct(*(f.points for f in imgs)):
        a = tuple(c for blk in combo for c in blk)
        for moved in _subsets_upto(k, m):
            choices = [
                imgs[i].neighbors(combo[i]) if i in moved else (combo[i],) for i in range(k)
            ]
            for nb_combo in iterproduct(*choices):
                b = tuple(c for blk in nb_combo for c in blk)
                if a < b and b in pts:
                    edges.add((a, b))
    return DigitalImage(pts, spec, edges, factors=imgs, np_m=m, name=name)


def dominance_violation(spec_a, spec_b, points):
    """Lexicographically least edge of spec_a over the points that spec_b lacks."""
    pts = list(points)
    if not pts:
        raise ValidationError("dominance needs a nonempty point set")
    dim = len(pts[0])
    for p in pts:
        _check_point(p, dim)
    _validate_spec(spec_a, dim)
    _validate_spec(spec_b, dim)
    ea = _derive_edges(set(pts), spec_a)
    eb = _derive_edges(set(pts), spec_b)
    extra = sorted(ea - eb)
    return extra[0] if extra else None


def dominates(spec_a, spec_b, points):
    """True when every spec_a edge over the points is also a spec_b edge.

    A continuous map out of (points, spec_a) stays continuous when the
    domain adjacency is replaced by any spec it dominates.
    """
    return dominance_violation(spec_a, spec_b, points) is None


def induced_subimage(img, subset, name=""):
    """Restriction of an image to a subset of its points."""
    sub = sorted(set(subset))
    if not sub:
        raise ValidationError("induced subimage needs at least one point")
    for p in sub:
        if p not in img:
            raise ValidationError(f"{p!r} is not a point of the ambient image")
    keep = set(sub)
    edges = {(a, b) for a, b in img._edge_set if a in keep and b in keep}
    return DigitalImage(keep, Induced(img.spec), edges, name=name)


@dataclass(frozen=True)
class DigitalPath:
    """A sequence of points, each consecutive pair equal or adjacent."""

    points: tuple

    def __len__(self):
        return len(self.points)

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]


# --- JSON ----------------------------------------------------------------------


def _spec_to_json(spec, img=None):
    if isinstance(spec, CP):
        return {"type": "cp", "p": spec.p}
    if isinstance(spec, NP):
        return {
            "type": "np",
            "m": spec.m,
            "factors": [_spec_to_json(f) for f in spec.factors],
            "dims": list(spec.dims),
        }
    if isinstance(spec, Explicit):
        return {
            "type": "explicit",
            "edges": [[list(a), list(b)] for a, b in sorted(spec.edges)],
        }
    if isinstance(spec, Induced):
        # Induced adjacency serializes as the concrete edge set.
        return {
            "type": "explicit",
            "edges": [[list(a), list(b)] for a, b in (img.edges if img else [])],
        }
    raise ValidationError(f"unknown adjacency spec {spec!r}")


def _point_from_json(obj, what="point"):
    if not isinstance(obj, list) or not obj or not all(isinstance(c, int) for c in obj):
        raise ValidationError(f"{what} must be a JSON array of integers, got {obj!r}")
    return tuple(obj)


def _json_array(obj, what):
    if not isinstance(obj, list):
        raise ValidationError(f"{what} must be a JSON array, got {obj!r}")
    return obj


def _spec_from_json(obj, dim, where="adjacency"):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError(f"{where}: expected an object with a 'type' field")
    t = obj["type"]
    if t == "cp":
        if "p" not in obj:
            raise ValidationError(f"{where}: cp adjacency needs 'p'")
        return CP(obj["p"])
    if t == "explicit":
        edges = set()
        for i, e in enumerate(_json_array(obj.get("edges", []), f"{where}.edges")):
            if not isinstance(e, list) or len(e) != 2:
                raise ValidationError(f"{where}.edges[{i}]: expected a pair of points")
            a = _point_from_json(e[0], f"{where}.edges[{i}][0]")
            b = _point_from_json(e[1], f"{where}.edges[{i}][1]")
            edges.add(normalize_edge(a, b))
        return Explicit(frozenset(edges))
    if t == "np":
        if "m" not in obj or "factors" not in obj:
            raise ValidationError(f"{where}: np adjacency needs 'm' and 'factors'")
        factors = obj["factors"]
        if not isinstance(factors, list) or not factors:
            raise ValidationError(f"{where}.factors: expected a nonempty array")
        dims = obj.get("dims")
        if dims is None:
            # Without explicit dims each cp factor is taken one-dimensional,
            # the common case of products of subsets of Z.
            if all(isinstance(f, dict) and f.get("type") == "cp" for f in factors):
                dims = [1] * len(factors)
            else:
                raise ValidationError(f"{where}: np adjacency needs 'dims' for non-cp factors")
        if len(dims) != len(factors) or not all(isinstance(d, int) and d >= 1 for d in dims):
            raise ValidationError(f"{where}.dims: expected one positive integer per factor")
        subs = [
            _spec_from_json(f, d, f"{where}.factors[{i}]")
            for i, (f, d) in enumerate(zip(factors, dims))
        ]
        return NP(tuple(subs), obj["m"], tuple(dims))
    raise ValidationError(f"{where}: unknown adjacency type {t!r}")


def image_to_json(img):
    return {
        "name": img.name,
        "dim": img.dim,
        "adjacency": _spec_to_json(img.spec, img),
        "points": [list(p) for p in img.points],
    }


def _try_factor_structure(img):
    """Recover factor images when a loaded NP image is a full box."""
    spec = img.spec
    if not isinstance(spec, NP):
        return None
    blocks = [set() for _ in spec.dims]
    for p in img.points:
        for i, blk in enumerate(_split(p, spec.dims)):
            blocks[i].add(blk)
    expected = 1
    for blk in blocks:
        expected *= len(blk)
    if expected != len(img.points):
        return None
    try:
        factors = [
            build_image(blk, sub) for blk, sub in zip(blocks, spec.factors)
        ]
    except ValidationError:
        return None
    return factors


def image_from_json(obj):
    if not isinstance(obj, dict):
        raise ValidationError("image document must be a JSON object")
    for field in ("dim", "points", "adjacency"):
        if field not in obj:
            raise ValidationError(f"image document missing '{field}'")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"image dim must be a positive integer, got {dim!r}")
    pts = [_point_from_json(p, f"points[{i}]")
           for i, p in enumerate(_json_array(obj["points"], "image points"))]
    for i, p in enumerate(pts):
        if len(p) != dim:
            raise ValidationError(f"points[{i}] has dimension {len(p)}, expected {dim}")
    spec = _spec_from_json(obj["adjacency"], dim)
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ValidationError("image name must be a string")
    img = build_image(pts, spec, name=name)
    factors = _try_factor_structure(img)
    if factors is not None and isinstance(spec, NP):
        return DigitalImage(
            img.points, spec, img._edge_set, factors=factors, np_m=spec.m, name=name
        )
    return img


def _read_json(path):
    """Parse a JSON file; an unreadable file or bad JSON is a ValidationError
    naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc


def load_image(path):
    return image_from_json(_read_json(path))


def dump_image(img, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(image_to_json(img), fh, indent=2)
        fh.write("\n")
