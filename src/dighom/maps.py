"""Maps between digital images and their continuity calculus.

A map is continuous when adjacent points land on equal or adjacent points.
That single condition drives everything here: composition, isomorphism,
and exhaustive enumeration of the continuous maps between two images.
"""

from __future__ import annotations

import os

from .errors import CapExceeded, ValidationError
from . import lattice
from .lattice import image_from_json, image_to_json, np_product


class DigitalMap:
    """A total function between the point sets of two images."""

    __slots__ = ("domain", "codomain", "mapping", "_values", "_key")

    def __init__(self, domain, codomain, mapping):
        self.domain = domain
        self.codomain = codomain
        self.mapping = mapping
        self._values = None
        self._key = None

    def __call__(self, p):
        try:
            return self.mapping[p]
        except KeyError:
            raise ValidationError(f"{p!r} is not a point of the domain") from None

    @property
    def values(self):
        """Images of the domain points in domain order; canonical form."""
        if self._values is None:
            self._values = tuple(self.mapping[p] for p in self.domain.points)
        return self._values

    @property
    def key(self):
        if self._key is None:
            self._key = (self.domain.key, self.codomain.key, self.values)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, DigitalMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.domain.points, self.codomain.points, self.values))

    def __repr__(self):
        return f"<DigitalMap {len(self.domain)}->{len(self.codomain)} points>"

    def is_injective(self):
        return len(set(self.values)) == len(self.domain)


def digital_map(domain, codomain, assignment):
    """Build a map from a dict or callable; validates totality and targets."""
    if callable(assignment) and not isinstance(assignment, dict):
        mapping = {p: assignment(p) for p in domain.points}
    else:
        mapping = dict(assignment)
    for p in domain.points:
        if p not in mapping:
            raise ValidationError(f"assignment misses domain point {p!r}")
        if mapping[p] not in codomain:
            raise ValidationError(
                f"assignment sends {p!r} to {mapping[p]!r}, not a codomain point"
            )
    if len(mapping) != len(domain.points):
        extra = sorted(set(mapping) - set(domain.points))
        raise ValidationError(f"assignment mentions non-domain points, e.g. {extra[0]!r}")
    return DigitalMap(domain, codomain, mapping)


def continuity_violation(f):
    """Lexicographically least domain edge whose endpoints map to
    non-equal, non-adjacent points; None when the map is continuous."""
    for a, b in f.domain.edges:
        if not f.codomain.adjacent_or_equal(f.mapping[a], f.mapping[b]):
            return (a, b)
    return None


def is_continuous(f):
    return continuity_violation(f) is None


def compose(g, f):
    """g after f; the inner codomain must be the outer domain exactly."""
    if f.codomain != g.domain:
        raise ValidationError("compose: codomain of the inner map must equal the outer domain")
    return DigitalMap(f.domain, g.codomain, {p: g.mapping[f.mapping[p]] for p in f.domain.points})


# --- canonical constructions ----------------------------------------------------


def identity_map(img):
    return DigitalMap(img, img, {p: p for p in img.points})


def constant_map(domain, codomain, target):
    if target not in codomain:
        raise ValidationError(f"constant target {target!r} is not a codomain point")
    return DigitalMap(domain, codomain, {p: target for p in domain.points})


def inclusion_map(sub, ambient):
    for p in sub.points:
        if p not in ambient:
            raise ValidationError(f"inclusion: {p!r} is not a point of the ambient image")
    return DigitalMap(sub, ambient, {p: p for p in sub.points})


def projection_map(product, index):
    """Projection onto the index-th factor (1-based) of a normal product."""
    if product.factors is None:
        raise ValidationError("projection needs an image with product factor structure")
    if not 1 <= index <= len(product.factors):
        raise ValidationError(
            f"projection index {index} out of range for {len(product.factors)} factors"
        )
    factor = product.factors[index - 1]
    return DigitalMap(
        product, factor, {p: product.split_point(p)[index - 1] for p in product.points}
    )


def diagonal_map(img, n=2, codomain=None):
    """The map a -> (a, ..., a) into the n-fold strong normal product."""
    if codomain is None:
        codomain = np_product([img] * n, n)
    return DigitalMap(img, codomain, {p: p * n for p in img.points})


def tuple_map(maps, codomain=None):
    """Combine maps with a common domain into one map to the product."""
    maps = list(maps)
    if not maps:
        raise ValidationError("tuple of zero maps")
    dom = maps[0].domain
    for f in maps[1:]:
        if f.domain != dom:
            raise ValidationError("tuple components must share a domain")
    if codomain is None:
        codomain = np_product([f.codomain for f in maps], len(maps))
    mapping = {}
    for p in dom.points:
        combined = tuple(c for f in maps for c in f.mapping[p])
        mapping[p] = combined
    return digital_map(dom, codomain, mapping)


def inverse_map(f):
    if not f.is_injective() or len(f.domain) != len(f.codomain):
        raise ValidationError("map is not bijective")
    return DigitalMap(f.codomain, f.domain, {v: p for p, v in f.mapping.items()})


def is_isomorphism(f):
    """Bijective, continuous, with continuous inverse."""
    if len(f.domain) != len(f.codomain) or not f.is_injective():
        return False
    if not is_continuous(f):
        return False
    return is_continuous(inverse_map(f))


# --- enumeration -----------------------------------------------------------------


def _search_order(img):
    """Domain points ordered so each point follows one of its neighbors when
    possible; tightens pruning during backtracking."""
    order = []
    placed = set()
    for start in img.points:
        if start in placed:
            continue
        queue = [start]
        placed.add(start)
        while queue:
            cur = queue.pop(0)
            order.append(cur)
            for nb in img.neighbors(cur):
                if nb not in placed:
                    placed.add(nb)
                    queue.append(nb)
    return order


def enumerate_continuous_maps(domain, codomain, *, surjective_only=False, cap=None, order="lex"):
    """Yield every continuous map, deterministically.

    ``order='lex'`` yields maps sorted by their value tuple in domain point
    order; ``order='search'`` uses a neighbor-first point order that prunes
    faster but yields in an internal order.  Raises CapExceeded after
    ``cap`` maps have been produced.
    """
    if order == "lex":
        points = list(domain.points)
    elif order == "search":
        points = _search_order(domain)
    else:
        raise ValidationError(f"unknown enumeration order {order!r}")
    n = len(points)
    targets = codomain.points
    need = len(codomain) if surjective_only else 0
    earlier = []
    pos = {p: i for i, p in enumerate(points)}
    for i, p in enumerate(points):
        earlier.append([pos[q] for q in domain.neighbors(p) if pos[q] < i])
    adj_ok = codomain.adjacent_or_equal
    assign = [None] * n
    produced = 0

    def rec(i, used):
        nonlocal produced
        if i == n:
            if surjective_only and len(used) < need:
                return
            produced += 1
            if cap is not None and produced > cap:
                raise CapExceeded(
                    f"map enumeration exceeded cap of {cap}", cap_name="max_probe_maps"
                )
            yield DigitalMap(domain, codomain, dict(zip(points, assign)))
            return
        if surjective_only and need - len(used) > n - i:
            return
        for v in targets:
            ok = True
            for j in earlier[i]:
                if not adj_ok(assign[j], v):
                    ok = False
                    break
            if not ok:
                continue
            assign[i] = v
            new = v not in used
            if new:
                used.add(v)
            yield from rec(i + 1, used)
            if new:
                used.discard(v)
        assign[i] = None

    yield from rec(0, set())


def count_continuous_maps(domain, codomain, cap=None):
    return sum(1 for _ in enumerate_continuous_maps(domain, codomain, cap=cap))


def random_continuous_map(domain, codomain, rng):
    """A continuous map sampled by randomized backtracking.

    Always succeeds since constant maps exist; the rng makes sampling
    reproducible from a seed.
    """
    points = _search_order(domain)
    pos = {p: i for i, p in enumerate(points)}
    earlier = [
        [pos[q] for q in domain.neighbors(p) if pos[q] < i] for i, p in enumerate(points)
    ]
    adj_ok = codomain.adjacent_or_equal
    assign = [None] * len(points)

    def rec(i):
        if i == len(points):
            return True
        candidates = list(codomain.points)
        rng.shuffle(candidates)
        for v in candidates:
            if all(adj_ok(assign[j], v) for j in earlier[i]):
                assign[i] = v
                if rec(i + 1):
                    return True
        assign[i] = None
        return False

    rec(0)
    return DigitalMap(domain, codomain, dict(zip(points, assign)))


# --- JSON ------------------------------------------------------------------------


def map_to_json(f):
    return {
        "domain": image_to_json(f.domain),
        "codomain": image_to_json(f.codomain),
        "assignment": [
            [list(p), list(f.mapping[p])] for p in f.domain.points
        ],
    }


def _image_ref_from_json(obj, base_dir, where):
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) or base_dir is None else os.path.join(base_dir, obj)
        return lattice.load_image(path)
    if isinstance(obj, dict):
        return image_from_json(obj)
    raise ValidationError(f"{where}: expected an image object or a file path")


def map_from_json(obj, base_dir=None):
    if not isinstance(obj, dict):
        raise ValidationError("map document must be a JSON object")
    for field in ("domain", "codomain", "assignment"):
        if field not in obj:
            raise ValidationError(f"map document missing '{field}'")
    domain = _image_ref_from_json(obj["domain"], base_dir, "domain")
    codomain = _image_ref_from_json(obj["codomain"], base_dir, "codomain")
    assignment = {}
    for i, entry in enumerate(lattice._json_array(obj["assignment"], "map assignment")):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValidationError(f"assignment[{i}]: expected a [source, target] pair")
        src = lattice._point_from_json(entry[0], f"assignment[{i}][0]")
        dst = lattice._point_from_json(entry[1], f"assignment[{i}][1]")
        if src in assignment:
            raise ValidationError(f"assignment[{i}]: duplicate source {src!r}")
        assignment[src] = dst
    return digital_map(domain, codomain, assignment)


def load_map(path):
    obj = lattice._read_json(path)
    return map_from_json(obj, base_dir=os.path.dirname(os.path.abspath(path)))
