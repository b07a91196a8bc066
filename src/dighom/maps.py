"""Maps between digital images and their continuity calculus.

A map is continuous when adjacent points land on equal or adjacent points.
That single condition drives everything here: composition, isomorphism,
and exhaustive enumeration of the continuous maps between two images.

Every walk over continuous maps but ``random_continuous_map`` streams a
backtracking placement table (``_Placement``): map spaces, probe maps and
``homotopy``'s frame moves.  The table owns the point order, and each of
its streams owns its enumeration cap; a homotopy search owns its
visited-maps cap.
"""

from __future__ import annotations

import os

from .errors import CapExceeded, ValidationError
from . import lattice
from .lattice import image_from_json, image_to_json, np_product


class DigitalMap:
    """A total function between the point sets of two images.  Its mapping
    is not changed once the map is built, so its values and hash are
    computed once."""

    __slots__ = ("domain", "codomain", "mapping", "_values", "_hash")

    def __init__(self, domain, codomain, mapping):
        self.domain = domain
        self.codomain = codomain
        self.mapping = mapping
        self._values = None
        self._hash = None

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

    def __eq__(self, other):
        if not isinstance(other, DigitalMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.values == other.values
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.domain.points, self.codomain.points, self.values))
        return self._hash

    def __repr__(self):
        return f"<DigitalMap {len(self.domain)}->{len(self.codomain)} points>"


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


def projection_map(product, index):
    """Projection onto the index-th factor (1-based) of a normal product."""
    if product.factors is None:
        raise ValidationError("projection needs an image with product factor structure")
    if not 1 <= index <= len(product.factors):
        raise ValidationError(
            f"projection index {index} out of range for {len(product.factors)} factors"
        )
    factor = product.factors[index - 1]
    a, b = product._offsets[index - 1]
    return DigitalMap(product, factor, {p: p[a:b] for p in product.points})


def diagonal_map(img, n=2, codomain=None):
    """The map a -> (a, ..., a) into the n-fold strong normal product."""
    if codomain is None:
        codomain = np_product([img] * n, n)
    return DigitalMap(img, codomain, {p: p * n for p in img.points})


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


class _Placement:
    """The backtracking table of the continuous maps from one domain into
    one codomain, built once and streamed many times; streams may
    interleave.

    Points are placed in domain order (``'lex'``) or ``_search_order``
    (``'search'``).  Step i places domain position ``slot[i]``, whose
    placed neighbours are at ``placed[i]``: ``anchor[i]`` first, then
    ``checks[i]``.  Its candidates are the closed neighbourhood (``nbhd``,
    ``near`` as sets) of the anchor's value, or every codomain point,
    less those outside the others'.  Neighbourhoods are sorted like the
    codomain, so a stream is the filtered itertools.product over the
    placement order, read back in domain order.
    """

    def __init__(self, domain, codomain, order="lex"):
        if order == "lex":
            points = list(domain.points)
        elif order == "search":
            points = _search_order(domain)
        else:
            raise ValidationError(f"unknown enumeration order {order!r}")
        self.n = len(points)
        self.targets = codomain.points
        self.nbhd = {v: codomain.closed_neighborhood(v) for v in self.targets}
        self.near = {v: frozenset(c) for v, c in self.nbhd.items()}
        pos = {p: i for i, p in enumerate(points)}
        dpos = {p: i for i, p in enumerate(domain.points)}
        self.slot = [dpos[p] for p in points]
        self.placed = [[dpos[q] for q in domain.neighbors(p) if pos[q] < i]
                       for i, p in enumerate(points)]
        self.anchor = [earlier[0] if earlier else None for earlier in self.placed]
        self.checks = [earlier[1:] for earlier in self.placed]

    def stream(self, *, within=None, surjective_only=False, cap=None):
        """An iterator over the value tuples, in domain order, of every
        continuous map, or only of those that keep each point within the
        closed neighbourhood of its value in the tuple ``within``, which is
        among them.  Raises CapExceeded after ``cap`` tuples."""
        n, slot, placed = self.n, self.slot, self.placed
        anchor, checks = self.anchor, self.checks
        targets, nbhd, near = self.targets, self.nbhd, self.near
        need = len(targets) if surjective_only else 0
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
                yield tuple(assign)
                return
            if surjective_only and need - len(used) > n - i:
                return
            a, at = anchor[i], slot[i]
            if within is not None:
                pool, others = nbhd[within[at]], placed[i]
            elif a is None:
                pool, others = targets, ()
            else:
                pool, others = nbhd[assign[a]], checks[i]
            for v in pool:
                for j in others:
                    if v not in near[assign[j]]:
                        break
                else:
                    assign[at] = v
                    if surjective_only and v not in used:
                        used.add(v)
                        yield from rec(i + 1, used)
                        used.discard(v)
                    else:
                        yield from rec(i + 1, used)

        return rec(0, set())


def continuous_value_tuples(domain, codomain, *, surjective_only=False, cap=None,
                            order="lex"):
    """An iterator over the value tuple, in domain point order, of every
    continuous map, deterministically; the one enumeration of a whole map
    space, which ``enumerate_continuous_maps`` wraps.

    ``order='lex'`` yields the tuples sorted; ``order='search'`` places
    points in a neighbor-first order that prunes faster but yields in an
    internal order.  Raises CapExceeded after ``cap`` tuples have been
    produced.
    """
    return _Placement(domain, codomain, order).stream(surjective_only=surjective_only,
                                                      cap=cap)


def enumerate_continuous_maps(domain, codomain, *, surjective_only=False, cap=None, order="lex"):
    """Yield every continuous map, in the order and under the cap of
    ``continuous_value_tuples``."""
    points = domain.points
    for values in continuous_value_tuples(domain, codomain, surjective_only=surjective_only,
                                          cap=cap, order=order):
        f = DigitalMap(domain, codomain, dict(zip(points, values)))
        f._values = values
        yield f


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
