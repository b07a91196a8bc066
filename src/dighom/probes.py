"""Probe complexes: the small test images quantified over by m-invariants.

An m-probe is a finite connected digital image embedded in Z^m.  Families
of probes stand in for the quantifier "for every continuous map from every
m-dimensional complex": the invariants computed against a finite family
are relative to it, which the solver records in every report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import CapExceeded, ValidationError
from . import lattice
from .lattice import CP, DigitalImage, build_image
from .maps import enumerate_continuous_maps

CANONICAL_CAP = 8


@dataclass(frozen=True)
class ProbeComplex:
    """One probe: a connected digital image whose ambient dimension is m."""

    name: str
    image: DigitalImage

    def __post_init__(self):
        if not self.image.is_connected():
            raise ValidationError(f"probe {self.name!r} must be connected")

    @property
    def dimension(self):
        return self.image.dim


@dataclass(frozen=True)
class ProbeFamily:
    m: int
    complexes: tuple  # of ProbeComplex
    max_maps: Optional[int] = None
    name: str = ""

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("probe family dimension must be at least 1")
        for probe in self.complexes:
            if probe.dimension != self.m:
                raise ValidationError(
                    f"probe {probe.name!r} has dimension {probe.dimension}, family has m={self.m}"
                )
        if self.max_maps is not None and self.max_maps < 1:
            raise ValidationError("max_maps cap must be positive")

    def __iter__(self):
        return iter(self.complexes)


def canonical_key(img, cap=CANONICAL_CAP):
    """Canonical bytes; equal exactly for digitally isomorphic images.

    Minimizes the adjacency bitstring over the labelings that list points
    in nondecreasing degree order.  Isomorphisms preserve degree classes,
    so the minimum over this restricted set is still a complete invariant,
    and equal keys force a shared adjacency matrix, hence an isomorphism.
    """
    n = len(img)
    if n > cap:
        raise CapExceeded(
            f"canonicalization limited to {cap} points, image has {n}",
            cap_name="canonical_cap",
        )
    pts = list(img.points)
    deg = {p: len(img.neighbors(p)) for p in pts}
    by_degree = {}
    for p in pts:
        by_degree.setdefault(deg[p], []).append(p)
    classes = [sorted(by_degree[d]) for d in sorted(by_degree)]
    degrees = tuple(sorted(deg.values()))
    best = None
    for perms in itertools.product(*(itertools.permutations(c) for c in classes)):
        order = [p for block in perms for p in block]
        pos = {p: i for i, p in enumerate(order)}
        bits = 0
        for a, b in img.edges:
            i, j = pos[a], pos[b]
            if i > j:
                i, j = j, i
            bits |= 1 << (i * n + j)
        if best is None or bits < best:
            best = bits
    return f"{n}:{degrees}:{best:x}".encode()


def _connected_subsets(points, nbrs, max_size):
    """Every connected subset of size <= max_size, each exactly once.

    Standard ESU enumeration: grow from each anchor using only points
    greater than the anchor, extending with unseen neighbors.
    """
    pts = sorted(points)
    out = []

    def extend(sub, ext, anchor, seen):
        out.append(frozenset(sub))
        if len(sub) == max_size:
            return
        while ext:
            w = ext.pop()
            fresh = [u for u in nbrs[w] if u > anchor and u not in seen]
            seen.update(fresh)
            extend(sub + [w], sorted(ext + fresh, reverse=True), anchor, seen)
            seen.difference_update(fresh)

    for anchor in pts:
        seed = [u for u in nbrs[anchor] if u > anchor]
        extend([anchor], sorted(seed, reverse=True), anchor, set(seed) | {anchor})
    return out


def generate_probes(m, max_points, box, max_maps=None):
    """All connected images with at most max_points points inside [0, box]^m,
    over every adjacency c_p with p <= m, deduplicated up to isomorphism."""
    if m < 1 or max_points < 1 or box < 1:
        raise ValidationError("m, max_points and box must all be positive")
    if max_points > CANONICAL_CAP:
        raise CapExceeded(
            f"probe generation needs canonical keys, capped at {CANONICAL_CAP} points",
            cap_name="canonical_cap",
        )
    grid = [p for p in itertools.product(range(box + 1), repeat=m)]
    seen = {}
    for p in range(1, m + 1):
        nbrs = {
            a: sorted(b for b in grid if lattice.cp_adjacent(a, b, p)) for a in grid
        }
        for subset in _connected_subsets(grid, nbrs, max_points):
            img = build_image(sorted(subset), CP(p))
            key = canonical_key(img)
            prev = seen.get(key)
            cand = (len(img), img.points, p)
            if prev is None or cand < (len(prev), prev.points, prev.spec.p):
                seen[key] = img
    reps = sorted(seen.items(), key=lambda kv: (len(kv[1]), kv[0]))
    complexes = []
    for i, (key, img) in enumerate(reps):
        named = DigitalImage(
            img.points, img.spec, img._edge_set, name=f"probe{i}-{len(img)}p"
        )
        complexes.append(ProbeComplex(named.name, named))
    return ProbeFamily(
        m, tuple(complexes), max_maps, name=f"generated-m{m}-k{max_points}-b{box}"
    )


def _named_probe(name, points, spec=CP(1)):
    return ProbeComplex(name, build_image(points, spec, name=name))


def standard_m2(max_maps=None):
    """The default family: point, intervals of 2 to 4 points, the 4-cycle
    and the 8-point ring, all with c_1 adjacency in Z^2.

    Interval probes alone are degenerate (their composites are always
    nullhomotopic into connected codomains), so the two cycles carry the
    discriminating power of the family.
    """
    ring8 = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    complexes = (
        _named_probe("point", [(0, 0)]),
        _named_probe("interval2", [(0, 0), (1, 0)]),
        _named_probe("interval3", [(0, 0), (1, 0), (2, 0)]),
        _named_probe("interval4", [(0, 0), (1, 0), (2, 0), (3, 0)]),
        _named_probe("cycle4", [(0, 0), (1, 0), (1, 1), (0, 1)]),
        _named_probe("cycle8", ring8),
    )
    return ProbeFamily(2, complexes, max_maps, name="standard-m2")


def enumerate_maps(probe, target, surjective_only=False, caps=None):
    """Continuous maps from a probe into a target image, deterministically.

    ``probe`` may be a ProbeComplex or a bare image.  Surjective-only mode
    yields just the maps whose image is the whole target.  The cap comes
    from ``caps.max_probe_maps`` when given.
    """
    source = probe.image if isinstance(probe, ProbeComplex) else probe
    cap = caps.max_probe_maps if caps is not None else None
    return enumerate_continuous_maps(
        source, target, surjective_only=surjective_only, cap=cap, order="search"
    )


# --- JSON ----------------------------------------------------------------------


def family_to_json(family):
    return {
        "name": family.name,
        "m": family.m,
        "complexes": [lattice.image_to_json(p.image) for p in family.complexes],
        "caps": {"max_maps": family.max_maps},
    }


def family_from_json(obj):
    if not isinstance(obj, dict):
        raise ValidationError("probe family document must be a JSON object")
    for field in ("m", "complexes"):
        if field not in obj:
            raise ValidationError(f"probe family document missing '{field}'")
    m = obj["m"]
    if not isinstance(m, int) or m < 1:
        raise ValidationError(f"family m must be a positive integer, got {m!r}")
    complexes = []
    for i, sub in enumerate(lattice._json_array(obj["complexes"], "family complexes")):
        img = lattice.image_from_json(sub)
        name = img.name or f"probe{i}-{len(img)}p"
        complexes.append(ProbeComplex(name, img))
    caps = obj.get("caps") or {}
    if not isinstance(caps, dict):
        raise ValidationError("family caps must be an object")
    max_maps = caps.get("max_maps")
    if max_maps is not None and not isinstance(max_maps, int):
        raise ValidationError("max_maps must be an integer or null")
    name = obj.get("name", "")
    return ProbeFamily(m, tuple(complexes), max_maps, name=name)


def load_family(path_or_name):
    """Load a family from JSON, or build a named built-in like standard-m2."""
    if path_or_name == "standard-m2":
        return standard_m2()
    return family_from_json(lattice._read_json(path_or_name))

