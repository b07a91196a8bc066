import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from dighom.errors import CapExceeded, ValidationError
from dighom.lattice import CP, build_image, interval_image
from dighom.probes import (
    ProbeComplex,
    ProbeFamily,
    _connected_subsets,
    canonical_key,
    enumerate_maps,
    family_from_json,
    family_to_json,
    generate_probes,
    load_family,
    standard_m2,
)

from conftest import RING8, SQUARE


def test_canonical_key_isomorphism_invariant(r8):
    shifted = build_image([(x + 5, y + 7) for x, y in RING8], CP(1))
    rotated = build_image([(y, 2 - x) for x, y in RING8], CP(1))
    assert canonical_key(r8) == canonical_key(shifted)
    assert canonical_key(r8) == canonical_key(rotated)


def test_canonical_key_separates_non_isomorphic(c4, k4_square):
    path4 = interval_image(0, 3)
    embedded_path = build_image([(i, 0) for i in range(4)], CP(1))
    keys = {canonical_key(c4), canonical_key(k4_square),
            canonical_key(embedded_path)}
    assert len(keys) == 3
    # Dimension of the ambient lattice does not matter, only the graph.
    assert canonical_key(path4) == canonical_key(embedded_path)


def test_canonical_key_cap():
    big = build_image([(i,) for i in range(9)], CP(1))
    with pytest.raises(CapExceeded):
        canonical_key(big)


def test_generated_family_m2_k4_b1():
    fam = generate_probes(2, 4, 1)
    assert fam.m == 2
    shapes = sorted((len(p.image), len(p.image.edges)) for p in fam.complexes)
    # Connected graphs on the 4 corners of a unit square, up to isomorphism:
    # point, edge, 3-path, triangle, 4-cycle and the complete graph K4.
    assert shapes == [(1, 0), (2, 1), (3, 2), (3, 3), (4, 4), (4, 6)]
    keys = {canonical_key(p.image) for p in fam.complexes}
    assert len(keys) == len(fam.complexes)


def test_generated_family_validates_arguments():
    with pytest.raises(ValidationError):
        generate_probes(0, 4, 1)
    with pytest.raises(ValidationError):
        generate_probes(2, 4, 0)
    with pytest.raises(CapExceeded):
        generate_probes(1, 9, 9)


def test_connected_subsets_match_brute_force():
    grid = list(itertools.product(range(2), repeat=2))
    nbrs = {a: sorted(b for b in grid if a != b and
                      max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1 and
                      sum(abs(a[i] - b[i]) for i in range(2)) == 1)
            for a in grid}

    def connected(sub):
        sub = set(sub)
        seen = {next(iter(sub))}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for y in nbrs[x]:
                if y in sub and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen == sub

    brute = {frozenset(c)
             for size in range(1, 4)
             for c in itertools.combinations(grid, size)
             if connected(c)}
    fast = set(_connected_subsets(grid, nbrs, 3))
    assert fast == brute


def test_standard_family_contents(family):
    assert family.m == 2
    assert [p.name for p in family.complexes] == [
        "point", "interval2", "interval3", "interval4", "cycle4", "cycle8",
    ]
    sizes = [len(p.image) for p in family.complexes]
    assert sizes == [1, 2, 3, 4, 4, 8]
    assert load_family("standard-m2").name == family.name


def test_family_json_round_trip(family, tmp_path):
    blob = family_to_json(family)
    back = family_from_json(blob)
    assert back.m == family.m
    assert [p.name for p in back.complexes] == [p.name for p in family.complexes]
    for mine, theirs in zip(family.complexes, back.complexes):
        assert canonical_key(mine.image) == canonical_key(theirs.image)
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(blob))
    assert load_family(str(path)).m == 2


def test_family_json_rejects_malformed():
    with pytest.raises(ValidationError):
        family_from_json([1, 2, 3])
    with pytest.raises(ValidationError):
        family_from_json({"m": 2})
    with pytest.raises(ValidationError):
        family_from_json({"m": "two", "complexes": []})


def test_family_needs_a_probe():
    with pytest.raises(ValidationError):
        ProbeFamily(2, ())
    with pytest.raises(ValidationError):
        family_from_json({"m": 2, "complexes": []})


def test_family_dimension_mismatch():
    flat = ProbeComplex("iv1", interval_image(0, 1))
    with pytest.raises(ValidationError):
        ProbeFamily(m=2, complexes=(flat,))


def test_probe_must_be_connected():
    scattered = build_image([(0, 0), (5, 5)], CP(1))
    with pytest.raises(ValidationError):
        ProbeComplex("gap", scattered)


def test_enumerate_maps_counts(family, c4):
    interval2 = family.complexes[1]
    maps = list(enumerate_maps(interval2, c4))
    assert len(maps) == 12
    point = family.complexes[0]
    assert len(list(enumerate_maps(point, c4))) == 4
    onto = list(enumerate_maps(interval2,
                               build_image([(0,), (1,)], CP(1)),
                               surjective_only=True))
    assert len(onto) == 2


@given(st.integers(1, 3))
@settings(max_examples=6, deadline=None)
def test_generated_probes_are_sorted_and_connected(k):
    fam = generate_probes(1, k, 2)
    sizes = [len(p.image) for p in fam.complexes]
    assert sizes == sorted(sizes)
    for p in fam.complexes:
        assert p.image.is_connected()
    # In one dimension the connected images are exactly the intervals.
    assert sizes == list(range(1, k + 1))
