import json

import pytest
from hypothesis import given, settings, strategies as st

from dighom import CP, NP, build_image, np_product, induced_subimage
from dighom.errors import ValidationError
from dighom.lattice import (
    Explicit,
    cp_adjacent,
    dominance_violation,
    dominates,
    image_from_json,
    image_to_json,
    interval_image,
    load_image,
    normalize_edge,
)

from conftest import RING8, SQUARE


def test_cp_adjacency_basic():
    assert cp_adjacent((0, 0), (1, 0), 1)
    assert not cp_adjacent((0, 0), (1, 1), 1)
    assert cp_adjacent((0, 0), (1, 1), 2)
    assert not cp_adjacent((0, 0), (2, 0), 2)
    assert not cp_adjacent((0, 0), (0, 0), 1)


def test_square_under_cp1_is_a_cycle(c4):
    expected = {
        normalize_edge((0, 0), (1, 0)),
        normalize_edge((1, 0), (1, 1)),
        normalize_edge((1, 1), (0, 1)),
        normalize_edge((0, 1), (0, 0)),
    }
    assert set(c4.edges) == expected


def test_square_under_cp2_is_complete(k4_square):
    assert len(k4_square.edges) == 6


def test_ring8_shape(r8):
    assert len(r8.points) == 8
    assert len(r8.edges) == 8
    assert len(r8.components()) == 1
    degrees = {p: len(r8.neighbors(p)) for p in r8.points}
    assert set(degrees.values()) == {2}


def test_np1_of_two_intervals_is_a_cycle(i1):
    prod = np_product([i1, i1], 1)
    assert len(prod.points) == 4
    assert len(prod.edges) == 4
    degrees = [len(prod.neighbors(p)) for p in prod.points]
    assert degrees == [2, 2, 2, 2]


def test_np2_equals_cp2_on_a_grid():
    iv = interval_image(0, 3)
    prod = np_product([iv, iv], 2)
    grid = build_image([(a, b) for a in range(4) for b in range(4)], CP(2))
    assert set(prod.points) == set(grid.points)
    assert set(prod.edges) == set(grid.edges)


def test_induced_subimage_edge_and_antipodal(c4):
    edge = induced_subimage(c4, {(0, 0), (1, 0)})
    assert len(edge.edges) == 1
    anti = induced_subimage(c4, {(0, 0), (1, 1)})
    assert len(anti.edges) == 0
    assert len(anti.components()) == 2


def test_induced_subimage_requires_subset(c4):
    with pytest.raises(ValidationError):
        induced_subimage(c4, {(5, 5)})


def test_dominance_on_square():
    assert dominates(CP(1), CP(2), SQUARE)
    assert not dominates(CP(2), CP(1), SQUARE)
    witness = dominance_violation(CP(2), CP(1), SQUARE)
    assert witness is not None
    a, b = witness
    assert cp_adjacent(a, b, 2) and not cp_adjacent(a, b, 1)


def test_np_partial_vs_full_move_counts(i1):
    # With m=1 only one factor may step at a time; m=2 allows the diagonal.
    p1 = np_product([i1, i1], 1)
    p2 = np_product([i1, i1], 2)
    assert normalize_edge((0, 0), (1, 1)) not in set(p1.edges)
    assert normalize_edge((0, 0), (1, 1)) in set(p2.edges)


def test_image_json_round_trip(r8, tmp_path):
    blob = image_to_json(r8)
    back = image_from_json(blob)
    assert set(back.points) == set(r8.points)
    assert set(back.edges) == set(r8.edges)
    assert back.name == r8.name
    path = tmp_path / "r8.json"
    path.write_text(json.dumps(blob))
    loaded = load_image(str(path))
    assert set(loaded.edges) == set(r8.edges)


def test_product_json_keeps_factor_structure(r8):
    prod = np_product([r8, r8], 2)
    back = image_from_json(image_to_json(prod))
    assert back.is_np_full
    assert back.factors is not None
    assert set(back.edges) == set(prod.edges)


def test_build_image_validation():
    with pytest.raises(ValidationError):
        build_image([(0, 0), (1,)], CP(1))
    with pytest.raises(ValidationError):
        build_image([(0, 0)], CP(3))  # p exceeds the dimension
    with pytest.raises(ValidationError):
        build_image([], CP(1))


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"points": [[0, 0]], ')
    with pytest.raises(ValidationError) as err:
        load_image(str(path))
    assert "broken.json" in str(err.value)


points_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    min_size=1, max_size=9, unique=True,
)


@given(points_strategy)
@settings(max_examples=60, deadline=None)
def test_cp2_edges_contain_cp1_edges(pts):
    sparse = build_image(pts, CP(1))
    dense = build_image(pts, CP(2))
    assert set(sparse.edges) <= set(dense.edges)


@given(points_strategy, st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_induced_edges_are_restricted_ambient_edges(pts, pick):
    img = build_image(pts, CP(2))
    subset = frozenset(p for i, p in enumerate(sorted(pts)) if (pick >> i) & 1)
    if not subset:
        subset = frozenset([sorted(pts)[0]])
    sub = induced_subimage(img, subset)
    expected = {e for e in img.edges if e[0] in subset and e[1] in subset}
    assert set(sub.edges) == expected


def test_ring8_is_chordless(r8):
    cyc = RING8
    for i in range(8):
        for j in range(i + 1, 8):
            adjacent = normalize_edge(cyc[i], cyc[j]) in set(r8.edges)
            consecutive = (j - i) in (1, 7)
            assert adjacent == consecutive


def _explicit_graph(size, pairs):
    edges = frozenset(normalize_edge((a % size,), (b % size,))
                      for a, b in pairs if a % size != b % size)
    return build_image([(i,) for i in range(size)], Explicit(edges))


def _ring_piece(subset):
    return induced_subimage(build_image(RING8, CP(1)), subset)


small_factors = st.one_of(
    st.integers(0, 2).map(lambda b: interval_image(0, b)),
    st.just(SQUARE).map(lambda pts: build_image(pts, CP(1))),
    st.builds(_explicit_graph, st.integers(1, 4),
              st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5)),
    st.sets(st.sampled_from(RING8), min_size=1, max_size=5).map(_ring_piece),
)


@given(st.lists(small_factors, min_size=1, max_size=3), st.data())
@settings(max_examples=60, deadline=None)
def test_product_equals_product_derived_from_its_spec(factors, data):
    """np_product builds its edges from the factors; build_image derives them
    from the NP spec; both give the same image."""
    m = data.draw(st.integers(1, len(factors)))
    prod = np_product(factors, m)
    eager = build_image(prod.points, prod.spec)
    assert prod.points == eager.points
    assert prod.edges == eager.edges
    for p in prod.points:
        assert prod.neighbors(p) == eager.neighbors(p)
        assert prod.component_id(p) == eager.component_id(p)
    assert prod.components() == eager.components()
    assert prod.key == eager.key
    assert prod == eager and eager == prod
    assert hash(prod) == hash(eager)
    back = image_from_json(image_to_json(prod))
    assert back == prod and prod == back


def test_product_equality_and_hash_leave_edges_unbuilt(r8, product_builds):
    big, again = np_product([r8] * 4, 4), np_product([r8] * 4, 4)
    assert big == again and hash(big) == hash(again)
    assert product_builds == []
    assert np_product([r8] * 2, 2) != np_product([r8] * 2, 1)
    assert product_builds == [64, 64]
