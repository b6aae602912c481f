"""Deterministic and W-random graph construction, pixel pictures."""

import numpy as np
import pytest

from kmflow.graphon import _TOEPLITZ_NODES, MAX_NODES, Graphon, StepGraphon
from kmflow.graphs import (
    WeightedGraph,
    deterministic_graph,
    pixel_picture,
    sample_w_random,
)
from kmflow.io import write_matrix_csv
from oracles import peak_traced


def test_deterministic_constant():
    g = deterministic_graph(Graphon.constant(0.5), 3)
    assert np.allclose(g.weights, 0.5)


def test_deterministic_matches_cell_average():
    W = Graphon.small_world(0.1, 0.25)
    g = deterministic_graph(W, 8)
    assert np.array_equal(g.weights, W.cell_average(8).values)
    assert g.weights[0, 0] == pytest.approx(0.9)  # fully inside the band


def test_deterministic_nearest_neighbor_inner_weight():
    g = deterministic_graph(Graphon.nearest_neighbor(0.25), 4)
    assert g.weights[0, 0] == pytest.approx(1.0)


def test_deterministic_symmetry():
    for W in (Graphon.small_world(0.2, 0.3), Graphon.constant(-0.4)):
        g = deterministic_graph(W, 7)
        assert np.array_equal(g.weights, g.weights.T)


def test_sample_complete_and_empty():
    full = sample_w_random(Graphon.constant(1.0), 5, seed=1)
    assert np.array_equal(full.weights, np.ones((5, 5)))
    empty = sample_w_random(Graphon.constant(0.0), 5, seed=1)
    assert np.array_equal(empty.weights, np.zeros((5, 5)))


def test_sample_rejects_signed_kernels():
    with pytest.raises(ValueError, match="probability"):
        sample_w_random(Graphon.constant(-0.5), 4, seed=0)


@pytest.mark.parametrize("seed", [1.7, True, -1, 2**64])
def test_sample_rejects_a_seed_that_is_not_a_uint64(seed):
    with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, 2\*\*64\) "
                                         rf"\(got {seed!r}\)$"):
        sample_w_random(Graphon.constant(0.5), 16, seed)


def test_sample_same_seed_bit_identical():
    W = Graphon.small_world(0.2, 0.3)
    a = sample_w_random(W, 40, seed=123)
    b = sample_w_random(W, 40, seed=123)
    assert np.array_equal(a.weights, b.weights)


def test_sample_different_seeds_differ():
    W = Graphon.constant(0.5)
    a = sample_w_random(W, 30, seed=1)
    b = sample_w_random(W, 30, seed=2)
    assert not np.array_equal(a.weights, b.weights)


def test_sample_density_concentration():
    # upper-triangle edge density of ER(0.5) at n=1000 concentrates at 0.5
    W = Graphon.constant(0.5)
    n = 1000
    pairs = n * (n - 1) / 2
    margin = 3.0 * np.sqrt(0.25 / pairs)
    iu = np.triu_indices(n, k=1)
    for seed in range(10):
        g = sample_w_random(W, n, seed=seed)
        density = g.weights[iu].mean()
        assert abs(density - 0.5) <= margin


def test_sample_empirical_edge_probabilities():
    # mean of each sampled weight over many seeds approaches the cell average
    W = Graphon.small_world(0.2, 0.3)
    n = 3
    probs = W.cell_average(n).values
    trials = 10_000
    acc = np.zeros((n, n))
    for seed in range(trials):
        acc += sample_w_random(W, n, seed=seed).weights
    mean = acc / trials
    se = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / trials)
    assert np.all(np.abs(mean - probs) <= 4.0 * se + 1e-12)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_sample_matches_per_pair_philox_oracle(n):
    # pair (i, j), i <= j, is drawn at position j - i of the stream keyed (seed, i);
    # band and constant kernels take their probabilities from the diagonals
    step = Graphon.step([[0.9, 0.2, 0.5], [0.2, 0.7, 0.1], [0.5, 0.1, 0.4]])
    for W in (Graphon.small_world(0.2, 0.3), Graphon.nearest_neighbor(0.2),
              Graphon.constant(0.3), step):
        probs = W.cell_average(n).values
        for seed in (7, 2**64 - 1):
            expected = np.zeros((n, n))
            for i in range(n):
                key = [np.uint64(seed), np.uint64(i)]
                u = np.random.Generator(np.random.Philox(key=key)).random(n - i)
                for j in range(i, n):
                    expected[i, j] = expected[j, i] = float(u[j - i] < probs[i, j])
            g = sample_w_random(W, n, seed=seed)
            assert np.array_equal(g.weights, expected)
            assert n == 1 or 0 < expected.sum() < n * n


def test_weights_within_clip_slack_are_clipped():
    weights = np.ones((3, 3))
    weights[0, 0] = 1.0 + 5e-10
    assert WeightedGraph(weights).weights[0, 0] == 1.0


def test_capacity_limit():
    with pytest.raises(ValueError, match="nodes"):
        deterministic_graph(Graphon.constant(0.5), MAX_NODES + 1)
    with pytest.raises(ValueError):
        WeightedGraph(np.zeros((MAX_NODES + 1, MAX_NODES + 1)))


def test_pixel_picture_extremes():
    full = WeightedGraph(np.ones((4, 4)))
    assert np.array_equal(pixel_picture(full), np.zeros((4, 4), dtype=np.uint8))
    empty = WeightedGraph(np.zeros((4, 4)))
    assert np.array_equal(pixel_picture(empty), np.full((4, 4), 255, dtype=np.uint8))


def test_pixel_picture_band_geometry():
    # nearest-neighbor h=0.25 at n=64: cells within diagonal offset 15 are
    # fully inside the band (black), offsets 17..47 fully outside (white),
    # and offset exactly 16 is covered half (mid gray), wrapping at corners.
    g = deterministic_graph(Graphon.nearest_neighbor(0.25), 64)
    img = pixel_picture(g)
    idx = np.arange(64)
    d = np.abs(idx[:, None] - idx[None, :])
    ring = np.minimum(d, 64 - d)
    assert np.all(img[ring <= 15] == 0)
    assert np.all(img[(ring >= 17) & (ring <= 47)] == 255)
    assert np.all(img[ring == 16] == 128)


@pytest.mark.parametrize("h", [0.1, 0.2])
def test_band_averages_nonnegative_and_sampleable(h):
    # band areas are differences of rounded areas; an empty cell must not come
    # out as a tiny negative probability that the sampler rejects
    W = Graphon.nearest_neighbor(h)
    for n in range(1, 301):
        assert W.cell_average(n).values.min() >= 0.0
        sample_w_random(W, n, seed=n)


def test_toeplitz_graph_stores_diagonals_only():
    W = Graphon.small_world(0.1, 0.25)
    g, peak = peak_traced(lambda: deterministic_graph(W, 4096))
    assert peak < 2**20
    assert g.weights.shape == (4096, 4096) and not g.weights.flags.writeable
    assert not g._diagonals.flags.writeable
    with pytest.raises(ValueError):
        g.weights[0, 0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 7, 64, _TOEPLITZ_NODES])
def test_toeplitz_graph_reads_like_its_dense_copy(n, tmp_path):
    for W in (Graphon.constant(-0.4), Graphon.small_world(0.2, 0.3),
              Graphon.nearest_neighbor(0.2)):
        g = deterministic_graph(W, n)
        assert (g._diagonals is not None) == (n >= _TOEPLITZ_NODES)
        dense = WeightedGraph(np.array(g.weights))
        assert np.array_equal(g.weights, W.cell_average(n).values)
        assert np.array_equal(pixel_picture(g), pixel_picture(dense))
        assert g.weights.sum() == pytest.approx(dense.weights.sum(), rel=1e-13, abs=1e-13)
        write_matrix_csv(tmp_path / "toeplitz.csv", g.weights)
        write_matrix_csv(tmp_path / "dense.csv", dense.weights)
        assert (tmp_path / "toeplitz.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


@pytest.mark.parametrize("n", [1, 7, 255, 256, 257, _TOEPLITZ_NODES - 1, _TOEPLITZ_NODES,
                               _TOEPLITZ_NODES + 1, 1000])
def test_toeplitz_storage_rule(n):
    # dense below the size constant, read-only diagonals from it up; either
    # way the graph is the cell average and its product is the dense product
    x = np.random.default_rng(n).normal(size=(2, n))
    for W in (Graphon.constant(-0.4), Graphon.small_world(0.1, 0.25),
              Graphon.nearest_neighbor(0.2)):
        g = deterministic_graph(W, n)
        assert isinstance(g, StepGraphon) and isinstance(g, WeightedGraph)
        assert np.array_equal(g.weights, W.cell_average(n).values)
        dense = n < _TOEPLITZ_NODES
        assert (g._diagonals is None) == dense
        assert g.weights.flags.c_contiguous == dense
        assert not g.weights.flags.writeable
        expected = x @ np.array(g.weights)
        if dense:
            assert np.array_equal(g._product(x), expected)
        else:
            assert not g._diagonals.flags.writeable
            assert np.max(np.abs(g._product(x) - expected)) <= 1e-12


def _count_matrix_checks(monkeypatch):
    """Count full symmetric-matrix checks: calls of the one checked
    constructor, which StepGraphon inherits."""
    calls = []
    original = WeightedGraph.__init__

    def counting(self, weights):
        calls.append(type(self).__name__)
        original(self, weights)

    monkeypatch.setattr(WeightedGraph, "__init__", counting)
    return calls


@pytest.mark.parametrize("build, checks", [
    (lambda W: deterministic_graph(W, 96), 1),
    (lambda W: sample_w_random(W, 96, 4), 1),
    (lambda W: sample_w_random(Graphon.small_world(0.1, 0.25), 96, 4), 0),
], ids=["deterministic_step", "sampled_step", "sampled_band"])
def test_built_matrices_are_checked_once(monkeypatch, build, checks):
    # kmflow's own matrices are checked once, where they are built (a step
    # kernel's StepGraphon), and a band kernel's not at all
    W = Graphon.step(Graphon.small_world(0.2, 0.3).cell_average(12).values)
    calls = _count_matrix_checks(monkeypatch)
    graph = build(W)
    assert len(calls) == checks
    assert not graph.weights.flags.writeable
    # outside input still takes the full check
    WeightedGraph(np.array(graph.weights))
    assert len(calls) == checks + 1


def test_sampled_graph_holds_one_matrix():
    n = 1024
    W = Graphon.small_world(0.1, 0.25)
    graph, peak = peak_traced(lambda: sample_w_random(W, n, 5))
    assert peak < 1.25 * n * n * 8
    assert np.array_equal(graph.weights, graph.weights.T)
    assert np.isin(graph.weights, (0.0, 1.0)).all()
