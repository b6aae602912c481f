"""Deterministic and W-random graph construction, pixel pictures."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from kmflow.graphon import _TOEPLITZ_NODES, MAX_NODES, Graphon, StepGraphon
from kmflow.graphs import (
    WeightedGraph,
    _sample,
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


def test_toeplitz_graph_product_lists_no_flips():
    g = deterministic_graph(Graphon.small_world(0.1, 0.25), 4096)
    x = np.random.default_rng(0).standard_normal((2, 4096))
    _, peak = peak_traced(lambda: g._product(x))
    # two rows' FFT buffers; listing flips would gather 64-row blocks of the
    # n x n view, 2.3 MB at this n
    assert peak < 2**20


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
    constructor, ``WeightedGraph.__init__``."""
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


# sha256 of np.packbits(weights != 0), recorded before sampled graphs stored
# their rounding and flips; the split must not change one sampled bit
SPLIT_KERNELS = {
    "small_world(0.1, 0.25)": Graphon.small_world(0.1, 0.25),
    "nearest_neighbor(0.2)": Graphon.nearest_neighbor(0.2),
    "constant(0.05)": Graphon.constant(0.05),
}
ADJACENCY_SHA256 = {
    ("small_world(0.1, 0.25)", 64, 0):
        "63d472f507c263917e283b4bf7028197a7c98b7eef33ba18f1a4fbf9373c5ac2",
    ("small_world(0.1, 0.25)", 64, 7):
        "2af6af701f9b1b504f539991ffa22ff6fedc526c9f282b186ea11f22c8a365c3",
    ("small_world(0.1, 0.25)", 431, 0):
        "be8592c641988e890839c118e2b311f854e43f22a8fa97679c4f5cda6ed66faa",
    ("small_world(0.1, 0.25)", 431, 7):
        "3ca1b54aaa86e6b68cd2ea47a960868c7095785f86db3e1265f95b8d05d605d7",
    ("small_world(0.1, 0.25)", 432, 0):
        "0a9c7460a8fdbf2ab1857761f249f626c9484cb11a3dc37ab82061ea4180882f",
    ("small_world(0.1, 0.25)", 432, 7):
        "e900eedf1a56c1e7b754f80bfb1ca727bb835bb2d77cb0bac5f01dddd50ffa66",
    ("small_world(0.1, 0.25)", 1024, 0):
        "48022e07a1864ec9e348a2b6d4eaf335923fdd853c00e47704f60087703ad036",
    ("small_world(0.1, 0.25)", 1024, 7):
        "d6bca0f8e637ec8fd3468dc95b3eaea293a0ca12bbe2b7ccb2de7a640a4ea266",
    ("nearest_neighbor(0.2)", 64, 0):
        "0ba5ce9871d250b315392627b96177d53b99f792a164144ad89698484065450a",
    ("nearest_neighbor(0.2)", 64, 7):
        "62114b7b30f1c8ea6dc15ef1b038e90cc8b63c9b21454bac535e8818dbe5183b",
    ("nearest_neighbor(0.2)", 431, 0):
        "196545686be5b4c0d8c9f15401f7f58bbd9783e7a0584c55c450d86aedc318ce",
    ("nearest_neighbor(0.2)", 431, 7):
        "0003dada6f531b8ca798826e369e5dc4890437d03160d02c65a54cbf98b1e50c",
    ("nearest_neighbor(0.2)", 432, 0):
        "482065c83f4907137e63abaa9c634ac4ff4dd47d188c69e22ec55903b9328489",
    ("nearest_neighbor(0.2)", 432, 7):
        "6f06fabf1125f55eb9019e7d6b51f1dc6b9a5e3fe0d56fd9af739fc4bdee041f",
    ("nearest_neighbor(0.2)", 1024, 0):
        "d48c3bd9fa231b62f65d9365e2ef544a30bc63fbf28a2a16993b4b1ff947d237",
    ("nearest_neighbor(0.2)", 1024, 7):
        "df6f3e0ddced22b216d3774a52de53edcfbb187de07ceed27a96b58367681bb7",
    ("constant(0.05)", 64, 0):
        "d89276f398390325a14aa477287e53d0030555cd689b6091f0981f9034184651",
    ("constant(0.05)", 64, 7):
        "8475560a0a112512e65d69a0c518cdeb32086146a2bb9394c9c6e475bb0389d0",
    ("constant(0.05)", 431, 0):
        "d2463a712f7767957f811c48d3869e3b23b54b758bcda8a2e8f8caba4edea894",
    ("constant(0.05)", 431, 7):
        "29d2da6735526e97b31f7435fac9cf28609cdb30fc136c7a4e407a9e2a34fbb4",
    ("constant(0.05)", 432, 0):
        "6db3962ff69815443b856e1d5871697e6c261afe62d836451e697b2ba3dbb7a2",
    ("constant(0.05)", 432, 7):
        "14e12770cd6dcfcd6eb3b2fe00ddc4fb91590299144af4edcbc16856e4d677de",
    ("constant(0.05)", 1024, 0):
        "ac67bc3bfb57dc4ba8c45b934080d442b3fa893421db8b2e614598c11fcc3ecb",
    ("constant(0.05)", 1024, 7):
        "bbc6ed5dc8fe0348571ea1a8193f9bd45cc081b9ce2c4446425593e0c8befc3b",
}


@pytest.mark.parametrize("kernel, n, seed", sorted(ADJACENCY_SHA256))
def test_sampled_adjacency_bits_are_pinned(kernel, n, seed):
    weights = sample_w_random(SPLIT_KERNELS[kernel], n, seed).weights
    digest = hashlib.sha256(np.packbits(weights != 0).tobytes()).hexdigest()
    assert digest == ADJACENCY_SHA256[kernel, n, seed]


@pytest.mark.parametrize("n", [_TOEPLITZ_NODES - 1, _TOEPLITZ_NODES, _TOEPLITZ_NODES + 1,
                               1000, 1024])
def test_split_product_matches_the_dense_product(n):
    # from the size constant up, a sampled band graph multiplies as its
    # rounding, by FFT, plus sums over its flipped pairs
    for W in (*SPLIT_KERNELS.values(), Graphon.constant(0.95)):
        g = sample_w_random(W, n, seed=n)
        assert (g._diagonals is not None) == (n >= _TOEPLITZ_NODES)
        for rows in (1, 2, 3):
            x = np.random.default_rng(rows).standard_normal((rows, n))
            expected = x @ np.array(g.weights)
            got = g._product(x)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_split_rule_keeps_blas_for_dense_flips_and_small_graphs():
    step = Graphon.step([[0.9, 0.1], [0.1, 0.9]])
    for W, n in ((Graphon.constant(0.5), 1024), (Graphon.small_world(0.1, 0.25), 431),
                 (step, 1024)):
        g = sample_w_random(W, n, seed=0)
        assert g._diagonals is None
        x = np.random.default_rng(0).standard_normal((2, n))
        assert np.array_equal(g._product(x), x @ g.weights)


def test_sampling_alone_builds_no_flips():
    g = sample_w_random(Graphon.small_world(0.1, 0.25), 1024, seed=0)
    assert g._diagonals is not None and not {"_flips", "_spectrum"} & set(vars(g))
    assert g.weights.flags.c_contiguous and not g.weights.flags.writeable
    assert not g._diagonals.flags.writeable
    assert set(np.unique(g._diagonals)) == {0.0, 1.0}


@pytest.mark.parametrize("kernel", sorted(SPLIT_KERNELS))
def test_held_flips_are_at_most_an_eighth_of_the_weights(kernel):
    n = 1024
    g = sample_w_random(SPLIT_KERNELS[kernel], n, seed=1)
    tracemalloc.start()
    try:
        g._flips
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # an eighth of a float64 n x n matrix, whatever the weights' own dtype
    assert held <= n * n + 64 * n


def test_split_graph_samples_into_one_byte_per_pair():
    n = 2048
    probs = Graphon.small_world(0.1, 0.25).cell_average(n)
    g, peak = peak_traced(lambda: _sample(probs, 3))
    assert g._diagonals is not None and g.weights.dtype == bool and g.weights.nbytes == n * n
    # float64 weights alone would take 8 n^2 bytes
    assert peak < 1.25 * n * n


def test_pixel_picture_builds_strips():
    n = 2048
    g = sample_w_random(Graphon.small_world(0.1, 0.25), n, seed=0)
    dense = WeightedGraph._trusted(g.weights.astype(float))
    image, peak = peak_traced(lambda: pixel_picture(dense))
    assert np.array_equal(image, np.rint(255.0 * (1.0 - dense.weights)).astype(np.uint8))
    assert np.array_equal(pixel_picture(g), image)
    # the n x n image, plus a few float strips of 64 rows
    assert peak - image.nbytes <= 4 * 64 * n * 8


@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_nearest_neighbor_flips_grow_linearly(n):
    # only the cells the band's edges cut have a fractional probability
    g = sample_w_random(Graphon.nearest_neighbor(0.2), n, seed=2)
    assert 0 < sum(columns.size for _, _, columns in g._flips) <= n
