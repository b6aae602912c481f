"""Finite weighted graphs materialized from graphons.

Two constructions:

* :func:`deterministic_graph` -- node i carries the cell averages of the
  kernel as edge weights (an edge exists wherever the weight is nonzero),
* :func:`sample_w_random` -- each unordered pair {i, j} is kept independently
  with probability equal to the cell average ("W-random" sampling).

The deterministic graph is the cell average itself, and the sampler reads its
edge probabilities from it; :class:`~kmflow.graphon.WeightedGraph` describes
how either is stored.  A sampled graph splits, into the rounding R = [P >=
1/2] of its cell average P plus the pairs that differ, when P is stored as
diagonals and at most 1/8 of the pairs are expected to differ.  This is
decided from P's diagonals before sampling, so the one sampling loop fills
the chosen dtype.  The 1/8 is set by the memory-bound product at n = 4096.
At n = 1024, where float weights (8 MiB) stay in cache, the split only breaks
even with BLAS in time and is kept for memory: sampled small_world(0.1, 0.25)
holds 1 MiB of bool weights plus about 0.86 MB of flips there.

Sampling is counter-based: the coin for pair (i, j), i <= j, comes from a
Philox stream keyed by (seed, i) at position j - i, so results are
reproducible, order-independent, and parallelizable over rows.  The sampler
fills only the upper triangle, one contiguous row segment per stream, and then
mirrors it into the lower triangle one 64-row strip at a time, so no write
strides down a column of the full matrix.  Diagonal entries (self-loops) are
kept in both constructions; for odd couplings the self term drops out of the
dynamics anyway.
"""

from __future__ import annotations

import numpy as np

from .graphon import _TILE, Graphon, StepGraphon, WeightedGraph, _check_seed

# Largest expected share of flipped pairs at which a sampled graph multiplies as
# its rounding plus its flips: a flip costs about six dense entries.
_MAX_FLIP_DENSITY = 1 / 8


def deterministic_graph(W: Graphon, n: int) -> StepGraphon:
    """Weighted graph whose weight matrix is the n x n cell average of W."""
    return W.cell_average(n)


def sample_w_random(W: Graphon, n: int, seed: int) -> WeightedGraph:
    """Sample a 0/1 graph with independent edge probabilities W_{n,ij}.

    Requires all cell averages in [0, 1]; kernels with negative averages are
    rejected since they cannot serve as edge probabilities.
    """
    _check_seed(seed)
    return _sample(_edge_probabilities(W, n), seed)


def _sample(probs: StepGraphon, seed: int) -> WeightedGraph:
    """The W-random graph on a cell average :func:`_edge_probabilities` checked."""
    n, diagonals = probs.n, probs._diagonals
    # expected flips: sum_ij min(P_ij, 1 - P_ij), diagonal d holding n - |d| pairs
    split = diagonals is not None and (
        (n - np.abs(np.arange(1 - n, n))) @ np.minimum(diagonals, 1.0 - diagonals)
        <= _MAX_FLIP_DENSITY * n * n)
    # a split graph's product never reads its 0/1 entries: one byte holds each
    weights = np.zeros((n, n), dtype=bool if split else float)
    bits = np.random.Philox(key=[np.uint64(seed), np.uint64(0)])
    stream, state = np.random.Generator(bits), bits.state
    for i in range(n):
        # stream (seed, i) from its start: counter 0, buffer empty
        state["state"]["key"][1] = i
        bits.state = state
        np.less(stream.random(n - i), probs.weights[i, i:], out=weights[i, i:])
    for i in range(0, n, _TILE):
        stop = min(i + _TILE, n)
        block = weights[i:stop, i:stop]
        block += np.triu(block, 1).T
        weights[stop:, i:stop] = weights[i:stop, stop:].T
    # 0/1 and mirrored by construction, so trusted either way
    if split:
        return WeightedGraph._from_diagonals((diagonals >= 0.5).astype(float), weights)
    return WeightedGraph._trusted(weights)


def _edge_probabilities(W: Graphon, n: int) -> StepGraphon:
    """The cell average of W at n, rejected unless all entries are >= 0."""
    probs = W.cell_average(n)
    # a Toeplitz average holds every entry in its 2n - 1 diagonals
    if (probs.weights if probs._diagonals is None else probs._diagonals).min() < 0.0:
        raise ValueError(
            "sampling requires probability range: cell averages must be >= 0"
        )
    return probs


def pixel_picture(graph: WeightedGraph) -> np.ndarray:
    """Grayscale image of the weight matrix: intensity 255 * (1 - |w|).

    Weight 1 maps to black (0), weight 0 to white (255).  Returns a uint8
    array; see :func:`kmflow.io.write_pgm` for the binary PGM writer.
    """
    image = np.empty((graph.n, graph.n), dtype=np.uint8)
    for i in range(0, graph.n, _TILE):
        # one strip of rows at a time, so no n x n float temporary is built
        image[i:i + _TILE] = np.rint(255.0 * (1.0 - np.abs(graph.weights[i:i + _TILE])))
    return image
