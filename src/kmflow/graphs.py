"""Finite weighted graphs materialized from graphons.

Two constructions:

* :func:`deterministic_graph` -- node i carries the cell averages of the
  kernel as edge weights (an edge exists wherever the weight is nonzero),
* :func:`sample_w_random` -- each unordered pair {i, j} is kept independently
  with probability equal to the cell average ("W-random" sampling).

The deterministic graph is the cell average itself, and the sampler reads its
edge probabilities from it; :mod:`kmflow.graphon` decides how it is stored.

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


def deterministic_graph(W: Graphon, n: int) -> StepGraphon:
    """Weighted graph whose weight matrix is the n x n cell average of W."""
    return W.cell_average(n)


def sample_w_random(W: Graphon, n: int, seed: int) -> WeightedGraph:
    """Sample a 0/1 graph with independent edge probabilities W_{n,ij}.

    Requires all cell averages in [0, 1]; kernels with negative averages are
    rejected since they cannot serve as edge probabilities.
    """
    _check_seed(seed)
    probs = _edge_probabilities(W, n)
    weights = np.zeros((n, n))
    for i in range(n):
        stream = np.random.Generator(
            np.random.Philox(key=[np.uint64(seed), np.uint64(i)])
        )
        weights[i, i:] = stream.random(n - i) < probs[i, i:]
    for i in range(0, n, _TILE):
        stop = min(i + _TILE, n)
        block = weights[i:stop, i:stop]
        block += np.triu(block, 1).T
        weights[stop:, i:stop] = weights[i:stop, stop:].T
    # 0/1 and mirrored by construction
    return WeightedGraph._trusted(weights)


def _edge_probabilities(W: Graphon, n: int) -> np.ndarray:
    """The n x n cell averages of W, rejected unless all are >= 0."""
    probs = W.cell_average(n).weights
    if probs.min() < 0.0:
        raise ValueError(
            "sampling requires probability range: cell averages must be >= 0"
        )
    return probs


def pixel_picture(graph: WeightedGraph) -> np.ndarray:
    """Grayscale image of the weight matrix: intensity 255 * (1 - |w|).

    Weight 1 maps to black (0), weight 0 to white (255).  Returns a uint8
    array; see :func:`kmflow.io.write_pgm` for the binary PGM writer.
    """
    intensity = np.rint(255.0 * (1.0 - np.abs(graph.weights)))
    return intensity.astype(np.uint8)
