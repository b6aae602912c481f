"""Finite weighted graphs materialized from graphons.

Two constructions:

* :func:`deterministic_graph` -- node i carries the cell averages of the
  kernel as edge weights (an edge exists wherever the weight is nonzero),
* :func:`sample_w_random` -- each unordered pair {i, j} is kept independently
  with probability equal to the cell average ("W-random" sampling).

Deterministic graphs of constant and band kernels are Toeplitz, so they are
stored as their 2n-1 diagonals and ``weights`` is a read-only n x n view of
that vector; no n x n array is allocated for them.  The sampler reads the
edge probabilities of those kernels from the same kind of view.  A graph
owns its product ``x @ W`` with a stack of vectors, all the sine-family
dynamics need: a Toeplitz graph convolves with its diagonals by one batched
real FFT against their spectrum, computed once when the graph is built.

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

from .graphon import (
    _TILE,
    MAX_NODES,
    Graphon,
    _checked_diagonals,
    _checked_symmetric,
    _toeplitz,
)


class WeightedGraph:
    """Symmetric weight matrix with |w_ij| <= 1 plus sampling provenance.

    ``weights`` is a read-only n x n array.  A Toeplitz graph (see
    :func:`deterministic_graph`) also keeps its 2n-1 diagonals in
    ``_diagonals``, and ``weights`` is then a view of them; for every other
    graph ``_diagonals`` is None.
    """

    _diagonals = None

    def __init__(self, weights, seed: int | None = None, sampled: bool = False):
        weights = _checked_symmetric(weights, "weights")
        if sampled and not np.isin(weights, (0.0, 1.0)).all():
            raise ValueError("sampled graphs must have 0/1 weights")
        self.weights = np.clip(weights, -1.0, 1.0, out=weights)
        self.weights.setflags(write=False)
        self.seed = seed
        self.sampled = sampled

    @classmethod
    def _trusted(cls, weights: np.ndarray, seed: int | None = None,
                 sampled: bool = False) -> "WeightedGraph":
        """Graph owning a matrix kmflow built and checked itself: symmetric,
        within [-1, 1] (0/1 if ``sampled``).  Nothing is copied or checked;
        the matrix is made read-only.  Outside input goes through
        ``WeightedGraph(weights)``."""
        graph = cls.__new__(cls)
        weights.setflags(write=False)
        graph.weights = weights
        graph.seed = seed
        graph.sampled = sampled
        return graph

    @classmethod
    def _from_diagonals(cls, diagonals) -> "WeightedGraph":
        """Toeplitz graph with ``weights[i, j] = diagonals[i - j + n - 1]``."""
        diagonals = _checked_diagonals(diagonals, "weight diagonals")
        graph = cls._trusted(_toeplitz(diagonals))
        graph._diagonals = diagonals
        # circular convolution of this length has no wrap-around in the n
        # outputs that are the Toeplitz product
        graph._fft_size = 1 << (2 * graph.n - 2).bit_length()
        graph._spectrum = np.fft.rfft(diagonals, graph._fft_size)
        return graph

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def _product(self, x: np.ndarray) -> np.ndarray:
        """``x @ weights`` for rows x: W times each row, W being symmetric."""
        if self._diagonals is None:
            return x @ self.weights
        size, n = self._fft_size, self.n
        product = np.fft.irfft(np.fft.rfft(x, size) * self._spectrum, size)
        return product[..., n - 1:2 * n - 1]

    def edges(self):
        """Yield (i, j, weight) for the nonzero upper triangle, diagonal included."""
        iu, ju = np.nonzero(np.triu(self.weights))
        for i, j in zip(iu, ju):
            yield int(i), int(j), float(self.weights[i, j])


def deterministic_graph(W: Graphon, n: int) -> WeightedGraph:
    """Weighted graph whose weight matrix is the n x n cell average of W."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    if n > MAX_NODES:
        raise ValueError(f"dense storage supports up to {MAX_NODES} nodes, got {n}")
    diagonals = W._diagonals(n)
    if diagonals is None:
        # StepGraphon has copied, checked and clipped the cell averages
        return WeightedGraph._trusted(W.cell_average(n).values)
    return WeightedGraph._from_diagonals(diagonals)


def sample_w_random(W: Graphon, n: int, seed: int) -> WeightedGraph:
    """Sample a 0/1 graph with independent edge probabilities W_{n,ij}.

    Requires all cell averages in [0, 1]; kernels with negative averages are
    rejected since they cannot serve as edge probabilities.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if n > MAX_NODES:
        raise ValueError(f"dense storage supports up to {MAX_NODES} nodes, got {n}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    diagonals = W._diagonals(n)
    if diagonals is None:
        probs = W.cell_average(n).values
    else:
        probs = _toeplitz(_checked_diagonals(diagonals, "cell averages"))
    if probs.min() < 0.0:
        raise ValueError(
            "sampling requires probability range: cell averages must be >= 0"
        )
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
    return WeightedGraph._trusted(weights, seed=seed, sampled=True)


def pixel_picture(graph: WeightedGraph) -> np.ndarray:
    """Grayscale image of the weight matrix: intensity 255 * (1 - |w|).

    Weight 1 maps to black (0), weight 0 to white (255).  Returns a uint8
    array; see :func:`kmflow.io.write_pgm` for the binary PGM writer.
    """
    intensity = np.rint(255.0 * (1.0 - np.abs(graph.weights)))
    return intensity.astype(np.uint8)
