"""Property tests of the circular W1 kernel behind ``bl_distance`` and ``dbar``.

Families are drawn ragged: every cell has its own atom count, positions come
partly from a coarse grid so that atoms tie within and across the two sides,
and short cells are padded with zero-mass atoms at arbitrary positions.
Equal-mass rows, drawn from the same positions at widths (m, m) and (m, k m),
check the counting path of the kernel against the general one.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kmflow.measures import (
    CircleMeasure,
    MeasureFamily,
    _w1_counts,
    _w1_general,
    _w1_rows,
    bl_distance,
    dbar,
    family_from_rows,
)
from oracles import exact_equal_mass_w1, lp_transport_distance

TWO_PI = 2.0 * np.pi
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

# a coarse grid makes ties likely; 0 and the largest double below 2*pi are
# the edges of the wrapped range
positions = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, np.pi, 4.0, np.nextafter(TWO_PI, 0.0)]),
    st.floats(0.0, TWO_PI, exclude_max=True),
)


@st.composite
def cells(draw, max_atoms=6):
    """Atoms (positions, positive masses summing to 1) of one cell."""
    k = draw(st.integers(1, max_atoms))
    pos = draw(st.lists(positions, min_size=k, max_size=k))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return np.array(pos), weights / weights.sum()


@st.composite
def families(draw, n_cells, extra_width=3):
    """A family of ragged cells, zero-mass padding at drawn positions."""
    atoms = [draw(cells()) for _ in range(n_cells)]
    width = max(p.size for p, _ in atoms) + draw(st.integers(0, extra_width))
    pos = np.array(draw(st.lists(positions, min_size=n_cells * width,
                                 max_size=n_cells * width))).reshape(n_cells, width)
    mass = np.zeros((n_cells, width))
    for i, (p, w) in enumerate(atoms):
        pos[i, :p.size] = p
        mass[i, :w.size] = w
    return MeasureFamily(pos, mass)


@st.composite
def family_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(families(n)), draw(families(n))


def _cell(family, i):
    keep = family.masses[i] > 0.0
    return CircleMeasure(family.positions[i, keep], family.masses[i, keep])


@SETTINGS
@given(family_pairs())
def test_dbar_matches_lp_oracle(pair):
    a, b = pair
    per_cell = [lp_transport_distance(_cell(a, i), _cell(b, i)) for i in range(a.n_cells)]
    assert abs(dbar(a, b) - np.mean(per_cell)) <= 1e-9


@SETTINGS
@given(family_pairs())
def test_dbar_exactly_symmetric(pair):
    a, b = pair
    assert dbar(a, b) == dbar(b, a)


@SETTINGS
@given(family_pairs(), st.integers(1, 4), st.data())
def test_zero_mass_atoms_change_nothing(pair, extra, data):
    a, b = pair
    pad = np.array(data.draw(st.lists(positions, min_size=a.n_cells * extra,
                                      max_size=a.n_cells * extra)))
    padded = MeasureFamily(
        np.concatenate([a.positions, pad.reshape(a.n_cells, extra)], axis=1),
        np.concatenate([a.masses, np.zeros((a.n_cells, extra))], axis=1))
    assert abs(dbar(padded, b) - dbar(a, b)) <= 1e-15


@SETTINGS
@given(st.one_of(st.floats(max_value=0.0), st.just(-0.0), st.just(float("nan"))))
def test_family_rows_reject_nonpositive_mass(mass):
    rows = [(0, 0.5, 1.0), (1, 1.0, 0.5), (1, 2.0, 0.5), (1, 3.0, mass)]
    with pytest.raises(ValueError, match="positive"):
        family_from_rows(rows)


@SETTINGS
@given(cells(), cells(), cells())
def test_bl_distance_metric_axioms(a, b, c):
    mu, eta, nu = (CircleMeasure(*atoms) for atoms in (a, b, c))
    assert bl_distance(mu, mu) == 0.0
    assert bl_distance(mu, eta) == bl_distance(eta, mu)
    assert bl_distance(mu, nu) <= bl_distance(mu, eta) + bl_distance(eta, nu) + 1e-12


def _draw_rows(draw, rows, width):
    return np.array(draw(st.lists(positions, min_size=rows * width,
                                  max_size=rows * width))).reshape(rows, width)


@st.composite
def equal_mass_rows(draw):
    """Rows of atoms for two sides of widths (m, m) or (m, k m), in either
    order; at equal widths some rows of b repeat a row of a, permuted."""
    rows, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    m_a, m_b = draw(st.permutations([m, k * m]))
    a, b = _draw_rows(draw, rows, m_a), _draw_rows(draw, rows, m_b)
    if m_a == m_b:
        for r in range(rows):
            if draw(st.booleans()):
                b[r] = a[r, draw(st.permutations(range(m)))]
    return a, b


def _uniform(pos):
    return np.full(pos.shape, 1.0 / pos.shape[1])


@SETTINGS
@given(equal_mass_rows())
def test_counting_path_matches_general_path_and_exact_value(rows):
    a, b = rows
    got = _w1_rows(a, _uniform(a), b, _uniform(b))
    assert np.array_equal(got, _w1_counts(a, b))
    # the general path's float cumsum of +-1/m drifts by up to about 1.3e-15
    # on these tie-heavy rows; the counting path stays within 4e-16 of the
    # exact value
    assert np.max(np.abs(got - _w1_general(a, _uniform(a), b, _uniform(b)))) <= 2e-15
    exact = [exact_equal_mass_w1(p, q) for p, q in zip(a, b)]
    assert np.max(np.abs(got - exact)) <= 1e-15


@SETTINGS
@given(equal_mass_rows())
def test_counting_path_exactly_symmetric_and_zero_on_identical_rows(rows):
    a, b = rows
    assert np.array_equal(_w1_counts(a, b), _w1_counts(b, a))
    assert not _w1_counts(a, a[:, ::-1]).any()
    assert not _w1_counts(b, b).any()


@SETTINGS
@given(family_pairs(), st.data())
def test_other_rows_take_the_general_path(pair, data):
    # padded rows and unequal masses, and equal masses at widths 4 and 6,
    # whose lcm exceeds their sum
    a, b = pair
    assume(not ((a.masses == 1.0 / a.masses.shape[1]).all()
                and (b.masses == 1.0 / b.masses.shape[1]).all()))
    args = (a.positions, a.masses, b.positions, b.masses)
    assert np.array_equal(_w1_rows(*args), _w1_general(*args))
    p, q = _draw_rows(data.draw, 2, 4), _draw_rows(data.draw, 2, 6)
    args = (p, _uniform(p), q, _uniform(q))
    assert np.array_equal(_w1_rows(*args), _w1_general(*args))
