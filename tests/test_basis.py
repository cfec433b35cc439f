"""Scaling-function families: cascade table, evaluation, quadrature checks.

The cascade values are checked against oracles that do not share code with
the implementation: the integer-point values against a numpy eigensolve of
the refinement matrix, the table against the raw two-scale recurrence, and
the projections against closed forms where one exists.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from densop import (
    BasisSpec,
    BetaTarget,
    DAUB4_TAPS,
    EmbeddingOperator,
    Grid,
    Interval,
    band_to_dense,
    basis_matrix,
    coefficient_band,
    coefficient_vector,
    gram_check,
    kernel_diag,
    kernel_matrix,
    linear_form,
    quadratic_form,
    scaling_values_daub4,
    wavelet_approximation,
)
from densop import basis as basis_module
from densop.basis import BAND_BLOCK, TABLE_LEVEL
from references import eval_father

UNIT = Interval(0.0, 3.0)


def interval_grid(cells):
    return Grid(UNIT, cells)


# ---------------------------------------------------------------- interval


def test_interval_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    # each bound is finite, but hi - lo is not; a grid on it once held
    # NaN and inf points
    with pytest.raises(ValueError, match=re.escape(
            "interval [-1e+308, 1e+308] is wider than the largest double")):
        Interval(-1e308, 1e308)


def test_grid_uniform_shape_and_spacing():
    g = interval_grid(300)
    assert g.cells == 300
    assert g.points[0] == 0.0 and g.points[-1] == 3.0
    assert not g.points.flags.writeable
    assert g.h == (g.points[-1] - g.points[0]) / (g.points.size - 1)
    assert_allclose(np.diff(g.points), 0.01, rtol=0, atol=1e-14)


def test_grid_is_a_value_of_interval_and_cells():
    g = interval_grid(300)
    assert g == Grid(Interval(0.0, 3.0), 300)
    assert g != interval_grid(301)
    assert hash(g) == hash(interval_grid(300))
    assert repr(g) == "Grid(interval=Interval(lo=0.0, hi=3.0), cells=300)"


def test_grid_rejects_bad_cells_and_interval():
    with pytest.raises(ValueError, match="at least 1 cell"):
        Grid(UNIT, 0)
    with pytest.raises(ValueError):
        Grid(Interval(1.0, 1.0), 4)


def test_grid_trapezoid_matches_numpy_reference():
    g = interval_grid(1777)
    f = np.cos(g.points) + g.points ** 2
    assert_allclose(g.integrate(f), np.trapezoid(f, g.points), rtol=0,
                    atol=1e-12)


def test_grid_integrate_checks_shape():
    g = interval_grid(10)
    with pytest.raises(ValueError):
        g.integrate(np.zeros(4))


# ---------------------------------------------------------------- cascade


def test_integer_values_match_eigenvector_oracle():
    # Independent oracle: numpy eigensolve of the interior refinement
    # matrix [[c1, c0], [c3, c2]], eigenvalue 1, normalized to sum 1.
    c = DAUB4_TAPS
    m = np.array([[c[1], c[0]], [c[3], c[2]]])
    vals, vecs = np.linalg.eig(m)
    pick = int(np.argmin(np.abs(vals - 1.0)))
    vec = vecs[:, pick].real
    vec /= vec.sum()
    table = scaling_values_daub4(4)
    assert_allclose(table[16], vec[0], rtol=0, atol=1e-13)
    assert_allclose(table[32], vec[1], rtol=0, atol=1e-13)
    # and the known closed forms
    assert_allclose(table[16], (1.0 + math.sqrt(3.0)) / 2.0, rtol=0, atol=1e-15)
    assert_allclose(table[32], (1.0 - math.sqrt(3.0)) / 2.0, rtol=0, atol=1e-15)


def test_support_boundary_values_are_zero():
    for m in (0, 3, 8):
        table = scaling_values_daub4(m)
        assert table[0] == 0.0
        assert table[-1] == 0.0
        assert table.size == 3 * 2 ** m + 1


def test_coarse_tables_are_restrictions_of_fine_ones():
    coarse = scaling_values_daub4(6)
    fine = scaling_values_daub4(9)
    assert_allclose(fine[::8], coarse, rtol=0, atol=0)


def test_table_level_bounds():
    with pytest.raises(ValueError):
        scaling_values_daub4(-1)
    with pytest.raises(ValueError):
        scaling_values_daub4(23)
    # the cap itself must be at least 20
    scaling_values_daub4(20)


def test_table_is_read_only():
    table = scaling_values_daub4(5)
    with pytest.raises(ValueError):
        table[0] = 1.0


# ---------------------------------------------------------------- basis spec


def test_translate_range_covers_intersecting_supports():
    spec = BasisSpec("daubechies4", 2, UNIT)
    assert spec.translate_range == (-2, 11)
    assert spec.size == 14
    spec0 = BasisSpec("daubechies4", 0, UNIT)
    assert spec0.translate_range == (-2, 2)
    haar = BasisSpec("haar", 2, UNIT)
    assert haar.translate_range == (0, 11)
    shifted = BasisSpec("haar", 0, Interval(1.0, 2.5))
    assert shifted.translate_range == (1, 2)


def test_span_includes_boundary_overhang():
    spec = BasisSpec("daubechies4", 2, UNIT)
    assert spec.span() == Interval(-0.5, 3.5)
    assert BasisSpec("haar", 2, UNIT).span() == Interval(0.0, 3.0)


def test_interior_translates_daub4():
    spec = BasisSpec("daubechies4", 2, UNIT)
    assert list(spec.interior_translates()) == list(range(10))


def test_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec("bogus", 2, UNIT)
    with pytest.raises(ValueError):
        BasisSpec("haar", -1, UNIT)
    # lo * 2**n or hi * 2**n past the largest double has no translate index
    for scale_n, interval in ((1023, UNIT), (1100, UNIT),
                              (2, Interval(-1e308, 3.0))):
        with pytest.raises(ValueError, match=f"scale_n={scale_n} takes the "
                                             f"interval .* past the largest"):
            BasisSpec("daubechies4", scale_n, interval)
    assert BasisSpec("haar", 1022, UNIT).size == 3 * 2 ** 1022


# ---------------------------------------------------------------- evaluation


def father_row(spec, k, s):
    # phi_nk at the points s: the row of translate k in basis_matrix
    return basis_matrix(spec, s)[k - spec.translate_range[0]]


def test_haar_evaluation_closed_form():
    spec0 = BasisSpec("haar", 0, UNIT)
    assert father_row(spec0, 0, [0.5])[0] == 1.0
    spec2 = BasisSpec("haar", 2, UNIT)
    # half-open convention: right edge of the box evaluates to 0
    assert list(father_row(spec2, 3, [0.8, 0.75, 1.0])) == [2.0, 2.0, 0.0]
    assert father_row(spec2, 2, [0.75])[0] == 0.0


def test_daub4_evaluation_at_integers():
    spec = BasisSpec("daubechies4", 0, UNIT)
    table = scaling_values_daub4(TABLE_LEVEL)
    assert list(father_row(spec, 0, [1.0, 0.0, 3.0])) == [
        table[2 ** TABLE_LEVEL], 0.0, 0.0]


def test_father_scaling_and_translation():
    spec2 = BasisSpec("daubechies4", 2, UNIT)
    spec0 = BasisSpec("daubechies4", 0, UNIT)
    s = np.linspace(0.3, 0.9, 7)
    direct = father_row(spec2, 1, s)
    # phi_nk(s) = 2^(n/2) phi(2^n s - k)
    via_mother = 2.0 * np.array([father_row(spec0, 0, [4 * v - 1])[0]
                                 for v in s])
    assert_allclose(direct, via_mother, rtol=0, atol=1e-15)


def test_eval_father_vectorized_matches_scalar():
    spec = BasisSpec("daubechies4", 2, UNIT)
    s = np.linspace(-0.6, 3.6, 101)
    vec = eval_father(spec, 3, s)
    sca = np.array([eval_father(spec, 3, float(v)) for v in s])
    assert_allclose(vec, sca, rtol=0, atol=0)


def test_basis_matrix_rows_match_eval_father():
    spec = BasisSpec("daubechies4", 2, UNIT)
    g = interval_grid(64)
    b = basis_matrix(spec, g.points)
    assert b.shape == (14, 65)
    assert_allclose(b[5], eval_father(spec, 3, g.points), rtol=0, atol=0)


# ---------------------------------------------------------------- band

BAND_SPECS = [("haar", n) for n in range(4)] + [
    ("daubechies4", n) for n in (0, 2, 5)]


def band_probe_points(spec):
    # every dyadic edge of the scale, the interval ends, the span ends,
    # points just inside and outside them, points past the span, and a
    # random spread over the span
    span = spec.span()
    two_n = 2 ** spec.scale_n
    edges = np.arange(math.floor(span.lo * two_n) - 1,
                      math.ceil(span.hi * two_n) + 2) / two_n
    ends = np.array([UNIT.lo, UNIT.hi, span.lo, span.hi])
    rng = np.random.Generator(np.random.PCG64(spec.scale_n))
    return np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        ends, ends - 1e-9, ends + 1e-9, [span.lo - 1.0, span.hi + 2.5],
        rng.uniform(span.lo, span.hi, size=200),
    ])


@pytest.mark.parametrize("family, scale_n", BAND_SPECS)
def test_band_matrix_equals_eval_father_bitwise(family, scale_n):
    spec = BasisSpec(family, scale_n, UNIT)
    s = band_probe_points(spec)
    b = basis_matrix(spec, s)
    assert b.shape == (spec.size, s.size)
    for row, k in enumerate(spec.translates):
        assert_allclose(b[row], eval_father(spec, int(k), s), rtol=0, atol=0)
    first, lanes = basis_module._lanes(spec, s)
    width = {"haar": 1, "daubechies4": 3}[family]
    assert first.shape == (s.size,) and lanes.shape == (width, s.size)
    assert first.min() >= 1 - width and first.max() < spec.size


def scalar_father(spec, k, s):
    # reference: phi_nk(s) in scalar Python arithmetic straight from the
    # cascade table, the linear interpolation of its two neighbours
    level = basis_module.TABLE_LEVEL
    table = scaling_values_daub4(level)
    x = s * 2 ** spec.scale_n - k
    if not 0.0 < x < 3.0:
        return 0.0
    t = x * 2 ** level
    i = min(math.floor(t), table.size - 2)
    f = t - i
    phi = float(table[i]) * (1.0 - f) + float(table[i + 1]) * f
    return 2.0 ** (spec.scale_n / 2.0) * phi


@pytest.mark.parametrize("scale_n, table_level", [(0, 12), (2, 12), (2, 3),
                                                  (5, 12)])
def test_daub4_lookup_equals_scalar_reference_bitwise(monkeypatch, scale_n,
                                                      table_level):
    monkeypatch.setattr(basis_module, "TABLE_LEVEL", table_level)
    spec = BasisSpec("daubechies4", scale_n, UNIT)
    step = 2.0 ** -scale_n
    # points in (-2**-n, 0) whose 2**n s - k rounds to an integer
    near_zero = [-1e-300, -2.0 ** -60, -1e-17, -step * 2.0 ** -53]
    finite = np.concatenate([
        [0.0, -0.0, 3.0, np.nextafter(3.0, 0.0), 5e-324, -5e-324],
        near_zero, band_probe_points(spec)])
    s = np.concatenate([finite, [np.nan, np.inf, -np.inf]])

    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    for k in [*spec.translates, spec.translate_range[1] + 3]:
        expect = [scalar_father(spec, int(k), float(v)) for v in s]
        assert np.array_equal(bits(eval_father(spec, int(k), s)), bits(expect))
    # a non-finite point has no translate index, so the band is probed at
    # the finite points only
    _, lanes = basis_module._lanes(spec, finite)
    first = np.floor(finite * 2 ** scale_n).astype(np.int64) - 2
    k_min, k_max = spec.translate_range
    for col in range(3):
        ks = first + col
        expect = [scalar_father(spec, int(k), float(v))
                  if k_min <= k <= k_max else 0.0 for k, v in zip(ks, finite)]
        assert np.array_equal(bits(lanes[col]), bits(expect))


@pytest.mark.parametrize("scale_n", [0, 2, 5])
def test_band_lanes_where_rounding_matters_equal_scalar_reference(scale_n):
    # Each lane computes x = 2**n s - k itself. A lane that shared the
    # point's fraction u = 2**n s - floor(2**n s) and read the table at u
    # plus its shift would be more accurate, but it would move these bits:
    # at (1 + 2**-52) 2**-n, x0 + 1 loses u's last bit, and at
    # (1 - 2**-53) 2**-n the first lane rounds to x = 3.0, where phi is 0.
    # Points past both span ends sit in a block of interior points.
    spec = BasisSpec("daubechies4", scale_n, UNIT)
    step = 2.0 ** -scale_n
    span = spec.span()
    rng = np.random.Generator(np.random.PCG64(17))
    edges = np.array([(1.0 + 2.0 ** -52) * step, (1.0 - 2.0 ** -53) * step])
    s = np.concatenate([
        edges, 2.0 * edges, edges + 1.0,
        rng.uniform(UNIT.lo + 0.1, UNIT.hi - 0.1, 500),
        [span.lo - 0.3, np.nextafter(span.lo, -np.inf), span.lo,
         span.hi, np.nextafter(span.hi, np.inf), span.hi + 0.7]])
    first = np.floor(s * 2 ** scale_n).astype(np.int64) - 2
    k_min, k_max = spec.translate_range
    expect = np.array([[scalar_father(spec, int(k), float(v))
                        if k_min <= k <= k_max else 0.0 for k in (f, f + 1, f + 2)]
                       for f, v in zip(first, s)])
    _, lanes = basis_module._lanes(spec, s)
    assert np.array_equal(lanes.T.view(np.int64), expect.view(np.int64))
    dense = np.zeros((spec.size, s.size))
    for col in range(3):
        live = (first + col >= k_min) & (first + col <= k_max)
        dense[first[live] + col - k_min, np.flatnonzero(live)] = expect[live, col]
    assert np.array_equal(basis_matrix(spec, s), dense)


def test_band_is_zero_outside_the_span():
    spec = BasisSpec("daubechies4", 2, UNIT)
    span = spec.span()
    s = np.array([span.lo - 0.3, span.lo, span.hi, span.hi + 0.7])
    _, lanes = basis_module._lanes(spec, s)
    assert np.all(lanes == 0.0)


def one_band(spec, s):
    # every point's w lanes in one pass, as (P x w row, P x w value); a
    # lane outside the family is 0 and its row is clipped into the family
    first, lanes = basis_module._lanes(spec, np.asarray(s, dtype=float))
    rows = first[:, None] + np.arange(spec.support_width)
    np.clip(rows, 0, spec.size - 1, out=rows)
    return rows, lanes.T


def dense_scatter(spec, s, weights):
    # reference: the d x d scatter of every point's full w x w block
    rows, values = one_band(spec, s)
    d = spec.size
    flat = rows[:, :, None] * d + rows[:, None, :]
    terms = weights[:, None, None] * (values[:, :, None] * values[:, None, :])
    out = np.bincount(flat.ravel(), weights=terms.ravel(), minlength=d * d)
    return out.reshape(d, d)


def dense_quadratic_form(spec, matrix, s):
    # reference: the w x w block read from a dense d x d matrix
    rows, u = one_band(spec, s)
    out = np.zeros(rows.shape[0])
    for a in range(rows.shape[1]):
        for b in range(rows.shape[1]):
            out += u[:, a] * matrix[rows[:, a], rows[:, b]] * u[:, b]
    return out


@pytest.mark.parametrize("family, scale_n", [("haar", 2), ("daubechies4", 2),
                                             ("daubechies4", 5)])
def test_coefficient_matrix_and_quadratic_form_match_dense(family, scale_n):
    # the band holds exactly the dense scatter's diagonals, and the banded
    # read gives exactly the dense read, also at points past both ends of
    # the span, where one_band clips rows
    spec = BasisSpec(family, scale_n, UNIT)
    rng = np.random.Generator(np.random.PCG64(11))
    span = spec.span()
    pts = np.concatenate([rng.uniform(span.lo, span.hi, size=300),
                          band_probe_points(spec)])
    weights = rng.uniform(0.0, 2.0, size=pts.size)
    band = coefficient_band(spec, pts, weights)
    assert band.shape == (spec.size, spec.support_width)
    dense = dense_scatter(spec, pts, weights)
    assert np.array_equal(band_to_dense(band), dense)
    probe = band_probe_points(spec)
    assert np.array_equal(quadratic_form(spec, band, probe),
                          dense_quadratic_form(spec, dense, probe))


def test_coefficient_matrix_checks_weights():
    spec = BasisSpec("haar", 1, UNIT)
    for scatter in (coefficient_band, coefficient_vector):
        for weights in (np.ones(3), np.ones(1)):
            with pytest.raises(ValueError, match="one weight per point"):
                scatter(spec, np.array([0.5, 1.5]), weights)


@pytest.mark.parametrize("family, scale_n", [("daubechies4", 2), ("haar", 3)])
def test_linear_estimator_equals_the_kernel_trick(family, scale_n):
    # b(s)^T (1/N) sum_i b(S_i) is the kernel mean (1/N) sum_i K(s, S_i) of
    # the projection kernel; for Haar it is the histogram of bins 2**-n
    spec = BasisSpec(family, scale_n, UNIT)
    samples = BetaTarget(2.0, 5.0, UNIT).sample(300, seed=7).points
    n = samples.size
    c = coefficient_vector(spec, samples, np.full(n, 1.0 / n))
    span = spec.span()
    grid = Grid(span, round(span.width * 512))
    P = EmbeddingOperator.projection(spec)
    for s in (grid.points, band_probe_points(spec)):
        linear = linear_form(spec, c, s)
        kernel = kernel_matrix(P, s, samples).sum(axis=1) / n
        assert np.max(np.abs(linear - kernel)) <= 1e-12 * np.max(kernel)
        if family == "haar":
            bins = np.floor(samples * 2 ** scale_n)
            at = np.floor(s * 2 ** scale_n)[:, None]
            histogram = np.sum(at == bins, axis=1) * 2.0 ** scale_n / n
            assert (np.max(np.abs(linear - histogram))
                    <= 1e-12 * np.max(histogram))


def unblocked_kernel_diag(op, s):
    # reference: one band over every point, summed as a whole
    rows, values = one_band(op.basis, s)
    return np.sum((op.weights ** 2)[rows] * values * values, axis=1)


def unblocked_coefficient_vector(spec, s, weights):
    # reference: one bincount over every point's lanes
    rows, values = one_band(spec, s)
    terms = values * weights[:, None]
    return np.bincount(rows.ravel(), weights=terms.ravel(),
                       minlength=spec.size)


def unblocked_linear_form(spec, c, s):
    # reference: every point's lanes against c, summed as a whole
    rows, values = one_band(spec, s)
    return np.sum(c[rows] * values, axis=1)


def unblocked_wavelet_approximation(spec, grid, f):
    # reference: one bincount of the terms values * (h * f), then one
    # reconstruction; h * f weights each point once, as coefficient_band
    # weights its products
    hf = grid.weights() * f
    coeffs = unblocked_coefficient_vector(spec, grid.points, hf)
    return unblocked_linear_form(spec, coeffs, grid.points)


def unblocked_basis_matrix(spec, s):
    # reference: each band column written into the dense matrix at once
    rows, values = one_band(spec, s)
    out = np.zeros((spec.size, s.size))
    for c in range(rows.shape[1]):
        live = np.flatnonzero(values[:, c])
        out[rows[live, c], live] = values[live, c]
    return out


@pytest.mark.parametrize("family", ["haar", "daubechies4"])
def test_blocked_primitives_equal_one_pass_references_bitwise(family):
    # two full blocks and a short third one; the consumers of the band walk
    # the points block by block and must give exactly the bits of one pass
    spec = BasisSpec(family, 2, UNIT)
    span = spec.span()
    n = 2 * BAND_BLOCK + 5
    rng = np.random.Generator(np.random.PCG64(13))
    probe = band_probe_points(spec)
    pts = np.concatenate([rng.uniform(span.lo - 0.1, span.hi + 0.1,
                                      size=n - probe.size), probe])
    weights = rng.uniform(0.0, 2.0, size=n)
    band = coefficient_band(spec, pts, weights)
    dense = dense_scatter(spec, pts, weights)
    assert np.array_equal(band_to_dense(band), dense)
    assert np.array_equal(quadratic_form(spec, band, pts),
                          dense_quadratic_form(spec, dense, pts))
    c = coefficient_vector(spec, pts, weights)
    assert np.array_equal(c, unblocked_coefficient_vector(spec, pts, weights))
    assert np.array_equal(linear_form(spec, c, pts),
                          unblocked_linear_form(spec, c, pts))
    op = EmbeddingOperator(spec, rng.uniform(0.0, 2.0, size=spec.size))
    assert np.array_equal(kernel_diag(op, pts), unblocked_kernel_diag(op, pts))
    assert np.array_equal(basis_matrix(spec, pts),
                          unblocked_basis_matrix(spec, pts))
    grid = Grid(span, n - 1)
    f = rng.uniform(0.0, 2.0, size=n)
    assert np.array_equal(wavelet_approximation(f, spec, grid),
                          unblocked_wavelet_approximation(spec, grid, f))


def _traced_peak(call):
    """tracemalloc peak of call(), less the bytes of the arrays it returns;
    a first call fills the cascade table cache."""
    call()
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in (out if isinstance(out, tuple)
                                         else (out,)))


def test_band_consumers_hold_one_block_at_a_time():
    # each consumer once kept the previous block's rows, values and
    # products alive while the next block was evaluated: coefficient_band
    # peaked at 37.6 float64 values per block point. One block's work, the
    # buffers a consumer reuses from block to block included, must stay
    # within 19.5 values per BAND_BLOCK point, the peak of each consumer
    # once it released its blocks
    spec = BasisSpec("daubechies4", 2, UNIT)
    n = 4 * BAND_BLOCK
    rng = np.random.Generator(np.random.PCG64(3))
    pts = rng.uniform(0.0, 3.0, n)
    weights = np.full(n, 1.0 / n)
    band = coefficient_band(spec, pts, weights)
    c = coefficient_vector(spec, pts, weights)
    op = EmbeddingOperator(spec, rng.uniform(0.5, 1.5, spec.size))
    grid = Grid(spec.span(), n - 1)
    f = rng.uniform(0.0, 2.0, n)
    bound = 19.5 * 8 * BAND_BLOCK + 64 * 2 ** 10
    for call in (lambda: coefficient_band(spec, pts, weights),
                 lambda: coefficient_vector(spec, pts, weights),
                 lambda: quadratic_form(spec, band, pts),
                 lambda: linear_form(spec, c, pts),
                 lambda: kernel_diag(op, pts),
                 lambda: basis_matrix(spec, pts),
                 lambda: wavelet_approximation(f, spec, grid)):
        assert _traced_peak(call) <= bound


def test_quadratic_form_refuses_a_band_of_the_wrong_shape():
    # d = 14 translates, w = 3: a band with more rows was once read in part,
    # one with fewer ended in an IndexError, and one with no diagonal in an
    # UnboundLocalError
    spec = BasisSpec("daubechies4", 2, UNIT)
    s = np.array([0.5, 1.5, 2.5])
    for shape in [(19, 3), (13, 3), (14, 0), (14, 4), (14,)]:
        message = f"band has shape {shape}, need (14, m) with 1 <= m <= 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            quadratic_form(spec, np.ones(shape), s)


def test_linear_form_refuses_coefficients_of_the_wrong_shape():
    spec = BasisSpec("daubechies4", 2, UNIT)
    s = np.array([0.5, 1.5, 2.5])
    for shape in [(13,), (15,), (14, 1), (1, 14), ()]:
        message = f"coefficients have shape {shape}, need (14,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            linear_form(spec, np.ones(shape), s)


@pytest.mark.parametrize("family", ["haar", "daubechies4"])
def test_band_refuses_points_without_a_translate_index(family):
    spec = BasisSpec(family, 2, UNIT)
    op = EmbeddingOperator.projection(spec)
    band = coefficient_band(spec, np.array([0.5, 1.5]), np.ones(2))
    calls = [lambda s: basis_matrix(spec, s), lambda s: kernel_diag(op, s),
             lambda s: quadratic_form(spec, band, s),
             lambda s: coefficient_vector(spec, s, np.ones(s.size)),
             lambda s: linear_form(spec, np.ones(spec.size), s)]
    later = np.linspace(0.0, 3.0, BAND_BLOCK + 2)
    later[-1] = np.nan
    cases = [(np.array([np.nan, np.inf, 1.0]), "2 point.*: nan, inf"),
             (np.array([1.0, -np.inf]), "1 point.*: -inf"),
             (np.array([1e300]), "1 point.*: 1e\\+300"),
             (later, "1 point.*: nan")]
    for call in calls:
        for s, message in cases:
            with pytest.raises(ValueError, match=message):
                call(s)
    # the scalar evaluation reads 0 there: no translate contains the point
    for v in (np.nan, np.inf, -np.inf):
        assert eval_father(spec, 1, v) == 0.0


# ---------------------------------------------------------------- gram


def test_gram_requires_resolution():
    spec = BasisSpec("daubechies4", 2, UNIT)
    with pytest.raises(ValueError):
        gram_check(spec, interval_grid(512))


def test_gram_symmetric():
    spec = BasisSpec("daubechies4", 2, UNIT)
    g = gram_check(spec, interval_grid(2048))
    assert np.max(np.abs(g - g.T)) <= 1e-14


def test_haar_gram_disjoint_supports():
    spec = BasisSpec("haar", 2, UNIT)
    grid = interval_grid(3 * 2 ** 10)
    g = gram_check(spec, grid)
    off = g - np.diag(np.diagonal(g))
    assert np.max(np.abs(off)) == 0.0
    # diagonals are exact except at the domain's left endpoint, where the
    # half trapezoid weight meets the half-open box value
    assert_allclose(np.diagonal(g)[1:], 1.0, rtol=0, atol=1e-12)
    assert g[0, 0] < 1.0


# ---------------------------------------------------------------- projection


@pytest.fixture
def fine_spec_and_grid(monkeypatch):
    # a level-17 table and a grid on its points make the trapezoid Gram
    # matrix the identity to well under 1e-8; level 12 gives about 1e-6
    level = 17
    monkeypatch.setattr(basis_module, "TABLE_LEVEL", level)
    spec = BasisSpec("daubechies4", 0, UNIT)
    span = spec.span()
    cells = int(round(span.width * 2 ** level))
    return spec, Grid(span, cells)


def test_projection_reproduces_a_basis_element(fine_spec_and_grid):
    spec, grid = fine_spec_and_grid
    f = eval_father(spec, 0, grid.points)
    out = wavelet_approximation(f, spec, grid)
    assert np.max(np.abs(out - f)) <= 1e-8


def test_projection_linearity(fine_spec_and_grid):
    spec, grid = fine_spec_and_grid
    f = 2.0 * eval_father(spec, 0, grid.points) - eval_father(spec, 1, grid.points)
    out = wavelet_approximation(f, spec, grid)
    assert np.max(np.abs(out - f)) <= 1e-8


def test_projection_idempotent_on_generic_input(fine_spec_and_grid):
    spec, grid = fine_spec_and_grid
    target = BetaTarget(2.0, 5.0, UNIT)
    once = wavelet_approximation(target.density(grid.points), spec, grid)
    twice = wavelet_approximation(once, spec, grid)
    assert np.max(np.abs(twice - once)) <= 1e-8


def test_haar_projection_idempotent_away_from_left_edge():
    spec = BasisSpec("haar", 2, UNIT)
    grid = interval_grid(3 * 2 ** 10)
    target = BetaTarget(2.0, 5.0, UNIT)
    once = wavelet_approximation(target.density(grid.points), spec, grid)
    twice = wavelet_approximation(once, spec, grid)
    past_first_bin = grid.points >= 0.25
    assert np.max(np.abs(twice - once)[past_first_bin]) <= 1e-12


def test_beta_wavelet_transform_takes_negative_values():
    spec = BasisSpec("daubechies4", 2, UNIT)
    span = spec.span()
    grid = Grid(span, int(round(span.width * 4096)))
    target = BetaTarget(2.0, 5.0, UNIT)
    out = wavelet_approximation(target.density(grid.points), spec, grid)
    assert out.min() < -1e-3


def test_total_mass_converges_with_scale():
    # mass of the projection restricted to the interval approaches the
    # target's unit mass as the scale grows; the deficit is boundary leakage
    target = BetaTarget(2.0, 5.0, UNIT)
    errs = []
    for n in range(4):
        spec = BasisSpec("daubechies4", n, UNIT)
        span = spec.span()
        grid = Grid(span, int(round(span.width * 1024)))
        approx = wavelet_approximation(target.density(grid.points), spec, grid)
        # the restriction to the interval: its 3 * 1024 cells of the grid
        first = round((UNIT.lo - span.lo) * 1024)
        inside = approx[first:first + 3 * 1024 + 1]
        errs.append(abs(interval_grid(3 * 1024).integrate(inside) - 1.0))
    for n in range(3):
        assert errs[n + 1] <= 2.0 * errs[n]
    assert errs[3] < errs[0]


def test_total_mass_converges_with_scale_haar():
    target = BetaTarget(2.0, 5.0, UNIT)
    grid = interval_grid(3 * 2 ** 10)
    zeta = target.density(grid.points)
    errs = []
    for n in range(4):
        spec = BasisSpec("haar", n, UNIT)
        approx = wavelet_approximation(zeta, spec, grid)
        errs.append(abs(grid.integrate(approx) - 1.0))
    for n in range(3):
        assert errs[n + 1] <= 2.0 * errs[n]
    assert errs[3] < errs[0]


def test_wavelet_approximation_checks_shapes():
    spec = BasisSpec("daubechies4", 2, UNIT)
    grid = interval_grid(2048)
    with pytest.raises(ValueError):
        wavelet_approximation(np.zeros(7), spec, grid)
