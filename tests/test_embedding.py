"""Embedding operators, their kernel and their traces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from densop import (
    BasisSpec,
    BetaTarget,
    DensityCurve,
    EmbeddingOperator,
    Grid,
    Interval,
    SampleSet,
    basis_matrix,
    embedded_density_exact,
    embedded_density_map,
    kernel_diag,
    kernel_matrix,
    trace_k_map,
    trace_k_rho,
)
from densop.basis import TABLE_LEVEL, scaling_values_daub4
from densop.oracles import mercer_positivity
from references import eval_father

UNIT = Interval(0.0, 3.0)


def haar_projection(n=2):
    return EmbeddingOperator.projection(BasisSpec("haar", n, UNIT))


def daub_projection(n=2):
    return EmbeddingOperator.projection(BasisSpec("daubechies4", n, UNIT))


def single_translate(spec, k, weight=1.0):
    # one nonzero weight, on translate k; every other translate is left out
    weights = np.zeros(spec.size)
    weights[k - spec.translate_range[0]] = weight
    return EmbeddingOperator(spec, weights)


# ---------------------------------------------------------------- operator


def test_projection_covers_all_translates_with_unit_weights():
    op = daub_projection()
    assert op.weights.shape == (14,)  # translates -2 .. 11
    assert np.all(op.weights == 1.0)


def test_operator_holds_read_only_copies():
    spec = BasisSpec("haar", 0, UNIT)
    given = np.array([0.5, 0.0, 2.0])
    op = EmbeddingOperator(spec, given)
    given[0] = 9.0
    assert np.array_equal(op.weights, [0.5, 0.0, 2.0])
    with pytest.raises(ValueError):
        op.weights[0] = 1.0


def test_operator_validation():
    spec = BasisSpec("daubechies4", 2, UNIT)  # 14 translates
    ones = np.ones(spec.size)
    with pytest.raises(ValueError, match="one weight per"):
        EmbeddingOperator(spec, ones[:-1])  # too short
    with pytest.raises(ValueError, match="one weight per"):
        EmbeddingOperator(spec, np.ones(spec.size + 1))  # too long
    with pytest.raises(ValueError, match="one weight per"):
        EmbeddingOperator(spec, ones.reshape(2, 7))  # not a vector
    with pytest.raises(ValueError, match="nonnegative"):
        EmbeddingOperator(spec, np.where(np.arange(14) == 3, -1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        EmbeddingOperator(spec, np.where(np.arange(14) == 3, np.nan, 1.0))
    with pytest.raises(ValueError, match="finite"):
        EmbeddingOperator(spec, np.where(np.arange(14) == 3, np.inf, 1.0))
    with pytest.raises(ValueError, match="all be zero"):
        EmbeddingOperator(spec, np.zeros(spec.size))


# ---------------------------------------------------------------- kernel


def test_haar_kernel_is_a_bin_indicator():
    op = haar_projection()
    s = np.array([0.30, 2.76, 0.30, 0.0])
    t = np.array([0.49, 2.99, 0.51, 2.9])
    # the first two pairs share a quarter-width bin, the last two do not
    assert np.array_equal(np.diag(kernel_matrix(op, s, t)), [4.0, 4.0, 0, 0])


def test_rank_one_kernel():
    spec = BasisSpec("daubechies4", 2, UNIT)
    op = single_translate(spec, 3)
    s, t = np.array([0.9, 1.3]), np.array([1.1, 0.6, 2.0])
    expect = np.outer(eval_father(spec, 3, s), eval_father(spec, 3, t))
    assert_allclose(kernel_matrix(op, s, t), expect, rtol=0, atol=1e-15)


def test_kernel_is_linear_in_the_weights():
    # K(s, t) = <s|A|t> carries alpha_j once; the diagonal <s|A*A|s> that
    # the traces integrate carries alpha_j^2
    spec = BasisSpec("daubechies4", 2, UNIT)
    plain = single_translate(spec, 3)
    scaled = single_translate(spec, 3, 0.5)
    s, t = np.array([0.9, 1.3]), np.array([1.1, 0.6, 2.0])
    assert_allclose(kernel_matrix(scaled, s, t),
                    0.5 * kernel_matrix(plain, s, t), rtol=0, atol=1e-15)
    assert np.array_equal(kernel_diag(scaled, s),
                          0.25 * kernel_diag(plain, s))
    op = EmbeddingOperator(spec, np.linspace(0.2, 1.5, spec.size))
    pts = np.linspace(-0.5, 3.5, 41)
    b = basis_matrix(spec, pts)
    assert_allclose(kernel_diag(op, pts), (op.weights ** 2) @ (b * b),
                    rtol=1e-15, atol=0)


@pytest.mark.parametrize("family, scale_n", [("haar", 0), ("daubechies4", 2)])
def test_operator_refuses_weights_whose_products_overflow(family, scale_n):
    # the bound is sqrt(max double) / (w 2**n 1.5**2): 5.959e153 for Haar
    # at n = 0, 4.966e152 for Daubechies 4 at n = 2. Just under it the
    # diagonal and both curves are finite; over it the weight is refused.
    assert np.max(scaling_values_daub4(TABLE_LEVEL)) <= 1.5
    spec = BasisSpec(family, scale_n, UNIT)
    bound = {"haar": 5.95e153, "daubechies4": 4.96e152}[family]
    weights = np.ones(spec.size)
    weights[1] = bound
    op = EmbeddingOperator(spec, weights)
    grid = Grid(spec.span(), round(spec.span().width * 4096))
    assert np.all(np.isfinite(kernel_diag(op, grid.points)))
    target = BetaTarget(2.0, 5.0, UNIT)
    zeta = DensityCurve(grid, target.density(grid.points))
    for curve in (embedded_density_exact(op, zeta, grid),
                  embedded_density_map(op, target.sample(50, 1), grid)):
        assert abs(curve.mass() - 1.0) <= 1e-3
    weights[1] = 1.01 * bound
    with pytest.raises(ValueError, match="weight .* is over .*, the largest"):
        EmbeddingOperator(spec, weights)


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=-0.5, max_value=3.5),
       st.floats(min_value=-0.5, max_value=3.5))
def test_kernel_symmetry(s, t):
    op = daub_projection()
    pts = np.array([s, t])
    gram = kernel_matrix(op, pts, pts)
    assert np.array_equal(gram, gram.T)


def test_kernel_diag_matches_the_kernel_matrix_diagonal():
    # A*A = A for the projection, so <s|A*A|s> is K(s, s)
    op = daub_projection()
    s = np.linspace(-0.5, 3.5, 41)
    assert_allclose(kernel_diag(op, s), np.diag(kernel_matrix(op, s, s)),
                    rtol=0, atol=1e-14)
    assert np.all(kernel_diag(op, s) >= 0.0)


def test_haar_kernel_diag_constant_inside():
    for n in (0, 1, 2, 3):
        op = haar_projection(n)
        s = np.linspace(0.0, 3.0, 97)[:-1]  # drop the half-open right edge
        diag = kernel_diag(op, s)
        # bitwise flat; the level itself is sqrt(2)**(2n), which rounds
        # one ulp away from 2**n at odd n
        assert np.ptp(diag) == 0.0
        assert_allclose(diag, 2.0 ** n, rtol=1e-15, atol=0)


def test_kernel_diag_zero_where_no_support():
    spec = BasisSpec("daubechies4", 2, UNIT)
    op = single_translate(spec, 0)  # support [0, 0.75]
    assert kernel_diag(op, 2.5) == 0.0


def test_kernel_matrix_agrees_with_pointwise_eval():
    # sum_j alpha_j phi_j(s_a) phi_j(t_b) from the cascade table, one
    # translate at a time; t repeats two points of s, so that Haar's
    # entries are not all 0
    rng = np.random.Generator(np.random.PCG64(4))
    s = rng.uniform(-0.5, 3.5, size=7)
    t = np.concatenate([rng.uniform(-0.5, 3.5, size=3), s[:2]])
    for family in ("haar", "daubechies4"):
        spec = BasisSpec(family, 2, UNIT)
        for op in (EmbeddingOperator.projection(spec),
                   EmbeddingOperator(spec, np.linspace(0.2, 1.5, spec.size))):
            expect = sum(alpha * np.outer(eval_father(spec, k, s),
                                          eval_father(spec, k, t))
                         for k, alpha in zip(spec.translates, op.weights))
            assert_allclose(kernel_matrix(op, s, t), expect,
                            rtol=0, atol=1e-14)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_kernel_point_matrices_are_psd(seed):
    assert mercer_positivity(seed, 30) <= 1e-8


def test_projection_kernel_idempotent_under_quadrature():
    # quadrature of K(s,u) K(u,t) du equals K(s,t) for projections
    op = daub_projection()
    span = op.basis.span()
    grid = Grid(span, int(round(span.width * 2 ** 14)))
    rng = np.random.Generator(np.random.PCG64(9))
    probe = rng.uniform(span.lo, span.hi, size=20)
    left = kernel_matrix(op, probe, grid.points)
    composed = (left * grid.weights()) @ kernel_matrix(op, grid.points, probe)
    direct = kernel_matrix(op, probe, probe)
    assert np.max(np.abs(composed - direct)) <= 1e-5


# ---------------------------------------------------------------- traces


def test_trace_k_rho_single_weighted_index():
    # uniform density against a single weighted interior translate:
    # alpha^2 * integral(psi^2) / width = alpha^2 / 3
    spec = BasisSpec("daubechies4", 2, UNIT)
    op = single_translate(spec, 4, 0.7)
    grid = Grid(UNIT, 3 * 2 ** 12)
    uniform = DensityCurve(grid, np.full(grid.points.size, 1.0 / 3.0))
    value = trace_k_rho(op, uniform)
    assert abs(value - 0.49 / 3.0) <= 1e-5


def test_trace_k_rho_is_linear_in_the_mass_of_zeta():
    # trace_k_rho checks nothing of zeta: a zeta of mass 3 gives 3 times
    # the Haar trace 2**n, which the oracle's residual |tr - 2**n| flags.
    # The right end lies outside every half-open box, so half a cell of
    # 2048 is missing from both.
    op = haar_projection()
    grid = Grid(UNIT, 2048)
    one = trace_k_rho(op, DensityCurve(grid, np.full(grid.points.size, 1 / 3)))
    three = trace_k_rho(op, DensityCurve(grid, np.ones(grid.points.size)))
    assert abs(one - 4.0) <= 4.0 / 2048
    assert_allclose(three, 3.0 * one, rtol=1e-14)


def test_trace_k_rho_detects_kernel_of_operator():
    spec = BasisSpec("daubechies4", 2, UNIT)
    op = single_translate(spec, 0)  # support [0, 0.75]
    grid = Grid(UNIT, 3072)
    zeta = np.where(grid.points >= 2.0, 1.0, 0.0)
    zeta = DensityCurve(grid, zeta / grid.integrate(zeta))
    with pytest.raises(ValueError, match="in the kernel of the embedding"):
        trace_k_rho(op, zeta)


def test_trace_k_map_mean_of_diagonal():
    op = daub_projection()
    pts = SampleSet(np.array([0.5]))
    assert_allclose(trace_k_map(op, pts), kernel_diag(op, 0.5),
                    rtol=0, atol=1e-15)
    several = np.array([0.3, 1.7, 2.2])
    doubled = SampleSet(np.concatenate([several, several]))
    assert_allclose(trace_k_map(op, SampleSet(several)),
                    trace_k_map(op, doubled),
                    rtol=1e-15, atol=0)


def test_trace_k_map_haar_constant():
    op = haar_projection()
    rng = np.random.Generator(np.random.PCG64(6))
    pts = SampleSet(rng.uniform(0.0, 3.0, size=57))
    assert trace_k_map(op, pts) == 4.0


def test_trace_k_map_rejects_empty():
    op = haar_projection()
    with pytest.raises(ValueError):
        trace_k_map(op, SampleSet(np.array([])))
