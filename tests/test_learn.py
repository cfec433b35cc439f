"""Discrete posterior routes, the closed-form MAP, and embedded densities.

Hand oracles: a discrete distribution whose posterior is log(1/128), and
Haar embeddings whose piecewise-constant closed forms are exact.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from densop import (
    BasisSpec,
    BetaTarget,
    DensityCurve,
    DensityMatrix,
    DiscreteDistribution,
    EmbeddingOperator,
    Grid,
    Interval,
    MapCoefficients,
    SampleSet,
    UnitaryBasis,
    WaveFunction,
    basis_matrix,
    embedded_density_exact,
    embedded_density_map,
    kernel_diag,
    log_posterior_coefficients,
    log_posterior_discrete,
    map_coefficients,
    normalized_ratio,
    trace_k_map,
)
from densop.learn import _log_likelihood
from densop.oracles import (
    haar_map_histogram,
    map_coefficient_trace,
    map_coefficients_psd,
    posterior_coordinate_invariance,
)
from references import kernel_matrix

UNIT = Interval(0.0, 3.0)


def single_translate(spec, k, weight=1.0):
    # one nonzero weight, on translate k; every other translate is left out
    weights = np.zeros(spec.size)
    weights[k - spec.translate_range[0]] = weight
    return EmbeddingOperator(spec, weights)


# ------------------------------------------------------------ data types


@pytest.mark.parametrize("build", [
    lambda: WaveFunction(np.array([0.6, 0.8])),
    lambda: DensityMatrix(np.eye(2) / 2.0),
    lambda: DiscreteDistribution(np.array([0.25, 0.75])),
    lambda: UnitaryBasis(np.eye(2)),
    lambda: SampleSet(np.array([0.5, 1.5])),
    lambda: DensityCurve(Grid(UNIT, 3), np.full(4, 1.0 / 3.0)),
    lambda: MapCoefficients(BasisSpec("haar", 0, UNIT), np.ones((3, 1)) / 3),
    lambda: EmbeddingOperator.projection(BasisSpec("haar", 0, UNIT)),
], ids=["WaveFunction", "DensityMatrix", "DiscreteDistribution",
        "UnitaryBasis", "SampleSet", "DensityCurve", "MapCoefficients",
        "EmbeddingOperator"])
def test_array_holding_types_compare_by_identity(build):
    # == on array fields would raise "truth value ... is ambiguous"; these
    # types compare by identity instead, so == always returns a bool
    a, b = build(), build()
    assert (a == a) is True
    assert (a == b) is False
    assert (a != b) is True


def test_sample_set_basics():
    s = SampleSet(np.array([0.5, 1.5]))
    assert s.n == 2
    assert not s.points.flags.writeable
    assert SampleSet(np.array([])).n == 0


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, np.nan]))


def test_density_curve_validation():
    grid = Grid(UNIT, 4)
    with pytest.raises(ValueError):
        DensityCurve(grid, np.zeros(3))
    with pytest.raises(ValueError):
        DensityCurve(grid, np.array([1.0, -0.5, 1.0, 1.0, 1.0]))
    # values inside the rounding band get clipped to zero
    curve = DensityCurve(grid, np.array([1.0, -1e-13, 1.0, 1.0, 1.0]))
    assert curve.values[1] == 0.0
    assert not curve.values.flags.writeable


def test_map_coefficients_validation():
    # a coefficient band is d x w: one row per translate, one column per
    # diagonal of the symmetric matrix it holds
    spec = BasisSpec("haar", 0, UNIT)  # 3 translates, w = 1
    good = MapCoefficients(spec, np.full((3, 1), 1.0 / 3.0))
    assert_allclose(good.trace(), 1.0)
    assert np.array_equal(good.matrix, np.eye(3) / 3.0)
    for shape in ((4, 1), (3, 2), (3,), (3, 3)):
        with pytest.raises(ValueError, match="band shape"):
            MapCoefficients(spec, np.zeros(shape))
    spec = BasisSpec("daubechies4", 0, UNIT)  # 5 translates, w = 3
    band = np.arange(15.0).reshape(5, 3)
    coeffs = MapCoefficients(spec, band)
    assert not coeffs.band.flags.writeable
    assert coeffs.trace() == 0.0 + 3.0 + 6.0 + 9.0 + 12.0
    m = coeffs.matrix
    assert np.array_equal(m, m.T)
    assert m[1, 3] == band[1, 2] and m[4, 3] == band[3, 1]
    assert m[0, 3] == 0.0
    with pytest.raises(ValueError, match="band shape"):
        MapCoefficients(spec, np.eye(5))


# ------------------------------------------- discrete posterior routes


def test_discrete_posterior_hand_oracle():
    z = DiscreteDistribution(np.array([0.5, 0.25, 0.25]))
    idx = [0, 1, 1, 2]
    lp = log_posterior_discrete(z, idx)
    assert_allclose(lp, math.log(1.0 / 128.0), rtol=1e-14)
    # identity noise changes nothing
    assert_allclose(
        log_posterior_discrete(z, idx, np.eye(3)),
        lp, rtol=1e-14,
    )


def test_discrete_posterior_with_noise_matrix():
    z = DiscreteDistribution(np.array([0.5, 0.25, 0.25]))
    noise = np.array([
        [0.8, 0.2, 0.0],
        [0.1, 0.8, 0.1],
        [0.0, 0.2, 0.8],
    ])
    observed = z.probabilities @ noise
    idx = [0, 1, 1, 2]
    lp = log_posterior_discrete(z, idx, noise)
    expected = sum(math.log(observed[b]) for b in idx)
    assert_allclose(lp, expected, rtol=1e-14)


def test_discrete_posterior_minus_inf_and_prior():
    z = DiscreteDistribution(np.array([1.0, 0.0]))
    assert log_posterior_discrete(z, [1]) == -math.inf
    # the flat prior adds nothing: the log posterior is the log likelihood
    uniform = DiscreteDistribution(np.array([0.5, 0.5]))
    assert log_posterior_discrete(uniform, [0]) == math.log(0.5)


@pytest.mark.parametrize("z, message", [
    ([2.0, 3.0], "^sum 5.000000000000000 is not 1"),
    ([0.5, 0.5 + 2e-12], "^sum .* is not 1 within 1e-12"),
    ([1.5, -0.5], "^probabilities must be nonnegative"),
    ([np.nan, 1.0], "^probabilities must be finite, but entry 0 is nan"),
    ([1.0, np.nan], "^probabilities must be finite, but entry 1 is nan"),
    ([np.inf, 1.0], "^probabilities must be finite, but entry 0 is inf"),
    ([1.0, -np.inf], "^probabilities must be finite, but entry 1 is -inf"),
    ([], "nonempty"),
])
def test_discrete_posterior_refuses_what_is_not_a_distribution(z, message):
    # each vector as row 1 of a noise matrix, under both posteriors: the
    # rows are refused by the rules of DiscreteDistribution, naming the row
    noise = np.array([[0.5, 0.5], z]) if z else np.zeros((2, 0))
    match = message.replace("^", "^member 1: ") if z else message
    state = DensityMatrix(np.eye(2) / 2.0)
    for posterior in (
            lambda: log_posterior_discrete(
                DiscreteDistribution(np.full(2, 0.5)), [0], noise),
            lambda: log_posterior_coefficients(
                state, UnitaryBasis(np.eye(2)), [0], noise)):
        with pytest.raises(ValueError, match=match):
            posterior()


def _sequential_log_likelihood(observed, sample_indices):
    total = 0.0
    for b in sample_indices:
        like = float(observed[int(b)])
        if like <= 0.0:
            return -math.inf
        total += math.log(like)
    return total


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=0, max_value=200))
def test_log_likelihood_adds_in_draw_order(d, seed, n_draws):
    # the gathered sum keeps the bits of one log per draw, added in order
    rng = np.random.default_rng(seed)
    observed = rng.random(d) + 1e-300
    draws = rng.integers(0, d, size=n_draws)
    got = _log_likelihood(observed, draws)
    assert got == _sequential_log_likelihood(observed, draws)
    assert got == _log_likelihood(observed, draws.tolist())
    assert _log_likelihood(observed, []) == 0.0
    # a negative index is refused, not read from the end
    if n_draws:
        with pytest.raises(IndexError, match="sample index -"):
            _log_likelihood(observed, draws - d)


@pytest.mark.parametrize("bad", [0.0, -0.0, -1e-300, -0.25])
def test_log_likelihood_is_minus_inf_on_a_draw_without_likelihood(bad):
    observed = np.array([0.5, bad, 0.5])
    assert _log_likelihood(observed, [0, 2, 1, 0]) == -math.inf
    assert _log_likelihood(observed, [0, 2, 0]) == math.log(0.5) * 3


def test_log_likelihood_refuses_an_index_out_of_range():
    observed = np.array([1.0, 0.0])
    with pytest.raises(IndexError):
        _log_likelihood(observed, [0, 2])
    # every index is checked before the zero likelihood of draw 1 is seen
    with pytest.raises(IndexError):
        _log_likelihood(observed, [1, 2])
    with pytest.raises(IndexError):
        log_posterior_discrete(DiscreteDistribution(observed), [1, -3])
    # -1 once scored the last state
    with pytest.raises(IndexError,
                       match="^sample index -1 out of range for dimension 2$"):
        _log_likelihood(observed, [0, -1])


@pytest.mark.parametrize("draws", [[0.9, 1.7], [0.0], np.array([True]),
                                   np.array([1.0, 0.0])])
def test_log_likelihood_refuses_indices_that_are_not_integers(draws):
    # [0.9, 1.7] was once scored as [0, 1]
    z = DiscreteDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="^sample indices must be integers"):
        log_posterior_discrete(z, draws)


def test_noise_matrix_validation():
    z = DiscreteDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"^noise matrix shape \(3, 3\) "
                                         r"does not match dimension 2$"):
        log_posterior_discrete(z, [0], np.eye(3))
    with pytest.raises(ValueError, match="^member 0: probabilities must be "
                                         "nonnegative"):
        log_posterior_discrete(z, [0], np.array([[1.1, -0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="^member 0: sum 0.9"):
        log_posterior_discrete(z, [0], np.array([[0.5, 0.4], [0.0, 1.0]]))
    # the rows' rules are the distribution's: a sum off by 1e-11 and an
    # entry of -1e-13 are refused
    with pytest.raises(ValueError, match="^member 1: sum"):
        log_posterior_discrete(z, [0], np.array([[1.0, 0.0],
                                                 [0.5, 0.5 + 1e-11]]))
    with pytest.raises(ValueError, match="^member 0: .*nonnegative"):
        log_posterior_discrete(z, [0], np.array([[1.0 + 1e-13, -1e-13],
                                                 [0.0, 1.0]]))
    # a NaN or an infinite row was once scored, as nan
    z = DiscreteDistribution(np.array([0.5, 0.25, 0.25]))
    for bad in (np.nan, np.inf):
        noise = np.eye(3)
        noise[2, 1] = bad
        with pytest.raises(ValueError, match="^member 2: probabilities must "
                                             "be finite, but entry 1 is"):
            log_posterior_discrete(z, [0, 1], noise)


def test_coefficient_posterior_identity_basis():
    z = np.array([0.5, 0.25, 0.25])
    idx = [0, 1, 1, 2]
    lp = log_posterior_coefficients(DensityMatrix(np.diag(z)),
                                    UnitaryBasis(np.eye(3)), idx)
    assert_allclose(lp, math.log(1.0 / 128.0), rtol=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_coefficient_route_matches_position_route(seed):
    # the same samples scored in position coordinates and in a random
    # rotated basis must give the same posterior; of the two trials, the
    # second adds a noise matrix
    rng = np.random.Generator(np.random.PCG64(900 + seed))
    assert posterior_coordinate_invariance(rng, 2) <= 1e-12


def test_coefficient_posterior_validation():
    with pytest.raises(ValueError, match="exceeds the oracle scale 64"):
        log_posterior_coefficients(DensityMatrix(np.eye(65) / 65.0),
                                   UnitaryBasis(np.eye(65)), [0])
    state, basis = DensityMatrix(np.eye(3) / 3.0), UnitaryBasis(np.eye(3))
    state_stack = DensityMatrix(np.stack([np.eye(3) / 3.0] * 2))
    basis_stack = UnitaryBasis(np.stack([np.eye(3)] * 2))
    for w, u in ((state, UnitaryBasis(np.eye(4))), (state_stack, basis),
                 (state, basis_stack), (state_stack, basis_stack)):
        with pytest.raises(ValueError, match=(
                "^the posterior takes one state and one basis of the same "
                "dimension, not shapes")):
            log_posterior_coefficients(w, u, [0])


def test_discrete_posterior_refuses_a_stack():
    stack = DiscreteDistribution(np.full((2, 3), 1.0 / 3.0))
    with pytest.raises(ValueError, match=(
            r"^the posterior takes one distribution, not a stack of shape "
            r"\(2, 3\)$")):
        log_posterior_discrete(stack, [0])


# ------------------------------------------------------- closed-form MAP


def test_map_single_sample_is_rank_one():
    spec = BasisSpec("daubechies4", 2, UNIT)
    coeffs = map_coefficients(SampleSet(np.array([1.3])), spec)
    col = basis_matrix(spec, np.array([1.3]))[:, 0]
    assert np.array_equal(coeffs.matrix, np.outer(col, col))


def test_map_is_invariant_under_sample_duplication():
    spec = BasisSpec("daubechies4", 2, UNIT)
    once = map_coefficients(SampleSet(np.array([0.4, 1.7])), spec)
    twice = map_coefficients(SampleSet(np.array([0.4, 1.7, 0.4, 1.7])), spec)
    assert_allclose(twice.matrix, once.matrix, rtol=1e-14, atol=1e-16)


def test_map_trace_equals_mean_kernel_diagonal():
    # the trace is about 2**scale_n = 4 at the default config, so this is a
    # relative bound of 1e-12
    assert map_coefficient_trace(4, 200) <= 4e-12


def test_map_matrix_is_positive_semidefinite():
    assert map_coefficients_psd(6, 300) <= 1e-12


def test_map_haar_diagonal_converges_to_bin_masses():
    # with Haar translates the diagonal of the empirical matrix is
    # 2**n times the empirical bin frequency, so the law of large numbers
    # pins it to 2**n times the bin mass; the off-diagonal is exactly zero
    spec = BasisSpec("haar", 2, UNIT)
    target = BetaTarget(2.0, 5.0, UNIT)
    n = 200000
    samples = target.sample(n, seed=17)
    coeffs = map_coefficients(samples, spec)
    off = coeffs.matrix - np.diag(np.diag(coeffs.matrix))
    assert np.all(off == 0.0)
    edges = np.arange(13) / 4.0
    q = np.diff(target.cdf(edges))
    sigma = 4.0 * np.sqrt(q * (1.0 - q) / n)
    assert np.all(np.abs(np.diag(coeffs.matrix) - 4.0 * q) <= 3.0 * sigma)


def test_map_refuses_noisy_and_empty_samples():
    spec = BasisSpec("haar", 1, UNIT)
    with pytest.raises(ValueError, match="empty"):
        map_coefficients(SampleSet(np.array([])), spec)


# ------------------------------------------------------- embedded curves


def test_exact_embedding_haar_closed_form():
    # for Haar at scale 2 the squared kernel is 16 times the shared-bin
    # indicator, so the embedded curve is piecewise constant with value
    # 16 q_k / T on bin k, where q_k is the quadrature mass of zeta there
    spec = BasisSpec("haar", 2, UNIT)
    op = EmbeddingOperator.projection(spec)
    zeta_grid = Grid(UNIT, 3072)
    target = BetaTarget(2.0, 5.0, UNIT)
    zeta = DensityCurve(zeta_grid, target.density(zeta_grid.points))
    weighted = zeta_grid.weights() * zeta.values
    ind_z = basis_matrix(spec, zeta_grid.points) ** 2 / 4.0
    q = ind_z @ weighted
    trace = zeta_grid.integrate(4.0 * ind_z.sum(axis=0) * zeta.values)
    for out_grid in (zeta_grid, Grid(UNIT, 600)):
        curve = embedded_density_exact(op, zeta, out_grid)
        ind_out = basis_matrix(spec, out_grid.points) ** 2 / 4.0
        expected = (16.0 / trace) * (q @ ind_out)
        assert np.max(np.abs(curve.values - expected)) <= 1e-12


def test_map_embedding_single_bin_samples():
    # all samples inside one Haar bin: the estimate is the flat density of
    # that bin, exactly 4 inside and 0 outside, with no quadrature at all
    spec = BasisSpec("haar", 2, UNIT)
    op = EmbeddingOperator.projection(spec)
    samples = SampleSet(np.array([1.01, 1.05, 1.2, 1.24]))
    grid = Grid(UNIT, 300)
    curve = embedded_density_map(op, samples, grid)
    inside = (grid.points >= 1.0) & (grid.points < 1.25)
    assert np.all(curve.values[inside] == 4.0)
    assert np.all(curve.values[~inside] == 0.0)


def test_map_embedding_matches_histogram():
    # 500 beta draws, Haar n = 3, 1000 cells; the histogram is 0 at the
    # right domain endpoint, which sits outside every half-open bin (the
    # exact zero there is asserted by the single-bin test above)
    assert haar_map_histogram(11, 500, (3,), 1000) <= 1e-12


def test_map_embedding_single_sample_has_unit_mass():
    # integral of K(S, .)^2 equals the kernel diagonal at S, so one sample
    # already produces a normalized curve up to quadrature error
    spec = BasisSpec("daubechies4", 2, UNIT)
    op = EmbeddingOperator.projection(spec)
    grid = Grid(spec.span(), 4 * 4096)
    curve = embedded_density_map(op, SampleSet(np.array([1.3])), grid)
    assert abs(curve.mass() - 1.0) <= 1e-4


def test_map_embedding_rejects_bad_samples():
    spec = BasisSpec("haar", 1, UNIT)
    op = EmbeddingOperator.projection(spec)
    grid = Grid(UNIT, 50)
    with pytest.raises(ValueError, match="empty"):
        embedded_density_map(op, SampleSet(np.array([])), grid)


def test_map_embedding_refuses_samples_outside_every_support():
    # the right domain end lies outside every half-open Haar box
    spec = BasisSpec("haar", 2, UNIT)
    op = EmbeddingOperator.projection(spec)
    samples = SampleSet(np.array([3.0, 3.0]))
    with pytest.raises(ValueError, match="trace vanishes"):
        trace_k_map(op, samples)
    with pytest.raises(ValueError, match="trace vanishes"):
        embedded_density_map(op, samples, Grid(UNIT, 300))
    # a sample set that misses the only weighted translate does the same
    single = single_translate(BasisSpec("daubechies4", 2, UNIT), 3, 0.7)
    far = SampleSet(np.array([2.5, 2.9]))
    with pytest.raises(ValueError, match="trace vanishes"):
        embedded_density_map(single, far, Grid(UNIT, 300))


def test_exact_embedding_refuses_a_zeta_without_unit_mass():
    op = EmbeddingOperator.projection(BasisSpec("haar", 2, UNIT))
    grid = Grid(UNIT, 3072)
    uniform = np.full(grid.points.size, 1.0 / 3.0)
    # the right end lies outside every half-open Haar box
    curve = embedded_density_exact(op, DensityCurve(grid, uniform), grid)
    assert abs(curve.mass() - 1.0) <= 1e-3
    for scale in (1.0 + 2e-6, 1.0 - 2e-6, 3.0):
        with pytest.raises(ValueError, match="is not 1 within 1e-6"):
            embedded_density_exact(op, DensityCurve(grid, scale * uniform),
                                   grid)


def test_exact_embedding_refuses_a_zeta_in_the_kernel():
    # zeta lives on [2, 3]; the only weighted translate, k = 0, is
    # supported on [0, 0.75]
    spec = BasisSpec("daubechies4", 2, UNIT)
    op = single_translate(spec, 0)
    grid = Grid(UNIT, 3072)
    zeta = np.where(grid.points >= 2.0, 1.0, 0.0)
    zeta = DensityCurve(grid, zeta / grid.integrate(zeta))
    with pytest.raises(ValueError, match="in the kernel of the embedding"):
        embedded_density_exact(op, zeta, grid)
    # the same zeta against every translate has a curve
    projection = EmbeddingOperator.projection(spec)
    assert embedded_density_exact(projection, zeta, grid).mass() > 0.0


def test_curves_and_matrices_reject_non_finite_values():
    grid = Grid(UNIT, 3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            DensityCurve(grid, np.array([0.1, bad, 0.2, 0.3]))
        with pytest.raises(ValueError, match="finite"):
            MapCoefficients(BasisSpec("haar", 0, UNIT),
                            np.array([[1.0], [bad], [1.0]]))


# --------------------------------------- banded form against kernel trick


def equivalence_operators(spec):
    # the projection, one weighted translate with a non-unit weight, and
    # unequal weights over every translate
    d = spec.size
    return [
        EmbeddingOperator.projection(spec),
        single_translate(spec, int(spec.translates[d // 3]), 0.7),
        EmbeddingOperator(spec, np.linspace(0.2, 1.5, d)),
    ]


EQUIVALENCE_SPECS = [("haar", n) for n in range(4)] + [
    ("daubechies4", 2), ("daubechies4", 5)]


def dense_diag(op, pts):
    # <s|A*A|s> = sum_j alpha_j^2 psi_j(s)^2 from dense basis rows; the
    # kernel's own diagonal K(s, s) = <s|A|s> is not the trace density
    b = basis_matrix(op.basis, pts)
    return (op.weights ** 2) @ (b * b)


def kernel_trick_exact(op, zeta, out):
    # dense kernel matrices, squared and integrated; the trace comes from
    # dense basis rows rather than the banded diagonal
    pts = zeta.grid.points
    cross = kernel_matrix(op, out.points, pts)
    trace = zeta.grid.integrate(zeta.values * dense_diag(op, pts))
    return (cross * cross) @ (zeta.grid.weights() * zeta.values) / trace


def kernel_trick_map(op, samples, out):
    cross = kernel_matrix(op, samples.points, out.points)
    trace = np.mean(dense_diag(op, samples.points))
    return np.sum(cross * cross, axis=0) / (samples.n * trace)


@pytest.mark.parametrize("family, scale_n", EQUIVALENCE_SPECS)
def test_banded_curves_match_the_kernel_trick(family, scale_n):
    spec = BasisSpec(family, scale_n, UNIT)
    target = BetaTarget(2.0, 5.0, UNIT)
    zeta_grid = Grid(UNIT, 3 * 2 ** 10)
    # the uniform density is nonzero at the ends, where the trapezoid
    # weights are halved
    zetas = [DensityCurve(zeta_grid, target.density(zeta_grid.points)),
             DensityCurve(zeta_grid, np.full(zeta_grid.points.size, 1 / 3))]
    samples = target.sample(200, seed=3)
    out = Grid(spec.span(), 700)
    for op in equivalence_operators(spec):
        pairs = [(embedded_density_exact(op, zeta, out),
                  kernel_trick_exact(op, zeta, out)) for zeta in zetas]
        pairs.append((embedded_density_map(op, samples, out),
                      kernel_trick_map(op, samples, out)))
        for got, expect in pairs:
            err = np.max(np.abs(got.values - expect))
            assert err <= 1e-12 * np.max(expect), (op.weights, err)


def test_map_matrix_matches_dense_basis_route():
    spec = BasisSpec("daubechies4", 3, UNIT)
    samples = BetaTarget(2.0, 5.0, UNIT).sample(500, seed=8)
    b = basis_matrix(spec, samples.points)
    coeffs = map_coefficients(samples, spec)
    assert np.array_equal(coeffs.matrix, coeffs.matrix.T)
    assert_allclose(coeffs.matrix, b @ b.T / samples.n, rtol=0, atol=1e-14)


# ------------------------------------------------------- normalized ratio


def test_ratio_with_constant_diagonal_preserves_shape():
    # Haar diagonals are flat, so dividing and renormalizing must return
    # the input shape normalized to unit mass, bit for bit
    spec = BasisSpec("haar", 2, UNIT)
    op = EmbeddingOperator.projection(spec)
    grid = Grid(UNIT, 2048)
    target = BetaTarget(2.0, 5.0, UNIT)
    curve = DensityCurve(grid, target.density(grid.points))
    ratio = normalized_ratio(curve, op)
    assert np.array_equal(ratio.values, curve.values / curve.mass())


def test_ratio_of_the_diagonal_is_flat():
    spec = BasisSpec("daubechies4", 2, UNIT)
    op = EmbeddingOperator.projection(spec)
    grid = Grid(spec.span(), 4096)
    diag = kernel_diag(op, grid.points)
    ratio = normalized_ratio(DensityCurve(grid, diag), op)
    live = diag > 1e-8 * float(np.max(diag))
    assert np.ptp(ratio.values[live]) == 0.0
    assert np.all(ratio.values[~live] == 0.0)
    assert_allclose(ratio.mass(), 1.0, rtol=0, atol=1e-12)


def test_ratio_error_paths():
    spec = BasisSpec("haar", 0, Interval(0.0, 1.0))
    op = EmbeddingOperator.projection(spec)
    # curve mass sits entirely where the diagonal vanishes
    grid = Grid(Interval(0.0, 2.0), 200)
    vals = np.where(grid.points >= 1.5, 2.0, 0.0)
    with pytest.raises(ValueError, match="zero mass"):
        normalized_ratio(DensityCurve(grid, vals), op)
    # grid entirely outside the diagonal support
    far = Grid(Interval(1.5, 2.0), 50)
    with pytest.raises(ValueError, match="vanishes"):
        normalized_ratio(DensityCurve(far, np.full(51, 2.0)), op)
