"""Bayesian learning of densities in coefficient form.

The prior is homogeneous (flat), so the log posterior of a state is its
log likelihood, with the evidence constant dropped. On a discrete space it
comes in two coordinate systems that must agree, with an optional noise
matrix on the observations: over the position probabilities, and over a
coefficient matrix in some orthonormal basis; their agreement is the
package's central invariance check. Both score the count of each
observed index, the sufficient statistic, and broadcast over stacks of
states. On the interval, from noiseless samples, the state is the
paper's sample ensemble, the empirical coefficient matrix
M = (1/N) sum_i b(S_i) b(S_i)^T over the basis vector b(s). It is not
the posterior mode of every family: rho = M / tr M maximizes the
interval likelihood sum_i log b(S_i)^T rho b(S_i) only when
lambda_max(G(rho)) <= 1, with G(rho) = (1/N) sum_i b b^T / (b^T rho b)
at b = b(S_i). That holds for Haar; for Daubechies-4, lambda_max is
1.2-2.0 on Beta(2, 5) samples at n = 2 and 3, N = 300 and 10^4.

Both embedded curves are one quadratic form, the position diagonal of
the state A rho A* / tr(A rho A*). The kernel-trick sums
sum_i K(S_i, s)^2 / N and integral zeta(s') K(s, s')^2 ds', with
K(s, t) = <s|A|t>, expand to b(s)^T D M D b(s), with D the diagonal of
operator weights and M either the empirical matrix or the quadrature
matrix sum_p h_p zeta_p b(s_p) b(s_p)^T. The weights enter once, in the
state band state[j, o] = alpha_j M[j, j + o] alpha_{j + o}: the curve is
its form over its trace sum_j state[j, 0], and has unit mass.
`trace_k_rho(A, zeta)` and `trace_k_map(A, samples)` reach that trace
independently and serve as oracles only.
M is held as the d x w band of its diagonals, band[j, o] = M[j, j + o],
scattered in point order; a curve on G points reads w^2 entries per
point, with no d x d matrix. Nothing calls BLAS: the bits are the same at
any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSpec,
    Grid,
    band_to_dense,
    coefficient_band,
    quadratic_form,
)
from .discrete import (
    DensityMatrix,
    DiscreteDistribution,
    UnitaryBasis,
    freeze,
    owned,
    pair_up,
    probability_from_coefficients,
)
from .embedding import (
    VANISHING_DENSITY_TRACE,
    VANISHING_SAMPLE_TRACE,
    VANISHING_TRACE,
    EmbeddingOperator,
    kernel_diag,
)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Noiseless sample points, in order, as one read-only vector."""

    points: np.ndarray

    def __post_init__(self):
        points = owned(self.points, float)
        if points.ndim != 1:
            raise ValueError("sample points must form a 1-d vector")
        if points.size and not np.all(np.isfinite(points)):
            raise ValueError("sample points must be finite")
        freeze(self, "points", points)

    @property
    def n(self) -> int:
        return self.points.size


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """A nonnegative function tabulated on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = owned(self.values, float)
        if values.shape != self.grid.points.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.points.shape})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < -1e-12):
            raise ValueError("density values must be nonnegative")
        np.maximum(values, 0.0, out=values)
        freeze(self, "values", values)

    def mass(self) -> float:
        return self.grid.integrate(self.values)

    def require_unit_mass(self) -> None:
        """Refuse a zeta whose quadrature mass is not 1 within 1e-6."""
        mass = self.mass()
        if abs(mass - 1.0) > 1e-6:
            per_unit = self.grid.cells / self.grid.interval.width
            raise ValueError(
                f"zeta quadrature mass {mass:.9f} is not 1 within 1e-6 on a "
                f"grid of {per_unit:.6g} cells per unit; a density of unit "
                f"mass needs a finer grid")


@dataclass(frozen=True, eq=False)
class MapCoefficients:
    """Empirical coefficient matrix w(j, l) = mean of psi_j(S_i) psi_l(S_i),
    held as its diagonals: band[j, o] = w(j, j + o), o < support width."""

    basis: BasisSpec
    band: np.ndarray

    def __post_init__(self):
        band = owned(self.band, float)
        shape = (self.basis.size, self.basis.support_width)
        if band.shape != shape:
            raise ValueError(
                f"coefficient band shape {band.shape} does not match the "
                f"(translates, support width) {shape} of the basis"
            )
        if not np.all(np.isfinite(band)):
            raise ValueError("coefficient band must be finite")
        freeze(self, "band", band)

    @property
    def matrix(self) -> np.ndarray:
        """The dense symmetric d x d matrix, built on each access."""
        return band_to_dense(self.band)

    def trace(self) -> float:
        return float(np.sum(self.band[:, 0]))


def _log_likelihood(p, counts, noise=None):
    """sum_j counts[j] log observed[j] over the last axis, with
    observed = p @ noise, or p without noise. A counted index whose
    likelihood is <= 0, as a coefficient route can round an empty index
    to about -1e-17, scores -inf; an uncounted one adds 0. The noise rows
    are validated as one stack of `DiscreteDistribution`s."""
    d = p.shape[-1]
    counts = np.asarray(counts)
    if counts.ndim not in (1, 2) or counts.shape[-1] != d:
        raise ValueError(f"counts of shape {counts.shape} do not hold one "
                         f"count per index of dimension {d}")
    if not np.issubdtype(counts.dtype, np.integer) or np.any(counts < 0):
        raise ValueError(f"counts must be nonnegative integers: {counts}")
    if noise is not None:
        noise = np.asarray(noise)
        if noise.ndim in (2, 3):
            rows = DiscreteDistribution(np.vstack(noise)).probabilities
        if noise.ndim not in (2, 3) or noise.shape[-2:] != (d, d):
            raise ValueError(f"noise matrix shape {noise.shape} does not "
                             f"match dimension {d}")
        noise = rows.reshape(noise.shape)
        pair_up((p, 1), (noise, 2))
        p = (p[..., None, :] @ noise)[..., 0, :]
    pair_up((p, 1), (counts, 1))
    with np.errstate(divide="ignore"):
        logs = np.where(counts > 0, np.log(np.maximum(p, 0.0)), 0.0)
    return np.sum(counts * logs, axis=-1)


def log_posterior_discrete(z: DiscreteDistribution, counts, noise=None):
    """Position-basis log posterior on a discrete sample space.

    `counts[j]` is the number of draws that observed index j, and the rows
    of `noise[true, observed]` are distributions. The likelihood of one
    draw observing j is then (Z @ noise)[j], and the log posterior is
    sum_j counts[j] log (Z @ noise)[j]: under the flat prior, the log
    likelihood, with the evidence constant dropped. The counts must be
    nonnegative integers, one per index. Any of `z`, `counts` and `noise`
    may be a stack, (count, d), (count, d) or (count, d, d), and stacks
    must pair up: a float for one state, one value per member otherwise.
    """
    return _log_likelihood(z.probabilities, counts, noise)


def log_posterior_coefficients(w: DensityMatrix, unitary: UnitaryBasis,
                               counts, noise=None):
    """Log posterior computed entirely in an arbitrary orthonormal basis.

    `w` is the coefficient matrix of a state in the basis whose columns
    are the columns of `unitary`, both of one dimension d <= 64.
    Position-basis probabilities are recovered through
    `probability_from_coefficients`, the double contraction
    p_j = sum_kl w[k, l] U[j, k] conj(U[j, l]), rather than by
    transforming w back, so agreement with `log_posterior_discrete`
    exercises a genuinely different computation route. Under the flat
    prior both are the log likelihood, so the two are equal. Counts,
    noise and stacks are as in `log_posterior_discrete`.
    """
    if w.d > 64:
        raise ValueError(
            f"discrete dimension {w.d} exceeds the oracle scale 64")
    return _log_likelihood(probability_from_coefficients(w, unitary),
                           counts, noise)


def map_coefficients(samples: SampleSet, basis: BasisSpec) -> MapCoefficients:
    """The paper's sample ensemble of noiseless samples,
    w(j, l) = (1/N) sum_i psi_j(S_i) psi_l(S_i).

    Under the flat prior it is the posterior mode only when
    lambda_max(G(w / tr w)) <= 1 (see the module docstring): for Haar,
    not for Daubechies-4.
    """
    if samples.n == 0:
        raise ValueError("empty sample set")
    ones = np.ones(samples.n)
    band = coefficient_band(basis, samples.points, ones) / samples.n
    return MapCoefficients(basis=basis, band=band)


def _embedded_curve(A: EmbeddingOperator, band, grid: Grid,
                    vanishing: str) -> DensityCurve:
    """The form of the state band state[j, o] = alpha_j M[j, j + o]
    alpha_{j + o} over its trace tr on the grid; raises with `vanishing`
    when tr <= VANISHING_TRACE, where no curve exists."""
    w = band.shape[1]
    right = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([A.weights, np.zeros(w - 1)]), w)
    state = A.weights[:, None] * band * right
    trace = float(np.sum(state[:, 0]))
    if trace <= VANISHING_TRACE:
        raise ValueError(vanishing)
    values = quadratic_form(A.basis, state, grid.points)
    return DensityCurve(grid=grid, values=values / trace)


def embedded_density_exact(A: EmbeddingOperator, zeta: DensityCurve,
                           grid: Grid) -> DensityCurve:
    """Embedded image of a known density: (1/T) integral zeta(s') K(s, s')^2.

    The integral is the quadratic form of the trapezoid matrix
    M = sum_p h_p zeta_p b(s_p) b(s_p)^T on zeta's own grid, and T is its
    trace tr(A rho A*) = sum_j alpha_j^2 M_jj. Refuses a zeta whose
    quadrature mass is not 1 within 1e-6 and a zeta in the kernel of A.
    The output integrates to 1 up to quadrature error, provided the grid
    covers the span of the translates.
    """
    zeta.require_unit_mass()
    weighted = zeta.grid.weights() * zeta.values
    band = coefficient_band(A.basis, zeta.grid.points, weighted)
    return _embedded_curve(A, band, grid, VANISHING_DENSITY_TRACE)


def embedded_density_map(A: EmbeddingOperator, samples: SampleSet,
                         grid: Grid) -> DensityCurve:
    """Kernel-trick MAP density: sum_i K(S_i, s)^2 / (N tr).

    Evaluated as the quadratic form of the sample ensemble M of
    `map_coefficients`, which is the likelihood's maximizer for Haar but
    not for Daubechies-4, with
    tr = sum_j alpha_j^2 M_jj, the mean kernel diagonal over the samples.
    Requires a nonempty sample set with a nonzero trace.
    """
    band = map_coefficients(samples, A.basis).band
    return _embedded_curve(A, band, grid, VANISHING_SAMPLE_TRACE)


def normalized_ratio(curve: DensityCurve, A: EmbeddingOperator) -> DensityCurve:
    """curve / kernel_diag, masked where the diagonal nearly vanishes,
    then renormalized to unit quadrature mass on the curve's grid.

    The mask threshold is 1e-8 times the largest diagonal value, which
    suppresses the boundary regions where the diagonal decays to zero and
    the raw ratio would blow up.
    """
    diag = kernel_diag(A, curve.grid.points)
    peak = float(np.max(diag))
    if peak <= 0.0:
        raise ValueError("kernel diagonal vanishes everywhere on the grid")
    eps = 1e-8 * peak
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(diag > eps, curve.values / diag, 0.0)
    mass = curve.grid.integrate(vals)
    if mass <= 0.0:
        raise ValueError("ratio curve has zero mass; nothing to normalize")
    return DensityCurve(grid=curve.grid, values=vals / mass)
