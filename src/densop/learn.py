"""Bayesian learning of densities in coefficient form.

The prior is homogeneous (flat), so the log posterior of a state is its
log likelihood, with the evidence constant dropped. On a discrete space it
comes in two coordinate systems that must agree, with an optional noise
matrix on the observations: over the position probabilities, and over a
coefficient matrix in some orthonormal basis; their agreement is the
package's central invariance check. On the interval, from noiseless
samples, the state is the paper's sample ensemble, the empirical
coefficient matrix M = (1/N) sum_i b(S_i) b(S_i)^T over the basis vector
b(s). It is not the posterior mode of every family: rho = M / tr M
maximizes the interval likelihood sum_i log b(S_i)^T rho b(S_i) only when
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

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSpec,
    Grid,
    band_to_dense,
    coefficient_band,
    quadratic_form,
)
from .discrete import DensityMatrix, DiscreteDistribution, UnitaryBasis
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
        points = np.ascontiguousarray(self.points, dtype=float)
        if points.ndim != 1:
            raise ValueError("sample points must form a 1-d vector")
        if points.size and not np.all(np.isfinite(points)):
            raise ValueError("sample points must be finite")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.points.size


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """A nonnegative function tabulated on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != self.grid.points.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.points.shape})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < -1e-12):
            raise ValueError("density values must be nonnegative")
        values = np.maximum(values, 0.0)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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
        band = np.ascontiguousarray(self.band, dtype=float)
        shape = (self.basis.size, self.basis.support_width)
        if band.shape != shape:
            raise ValueError(
                f"coefficient band shape {band.shape} does not match the "
                f"(translates, support width) {shape} of the basis"
            )
        if not np.all(np.isfinite(band)):
            raise ValueError("coefficient band must be finite")
        band.flags.writeable = False
        object.__setattr__(self, "band", band)

    @property
    def matrix(self) -> np.ndarray:
        """The dense symmetric d x d matrix, built on each access."""
        return band_to_dense(self.band)

    def trace(self) -> float:
        return float(np.sum(self.band[:, 0]))


def _log_likelihood(p, sample_indices, noise_matrix=None) -> float:
    """Sum of log observed[b] over the draws b, in draw order, with
    observed = p @ noise, or p without a noise matrix; -inf when one draw
    has zero likelihood. The noise rows must form a d x d stack of
    `DiscreteDistribution`s. The draws must be integers in [0, d), all
    checked first, so one out of range raises IndexError even after a
    zero likelihood."""
    if noise_matrix is not None:
        noise = DiscreteDistribution(noise_matrix).probabilities
        if noise.shape != (p.size, p.size):
            raise ValueError(f"noise matrix shape {noise.shape} does not "
                             f"match dimension {p.size}")
        p = p @ noise
    draws = np.asarray(sample_indices)
    if draws.size == 0:
        return 0.0
    if not np.issubdtype(draws.dtype, np.integer):
        raise ValueError(f"sample indices must be integers, not {draws.dtype}")
    if draws.min() < 0:
        raise IndexError(f"sample index {draws.min()} out of range for "
                         f"dimension {p.size}")
    total = 0.0
    for like in p[draws].tolist():
        if like <= 0.0:
            return -math.inf
        total += math.log(like)
    return total


def log_posterior_discrete(z: DiscreteDistribution, sample_indices,
                           noise_matrix=None) -> float:
    """Position-basis log posterior on a discrete sample space.

    `z` is one distribution Z over the states, not a stack, and the rows
    of `noise_matrix[true, observed]` are distributions. The likelihood of
    observing index b in [0, d) is then (Z @ noise)[b]. Under the flat
    prior the log posterior is the log likelihood, with the evidence
    constant dropped.
    """
    if z.probabilities.ndim != 1:
        raise ValueError(f"the posterior takes one distribution, not a "
                         f"stack of shape {z.probabilities.shape}")
    return _log_likelihood(z.probabilities, sample_indices, noise_matrix)


def log_posterior_coefficients(w: DensityMatrix, unitary: UnitaryBasis,
                               sample_indices, noise_matrix=None) -> float:
    """Log posterior computed entirely in an arbitrary orthonormal basis.

    `w` is the coefficient matrix of one state in the basis whose columns
    are the columns of `unitary`, both of one dimension d <= 64.
    Position-basis probabilities are recovered through the double
    contraction p_j = sum_kl w[k, l] U[j, k] conj(U[j, l]) rather than by
    transforming w back, so agreement with `log_posterior_discrete`
    exercises a genuinely different computation route. Under the flat
    prior both are the log likelihood, so the two are equal.
    """
    w, u = w.entries, unitary.columns
    if w.ndim != 2 or u.shape != w.shape:
        raise ValueError(f"the posterior takes one state and one basis of "
                         f"the same dimension, not shapes {w.shape} and "
                         f"{u.shape}")
    if w.shape[0] > 64:
        raise ValueError(
            f"discrete dimension {w.shape[0]} exceeds the oracle scale 64")
    p = np.einsum("jk,kl,jl->j", u, w, np.conj(u)).real
    return _log_likelihood(p, sample_indices, noise_matrix)


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
