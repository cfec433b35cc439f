"""Weighted basis embeddings and their squared kernel.

An embedding operator is a nonnegative combination A = sum_j alpha_j
|psi_j><psi_j| over the translates of a basis family, with one weight per
translate; a zero weight leaves its translate out. Everything downstream
only ever needs the kernel K(s, t) = sum_j alpha_j^2 psi_j(s) psi_j(t) and
its diagonal, so the embedded states themselves are never materialized. A
point meets at most w translates (w = 1 for Haar, 3 for Daubechies 4), so
the kernel diagonal on G points is a banded sum of G x w terms, evaluated
block by block of points and added in translate order; nothing calls
BLAS, so it has the same bits at any BLAS thread count.
The projection case (all weights 1) is the one used by the experiment
commands.

The embedded curves in `densop.learn` use the same band: each is the
quadratic form b(s)^T W M W b(s) / tr of a coefficient matrix M, held as
the d x w band of its w diagonals, with W the squared weights and
tr = sum_j W_jj M_jj, and costs O(G w^2). M is scattered block by block
into one accumulator, still in point order.
`kernel_eval`, `kernel_matrix`, `trace_k_rho(A, zeta)` and
`trace_k_map(A, samples)` build the same numbers another way (dense basis
rows, quadrature of the kernel diagonal against a `DensityCurve`). The
curves never call them; they remain as an independent route for tests and
the oracle suites. Only `learn.embedded_density_exact` checks zeta's mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, _band_blocks, basis_matrix

VANISHING_SAMPLE_TRACE = (
    "every sample lies outside the support of the embedding operator's "
    "weighted translates, so the sample trace vanishes"
)
VANISHING_DENSITY_TRACE = (
    "density is supported in the kernel of the embedding operator"
)


@dataclass(frozen=True, eq=False)
class EmbeddingOperator:
    """A = sum_j weight_j |psi_j><psi_j|, one weight per basis translate."""

    basis: BasisSpec
    weights: np.ndarray
    squared_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.basis.size,):
            raise ValueError(
                f"need one weight per basis translate, got {w.size} "
                f"weights for {self.basis.size} translates"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("weights must not all be zero")
        with np.errstate(over="ignore"):
            squared = w ** 2
        if not np.all(np.isfinite(squared)):
            raise ValueError(
                f"weights must have finite squares, got "
                f"{np.max(w):g} whose square overflows")
        w.flags.writeable = False
        squared.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "squared_weights", squared)

    @classmethod
    def projection(cls, basis: BasisSpec) -> "EmbeddingOperator":
        """Orthogonal projection onto the full family (all weights 1)."""
        return cls(basis, np.ones(basis.size))


def kernel_eval(A: EmbeddingOperator, s, t):
    """K(s, t) = sum_j alpha_j^2 psi_j(s) psi_j(t), elementwise in (s, t)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    scalar = s.ndim == 0 and t.ndim == 0
    s, t = np.broadcast_arrays(np.atleast_1d(s), np.atleast_1d(t))
    bs = basis_matrix(A.basis, s.ravel())
    bt = basis_matrix(A.basis, t.ravel())
    out = np.einsum("j,jp,jp->p", A.squared_weights, bs, bt).reshape(s.shape)
    return float(out.ravel()[0]) if scalar else out


def kernel_diag(A: EmbeddingOperator, s):
    """K(s, s) = sum_j alpha_j^2 psi_j(s)^2, always >= 0."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    out = np.empty(s.size)
    for block, rows, values in _band_blocks(A.basis, s.ravel()):
        out[block] = np.sum(A.squared_weights[rows] * values * values, axis=1)
    out = out.reshape(np.atleast_1d(s).shape)
    return float(out.ravel()[0]) if scalar else out


def kernel_matrix(A: EmbeddingOperator, s_values, t_values) -> np.ndarray:
    """Cross matrix K(s_a, t_b) for point vectors."""
    bs = basis_matrix(A.basis, np.asarray(s_values, dtype=float).ravel())
    bt = basis_matrix(A.basis, np.asarray(t_values, dtype=float).ravel())
    return (bs * A.squared_weights[:, None]).T @ bt


def trace_k_rho(A: EmbeddingOperator, zeta) -> float:
    """tr(A rho A*) for the density with position diagonal zeta.

    Equals the quadrature of zeta(s) K(s, s) on the grid of zeta, a
    DensityCurve. Raises if the result vanishes, which means
    the density lives in the kernel of A and no embedded density exists.
    """
    grid = zeta.grid
    value = grid.integrate(zeta.values * kernel_diag(A, grid.points))
    if value <= 1e-14:
        raise ValueError(VANISHING_DENSITY_TRACE)
    return float(value)


def trace_k_map(A: EmbeddingOperator, samples) -> float:
    """Mean of K(S_i, S_i) over a sample set.

    `samples` may be a SampleSet or any array of sample points; only the
    points are used.
    """
    points = np.asarray(getattr(samples, "points", samples), dtype=float)
    if points.size == 0:
        raise ValueError("empty sample set")
    value = float(np.mean(kernel_diag(A, points.ravel())))
    if value <= 1e-14:
        raise ValueError(VANISHING_SAMPLE_TRACE)
    return value
