"""Weighted basis embeddings, their kernel and their traces.

An embedding operator is a nonnegative combination A = sum_j alpha_j
|psi_j><psi_j| over the translates of a basis family, with one weight per
translate; a zero weight leaves its translate out. A density rho with
position diagonal zeta embeds as the state A rho A* / tr(A rho A*), whose
position diagonal is integral zeta(t) K(s, t)^2 dt with the kernel
K(s, t) = <s|A|t> = sum_j alpha_j psi_j(s) psi_j(t); its trace tr(rho A*A)
integrates zeta against the diagonal <s|A*A|s> = sum_j alpha_j^2
psi_j(s)^2 of `kernel_diag`, which is K(s, s) for the projection.

`kernel_diag` is `basis.quadratic_form` of A*A's band, its one diagonal
alpha^2; the embedded curves in `densop.learn` are the same form of the
state band D M D. `kernel_matrix`, the one dense route to K, sums two
`basis_matrix` calls by einsum; none of the three calls BLAS. It and the
traces build the same numbers another way, for the tests and the oracle
checks only; the curves never call them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, basis_matrix, quadratic_form
from .discrete import freeze, owned

# |phi| <= 1 for Haar; the Daubechies-4 table peaks at phi(1) = 1.366
_PHI_MAX = 1.5

#: tr(A rho A*) at or below this counts as vanished: no embedded density
#: exists, and one of the messages below says why.
VANISHING_TRACE = 1e-14
VANISHING_SAMPLE_TRACE = (
    "every sample lies outside the support of the embedding operator's "
    "weighted translates, so the sample trace vanishes"
)
VANISHING_DENSITY_TRACE = (
    "density is supported in the kernel of the embedding operator"
)


@dataclass(frozen=True, eq=False)
class EmbeddingOperator:
    """A = sum_j weight_j |psi_j><psi_j|, one weight per basis translate;
    a weight that takes alpha^2 (w 2**n max phi^2)^2, the largest product
    the curves and the diagonal form, past the largest double is refused."""

    basis: BasisSpec
    weights: np.ndarray

    def __post_init__(self):
        w = owned(self.weights, float)
        if w.shape != (self.basis.size,):
            raise ValueError(
                f"need one weight per basis translate, got {w.size} "
                f"weights for {self.basis.size} translates")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("weights must not all be zero")
        n, width = self.basis.scale_n, self.basis.support_width
        bound = math.ldexp(
            math.sqrt(sys.float_info.max) / (width * _PHI_MAX ** 2), -n)
        if np.max(w) > bound:
            raise ValueError(
                f"weight {np.max(w):g} is over {bound:.3g}, the largest "
                f"for which alpha^2 (w 2**n max phi^2)^2 is a finite "
                f"double at w={width}, scale_n={n} and |phi| <= {_PHI_MAX}")
        freeze(self, "weights", w)

    @classmethod
    def projection(cls, basis: BasisSpec) -> "EmbeddingOperator":
        """Orthogonal projection onto the full family (all weights 1)."""
        return cls(basis, np.ones(basis.size))


def kernel_matrix(A: EmbeddingOperator, s, t) -> np.ndarray:
    """Cross matrix K(s_a, t_b) = sum_j alpha_j psi_j(s_a) psi_j(t_b), one
    row per point of s, from one `basis_matrix` at s, weighted, and one at
    t."""
    weighted = A.weights[:, None] * basis_matrix(A.basis, s)
    return np.einsum("ja,jb->ab", weighted, basis_matrix(A.basis, t))


def kernel_diag(A: EmbeddingOperator, s) -> np.ndarray:
    """<s|A*A|s> = sum_j alpha_j^2 psi_j(s)^2 >= 0 at each point, read flat:
    the form of A*A's band, its one diagonal alpha^2."""
    return quadratic_form(A.basis, A.weights[:, None] ** 2, s)


def trace_k_rho(A: EmbeddingOperator, zeta) -> float:
    """tr(A rho A*) for the density with position diagonal zeta.

    Equals tr(rho A*A), the quadrature of zeta(s) <s|A*A|s> on the grid of
    zeta, a DensityCurve. Raises if the result vanishes, which means
    the density lives in the kernel of A and no embedded density exists.
    """
    grid = zeta.grid
    value = grid.integrate(zeta.values * kernel_diag(A, grid.points))
    if value <= VANISHING_TRACE:
        raise ValueError(VANISHING_DENSITY_TRACE)
    return float(value)


def trace_k_map(A: EmbeddingOperator, samples) -> float:
    """Mean of <S_i|A*A|S_i> over the points of `samples`, a SampleSet."""
    if samples.n == 0:
        raise ValueError("empty sample set")
    value = float(np.mean(kernel_diag(A, samples.points)))
    if value <= VANISHING_TRACE:
        raise ValueError(VANISHING_SAMPLE_TRACE)
    return value
