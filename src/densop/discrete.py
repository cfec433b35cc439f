"""Finite-dimensional states, measurements, and basis changes.

Everything here is exact linear algebra on small (d <= a few hundred)
matrices: wave functions, density matrices, the diagonal ensemble
correspondence with probability distributions, Born-rule readout, and
unitary changes of basis. Complex amplitudes are allowed in this module
only; the continuous-space modules work with real scalars throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10
_UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size == 0:
            raise ValueError("amplitudes must form a nonempty vector")
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(
                f"squared norm {norm_sq:.15f} is not 1 within {_NORM_TOL}"
            )
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def d(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, trace-one matrix.

    Eigenvalues in [-1e-10, 0) are treated as floating-point noise: the
    matrix is rebuilt with them clipped to 0 and the trace renormalized.
    Anything more negative is rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("entries must form a nonempty square matrix")
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace {trace:.15f} is not 1 within {_TRACE_TOL}")
        eigvals = np.linalg.eigvalsh(m)
        smallest = float(eigvals[0])
        if smallest < -_PSD_TOL:
            raise ValueError(
                f"smallest eigenvalue {smallest:.3e} is below -{_PSD_TOL}"
            )
        if smallest < 0.0:
            vals, vecs = np.linalg.eigh(m)
            vals = np.maximum(vals, 0.0)
            vals /= vals.sum()
            m = (vecs * vals) @ vecs.conj().T
            m = 0.5 * (m + m.conj().T)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def d(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability vector over the discrete sample space."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must form a nonempty vector")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > _TRACE_TOL:
            raise ValueError(f"sum {total:.15f} is not 1 within {_TRACE_TOL}")
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    @property
    def d(self) -> int:
        return self.probabilities.size


@dataclass(frozen=True, eq=False)
class UnitaryBasis:
    """Matrix whose column j holds basis function psi_j in position coordinates."""

    columns: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(self.columns, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] == 0:
            raise ValueError("columns must form a nonempty square matrix")
        gram = u.conj().T @ u
        if np.max(np.abs(gram - np.eye(u.shape[0]))) > _UNITARY_TOL:
            raise ValueError("columns are not orthonormal within 1e-10")
        u.flags.writeable = False
        object.__setattr__(self, "columns", u)

    @property
    def d(self) -> int:
        return self.columns.shape[0]


def ensemble_from_distribution(z: DiscreteDistribution) -> DensityMatrix:
    """Diagonal density matrix with the distribution on the diagonal."""
    return DensityMatrix(np.diag(z.probabilities.astype(complex)))


def wavefunction_from_distribution(z: DiscreteDistribution) -> WaveFunction:
    """The canonical nonnegative-real wave function for a distribution.

    Phases are physically arbitrary; this helper picks them all zero.
    Inputs with arbitrary phases are accepted anywhere a WaveFunction is.
    """
    return WaveFunction(np.sqrt(z.probabilities).astype(complex))


def born_probability(rho: DensityMatrix, j: int) -> float:
    """P(s_j | rho): the real part of the j-th diagonal entry."""
    if not 0 <= j < rho.d:
        raise IndexError(f"index {j} out of range for dimension {rho.d}")
    return float(rho.entries[j, j].real)


def change_basis(rho: DensityMatrix, unitary: UnitaryBasis) -> DensityMatrix:
    """Coefficient matrix of rho in the basis given by the unitary's columns.

    Returns U* rho U, which is again Hermitian, PSD, and trace-one, so the
    result is a DensityMatrix in its own right.
    """
    if unitary.d != rho.d:
        raise ValueError(
            f"dimension mismatch: rho is {rho.d}, unitary is {unitary.d}"
        )
    u = unitary.columns
    return DensityMatrix(u.conj().T @ rho.entries @ u)


def probability_from_coefficients(w: DensityMatrix, unitary: UnitaryBasis,
                                  j: int) -> float:
    """P(s_j) from the coefficient matrix in a non-position basis.

    Contracts w against the j-th row of the unitary,
    sum_kl w[k, l] U[j, k] conj(U[j, l]), without rebuilding the
    position-basis matrix.
    """
    if unitary.d != w.d:
        raise ValueError(
            f"dimension mismatch: coefficients are {w.d}, unitary is {unitary.d}"
        )
    if not 0 <= j < w.d:
        raise IndexError(f"index {j} out of range for dimension {w.d}")
    row = unitary.columns[j, :]
    return float((row @ w.entries @ row.conj()).real)


def random_distribution(d: int, rng: np.random.Generator) -> DiscreteDistribution:
    """Uniformly scaled positive vector; a generic test distribution."""
    p = rng.random(d) + 1e-12
    return DiscreteDistribution(p / p.sum())


def random_density_matrix(d: int, rng: np.random.Generator) -> DensityMatrix:
    """G G* / tr(G G*) for a complex Gaussian G; full-rank PSD trace-one."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m)


def random_ensemble(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Random diagonal density matrix (a member of the ensemble set)."""
    return ensemble_from_distribution(random_distribution(d, rng))


def random_unitary(d: int, rng: np.random.Generator) -> UnitaryBasis:
    """QR orthonormalization of a complex Gaussian matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    # Fix the column phases so the factorization is unique.
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return UnitaryBasis(q)
