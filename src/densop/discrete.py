"""Finite-dimensional states, measurements, and basis changes.

Everything here is exact linear algebra on small (d <= a few hundred)
matrices: wave functions, density matrices, the diagonal ensemble
correspondence with probability distributions, Born-rule readout, and
unitary changes of basis. Complex amplitudes are allowed in this module
only; the continuous-space modules work with real scalars throughout.

Density matrices, distributions and unitaries also come as stacks: a
leading axis holding `count` states of one dimension, shape (count, d, d)
or (count, d). A stack is validated in one pass by the same rules as a
single state. Positivity is proved by one stacked Cholesky factorization
of the states less 1e-10 * I; only a stack it cannot prove has its
eigenvalues computed, to refuse or rebuild members. A refusal names the
index of the first member that breaks a rule. A NaN or infinite entry
fails the same comparisons, and the refusal then names that entry.
The basis change and both Born-rule readouts broadcast over a stack: a
stack meets a single state member by member, and two stacks pair up
only when they hold as many members. The random constructors draw a
whole stack in one call when given a `count`; without one they draw a
single state, from the same stream as always.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10
_UNITARY_TOL = 1e-10


def _owned(values, dtype) -> np.ndarray:
    """A contiguous copy of `values`. The types freeze the array they keep,
    and a copy is frozen without freezing the caller's array, and cannot
    change through it or through any array it views."""
    return np.array(values, dtype=dtype, order="C", ndmin=1)


def _as_stack(values, dtype, item: str, what: str):
    """`values` as a contiguous array of its own and as a view of it with
    one leading member axis. `item` is "vector" or "square matrix";
    anything but one nonempty item or a nonempty stack of them is
    refused."""
    a = _owned(values, dtype)
    item_ndim = 1 if item == "vector" else 2
    square = item_ndim == 1 or (a.ndim >= 2 and a.shape[-1] == a.shape[-2])
    if a.ndim not in (item_ndim, item_ndim + 1) or not square or a.size == 0:
        raise ValueError(f"{what} must form a nonempty {item} or a stack "
                         f"of them")
    return a, a.reshape(-1, *a.shape[a.ndim - item_ndim:])


def _refuse_first(bad: np.ndarray, stacked: bool, message) -> None:
    """Raise message(i) for the first member i flagged in `bad`, naming
    the member when the value is a stack."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError((f"member {i}: " if stacked else "") + message(i))


def _finite_or(values: np.ndarray, what: str, message: str) -> str:
    """The refusal of one member: that its `what` must be finite when one
    of `values` is NaN or infinite, else `message`."""
    bad = ~np.isfinite(values)
    if bad.any():
        index = tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))
        where = index[0] if len(index) == 1 else index
        return f"{what} must be finite, but entry {where} is {values[index]}"
    return message


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _owned(self.amplitudes, complex)
        if amp.ndim != 1 or amp.size == 0:
            raise ValueError("amplitudes must form a nonempty vector")
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm_sq - 1.0) <= _NORM_TOL:
            raise ValueError(_finite_or(
                amp, "amplitudes",
                f"squared norm {norm_sq:.15f} is not 1 within {_NORM_TOL}"))
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def d(self) -> int:
        return self.amplitudes.size


def _proves_positive(stack: np.ndarray) -> bool:
    """True when every member of the Hermitian trace-one `stack` less
    _PSD_TOL * I has a Cholesky factor. Each smallest eigenvalue is then
    above _PSD_TOL less the factor's backward error, at most about
    d**2 * eps, so `eigvalsh` would find none below 0. From the d where
    that error reaches _PSD_TOL on, nothing is proved."""
    d = stack.shape[-1]
    if d * d * np.finfo(float).eps >= _PSD_TOL:
        return False
    try:
        np.linalg.cholesky(stack - _PSD_TOL * np.eye(d))
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, trace-one matrix of finite entries, or a
    (count, d, d) stack of them.

    Eigenvalues in [-1e-10, 0) are treated as floating-point noise: the
    matrix is rebuilt with them clipped to 0 and the trace renormalized.
    Anything more negative is rejected. In a stack only the members with
    such an eigenvalue are rebuilt.

    One Cholesky factorization of the stack less 1e-10 * I proves every
    eigenvalue positive, and then the entries are kept as given. Only a
    stack it cannot prove goes to `eigvalsh`, which refuses or rebuilds
    members as above.
    """

    entries: np.ndarray

    def __post_init__(self):
        m, stack = _as_stack(self.entries, complex, "square matrix",
                             "entries")
        stacked = m.ndim == 3
        # A NaN or infinite entry makes its member's skew NaN or infinite,
        # which the comparison refuses.
        with np.errstate(invalid="ignore"):
            skew = np.max(np.abs(stack - _dagger(stack)), axis=(1, 2))
        _refuse_first(~(skew <= _HERM_TOL), stacked, lambda i: _finite_or(
            stack[i], "entries", "matrix is not Hermitian within 1e-12"))
        trace = np.trace(stack, axis1=1, axis2=2).real
        _refuse_first(np.abs(trace - 1.0) > _TRACE_TOL, stacked, lambda i: (
            f"trace {trace[i]:.15f} is not 1 within {_TRACE_TOL}"))
        if not _proves_positive(stack):
            smallest = np.linalg.eigvalsh(stack)[:, 0]
            _refuse_first(smallest < -_PSD_TOL, stacked, lambda i: (
                f"smallest eigenvalue {smallest[i]:.3e} is below "
                f"-{_PSD_TOL}"))
            for i in np.flatnonzero(smallest < 0.0):
                vals, vecs = np.linalg.eigh(stack[i])
                vals = np.maximum(vals, 0.0)
                vals /= vals.sum()
                rebuilt = (vecs * vals) @ vecs.conj().T
                stack[i] = 0.5 * (rebuilt + rebuilt.conj().T)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def d(self) -> int:
        return self.entries.shape[-1]


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability vector over the discrete sample space, or a (count, d)
    stack of them."""

    probabilities: np.ndarray

    def __post_init__(self):
        p, stack = _as_stack(self.probabilities, float, "vector",
                             "probabilities")
        stacked = p.ndim == 2
        # A NaN or +inf entry makes the sum fail the second comparison.
        _refuse_first(np.any(stack < 0, axis=1), stacked, lambda i: (
            _finite_or(stack[i], "probabilities",
                       "probabilities must be nonnegative")))
        total = stack.sum(axis=1)
        _refuse_first(~(np.abs(total - 1.0) <= _TRACE_TOL), stacked,
                      lambda i: _finite_or(
                          stack[i], "probabilities",
                          f"sum {total[i]:.15f} is not 1 within {_TRACE_TOL}"))
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    @property
    def d(self) -> int:
        return self.probabilities.shape[-1]


@dataclass(frozen=True, eq=False)
class UnitaryBasis:
    """Matrix whose column j holds basis function psi_j in position
    coordinates, or a (count, d, d) stack of them."""

    columns: np.ndarray

    def __post_init__(self):
        u, stack = _as_stack(self.columns, complex, "square matrix",
                             "columns")
        with np.errstate(invalid="ignore"):
            gram = _dagger(stack) @ stack
            off = np.max(np.abs(gram - np.eye(u.shape[-1])), axis=(1, 2))
        _refuse_first(~(off <= _UNITARY_TOL), u.ndim == 3, lambda i: (
            _finite_or(stack[i], "columns",
                       "columns are not orthonormal within 1e-10")))
        u.flags.writeable = False
        object.__setattr__(self, "columns", u)

    @property
    def d(self) -> int:
        return self.columns.shape[-1]


def ensemble_from_distribution(z: DiscreteDistribution) -> DensityMatrix:
    """Diagonal density matrix with the distribution on the diagonal;
    a stack of distributions gives a stack of matrices."""
    p = z.probabilities
    return DensityMatrix(p[..., None] * np.eye(p.shape[-1]))


def wavefunction_from_distribution(z: DiscreteDistribution) -> WaveFunction:
    """The canonical nonnegative-real wave function for a distribution.

    Phases are physically arbitrary; this helper picks them all zero.
    Inputs with arbitrary phases are accepted anywhere a WaveFunction is.
    """
    return WaveFunction(np.sqrt(z.probabilities).astype(complex))


def pair_up(*stacks) -> None:
    """Refuse arrays whose member counts differ. Each is given as
    (array, item_ndim), with the number of axes of one item; an array of
    no more axes is one item, and pairs up with any stack."""
    counts = list(dict.fromkeys(a.shape[0] for a, item_ndim in stacks
                                if a.ndim > item_ndim))
    if len(counts) > 1:
        raise ValueError(f"stacks of {counts[0]} and {counts[1]} members "
                         f"do not pair up")


def born_probability(rho: DensityMatrix) -> np.ndarray:
    """The position distribution P(s_j | rho), the real part of the
    diagonal: shape (d,) for one state, (count, d) for a stack."""
    return np.diagonal(rho.entries, axis1=-2, axis2=-1).real


def change_basis(rho: DensityMatrix, unitary: UnitaryBasis) -> DensityMatrix:
    """Coefficient matrix of rho in the basis given by the unitary's columns.

    Returns U* rho U, which is again Hermitian, PSD, and trace-one, so the
    result is a DensityMatrix in its own right. Either argument may be a
    stack; a stack meets a single matrix member by member, and two stacks
    of the same count pair up.
    """
    if unitary.d != rho.d:
        raise ValueError(
            f"dimension mismatch: rho is {rho.d}, unitary is {unitary.d}"
        )
    pair_up((rho.entries, 2), (unitary.columns, 2))
    u = unitary.columns
    return DensityMatrix(_dagger(u) @ rho.entries @ u)


def probability_from_coefficients(w: DensityMatrix,
                                  unitary: UnitaryBasis) -> np.ndarray:
    """The position distribution from the coefficient matrix in a
    non-position basis.

    Contracts w against each row of the unitary,
    p_j = sum_kl w[k, l] U[j, k] conj(U[j, l]), without rebuilding the
    position-basis matrix. Broadcasts over stacks like `change_basis`:
    shape (d,) for one state, (count, d) for a stack.
    """
    if unitary.d != w.d:
        raise ValueError(
            f"dimension mismatch: coefficients are {w.d}, unitary is {unitary.d}"
        )
    pair_up((w.entries, 2), (unitary.columns, 2))
    rows = unitary.columns[..., :, None, :]
    return (rows @ w.entries[..., None, :, :] @ _dagger(rows))[..., 0, 0].real


def _shape(count: int | None, *item: int) -> tuple:
    return item if count is None else (count, *item)


def random_distribution(d: int, rng: np.random.Generator,
                        count: int | None = None) -> DiscreteDistribution:
    """Uniformly scaled positive vector; a generic test distribution.

    With `count`, a stack of that many, drawn in one call.
    """
    p = rng.random(_shape(count, d)) + 1e-12
    return DiscreteDistribution(p / p.sum(axis=-1, keepdims=True))


def random_density_matrix(d: int, rng: np.random.Generator,
                          count: int | None = None) -> DensityMatrix:
    """G G* / tr(G G*) for a complex Gaussian G; full-rank PSD trace-one.

    With `count`, a stack of that many, drawn in one call.
    """
    shape = _shape(count, d, d)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = g @ _dagger(g)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    m = 0.5 * (m + _dagger(m))
    return DensityMatrix(m)


def random_ensemble(d: int, rng: np.random.Generator,
                    count: int | None = None) -> DensityMatrix:
    """Random diagonal density matrix (a member of the ensemble set).

    With `count`, a stack of that many, drawn in one call.
    """
    return ensemble_from_distribution(random_distribution(d, rng, count))


def random_unitary(d: int, rng: np.random.Generator,
                   count: int | None = None) -> UnitaryBasis:
    """QR orthonormalization of a complex Gaussian matrix.

    With `count`, a stack of that many, drawn and factored in one call.
    """
    shape = _shape(count, d, d)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, r = np.linalg.qr(g)
    # Fix the column phases so the factorization is unique.
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    return UnitaryBasis(q)
