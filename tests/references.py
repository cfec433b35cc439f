"""Independent references that the tests compare the banded routes against.

`eval_father` evaluates one translate phi_nk at any points straight from
the cascade table, one k at a time, and `kernel_matrix` forms the dense
cross matrix K(s_a, t_b) from two `basis_matrix` calls and a matrix
product. No command or check of the package calls either. `eval_father`
shares no code with `basis._lanes`: it interpolates the table in
`_read_table`'s order of operations but reads densop.basis.TABLE_LEVEL at
call time, so a test that patches the level reaches it too.
"""

import numpy as np

from densop import basis
from densop.basis import BasisSpec, basis_matrix, scaling_values_daub4
from densop.embedding import EmbeddingOperator


def _mother_daub4(x: np.ndarray) -> np.ndarray:
    """Mother tap-4 scaling function, linear interpolation on the table.

    A lane outside (0, 3), NaN and inf included, reads the table at t = 0
    and is zeroed at the end, so no lane ever casts a non-finite t. The
    int cast truncates t to its floor i, and each lane computes
    table[i] * (1 - f) + table[i + 1] * f with f = t - i.
    """
    inside = (x > 0.0) & (x < 3.0)
    t = np.where(inside, x, 0.0)
    t *= 2 ** basis.TABLE_LEVEL
    table = scaling_values_daub4(basis.TABLE_LEVEL)
    i = t.astype(np.int64)
    t -= i
    after = table[1:].take(i, mode="clip")
    after *= t
    np.subtract(1.0, t, out=t)
    t *= table.take(i, mode="clip")
    t += after
    np.copyto(t, 0.0, where=~inside)
    return t


def eval_father(spec: BasisSpec, k: int, s) -> np.ndarray:
    """Evaluate phi_nk(s) = 2**(n/2) phi(2**n s - k).

    Haar uses the half-open support convention [k/2^n, (k+1)/2^n), so the
    value at the right edge of a box is 0. Points outside the support
    return 0; no interval check is applied, since curve grids may extend
    past the interval to cover boundary translates.
    """
    s = np.asarray(s, dtype=float)
    x = np.atleast_1d(s) * 2 ** spec.scale_n - k
    amp = 2.0 ** (spec.scale_n / 2.0)
    if spec.family == "haar":
        out = np.where((x >= 0.0) & (x < 1.0), amp, 0.0)
    else:
        out = _mother_daub4(x)
        out *= amp
    return float(out[0]) if s.ndim == 0 else out


def kernel_matrix(A: EmbeddingOperator, s_values, t_values) -> np.ndarray:
    """Cross matrix K(s_a, t_b) for point vectors."""
    bs = basis_matrix(A.basis, np.asarray(s_values, dtype=float).ravel())
    bt = basis_matrix(A.basis, np.asarray(t_values, dtype=float).ravel())
    return (bs * A.weights[:, None]).T @ bt
