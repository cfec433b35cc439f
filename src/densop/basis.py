"""Orthonormal scaling-function families on a closed interval.

Two families are supported. Haar box functions have a closed form and are
mainly useful as an exactly solvable cross-check. Daubechies tap-4 fathers
have no closed form; they are evaluated from a dyadic table built once by
the cascade (refinement) algorithm and linearly interpolated in between.

A family member is phi_nk(s) = 2**(n/2) * phi(2**n * s - k), where phi is
the mother scaling function with support [0, 1] (Haar) or [0, 3]
(Daubechies 4). Translates whose support crosses the interval boundary are
kept as-is, truncated by the domain; no folding or periodization is
applied. As a consequence the family is only orthonormal for interior
translates, and projections onto the family are only approximately
idempotent near the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_SQRT3 = math.sqrt(3.0)

# Tap-4 refinement coefficients in the convention where they sum to 2, so
# that the partition of unity sum_k phi(x - k) = 1 holds.
DAUB4_TAPS = np.array([
    (1.0 + _SQRT3) / 4.0,
    (3.0 + _SQRT3) / 4.0,
    (3.0 - _SQRT3) / 4.0,
    (1.0 - _SQRT3) / 4.0,
])

#: Largest cascade level accepted by :func:`scaling_values_daub4`. The table
#: at level m holds 3 * 2**m + 1 doubles, about 100 MB at the cap.
MAX_TABLE_LEVEL = 22

#: Cells a grid needs per translate shift 2**-n: RESOLUTION * 2**n per unit.
RESOLUTION = 64

FAMILIES = ("haar", "daubechies4")

_SUPPORT_WIDTH = {"haar": 1, "daubechies4": 3}


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with the Lebesgue measure."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Grid:
    """Uniform quadrature grid of `cells` equal cells on an interval.

    `points` holds the cells + 1 read-only points, both endpoints exact.
    Integration is composite trapezoid with a fixed summation order, so
    repeated runs produce bit-identical results.
    """

    interval: Interval
    cells: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError(f"need at least 1 cell, got {self.cells}")
        points = np.linspace(self.interval.lo, self.interval.hi, self.cells + 1)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def h(self) -> float:
        return self.interval.width / self.cells

    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights aligned with the points."""
        w = np.full(self.points.size, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def integrate(self, values) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != self.points.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.points.shape})"
            )
        interior = float(np.sum(values[1:-1]))
        return self.h * (interior + 0.5 * (float(values[0]) + float(values[-1])))


@lru_cache(maxsize=8)
def scaling_values_daub4(levels: int) -> np.ndarray:
    """Daubechies tap-4 scaling function at dyadic points j / 2**levels.

    Returns a read-only vector of length 3 * 2**levels + 1 covering the
    mother support [0, 3]. Values at the integers come from the eigenvalue-1
    eigenvector of the 2x2 interior refinement matrix, normalized so that
    phi(1) + phi(2) = 1; each finer level fills the odd midpoints through
    the two-scale relation phi(x) = sum_t c_t phi(2x - t).

    Parameters
    ----------
    levels : int
        Dyadic refinement depth m >= 0. Capped at MAX_TABLE_LEVEL to bound
        memory.
    """
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    if levels > MAX_TABLE_LEVEL:
        raise ValueError(
            f"levels {levels} exceeds table cap {MAX_TABLE_LEVEL}"
        )
    # Integer-point seed: the interior refinement matrix [[c1, c0], [c3, c2]]
    # has eigenvalue 1 with eigenvector proportional to (1 + sqrt 3, 1 - sqrt 3).
    vals = np.zeros(4)
    vals[1] = (1.0 + _SQRT3) / 2.0
    vals[2] = (1.0 - _SQRT3) / 2.0
    c = DAUB4_TAPS
    for lev in range(1, levels + 1):
        n_old = vals.size
        new = np.zeros(3 * 2 ** lev + 1)
        new[0::2] = vals
        half = 2 ** (lev - 1)
        base = 2 * np.arange(3 * half) + 1
        acc = np.zeros(base.size)
        for t in range(4):
            idx = base - t * half
            ok = (idx >= 0) & (idx < n_old)
            acc[ok] += c[t] * vals[idx[ok]]
        new[1::2] = acc
        vals = new
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True)
class BasisSpec:
    """A scaling-function family phi_nk restricted to an interval.

    translate_range is derived, not chosen: it is the minimal integer range
    [k_min, k_max] such that every translate whose support intersects the
    interval is included. For Daubechies 4 the support of phi(2**n s - k)
    is [k / 2**n, (k + 3) / 2**n].
    """

    family: str
    scale_n: int
    interval: Interval
    table_level: int = 12
    translate_range: tuple = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.scale_n < 0:
            raise ValueError(f"scale_n must be >= 0, got {self.scale_n}")
        if not 0 <= self.table_level <= MAX_TABLE_LEVEL:
            raise ValueError(
                f"table_level must be in [0, {MAX_TABLE_LEVEL}], "
                f"got {self.table_level}"
            )
        two_n = 2 ** self.scale_n
        # k is kept iff k/2^n < hi and (k+w)/2^n > lo, i.e. the open
        # support interior meets the interval.
        k_min = math.floor(self.interval.lo * two_n - self.support_width) + 1
        k_max = math.ceil(self.interval.hi * two_n) - 1
        object.__setattr__(self, "translate_range", (k_min, k_max))

    @property
    def translates(self) -> np.ndarray:
        k_min, k_max = self.translate_range
        return np.arange(k_min, k_max + 1)

    @property
    def size(self) -> int:
        k_min, k_max = self.translate_range
        return k_max - k_min + 1

    @property
    def support_width(self) -> int:
        """w: the mother support length, the most translates a point meets."""
        return _SUPPORT_WIDTH[self.family]

    def span(self) -> Interval:
        """Union of the interval and every translate support."""
        k_min, k_max = self.translate_range
        two_n = 2 ** self.scale_n
        return Interval(
            min(self.interval.lo, k_min / two_n),
            max(self.interval.hi, (k_max + self.support_width) / two_n),
        )

    def interior_translates(self) -> np.ndarray:
        """Translates whose full support lies inside the interval."""
        ks = self.translates
        two_n = 2 ** self.scale_n
        keep = (ks / two_n >= self.interval.lo - 1e-12) & (
            (ks + self.support_width) / two_n <= self.interval.hi + 1e-12
        )
        return ks[keep]


def _mother_daub4(x: np.ndarray, table_level: int) -> np.ndarray:
    """Mother tap-4 scaling function, linear interpolation on the table.

    One full-width lookup, with no gather of the lanes inside (0, 3): a
    lane outside, NaN and inf included, reads the table at t = 0 and is
    zeroed at the end, so no lane ever casts a non-finite t. Inside, t =
    x * 2**table_level is positive, so the int cast truncates it to its
    floor, and the clamp keeps i + 1 in the table. Each lane then
    computes table[i] * (1 - f) + table[i + 1] * f, the same operations
    in the same order as a per-lane loop would.
    """
    table = scaling_values_daub4(table_level)
    inside = (x > 0.0) & (x < 3.0)
    t = np.where(inside, x, 0.0)
    t *= 2 ** table_level
    i = t.astype(np.int64)
    np.minimum(i, table.size - 2, out=i)
    t -= i
    out = table.take(i)
    after = table[1:].take(i)
    del i
    after *= t
    np.subtract(1.0, t, out=t)
    out *= t
    out += after
    np.copyto(out, 0.0, where=~inside)
    return out


def _father(spec: BasisSpec, x: np.ndarray) -> np.ndarray:
    """2**(n/2) phi(x): the Haar box on [0, 1) or the tap-4 table lookup."""
    amp = 2.0 ** (spec.scale_n / 2.0)
    if spec.family == "haar":
        return np.where((x >= 0.0) & (x < 1.0), amp, 0.0)
    out = _mother_daub4(x, spec.table_level)
    out *= amp
    return out


def eval_father(spec: BasisSpec, k: int, s) -> np.ndarray:
    """Evaluate phi_nk(s) = 2**(n/2) phi(2**n s - k).

    Haar uses the half-open support convention [k/2^n, (k+1)/2^n), so the
    value at the right edge of a box is 0. Points outside the support
    return 0; no interval check is applied, since curve grids may extend
    past the interval to cover boundary translates.
    """
    s = np.asarray(s, dtype=float)
    out = _father(spec, np.atleast_1d(s) * 2 ** spec.scale_n - k)
    return float(out[0]) if s.ndim == 0 else out


def basis_band(spec: BasisSpec, s_values):
    """The live translates at each point: (P x w row index, P x w value).

    A point s meets at most w translates, w = 1 for Haar and 3 for
    Daubechies 4: those with k in {floor(2**n s) - w + 1, ..., floor(2**n s)}.
    Row indices count from the first translate of the family; a translate
    outside translate_range gets value 0 and a clipped index. Values are
    bit-identical to eval_father, which computes the same x = 2**n s - k
    and reads the table through the same lookup: every lane goes through
    it, since a lane outside the support comes out 0 whatever it reads.
    """
    s = np.asarray(s_values, dtype=float).ravel()
    x0 = s * 2 ** spec.scale_n
    rows = np.floor(x0).astype(np.int64)[:, None] + np.arange(
        1 - spec.support_width, 1)
    values = _father(spec, x0[:, None] - rows)
    rows -= spec.translate_range[0]
    np.copyto(values, 0.0, where=(rows < 0) | (rows >= spec.size))
    np.clip(rows, 0, spec.size - 1, out=rows)
    return rows, values


def basis_matrix(spec: BasisSpec, s_values) -> np.ndarray:
    """Matrix of phi_nk(s) values, one row per translate k: basis_band, dense."""
    rows, values = basis_band(spec, s_values)
    cols = np.broadcast_to(np.arange(rows.shape[0])[:, None], rows.shape)
    live = values != 0.0
    out = np.zeros((spec.size, rows.shape[0]))
    out[rows[live], cols[live]] = values[live]
    return out


def coefficient_band(spec: BasisSpec, s_values, weights) -> np.ndarray:
    """sum_p weights_p b(s_p) b(s_p)^T over the translates, as d x w diagonals.

    Entry [j, o] is M[j, j + o]. Each point adds the upper triangle of its
    w x w block by one bincount scatter, in point order: bit-reproducible.
    The products (v_a * v_b) * weight and their flat indices are written
    column by column into point-major arrays, so bincount adds the same
    terms in the same order as from a per-point loop.
    """
    rows, values = basis_band(spec, s_values)
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape != rows.shape[:1]:
        raise ValueError(
            f"need one weight per point, got {weights.size} weights for "
            f"{rows.shape[0]} points"
        )
    d, w = spec.size, spec.support_width
    pairs = list(zip(*np.triu_indices(w)))
    terms = np.empty((rows.shape[0], len(pairs)))
    flat = np.empty(terms.shape, dtype=np.int64)
    for c, (a, b) in enumerate(pairs):
        np.multiply(values[:, a], values[:, b], out=terms[:, c])
        terms[:, c] *= weights
        np.multiply(rows[:, a], w, out=flat[:, c])
        flat[:, c] += b - a
    out = np.bincount(flat.ravel(), weights=terms.ravel(), minlength=d * w)
    return out.reshape(d, w)


def band_to_dense(band) -> np.ndarray:
    """The d x d symmetric matrix M whose w diagonals `band` holds."""
    d, w = band.shape
    out = np.zeros((d, d))
    for o in range(w):
        j = np.arange(d - o)
        out[j, j + o] = out[j + o, j] = band[:d - o, o]
    return out


def quadratic_form(spec: BasisSpec, band, s_values, scale) -> np.ndarray:
    """b(s)^T diag(scale) M diag(scale) b(s) at each point, in O(P w^2).

    `band` holds M's w diagonals and `scale` one factor per translate; only
    the w x w block of M that the point's live translates select is read,
    each of its w(w + 1)/2 distinct entries once. The w^2 terms
    (u_a * M_ab) * u_b are summed in row-major order.
    """
    band = np.asarray(band, dtype=float)
    rows, u = basis_band(spec, s_values)
    u *= np.asarray(scale, dtype=float)[rows]
    w = rows.shape[1]
    entry = {(a, b): band[rows[:, a], b - a]
             for a, b in zip(*np.triu_indices(w))}
    out = np.zeros(rows.shape[0])
    for a in range(w):
        for b in range(w):
            term = u[:, a] * entry[min(a, b), max(a, b)]
            term *= u[:, b]
            out += term
    return out


def _require_resolution(spec: BasisSpec, grid: Grid):
    """Refuse a grid with fewer than RESOLUTION cells per translate shift."""
    n = spec.scale_n
    per_shift = grid.cells / (grid.interval.width * 2 ** n)
    if per_shift < RESOLUTION:
        raise ValueError(
            f"grid has {per_shift:.3g} cells per translate shift 2**-{n}, "
            f"under {RESOLUTION}; scale n={n} needs grid_cells >= "
            f"{RESOLUTION * 2 ** n}")


def gram_check(spec: BasisSpec, grid: Grid) -> np.ndarray:
    """Pairwise quadrature inner products G(k, k') of the translates.

    Diagnostic only: for interior translates G approaches the identity as
    the grid refines, while boundary-truncated translates deviate. For a
    clean 1e-6 identity check, evaluate on a grid whose spacing is a
    multiple of 2**-(table_level + scale_n) so the sample points fall on
    the dyadic table.
    """
    _require_resolution(spec, grid)
    return band_to_dense(coefficient_band(spec, grid.points, grid.weights()))


def wavelet_approximation(f_values, spec: BasisSpec, grid: Grid) -> np.ndarray:
    """Project function values onto the family: sum_k <phi_nk, f> phi_nk.

    The coefficients are trapezoid inner products on the given grid and the
    reconstruction is evaluated on the same grid. The output can take
    negative values even for nonnegative f; that is inherent to wavelet
    approximation, not an error.
    """
    _require_resolution(spec, grid)
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != grid.points.shape:
        raise ValueError(
            f"function values shape {f_values.shape} does not match grid "
            f"({grid.points.shape})"
        )
    rows, values = basis_band(spec, grid.points)
    terms = values * grid.weights()[:, None] * f_values[:, None]
    coeffs = np.bincount(rows.ravel(), weights=terms.ravel(),
                         minlength=spec.size)
    return np.sum(coeffs[rows] * values, axis=1)
