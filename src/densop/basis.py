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

A point meets at most w translates (w = 1 for Haar, 3 for Daubechies 4).
The banded primitives evaluate them lane by lane, one block of points at
a time (`_lanes`). Every coefficient path is one scatter into, or one
gather from, an array padded with w - 1 zero rows at both ends, so no
dense basis matrix and no clipped row index is built. `basis_matrix` is
the one dense evaluation: the same lanes, written into a d x P matrix.
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

#: Cascade level of the table that every Daubechies-4 evaluation reads:
#: 3 * 2**12 + 1 values, spaced 2**-12 on the mother support.
TABLE_LEVEL = 12

#: Cells a grid needs per translate shift 2**-n: RESOLUTION * 2**n per unit.
RESOLUTION = 64

#: Points that the banded primitives evaluate at a time: their per-point
#: temporaries are this many points' worth, small enough to stay in cache.
BAND_BLOCK = 2 ** 13

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
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(
                f"interval [{self.lo:g}, {self.hi:g}] is wider than the "
                f"largest double: hi - lo must be finite")

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
    translate_range: tuple = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.scale_n < 0:
            raise ValueError(f"scale_n must be >= 0, got {self.scale_n}")
        lo, hi = self.interval.lo, self.interval.hi
        try:
            lo_n, hi_n = (math.ldexp(end, self.scale_n) for end in (lo, hi))
        except OverflowError:
            raise ValueError(
                f"scale_n={self.scale_n} takes the interval [{lo:g}, {hi:g}] "
                f"past the largest double: lo * 2**n and hi * 2**n must be "
                f"finite") from None
        # k is kept iff k/2^n < hi and (k+w)/2^n > lo, i.e. the open
        # support interior meets the interval.
        k_min = math.floor(lo_n - self.support_width) + 1
        k_max = math.ceil(hi_n) - 1
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


def _read_table(t: np.ndarray) -> np.ndarray:
    """phi at t / 2**TABLE_LEVEL for t >= 0, with no guard: t is overwritten.

    The int cast truncates t to its floor i, and each lane computes
    table[i] * (1 - f) + table[i + 1] * f with f = t - i. The reads clip,
    so a whole t at or past 3 * 2**TABLE_LEVEL, where f = 0, reads the
    table's last value, 0, twice.
    """
    table = scaling_values_daub4(TABLE_LEVEL)
    i = t.astype(np.int64)
    t -= i
    after = table[1:].take(i, mode="clip")
    after *= t
    np.subtract(1.0, t, out=t)
    t *= table.take(i, mode="clip")
    t += after
    return t


def _lanes(spec: BasisSpec, s: np.ndarray):
    """(first, lanes): the live translates of each point, lane by lane.

    A point s meets at most w translates, w = 1 for Haar and 3 for
    Daubechies 4: k = floor(2**n s) - (w - 1) + a for lanes a = 0 .. w - 1.
    `first` (P int64) is the row of lane 0, counted from the first
    translate of the family; `lanes` (w x P) holds phi_k(s) for each lane.
    Lane a computes x = x0 - (floor(x0) + a - (w - 1)) in floats, x0 =
    2**n s, which rounds to the same double k as an int64 k would, so x
    is the double 2**n s - k for the lane's own translate, whatever the
    point's other lanes hold; its value is 2**(n/2) times the table read
    at 2**TABLE_LEVEL x, interpolated as `_read_table` says. Every
    lane lies in [0, 3], or is a whole 4 once |x0| passes 2**54 and k
    rounds, so the table is read with no guard; a Haar lane lies in
    [0, 1), where the box is 2**(n/2). Only when a point's lanes
    reach past the family are lanes outside rows 0 .. d - 1 set to 0 and
    `first` clipped to [1 - w, d - 1], so first + a + w - 1 always indexes
    an array padded with w - 1 zero rows at both ends. A point that is not
    finite, or so large that floor(2**n s) leaves the int64 range, has no
    translate index and is refused.
    """
    x0 = s * 2 ** spec.scale_n
    if s.size and not np.abs(x0).max() < 2.0 ** 62:
        bad = s[~(np.abs(x0) < 2.0 ** 62)]
        shown = ", ".join(repr(v) for v in bad[:5].tolist())
        raise ValueError(
            f"cannot evaluate the basis at {bad.size} point(s) that are not "
            f"finite or beyond 2**62 translate shifts: {shown}")
    d, w = spec.size, spec.support_width
    k = np.floor(x0)
    first = k.astype(np.int64)
    first -= spec.translate_range[0] + w - 1
    amp = 2.0 ** (spec.scale_n / 2.0)
    if spec.family == "haar":
        lanes = np.full((1, s.size), amp)
    else:
        lanes = np.add(np.arange(1.0 - w, 1.0)[:, None], k)
        np.subtract(x0, lanes, out=lanes)
        del x0, k
        lanes *= 2 ** TABLE_LEVEL
        for x in lanes:
            _read_table(x)
        lanes *= amp
    if s.size and (first.min() < 0 or first.max() > d - w):
        for a, x in enumerate(lanes):
            np.copyto(x, 0.0, where=(first < -a) | (first >= d - a))
        np.maximum(first, 1 - w, out=first)
        np.minimum(first, d - 1, out=first)
    return first, lanes


def _band_blocks(spec: BasisSpec, s: np.ndarray):
    """(slice, first, lanes): _lanes of s, BAND_BLOCK points at a time.

    The lookup's per-point temporaries are one block's worth, reused warm
    from block to block, while each point's own operations stay the same.
    A consumer deletes its block's arrays at the end of the loop body: the
    loop's names would otherwise hold them while the next block is
    evaluated.
    """
    for start in range(0, s.size, BAND_BLOCK):
        block = slice(start, start + BAND_BLOCK)
        yield (block, *_lanes(spec, s[block]))


def basis_matrix(spec: BasisSpec, s_values) -> np.ndarray:
    """Matrix of phi_nk(s) values, one row per translate k: the band, dense.

    Only nonzero lanes are written, so a lane outside the family, which is
    0, needs no row.
    """
    s = np.asarray(s_values, dtype=float).ravel()
    out = np.zeros((spec.size, s.size))
    for block, first, lanes in _band_blocks(spec, s):
        for a, x in enumerate(lanes):
            live = np.flatnonzero(x)
            out[first[live] + a, live + block.start] = x[live]
        del first, lanes, live
    return out


def _scatter(spec: BasisSpec, s_values, weights, terms, width: int):
    """sum_p weights_p v_a(s_p) v_b(s_p) into d x width slots, by terms.

    Term (a, b, offset) adds (v_a * v_b) * weight, v_b = 1 where b is
    None, at first * width + offset of an accumulator padded with w - 1
    rows at both ends, where a lane outside the family, 0, lands. One
    np.add.at per block sums every slot in point order, as one pass would.
    The terms and their int64 indices share one (2, rows, terms) buffer,
    reused from block to block, so its pages stay mapped.
    """
    s = np.asarray(s_values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape != s.shape:
        raise ValueError(
            f"need one weight per point, got {weights.size} weights for "
            f"{s.size} points")
    d, pad = spec.size, spec.support_width - 1
    out = np.zeros((d + 2 * pad) * width)
    work = np.empty((2, min(s.size, BAND_BLOCK), len(terms)))
    values, flat = work[0], work[1].view(np.int64)
    for block, first, lanes in _band_blocks(spec, s):
        p = first.size
        first *= width
        for c, (a, b, offset) in enumerate(terms):
            column = values[:p, c]
            np.multiply(lanes[a], 1.0 if b is None else lanes[b], out=column)
            column *= weights[block]
            np.add(first, offset, out=flat[:p, c])
        np.add.at(out, flat[:p].ravel(), values[:p].ravel())
        del first, lanes
    return out[pad * width:(pad + d) * width].reshape(d, width)


def _gather(spec: BasisSpec, table: np.ndarray, s_values, terms):
    """sum over terms (a, b, offset) of table[first * width + offset] u_a u_b.

    `table` (d x width) is read flat from a copy padded with w - 1 zero
    rows at both ends, so a lane outside the family reads 0; u_b = 1 where
    b is None. Each point sums its terms in list order from +0.0, where a
    +-0 term leaves the bits alone.
    """
    d, pad = spec.size, spec.support_width - 1
    width = table.shape[1]
    padded = np.zeros((d + 2 * pad) * width)
    padded[pad * width:(pad + d) * width] = table.ravel()
    s = np.asarray(s_values, dtype=float).ravel()
    out = np.zeros(s.size)
    for block, first, u in _band_blocks(spec, s):
        first *= width
        acc = out[block]
        for a, b, offset in terms:
            term = padded.take(first + offset)
            term *= u[a]
            term *= 1.0 if b is None else u[b]
            acc += term
        del first, u, term
    return out


def coefficient_band(spec: BasisSpec, s_values, weights) -> np.ndarray:
    """sum_p weights_p b(s_p) b(s_p)^T over the translates, as d x w diagonals.

    Entry [j, o] is M[j, j + o]: each point adds the upper triangle of its
    w x w block, (v_a * v_b) * weight, in point order.
    """
    w = spec.support_width
    terms = [(a, b, (w - 1 + a) * w + b - a)
             for a in range(w) for b in range(a, w)]
    return _scatter(spec, s_values, weights, terms, w)


def coefficient_vector(spec: BasisSpec, s_values, weights) -> np.ndarray:
    """sum_p weights_p b(s_p), one entry per translate, in point order."""
    pad = spec.support_width - 1
    terms = [(a, None, pad + a) for a in range(pad + 1)]
    return _scatter(spec, s_values, weights, terms, 1).ravel()


def band_to_dense(band) -> np.ndarray:
    """The d x d symmetric matrix M whose w diagonals `band` holds."""
    d, w = band.shape
    out = np.zeros((d, d))
    for o in range(w):
        j = np.arange(d - o)
        out[j, j + o] = out[j + o, j] = band[:d - o, o]
    return out


def quadratic_form(spec: BasisSpec, band, s_values) -> np.ndarray:
    """b(s)^T M b(s) at each point, in O(P w m).

    `band` (d x m, 1 <= m <= w) holds M's first m diagonals, M being zero
    beyond them; any other shape is refused. The terms M_ab * u_a * u_b
    with |a - b| < m are summed in row-major order.
    """
    band = np.asarray(band, dtype=float)
    d, w = spec.size, spec.support_width
    if band.ndim != 2 or band.shape[0] != d or not 1 <= band.shape[1] <= w:
        raise ValueError(
            f"band has shape {band.shape}, need ({d}, m) with 1 <= m <= {w}: "
            f"one row per translate, at most {w} diagonals")
    m = band.shape[1]
    terms = [(a, b, (w - 1 + min(a, b)) * m + abs(a - b))
             for a in range(w) for b in range(w) if abs(a - b) < m]
    return _gather(spec, band, s_values, terms)


def linear_form(spec: BasisSpec, coefficients, s_values) -> np.ndarray:
    """b(s)^T c at each point, summed in lane order from +0.0."""
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (spec.size,):
        raise ValueError(
            f"coefficients have shape {c.shape}, need ({spec.size},): one "
            f"per translate")
    pad = spec.support_width - 1
    terms = [(a, None, pad + a) for a in range(pad + 1)]
    return _gather(spec, c[:, None], s_values, terms)


def require_resolution(spec: BasisSpec, grid: Grid):
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
    multiple of 2**-(TABLE_LEVEL + scale_n) so the sample points fall on
    the dyadic table.
    """
    require_resolution(spec, grid)
    return band_to_dense(coefficient_band(spec, grid.points, grid.weights()))


def wavelet_approximation(f_values, spec: BasisSpec, grid: Grid) -> np.ndarray:
    """Project function values onto the family: sum_k <phi_nk, f> phi_nk.

    The coefficients are trapezoid inner products on the given grid, each
    point weighted once by its trapezoid weight times f, and the
    reconstruction is evaluated on the same grid. The output can take
    negative values even for nonnegative f; that is inherent to wavelet
    approximation, not an error.
    """
    require_resolution(spec, grid)
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != grid.points.shape:
        raise ValueError(
            f"function values shape {f_values.shape} does not match grid "
            f"({grid.points.shape})"
        )
    coeffs = coefficient_vector(spec, grid.points, grid.weights() * f_values)
    return linear_form(spec, coeffs, grid.points)
