"""Beta target density on an interval and a deterministic seeded sampler.

The incomplete beta function and its quantile are implemented here rather
than pulled from a statistics package so that sampled streams are
bit-reproducible from (seed, n) alone: a log-gamma front factor, the Lentz
continued fraction for the regularized incomplete beta, and for the
quantile a safeguarded Newton iteration on a table of the incomplete beta
on dyadic nodes. Each lane starts from the cubic Hermite interpolant of
the inverse in its table cell, or, in the first cell, from the x**a power
law, which it then solves in log x; a lane in the last cell solves the
mirrored shape. A lane stops after the Newton step whose predicted error
is under the tolerance, so most lanes evaluate the incomplete beta once.
Every quantile lane depends only on its own u, so the first m points of a
stream are the same for any n >= m. The uniform stream is numpy's PCG64
generator, whose output for a given seed is stable under numpy's
random-stream compatibility policy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import Grid, Interval
from .learn import DensityCurve, SampleSet
from .textio import open_text, require_text

_FPMIN = 1e-300
_CF_EPS = 1e-15
_CF_MAX_ITER = 300
_TABLE_LEVEL = 8
_STOP_ULPS = 16
_SOLVE_MAX_ITER = 64
#: A lane stops after a Newton step whose predicted error, times this
#: factor, is under _STOP_ULPS units in the last place.
_STOP_SAFETY = 4.0
#: The least subnormal, the floor of a first-cell root of u > 0.
_TINY = 5e-324
#: Lanes the sampler solves at once. The quantile holds at most about 34
#: values per lane, so a chunk of 2**14 lanes holds under 5 MB whatever n
#: is.
SAMPLE_CHUNK = 2 ** 14


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz).

    Vectorized over x; lanes freeze once their increment is within
    _CF_EPS of 1, so converged entries stop changing and the result is
    independent of how many extra iterations the slowest lane needs.
    """
    x = np.asarray(x, dtype=float)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        h = np.where(done, h, h * d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) < _CF_EPS
        if bool(done.all()):
            break
    return h


def regularized_incomplete_beta(x, a: float, b: float):
    """I_x(a, b), the regularized incomplete beta function, vectorized in x.

    Refuses an x outside [0, 1], NaN included.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"need a > 0 and b > 0, got a={a}, b={b}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    if not np.all((x >= 0) & (x <= 1)):
        raise ValueError("x must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        out = _incomplete_beta(x, a, b, _log_beta(a, b))[0]
    return float(out[0]) if scalar else out


def _incomplete_beta(x: np.ndarray, a: float, b: float,
                     log_beta: float) -> tuple[np.ndarray, np.ndarray]:
    """I_x(a, b) and its front factor x**a (1 - x)**b / B(a, b), unchecked.

    Uses the continued fraction directly for x below the crossover point
    (a + 1) / (a + b + 2) and the symmetry I_x(a,b) = 1 - I_{1-x}(b,a)
    above it, which keeps the fraction in its fast-converging regime. At
    x = 0 and x = 1 the front factor is 0 and I is 0 and 1.
    """
    front = np.exp(a * np.log(x) + b * np.log1p(-x) - log_beta)
    direct = x < (a + 1.0) / (a + b + 2.0)
    # where the front factor is 0, so is the fraction's term
    value = np.where(direct, front, 1.0 - front)
    live = front > 0
    lanes = direct & live
    if lanes.any():
        value[lanes] = front[lanes] * _betacf(a, b, x[lanes]) / a
    lanes = ~direct & live
    if lanes.any():
        value[lanes] = 1.0 - front[lanes] * _betacf(b, a, 1.0 - x[lanes]) / b
    return value, front


@functools.lru_cache(maxsize=16)
def _bracket_table(a: float, b: float) -> tuple[np.ndarray, ...]:
    """The dyadic nodes of [0, 1], I_x(a, b) on them and the slopes
    dx/du = 1/pdf of the inverse there, read-only.

    Cached per shape, since every sampler of one target starts from the
    same table; the arrays are frozen because every caller shares them.
    A slope is inf where the pdf underflows and NaN at an end.
    """
    nodes = np.linspace(0.0, 1.0, 2 ** _TABLE_LEVEL + 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value, front = _incomplete_beta(nodes, a, b, _log_beta(a, b))
        slopes = nodes * (1.0 - nodes) / front
    # searchsorted needs a sorted table, which rounding alone does not
    # promise across the continued fraction's two branches
    table = np.maximum.accumulate(value)
    for array in (nodes, table, slopes):
        array.flags.writeable = False
    return nodes, table, slopes


def _beta_quantile(u: np.ndarray, a: float, b: float) -> np.ndarray:
    """x in [0, 1] with I_x(a, b) = u by lane; see BetaTarget.quantile."""
    last = u > _bracket_table(a, b)[1][-2]
    if not last.any():
        return _solve_quantile(u, a, b)
    x = np.empty_like(u)
    x[last] = 1.0 - _solve_quantile(1.0 - u[last], b, a)
    x[~last] = _solve_quantile(u[~last], a, b)
    return x


def _start(u: np.ndarray, a: float, b: float, log_norm: float):
    """Each lane's start x, its bracket lo <= x <= hi, and whether it lies
    in the table's first cell."""
    nodes, table, slopes = _bracket_table(a, b)
    k = np.clip(np.searchsorted(table, u, side="left"), 1, nodes.size - 1)
    lo, hi = nodes[k - 1], nodes[k]
    f_lo, f_hi = table[k - 1], table[k]
    first = k == 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # cubic Hermite interpolation of the inverse, from the slopes at
        # the cell's nodes, or linear where the cubic leaves the cell
        rise = f_hi - f_lo
        t = np.where(rise > 0, (u - f_lo) / rise, 0.0)
        x = (lo + (hi - lo) * t * t * (3.0 - 2.0 * t) + rise * t * (1.0 - t)
             * ((1.0 - t) * slopes[k - 1] - t * slopes[k]))
        x = np.where((x >= lo) & (x <= hi), x, lo + t * (hi - lo))
        if first.any():
            # I grows like x**a from 0. The first cell starts at
            # x_p * g**(1 - p): x_p = x_1 p, p = (u / I_1)**(1/a), is the
            # power law through the node (x_1, I_1), and g = x_0 / x_p the
            # ratio of the asymptote x_0 = (u a B(a, b))**(1/a) to it, so
            # the start runs from x_0 as u -> 0 to the node. A root of
            # u > 0 is taken to be at least the least subnormal.
            log_g = (math.log(table[1]) + math.log(a) + log_norm) / a \
                - math.log(nodes[1]) if table[1] > 0 else 0.0
            power = t[first] ** (1.0 / a)
            start = hi[first] * power * np.exp((1.0 - power) * log_g)
            inside = u[first] > 0
            start = np.fmin(np.fmax(start, _TINY), hi[first])
            x[first] = np.where(inside, start, 0.0)
            lo[first] = np.where(inside, _TINY, 0.0)
    return x, lo, hi, first


def _solve_quantile(u: np.ndarray, a: float, b: float) -> np.ndarray:
    """The safeguarded Newton iteration of _beta_quantile on every lane."""
    log_norm = _log_beta(a, b)
    x, lo, hi, first = _start(u, a, b, log_norm)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.empty_like(u)
        lanes = np.arange(u.size)
        step = step_before = hi - lo
        for _ in range(_SOLVE_MAX_ITER):
            value, front = _incomplete_beta(x, a, b, log_norm)
            f = value - u
            lo = np.where(f < 0, x, lo)
            hi = np.where(f > 0, x, hi)
            # the Newton step f / pdf, with pdf = front / (x (1 - x)); it
            # leaves an error of about K step**2, where K is half the
            # curvature over the slope of the solved function: for I(x) - u
            # that is half of |d log pdf / dx| at the new iterate
            newton = f * x * (1.0 - x) / front
            x_next = x - newton
            error = 0.5 * np.abs((a - 1.0) / x_next - (b - 1.0)
                                 / (1.0 - x_next)) * newton ** 2
            middle = lo + 0.5 * (hi - lo)
            if first.any():
                # in the first cell Newton solves log I = log u in log x,
                # along which log I is nearly linear, with slope
                # r = x pdf / I; bisection halves the bracket in log x
                x1 = x[first]
                r = front[first] / ((1.0 - x1) * value[first])
                log_step = np.log1p(f[first] / u[first]) / r
                x_log = x1 * np.exp(-log_step)
                x_next[first] = x_log
                newton[first] = x1 - x_log
                error[first] = 0.5 * x_log * log_step ** 2 * np.abs(
                    a - r - (b - 1.0) * x_log / (1.0 - x_log))
                middle[first] = np.sqrt(lo[first]) * np.sqrt(hi[first])
            # NaN and inf fail the bracket test, so they bisect too
            bisect = ~((x_next >= lo) & (x_next <= hi))
            bisect |= np.abs(2.0 * newton) > np.abs(step_before)
            x_next = np.where(bisect, middle, x_next)
            # a root stays put even where the pdf is 0 or inf
            x_next = np.where(f == 0, x, x_next)
            step_before, step = step, x - x_next
            tol = _STOP_ULPS * np.spacing(x_next)
            out[lanes] = x_next
            settled = ~bisect & (_STOP_SAFETY * error < tol)
            going = ((f != 0) & (np.abs(step) > tol) & (hi - lo > tol)
                     & ~settled)
            if not going.any():
                break
            lanes, u, x, lo, hi, step, step_before, first = (
                v[going] for v in (lanes, u, x_next, lo, hi, step,
                                   step_before, first))
    return out


@dataclass(frozen=True)
class BetaTarget:
    """Beta(a, b) density rescaled from [0, 1] onto an interval."""

    a: float
    b: float
    interval: Interval

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError(
                f"beta parameters must be positive, got a={self.a}, b={self.b}"
            )
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(
                f"beta parameters must be finite, got a={self.a}, b={self.b}")
        try:
            _log_beta(self.a, self.b)
        except OverflowError:
            raise ValueError(
                f"Beta({self.a:g}, {self.b:g}) has no finite log B(a, b), "
                f"so its density cannot be normalized") from None

    def density(self, s):
        """Density value at s; 0 outside the interval.

        At an endpoint the mean of the one-sided limits is returned: 0 for
        a shape above 1, half the inner limit at 1, infinite below 1.

        Evaluated as exp((a - 1) log x + (b - 1) log1p(-x) - log_norm) in
        that order, in place on the points inside, so that besides its
        output it holds at most two values per point.
        """
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        # Overflow is harmless here: x of a point far outside a narrow
        # interval is +-inf, outside (0, 1); and a density past the
        # largest double is inf, which `curve` refuses.
        with np.errstate(over="ignore"):
            x = (np.atleast_1d(s) - self.interval.lo) / self.interval.width
            at_lo, at_hi = x == 0.0, x == 1.0
            inside = (x > 0.0) & (x < 1.0)
            x = x[inside]
            log_x = np.log(x)
            log_x *= self.a - 1.0
            np.log1p(np.negative(x, out=x), out=x)
            x *= self.b - 1.0
            log_x += x
            del x
            log_x -= (_log_beta(self.a, self.b)
                      + math.log(self.interval.width))
            out = np.zeros(inside.shape)
            out[inside] = np.exp(log_x, out=log_x)
        out[at_lo] = self._edge_value(self.a)
        out[at_hi] = self._edge_value(self.b)
        return float(out[0]) if scalar else out

    def _edge_value(self, shape: float) -> float:
        if shape != 1.0:
            return 0.0 if shape > 1.0 else math.inf
        return math.exp(-_log_beta(self.a, self.b)) / self.interval.width / 2

    def curve(self, grid: Grid) -> DensityCurve:
        """zeta on `grid`, the one place it is tabulated: the density, but
        at a grid end on an interval end the inner limit, twice the mean
        of the one-sided limits. Refuses an infinite value and, by
        DensityCurve.require_unit_mass, a mass off 1 by over 1e-6."""
        values = self.density(grid.points)
        for end in (0, -1):
            if grid.points[end] in (self.interval.lo, self.interval.hi):
                values[end] *= 2.0
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            lo, hi = self.interval.lo, self.interval.hi
            at = grid.points[bad[0]]
            if at in (lo, hi):
                raise ValueError(
                    f"the Beta({self.a:g}, {self.b:g}) target density is "
                    f"infinite at an end of [{lo:g}, {hi:g}] that is a "
                    f"grid point: a shape below 1 has no finite table "
                    f"there")
            raise ValueError(
                f"the Beta({self.a:g}, {self.b:g}) target density, as "
                f"computed at these shapes, overflows a double at "
                f"s = {float(at)!r}, inside [{lo:g}, {hi:g}]")
        zeta = DensityCurve(grid, values)
        zeta.require_unit_mass()
        return zeta

    def cdf(self, s):
        s = np.asarray(s, dtype=float)
        x = (s - self.interval.lo) / self.interval.width
        return regularized_incomplete_beta(np.clip(x, 0.0, 1.0), self.a, self.b)

    def quantile(self, u):
        """Inverse CDF: the x in [0, 1] with I_x(a, b) = u, mapped onto s.

        A table of I on the 2**_TABLE_LEVEL + 1 dyadic nodes of [0, 1]
        brackets each u. Within a cell of 1, x keeps too few digits for I
        to resolve u, so a u in the last cell is solved as
        x = 1 - Q(1 - u; b, a) by the mirrored shape, in whose first cell
        the root lies. An inner cell starts from the cubic Hermite
        interpolant of the inverse, whose slopes 1/pdf at the nodes are
        cached with the table. The first cell, where I grows like x**a
        and roots reach the subnormals, starts between the power law
        through its node and the asymptote (u a B(a, b))**(1/a), and is
        solved in log x, where log I is nearly linear: Newton on
        log I = log u, and bisection by geometric means down to the least
        subnormal. The safeguarded Newton iteration takes the bisection
        step whenever the Newton step leaves the bracket, is not finite,
        or has not halved the step from two iterations before. A lane
        stops when I(x) == u; after a Newton step whose predicted error
        K step**2, K half of |d log pdf / dx| at the new point (in log x
        on the first cell), is under _STOP_ULPS units in the last place of
        x with a safety factor of _STOP_SAFETY; when its step or bracket
        is within those units; and at the latest after _SOLVE_MAX_ITER
        evaluations. Most lanes stop after one evaluation of I. Only lanes
        still running are evaluated, and each lane's result depends on
        (u, a, b) alone, so a sampled stream does not depend on how many
        points are drawn with it.
        """
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u).astype(float)
        if not np.all((u >= 0) & (u <= 1)):
            raise ValueError("u must lie in [0, 1]")
        x = _beta_quantile(u.ravel(), self.a, self.b).reshape(u.shape)
        out = self.interval.lo + self.interval.width * x
        return float(out[0]) if scalar else out

    def sample(self, n: int, seed: int) -> SampleSet:
        """n points by inverse-CDF from a PCG64 uniform stream.

        Deterministic given (n, seed). The quantile solves SAMPLE_CHUNK
        uniforms at a time; each lane depends on its own u alone, so the
        points do not depend on the chunking. Samples are clipped to lie
        strictly inside the interval so every downstream half-open
        convention sees them unambiguously.
        """
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if seed < 0:
            raise ValueError(f"seed must be unsigned, got {seed}")
        rng = np.random.Generator(np.random.PCG64(seed))
        u = rng.random(n)
        s = np.empty(n)
        for start in range(0, n, SAMPLE_CHUNK):
            chunk = slice(start, start + SAMPLE_CHUNK)
            s[chunk] = self.quantile(u[chunk])
        np.clip(
            s,
            np.nextafter(self.interval.lo, self.interval.hi),
            np.nextafter(self.interval.hi, self.interval.lo),
            out=s,
        )
        return SampleSet(points=s)


def count_samples(path) -> int:
    """Number of non-blank lines in a sample file: the N of load_samples."""
    with open_text(path) as fh:
        return sum(not line.isspace() for line in fh)


def load_samples(path, interval: Interval) -> SampleSet:
    """Read a one-column sample file: one number per line.

    Blank lines are ignored. A line that is not a finite number, or a
    value outside `interval`, raises ValueError naming its line number in
    the file. The values go straight into one float64 array,
    with no list of Python floats.
    """
    with open_text(path) as fh:
        points = np.fromiter(_parse_samples(path, fh, interval), dtype=float)
    return SampleSet(points=points)


def _parse_samples(path, fh, interval: Interval):
    for lineno, line in enumerate(fh, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            # a byte that is not UTF-8 never parses, so it is refused here
            require_text(path, text, lineno)
            raise ValueError(f"{path}: line {lineno}: could not parse "
                             f"{text!r} as a finite number")
        if value < interval.lo or value > interval.hi:
            raise ValueError(
                f"{path}: sample {value:g} on line {lineno} lies "
                f"outside [{interval.lo:g}, {interval.hi:g}]"
            )
        yield value
