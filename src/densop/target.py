"""Beta target density on an interval and a deterministic seeded sampler.

The incomplete beta function and its quantile are implemented here rather
than pulled from a statistics package so that sampled streams are
bit-reproducible from (seed, n) alone: a log-gamma front factor, the Lentz
continued fraction for the regularized incomplete beta, and for the
quantile a safeguarded Newton iteration started from a table of the
incomplete beta on dyadic nodes. Every quantile lane depends only on its
own u, so the first m points of a stream are the same for any n >= m. The
uniform stream is numpy's PCG64 generator, whose output for a given seed is
stable under numpy's random-stream compatibility policy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import Interval
from .learn import SampleSet
from .textio import write_rows

_FPMIN = 1e-300
_CF_EPS = 1e-15
_CF_MAX_ITER = 300
_TABLE_LEVEL = 8
_STOP_ULPS = 16
_SOLVE_MAX_ITER = 64
#: Lanes the sampler solves at once. The quantile holds about 36 values
#: per lane, so a chunk of 2**14 lanes holds under 5 MB whatever n is.
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

    Uses the continued fraction directly for x below the crossover point
    (a + 1) / (a + b + 2) and the symmetry I_x(a,b) = 1 - I_{1-x}(b,a)
    above it, which keeps the fraction in its fast-converging regime.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"need a > 0 and b > 0, got a={a}, b={b}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    if np.any((x < 0) | (x > 1)):
        raise ValueError("x must lie in [0, 1]")
    out = np.empty_like(x)
    lo_edge = x == 0.0
    hi_edge = x == 1.0
    out[lo_edge] = 0.0
    out[hi_edge] = 1.0
    mid = ~(lo_edge | hi_edge)
    if np.any(mid):
        xm = x[mid]
        log_bt = a * np.log(xm) + b * np.log1p(-xm) - _log_beta(a, b)
        bt = np.exp(log_bt)
        direct = xm < (a + 1.0) / (a + b + 2.0)
        res = np.empty_like(xm)
        if np.any(direct):
            xd = xm[direct]
            res[direct] = bt[direct] * _betacf(a, b, xd) / a
        if np.any(~direct):
            xs = xm[~direct]
            res[~direct] = 1.0 - bt[~direct] * _betacf(b, a, 1.0 - xs) / b
        out[mid] = res
    return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=16)
def _bracket_table(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The dyadic nodes of [0, 1] and I_x(a, b) on them, read-only.

    Cached per shape, since every sampler of one target brackets with the
    same table; the arrays are frozen because every caller shares them.
    """
    nodes = np.linspace(0.0, 1.0, 2 ** _TABLE_LEVEL + 1)
    # searchsorted needs a sorted table, which rounding alone does not
    # promise across the continued fraction's two branches
    table = np.maximum.accumulate(regularized_incomplete_beta(nodes, a, b))
    nodes.flags.writeable = False
    table.flags.writeable = False
    return nodes, table


def _beta_quantile(u: np.ndarray, a: float, b: float) -> np.ndarray:
    """x in [0, 1] with I_x(a, b) = u, lane by lane; see BetaTarget.quantile."""
    nodes, table = _bracket_table(a, b)
    cells = nodes.size - 1
    k = np.clip(np.searchsorted(table, u, side="left"), 1, cells)
    lo, hi = nodes[k - 1], nodes[k]
    f_lo, f_hi = table[k - 1], table[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (u - f_lo) / (f_hi - f_lo)
        # I_x(a, b) grows like x**a from 0 and 1 - I_x(a, b) like
        # (1 - x)**b towards 1, so the end cells interpolate that power law.
        t = np.where(k == 1, (u / f_hi) ** (1.0 / a), t)
        t = np.where(k == cells,
                     1.0 - ((1.0 - u) / (1.0 - f_lo)) ** (1.0 / b), t)
    t = np.where(f_hi > f_lo, t, 0.0)
    x = lo + t * (hi - lo)
    out = np.empty_like(u)
    lanes = np.arange(u.size)
    step = step_before = hi - lo
    log_norm = _log_beta(a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_SOLVE_MAX_ITER):
            f = regularized_incomplete_beta(x, a, b) - u
            lo = np.where(f < 0, x, lo)
            hi = np.where(f > 0, x, hi)
            pdf = np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
                         - log_norm)
            newton = f / pdf
            x_next = x - newton
            # NaN and inf fail the bracket test, so they bisect too
            bisect = ~((x_next >= lo) & (x_next <= hi))
            bisect |= np.abs(2.0 * newton) > np.abs(step_before)
            x_next = np.where(bisect, lo + 0.5 * (hi - lo), x_next)
            # a root stays put even where the pdf is 0 or inf
            x_next = np.where(f == 0, x, x_next)
            step_before, step = step, x - x_next
            tol = _STOP_ULPS * np.spacing(x_next)
            out[lanes] = x_next
            going = (f != 0) & (np.abs(step) > tol) & (hi - lo > tol)
            if not going.any():
                break
            lanes, u, x, lo, hi, step, step_before = (
                v[going] for v in (lanes, u, x_next, lo, hi, step, step_before))
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

    def density(self, s):
        """Density value at s; 0 outside the interval.

        At an endpoint the one-sided limit is returned, which is infinite
        when the corresponding shape parameter is below 1.
        """
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s).astype(float)
        lo, width = self.interval.lo, self.interval.width
        x = (s - lo) / width
        out = np.zeros_like(x)
        log_norm = _log_beta(self.a, self.b) + math.log(width)
        inside = (x > 0.0) & (x < 1.0)
        if np.any(inside):
            xi = x[inside]
            out[inside] = np.exp(
                (self.a - 1.0) * np.log(xi)
                + (self.b - 1.0) * np.log1p(-xi)
                - log_norm
            )
        out[x == 0.0] = self._edge_value(self.a, self.b)
        out[x == 1.0] = self._edge_value(self.b, self.a)
        return float(out[0]) if scalar else out

    def _edge_value(self, shape_here: float, shape_other: float) -> float:
        if shape_here > 1.0:
            return 0.0
        if shape_here == 1.0:
            return math.exp(-_log_beta(self.a, self.b)) / self.interval.width
        return math.inf

    def cdf(self, s):
        s = np.asarray(s, dtype=float)
        x = (s - self.interval.lo) / self.interval.width
        return regularized_incomplete_beta(np.clip(x, 0.0, 1.0), self.a, self.b)

    def quantile(self, u):
        """Inverse CDF: the x in [0, 1] with I_x(a, b) = u, mapped onto s.

        A table of I on the 2**_TABLE_LEVEL + 1 dyadic nodes of [0, 1]
        brackets each u, and interpolation inside the bracket gives the
        starting point: linear in the inner cells, along the x**a and
        (1 - x)**b power laws of I in the two end cells. A safeguarded
        Newton iteration with the beta pdf then refines it, taking the
        bisection step whenever the Newton step leaves the bracket, is not
        finite, or has not halved the step from two iterations before. A
        lane stops when I(x) == u, or when its step or bracket is within
        _STOP_ULPS units in the last place of x, and at the latest after
        _SOLVE_MAX_ITER evaluations. Only lanes still running are
        evaluated, and each lane's result depends on (u, a, b) alone, so a
        sampled stream does not depend on how many points are drawn with it.
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


def save_samples(path, samples) -> None:
    """Write sample points one per line at full precision."""
    points = np.asarray(getattr(samples, "points", samples), dtype=float)
    with open(path, "w", newline="\n") as fh:
        write_rows(fh, points.reshape(-1, 1))


def count_samples(path) -> int:
    """Number of non-blank lines in a sample file: the N of load_samples."""
    with open(path) as fh:
        return sum(not line.isspace() for line in fh)


def load_samples(path, interval: Interval | None = None) -> SampleSet:
    """Read a one-column sample file written by save_samples.

    Blank lines are ignored. A malformed line, or with `interval` a value
    outside it, raises ValueError naming the line number in the file. The
    values go straight into one float64 array, with no list of Python floats.
    """
    with open(path) as fh:
        points = np.fromiter(_parse_samples(path, fh, interval), dtype=float)
    return SampleSet(points=points)


def _parse_samples(path, fh, interval: Interval | None):
    for lineno, line in enumerate(fh, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: could not parse {text!r}"
            ) from None
        if interval is not None and (value < interval.lo
                                     or value > interval.hi):
            raise ValueError(
                f"{path}: sample {value:g} on line {lineno} lies "
                f"outside [{interval.lo:g}, {interval.hi:g}]"
            )
        yield value
