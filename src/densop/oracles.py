"""One ordered registry of named invariant checks.

Each check is a public function that recomputes a known identity through
an independent route (closed forms, exact recurrences, histogram counting)
and returns its residual; its generator or seed and its sizes are
arguments. A check passes when its residual is at most its tolerance.
`densop oracle` runs the registry at the seeds and sizes registered here,
and the tests call the same functions at their own seeds and sizes.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSpec,
    DAUB4_TAPS,
    Grid,
    TABLE_LEVEL,
    basis_matrix,
    gram_check,
    scaling_values_daub4,
)
from .config import ExperimentConfig
from .discrete import (
    born_probability,
    change_basis,
    ensemble_from_distribution,
    members,
    probability_from_coefficients,
    random_density_matrix,
    random_distribution,
    random_ensemble,
    random_unitary,
)
from .embedding import (
    EmbeddingOperator,
    kernel_eval,
    trace_k_map,
    trace_k_rho,
)
from .learn import (
    SampleSet,
    embedded_density_exact,
    embedded_density_map,
    log_posterior_coefficients,
    log_posterior_discrete,
    map_coefficients,
)

SUITES = ("discrete", "basis", "embedding", "learn", "all")

_UNIT = ExperimentConfig().interval()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: residual {self.residual:.3e} "
                f"(tolerance {self.tolerance:.3g})")


# Stands for the suite's generator in a check's registered arguments. Each
# suite draws from one PCG64 stream, in registry order.
STREAM = object()
SEEDS = {"discrete": 20260823, "embedding": 20260824, "learn": 20260825}
# (suite, name, tolerance, function, arguments), in the order run.
REGISTRY: list[tuple] = []


def _check(suite: str, name: str, tolerance: float, *args):
    """Register the decorated function as a check with these arguments."""
    def register(function):
        REGISTRY.append((suite, name, tolerance, function, args))
        return function
    return register


def _projection(family: str, scale_n: int) -> EmbeddingOperator:
    return EmbeddingOperator.projection(BasisSpec(family, scale_n, _UNIT))


# The fixtures that the checks of one run_suite call share, by key. The
# outermost call sets a fresh dict and resets it when it returns, so no
# fixture outlives its run, and a check called on its own, outside a run,
# builds its own from whatever the routes it calls are at that moment.
_FIXTURES: ContextVar[dict | None] = ContextVar("fixtures", default=None)


def _fixture(key, build):
    """build(), once per run_suite call and on every call outside one."""
    memo = _FIXTURES.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _daub4_gram(scale_n: int) -> np.ndarray:
    """Daubechies-4 Gram matrix on the table-aligned grid of spacing
    2**-(TABLE_LEVEL + scale_n) over the basis span. An interior
    translate is 0 outside the interval, so its rows read the same
    nodes, weights and point order as on a grid over the interval."""
    def build():
        spec = BasisSpec("daubechies4", scale_n, _UNIT)
        span = spec.span()
        cells = int(round(span.width * 2 ** (TABLE_LEVEL + scale_n)))
        return gram_check(spec, Grid(span, cells))
    return _fixture(("gram", scale_n), build)


def _samples(n: int, seed: int) -> SampleSet:
    """The default target's sample(n, seed). Within a run, the first n
    points of the longest stream of `seed` drawn so far: a stream's first
    points do not depend on its length."""
    target = ExperimentConfig().target()
    memo = _FIXTURES.get()
    if memo is None:
        return target.sample(n, seed)
    drawn = memo.get(("samples", seed))
    if drawn is None or drawn.n < n:
        drawn = memo[("samples", seed)] = target.sample(n, seed)
    return drawn if drawn.n == n else SampleSet(drawn.points[:n])


def _map_coefficients(seed: int, samples: SampleSet):
    """map_coefficients of the default basis on `samples`, which are
    _samples(samples.n, seed)."""
    return _fixture(("map", seed, samples.n), lambda: map_coefficients(
        samples, ExperimentConfig().basis()))


def _by_dimension(rng, trials: int):
    """Yield (d, trial indices) for each dimension in 2..8 that the trials
    drew, in increasing d. All trial dimensions are drawn in one call
    first, so each check builds one stack of states per dimension."""
    dims = rng.integers(2, 9, size=trials)
    for d, count in enumerate(np.bincount(dims)):
        if count:
            yield d, np.flatnonzero(dims == d)


@_check("discrete", "born-rule basis invariance", 1e-10, STREAM, 300)
def born_rule_invariance(rng, trials: int) -> float:
    """Born rule on the position diagonal against the coefficient route."""
    worst = 0.0
    for d, trial in _by_dimension(rng, trials):
        rho = random_density_matrix(d, rng, trial.size)
        u = random_unitary(d, rng, trial.size)
        w = change_basis(rho, u)
        for j in range(d):
            worst = max(worst, float(np.max(np.abs(
                born_probability(rho, j)
                - probability_from_coefficients(w, u, j)))))
    return worst


@_check("discrete", "ensemble round-trip", 0.0, STREAM, 50)
def ensemble_round_trip(rng, trials: int) -> float:
    """Diagonal of the ensemble built from a distribution against it."""
    worst = 0.0
    for d, trial in _by_dimension(rng, trials):
        z = random_distribution(d, rng, trial.size)
        rho = ensemble_from_distribution(z)
        worst = max(worst, float(np.max(np.abs(
            np.diagonal(rho.entries, axis1=1, axis2=2).real
            - z.probabilities))))
    return worst


@_check("discrete", "born probabilities sum to 1", 1e-10, STREAM, 100)
def born_probability_sum(rng, trials: int) -> float:
    """Distance of the summed Born probabilities from 1."""
    worst = 0.0
    for d, trial in _by_dimension(rng, trials):
        rho = random_ensemble(d, rng, trial.size)
        total = sum(born_probability(rho, j) for j in range(d))
        worst = max(worst, float(np.max(np.abs(total - 1.0))))
    return worst


@_check("discrete", "spectrum preserved by basis change", 1e-9, STREAM, 100)
def spectrum_under_basis_change(rng, trials: int) -> float:
    """Eigenvalues of a state before and after a random change of basis."""
    worst = 0.0
    for d, trial in _by_dimension(rng, trials):
        rho = random_density_matrix(d, rng, trial.size)
        u = random_unitary(d, rng, trial.size)
        before = np.linalg.eigvalsh(rho.entries)
        after = np.linalg.eigvalsh(change_basis(rho, u).entries)
        worst = max(worst, float(np.max(np.abs(before - after))))
    return worst


@_check("basis", "tap-4 refinement residual", 1e-10, 12)
def refinement_residual(level: int) -> float:
    """Two-scale relation at every tabulated point, using only the table."""
    table = scaling_values_daub4(level)
    scale = 2 ** level
    idx = np.arange(table.size)
    rhs = np.zeros(table.size)
    for t in range(4):
        src = 2 * idx - t * scale
        ok = (src >= 0) & (src < table.size)
        rhs[ok] += DAUB4_TAPS[t] * table[src[ok]]
    return float(np.max(np.abs(table - rhs)))


@_check("basis", "partition of unity", 1e-8, 12)
def partition_of_unity(level: int) -> float:
    """Sum of the integer shifts at every interior table point, minus 1."""
    table = scaling_values_daub4(level)
    scale = 2 ** level
    frac = np.arange(1, scale)
    total = table[frac] + table[frac + scale] + table[frac + 2 * scale]
    return float(np.max(np.abs(total - 1.0)))


@_check("basis", "integer values solve the refinement matrix", 1e-12, 12)
def integer_value_refinement(level: int) -> float:
    """phi(1), phi(2) as the unit-sum eigenvector of the refinement matrix."""
    table = scaling_values_daub4(level)
    scale = 2 ** level
    phi = np.array([table[scale], table[2 * scale]])
    refine = np.array([[DAUB4_TAPS[1], DAUB4_TAPS[0]],
                       [DAUB4_TAPS[3], DAUB4_TAPS[2]]])
    return max(float(np.max(np.abs(refine @ phi - phi))),
               abs(float(phi.sum()) - 1.0))


@_check("basis", "unit integral (Riemann sum)", 1e-4, 12)
def riemann_integral(level: int) -> float:
    """Riemann sum of the table against the unit integral."""
    return abs(float(scaling_values_daub4(level).sum()) / 2 ** level - 1.0)


@_check("basis", "interior gram identity (daubechies4 n=2)", 1e-6, 2)
def daub4_interior_gram(scale_n: int) -> float:
    """Interior Daubechies-4 Gram matrix against the identity, on the
    table-aligned grid of spacing 2**-(TABLE_LEVEL + scale_n)."""
    spec = BasisSpec("daubechies4", scale_n, _UNIT)
    rows = spec.interior_translates() - spec.translate_range[0]
    sub = _daub4_gram(scale_n)[np.ix_(rows, rows)]
    return float(np.max(np.abs(sub - np.eye(sub.shape[0]))))


@_check("basis", "haar gram identity (dyadic-aligned grid)", 1e-12,
        2, 3 * 2 ** 10)
def haar_interior_gram(scale_n: int, cells: int) -> float:
    """Interior Haar Gram matrix against the identity."""
    spec = BasisSpec("haar", scale_n, _UNIT)
    rows = np.arange(1, spec.size - 1)
    sub = gram_check(spec, Grid(_UNIT, cells))[np.ix_(rows, rows)]
    return float(np.max(np.abs(sub - np.eye(sub.shape[0]))))


@_check("embedding", "haar kernel block values", 1e-12, STREAM, 40)
def haar_kernel_block(rng, n_points: int) -> float:
    """Haar n = 2 kernel against 4 on a shared quarter-unit box, else 0."""
    pts = rng.uniform(0.0, 3.0, size=n_points)
    s, t = pts[:, None], pts[None, :10]
    expect = np.where(np.floor(s * 4) == np.floor(t * 4), 4.0, 0.0)
    return float(np.max(np.abs(kernel_eval(_projection("haar", 2), s, t)
                               - expect)))


@_check("embedding", "mercer positivity of the kernel", 1e-8, STREAM, 60)
def mercer_positivity(rng, n_points: int) -> float:
    """Most negative eigenvalue of the kernel Gram matrix at random points."""
    proj = _projection("daubechies4", 2)
    span = proj.basis.span()
    xs = rng.uniform(span.lo, span.hi, size=n_points)
    gram = kernel_eval(proj, xs[:, None], xs[None, :])
    return max(0.0, -float(np.linalg.eigvalsh(gram)[0]))


@_check("embedding", "kernel symmetry", 1e-14, 60)
def kernel_symmetry(n_points: int) -> float:
    """K(s, t) against K(t, s) at evenly spaced points over the span."""
    proj = _projection("daubechies4", 2)
    span = proj.basis.span()
    xs = np.linspace(span.lo, span.hi, n_points)
    gram = kernel_eval(proj, xs[:, None], xs[None, :])
    return float(np.max(np.abs(gram - gram.T)))


@_check("embedding", "projection kernel idempotence (K o K = K)", 1e-5,
        STREAM, 25)
def projection_idempotence(rng, n_probe: int) -> float:
    """K o K by quadrature on a table-aligned grid against K, at probes."""
    proj = _projection("daubechies4", 2)
    span = proj.basis.span()
    probe = rng.uniform(span.lo, span.hi, size=n_probe)
    bp = basis_matrix(proj.basis, probe)
    direct = kernel_eval(proj, probe[:, None], probe[None, :])
    return float(np.max(np.abs(bp.T @ _daub4_gram(2) @ bp - direct)))


@_check("embedding", "haar trace against a density equals 4", 1e-5,
        2, 3 * 2 ** 10)
def haar_trace_against_density(scale_n: int, cells: int) -> float:
    """Trace of the Haar kernel against the beta density, minus 2**scale_n."""
    grid = Grid(_UNIT, cells)
    zeta = ExperimentConfig().target().curve(grid)
    return abs(trace_k_rho(_projection("haar", scale_n), zeta)
               - 2.0 ** scale_n)


@_check("embedding", "haar trace over samples equals 4", 1e-12, 7, 200, 2)
def haar_trace_over_samples(seed: int, n_samples: int, scale_n: int) -> float:
    """Trace of the Haar kernel over beta samples, minus 2**scale_n."""
    samples = _samples(n_samples, seed)
    return abs(trace_k_map(_projection("haar", scale_n), samples)
               - 2.0 ** scale_n)


@_check("learn", "coordinate invariance of the posterior", 1e-8, STREAM, 120)
def posterior_coordinate_invariance(rng, trials: int) -> float:
    """Posterior in position against coefficient coordinates; odd trials
    add a row-stochastic noise matrix. The states of one dimension come
    as one stack, validated once; the draws differ in length, so each
    trial's posterior is evaluated on its own, on the stacks' members."""
    worst = 0.0
    for d, trial in _by_dimension(rng, trials):
        z = random_distribution(d, rng, trial.size)
        u = random_unitary(d, rng, trial.size)
        w = change_basis(ensemble_from_distribution(z), u)
        for i, z_k, w_k, u_k in zip(trial, *map(members, (z, w, u))):
            draws = rng.integers(0, d, size=int(rng.integers(1, 21)))
            noise = None
            if i % 2:
                noise = rng.random((d, d)) + 0.05
                noise /= noise.sum(axis=1, keepdims=True)
            by_position = log_posterior_discrete(z_k, draws, noise)
            by_coefficients = log_posterior_coefficients(w_k, u_k, draws,
                                                         noise)
            worst = max(worst, abs(by_position - by_coefficients))
    return worst


@_check("learn", "haar map density equals the histogram", 1e-12,
        11, 500, (3,), 1000)
def haar_map_histogram(seed: int, n_samples: int, scales, cells: int) -> float:
    """Haar MAP curve at each scale in `scales` against the histogram."""
    samples = _samples(n_samples, seed)
    grid = Grid(_UNIT, cells)
    worst = 0.0
    for n in scales:
        curve = embedded_density_map(_projection("haar", n), samples, grid)
        bins = 3 * 2 ** n
        counts, _ = np.histogram(samples.points,
                                 bins=np.linspace(0.0, 3.0, bins + 1))
        which = np.minimum(np.floor(grid.points * 2 ** n).astype(int),
                           bins - 1)
        hist = counts[which] * (2 ** n) / samples.n
        # the right endpoint lies outside every half-open box
        hist[grid.points >= 3.0] = 0.0
        worst = max(worst, float(np.max(np.abs(curve.values - hist))))
    return worst


@_check("learn", "map coefficient matrix is psd", 1e-10, 1, 300)
def map_coefficients_psd(seed: int, n_samples: int) -> float:
    """Most negative eigenvalue of the MAP coefficient matrix."""
    coeffs = _map_coefficients(seed, _samples(n_samples, seed))
    return max(0.0, -float(np.linalg.eigvalsh(coeffs.matrix)[0]))


@_check("learn", "map coefficient trace equals the sample trace", 1e-12,
        1, 300)
def map_coefficient_trace(seed: int, n_samples: int) -> float:
    """MAP coefficient trace against the sample trace of the kernel."""
    samples = _samples(n_samples, seed)
    coeffs = _map_coefficients(seed, samples)
    return abs(coeffs.trace()
               - trace_k_map(ExperimentConfig().operator(), samples))


@_check("learn", "exact embedded density has unit mass", 1e-5, 4096)
def exact_density_mass(cells_per_unit: int) -> float:
    """Quadrature mass of the exact embedded curve, minus 1."""
    cfg = ExperimentConfig(grid_cells=cells_per_unit)
    grid = cfg.curve_grid()
    zeta = cfg.target().curve(grid)
    return abs(embedded_density_exact(cfg.operator(), zeta, grid).mass() - 1.0)


@_check("learn", "map embedded density has unit mass", 1e-5, 1, 300, 4096)
def map_density_mass(seed: int, n_samples: int, cells_per_unit: int) -> float:
    """Quadrature mass of the MAP embedded curve, minus 1."""
    cfg = ExperimentConfig(grid_cells=cells_per_unit)
    curve = embedded_density_map(cfg.operator(), _samples(n_samples, seed),
                                 cfg.curve_grid())
    return abs(curve.mass() - 1.0)


def map_l2_errors(seed: int, sizes, cells_per_unit: int) -> np.ndarray:
    """L2 distances of the MAP curves at `sizes` from the exact curve."""
    cfg = ExperimentConfig(grid_cells=cells_per_unit)
    grid = cfg.curve_grid()
    exact = embedded_density_exact(cfg.operator(), cfg.target().curve(grid),
                                   grid)
    errors = []
    for n in sizes:
        est = embedded_density_map(cfg.operator(), _samples(n, seed), grid)
        diff = est.values - exact.values
        errors.append(float(np.sqrt(grid.integrate(diff * diff))))
    return np.array(errors)


@_check("learn", "map error ratio across two decades (expect ~10)",
        math.log10(3.0), 1, 100, 10000, 1024)
def map_error_ratio(seed: int, small: int, large: int,
                    cells_per_unit: int) -> float:
    """|log10(ratio) - 1| for the MAP error ratio from `small` to `large`
    samples, which the Monte Carlo rate puts at 10 over two decades."""
    errors = map_l2_errors(seed, (small, large), cells_per_unit)
    return abs(math.log10(errors[0] / errors[1]) - 1.0)


def _run_registry(suite: str) -> list[CheckResult]:
    # the basis suite draws nothing
    rng = np.random.default_rng(SEEDS[suite]) if suite in SEEDS else None
    results = []
    for entry_suite, name, tolerance, function, args in REGISTRY:
        if entry_suite == suite:
            residual = float(function(*(rng if a is STREAM else a
                                        for a in args)))
            results.append(CheckResult(name, residual <= tolerance,
                                       residual, tolerance))
    return results


def suite_discrete() -> list[CheckResult]:
    return _run_registry("discrete")


def suite_basis() -> list[CheckResult]:
    return _run_registry("basis")


def suite_embedding() -> list[CheckResult]:
    return _run_registry("embedding")


def suite_learn() -> list[CheckResult]:
    return _run_registry("learn")


def run_suite(name: str) -> list[CheckResult]:
    """Run one suite, or all four in order, and return its results.

    The checks of one call share their fixtures: the Daubechies-4 Gram
    matrix, each seed's default-target samples and the MAP coefficients
    are built once per call, not once per check.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    token = _FIXTURES.set({}) if _FIXTURES.get() is None else None
    try:
        if name == "all":
            return [r for sub in SUITES[:-1] for r in run_suite(sub)]
        # Looked up by module global at call time, so a wrapper installed
        # on the module (such as a tracer's) is the one called.
        return globals()[f"suite_{name}"]()
    finally:
        if token is not None:
            _FIXTURES.reset(token)
