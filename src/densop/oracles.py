"""Self-contained invariant suites, runnable from the CLI.

Each check recomputes a known identity through an independent route
(closed forms, exact recurrences, histogram counting) and reports the
measured residual against its tolerance. Seeds are fixed so a report is
reproducible; these suites are diagnostics, not a substitute for the test
suite, but they cover every module's headline invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSpec,
    DAUB4_TAPS,
    Grid,
    Interval,
    basis_matrix,
    gram_check,
    scaling_values_daub4,
)
from .discrete import (
    born_probability,
    change_basis,
    ensemble_from_distribution,
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
    DensityCurve,
    embedded_density_exact,
    embedded_density_map,
    homogeneous_log_prior,
    log_posterior_coefficients,
    log_posterior_discrete,
    map_coefficients,
)
from .target import BetaTarget

SUITES = ("discrete", "basis", "embedding", "learn", "all")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: residual {self.residual:.3e} "
            f"(tolerance {self.tolerance:.0e})"
        )


def _check(name: str, residual: float, tolerance: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name=name, passed=residual <= tolerance,
                       residual=residual, tolerance=tolerance)


def _default_interval() -> Interval:
    return Interval(0.0, 3.0)


def suite_discrete() -> list[CheckResult]:
    rng = np.random.Generator(np.random.PCG64(20260823))
    results = []

    worst = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 9))
        rho = random_density_matrix(d, rng)
        u = random_unitary(d, rng)
        w = change_basis(rho, u)
        for j in range(d):
            direct = born_probability(rho, j)
            via = probability_from_coefficients(w, u, j)
            worst = max(worst, abs(direct - via))
    results.append(_check("born-rule basis invariance", worst, 1e-10))

    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        z = random_distribution(d, rng)
        rho = ensemble_from_distribution(z)
        worst = max(worst, float(np.max(np.abs(
            np.diagonal(rho.entries).real - z.probabilities))))
    results.append(_check("ensemble round-trip", worst, 0.0))

    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        rho = random_ensemble(d, rng)
        total = sum(born_probability(rho, j) for j in range(d))
        worst = max(worst, abs(total - 1.0))
    results.append(_check("born probabilities sum to 1", worst, 1e-10))

    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        rho = random_density_matrix(d, rng)
        u = random_unitary(d, rng)
        before = np.linalg.eigvalsh(rho.entries)
        after = np.linalg.eigvalsh(change_basis(rho, u).entries)
        worst = max(worst, float(np.max(np.abs(before - after))))
    results.append(_check("spectrum preserved by basis change", worst, 1e-9))

    return results


def suite_basis() -> list[CheckResult]:
    results = []
    level = 12
    table = scaling_values_daub4(level)
    scale = 2 ** level

    # Two-scale relation at every tabulated point, using only the table.
    idx = np.arange(table.size)
    rhs = np.zeros(table.size)
    for t in range(4):
        src = 2 * idx - t * scale
        ok = (src >= 0) & (src < table.size)
        rhs[ok] += DAUB4_TAPS[t] * table[src[ok]]
    results.append(_check("tap-4 refinement residual",
                          np.max(np.abs(table - rhs)), 1e-10))

    frac = np.arange(1, scale)
    unity = table[frac] + table[frac + scale] + table[frac + 2 * scale]
    results.append(_check("partition of unity",
                          np.max(np.abs(unity - 1.0)), 1e-8))

    phi = np.array([table[scale], table[2 * scale]])
    refine = np.array([[DAUB4_TAPS[1], DAUB4_TAPS[0]],
                       [DAUB4_TAPS[3], DAUB4_TAPS[2]]])
    eig_residual = max(float(np.max(np.abs(refine @ phi - phi))),
                       abs(float(phi.sum()) - 1.0))
    results.append(_check("integer values solve the refinement matrix",
                          eig_residual, 1e-12))

    results.append(_check("unit integral (Riemann sum)",
                          abs(float(table.sum()) / scale - 1.0), 1e-4))

    spec = BasisSpec("daubechies4", 2, _default_interval(), table_level=level)
    grid = Grid.uniform(_default_interval(), 3 * 2 ** (level + spec.scale_n))
    gram = gram_check(spec, grid)
    interior = spec.interior_translates() - spec.translate_range[0]
    sub = gram[np.ix_(interior, interior)]
    results.append(_check("interior gram identity (daubechies4 n=2)",
                          np.max(np.abs(sub - np.eye(sub.shape[0]))), 1e-6))

    haar = BasisSpec("haar", 2, _default_interval())
    haar_grid = Grid.uniform(_default_interval(), 3 * 2 ** 10)
    haar_gram = gram_check(haar, haar_grid)
    inner = np.arange(1, haar.size - 1)
    sub = haar_gram[np.ix_(inner, inner)]
    results.append(_check("haar gram identity (dyadic-aligned grid)",
                          np.max(np.abs(sub - np.eye(sub.shape[0]))), 1e-12))

    return results


def suite_embedding() -> list[CheckResult]:
    rng = np.random.Generator(np.random.PCG64(20260824))
    results = []
    interval = _default_interval()

    haar = EmbeddingOperator.projection(BasisSpec("haar", 2, interval))
    pts = rng.uniform(0.0, 3.0, size=40)
    s, t = pts[:, None], pts[None, :10]
    expect = np.where(np.floor(s * 4) == np.floor(t * 4), 4.0, 0.0)
    worst = float(np.max(np.abs(kernel_eval(haar, s, t) - expect)))
    results.append(_check("haar kernel block values", worst, 1e-12))

    spec = BasisSpec("daubechies4", 2, interval)
    proj = EmbeddingOperator.projection(spec)
    span = spec.span()
    xs = rng.uniform(span.lo, span.hi, size=60)
    gram_pts = kernel_eval(proj, xs[:, None], xs[None, :])
    min_eig = float(np.linalg.eigvalsh(gram_pts)[0])
    results.append(_check("mercer positivity of the kernel",
                          max(0.0, -min_eig), 1e-8))

    sym = float(np.max(np.abs(gram_pts - gram_pts.T)))
    results.append(_check("kernel symmetry", sym, 1e-14))

    # K o K = K for projections: compare the quadrature composition with a
    # direct evaluation on a subsample, using a table-aligned fine grid.
    fine_spec = BasisSpec("daubechies4", 2, interval, table_level=12)
    fine_proj = EmbeddingOperator.projection(fine_spec)
    fine_grid = Grid.uniform(span, int(round(span.width * 2 ** 14)))
    gram = gram_check(fine_spec, fine_grid)
    probe = rng.uniform(span.lo, span.hi, size=25)
    bp = basis_matrix(fine_spec, probe)
    composed = bp.T @ gram @ bp
    direct = kernel_eval(fine_proj, probe[:, None], probe[None, :])
    results.append(_check("projection kernel idempotence (K o K = K)",
                          np.max(np.abs(composed - direct)), 1e-5))

    target = BetaTarget(2.0, 5.0, interval)
    zeta_grid = Grid.uniform(interval, 3 * 2 ** 10)
    zeta = target.density(zeta_grid.points)
    t_rho = trace_k_rho(haar, zeta, zeta_grid)
    results.append(_check("haar trace against a density equals 4",
                          abs(t_rho - 4.0), 1e-5))

    samples = target.sample(200, seed=7)
    results.append(_check("haar trace over samples equals 4",
                          abs(trace_k_map(haar, samples) - 4.0), 1e-12))

    return results


def suite_learn() -> list[CheckResult]:
    rng = np.random.Generator(np.random.PCG64(20260825))
    results = []
    interval = _default_interval()

    worst = 0.0
    for _ in range(120):
        d = int(rng.integers(2, 9))
        rho = random_ensemble(d, rng)
        u = random_unitary(d, rng)
        noise = rng.random((d, d)) + 0.05
        noise /= noise.sum(axis=1, keepdims=True)
        n_draws = int(rng.integers(1, 21))
        draws = rng.integers(0, d, size=n_draws)
        z = np.diagonal(rho.entries).real
        by_position = log_posterior_discrete(
            homogeneous_log_prior, z, draws, noise)
        w = change_basis(rho, u)
        by_coefficients = log_posterior_coefficients(
            homogeneous_log_prior, w, u, draws, noise)
        worst = max(worst, abs(by_position - by_coefficients))
    results.append(_check("coordinate invariance of the posterior",
                          worst, 1e-8))

    target = BetaTarget(2.0, 5.0, interval)
    samples = target.sample(500, seed=11)
    haar = EmbeddingOperator.projection(BasisSpec("haar", 3, interval))
    grid = Grid.uniform(interval, 1000)
    curve = embedded_density_map(haar, samples, grid)
    edges = np.linspace(0.0, 3.0, 3 * 8 + 1)
    counts, _ = np.histogram(samples.points, bins=edges)
    bins = np.minimum(np.floor(grid.points * 8).astype(int), counts.size - 1)
    hist_curve = counts[bins] * 8.0 / samples.n
    hist_curve[grid.points >= 3.0] = 0.0
    results.append(_check("haar map density equals the histogram",
                          np.max(np.abs(curve.values - hist_curve)), 1e-12))

    spec = BasisSpec("daubechies4", 2, interval)
    proj = EmbeddingOperator.projection(spec)
    samples300 = target.sample(300, seed=1)
    coeffs = map_coefficients(samples300, spec)
    min_eig = float(np.linalg.eigvalsh(coeffs.matrix)[0])
    results.append(_check("map coefficient matrix is psd",
                          max(0.0, -min_eig), 1e-10))
    results.append(_check(
        "map coefficient trace equals the sample trace",
        abs(coeffs.trace() - trace_k_map(proj, samples300)), 1e-12))

    span_grid = Grid.uniform(spec.span(), int(round(spec.span().width * 4096)))
    zeta_curve = DensityCurve(span_grid, target.density(span_grid.points))
    exact = embedded_density_exact(proj, zeta_curve, span_grid)
    mapped = embedded_density_map(proj, samples300, span_grid)
    results.append(_check("exact embedded density has unit mass",
                          abs(exact.mass() - 1.0), 1e-5))
    results.append(_check("map embedded density has unit mass",
                          abs(mapped.mass() - 1.0), 1e-5))

    coarse = Grid.uniform(spec.span(), int(round(spec.span().width * 1024)))
    zeta_coarse = DensityCurve(coarse, target.density(coarse.points))
    exact_coarse = embedded_density_exact(proj, zeta_coarse, coarse)

    def l2_error(n_draws: int) -> float:
        est = embedded_density_map(proj, target.sample(n_draws, seed=1), coarse)
        diff = est.values - exact_coarse.values
        return float(np.sqrt(coarse.integrate(diff * diff)))

    ratio = l2_error(100) / l2_error(10000)
    inside = (10.0 / 3.0) <= ratio <= 30.0
    results.append(CheckResult(
        name="map error ratio across two decades (expect ~10)",
        passed=inside, residual=float(ratio), tolerance=30.0))

    return results


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    if name == "all":
        results = []
        for sub in ("discrete", "basis", "embedding", "learn"):
            results.extend(run_suite(sub))
        return results
    return {
        "discrete": suite_discrete,
        "basis": suite_basis,
        "embedding": suite_embedding,
        "learn": suite_learn,
    }[name]()
