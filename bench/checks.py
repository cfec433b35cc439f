"""Output checks for every timed command.

`check_output` returns the list of failures for one command (empty when it
passed) and a dict of health values. A table passes when it has the
expected header and row count, every value is finite, every density curve
is nonnegative, ratio curves have unit mass within 1e-12, the embedded
curves match an independent recomputation b(s)^T M b(s) / tr(M) at probe
rows, and the Haar estimate equals the sample histogram. The coefficient
matrix M is rebuilt here from the public `basis_matrix` (exact curve, by
trapezoid quadrature of zeta) or `map_coefficients` (MAP curve), not from
the kernel routines the CLI uses.
"""

from __future__ import annotations

import numpy as np

from densop import (
    BasisSpec,
    BetaTarget,
    Interval,
    SampleSet,
    basis_matrix,
    map_coefficients,
)

from workloads import INTERVAL, Command

PROBE_ROWS = 97
RECOMPUTE_TOL = 1e-9    # relative to the column maximum
RATIO_MASS_TOL = 1e-12
HISTOGRAM_TOL = 1e-12   # acceptance criterion 4
ORACLE_SUMMARY = "{} passed, 0 failed"


def _is_density(name: str) -> bool:
    return name in ("zeta", "kernel_diag") or name.startswith(
        ("embedded_", "ratio_"))


def _trapezoid(s: np.ndarray, values: np.ndarray) -> float:
    h = (s[-1] - s[0]) / (s.size - 1)
    return float(h * (np.sum(values[1:-1]) + 0.5 * (values[0] + values[-1])))


def _samples(cmd: Command) -> np.ndarray:
    src = cmd.samples
    if src.path is not None:
        return np.loadtxt(src.path, ndmin=1)
    target = BetaTarget(2.0, 5.0, Interval(*INTERVAL))
    return target.sample(src.n, src.seed).points


def _quadratic_form(spec: BasisSpec, matrix: np.ndarray, s: np.ndarray):
    b = basis_matrix(spec, s)
    return np.einsum("jp,jk,kp->p", b, matrix, b) / np.trace(matrix)


def check_table(path: str, cmd: Command):
    """Failures and health values of one written table."""
    health = {}
    with open(path) as fh:
        header = tuple(fh.readline().strip().split(","))
    if header != cmd.header:
        return [f"header {header[:4]}... is not {cmd.header[:4]}..."], health
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = cmd.basis.rows
    if data.shape != (rows, len(header)):
        return [f"table shape {data.shape} is not ({rows}, {len(header)})"], \
            health
    bad = ~np.all(np.isfinite(data), axis=1)
    if np.any(bad):
        return [f"{int(np.sum(bad))} rows hold NaN or inf"], health

    failures = []
    cols = dict(zip(header, data.T))
    s = cols["s"]
    spec = BasisSpec(cmd.basis.family, cmd.basis.scale_n, Interval(*INTERVAL))
    for name, col in cols.items():
        if not _is_density(name):
            continue
        if np.any(col < 0):
            failures.append(f"{name} has negative values")
        if name == "kernel_diag":
            continue
        residual = abs(_trapezoid(s, col) - 1.0)
        health[f"{cmd.name}.{name}.mass_residual"] = residual
        tol = RATIO_MASS_TOL if name.startswith("ratio_") else cmd.mass_tol
        if tol is not None and residual > tol:
            failures.append(f"{name} mass is off by {residual:.2e} > {tol:g}")

    probes = np.unique(np.linspace(0, rows - 1, PROBE_ROWS).round()
                       .astype(int))
    expected = {}
    if "embedded_exact" in cols:
        b = basis_matrix(spec, s)
        weights = np.full(rows, (s[-1] - s[0]) / (rows - 1))
        weights[[0, -1]] *= 0.5
        expected["embedded_exact"] = (b * (weights * cols["zeta"])) @ b.T
    if "embedded_map" in cols:
        points = _samples(cmd)
        expected["embedded_map"] = map_coefficients(
            SampleSet(points), spec).matrix
        if cmd.haar_histogram:
            failures += _check_histogram(cmd, points, s, cols["embedded_map"])
    for name, matrix in expected.items():
        col = cols[name]
        err = np.max(np.abs(_quadratic_form(spec, matrix, s[probes])
                            - col[probes]))
        health[f"{cmd.name}.{name}.recompute_error"] = float(
            err / np.max(col))
        if err > RECOMPUTE_TOL * np.max(col):
            failures.append(f"{name} differs from b^T M b / tr by {err:.2e}")
    if "kernel_diag" in cols:
        phis = np.array([cols[n] for n in header if n.startswith("phi_")])
        err = np.max(np.abs(np.sum(phis * phis, axis=0) - cols["kernel_diag"]))
        if err > RECOMPUTE_TOL * np.max(cols["kernel_diag"]):
            failures.append(f"kernel_diag differs from sum phi^2 by {err:.2e}")
    return failures, health


def _check_histogram(cmd: Command, points, s, curve):
    """Haar MAP density = bin count / (N * bin width), half-open bins."""
    two_n = 2 ** cmd.basis.scale_n
    n_bins = round((INTERVAL[1] - INTERVAL[0]) * two_n)
    counts = np.bincount(np.floor(points * two_n).astype(int),
                         minlength=n_bins)
    bins = np.floor(s * two_n).astype(int)
    inside = (bins >= 0) & (bins < n_bins)
    hist = np.zeros_like(s)
    hist[inside] = counts[bins[inside]] * two_n / points.size
    err = float(np.max(np.abs(curve - hist)))
    if err > HISTOGRAM_TOL:
        return [f"haar estimate differs from the histogram by {err:.2e}"]
    return []


def check_oracle(stdout: str, cmd: Command):
    lines = stdout.strip().splitlines()
    passed = sum(line.startswith("[PASS]") for line in lines)
    want = ORACLE_SUMMARY.format(cmd.oracle_checks)
    if not lines or lines[-1] != want or passed != cmd.oracle_checks:
        tail = lines[-1] if lines else "no output"
        return [f"oracle reported {tail!r}, expected {want!r}"], {}
    return [], {}


def check_output(cmd: Command, code, stdout: str, out_path: str | None):
    """Failures and health values of one finished command."""
    if code != 0:
        return [f"exit status {code}"], {}
    if cmd.oracle_checks:
        return check_oracle(stdout, cmd)
    try:
        return check_table(out_path, cmd)
    except (OSError, ValueError) as exc:
        return [f"unreadable table: {exc}"], {}
