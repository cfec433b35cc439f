"""The acceptance battery: eight numbered end-to-end checks.

Each criterion is one test, so `pytest -v` prints exactly one pass/fail
line per criterion; the prints inside (visible with -s) carry the
measured residuals. Criteria 1-6 call the named checks of
`densop.oracles`, the registry `densop oracle` runs, at their own seeds
and sizes. Tolerances and time budgets are stated inline and are the
contract for this package; nothing here may be loosened to make a
failing build pass.
"""

import time

import numpy as np
import pytest

from densop import ExperimentConfig, basis_matrix, oracles
from densop.cli import FIGURES, main


def test_criterion_1_born_rule_basis_invariance():
    # 1000 random states and random measurement bases with dimension up
    # to 8: reading probabilities off the position diagonal and
    # contracting the coefficient matrix against the unitary rows must
    # agree to 1e-10, in under 10 seconds.
    start = time.perf_counter()
    worst = oracles.born_rule_invariance(np.random.default_rng(101), 1000)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst residual {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_posterior_coordinate_invariance():
    # 500 random (state, basis, samples) tuples, half of them with a
    # row-stochastic noise matrix: the position-basis posterior and the
    # coefficient-basis posterior agree to 1e-8, in under 30 seconds.
    start = time.perf_counter()
    worst = oracles.posterior_coordinate_invariance(
        np.random.default_rng(202), 500)
    elapsed = time.perf_counter() - start
    print(f"criterion 2: worst residual {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_3_cascade_table_invariants():
    # the tabulated scaling function satisfies its two-scale relation to
    # 1e-10, sums to one over integer shifts to 1e-8, and the interior
    # translates at scale 2 are orthonormal to 1e-6 under trapezoid
    # quadrature on a table-aligned grid; under 10 seconds in total.
    start = time.perf_counter()
    refinement = oracles.refinement_residual(12)
    partition = oracles.partition_of_unity(12)
    gram = oracles.daub4_interior_gram(2)
    elapsed = time.perf_counter() - start
    print(f"criterion 3: refinement {refinement:.3e}, partition "
          f"{partition:.3e}, gram {gram:.3e} in {elapsed:.2f}s")
    assert refinement <= 1e-10
    assert partition <= 1e-8
    assert gram <= 1e-6
    assert elapsed < 10.0


def test_criterion_4_haar_map_is_the_histogram():
    # at every scale n in 0..3 the kernel-trick estimate with a Haar
    # projection equals the sample histogram at 1e-12, under 5 seconds
    start = time.perf_counter()
    worst = oracles.haar_map_histogram(2, 1000, range(4), 1200)
    elapsed = time.perf_counter() - start
    print(f"criterion 4: worst residual {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_5_embedded_densities_have_unit_mass():
    # on the default experiment the exact embedded curve and the MAP
    # curves for seeds 1..3 at 300 and 3000 samples all integrate to 1
    # within 1e-5
    cells = ExperimentConfig().grid_cells
    residuals = [oracles.exact_density_mass(cells)] + [
        oracles.map_density_mass(seed, n, cells)
        for seed in (1, 2, 3) for n in (300, 3000)]
    worst = max(residuals)
    print(f"criterion 5: worst mass residual {worst:.3e} "
          f"(exact {residuals[0]:.3e})")
    assert worst <= 1e-5


def test_criterion_6_map_error_falls_with_sample_size():
    # for seeds 1..10 the L2 distance between the MAP curve and the
    # exact embedded curve falls monotonically over N = 100, 1000, 10000
    # and the median two-decade error ratio sits in [10/3, 30] (the
    # Monte Carlo rate predicts 10); under 60 seconds
    start = time.perf_counter()
    errors = np.array([oracles.map_l2_errors(seed, (100, 1000, 10000), 1024)
                       for seed in range(1, 11)])
    # every seed improves across the two decades; per-seed adjacent
    # comparisons are left to the medians because a lucky draw at one
    # size can dip below the noise floor of the next
    assert np.all(errors[:, 0] > errors[:, 2]), errors
    medians_by_size = np.median(errors, axis=0)
    assert medians_by_size[0] > medians_by_size[1] > medians_by_size[2]
    ratios = errors[:, 0] / errors[:, 2]
    median = float(np.median(ratios))
    elapsed = time.perf_counter() - start
    print(f"criterion 6: ratios {[f'{r:.2f}' for r in ratios]}, "
          f"median {median:.2f} in {elapsed:.2f}s")
    assert 10.0 / 3.0 <= median <= 30.0
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def figure_runs(tmp_path_factory):
    """Write all four figure tables twice with the default config."""
    runs = []
    for tag in ("first", "second"):
        outdir = tmp_path_factory.mktemp(f"figures_{tag}")
        for figure in FIGURES:
            out = outdir / f"{figure}.csv"
            assert main(["reproduce", "--figure", figure,
                         "--out", str(out)]) == 0
        runs.append(outdir)
    return runs


HEADERS = {
    "fig2b": "s,zeta,wavelet_approximation",
    "fig3a": "s,zeta,embedded_exact,embedded_map",
    "fig3b": "s,zeta,ratio_exact,ratio_map",
}


def test_criterion_7_reference_figure_tables(figure_runs):
    # the four figure tables are well formed, byte-identical across
    # reruns, the kernel diagonal plateaus at its interior value and
    # decays at the edges, the embedded curves integrate to one within
    # 1e-5, and the normalized ratios recover the target better than the
    # raw embedded curves do (smaller L2 distance)
    first, second = figure_runs
    cfg = ExperimentConfig()
    grid = cfg.curve_grid()
    rows = grid.points.size
    tables = {}
    for figure in FIGURES:
        a = (first / f"{figure}.csv").read_bytes()
        b = (second / f"{figure}.csv").read_bytes()
        assert a == b, f"{figure} is not byte-identical across reruns"
        lines = a.decode().splitlines()
        header = lines[0]
        if figure == "fig2a":
            assert header.startswith("s,phi_-2,")
            assert header.endswith(",kernel_diag")
        else:
            assert header == HEADERS[figure]
        data = np.loadtxt(first / f"{figure}.csv", delimiter=",", skiprows=1)
        assert data.shape == (rows, len(header.split(",")))
        assert np.all(np.isfinite(data))
        assert np.array_equal(data[:, 0], grid.points)
        tables[figure] = data

    # kernel diagonal: zero at the span endpoints, quarter-unit window
    # means flat to 1% over at least 12 of 16 windows, edge windows
    # clearly below the plateau
    kd = tables["fig2a"][:, -1]
    assert kd[0] == 0.0
    assert kd[-1] == 0.0
    means = kd[:-1].reshape(16, 1024).mean(axis=1)
    plateau = float(np.median(means))
    flat = np.abs(means - plateau) <= 0.01 * plateau
    assert int(flat.sum()) >= 12, means
    assert means[0] <= 0.95 * plateau
    assert means[-1] <= 0.95 * plateau

    masses = [abs(grid.integrate(tables["fig3a"][:, c]) - 1.0) for c in (2, 3)]
    assert max(masses) <= 1e-5

    def l2(values):
        return float(np.sqrt(grid.integrate(values * values)))

    zeta = tables["fig3a"][:, 1]
    gains = []
    for column, raw_column in ((2, 2), (3, 3)):
        ratio_err = l2(tables["fig3b"][:, column] - zeta)
        raw_err = l2(tables["fig3a"][:, raw_column] - zeta)
        assert ratio_err < raw_err, (column, ratio_err, raw_err)
        gains.append((ratio_err, raw_err))
    print(f"criterion 7: plateau {plateau:.3f}, window means {means.round(3)}, "
          f"masses {[f'{m:.2e}' for m in masses]}, "
          f"L2 pairs {[(f'{a:.4f}', f'{b:.4f}') for a, b in gains]}")


def test_criterion_8_reference_curves_are_regenerated_not_compared(figure_runs):
    # there is no digitized external table to diff the curves against,
    # so this criterion substitutes structure for comparison: every
    # closed-form column must be bit-identical to a fresh in-process
    # evaluation, which together with the byte-identical reruns above
    # pins the published tables to the library's own arithmetic
    first, _ = figure_runs
    cfg = ExperimentConfig()
    spec = cfg.basis()
    grid = cfg.curve_grid()
    target = cfg.target()
    fig2a = np.loadtxt(first / "fig2a.csv", delimiter=",", skiprows=1)
    assert np.array_equal(fig2a[:, 1:-1].T, basis_matrix(spec, grid.points))
    fig2b = np.loadtxt(first / "fig2b.csv", delimiter=",", skiprows=1)
    assert np.array_equal(fig2b[:, 1], target.density(grid.points))
    fig3a = np.loadtxt(first / "fig3a.csv", delimiter=",", skiprows=1)
    assert np.array_equal(fig3a[:, 1], fig2b[:, 1])
    print("criterion 8: closed-form columns regenerate bit-identically")
