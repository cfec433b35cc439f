"""Tests of the benchmark's output checker.

    python3 -m pytest -q bench/test_checks.py

The checker must pass a correct table and flag the known ways a command
can exit 0 with a wrong one.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from densop.cli import main  # noqa: E402

from checks import check_output  # noqa: E402
from workloads import Basis, Command, Samples, plan, write_inputs  # noqa: E402


def _run(cmd: Command, tmp_path: Path):
    out = tmp_path / cmd.out
    code = main([*cmd.argv, "--out", str(out)])
    return code, out


@pytest.fixture
def estimate(tmp_path):
    """The N = 300 Daubechies-4 estimate of the estimate-large-n workload."""
    write_inputs(3, tmp_path)
    cmd = plan("estimate-large-n", 3, tmp_path).commands[0]
    code, out = _run(cmd, tmp_path)
    assert code == 0
    return cmd, out


def test_correct_estimate_passes(estimate):
    cmd, out = estimate
    failures, health = check_output(cmd, 0, "", str(out))
    assert failures == []
    assert health[f"{cmd.name}.embedded_map.recompute_error"] < 1e-12


@pytest.mark.parametrize("column, scale, expect", [
    ("ratio_map", 1 + 1e-6, "ratio_map mass"),
    ("embedded_map", 1 + 1e-4, "embedded_map mass"),
    ("embedded_map", 1 + 1e-7, "b^T M b"),
])
def test_table_with_mass_off_is_flagged(estimate, column, scale, expect):
    cmd, out = estimate
    header = out.read_text().splitlines()[0]
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    data[:, header.split(",").index(column)] *= scale
    np.savetxt(out, data, fmt="%.17g", delimiter=",", header=header,
               comments="")
    failures, _ = check_output(cmd, 0, "", str(out))
    assert any(expect in f for f in failures), failures


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_haar_estimate_with_samples_on_the_right_edge_is_flagged(tmp_path):
    # Both samples sit at the interval's right end, outside every half-open
    # Haar box, so the estimate's trace is 0 and the CLI writes NaN rows.
    samples = tmp_path / "edge.txt"
    samples.write_text("3\n3\n")
    config = tmp_path / "haar.cfg"
    config.write_text("family = haar\nscale_n = 2\n")
    cmd = Command(name="haar-edge",
                  argv=("estimate", str(samples), "--config", str(config)),
                  basis=Basis(family="haar", scale_n=2),
                  header=("s", "embedded_map", "ratio_map"),
                  samples=Samples(path=str(samples)), haar_histogram=True)
    code, out = _run(cmd, tmp_path)
    failures, _ = check_output(cmd, code, "", str(out))
    assert failures


def test_oracle_with_a_failed_check_is_flagged():
    cmd = plan("oracle-all", 0, Path(".")).commands[0]
    stdout = "[PASS] a\n" * 22 + "[FAIL] b\n22 passed, 1 failed\n"
    for code in (2, 0):
        failures, _ = check_output(cmd, code, stdout, None)
        assert failures
