"""Config parsing and the command-line front end.

CLI runs go through main() in-process; a single subprocess checks the
python -m wiring. Small grids keep these fast while the acceptance tests
exercise the full-size defaults.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import densop
from densop import (
    BasisSpec,
    ExperimentConfig,
    Interval,
    load_config,
    map_coefficients,
    parse_config,
    save_samples,
)
from densop import config as config_module
from densop.basis import RESOLUTION
from densop.cli import (
    FIGURES,
    _estimate_table,
    _figure_table,
    _write_table,
    main,
)
from densop.config import MEMORY_LIMIT, footprint
from densop.oracles import run_suite
from densop.textio import _block_rows

# ------------------------------------------------------------- config


def test_default_config_derived_objects():
    cfg = ExperimentConfig()
    assert cfg.interval() == Interval(0.0, 3.0)
    spec = cfg.basis()
    assert spec.family == "daubechies4"
    assert spec.translate_range == (-2, 11)
    grid = cfg.curve_grid()
    assert grid.points[0] == -0.5
    assert grid.points[-1] == 3.5
    assert grid.cells == 4 * 4096
    assert np.all(cfg.operator().weights == 1.0)


def test_config_grid_cells_count_per_unit():
    cfg = ExperimentConfig(family="haar", scale_n=0, grid_cells=100)
    grid = cfg.curve_grid()
    # the haar span never extends past the interval
    assert grid.interval == Interval(0.0, 3.0)
    assert grid.cells == 300


def test_curve_grid_needs_resolution_cells_per_translate_shift():
    # at scale 2 a shift is 1/4, so 64 cells per shift is 256 per unit
    assert RESOLUTION == 64
    assert ExperimentConfig(grid_cells=256).curve_grid().cells == 4 * 256
    with pytest.raises(ValueError, match="grid_cells >= 256"):
        ExperimentConfig(grid_cells=255).curve_grid()
    # only building the grid refuses; the config itself parses
    assert ExperimentConfig(grid_cells=8).grid_cells == 8


def test_footprint_arithmetic_at_scale_20_and_30():
    # d weights and the table's G-value columns, plus the largest passing
    # temporary: a curve's basis band of 2 + 6w = 20 values per point, a
    # scatter of 1 + max(20, 2w + w(w + 1)) = 21, the sampler's N uniforms
    # and 36 values per lane of its 2**14-lane chunk, or the stacked table
    # with the writer's block; computed, never allocated
    spec = BasisSpec("daubechies4", 20, Interval(0.0, 3.0))
    d = 3 * 2 ** 20 + 2
    # the span [-2, 3 * 2**20 + 2] / 2**20 rounds to 3 * 4096 cells
    g = 3 * 4096 + 1
    assert spec.size == d
    # every command holds the weights, the grid points and one curve
    assert footprint(spec, 4096) == 8 * (d + g + 20 * g)
    assert footprint(spec, 4096) < MEMORY_LIMIT
    # fig2a's d + 2 columns are s, the d basis rows and the kernel
    # diagonal; its row is wider than a 4096-value block, so the writer's
    # block is one row
    assert _block_rows(d + 2) == 1
    assert footprint(spec, 4096, "fig2a") == 8 * (
        d + 2 * (d + 2) * g + 32 * (d + 2))
    # fig3a holds 4 columns, two d x w bands and its N samples; at N = 300
    # the scatter of the G grid points is its largest temporary
    assert footprint(spec, 4096, "fig3a", 300) == 8 * (
        d + 4 * g + 2 * d * 3 + 300 + 21 * g)
    # at N = 10**4 the sampler's uniforms and its one chunk of 10**4 lanes
    # outweigh the grid scatter
    assert footprint(spec, 4096, "fig3a", 10 ** 4) == 8 * (
        d + 4 * g + 2 * d * 3 + 10 ** 4 + 37 * 10 ** 4)
    # fig3b also holds the two curves it divides; at N = 10**6 the
    # sampler still holds one chunk, and the scatter of the samples is the
    # largest temporary
    assert footprint(spec, 4096, "fig3b", 10 ** 6) == 8 * (
        d + 6 * g + 2 * d * 3 + 10 ** 6 + 21 * 10 ** 6)
    # estimate holds 3 columns, one band and its N points; 300 points
    # scatter less than one curve holds
    assert footprint(spec, 4096, "estimate") == 8 * (
        d + 3 * g + d * 3 + 20 * g)
    assert footprint(spec, 4096, "estimate", 300) == 8 * (
        d + 3 * g + d * 3 + 300 + 20 * g)
    assert footprint(spec, 4096, "estimate", 10 ** 6) == 8 * (
        d + 3 * g + d * 3 + 10 ** 6 + 21 * 10 ** 6)
    # fig2b's 3 columns beside one curve
    assert footprint(spec, 4096, "fig2b") == footprint(spec, 4096) + 8 * 2 * g
    assert footprint(spec, 4096, "fig2a", 300) > MEMORY_LIMIT
    # the bands are linear in d, so only the basis rows pass the limit
    for command in ("fig3a", "fig3b", "estimate"):
        assert footprint(spec, 4096, command, 300) < MEMORY_LIMIT
    # Haar's basis band holds 2 + 3w = 5 values per point and its scatter
    # 1 + max(5, 2w + w(w + 1)) = 6; at 65536 cells per unit the grid
    # scatter outweighs fig3a's table and writer block
    haar = BasisSpec("haar", 20, Interval(0.0, 3.0))
    d, g = 3 * 2 ** 20, 3 * 65536 + 1
    assert footprint(haar, 65536) == 8 * (d + g + 5 * g)
    assert footprint(haar, 65536, "fig3a", 300) == 8 * (
        d + 4 * g + 2 * d + 300 + 6 * g)
    # at scale 30 the d weights alone take about 26 GB
    spec = BasisSpec("daubechies4", 30, Interval(0.0, 3.0))
    assert footprint(spec, 4096) > 8 * 3 * 2 ** 30 > 25e9 > MEMORY_LIMIT


def test_fig3_fits_the_memory_bound_at_scale_12():
    # d = 12 290 and G = 786 689: two d x d matrices would take 2.25 GiB,
    # fig3b's bands, columns, curves and grid scatter take 0.16 GiB
    cfg = ExperimentConfig(scale_n=12, grid_cells=262144)
    for figure in ("fig3a", "fig3b"):
        cfg.require_memory(figure)
    with pytest.raises(ValueError, match="fig2a at scale_n=12"):
        cfg.require_memory("fig2a")


@pytest.mark.parametrize("command", [*FIGURES, "estimate"])
@pytest.mark.parametrize("changes", [
    {}, {"family": "haar"}, {"n_samples": 20000},
    {"family": "haar", "n_samples": 20000},
], ids=["defaults", "haar", "n20000", "haar-n20000"])
def test_command_peak_is_within_its_footprint(tmp_path, command, changes):
    # tracemalloc sees numpy's allocations. The first run fills the
    # per-process caches (the cascade table, the sampler's bracket table
    # and the writer's digit tables); the second is measured.
    cfg = ExperimentConfig(**changes)
    samples = str(tmp_path / "samples.txt")
    save_samples(samples, cfg.target().sample(cfg.n_samples, 5))

    def run():
        if command == "estimate":
            names, cols = _estimate_table(samples, cfg)
        else:
            names, cols = _figure_table(command, cfg)
        _write_table(str(tmp_path / "out.csv"), names, cols)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = footprint(cfg.basis(), cfg.grid_cells, command, cfg.n_samples)
    assert peak <= need


def test_config_checks_memory_before_building_the_operator(monkeypatch):
    # the default config's shared arrays are d = 14 weights, the 16385 grid
    # points and a curve's basis band of 20 values per point: 2 752 792
    # bytes
    monkeypatch.setattr(config_module, "MEMORY_LIMIT", 2_752_791)
    with pytest.raises(ValueError, match="every command .* over the"):
        ExperimentConfig()
    monkeypatch.setattr(config_module, "MEMORY_LIMIT", 2_752_792)
    assert ExperimentConfig().scale_n == 2


def test_command_over_the_memory_limit_exits_one(tmp_path, capsys):
    # fig2a at scale 10 would hold 3074 x 393 730 basis values, 9.7 GB
    cfgpath = write_small_config(tmp_path, scale_n=10, grid_cells=131072)
    out = tmp_path / "fig2a.csv"
    assert main(["reproduce", "--figure", "fig2a",
                 "--config", str(cfgpath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fig2a at scale_n=10")
    assert "GiB limit" in err
    assert not out.exists()


def test_estimate_counts_its_sample_file_in_the_memory_bound(
        tmp_path, capsys, monkeypatch):
    # the default estimate holds 3 015 288 bytes before its samples; 100
    # samples add their 800 bytes of points, and their scatter of 100 x 21
    # values is smaller than the curve's basis band
    samples = tmp_path / "s.txt"
    samples.write_text("1.5\n" * 100)
    out = tmp_path / "est.csv"
    monkeypatch.setattr(config_module, "MEMORY_LIMIT", 3_016_088)
    assert main(["estimate", str(samples), "--out", str(out)]) == 0
    capsys.readouterr()
    out.unlink()
    monkeypatch.setattr(config_module, "MEMORY_LIMIT", 3_016_087)
    assert main(["estimate", str(samples), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: estimate at scale_n=2, N=100 samples")
    assert "GiB limit" in err
    assert not out.exists()


def test_estimate_refuses_before_parsing_its_samples(
        tmp_path, capsys, monkeypatch):
    # the bound counts the file's 100 non-blank lines; no value is parsed
    # until it passes, so the malformed last line is never reached
    samples = tmp_path / "s.txt"
    samples.write_text("1.5\n\n" * 99 + "oops\n")
    out = tmp_path / "est.csv"
    monkeypatch.setattr(config_module, "MEMORY_LIMIT", 3_016_087)
    assert main(["estimate", str(samples), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: estimate at scale_n=2, N=100 samples")
    monkeypatch.setattr(config_module, "MEMORY_LIMIT", 3_016_088)
    assert main(["estimate", str(samples), "--out", str(out)]) == 1
    assert "line 199: could not parse 'oops'" in capsys.readouterr().err
    assert not out.exists()


def test_config_serialize_parse_round_trip():
    cfg = ExperimentConfig(target_a=1.25, n_samples=77, seed=9, grid_cells=128)
    assert parse_config(cfg.serialize()) == cfg


def test_config_round_trip_with_weights():
    base = ExperimentConfig(family="haar", scale_n=1, grid_cells=64)
    weights = tuple(float(i % 3) for i in range(base.basis().size))
    cfg = base.replace(weights=weights)
    back = parse_config(cfg.serialize())
    assert back == cfg
    assert np.array_equal(back.operator().weights, weights)


def test_parse_config_merges_over_base():
    base = ExperimentConfig()
    cfg = parse_config("seed = 5\n# comment\n\nn_samples = 10\n", base=base)
    assert cfg.seed == 5
    assert cfg.n_samples == 10
    assert cfg.family == base.family


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("seed = 1\nbogus_key = 3\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config("seed = notanint\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_config("\n\nno equals sign\n")
    with pytest.raises(ValueError, match="weights"):
        parse_config("weights = 1.0,abc\n")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(grid_cells=0)
    with pytest.raises(ValueError):
        ExperimentConfig(family="symlet")
    with pytest.raises(ValueError):
        ExperimentConfig(lo=3.0, hi=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(target_a=0.0)


@pytest.mark.parametrize("weights, message", [
    ((1.0, 2.0), "one weight per"),       # haar n = 0 has 3 translates
    ((1.0, 2.0, 3.0, 4.0), "one weight per"),
    ((1.0, -2.0, 3.0), "nonnegative"),
    ((1.0, float("nan"), 3.0), "finite"),
    ((0.0, 0.0, 0.0), "all be zero"),
], ids=["short", "long", "negative", "nan", "all-zero"])
def test_config_rejects_bad_weights_at_construction(weights, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(family="haar", scale_n=0, weights=weights)
    text = "family = haar\nscale_n = 0\nweights = " + ",".join(
        str(w) for w in weights) + "\n"
    with pytest.raises(ValueError, match=message):
        parse_config(text)


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 4\ngrid_cells = 32\n")
    cfg = load_config(path)
    assert cfg.seed == 4
    assert cfg.grid_cells == 32


# ------------------------------------------------------------- reproduce


def write_small_config(tmp_path, **extra):
    # 1024 cells per unit is the coarsest power of two whose zeta
    # quadrature mass stays inside the 1e-6 embedding guard
    fields = {"grid_cells": 1024, "n_samples": 50}
    fields.update(extra)
    path = tmp_path / "small.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    return path


HEADERS = {
    "fig2b": ["s", "zeta", "wavelet_approximation"],
    "fig3a": ["s", "zeta", "embedded_exact", "embedded_map"],
    "fig3b": ["s", "zeta", "ratio_exact", "ratio_map"],
}


@pytest.mark.parametrize("figure", FIGURES)
def test_reproduce_writes_well_formed_tables(tmp_path, capsys, figure):
    cfgpath = write_small_config(tmp_path)
    out = tmp_path / f"{figure}.csv"
    rc = main(["reproduce", "--figure", figure,
               "--config", str(cfgpath), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(out)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    if figure == "fig2a":
        assert header[0] == "s"
        assert header[1] == "phi_-2"
        assert header[-1] == "kernel_diag"
        assert len(header) == 16  # s, 14 translates, diagonal
    else:
        assert header == HEADERS[figure]
    rows = 4 * 1024 + 1  # span [-0.5, 3.5] at 1024 cells per unit
    assert len(lines) == rows + 1
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (rows, len(header))
    assert np.all(np.isfinite(data))
    assert data[0, 0] == -0.5
    assert data[-1, 0] == 3.5


def test_reproduce_is_deterministic(tmp_path):
    cfgpath = write_small_config(tmp_path)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        assert main(["reproduce", "--figure", "fig3b",
                     "--config", str(cfgpath), "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_seed_override_changes_only_the_sampled_curve(tmp_path):
    cfgpath = write_small_config(tmp_path)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["reproduce", "--figure", "fig3a",
                 "--config", str(cfgpath), "--out", str(first)]) == 0
    assert main(["reproduce", "--figure", "fig3a", "--seed", "2",
                 "--config", str(cfgpath), "--out", str(second)]) == 0
    da = np.loadtxt(first, delimiter=",", skiprows=1)
    db = np.loadtxt(second, delimiter=",", skiprows=1)
    assert np.array_equal(da[:, 1], db[:, 1])
    assert np.array_equal(da[:, 2], db[:, 2])
    assert not np.array_equal(da[:, 3], db[:, 3])


def test_default_output_name(tmp_path, monkeypatch, capsys):
    cfgpath = write_small_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "--figure", "fig2b",
                 "--config", str(cfgpath)]) == 0
    assert (tmp_path / "fig2b.csv").exists()
    assert capsys.readouterr().out.strip() == "fig2b.csv"


def test_fig3a_is_identical_across_blas_thread_counts(tmp_path):
    # The curves use no BLAS call, so the thread count cannot change them.
    # The default count is the machine's core count: on a 2-core machine
    # this compares 1 thread with 2, and a wider machine compares more.
    src = str(Path(densop.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"fig3a-{threads or 'default'}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "densop", "reproduce", "--figure", "fig3a",
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_written_values_round_trip_at_full_precision(tmp_path):
    # %.17g prints enough digits that loadtxt recovers the exact doubles
    cfgpath = write_small_config(tmp_path)
    out = tmp_path / "fig2b.csv"
    assert main(["reproduce", "--figure", "fig2b",
                 "--config", str(cfgpath), "--out", str(out)]) == 0
    cfg = load_config(cfgpath)
    grid = cfg.curve_grid()
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], grid.points)
    assert np.array_equal(data[:, 1], cfg.target().density(grid.points))


def test_fig2b_haar_approximation_is_piecewise_constant(tmp_path):
    # 512 cells per unit clears the 64 * 2**n resolution floor at n = 2
    cfgpath = write_small_config(tmp_path, family="haar", scale_n=2,
                                 grid_cells=512)
    out = tmp_path / "h.csv"
    assert main(["reproduce", "--figure", "fig2b",
                 "--config", str(cfgpath), "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    s, approx = data[:, 0], data[:, 2]
    idx = np.minimum((s * 4.0).astype(int), 11)
    for k in range(12):
        mask = (idx == k) & (s < 3.0)
        assert np.ptp(approx[mask]) == 0.0


# ------------------------------------------------------------- table format

# Both zeros, the smallest subnormal and normal doubles, a decimal with no
# exact binary form, the values where %.17g switches from fixed to exponent
# notation, a 17-digit mantissa and a short dyadic fraction.
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1,
                  1.0, 1e16, 1e17, 1.2345678901234567e300, -3.0078125]


def _table_cases():
    # 388 columns is fig2a at scale_n = 7: s, 386 translates, the diagonal.
    # At that width only the block edges are checked; 49 665 rows would
    # spend seconds in np.savetxt.
    for ncols in (1, 3, 4, 388):
        b = _block_rows(ncols)
        rows = [1, b - 1, b, b + 1, 2 * b + 1]
        if ncols < 388:
            rows.append(49_665)
        for nrows in rows:
            yield ncols, nrows


@pytest.mark.parametrize("ncols,nrows", list(_table_cases()))
def test_write_table_matches_savetxt(tmp_path, ncols, nrows):
    rng = np.random.default_rng(nrows * 1000 + ncols)
    size = nrows * ncols
    # random doubles of either sign over the whole exponent range
    values = np.ldexp(rng.random(size), rng.integers(-1074, 1024, size))
    values[rng.random(size) < 0.5] *= -1
    # Cycled through the first rows: no column count here is a multiple of
    # 11, so from 11 rows on every column holds every special value.
    k = min(size, len(SPECIAL_VALUES) * ncols)
    values[:k] = np.resize(SPECIAL_VALUES, k)
    stacked = values.reshape(nrows, ncols)
    names = [f"c{j}" for j in range(ncols)]
    expected = tmp_path / "savetxt.csv"
    np.savetxt(expected, stacked, fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")
    written = tmp_path / "table.csv"
    _write_table(str(written), names, list(stacked.T))
    assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command", ["reproduce", "estimate"])
def test_unwritable_out_path_exits_one(tmp_path, capsys, command):
    cfgpath = write_small_config(tmp_path)
    out = tmp_path / "missing" / "table.csv"
    if command == "reproduce":
        argv = ["reproduce", "--figure", "fig2b"]
    else:
        samples = tmp_path / "s.txt"
        samples.write_text("1.0\n1.5\n2.0\n")
        argv = ["estimate", str(samples)]
    assert main(argv + ["--config", str(cfgpath), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert str(out) in captured.err
    assert not out.parent.exists()


def _refuse_to_build(*args):
    raise AssertionError("the table was built for an unusable --out")


@pytest.mark.parametrize("kind", ["missing directory", "file as directory",
                                  "out is a directory"])
@pytest.mark.parametrize("command", ["reproduce", "estimate"])
def test_unusable_out_path_fails_before_the_table_is_built(
        tmp_path, capsys, monkeypatch, command, kind):
    monkeypatch.setattr("densop.cli._figure_table", _refuse_to_build)
    monkeypatch.setattr("densop.cli._estimate_table", _refuse_to_build)
    if kind == "missing directory":
        out = tmp_path / "missing" / "table.csv"
    elif kind == "file as directory":
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "table.csv"
    else:
        out = tmp_path
    if command == "reproduce":
        argv = ["reproduce", "--figure", "fig2a"]
    else:
        samples = tmp_path / "s.txt"
        samples.write_text("1.0\n")
        argv = ["estimate", str(samples)]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert str(out) in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_read_only_out_directory_fails_before_the_table_is_built(
        tmp_path, capsys, monkeypatch):
    # os.access stands in for directory permissions, which root bypasses
    monkeypatch.setattr("densop.cli._figure_table", _refuse_to_build)
    monkeypatch.setattr("densop.cli.os.access", lambda path, mode: False)
    out = tmp_path / "fig2a.csv"
    assert main(["reproduce", "--figure", "fig2a", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err
    assert "not writable" in err
    assert not out.exists()


# ------------------------------------------------------------- estimate


def test_estimate_single_bin_profile(tmp_path):
    cfgpath = write_small_config(tmp_path, family="haar", scale_n=2,
                                 grid_cells=300)
    samples = tmp_path / "s.txt"
    samples.write_text("1.01\n1.05\n1.2\n1.24\n")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(samples),
                 "--config", str(cfgpath), "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    s, mapped, ratio = data.T
    inside = (s >= 1.0) & (s < 1.25)
    assert np.all(mapped[inside] == 4.0)
    assert np.all(mapped[~inside] == 0.0)
    # the haar diagonal is flat, so the ratio is the map renormalized
    mass = np.trapezoid(mapped, s)
    assert_allclose(ratio, mapped / mass, rtol=1e-12, atol=1e-15)


def test_estimate_rejects_empty_file(tmp_path, capsys):
    cfgpath = write_small_config(tmp_path)
    samples = tmp_path / "empty.txt"
    samples.write_text("")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(samples),
                 "--config", str(cfgpath), "--out", str(out)]) == 1
    assert "empty" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_rejects_out_of_interval_samples(tmp_path, capsys):
    cfgpath = write_small_config(tmp_path)
    samples = tmp_path / "s.txt"
    samples.write_text("1.0\n4.2\n")
    assert main(["estimate", str(samples), "--config", str(cfgpath),
                 "--out", str(tmp_path / "est.csv")]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "outside" in err


def test_out_of_interval_sample_names_its_file_line(tmp_path, capsys):
    # blank lines are skipped but still counted: 4.2 is on line 4
    cfgpath = write_small_config(tmp_path)
    samples = tmp_path / "s.txt"
    samples.write_text("1.0\n\n\n4.2\n")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(samples), "--config", str(cfgpath),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "sample 4.2 on line 4 lies outside [0, 3]" in err
    assert not out.exists()


def test_estimate_rejects_malformed_lines(tmp_path, capsys):
    cfgpath = write_small_config(tmp_path)
    samples = tmp_path / "s.txt"
    samples.write_text("1.0\nnot-a-number\n")
    assert main(["estimate", str(samples), "--config", str(cfgpath),
                 "--out", str(tmp_path / "est.csv")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_estimate_with_no_sample_in_any_support_exits_one(tmp_path, capsys):
    # both samples sit at the interval's right end, outside every half-open
    # Haar box, so the sample trace is 0 and no curve exists
    cfgpath = write_small_config(tmp_path, family="haar", scale_n=2)
    samples = tmp_path / "edge.txt"
    samples.write_text("3\n3\n")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(samples),
                 "--config", str(cfgpath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "outside the support" in err
    assert "trace vanishes" in err
    assert not out.exists()


def test_estimate_missing_file(tmp_path, capsys):
    cfgpath = write_small_config(tmp_path)
    assert main(["estimate", str(tmp_path / "nope.txt"),
                 "--config", str(cfgpath)]) == 1
    assert capsys.readouterr().err.startswith("error:")


# A resolved grid has at least RESOLUTION cells per translate shift, so a
# Haar box gains or loses at most one cell: 1/RESOLUTION of its mass. The
# Daubechies-4 curves stay within 2e-3 of their mass at that resolution.
EMBEDDED_MASS_BOUND = 1.0 / RESOLUTION

# one line of a sample file: a point inside [0, 3], an interval endpoint,
# a non-finite or out-of-interval value, or a blank line
SAMPLE_LINES = st.one_of(
    st.floats(min_value=0.0, max_value=3.0).map(repr),
    st.sampled_from(["0", "3", "0.0", "3.0", "1.5", "nan", "inf", "-inf",
                     "-0.5", "3.5", "1e300", "", "   "]),
)


@settings(deadline=None, max_examples=30)
@given(family=st.sampled_from(["haar", "daubechies4"]),
       scale_n=st.integers(min_value=0, max_value=3),
       grid_cells=st.integers(min_value=8, max_value=2048),
       lines=st.lists(SAMPLE_LINES, max_size=12),
       repeat=st.booleans())
def test_estimate_has_exactly_two_outcomes(tmp_path_factory, family, scale_n,
                                           grid_cells, lines, repeat):
    # either exit 0 with a finite, nonnegative table whose ratio has unit
    # trapezoid mass, or exit 1 with a message and no output file
    tmp = tmp_path_factory.mktemp("contract")
    cfgpath = write_small_config(tmp, family=family, scale_n=scale_n,
                                 grid_cells=grid_cells)
    samples = tmp / "s.txt"
    samples.write_text("\n".join(lines * (2 if repeat else 1)) + "\n")
    out = tmp / "est.csv"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["estimate", str(samples), "--config", str(cfgpath),
                     "--out", str(out)])
    if code == 0:
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(data))
        s, mapped, ratio = data.T
        assert np.all(mapped >= 0.0) and np.all(ratio >= 0.0)
        assert abs(np.trapezoid(ratio, s) - 1.0) <= 1e-12
        assert abs(np.trapezoid(mapped, s) - 1.0) <= EMBEDDED_MASS_BOUND
    else:
        assert code == 1
        assert err.getvalue().startswith("error:"), err.getvalue()
        assert not out.exists()


def _is_density(name):
    return name in ("zeta", "kernel_diag") or name.startswith(
        ("embedded_", "ratio_"))


@settings(deadline=None, max_examples=60)
@given(figure=st.sampled_from(FIGURES),
       family=st.sampled_from(["haar", "daubechies4"]),
       scale_n=st.integers(min_value=0, max_value=3),
       grid_cells=st.integers(min_value=8, max_value=2048),
       projection=st.booleans(),
       data=st.data())
def test_reproduce_has_exactly_two_outcomes(tmp_path_factory, figure, family,
                                            scale_n, grid_cells, projection,
                                            data):
    # either exit 0 with a finite table whose density columns are
    # nonnegative and whose ratio columns have unit trapezoid mass, or exit
    # 1 with a message and no output file
    tmp = tmp_path_factory.mktemp("contract")
    size = BasisSpec(family, scale_n, Interval(0.0, 3.0)).size
    weights = "projection" if projection else ",".join(map(repr, data.draw(
        st.lists(st.sampled_from([0.0, 1e-3, 0.25, 1.0, 3.0, 17.5]),
                 min_size=size, max_size=size), label="weights")))
    cfgpath = write_small_config(tmp, family=family, scale_n=scale_n,
                                 grid_cells=grid_cells, weights=weights)
    out = tmp / "table.csv"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["reproduce", "--figure", figure,
                     "--config", str(cfgpath), "--out", str(out)])
    if code != 0:
        assert code == 1
        assert err.getvalue().startswith("error:"), err.getvalue()
        assert not out.exists()
        return
    names = out.read_text().splitlines()[0].split(",")
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert np.all(np.isfinite(table))
    s = table[:, 0]
    for name, column in zip(names, table.T):
        if _is_density(name):
            assert np.all(column >= 0.0), name
        if name.startswith("ratio_"):
            assert abs(np.trapezoid(column, s) - 1.0) <= 1e-12, name
    if figure == "fig3a":
        # a weighted curve integrates to sum a^4 M_jj / sum a^2 M_jj
        cfg = load_config(cfgpath)
        m = np.diagonal(map_coefficients(
            cfg.target().sample(cfg.n_samples, cfg.seed), cfg.basis()).matrix)
        a2 = cfg.operator().squared_weights
        expect = np.sum(a2 * a2 * m) / np.sum(a2 * m)
        mass = np.trapezoid(table[:, names.index("embedded_map")], s)
        assert abs(mass / expect - 1.0) <= EMBEDDED_MASS_BOUND


def test_grids_too_coarse_for_the_translates_exit_one(tmp_path, capsys):
    # Both once exited 0: the estimate with a 25-row table of mass 0.577,
    # fig3a with curves of mass 1.17 and 1.15.
    samples = tmp_path / "s.txt"
    points = ExperimentConfig().target().sample(300, seed=3).points
    samples.write_text("".join(f"{v:.17g}\n" for v in points))
    coarse = write_small_config(tmp_path, scale_n=7, grid_cells=8)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(samples), "--config", str(coarse),
                 "--out", str(out)]) == 1
    assert "grid_cells >= 8192" in capsys.readouterr().err
    assert not out.exists()
    scale10 = tmp_path / "scale10.cfg"
    scale10.write_text("scale_n = 10\n")
    out = tmp_path / "fig3a.csv"
    assert main(["reproduce", "--figure", "fig3a", "--config", str(scale10),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grid_cells >= 65536" in err
    assert not out.exists()


def test_fig3_quadrature_refusal_names_grid_cells(tmp_path, capsys):
    # 512 cells per unit resolve the scale-2 translates, but the trapezoid
    # mass of Beta(2, 5) there is off by 1.1e-6; 768 is fine
    for figure in ("fig3a", "fig3b"):
        cfgpath = write_small_config(tmp_path, grid_cells=512)
        out = tmp_path / f"{figure}.csv"
        assert main(["reproduce", "--figure", figure, "--config",
                     str(cfgpath), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "grid_cells=512" in err and "finer grid" in err
        assert not out.exists()
    cfgpath = write_small_config(tmp_path, grid_cells=768)
    assert main(["reproduce", "--figure", "fig3a", "--config", str(cfgpath),
                 "--out", str(tmp_path / "fig3a.csv")]) == 0


# ------------------------------------------------------------- exit codes


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["reproduce"]) == 1
    assert main(["reproduce", "--figure", "fig9"]) == 1
    assert main(["oracle", "--suite", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "reproduce" in capsys.readouterr().out


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("family = symlet\n")
    assert main(["reproduce", "--figure", "fig2a", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.cfg"
    assert main(["reproduce", "--figure", "fig2a",
                 "--config", str(missing)]) == 1


# ------------------------------------------------------------- oracles


def test_oracle_command_reports_pass_lines(capsys):
    assert main(["oracle", "--suite", "discrete"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert out.strip().splitlines()[-1].endswith("0 failed")


ORACLE_CHECKS = [
    "born-rule basis invariance",
    "ensemble round-trip",
    "born probabilities sum to 1",
    "spectrum preserved by basis change",
    "tap-4 refinement residual",
    "partition of unity",
    "integer values solve the refinement matrix",
    "unit integral (Riemann sum)",
    "interior gram identity (daubechies4 n=2)",
    "haar gram identity (dyadic-aligned grid)",
    "haar kernel block values",
    "mercer positivity of the kernel",
    "kernel symmetry",
    "projection kernel idempotence (K o K = K)",
    "haar trace against a density equals 4",
    "haar trace over samples equals 4",
    "coordinate invariance of the posterior",
    "haar map density equals the histogram",
    "map coefficient matrix is psd",
    "map coefficient trace equals the sample trace",
    "exact embedded density has unit mass",
    "map embedded density has unit mass",
    "map error ratio across two decades (expect ~10)",
]


def test_run_suite_all_green():
    results = run_suite("all")
    assert [r.name for r in results] == ORACLE_CHECKS
    assert all(r.passed for r in results)
    # the tolerance is printed with at most 3 significant digits
    pattern = re.compile(
        r"\[PASS\] .+: residual \d\.\d{3}e[+-]\d{2,3} "
        r"\(tolerance ((\d+(?:\.\d+)?)(?:e[+-]\d{2,3})?)\)"
    )
    for r in results:
        match = pattern.fullmatch(r.line())
        assert match, r.line()
        assert len(match[2].replace(".", "").lstrip("0")) <= 3, r.line()
        assert abs(float(match[1]) - r.tolerance) <= 5e-3 * r.tolerance, \
            r.line()


def test_every_exported_name_resolves():
    assert densop.__all__
    assert [name for name in densop.__all__ if not hasattr(densop, name)] == []


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "densop", "oracle", "--suite", "discrete"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout
