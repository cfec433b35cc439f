"""Config parsing and the command-line front end.

CLI runs go through main() in-process; a single subprocess checks the
python -m wiring. Small grids keep these fast while the acceptance tests
exercise the full-size defaults.
"""

import contextlib
import dataclasses
import importlib.util
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

import densop
from densop import (
    BasisSpec,
    ExperimentConfig,
    Interval,
    load_config,
    parse_config,
)
from densop import cli as cli_module
from densop.basis import RESOLUTION
from densop.cli import (
    COMMANDS,
    FIGURES,
    MEMORY_LIMIT,
    PASS_BYTES,
    _estimate_table,
    _figure_table,
    footprint,
    main,
    require_memory,
)
from densop import oracles
from densop.learn import SampleSet
from densop.oracles import run_suite
from densop.target import BetaTarget
from densop.textio import _block_rows, require_writable, write_table

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
    # d weights and the held arrays, plus the larger of 4 values per grid
    # point and the N samples' uniforms or weights, plus one block of work;
    # computed, never allocated
    spec = BasisSpec("daubechies4", 20, Interval(0.0, 3.0))
    d = 3 * 2 ** 20 + 2
    # the span [-2, 3 * 2**20 + 2] / 2**20 rounds to 3 * 4096 cells
    g = 3 * 4096 + 1
    assert spec.size == d
    assert PASS_BYTES == 5 * 2 ** 20
    # fig2a holds s, the d basis rows and the kernel diagonal, and writes
    # them as they are, with no stacked copy
    assert footprint(spec, 4096, "fig2a") == 8 * (
        d + (d + 2) * g + 4 * g) + PASS_BYTES > MEMORY_LIMIT
    # fig3a holds 4 columns, two d x w bands and its N samples; at N = 300
    # the 4 values per grid point outweigh the samples
    assert footprint(spec, 4096, "fig3a", 300) == 8 * (
        d + 4 * g + 2 * d * 3 + 300 + 4 * g) + PASS_BYTES
    # fig3b also holds the two curves it divides; at N = 10**6 the
    # samples' uniforms or scatter weights outweigh 4 values per grid point
    assert footprint(spec, 4096, "fig3b", 10 ** 6) == 8 * (
        d + 6 * g + 2 * d * 3 + 10 ** 6 + 10 ** 6) + PASS_BYTES
    # estimate holds 3 columns, one band and its N points
    assert footprint(spec, 4096, "estimate", 300) == 8 * (
        d + 3 * g + d * 3 + 300 + 4 * g) + PASS_BYTES
    # fig2b holds no samples
    assert footprint(spec, 4096, "fig2b", 10 ** 6) == 8 * (
        d + 3 * g + 4 * g) + PASS_BYTES
    # the bands are linear in d, so only the basis rows pass the limit
    for command in ("fig3a", "fig3b", "estimate"):
        assert footprint(spec, 4096, command, 300) < MEMORY_LIMIT
    # at scale 30 the d weights alone take about 26 GB, whatever command
    spec = BasisSpec("daubechies4", 30, Interval(0.0, 3.0))
    for command in COMMANDS:
        assert footprint(spec, 4096, command) > 8 * 3 * 2 ** 30 > 25e9
    # a cell count past the largest double counts as infinite
    spec = BasisSpec("haar", 0, Interval(-1e308, 3.0))
    assert footprint(spec, 4096, "fig2b") == math.inf
    # so do d + 2 columns of G values past it, once an int that could not
    # be divided into GiB
    for lo, hi in ((-1e200, 1e200), (1e300, 1.0000000000000002e300)):
        spec = BasisSpec("haar", 0, Interval(lo, hi))
        assert footprint(spec, 4096, "fig2a") == math.inf


def test_fig3_fits_the_memory_bound_at_scale_12():
    # d = 12 290 and G = 786 689: two d x d matrices would take 2.25 GiB,
    # fig3b's bands, columns, curves and passing arrays take 0.064 GiB
    cfg = ExperimentConfig(scale_n=12, grid_cells=262144)
    for figure in ("fig3a", "fig3b"):
        require_memory(cfg, figure, cfg.n_samples)
    with pytest.raises(ValueError, match="fig2a at scale_n=12"):
        require_memory(cfg, "fig2a", cfg.n_samples)


@pytest.mark.parametrize("command", [*FIGURES, "estimate"])
@pytest.mark.parametrize("changes", [
    {}, {"family": "haar"}, {"n_samples": 20000},
    {"family": "haar", "n_samples": 20000}, {"scale_n": 5},
], ids=["defaults", "haar", "n20000", "haar-n20000", "scale5"])
def test_command_peak_is_within_its_footprint(tmp_path, command, changes):
    # tracemalloc sees numpy's allocations. The first run fills the
    # per-process caches (the cascade table, the sampler's bracket table
    # and the writer's digit tables); the second is measured. At scale 5,
    # fig2a's 100 x G table is 10 MB: a stacked copy of it would exceed
    # the count, which allows one block of work and 4 values per grid point.
    cfg = ExperimentConfig(**changes)
    samples = str(tmp_path / "samples.txt")
    write_table(samples, (), [cfg.target().sample(cfg.n_samples, 5).points])

    def run():
        if command == "estimate":
            names, cols = _estimate_table(samples, cfg)
        else:
            names, cols = _figure_table(command, cfg)
        write_table(str(tmp_path / "out.csv"), names, cols)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = footprint(cfg.basis(), cfg.grid_cells, command, cfg.n_samples)
    assert peak <= need


def test_config_builds_nothing_of_size_d_and_the_command_checks_memory(
        tmp_path, capsys):
    # at scale 40 the d = 3 * 2**40 + 2 projection weights alone would take
    # 26 TB; the config holds none of them, and fig3a refuses to run
    ExperimentConfig(scale_n=40)
    tracemalloc.start()
    try:
        cfg = ExperimentConfig(scale_n=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.basis().size == 3 * 2 ** 40 + 2
    assert peak < 64 * 2 ** 10
    cfgpath = tmp_path / "scale40.cfg"
    cfgpath.write_text("scale_n = 40\n")
    out = tmp_path / "fig3a.csv"
    assert main(["reproduce", "--figure", "fig3a", "--config", str(cfgpath),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fig3a at scale_n=40, N=300 samples")
    assert "GiB limit" in err
    assert not out.exists()


@pytest.mark.parametrize("figure", ["fig3a", "fig3b"])
def test_sample_count_past_the_doubles_exits_one(tmp_path, capsys, figure):
    # the count once came out an int too large to divide into GiB, and the
    # command ended in an OverflowError traceback
    cfgpath = write_small_config(tmp_path, n_samples=10 ** 400)
    out = tmp_path / "table.csv"
    assert main(["reproduce", "--figure", figure, "--config", str(cfgpath),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {figure} at scale_n=2, N=10^400.0 samples and "
        f"grid_cells=1024 needs inf GiB of arrays, over the 1 GiB limit\n")
    assert not out.exists()


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
    # the default estimate holds 6 160 888 bytes before its samples; 100
    # samples add their 800 bytes of points, and their 100 weights are
    # fewer than the 4 values per grid point that pass beside them
    samples = tmp_path / "s.txt"
    samples.write_text("1.5\n" * 100)
    out = tmp_path / "est.csv"
    monkeypatch.setattr(cli_module, "MEMORY_LIMIT", 6_161_688)
    assert main(["estimate", str(samples), "--out", str(out)]) == 0
    capsys.readouterr()
    out.unlink()
    monkeypatch.setattr(cli_module, "MEMORY_LIMIT", 6_161_687)
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
    monkeypatch.setattr(cli_module, "MEMORY_LIMIT", 6_161_687)
    assert main(["estimate", str(samples), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: estimate at scale_n=2, N=100 samples")
    monkeypatch.setattr(cli_module, "MEMORY_LIMIT", 6_161_688)
    assert main(["estimate", str(samples), "--out", str(out)]) == 1
    assert "line 199: could not parse 'oops'" in capsys.readouterr().err
    assert not out.exists()


def test_config_serialize_parse_round_trip():
    cfg = ExperimentConfig(target_a=1.25, n_samples=77, seed=9, grid_cells=128)
    assert parse_config(cfg.serialize()) == cfg


def test_config_round_trip_with_weights():
    base = ExperimentConfig(family="haar", scale_n=1, grid_cells=64)
    weights = tuple(float(i % 3) for i in range(base.basis().size))
    cfg = dataclasses.replace(base, weights=weights)
    back = parse_config(cfg.serialize())
    assert back == cfg
    assert np.array_equal(back.operator().weights, weights)


def test_parse_config_merges_over_base():
    # the base is the defaults: omitted keys keep them
    cfg = parse_config("seed = 5\n# comment\n\nn_samples = 10\n")
    assert cfg.seed == 5
    assert cfg.n_samples == 10
    assert cfg == ExperimentConfig(seed=5, n_samples=10)


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("seed = 1\nbogus_key = 3\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config("seed = notanint\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_config("\n\nno equals sign\n")
    with pytest.raises(ValueError, match="weights"):
        parse_config("weights = 1.0,abc\n")


@pytest.mark.parametrize("breaker", ["\f", "\v", "\x1c", "\x85", "\u2028",
                                     "\u2029"])
def test_config_lines_end_at_newline_alone(tmp_path, breaker):
    # str.splitlines also breaks at these, and used to name line 3 here
    text = f"seed = 2{breaker}\nbogus = 1\n"
    with pytest.raises(ValueError, match="^line 2: unknown config key"):
        parse_config(text)
    path = tmp_path / "breaker.cfg"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: line 2: unknown"):
        load_config(path)


@pytest.mark.parametrize("text, message", [
    ("seed = 1\nbogus = 3\n", "line 2: unknown config key 'bogus'"),
    ("seed = notanint\n", "line 1: bad value 'notanint' for key 'seed'"),
    ("seed = 1\n\nseed = 2\n",
     "line 3: config key 'seed' is already set on line 1"),
    ("\n\nno equals sign\n", "line 3: expected 'key = value'"),
    ("n_samples = 0\n", "n_samples must be >= 1, got 0"),
    ("scale_n = 2\nweights = 1,abc\n",
     "line 2: bad value '1,abc' for key 'weights'"),
], ids=["unknown-key", "bad-value", "set-twice", "no-equals", "invalid",
        "bad-weights"])
def test_load_config_errors_name_the_file(tmp_path, capsys, text, message):
    # parse_config names the line; load_config adds the file, once
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        parse_config(text)
    with pytest.raises(ValueError) as raised:
        load_config(path)
    assert str(raised.value).startswith(f"{path}: {message}")
    assert str(raised.value).count(str(path)) == 1
    out = tmp_path / "fig2b.csv"
    assert main(["reproduce", "--figure", "fig2b", "--config", str(path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not out.exists()


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
    ((1e200, 1.0, 1.0), "weight 1e\\+200 is over 5.96e\\+153"),
], ids=["short", "long", "negative", "nan", "all-zero", "square-overflows"])
def test_config_rejects_bad_weights_at_construction(weights, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(family="haar", scale_n=0, weights=weights)
    text = "family = haar\nscale_n = 0\nweights = " + ",".join(
        str(w) for w in weights) + "\n"
    with pytest.raises(ValueError, match=message):
        parse_config(text)


def test_config_key_set_twice_is_refused_naming_both_lines(tmp_path, capsys):
    # the last value used to win silently: scale_n = 3 here
    cfgpath = tmp_path / "twice.cfg"
    cfgpath.write_text("scale_n = 2\n# finer\n\nscale_n = 3\n")
    out = tmp_path / "fig2b.csv"
    assert main(["reproduce", "--figure", "fig2b", "--config", str(cfgpath),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfgpath}: line 4: config key 'scale_n' is already set on "
        f"line 1\n")
    assert not out.exists()
    with pytest.raises(ValueError, match="key 'weights' is already set on "
                                         "line 2"):
        parse_config("family = haar\nweights = projection\n"
                     "weights = 1,1,1,1,1,1,1,1,1,1,1,1\n")


def test_out_is_not_a_config_key(tmp_path, capsys):
    # the output path is --out alone
    cfgpath = tmp_path / "out.cfg"
    cfgpath.write_text("out = x\n")
    out = tmp_path / "fig2b.csv"
    assert main(["reproduce", "--figure", "fig2b", "--config", str(cfgpath),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfgpath}: line 1: unknown config key 'out'\n")
    assert not out.exists()


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
    printed = capsys.readouterr()
    assert printed.err.strip() == str(out) and printed.out == ""
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
    printed = capsys.readouterr()
    assert printed.err.strip() == "fig2b.csv" and printed.out == ""


def test_a_table_sent_to_stdout_is_whole(tmp_path):
    # The path goes to stderr: a table written to /dev/stdout and
    # redirected to a file is the table that --out writes.
    cfgpath = write_small_config(tmp_path)
    out = tmp_path / "fig2b.csv"
    assert main(["reproduce", "--figure", "fig2b",
                 "--config", str(cfgpath), "--out", str(out)]) == 0
    src = str(Path(densop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    redirected = tmp_path / "stdout.csv"
    with open(redirected, "wb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "densop", "reproduce", "--figure", "fig2b",
             "--config", str(cfgpath), "--out", "/dev/stdout"],
            stdout=fh, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "/dev/stdout\n"
    assert redirected.read_bytes() == out.read_bytes()


def test_a_table_appended_to_stdout_keeps_what_the_file_held(tmp_path):
    # `>> file` onto --out /dev/stdout: the table follows the line the file
    # held, and a write that fails midway leaves the file as it was. The
    # writer once reopened /dev/stdout with "wb", which dropped that line.
    cfgpath = write_small_config(tmp_path)
    out = tmp_path / "fig2b.csv"
    assert main(["reproduce", "--figure", "fig2b",
                 "--config", str(cfgpath), "--out", str(out)]) == 0
    src = str(Path(densop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    appended = tmp_path / "appended.csv"
    appended.write_bytes(b"KEEP\n")
    with open(appended, "ab") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "densop", "reproduce", "--figure", "fig2b",
             "--config", str(cfgpath), "--out", "/dev/stdout"],
            stdout=fh, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert appended.read_bytes() == b"KEEP\n" + out.read_bytes()
    # a full disk on the second block of rows, after the first is written
    fail_midway = (
        "import numpy as np\n"
        "from densop import textio\n"
        "slots, calls = textio._slots, []\n"
        "def fail_on_second_block(*args):\n"
        "    calls.append(1)\n"
        "    if len(calls) == 2:\n"
        "        raise OSError(28, 'No space left on device')\n"
        "    return slots(*args)\n"
        "textio._slots = fail_on_second_block\n"
        "textio.write_table('/dev/stdout', ['s'],\n"
        "                   [np.ones(2 * textio._block_rows(1))])\n")
    with open(appended, "ab") as fh:
        proc = subprocess.run([sys.executable, "-c", fail_midway], stdout=fh,
                              stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 1 and "No space left on device" in proc.stderr
    assert appended.read_bytes() == b"KEEP\n" + out.read_bytes()


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
    # 1024 cells per unit clears the 64 * 2**n resolution floor at n = 2
    # and the unit-mass rule for zeta
    cfgpath = write_small_config(tmp_path, family="haar", scale_n=2)
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
    write_table(str(written), names, list(stacked.T))
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
                                  "out is a directory", "empty path",
                                  "ends in a separator"])
@pytest.mark.parametrize("command", ["reproduce", "estimate"])
def test_unusable_out_path_fails_before_the_table_is_built(
        tmp_path, capsys, monkeypatch, command, kind):
    monkeypatch.setattr("densop.cli._figure_table", _refuse_to_build)
    monkeypatch.setattr("densop.cli._estimate_table", _refuse_to_build)
    # an empty --out must not fall back to the default name in the cwd
    monkeypatch.chdir(tmp_path)
    if kind == "missing directory":
        out = tmp_path / "missing" / "table.csv"
    elif kind == "file as directory":
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "table.csv"
    elif kind == "empty path":
        out = ""
    elif kind == "ends in a separator":
        # the directory it names does not exist; abspath drops the slash
        out = str(tmp_path / "missing") + os.sep
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
    assert (str(out) or "''") in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_read_only_out_directory_fails_before_the_table_is_built(
        tmp_path, capsys, monkeypatch):
    # os.access stands in for directory permissions, which root bypasses
    monkeypatch.setattr("densop.cli._figure_table", _refuse_to_build)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    out = tmp_path / "fig2a.csv"
    assert main(["reproduce", "--figure", "fig2a", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err
    assert "not writable" in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["/dev/stdout", "/dev/null"])
def test_device_out_needs_no_writable_directory(tmp_path, capfd, monkeypatch,
                                                out):
    # os.access stands in for a user who may not write /dev: every
    # directory is refused, and a device needs only its own permission
    cfgpath = write_small_config(tmp_path)
    table = tmp_path / "fig2b.csv"
    assert main(["reproduce", "--figure", "fig2b",
                 "--config", str(cfgpath), "--out", str(table)]) == 0
    capfd.readouterr()
    monkeypatch.setattr(os, "access", lambda path, mode: not os.path.isdir(path))
    assert main(["reproduce", "--figure", "fig2b",
                 "--config", str(cfgpath), "--out", out]) == 0
    captured = capfd.readouterr()
    assert captured.err == f"{out}\n"
    assert captured.out == (table.read_text() if out == "/dev/stdout" else "")


def test_read_only_out_file_fails_before_the_table_is_built(
        tmp_path, capsys, monkeypatch):
    # os.access stands in for file permissions, which root bypasses: the
    # directory may be written, the file may not
    monkeypatch.setattr("densop.cli._figure_table", _refuse_to_build)
    out = tmp_path / "fig2a.csv"
    out.write_text("KEEP\n")
    out.chmod(0o444)
    monkeypatch.setattr(os, "access", lambda path, mode: os.path.isdir(path))
    assert main(["reproduce", "--figure", "fig2a", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: it is not writable\n")
    assert out.read_text() == "KEEP\n"


def test_a_pipe_needs_only_its_own_permission(tmp_path, monkeypatch):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(os, "access", lambda path, mode: not os.path.isdir(path))
    require_writable(str(fifo))
    monkeypatch.setattr(os, "access", lambda path, mode: os.path.isdir(path))
    with pytest.raises(ValueError, match="it is not writable$"):
        require_writable(str(fifo))


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


@pytest.mark.parametrize("kind", ["samples", "config"])
def test_bytes_that_are_not_utf8_are_refused_naming_file_and_line(
        tmp_path, capsys, kind):
    # both used to exit 1 with a bare "'utf-8' codec can't decode byte"
    samples = tmp_path / "s.txt"
    cfgpath = write_small_config(tmp_path)
    if kind == "samples":
        bad, line = samples, 2
        samples.write_bytes(b"0.5\n1.\xe9\n")
    else:
        bad, line = cfgpath, 3
        write_table(samples, (), [np.array([0.5, 1.0])])
        cfgpath.write_bytes(b"grid_cells = 1024\n\n# caf\xe9 au lait\n")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(samples), "--config", str(cfgpath),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line {line} holds bytes that are not UTF-8 text\n")
    assert not out.exists()


def test_estimate_rejects_malformed_lines(tmp_path, capsys):
    cfgpath = write_small_config(tmp_path)
    samples = tmp_path / "s.txt"
    samples.write_text("1.0\nnot-a-number\n")
    assert main(["estimate", str(samples), "--config", str(cfgpath),
                 "--out", str(tmp_path / "est.csv")]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_estimate_refuses_a_non_finite_sample_naming_its_line(tmp_path, capsys,
                                                              text):
    # nan passed the interval test and exited with only "sample points must
    # be finite", naming neither file nor line
    cfgpath = write_small_config(tmp_path)
    samples = tmp_path / "s.txt"
    samples.write_text(f"1.0\n\n{text}\n")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(samples), "--config", str(cfgpath),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {samples}: line 3: could not parse '{text}' as a finite "
        f"number\n")
    assert not out.exists()


def test_estimate_with_no_sample_in_any_support_exits_one(tmp_path, capsys):
    # both samples sit in the first Haar box, whose weight is 0, so the
    # sample trace is 0 and no curve exists
    weights = ",".join(["0"] + ["1"] * 11)
    cfgpath = write_small_config(tmp_path, family="haar", scale_n=2,
                                 weights=weights)
    samples = tmp_path / "box0.txt"
    samples.write_text("0.1\n0.2\n")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(samples),
                 "--config", str(cfgpath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "outside the support" in err
    assert "trace vanishes" in err
    assert not out.exists()


@pytest.mark.parametrize("text, count", [("3\n1\n", 1), ("3\n3\n", 2)],
                         ids=["beside-1", "alone"])
def test_haar_estimate_refuses_a_sample_at_a_lattice_hi(tmp_path, capsys,
                                                        text, count):
    # no half-open Haar box holds hi = 3 = 12 * 2**-2: beside 1 such a
    # sample was dropped, and alone it left no sample trace
    cfgpath = write_small_config(tmp_path, family="haar", scale_n=2)
    samples = tmp_path / "edge.txt"
    samples.write_text(text)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(samples),
                 "--config", str(cfgpath), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {samples}: {count} sample(s) equal hi = 3, which no Haar "
        f"box holds: the boxes are half-open, [k/2^n, (k+1)/2^n), and hi "
        f"is a box edge at scale_n = 2\n")
    assert not out.exists()


def test_daubechies4_estimate_counts_a_sample_at_hi(tmp_path):
    # a Daubechies-4 translate is nonzero at hi, so the sample moves the map
    cfgpath = write_small_config(tmp_path)
    maps = []
    for text in ("3\n1\n", "1\n"):
        samples = tmp_path / "s.txt"
        samples.write_text(text)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(samples),
                     "--config", str(cfgpath), "--out", str(out)]) == 0
        maps.append(np.loadtxt(out, delimiter=",", skiprows=1)[:, 1])
    assert not np.array_equal(*maps)


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


# Each config draws up to three of its keys from wide ranges: target
# shapes log-uniform in [1e-3, 1e300], weights up to 1e200, lo and hi up
# to +-1e308, scale_n up to 60 and grid_cells up to 10**400. The other
# keys come from narrow ranges around the defaults, so that many configs
# run to a table.
SHAPES = st.floats(min_value=-3.0, max_value=300.0).map(lambda e: 10.0 ** e)
BOUNDS = st.floats(min_value=-1e308, max_value=1e308)
WIDE = {
    "interval": st.tuples(BOUNDS, BOUNDS),
    "scale_n": st.integers(min_value=0, max_value=60),
    "grid_cells": st.integers(min_value=0, max_value=10 ** 400),
    "target_a": SHAPES,
    "target_b": SHAPES,
    "weight": st.floats(min_value=0.0, max_value=1e200),
}
NARROW = {
    "interval": st.just((0.0, 3.0)),
    "scale_n": st.integers(min_value=0, max_value=3),
    "grid_cells": st.integers(min_value=8, max_value=2048),
    "target_a": st.sampled_from([0.5, 1.0, 2.0, 5.0]),
    "target_b": st.sampled_from([0.5, 1.0, 2.0, 5.0]),
    "weight": st.sampled_from([0.0, 1e-3, 0.25, 1.0, 3.0, 17.5]),
}
# the most weights drawn one by one; a wider family takes the projection
MAX_DRAWN_WEIGHTS = 64
# A config that the memory rule admits runs the same code at any size,
# but one whose footprint is over this takes seconds; such configs are
# left to the footprint tests above.
CONTRACT_BYTES = 2 ** 24


@st.composite
def wide_configs(draw):
    wide = draw(st.sets(st.sampled_from(sorted(WIDE)), max_size=3))

    def pick(key):
        return (WIDE if key in wide else NARROW)[key]

    lo, hi = draw(pick("interval"))
    family = draw(st.sampled_from(["haar", "daubechies4"]))
    scale_n = draw(pick("scale_n"))
    fields = {"lo": repr(lo), "hi": repr(hi), "family": family,
              "scale_n": scale_n, "grid_cells": draw(pick("grid_cells")),
              "target_a": repr(draw(pick("target_a"))),
              "target_b": repr(draw(pick("target_b")))}
    try:
        size = BasisSpec(family, scale_n, Interval(lo, hi)).size
    except ValueError:
        size = MAX_DRAWN_WEIGHTS + 1
    if size <= MAX_DRAWN_WEIGHTS and not draw(st.booleans()):
        fields["weights"] = ",".join(map(repr, draw(st.lists(
            pick("weight"), min_size=size, max_size=size), label="weights")))
    return fields


def run_within_contract(tmp, fields, argv, command, n_samples):
    """(exit code, table path) of main(argv + --config + --out
    tmp/table.csv) on a config of `fields`, checked against the contract:
    exit 0 prints the table's path alone to stderr, and exit 1 prints one
    `error:` line and leaves no file. Neither prints a traceback."""
    cfgpath = write_small_config(tmp, **fields)
    with contextlib.suppress(ValueError):
        cfg = parse_config(cfgpath.read_text())
        need = footprint(cfg.basis(), cfg.grid_cells, command, n_samples)
        assume(not CONTRACT_BYTES < need <= MEMORY_LIMIT)
    out = tmp / "table.csv"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(cfgpath), "--out", str(out)])
    assert "Traceback" not in err.getvalue(), err.getvalue()
    if code == 0:
        assert err.getvalue() == f"{out}\n"
    else:
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert not out.exists()
    return code, out


@settings(deadline=None, max_examples=30)
@given(fields=wide_configs(), data=st.data(), repeat=st.booleans())
def test_estimate_has_exactly_two_outcomes(tmp_path_factory, fields, data,
                                           repeat):
    # either exit 0 with a finite, nonnegative table whose ratio has unit
    # trapezoid mass, or exit 1 with a message and no output file
    tmp = tmp_path_factory.mktemp("contract")
    lo, hi = float(fields["lo"]), float(fields["hi"])
    inside = st.floats(lo, hi).map(repr) if lo < hi else st.nothing()
    lines = data.draw(st.lists(st.one_of(SAMPLE_LINES, inside), max_size=12),
                      label="lines")
    samples = tmp / "s.txt"
    lines = lines * (2 if repeat else 1)
    samples.write_text("\n".join(lines) + "\n")
    code, out = run_within_contract(
        tmp, fields, ["estimate", str(samples)], "estimate",
        sum(bool(line.strip()) for line in lines))
    if code == 0:
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(table))
        s, mapped, ratio = table.T
        assert np.all(mapped >= 0.0) and np.all(ratio >= 0.0)
        assert abs(np.trapezoid(ratio, s) - 1.0) <= 1e-12
        assert abs(np.trapezoid(mapped, s) - 1.0) <= EMBEDDED_MASS_BOUND


def _is_density(name):
    return name in ("zeta", "kernel_diag") or name.startswith(
        ("embedded_", "ratio_"))


@settings(deadline=None, max_examples=60)
@given(figure=st.sampled_from(FIGURES), fields=wide_configs())
def test_reproduce_has_exactly_two_outcomes(tmp_path_factory, figure, fields):
    # either exit 0 with a finite table whose density columns are
    # nonnegative and whose ratio columns have unit trapezoid mass, or exit
    # 1 with a message and no output file
    tmp = tmp_path_factory.mktemp("contract")
    code, out = run_within_contract(
        tmp, fields, ["reproduce", "--figure", figure], figure, 50)
    if code != 0:
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
        if name.startswith("embedded_"):
            # the state A rho A* / tr has unit mass at any weights
            mass = np.trapezoid(column, s)
            assert abs(mass - 1.0) <= EMBEDDED_MASS_BOUND, (name, mass)


@pytest.mark.parametrize("shape", ["target_a", "target_b"])
@pytest.mark.parametrize("figure", ["fig2b", "fig3a", "fig3b"])
def test_target_infinite_at_an_end_exits_one(tmp_path, capsys, figure, shape):
    # a shape below 1 makes zeta infinite at that end of [0, 3], which is
    # a grid point; fig2b once wrote inf and nan rows there and exited 0
    cfgpath = write_small_config(tmp_path, **{shape: 0.5})
    out = tmp_path / "table.csv"
    assert main(["reproduce", "--figure", figure, "--config", str(cfgpath),
                 "--out", str(out)]) == 1
    beta = "Beta(0.5, 5)" if shape == "target_a" else "Beta(2, 0.5)"
    assert capsys.readouterr().err.startswith(
        f"error: the {beta} target density is infinite at an end of [0, 3]")
    assert not out.exists()


@pytest.mark.parametrize("family", ["haar", "daubechies4"])
@pytest.mark.parametrize("figure", ["fig2b", "fig3a", "fig3b"])
def test_target_with_a_unit_shape_exits_zero(tmp_path, figure, family):
    # Beta(1, 5) jumps to 5/3 at 0, a grid point: inside the Daubechies-4
    # span, where zeta takes the mean of its one-sided limits there, and
    # at the end of the Haar grid, where it takes the inner limit. Either
    # way zeta's trapezoid mass is 1 within 1e-6; fig3a and fig3b once
    # refused every such target on the Daubechies-4 grid.
    cfgpath = write_small_config(tmp_path, family=family, target_a=1.0)
    out = tmp_path / "table.csv"
    assert main(["reproduce", "--figure", figure, "--config", str(cfgpath),
                 "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert abs(np.trapezoid(data[:, 1], data[:, 0]) - 1.0) <= 1e-6


@pytest.mark.parametrize("a, b", [(1.0, 5.0), (5.0, 1.0)])
def test_zeta_column_is_the_target_curve_bitwise(tmp_path, a, b):
    # the Haar grid ends on the interval's ends, where this zeta jumps
    cfgpath = write_small_config(tmp_path, family="haar", target_a=a,
                                 target_b=b)
    out = tmp_path / "fig3a.csv"
    assert main(["reproduce", "--figure", "fig3a", "--config", str(cfgpath),
                 "--out", str(out)]) == 0
    cfg = load_config(cfgpath)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1],
                          cfg.target().curve(cfg.curve_grid()).values)


def test_fig2b_refuses_a_zeta_of_mass_zero(tmp_path, capsys):
    # Beta(1e300, 2) is a spike narrower than a cell at the right end, so
    # every grid value underflows to 0; fig2b once wrote that column
    cfgpath = write_small_config(tmp_path, target_a=1e300, target_b=2)
    out = tmp_path / "fig2b.csv"
    assert main(["reproduce", "--figure", "fig2b", "--config", str(cfgpath),
                 "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "error: zeta quadrature mass 0.000000000 is not 1 within 1e-6")
    assert not out.exists()


def test_weighted_embedded_curves_have_unit_mass(tmp_path):
    # A rho A* / tr(A rho A*) has unit trace at any weights; with the A*A
    # kernel in the numerator these curves integrated to 5.05 and 5.16
    cfgpath = tmp_path / "weighted.cfg"
    cfgpath.write_text("scale_n = 1\nweights = 1,0.5,2,0,1,3,0.25,1\n")
    out = tmp_path / "fig3a.csv"
    assert main(["reproduce", "--figure", "fig3a", "--config", str(cfgpath),
                 "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    for column in (2, 3):
        assert abs(np.trapezoid(data[:, column], data[:, 0]) - 1.0) <= 1e-5


# Each once ended in a traceback, a wrong message, or NaN and inf in a
# table written with exit 0.
EXTREME_CONFIGS = {
    "weight-1e200": ("weights = 1e200" + ",1" * 13,
                     "weight 1e+200 is over 4.97e+152, the largest"),
    "weight-1e154": ("weights = 1e154" + ",1" * 13,
                     "weight 1e+154 is over 4.97e+152, the largest"),
    "grid_cells-1e400": ("grid_cells = 1" + "0" * 400,
                         "needs inf GiB of arrays, over the 1 GiB limit"),
    "target_b-1e308": ("target_b = 1e308",
                       "Beta(2, 1e+308) has no finite log B(a, b)"),
    "target_a-inf": ("target_a = inf", "beta parameters must be finite"),
    "lo-1e308": ("lo = -1e308", "scale_n=2 takes the interval [-1e+308, 3]"),
    "scale_n-1023": ("scale_n = 1023", "scale_n=1023 takes the interval"),
    "scale_n-1100": ("scale_n = 1100", "scale_n=1100 takes the interval"),
    "lo-1e308-scale_n-0": ("lo = -1e308\nscale_n = 0",
                           "needs inf GiB of arrays, over the 1 GiB limit"),
    "lo-1e308-hi-1e308": ("lo = -1e308\nhi = 1e308\nscale_n = 0",
                          "interval [-1e+308, 1e+308] is wider than the "
                          "largest double"),
    "lo-1e200-hi-1e200": ("lo = -1e200\nhi = 1e200\nscale_n = 0",
                          "GiB of arrays, over the 1 GiB limit"),
    "lo-1e300-one-ulp": ("lo = 1e300\nhi = 1.0000000000000002e300\n"
                         "scale_n = 0", "GiB of arrays, over the 1 GiB limit"),
}


@pytest.mark.parametrize("command", [*FIGURES, "estimate"])
@pytest.mark.parametrize("config", EXTREME_CONFIGS)
def test_extreme_configs_exit_one_naming_the_cause(tmp_path, capsys, config,
                                                   command):
    text, cause = EXTREME_CONFIGS[config]
    cfgpath = tmp_path / "extreme.cfg"
    cfgpath.write_text(text + "\n")
    samples = tmp_path / "s.txt"
    samples.write_text("1.5\n")
    argv = (["estimate", str(samples)] if command == "estimate"
            else ["reproduce", "--figure", command])
    out = tmp_path / "table.csv"
    before = sorted(tmp_path.iterdir())
    assert main([*argv, "--config", str(cfgpath), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert cause in lines[0]
    # grid_cells = 1e400 was once printed with all its 401 digits; the
    # config's path, which config errors name, is not counted
    assert len(lines[0].replace(str(cfgpath), "")) < 200, lines[0]
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_table_refuses_non_finite_values(tmp_path, bad):
    out = tmp_path / "table.csv"
    column = np.ones(5)
    column[3] = bad
    with pytest.raises(ValueError, match="column kernel_diag holds 1 NaN or "
                                         "infinite values"):
        write_table(str(out), ["s", "kernel_diag"], [np.ones(5), column])
    assert not out.exists()
    # a column of a 2-D group is named as well
    group = np.ones((3, 5))
    group[1, 2] = bad
    with pytest.raises(ValueError, match="column phi_1 holds 1 NaN"):
        write_table(str(out), ["s", "phi_0", "phi_1", "phi_2"],
                    [np.ones(5), group])
    assert not out.exists()


def test_a_write_that_fails_midway_leaves_no_file(tmp_path, capsys,
                                                 monkeypatch):
    # a full disk, say, on the second block of rows, after the file is
    # opened and its first block written
    slots = densop.textio._slots
    calls = []

    def fail_on_second_block(*args):
        calls.append(1)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return slots(*args)

    monkeypatch.setattr(densop.textio, "_slots", fail_on_second_block)
    out = tmp_path / "fig2b.csv"
    assert main(["reproduce", "--figure", "fig2b", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "No space left on device" in lines[0]
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []
    # a link named as the output is left in place, not removed, and the
    # regular file it points to is emptied of the rows already written
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    calls.clear()
    with pytest.raises(OSError, match="No space left on device"):
        write_table(str(link), ["s"], [np.ones(2 * _block_rows(1))])
    assert link.is_symlink() and target.read_bytes() == b""
    # a cleanup that fails does not hide the write's error
    def refuse(*args):
        raise PermissionError("cannot empty")

    monkeypatch.setattr(os, "truncate", refuse)
    calls.clear()
    with pytest.raises(OSError, match="No space left on device"):
        write_table(str(link), ["s"], [np.ones(2 * _block_rows(1))])


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


def test_fig3_quadrature_refusal_names_grid_cells(tmp_path, capsys,
                                                 monkeypatch):
    # 512 cells per unit resolve the scale-2 translates, but the trapezoid
    # mass of Beta(2, 5) there is off by 1.1e-6; 768 is fine. The refusal
    # comes from the exact curve, before any sample is drawn.
    monkeypatch.setattr("densop.target.BetaTarget.sample", _refuse_to_build)
    for figure in ("fig3a", "fig3b"):
        cfgpath = write_small_config(tmp_path, grid_cells=512)
        out = tmp_path / f"{figure}.csv"
        assert main(["reproduce", "--figure", figure, "--config",
                     str(cfgpath), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: zeta quadrature mass 0.999998")
        assert "512 cells per unit" in err and "finer grid" in err
        assert not out.exists()
    monkeypatch.undo()
    cfgpath = write_small_config(tmp_path, grid_cells=768)
    assert main(["reproduce", "--figure", "fig3a", "--config", str(cfgpath),
                 "--out", str(tmp_path / "fig3a.csv")]) == 0


# ------------------------------------------------------------- exit codes


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["reproduce"]) == 1
    assert main(["reproduce", "--figure", "fig9"]) == 1
    assert main(["oracle", "--suite", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err
    # estimate draws no sample, so it takes no seed
    samples = tmp_path / "samples.txt"
    samples.write_text("0.5\n")
    assert main(["estimate", str(samples), "--seed", "1"]) == 1
    assert ("error: unrecognized arguments: --seed 1"
            in capsys.readouterr().err)


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


def test_oracle_check_count_matches_the_benchmark_plan(monkeypatch,
                                                      tmp_path):
    # the oracle-all workload passes only when stdout ends with exactly
    # its planned count of passed checks
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules as they are made
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    [command] = workloads.plan("oracle-all", 0, tmp_path).commands
    assert len(ORACLE_CHECKS) == command.oracle_checks, (
        f"{len(ORACLE_CHECKS)} oracle checks are registered but "
        f"bench/workloads.py plans {command.oracle_checks}, so the "
        f"oracle-all workload would fail; a change to the registered "
        f"checks waits on ROADMAP item 1, which derives the count from "
        f"oracles.REGISTRY, or ships with it")


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


def _checks_alone(suite="all"):
    """(name, residual bits, verdict) of each check of `suite`, called on
    its own with its registered arguments."""
    out = []
    for entry_suite, name, tolerance, check, args in oracles.REGISTRY:
        if suite in ("all", entry_suite):
            residual = float(check(*args))
            out.append((name, residual.hex(), residual <= tolerance))
    return out


def _results(results):
    return [(r.name, r.residual.hex(), r.passed) for r in results]


def test_each_check_alone_returns_its_oracle_line_residual():
    # a check that draws opens its own generator from its registered seed,
    # so no check's residual depends on the checks run before it
    alone = [float(check(*args)).hex() for *_, check, args in oracles.REGISTRY]
    assert alone == [r.residual.hex() for r in run_suite("all")]


def test_run_suite_shares_fixtures_without_changing_a_result(monkeypatch):
    # the Gram matrix and the samples are built once per run, keyed by
    # their inputs; each check called alone builds its own and gets the
    # same bits
    drawn = []
    sample = BetaTarget.sample

    def counted(self, n, seed):
        drawn.append(n)
        return sample(self, n, seed)

    monkeypatch.setattr(BetaTarget, "sample", counted)
    results = _results(run_suite("all"))
    # seeds 7 and 11 draw once; seed 1's three checks at 300 points share
    # one draw, and its 100 and 10 000 points are draws of their own
    assert drawn == [200, 500, 300, 100, 10000]
    assert oracles._FIXTURES.get() is None
    assert results == _checks_alone()


def _shifted_sample(sample):
    def shifted(self, n, seed):
        return SampleSet(sample(self, n, seed).points + 1e-6)
    return shifted


@pytest.mark.parametrize("owner, route, shift, suite, reads", [
    (oracles, "gram_check", lambda f: lambda *a: f(*a) + 1e-6, "all",
     ["interior gram identity (daubechies4 n=2)",
      "projection kernel idempotence (K o K = K)"]),
    (BetaTarget, "sample", _shifted_sample, "learn",
     ["map embedded density has unit mass",
      "map error ratio across two decades (expect ~10)"]),
], ids=["gram", "samples"])
def test_no_fixture_outlives_its_run(monkeypatch, owner, route, shift, suite,
                                     reads):
    first = _results(run_suite(suite))
    monkeypatch.setattr(owner, route, shift(getattr(owner, route)))
    second = _results(run_suite(suite))
    assert second == _checks_alone(suite)
    changed = {a[0] for a, b in zip(first, second) if a != b}
    assert set(reads) <= changed


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
