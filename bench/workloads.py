"""The four benchmark workloads: their inputs, commands and output checks.

A workload is a fixed sequence of `densop` CLI commands. `write_inputs`
makes the files the commands read (flat config files and sample files)
from the workload seed; `plan` lists the commands with what each output
must look like. The parent (`run.py`) writes the inputs once per run and
every child interpreter (`child.py`) runs the same plan, so the outputs of
all children in one run must be byte-identical.

Sample files are drawn as 3 * Beta(2, 5) with numpy's own PCG64, not with
`densop.target`, so the estimate workloads exercise neither the package
sampler nor its exact curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Default experiment: Daubechies-4 at scale 2 on [0, 3], 4096 cells per unit.
DEFAULT_CELLS = 4096
INTERVAL = (0.0, 3.0)
SUPPORT_WIDTH = {"haar": 1, "daubechies4": 3}

# Why each workload is in the benchmark: bench/README.md and BENCHMARK.json.
WORKLOADS = ("figures", "estimate-large-n", "fine-scale", "oracle-all")

FINE = {"scale_n": 7, "grid_cells": 16384}
HAAR = {"family": "haar", "scale_n": 2}
# Sample sizes of the estimate commands, keyed by file name.
SAMPLE_FILES = {"d4-n300.txt": 300, "d4-n10000.txt": 10_000,
                "haar-n10000.txt": 10_000, "fine-n300.txt": 300}


@dataclass(frozen=True)
class Basis:
    """Family, scale and grid density of one command, as the CLI sees them."""

    family: str = "daubechies4"
    scale_n: int = 2
    grid_cells: int = DEFAULT_CELLS

    @property
    def translates(self) -> range:
        # Every k whose support [k, k + width] / 2^n meets the open interval.
        two_n = 2 ** self.scale_n
        lo, hi = INTERVAL
        k_min = math.floor(lo * two_n - SUPPORT_WIDTH[self.family]) + 1
        k_max = math.ceil(hi * two_n) - 1
        return range(k_min, k_max + 1)

    @property
    def rows(self) -> int:
        ks = self.translates
        two_n = 2 ** self.scale_n
        lo = min(INTERVAL[0], ks[0] / two_n)
        hi = max(INTERVAL[1], (ks[-1] + SUPPORT_WIDTH[self.family]) / two_n)
        return round((hi - lo) * self.grid_cells) + 1


@dataclass(frozen=True)
class Samples:
    """Where the MAP curve's samples come from: a file, or the package
    sampler at (n, seed) for the figure commands."""

    path: str | None = None
    n: int = 300
    seed: int = 1


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    basis: Basis = Basis()
    header: tuple = ()
    samples: Samples | None = None
    # Unit-mass bound for the density curves; None reports the mass as a
    # health value only, where quadrature limits it.
    mass_tol: float | None = None
    haar_histogram: bool = False
    oracle_checks: int = 0

    @property
    def out(self) -> str | None:
        return None if self.oracle_checks else f"{self.name}.csv"


@dataclass(frozen=True)
class Plan:
    commands: tuple
    configs: tuple = ()


def _config_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def write_inputs(seed: int, workdir: Path) -> None:
    """Write the config and sample files the commands read."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "fine.cfg").write_text(_config_text(FINE))
    (workdir / "haar.cfg").write_text(_config_text(HAAR))
    rng = np.random.Generator(np.random.PCG64(seed))
    for name, n in SAMPLE_FILES.items():
        points = INTERVAL[1] * rng.beta(2.0, 5.0, size=n)
        (workdir / name).write_text("".join(f"{v:.17g}\n" for v in points))


def _figure(name: str, seed: int, basis: Basis, mass_tol,
            config: Path | None = None) -> Command:
    argv = ("reproduce", "--figure", name, "--seed", str(seed))
    if config is not None:
        argv += ("--config", str(config))
    header = {
        "fig2a": ("s", *(f"phi_{k}" for k in basis.translates), "kernel_diag"),
        "fig2b": ("s", "zeta", "wavelet_approximation"),
        "fig3a": ("s", "zeta", "embedded_exact", "embedded_map"),
        "fig3b": ("s", "zeta", "ratio_exact", "ratio_map"),
    }[name]
    return Command(name=name, argv=argv, basis=basis, header=header,
                   samples=Samples(seed=seed) if name[:4] == "fig3" else None,
                   mass_tol=mass_tol)


def _estimate(name: str, samples: Path, basis: Basis, config: Path | None,
              mass_tol) -> Command:
    argv = ("estimate", str(samples))
    if config is not None:
        argv += ("--config", str(config))
    return Command(name=name, argv=argv, basis=basis,
                   header=("s", "embedded_map", "ratio_map"),
                   samples=Samples(path=str(samples)), mass_tol=mass_tol,
                   haar_histogram=basis.family == "haar")


def plan(workload: str, seed: int, workdir: Path) -> Plan:
    """The command sequence of one workload at one seed."""
    default = Basis()
    # Criterion 5's unit-mass bound holds at the default config only.
    unit_mass = 1e-5
    if workload == "figures":
        return Plan(tuple(
            _figure(name, seed, default,
                    unit_mass if name[:4] == "fig3" else None)
            for name in ("fig2a", "fig2b", "fig3a", "fig3b")))
    if workload == "estimate-large-n":
        haar = Basis(family="haar", scale_n=2)
        cfg = workdir / "haar.cfg"
        return Plan((
            _estimate("est-d4-n300", workdir / "d4-n300.txt", default, None,
                      unit_mass),
            _estimate("est-d4-n10000", workdir / "d4-n10000.txt", default,
                      None, unit_mass),
            _estimate("est-haar-n10000", workdir / "haar-n10000.txt", haar,
                      cfg, None),
        ), configs=(cfg,))
    if workload == "fine-scale":
        fine = Basis(scale_n=FINE["scale_n"], grid_cells=FINE["grid_cells"])
        cfg = workdir / "fine.cfg"
        return Plan((
            _estimate("est-fine-n300", workdir / "fine-n300.txt", fine, cfg,
                      None),
            _figure("fig2b", seed, fine, None, cfg),
        ), configs=(cfg,))
    if workload == "oracle-all":
        return Plan((Command(name="oracle-all",
                             argv=("oracle", "--suite", "all"),
                             oracle_checks=23),))
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {WORKLOADS}")
