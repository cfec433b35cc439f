"""Deterministic command-line front end.

Three subcommands: `reproduce` writes one of the reference figure tables,
`estimate` runs the kernel-trick estimator on a user sample file, and
`oracle` runs the invariant suites.

Output tables are plain text: one header line with the column names
joined by `,`, then one line per grid point with each value printed as
`%.17g` and separated by `,`. Every line ends in `\n`, and there is no
comment prefix. Parsing a value recovers the exact double, and identical
config and seed produce byte-identical files. A command that fails
writes no table, not even part of one.

Each table command is declared once, in COMMANDS, and refuses to run
before it allocates if its `footprint` is over MEMORY_LIMIT bytes.

A table command prints the path it wrote to stderr, so that
`--out /dev/stdout` sends the table alone to stdout. The table is written
through the descriptor the shell opened, so `>` replaces a file and `>>`
appends to it, and a failed write truncates the file back to what it held.

`--out` is checked before any work, by `textio.require_writable`. The
file the command holds as its stdout passes. Any other path that exists
and is not a regular file, such as /dev/null or a pipe, must be writable
itself. A regular file or a new path needs a writable, searchable
directory, so that a failed write can remove it, and an existing regular
file must be writable too.

Exit status: 0 success, 1 validation or usage error, 2 oracle failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

from .basis import BasisSpec, basis_matrix, wavelet_approximation
from .config import ExperimentConfig, load_config
from .embedding import kernel_diag
from .learn import (embedded_density_exact, embedded_density_map,
                    normalized_ratio)
from .oracles import SUITES, run_suite
from .target import count_samples, load_samples
from .textio import require_writable, write_table


@dataclass(frozen=True)
class Command:
    """What one command writes and holds at its peak.

    `header` names the table's columns; a `phi_k` stands for one column
    per basis translate k. Beside the table the command holds `curves`
    more columns of G values, `bands` d x w coefficient bands, and, with
    `samples`, N points.
    """

    header: tuple
    curves: int = 0
    bands: int = 0
    samples: bool = False


COMMANDS = {
    "fig2a": Command(("s", "phi_k", "kernel_diag")),
    "fig2b": Command(("s", "zeta", "wavelet_approximation")),
    "fig3a": Command(("s", "zeta", "embedded_exact", "embedded_map"),
                     bands=2, samples=True),
    "fig3b": Command(("s", "zeta", "ratio_exact", "ratio_map"),
                     curves=2, bands=2, samples=True),
    "estimate": Command(("s", "embedded_map", "ratio_map"),
                        bands=1, samples=True),
}
FIGURES = tuple(name for name in COMMANDS if name.startswith("fig"))

#: Bytes that one command may hold at its peak; see `footprint`.
MEMORY_LIMIT = 2 ** 30
#: Temporaries per grid point that a command holds beside its arrays:
#: a curve or a ratio after its last block, or the target density.
GRID_VALUES = 4
#: Bytes of the one block of work that is live at a time, whatever d, G and
#: N are. Measured peaks: a block of basis.BAND_BLOCK points of the
#: Daubechies-4 band, about 1.25 MB (19.0 values per point in
#: coefficient_band, whose point-major terms and indices share one buffer
#: reused from block to block, 13.0 in coefficient_vector and
#: wavelet_approximation, 7.0 in quadratic_form and linear_form); the beta
#: quantile on a chunk of target.SAMPLE_CHUNK lanes, at most 4.5 MB (34
#: values per lane for shape (8013, 2), whose lanes all iterate in the
#: first cell, and 25 for (200, 0.05)); the table writer's block of at most
#: 4096 values and its buffer, with the last slot words it builds once per
#: table, at most 1.2 MiB (0.78-0.82 MiB on random doubles, 0.95 MiB on
#: fine-scale's estimate table, 1.13-1.17 MiB on values whose point moves,
#: as in [10, 1e14] or log-uniform over the whole of 1e-99 < |x| < 1e15).
#: fig2a's writer block is one row only when d + 2 > 4096, where the
#: d x G basis rows alone are over 8 GB, or the grid is too coarse for the
#: resolution rule.
PASS_BYTES = 5 * 2 ** 20


def footprint(spec: BasisSpec, grid_cells: int, command: str,
              n_samples: int = 0) -> float:
    """Bytes of the arrays `command` holds at its peak, from d, G, w and N.

    A command holds its d operator weights, its table's columns of G
    values and what COMMANDS lists beside them: curves of G values, d x w
    bands and N = n_samples points. Beside them pass the larger of
    GRID_VALUES per grid point and the N uniforms or scatter weights of
    the samples, which never coexist, and one block of work, PASS_BYTES.
    Nothing is allocated; the tests check each command's tracemalloc peak
    against this count. A count past the doubles, of cells, samples or
    bytes, is infinite.
    """
    layout = COMMANDS[command]
    d, w = spec.size, spec.support_width
    try:
        g = float(round(spec.span().width * grid_cells) + 1)
        n = float(n_samples) if layout.samples else 0.0
        ncols = len(layout.header) + (d - 1 if "phi_k" in layout.header else 0)
        held = (ncols + layout.curves) * g + layout.bands * d * w + n
        passing = max(GRID_VALUES * g, n)
        return 8 * (d + held + passing) + PASS_BYTES
    except OverflowError:
        return math.inf


def require_memory(cfg: ExperimentConfig, command: str,
                   n_samples: int) -> None:
    """Refuse to run `command` on `cfg` with n_samples points if it needs
    over MEMORY_LIMIT bytes."""
    need = footprint(cfg.basis(), cfg.grid_cells, command, n_samples)
    if need > MEMORY_LIMIT:
        # past 15 digits, the power of ten: no float holds 10**309
        count, cells = (v if v < 10 ** 15 else f"10^{math.log10(v):.1f}"
                        for v in (n_samples, cfg.grid_cells))
        samples = (f", N={count} samples" if COMMANDS[command].samples
                   else "")
        raise ValueError(
            f"{command} at scale_n={cfg.scale_n}{samples} and "
            f"grid_cells={cells} needs {need / 2**30:.3g} GiB of arrays, "
            f"over the {MEMORY_LIMIT / 2**30:g} GiB limit")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to 1 so status 2
    # stays reserved for oracle failures.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="densop",
                     description="density-operator learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    reproduce = sub.add_parser("reproduce",
                               help="write a reference figure data table")
    reproduce.add_argument("--figure", required=True, choices=FIGURES)
    _add_common(reproduce)

    estimate = sub.add_parser("estimate",
                              help="run the kernel estimator on a sample file")
    estimate.add_argument("samples", help="text file, one sample per line")
    _add_common(estimate)

    oracle = sub.add_parser("oracle", help="run the invariant suites")
    oracle.add_argument("--suite", default="all", choices=SUITES)
    return parser


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", default=None,
                     help="flat key = value config file")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sub.add_argument("--out", default=None,
                     help="output path (default <figure>.csv / estimate.csv)")


def _figure_table(figure: str, cfg: ExperimentConfig):
    require_memory(cfg, figure, cfg.n_samples)
    spec = cfg.basis()
    operator = cfg.operator()
    grid = cfg.curve_grid()
    s = grid.points
    names = list(COMMANDS[figure].header)
    if figure == "fig2a":
        names[1:2] = [f"phi_{int(k)}" for k in spec.translates]
        return names, [s, basis_matrix(spec, s), kernel_diag(operator, s)]
    # refuses a zeta whose quadrature mass is off, before any sampling
    zeta = cfg.target().curve(grid)
    if figure == "fig2b":
        return names, [s, zeta.values,
                       wavelet_approximation(zeta.values, spec, grid)]
    exact = embedded_density_exact(operator, zeta, grid)
    samples = cfg.target().sample(cfg.n_samples, cfg.seed)
    mapped = embedded_density_map(operator, samples, grid)
    if figure == "fig3a":
        return names, [s, zeta.values, exact.values, mapped.values]
    return names, [s, zeta.values,
                   normalized_ratio(exact, operator).values,
                   normalized_ratio(mapped, operator).values]


def _estimate_table(samples_path: str, cfg: ExperimentConfig):
    # the bound is checked from the line count, which is the N that
    # load_samples reads, before any value is parsed
    n_samples = count_samples(samples_path)
    require_memory(cfg, "estimate", n_samples)
    if n_samples == 0:
        raise ValueError(f"{samples_path}: sample file is empty")
    samples = load_samples(samples_path, cfg.interval())
    operator = cfg.operator()
    grid = cfg.curve_grid()
    mapped = embedded_density_map(operator, samples, grid)
    ratio = normalized_ratio(mapped, operator)
    return (COMMANDS["estimate"].header,
            [grid.points, mapped.values, ratio.values])


def _run_oracle(suite: str) -> int:
    results = run_suite(suite)
    for result in results:
        print(result.line())
    failures = sum(not r.passed for r in results)
    print(f"{len(results) - failures} passed, {failures} failed")
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        code = exc.code
        return 0 if code in (0, None) else 1

    try:
        if args.command == "oracle":
            return _run_oracle(args.suite)
        cfg = (ExperimentConfig() if args.config is None
               else load_config(args.config))
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        reproduce = args.command == "reproduce"
        command = args.figure if reproduce else "estimate"
        out_path = args.out or f"{command}.csv"
        require_writable(out_path)
        if reproduce:
            names, cols = _figure_table(command, cfg)
        else:
            names, cols = _estimate_table(args.samples, cfg)
        write_table(out_path, names, cols)
        # stderr, so that a table written to stdout stays whole
        print(out_path, file=sys.stderr)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
