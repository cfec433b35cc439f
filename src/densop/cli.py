"""Deterministic command-line front end.

Three subcommands: `reproduce` writes one of the reference figure tables,
`estimate` runs the kernel-trick estimator on a user sample file, and
`oracle` runs the invariant suites.

Output tables are plain text: one header line with the column names
joined by `,`, then one line per grid point with each value printed as
`%.17g` and separated by `,`. Every line ends in `\n`, and there is no
comment prefix. Parsing a value recovers the exact double, and identical
config and seed produce byte-identical files.

Exit status: 0 success, 1 validation or usage error, 2 oracle failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .basis import basis_matrix, wavelet_approximation
from .config import TABLE_COLUMNS, ExperimentConfig, load_config
from .embedding import kernel_diag
from .learn import (embedded_density_exact, embedded_density_map,
                    normalized_ratio)
from .oracles import SUITES, run_suite
from .target import count_samples, load_samples
from .textio import write_rows

FIGURES = ("fig2a", "fig2b", "fig3a", "fig3b")


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


def _require_writable(path: str) -> None:
    """Reject an output path that cannot be written, before any work.

    Nothing is created: the table is opened only once it is complete, so a
    failure in between leaves no partial file behind.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    if not os.path.exists(parent):
        raise ValueError(f"cannot write {path}: {parent} does not exist")
    if not os.path.isdir(parent):
        raise ValueError(f"cannot write {path}: {parent} is not a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ValueError(f"cannot write {path}: {parent} is not writable")


def _write_table(path: str, names, columns) -> None:
    """Write the table, or refuse before opening `path` if a value is NaN
    or infinite."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    for name, column in zip(names, columns):
        bad = np.count_nonzero(~np.isfinite(column))
        if bad:
            raise ValueError(
                f"cannot write {path}: column {name} holds {bad} NaN or "
                f"infinite values")
    stacked = np.column_stack(columns)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        write_rows(fh, stacked)


def _figure_table(figure: str, cfg: ExperimentConfig):
    cfg.require_memory(figure)
    spec = cfg.basis()
    operator = cfg.operator()
    grid = cfg.curve_grid()
    s = grid.points
    names = list(TABLE_COLUMNS[figure])
    if figure == "fig2a":
        rows = basis_matrix(spec, s)
        names[1:1] = [f"phi_{int(k)}" for k in spec.translates]
        return names, [s, *rows, kernel_diag(operator, s)]
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
    cfg.require_memory("estimate", n_samples)
    if n_samples == 0:
        raise ValueError(f"{samples_path}: sample file is empty")
    samples = load_samples(samples_path, cfg.interval())
    operator = cfg.operator()
    grid = cfg.curve_grid()
    mapped = embedded_density_map(operator, samples, grid)
    ratio = normalized_ratio(mapped, operator)
    return (TABLE_COLUMNS["estimate"],
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
        cfg = ExperimentConfig()
        if args.config is not None:
            cfg = load_config(args.config, base=cfg)
        if args.seed is not None:
            cfg = cfg.replace(seed=args.seed)
        if args.out is not None:
            cfg = cfg.replace(out=args.out)
        reproduce = args.command == "reproduce"
        out_path = cfg.out or (
            f"{args.figure}.csv" if reproduce else "estimate.csv")
        _require_writable(out_path)
        if reproduce:
            names, cols = _figure_table(args.figure, cfg)
        else:
            names, cols = _estimate_table(args.samples, cfg)
        _write_table(out_path, names, cols)
        print(out_path)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
