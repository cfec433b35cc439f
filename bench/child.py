"""One run of a workload in a fresh interpreter.

Set-up imports densop, builds the Daubechies table and loads the
workload's configs; the parent times it from process start to the
`setup_done` clock reading printed here (CLOCK_MONOTONIC is shared by all
processes). Then each command of the workload goes through
`densop.cli.main(argv)` in sequence, in-process, with its printed output
captured. The reference computation of `calibrate.py` is timed before
the first command and after each one; `wall_norm` is each command's time
over the mean of the two references around it, summed. The peak RSS is
read before the outputs are checked, so the checks' own arrays do not
count. The result is one JSON line on stdout.

    python3 bench/child.py --workload figures --seed 1 --workdir DIR \
        --outdir DIR [--trace FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def _blas() -> dict:
    """OpenBLAS version and thread count of the numpy loaded here."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    info = {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}",
            "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--outdir", type=Path)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import densop
    from densop import basis, cli, config

    import workloads
    basis.scaling_values_daub4(12)
    plan = workloads.plan(args.workload, args.seed, args.workdir)
    for path in plan.configs:
        config.load_config(path)
    result = {"setup_done": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace is not None:
        from tracing import Tracer
        tracer = Tracer().install()
    args.outdir.mkdir(parents=True, exist_ok=True)
    from calibrate import reference_s
    refs = [reference_s()]
    runs = []
    for cmd in plan.commands:
        argv = list(cmd.argv)
        out_path = None
        if cmd.out is not None:
            out_path = str(args.outdir / cmd.out)
            argv += ["--out", out_path]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed command
                code = f"{type(exc).__name__}: {exc}"
        runs.append((cmd, code, time.perf_counter() - start, out_path,
                     stdout.getvalue(), stderr.getvalue()))
        refs.append(reference_s())
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics()
        tracer.dump(args.trace)

    from checks import check_output
    result["commands"] = []
    for cmd, code, seconds, out_path, stdout, stderr in runs:
        failures, health = check_output(cmd, code, stdout, out_path)
        if code != 0 and stderr.strip():
            failures.append(stderr.strip().splitlines()[-1])
        written = Path(out_path) if out_path else None
        digest = hashlib.sha256(
            written.read_bytes() if written and written.is_file()
            else stdout.encode()).hexdigest()
        result["commands"].append({
            "name": cmd.name, "seconds": seconds, "failures": failures,
            "health": health, "sha256": digest})
    result["wall_s"] = sum(c["seconds"] for c in result["commands"])
    # Each command in units of the reference timed just before and after it.
    result["ref_s"] = refs
    result["wall_norm"] = sum(
        c["seconds"] * 2 / (before + after)
        for c, before, after in zip(result["commands"], refs, refs[1:]))
    result["peak_rss_mb"] = peak_rss * 1024 / 1e6  # ru_maxrss is in KiB
    result["env"] = {"python": platform.python_version(),
                     "densop": densop.__version__, **_blas()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
