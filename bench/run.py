"""densop benchmark: end-to-end and per-layer metrics of the CLI workloads.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the package is imported from `src/`. Every
run of a workload is a fresh child interpreter (`child.py`) that calls the
workload's commands through `densop.cli.main` in sequence, one caller in a
closed loop. Children are started one after another until `--seconds` is
spent (at least MIN_RUNS of them), each preceded by a child that only
does the set-up, so set-up time is a median of many samples.

With `--trace 0` the result holds the end-to-end metrics, medians over the
children:
- `setup_s`: process start until densop is imported, the Daubechies table
  built and the configs loaded, rescaled to a machine on which the
  reference computation of `calibrate.py` takes REF_NOMINAL_S;
- `wall_norm`: the command sequence after set-up, in units of the
  reference computation timed around each command;
- `peak_rss_mb`: the child's ru_maxrss;
- `pass_ratio`: commands that exited 0 and passed every output check, over
  commands attempted (fail_ratio = 1 - pass_ratio).
Dividing by the reference cancels most of a shared machine's changing
speed. The raw `setup_raw_s`, `wall_s` and reference times are printed for
people and kept on disk. With `--trace 1` untraced and traced children
alternate; the result holds the per-layer metrics of the traced ones and
`trace.overhead_s`, traced minus untraced `wall_s`.

Every output is checked (`checks.py`) and must be byte-identical across the
children of one run. Human-readable lines come first; the last line of
stdout is the JSON result. Raw per-child values go to
`.bench_run/results/`, the spans of the last traced child to
`.bench_run/traces/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, write_inputs  # noqa: E402

MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "wall_norm": "ref", "peak_rss_mb": "MB",
              "pass_ratio": "ratio"}
# Printed for people and kept on disk, not in the result line.
INFO = {"setup_raw_s": "s", "wall_s": "s", "ref_s": "s"}
# The reference time (calibrate.REPEATS runs) setup_s is rescaled to.
REF_NOMINAL_S = 0.5


class BenchError(RuntimeError):
    pass


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spawn(args: list) -> dict:
    """Run child.py to completion; its last stdout line is its result."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} ran over {CHILD_TIMEOUT_S} s") \
            from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"child {args} exited {proc.returncode}: {tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - start
    return result


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)}]"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All children of one run, their checks and the aggregated metrics."""
    workdir = RUN_DIR / f"{workload}-{os.getpid()}"
    traces = RUN_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed),
            "--workdir", str(workdir)]
    setups, plain, traced = [], [], []
    try:
        write_inputs(seed, workdir)
        deadline = time.monotonic() + seconds
        while True:
            started = time.monotonic()
            setups.append(_spawn(base + ["--setup-only"])["setup_s"])
            for kind in ("plain", "traced") if trace else ("plain",):
                outdir = workdir / f"out-{len(plain)}-{kind}"
                args = base + ["--outdir", str(outdir)]
                if kind == "traced":
                    args += ["--trace", str(traces / f"{workload}-seed{seed}"
                                            ".json")]
                result = _spawn(args)
                shutil.rmtree(outdir, ignore_errors=True)
                (traced if kind == "traced" else plain).append(result)
                setups.append(result["setup_s"])
            cycle = time.monotonic() - started
            if len(plain) >= MIN_RUNS and time.monotonic() + cycle > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # A command fails if it failed a check or its output differs from the
    # first child's: reruns of one config and seed must be byte-identical.
    first = {c["name"]: c["sha256"] for c in plain[0]["commands"]}
    attempted = failed = 0
    failures = []
    for child in plain + traced:
        for c in child["commands"]:
            if c["sha256"] != first[c["name"]]:
                c["failures"].append("output differs between reruns")
            attempted += 1
            if c["failures"]:
                failed += 1
                failures.append(f"{c['name']}: {'; '.join(c['failures'])}")

    refs = [r for c in plain for r in c["ref_s"]]
    scale = REF_NOMINAL_S / statistics.median(refs)
    samples = {"setup_s": [s * scale for s in setups],
               "setup_raw_s": setups,
               "wall_norm": [c["wall_norm"] for c in plain],
               "wall_s": [c["wall_s"] for c in plain],
               "ref_s": refs,
               "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
               "pass_ratio": [(attempted - failed) / attempted]}
    layers = {}
    if trace:
        for name in traced[0]["layers"]:
            layers[name] = [c["layers"][name] for c in traced]
        layers["trace.overhead_s"] = [
            statistics.median(c["wall_s"] for c in traced)
            - statistics.median(samples["wall_s"])]
    health = {}
    for c in plain[0]["commands"]:
        health.update(c["health"])
    return {"workload": workload, "seed": seed, "attempted": attempted,
            "failed": failed, "failures": failures, "samples": samples,
            "layers": layers, "health": health, "env": plain[0]["env"],
            "commands": {c["name"]: [ch["commands"][i]["seconds"]
                                     for ch in plain]
                         for i, c in enumerate(plain[0]["commands"])}}


def _report(run: dict) -> None:
    """Human-readable lines for one workload, and its raw record on disk."""
    name = run["workload"]
    note = " (seed ignored: oracle seeds are fixed in the package)" \
        if name == "oracle-all" else ""
    print(f"# {name}: seed {run['seed']}{note}; {run['attempted']} commands, "
          f"{run['failed']} failed, "
          f"fail_ratio {run['failed'] / run['attempted']:.4g}")
    for metric, values in run["samples"].items():
        unit = END_TO_END.get(metric) or INFO[metric]
        print(f"#   {metric} = {_quartiles(values)} {unit}")
    for cmd, values in run["commands"].items():
        print(f"#   command {cmd}: {_quartiles(values)} s")
    for metric, values in run["layers"].items():
        print(f"#   {metric} = {_quartiles(values)}")
    for key, value in run["health"].items():
        print(f"#   health {key} = {value:.3g}")
    for failure in run["failures"]:
        print(f"#   FAILED {failure}")
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    kind = "trace" if run["layers"] else "e2e"
    with open(results / f"{name}-seed{run['seed']}-{kind}.json", "w") as fh:
        json.dump(run, fh, indent=1)


def _layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    return "s" if name.endswith("_s") else "count"


def _metrics(run: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": statistics.median(values),
                       "unit": _layer_unit(name)}
                for name, values in run["layers"].items()}
    return {name: {"value": statistics.median(run["samples"][name]),
                   "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "densop" / "__init__.py").is_file():
        print(f"error: no densop package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    runs = []
    try:
        for name in names:
            runs.append(measure(name, args.seed, args.seconds,
                                bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = {**runs[0]["env"], "nproc": len(os.sched_getaffinity(0)),
           "cpu": _cpu_model(), "commit": _git_commit(), "seed": args.seed}
    print("# env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for run in runs:
        run["env"] = env
        _report(run)
    metrics = {}
    for run in runs:
        prefix = f"{run['workload']}." if len(runs) > 1 else ""
        for name, value in _metrics(run, bool(args.trace)).items():
            metrics[prefix + name] = value
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
