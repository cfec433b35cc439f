"""Every committed output stays byte-identical: sha256 digests of a fixed
set of tables and of the oracle's report, against `data/digests.json`.

The set: fig2a-fig3b at the defaults, at weighted scale_n = 1 and at Haar
scale_n = 3; `estimate` on the committed 300-line sample file
`data/samples_300.txt` (seed-5 draws of the default Beta(2, 5) on [0, 3]);
fig2b and `estimate` at scale_n = 7 with 16384 cells per unit, whose
density tails reach 1e-18; fig2b at 1000 cells per unit, whose spacing
h = 1/1000 is not a power of two, so the bits depend on where the
wavelet scatter applies h; and the stdout of ``oracle --suite all``.

The bits depend on numpy's and libm's arithmetic, so the digests file
records the Python and numpy versions it was made with, and CI installs
that numpy. A change that moves bits on purpose rewrites the digests with

    PYTHONPATH=src python tests/test_digests.py

and names each table that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from densop.cli import FIGURES, main

DATA = Path(__file__).with_name("data")
DIGESTS = DATA / "digests.json"
SAMPLES = DATA / "samples_300.txt"

CONFIGS = {
    "default": "",
    "weighted": "scale_n = 1\nweights = 1,0.5,2,0,1,3,0.25,1\n",
    "haar": "family = haar\nscale_n = 3\n",
    "fine": "scale_n = 7\ngrid_cells = 16384\n",
    "odd": "grid_cells = 1000\n",
}
CASES = {
    **{f"{config}-{figure}": (config, ["reproduce", "--figure", figure])
       for config in ("default", "weighted", "haar") for figure in FIGURES},
    "default-estimate": ("default", ["estimate", str(SAMPLES)]),
    "fine-fig2b": ("fine", ["reproduce", "--figure", "fig2b"]),
    "fine-estimate": ("fine", ["estimate", str(SAMPLES)]),
    "odd-fig2b": ("odd", ["reproduce", "--figure", "fig2b"]),
    "oracle-all": (None, ["oracle", "--suite", "all"]),
}


def _output(name: str, tmp: Path) -> bytes:
    """The bytes case `name` writes: its table, or the oracle's stdout."""
    config, argv = CASES[name]
    stdout = io.StringIO()
    if config is not None:
        path = tmp / f"{config}.cfg"
        path.write_text(CONFIGS[config])
        argv = [*argv, "--config", str(path), "--out", str(tmp / "out.csv")]
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{name} exited {code}"
    if config is None:
        return stdout.getvalue().encode()
    return (tmp / "out.csv").read_bytes()


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


@pytest.mark.parametrize("name", CASES)
def test_output_is_byte_identical_to_its_digest(tmp_path, name):
    recorded = json.loads(DIGESTS.read_text())
    digest = hashlib.sha256(_output(name, tmp_path)).hexdigest()
    made_with = {key: recorded[key] for key in _versions()}
    assert digest == recorded["sha256"][name], (
        f"{name} moved; the digests were made with {made_with}, "
        f"this run has {_versions()}")


def test_every_case_has_a_digest():
    assert set(json.loads(DIGESTS.read_text())["sha256"]) == set(CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sha = {name: hashlib.sha256(_output(name, Path(tmp))).hexdigest()
               for name in CASES}
    DIGESTS.write_text(json.dumps({**_versions(), "sha256": sha},
                                  indent=2) + "\n")
    print(f"wrote {len(sha)} digests to {DIGESTS}", file=sys.stderr)
