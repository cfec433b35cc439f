"""Experiment configuration: defaults, flat-file parsing, and builders.

The config file format is one `key = value` pair per line, `#` comments,
blank lines ignored. Unknown keys are rejected so typos fail loudly.
`weights` is either the word `projection` or a comma-separated list with
one nonnegative value per basis translate.

Two limits hold for every command. Its curve grid must resolve the
translates: grid_cells >= RESOLUTION * 2**scale_n, checked when the grid
is built. What it holds at its peak must fit in MEMORY_LIMIT bytes,
checked by the command from the config alone before anything is
allocated.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .basis import BasisSpec, Grid, Interval, _require_resolution
from .embedding import EmbeddingOperator
from .target import BetaTarget

#: Bytes that one command may hold at its peak; see `footprint`.
MEMORY_LIMIT = 2 ** 30
#: Temporaries per grid point that a command holds beside its arrays:
#: a curve or a ratio after its last block, or the target density.
GRID_VALUES = 4
#: Bytes of the one block of work that is live at a time, whatever d, G
#: and N are. Measured peaks: a block of basis.BAND_BLOCK points of the
#: Daubechies-4 band with the previous block's products, about 2.4 MB;
#: the beta quantile on a chunk of target.SAMPLE_CHUNK lanes, at most
#: 4.5 MB (34 values per lane for shape (0.05, 200)); the table writer's
#: block, at most 1 MB. fig2a's writer block is one row only when
#: d + 2 > 4096, where the d x G table alone is over 8 GB, or the grid is
#: too coarse for the resolution rule.
PASS_BYTES = 5 * 2 ** 20
#: The commands that hold and scatter N samples.
SAMPLE_COMMANDS = ("fig3a", "fig3b", "estimate")

#: The header of each command's table, one name per column. fig2a also
#: has one column phi_k per basis translate k, right after "s".
TABLE_COLUMNS = {
    "fig2a": ("s", "kernel_diag"),
    "fig2b": ("s", "zeta", "wavelet_approximation"),
    "fig3a": ("s", "zeta", "embedded_exact", "embedded_map"),
    "fig3b": ("s", "zeta", "ratio_exact", "ratio_map"),
    "estimate": ("s", "embedded_map", "ratio_map"),
}


def footprint(spec: BasisSpec, grid_cells: int, command: str,
              n_samples: int = 0) -> float:
    """Bytes of the arrays `command` holds at its peak, from d, G, w and N.

    A command holds its d operator weights and its table's columns of G
    values, ncols from TABLE_COLUMNS (fig2a's include the d basis rows).
    fig3a and fig3b also hold two d x w coefficient bands and N = n_samples
    sampled points, fig3b the two curves its ratios divide, and estimate
    one band and the N points it read. Beside them passes the largest of
    the stacked table, GRID_VALUES per grid point and the N uniforms or
    scatter weights of the samples, which never coexist, and one block of
    work, PASS_BYTES. Nothing is allocated; the tests check each command's
    tracemalloc peak against this count. A grid whose cell count, or an N,
    that is not a finite double counts as infinite.
    """
    d, w = spec.size, spec.support_width
    try:
        g = round(spec.span().width * grid_cells) + 1
        n = float(n_samples) if command in SAMPLE_COMMANDS else 0
    except OverflowError:  # grid_cells, the cell count or N past the doubles
        return math.inf
    ncols = len(TABLE_COLUMNS[command]) + (d if command == "fig2a" else 0)
    held = ncols * g + n
    if command in ("fig3a", "fig3b"):
        held += 2 * d * w + (2 * g if command == "fig3b" else 0)
    elif command == "estimate":
        held += d * w
    passing = max(max(ncols, GRID_VALUES) * g, n)
    return 8 * (d + held + passing) + PASS_BYTES


@dataclass(frozen=True)
class ExperimentConfig:
    """Defaults mirror the reference experiment: Daubechies 4 at scale n=2
    on [0, 3], projection weights, beta(2, 5) target, 300 samples.

    `weights` holds one nonnegative weight per basis translate, or None
    for the projection; the embedding operator built from it validates
    them. grid_cells counts quadrature cells per unit length; curve grids
    cover the span of every translate (wider than the interval when
    boundary translates stick out), so the written tables have
    round(span width * grid_cells) + 1 rows.
    """

    lo: float = 0.0
    hi: float = 3.0
    family: str = "daubechies4"
    scale_n: int = 2
    weights: tuple | None = None
    target_a: float = 2.0
    target_b: float = 5.0
    n_samples: int = 300
    seed: int = 1
    grid_cells: int = 4096
    out: str | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be unsigned, got {self.seed}")
        if self.grid_cells < 1:
            raise ValueError(f"grid_cells must be >= 1, got {self.grid_cells}")
        if self.weights is not None:
            object.__setattr__(self, "weights",
                               tuple(float(v) for v in self.weights))
        # Constructor validation of the derived objects; errors here carry
        # the field-level messages. Nothing of size d or G is built: the
        # projection's weights wait for a command, which checks its memory
        # bound first.
        self.basis()
        if self.weights is not None:
            self.operator()
        self.target()

    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    def basis(self) -> BasisSpec:
        return BasisSpec(family=self.family, scale_n=self.scale_n,
                         interval=self.interval())

    def operator(self) -> EmbeddingOperator:
        spec = self.basis()
        if self.weights is None:
            return EmbeddingOperator.projection(spec)
        return EmbeddingOperator(spec, self.weights)

    def target(self) -> BetaTarget:
        return BetaTarget(a=self.target_a, b=self.target_b,
                          interval=self.interval())

    def curve_grid(self) -> Grid:
        """Uniform grid over the basis span at grid_cells cells per unit.

        Refuses grid_cells < RESOLUTION * 2**scale_n, too coarse to
        resolve the translates.
        """
        spec = self.basis()
        span = spec.span()
        grid = Grid(span, max(1, round(span.width * self.grid_cells)))
        _require_resolution(spec, grid)
        return grid

    def require_memory(self, command: str,
                       n_samples: int | None = None) -> None:
        """Refuse to run `command` if it needs over MEMORY_LIMIT bytes.

        `n_samples` is the number of points the command scatters, the
        config's own n_samples unless given; estimate passes its file's.
        """
        n = self.n_samples if n_samples is None else n_samples
        need = footprint(self.basis(), self.grid_cells, command, n)
        if need > MEMORY_LIMIT:
            # past 15 digits, the power of ten: no float holds 10**309
            count, cells = (v if v < 10 ** 15 else f"10^{math.log10(v):.1f}"
                            for v in (n, self.grid_cells))
            samples = (f", N={count} samples"
                       if command in SAMPLE_COMMANDS else "")
            raise ValueError(
                f"{command} at scale_n={self.scale_n}{samples} and "
                f"grid_cells={cells} needs "
                f"{need / 2**30:.3g} GiB of arrays, over the "
                f"{MEMORY_LIMIT / 2**30:g} GiB limit")

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def serialize(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "weights":
                value = "projection" if value is None else ",".join(
                    f"{v:.17g}" for v in value)
            elif f.name == "out":
                if value is None:
                    continue
            elif isinstance(value, float):
                value = f"{value:.17g}"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


_FIELD_PARSERS = {
    "lo": float,
    "hi": float,
    "family": str,
    "scale_n": int,
    "target_a": float,
    "target_b": float,
    "n_samples": int,
    "seed": int,
    "grid_cells": int,
    "out": str,
}


def _parse_weights(text: str):
    text = text.strip()
    if text == "projection":
        return None
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"weights must be 'projection' or a comma-separated list, "
            f"got {text!r}"
        ) from None


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse flat key = value text, overriding fields of `base`."""
    changes = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "weights":
            changes[key] = _parse_weights(value)
        elif key in _FIELD_PARSERS:
            try:
                changes[key] = _FIELD_PARSERS[key](value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad value {value!r} for key {key!r}"
                ) from None
        else:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
    base = base if base is not None else ExperimentConfig()
    return base.replace(**changes)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), base=base)
