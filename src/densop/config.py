"""Experiment configuration: defaults, flat-file parsing, and builders.

The config file format is one `key = value` pair per line, `#` comments,
blank lines ignored. Unknown keys are rejected so typos fail loudly.
`weights` is either the word `projection` or a comma-separated list with
one nonnegative value per basis translate.

Two limits hold for every command. Its curve grid must resolve the
translates: grid_cells >= RESOLUTION * 2**scale_n, checked when the grid
is built. What it holds at its peak must fit in MEMORY_LIMIT bytes,
checked from the config alone before anything is allocated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .basis import BasisSpec, Grid, Interval, _require_resolution
from .embedding import EmbeddingOperator
from .target import SAMPLE_CHUNK, BetaTarget
from .textio import _block_rows

#: Bytes that one command may hold at its peak; see `footprint`.
MEMORY_LIMIT = 2 ** 30
#: Values that the beta sampler holds per lane of its quantile chunk at
#: its peak (23 to 34 measured for shapes (1, 1) to (0.05, 200)),
#: and that the table writer holds per value of its block (at most 30
#: measured).
SAMPLER_VALUES = 36
WRITER_VALUES = 32

#: The header of each command's table, one name per column. fig2a also
#: has one column phi_k per basis translate k, right after "s".
TABLE_COLUMNS = {
    "fig2a": ("s", "kernel_diag"),
    "fig2b": ("s", "zeta", "wavelet_approximation"),
    "fig3a": ("s", "zeta", "embedded_exact", "embedded_map"),
    "fig3b": ("s", "zeta", "ratio_exact", "ratio_map"),
    "estimate": ("s", "embedded_map", "ratio_map"),
}


def footprint(spec: BasisSpec, grid_cells: int, command: str | None = None,
              n_samples: int = 0) -> int:
    """Bytes of the arrays `command` holds at its peak, from d, G, w and N.

    A command holds its d operator weights and its table's columns of G
    values, ncols from TABLE_COLUMNS (fig2a's include the d basis rows).
    fig3a and fig3b also hold two d x w coefficient bands and N = n_samples
    sampled points, fig3b the two curves its ratios divide, and estimate
    one band and the N points it read. On top of that it holds the largest
    of its passing temporaries, counted per point:
    - basis_band, for a curve on the grid: the scaled point, then the
      index, argument and value of each of the w live translates, 1 + 3w
      values; Daubechies 4's table lookup also holds the scaled argument,
      the table index and the second table read of each, 1 + 6w; their
      one-byte masks add under one more, so 2 + 3w and 2 + 6w;
    - coefficient_band, scattering the grid or the samples: one weight and
      the larger of the basis band and the rows, values, products and
      flat indices of the w(w + 1)/2 entries of the band it adds to;
    - the beta sampler of fig3a and fig3b: its N uniforms and
      SAMPLER_VALUES per lane of one SAMPLE_CHUNK;
    - the write: the stacked table and WRITER_VALUES per block value.
    None counts what every command shares: the weights, the grid points
    and one curve. Nothing is allocated; the tests check each command's
    tracemalloc peak against this count.
    """
    d, w = spec.size, spec.support_width
    g = round(spec.span().width * grid_cells) + 1
    band = 2 + w * (3 if spec.family == "haar" else 6)
    if command is None:
        return 8 * (d + g + g * band)
    ncols = len(TABLE_COLUMNS[command]) + (d if command == "fig2a" else 0)
    scatter = 1 + max(band, 2 * w + w * (w + 1))
    held = table = ncols * g
    passing = max(g * band, table + WRITER_VALUES * _block_rows(ncols) * ncols)
    if command in ("fig3a", "fig3b"):
        held += 2 * d * w + n_samples + (2 * g if command == "fig3b" else 0)
        sampler = min(n_samples, SAMPLE_CHUNK) * SAMPLER_VALUES + n_samples
        passing = max(passing, g * scatter, n_samples * scatter, sampler)
    elif command == "estimate":
        held += d * w + n_samples
        passing = max(passing, n_samples * scatter)
    return 8 * (d + held + passing)


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
        # the field-level messages. The memory bound comes before the
        # operator allocates its d weights.
        self.interval()
        self.require_memory()
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

    def require_memory(self, command: str | None = None,
                       n_samples: int | None = None) -> None:
        """Refuse a config whose `command` needs over MEMORY_LIMIT bytes.

        `n_samples` is the number of points the command scatters, the
        config's own n_samples unless given; estimate passes its file's.
        """
        n = self.n_samples if n_samples is None else n_samples
        need = footprint(self.basis(), self.grid_cells, command, n)
        if need > MEMORY_LIMIT:
            samples = (f", N={n} samples"
                       if command in ("fig3a", "fig3b", "estimate") else "")
            raise ValueError(
                f"{command or 'every command'} at scale_n={self.scale_n}"
                f"{samples} and grid_cells={self.grid_cells} needs "
                f"{need / 2**30:.3g} GiB of arrays, over the "
                f"{MEMORY_LIMIT / 2**30:g} GiB limit"
            )

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
