"""Experiment configuration: defaults, flat-file parsing, and builders.

The config file format is one `key = value` pair per line, `#` comments,
blank lines ignored. Unknown keys and keys set twice are rejected so
typos fail loudly.
`weights` is either the word `projection` or a comma-separated list with
one nonnegative value per basis translate.

A config validates its fields and builds nothing of size d or G. Its
curve grid must resolve the translates, grid_cells >= RESOLUTION *
2**scale_n, checked when the grid is built; each command checks its own
memory bound (see `cli.footprint`) before it builds anything else.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .basis import BasisSpec, Grid, Interval, require_resolution
from .embedding import EmbeddingOperator
from .target import BetaTarget
from .textio import open_text, require_text


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
        require_resolution(spec, grid)
        return grid

    def serialize(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "weights":
                value = "projection" if value is None else ",".join(
                    f"{v:.17g}" for v in value)
            elif isinstance(value, float):
                value = f"{value:.17g}"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def _parse_weights(text: str):
    if text == "projection":
        return None
    return tuple(float(part) for part in text.split(","))


#: weights parses by `_parse_weights`, every other key as the type of its
#: default.
_FIELD_PARSERS = {f.name: _parse_weights if f.name == "weights"
                  else type(f.default)
                  for f in dataclasses.fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key = value text; omitted keys keep their defaults.

    Lines end at "\n" alone, so an error names the line an editor shows.
    """
    changes, set_on = {}, {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_PARSERS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ValueError(f"line {lineno}: config key {key!r} is already "
                             f"set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            changes[key] = _FIELD_PARSERS[key](value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad value {value!r} for key {key!r}"
            ) from None
    return ExperimentConfig(**changes)


def load_config(path) -> ExperimentConfig:
    """Read and parse the config file at `path`; every error names it."""
    with open_text(path) as fh:
        text = fh.read()
    require_text(path, text)
    try:
        return parse_config(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
