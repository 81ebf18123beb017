"""One analysis spec: the three choices every SPSTA result is stated under.

The paper states each result under an input-statistics configuration
(CONFIG I or II), a gate delay model, and a representation of the TOP
conditionals (moments, mixtures or grid densities).  :class:`AnalysisSpec`
holds those three; :func:`decode_spec` is the one decoder from the CLI
flags and ``spsta serve`` request fields, with the defaults in one place.
Spellings of one analysis (omitted vs explicit defaults, delay key
order, a delay kind with or without its default parameters) decode to
equal specs with equal fingerprints.  A field that does not decode
raises :class:`SpecError` naming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.delay import (
    DelayModel,
    MisDelay,
    NormalDelay,
    PerGateDelay,
    UnitDelay,
)
from repro.core.inputs import CONFIG_I, CONFIG_II, InputStats
from repro.core.nldm import FrozenDelays
from repro.core.spsta import (
    GridAlgebra,
    MixtureAlgebra,
    MomentAlgebra,
    TopAlgebra,
)
from repro.fingerprint import value_fingerprint
from repro.stats.grid import TimeGrid, parse_grid_spec

#: The paper's input-statistics configurations, by label.
CONFIGS: Dict[str, InputStats] = {"I": CONFIG_I, "II": CONFIG_II}

#: CLI / request algebra names -> :class:`AlgebraSpec` kinds.
ALGEBRAS: Dict[str, str] = {"moments": "moment", "mixture": "mixture",
                            "grid": "grid"}

#: delay kind -> (model, its parameters with their defaults, in order);
#: ``frozen`` carries a per-gate mapping instead.
_DELAYS: Dict[str, Tuple[Callable[..., DelayModel],
                         Tuple[Tuple[str, float], ...]]] = {
    "unit": (UnitDelay, (("value", 1.0),)),
    "normal": (NormalDelay, (("mu", 1.0), ("sigma", 0.1))),
    "mis": (MisDelay, (("base", 1.0), ("speedup", 0.15), ("floor", 0.3),
                       ("sigma", 0.0))),
    "pergate": (PerGateDelay, (("base", 1.0), ("spread", 0.2))),
}
DELAY_KINDS = (*_DELAYS, "frozen")

DEFAULT_CONFIG = "I"
DEFAULT_ALGEBRA = "moments"
#: The TimeGrid an ``algebra=grid`` analysis runs on unless told otherwise.
DEFAULT_GRID = "-8:60:2048"


class SpecError(ValueError):
    """An analysis-spec field that does not decode; ``field`` names it."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class AlgebraSpec:
    """Picklable recipe for a TOP algebra (workers rebuild it locally).

    The engine algebras carry unpicklable or heavyweight state (kernel
    caches, mass ledgers), so the scheduler ships this spec across the
    process boundary instead and every worker builds a fresh instance.
    ``token()`` is the canonical cache-key fragment.
    """

    kind: str                      # "moment" | "mixture" | "grid"
    max_components: int = 8
    grid_start: float = 0.0
    grid_stop: float = 0.0
    grid_n: int = 0
    conv_method: str = "direct"

    def __post_init__(self) -> None:
        if self.kind not in ("moment", "mixture", "grid"):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.kind == "grid" and self.grid_n < 2:
            raise ValueError("grid spec needs grid_n >= 2")

    @classmethod
    def moment(cls) -> "AlgebraSpec":
        return cls(kind="moment")

    @classmethod
    def mixture(cls, max_components: int = 8) -> "AlgebraSpec":
        return cls(kind="mixture", max_components=max_components)

    @classmethod
    def grid(cls, grid: TimeGrid,
             conv_method: str = "direct") -> "AlgebraSpec":
        return cls(kind="grid", grid_start=grid.start, grid_stop=grid.stop,
                   grid_n=grid.n, conv_method=conv_method)

    @classmethod
    def from_algebra(cls, algebra: TopAlgebra) -> "AlgebraSpec":
        """The spec describing an existing algebra instance; ``build()``
        on it gives a fresh, identically configured one."""
        if isinstance(algebra, GridAlgebra):
            return cls.grid(algebra.grid, algebra.conv_method)
        if isinstance(algebra, MixtureAlgebra):
            return cls.mixture(algebra.max_components)
        if isinstance(algebra, MomentAlgebra):
            return cls.moment()
        raise TypeError(
            f"no AlgebraSpec for {type(algebra).__name__}; specs cover "
            f"the moment, mixture, and grid algebras")

    @property
    def time_grid(self) -> Optional[TimeGrid]:
        """The grid of a grid spec, else None."""
        if self.kind != "grid":
            return None
        return TimeGrid(self.grid_start, self.grid_stop, self.grid_n)

    def build(self) -> TopAlgebra:
        if self.kind == "moment":
            return MomentAlgebra()
        if self.kind == "mixture":
            return MixtureAlgebra(self.max_components)
        return GridAlgebra(self.time_grid, conv_method=self.conv_method)

    def token(self) -> str:
        if self.kind == "moment":
            return "moment"
        if self.kind == "mixture":
            return f"mixture:{self.max_components}"
        return (f"grid:{self.grid_start!r}:{self.grid_stop!r}:"
                f"{self.grid_n}:{self.conv_method}")


@dataclass(frozen=True)
class AnalysisSpec:
    """What one SPSTA analysis is a function of, besides the circuit."""

    config: str = DEFAULT_CONFIG
    algebra: AlgebraSpec = AlgebraSpec(kind="moment")
    delay: DelayModel = UnitDelay()

    @property
    def stats(self) -> InputStats:
        return CONFIGS[self.config]

    def fingerprint(self) -> str:
        """SHA-256 over the spec's canonical form: equal specs, however
        they were spelled, fingerprint equally."""
        return value_fingerprint(self)


def decode_algebra(name: str, grid: Optional[str] = None) -> AlgebraSpec:
    """(algebra name, grid text) -> :class:`AlgebraSpec`; the grid text
    is read only for ``grid`` and defaults to :data:`DEFAULT_GRID`."""
    kind = ALGEBRAS.get(name)
    if kind is None:
        raise SpecError("algebra", f"algebra must be one of "
                                   f"{tuple(ALGEBRAS)}, got {name!r}")
    if kind != "grid":
        return AlgebraSpec(kind=kind)
    try:
        return AlgebraSpec.grid(parse_grid_spec(
            DEFAULT_GRID if grid is None else grid))
    except ValueError as exc:
        raise SpecError("grid", str(exc)) from exc


def decode_delay(spec: Optional[Mapping[str, Any]]) -> DelayModel:
    """A delay-model spec object -> the bundled model it names
    (``None``: the paper's unit delays)."""
    if spec is None:
        return UnitDelay()
    kind = spec.get("kind")
    if kind == "frozen" and not (isinstance(spec.get("delays"), Mapping)
                                 and spec["delays"]):
        raise SpecError("delay", "delay.kind 'frozen' needs a non-empty "
                                 "'delays' mapping of gate -> delay")
    if kind not in DELAY_KINDS:
        raise SpecError("delay", f"delay.kind must be one of "
                                 f"{DELAY_KINDS}, got {kind!r}")
    try:
        if kind == "frozen":
            return FrozenDelays(
                {str(gate): float(value)
                 for gate, value in spec["delays"].items()},
                float(spec.get("relative_sigma", 0.0)))
        model, params = _DELAYS[kind]
        return model(*(float(spec.get(name, default))
                       for name, default in params))
    except (TypeError, ValueError) as exc:
        raise SpecError("delay",
                        f"bad delay spec {dict(spec)!r}: {exc}") from exc


def decode_spec(config: Optional[str] = None,
                algebra: Optional[str] = None,
                grid: Optional[str] = None,
                delay: Optional[Mapping[str, Any]] = None) -> AnalysisSpec:
    """The one decoder: field spellings -> :class:`AnalysisSpec`.

    A field given as ``None`` takes its default (:data:`DEFAULT_CONFIG`,
    :data:`DEFAULT_ALGEBRA`, :data:`DEFAULT_GRID`, unit delays).
    """
    label = str(DEFAULT_CONFIG if config is None else config).upper()
    if label not in CONFIGS:
        raise SpecError("config", f"config must be I or II, got {config!r}")
    return AnalysisSpec(
        config=label,
        algebra=decode_algebra(
            DEFAULT_ALGEBRA if algebra is None else algebra, grid),
        delay=decode_delay(delay))
