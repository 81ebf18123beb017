"""The benchmark suite used by the paper's evaluation.

``s27`` is the genuine (public, tiny) ISCAS'89 circuit, bundled as a
``.bench`` file.  The nine circuits of Table 2/3 (s208..s1238) are synthetic
profile matches produced by :mod:`repro.netlist.generator`; their PI/PO/DFF/
gate counts follow the published ISCAS'89 profiles and their depth follows
the unit-delay critical-path length implied by the paper's Table 2 (SSTA
mean ~ depth + Clark drift).  See DESIGN.md, "Substitutions".
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Dict, Tuple

from repro.netlist.bench import BenchParseError, parse_bench_file
from repro.netlist.core import Netlist
from repro.netlist.generator import GeneratorProfile, generate_circuit

_DATA_DIR = Path(__file__).parent / "data"

# name -> (n_inputs, n_outputs, n_dffs, n_gates, depth, xor_fraction)
_PROFILES: Dict[str, Tuple[int, int, int, int, int, float]] = {
    "s208": (10, 1, 8, 96, 7, 0.0),
    "s298": (3, 6, 14, 119, 5, 0.0),
    "s344": (9, 11, 15, 160, 8, 0.0),
    "s349": (9, 11, 15, 161, 8, 0.0),
    "s382": (3, 6, 21, 158, 6, 0.0),
    "s386": (7, 7, 6, 159, 8, 0.0),
    "s526": (3, 6, 21, 193, 5, 0.0),
    "s1196": (14, 14, 18, 529, 13, 0.10),
    "s1238": (14, 14, 18, 508, 12, 0.10),
    # Larger ISCAS'89 profiles beyond the paper's Table 2 suite, for scale
    # testing the engines (s5378/s9234-class sizes).
    "s5378": (35, 49, 179, 2779, 17, 0.0),
    "s9234": (36, 39, 211, 5597, 20, 0.02),
}

# Table 2 / Table 3 circuit order (the paper's evaluation suite).
TABLE_CIRCUITS: Tuple[str, ...] = (
    "s208", "s298", "s344", "s349", "s382", "s386", "s526", "s1196", "s1238")

# Additional large circuits for scale tests/benches (not in the paper).
SCALE_CIRCUITS: Tuple[str, ...] = ("s5378", "s9234")


def benchmark_names() -> Tuple[str, ...]:
    """All available benchmark circuit names (bundled + synthetic)."""
    return ("s27",) + TABLE_CIRCUITS + SCALE_CIRCUITS


def _profile_for(name: str) -> GeneratorProfile:
    n_in, n_out, n_dff, n_gates, depth, xor_frac = _PROFILES[name]
    # Seed derives from the circuit name so each circuit is a fixed artifact.
    seed = sum(ord(c) * 131 ** i for i, c in enumerate(name)) % (2 ** 31)
    return GeneratorProfile(
        name=name, n_inputs=n_in, n_outputs=n_out, n_dffs=n_dff,
        n_gates=n_gates, depth=depth, seed=seed, xor_fraction=xor_frac)


@lru_cache(maxsize=None)
def benchmark_circuit(name: str) -> Netlist:
    """Load (s27) or deterministically generate a benchmark circuit."""
    if name == "s27":
        return parse_bench_file(_DATA_DIR / "s27.bench")
    if name not in _PROFILES:
        known = ", ".join(benchmark_names())
        raise KeyError(f"unknown benchmark {name!r}; known: {known}")
    return generate_circuit(_profile_for(name))


class CircuitLoadError(LookupError):
    """A circuit name that is neither a benchmark nor a ``.bench`` file
    that parses; the message says which, and names the bad line."""


def load_circuit(name: str) -> Netlist:
    """A benchmark by name, else the ``.bench`` file at that path (an
    invalid structure raises the netlist's own ``NetlistError``)."""
    if name in benchmark_names():
        return benchmark_circuit(name)
    path = Path(name)
    if not path.is_file():
        raise CircuitLoadError(
            f"unknown circuit {name!r}: not a benchmark "
            f"({', '.join(benchmark_names())}) and not a file")
    try:
        return parse_bench_file(path)
    except BenchParseError as exc:
        raise CircuitLoadError(
            f"circuit {name!r} does not parse: {exc}") from exc
