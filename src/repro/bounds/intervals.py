"""Interval domain for two-value signal probability (Eq. 5).

Two transfer functions per gate type:

- :func:`gate_interval_independent` — sound **and tight** when the gate's
  inputs are independent (the stem sweep certifies this when no fan-out
  stem lands on two input cones).  Each op mirrors
  :func:`repro.core.probability.gate_signal_probability` expression for
  expression, so on point inputs (``lo == hi``) the result brackets the
  point propagation within an ulp or so per operation.

- :func:`gate_interval_frechet` — sound under **any** joint distribution
  of the inputs (Fréchet–Hoeffding bounds), used where reconvergence
  makes independence unprovable and the BDD collapse is too expensive.
  The independence corners must *not* be intersected in: under
  dependence the true probability can sit outside them.

Every end is rounded outward: where an operation's float result lies
past the exact real one (the error-free transformations TwoSum and
TwoProduct give the rounding error and its sign), the end steps one ulp
back, so a certified interval contains the exact value of the
probability its inputs define.  Exact operations stay exact, so dyadic
launch probabilities (CONFIG I's 1/2) and the constants 0 and 1 still
propagate as points.  All outputs are clamped to ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable, Iterable, Sequence

from repro.logic.gates import GateSpec, GateType, gate_spec


@dataclass(frozen=True)
class Interval:
    """A closed probability interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"invalid probability interval "
                             f"[{self.lo}, {self.hi}]")

    @staticmethod
    def point(p: float) -> "Interval":
        return Interval(p, p)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def complement(self) -> "Interval":
        """Interval of ``1 - X``, mirroring ``1.0 - p`` (outward
        rounded: exact for ends at or above 1/2)."""
        return _clamp(add_down(1.0, -self.hi), add_up(1.0, -self.lo))

    def contains(self, p: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= p <= self.hi + slack


# -- outward rounding ---------------------------------------------------------
# Each directed op keeps the float result when it lies on the safe side
# of the exact one (rounding error 0 or of the right sign) and steps one
# ulp outward otherwise; an unknown (NaN) error always steps.

_SPLITTER = 134217729.0  # Veltkamp's splitter for binary64, 2**27 + 1
_TINY = 2.0 ** -960  # below this a product's error term may underflow


def _sum_error(a: float, b: float, s: float) -> float:
    """``(a + b) - s`` for ``s = fl(a + b)``, exactly (TwoSum)."""
    b_virtual = s - a
    return (a - (s - b_virtual)) + (b - b_virtual)


def _product_error(a: float, b: float, p: float) -> float:
    """``a * b - p`` for ``p = fl(a * b)``, exactly (Dekker's
    TwoProduct); NaN where it may have underflowed."""
    if a == 0.0 or b == 0.0:
        return 0.0
    if abs(p) < _TINY:
        return math.nan
    c = _SPLITTER * a
    a_hi = c - (c - a)
    c = _SPLITTER * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def add_down(a: float, b: float) -> float:
    s = a + b
    return s if _sum_error(a, b, s) >= 0.0 else math.nextafter(s, -math.inf)


def add_up(a: float, b: float) -> float:
    s = a + b
    return s if _sum_error(a, b, s) <= 0.0 else math.nextafter(s, math.inf)


def mul_down(a: float, b: float) -> float:
    p = a * b
    return (p if _product_error(a, b, p) >= 0.0
            else math.nextafter(p, -math.inf))


def mul_up(a: float, b: float) -> float:
    p = a * b
    return p if _product_error(a, b, p) <= 0.0 else math.nextafter(p, math.inf)


def _fold(op: Callable[[float, float], float], start: float,
          values: Iterable[float]) -> float:
    """``start`` combined with each value in turn by a directed ``op``."""
    for v in values:
        start = op(start, v)
    return start


def _clamp(lo: float, hi: float) -> Interval:
    return Interval(min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))


def gate_interval_independent(gate_type: GateType,
                              inputs: Sequence[Interval]) -> Interval:
    """Output interval of one gate whose inputs are independent.

    Monotone gates (AND/OR cores) evaluate the closed form at the
    matching corner; the parity fold is bilinear per step, so its
    extrema sit on corners of each ``(partial, input)`` box.
    """
    spec: GateSpec = gate_spec(gate_type)
    spec.validate_arity(len(inputs))
    if gate_type is GateType.BUFF:
        return inputs[0]
    if gate_type is GateType.NOT:
        return inputs[0].complement()
    if gate_type in (GateType.AND, GateType.NAND):
        result = _clamp(_fold(mul_down, 1.0, (x.lo for x in inputs)),
                        _fold(mul_up, 1.0, (x.hi for x in inputs)))
        return result.complement() if spec.inverting else result
    if gate_type in (GateType.OR, GateType.NOR):
        zeros = _clamp(
            _fold(mul_down, 1.0, (add_down(1.0, -x.hi) for x in inputs)),
            _fold(mul_up, 1.0, (add_up(1.0, -x.lo) for x in inputs)))
        return zeros if spec.inverting else zeros.complement()
    # Parity: fold the two-value XOR probability, corner-evaluating the
    # bilinear step p*(1-x) + (1-p)*x over each (p, x) box.
    acc = Interval.point(0.0)
    for x in inputs:
        corners = [(p, v) for p in (acc.lo, acc.hi) for v in (x.lo, x.hi)]
        acc = _clamp(
            min(add_down(mul_down(p, add_down(1.0, -v)),
                         mul_down(add_down(1.0, -p), v))
                for p, v in corners),
            max(add_up(mul_up(p, add_up(1.0, -v)),
                       mul_up(add_up(1.0, -p), v))
                for p, v in corners))
    return acc.complement() if spec.inverting else acc


def gate_interval_frechet(gate_type: GateType,
                          inputs: Sequence[Interval]) -> Interval:
    """Output interval valid under any joint input distribution.

    AND of events: ``P(all) in [max(0, sum p_i - (k-1)), min p_i]``;
    OR: ``P(any) in [max p_i, min(1, sum p_i)]`` — the Fréchet–Hoeffding
    bounds.  Parity folds the pairwise XOR identity ``P(xor) = p + q -
    2 P(and)`` with the AND term swept over its Fréchet range.
    """
    spec = gate_spec(gate_type)
    spec.validate_arity(len(inputs))
    if gate_type is GateType.BUFF:
        return inputs[0]
    if gate_type is GateType.NOT:
        return inputs[0].complement()
    if gate_type in (GateType.AND, GateType.NAND):
        total = _fold(add_down, 0.0, (x.lo for x in inputs))
        lo = max(0.0, add_down(total, 1 - len(inputs)))
        hi = min(x.hi for x in inputs)
        result = _clamp(lo, max(lo, hi))
        return result.complement() if spec.inverting else result
    if gate_type in (GateType.OR, GateType.NOR):
        lo = max(x.lo for x in inputs)
        hi = min(1.0, _fold(add_up, 0.0, (x.hi for x in inputs)))
        result = _clamp(lo, max(lo, hi))
        return result.complement() if spec.inverting else result
    acc = Interval.point(0.0)
    for x in inputs:
        acc = _xor_frechet(acc, x)
    return acc.complement() if spec.inverting else acc


def _xor_frechet(p: Interval, q: Interval) -> Interval:
    # min over joints of |P(p) - P(q)|, then over the box:
    lo = max(0.0, add_down(p.lo, -q.hi), add_down(q.lo, -p.hi))
    # max over joints is min(s, 2 - s) with s = P(p) + P(q):
    s_lo = add_down(p.lo, q.lo)
    s_hi = add_up(p.hi, q.hi)
    if s_lo <= 1.0 <= s_hi:
        hi = 1.0
    elif s_hi < 1.0:
        hi = s_hi
    else:
        hi = add_up(2.0, -s_lo)
    return _clamp(lo, max(lo, hi))
