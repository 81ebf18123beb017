"""Dynamic switching-power estimation from toggling rates.

The classic CV^2 f model: every net toggle charges/discharges the net's load
capacitance, so

    P = 0.5 * Vdd^2 * f_clk * sum_nets C_net * rho_net

with rho the per-cycle transition density.  The load model is a simple
fanout-proportional capacitance; the point of this module is to demonstrate
the paper's Sec. 3.1 claim that SPSTA's TOP integrals (toggling rates) feed
directly into power estimation, not to be a signoff power tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.netlist.core import Netlist


@dataclass(frozen=True)
class PowerReport:
    """Total dynamic power plus the per-net breakdown."""

    total_watts: float
    per_net_watts: Mapping[str, float]

    def top_consumers(self, n: int = 10):
        """The ``n`` nets with the highest switching power."""
        ranked = sorted(self.per_net_watts.items(),
                        key=lambda kv: kv[1], reverse=True)
        return ranked[:n]


def switching_power(netlist: Netlist,
                    toggling_rates: Mapping[str, float],
                    vdd: float = 1.0,
                    f_clk: float = 1.0e9,
                    c_gate_input: float = 2.0e-15,
                    c_wire: float = 1.0e-15) -> PowerReport:
    """Estimate dynamic power from per-net toggling rates.

    ``toggling_rates`` maps nets to expected transitions per cycle — from
    :func:`repro.power.density.transition_densities`, from an SPSTA result's
    :meth:`~repro.core.spsta.SpstaResult.toggling_rate`, or from a Monte
    Carlo result's
    :meth:`~repro.sim.montecarlo.StreamResult.toggling_rate`.
    Net load = wire capacitance + one gate-input capacitance per fanout.
    """
    if vdd <= 0.0 or f_clk <= 0.0:
        raise ValueError("vdd and f_clk must be positive")
    per_net: Dict[str, float] = {}
    for net in netlist.nets:
        rate = toggling_rates.get(net)
        if rate is None:
            continue
        load = c_wire + c_gate_input * len(netlist.fanouts(net))
        per_net[net] = 0.5 * vdd * vdd * f_clk * load * rate
    return PowerReport(sum(per_net.values()), per_net)
