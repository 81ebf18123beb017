"""Write ``perfbench/reference.json``: naive-engine reports at each
signoff circuit's critical endpoint, the oracle the ``signoff-batch``
output check compares the fast engine against.

Run from the repository root: ``python3 perfbench/record_reference.py``
(about a minute).  The circuits are the bundled benchmarks, so the
reference does not depend on the workload seed.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.signoff import DELAY, FULL, GRID, REFERENCE, SMOKE  # noqa: E402
from repro import CONFIG_I, NormalDelay, benchmark_circuit, \
    critical_endpoint, run_spsta  # noqa: E402
from repro.core import GridAlgebra  # noqa: E402
from repro.stats.grid import TimeGrid  # noqa: E402


def main() -> None:
    out = {}
    for name in SMOKE["circuits"] + FULL["circuits"]:
        netlist = benchmark_circuit(name)
        endpoint, _depth = critical_endpoint(netlist)
        entry = {"endpoint": endpoint}
        grid = TimeGrid(*GRID)
        for key, algebra in (("moments", None),
                             ("grid", GridAlgebra(grid))):
            result = run_spsta(netlist, CONFIG_I, NormalDelay(*DELAY),
                               algebra, engine="naive")
            entry[key] = {d: list(result.report(endpoint, d))
                          for d in ("rise", "fall")}
        out[name] = entry
        print(name, endpoint, flush=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
