"""Gate-level structural Verilog reader/writer.

Supports the primitive-instantiation subset that gate-level academic
netlists (ISCAS'89 conversions, synthesized benchmarks) actually use:

    module s27 (G0, G1, G17);
      input G0, G1;
      output G17;
      wire n1, n2;
      nand U1 (n1, G0, G1);       // first port drives, the rest read
      not  U2 (G17, n1);
      dff  U3 (q, d);             // common academic DFF primitive
      assign y = n1;              // treated as a buffer
    endmodule

Out of scope (rejected with clear errors): vectors/buses, expressions on
``assign`` right-hand sides, parameterized instances, and hierarchies with
more than one module per file.
"""

from __future__ import annotations

from pathlib import Path
import re
from typing import Dict, List, Union

from repro.logic.gates import GateType
from repro.netlist.core import Gate, Netlist

_PRIMITIVES: Dict[str, GateType] = {
    "and": GateType.AND,
    "or": GateType.OR,
    "nand": GateType.NAND,
    "nor": GateType.NOR,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "buf": GateType.BUFF,
    "buff": GateType.BUFF,
    "dff": GateType.DFF,
}

_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*|\\[^\s]+"

_MODULE_RE = re.compile(
    rf"module\s+({_IDENT})\s*(?:\(([^)]*)\))?\s*;", re.DOTALL)
_DECL_RE = re.compile(
    rf"(input|output|wire)\s+([^;]+);")
_INSTANCE_RE = re.compile(
    rf"({_IDENT})(?:\s+({_IDENT}))?\s*\(([^)]*)\)\s*;")
_ASSIGN_RE = re.compile(
    rf"assign\s+({_IDENT})\s*=\s*({_IDENT})\s*;")


class VerilogParseError(ValueError):
    """Raised on syntax or unsupported constructs, with context."""


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def _split_names(decl: str, context: str) -> List[str]:
    names = []
    for part in decl.split(","):
        name = part.strip()
        if not name:
            continue
        if "[" in name or "]" in name:
            raise VerilogParseError(
                f"vector declarations are not supported: {context!r}")
        names.append(name.lstrip("\\"))
    return names


def parse_verilog(text: str, name: str = "") -> Netlist:
    """Parse one structural gate-level module into a :class:`Netlist`."""
    clean = _strip_comments(text)
    module = _MODULE_RE.search(clean)
    if module is None:
        raise VerilogParseError("no module declaration found")
    if _MODULE_RE.search(clean, module.end()) is not None:
        raise VerilogParseError("multiple modules per file are not supported")
    module_name = name or module.group(1).lstrip("\\")
    body = clean[module.end():]
    end = body.find("endmodule")
    if end < 0:
        raise VerilogParseError("missing endmodule")
    body = body[:end]

    inputs: List[str] = []
    outputs: List[str] = []
    for match in _DECL_RE.finditer(body):
        kind, decl = match.group(1), match.group(2)
        names = _split_names(decl, match.group(0))
        if kind == "input":
            inputs.extend(names)
        elif kind == "output":
            outputs.extend(names)
        # wires carry no semantic information for us.
    body_wo_decls = _DECL_RE.sub(" ", body)

    gates: List[Gate] = []
    for match in _ASSIGN_RE.finditer(body_wo_decls):
        lhs, rhs = (match.group(1).lstrip("\\"),
                    match.group(2).lstrip("\\"))
        gates.append(Gate(lhs, GateType.BUFF, (rhs,)))
    body_wo_assigns = _ASSIGN_RE.sub(" ", body_wo_decls)

    for match in _INSTANCE_RE.finditer(body_wo_assigns):
        prim, _instance, ports_text = match.groups()
        prim_lower = prim.lower()
        if prim_lower == "module":
            continue
        gate_type = _PRIMITIVES.get(prim_lower)
        if gate_type is None:
            raise VerilogParseError(
                f"unsupported primitive or submodule {prim!r} "
                f"(supported: {', '.join(sorted(_PRIMITIVES))})")
        ports = _split_names(ports_text, match.group(0))
        if len(ports) < 2:
            raise VerilogParseError(
                f"instance of {prim!r} needs an output and at least one "
                f"input: {match.group(0)!r}")
        gates.append(Gate(ports[0], gate_type, tuple(ports[1:])))

    try:
        return Netlist(module_name, inputs, outputs, gates)
    except ValueError as exc:
        raise VerilogParseError(str(exc)) from exc


def parse_verilog_file(path: Union[str, Path]) -> Netlist:
    path = Path(path)
    return parse_verilog(path.read_text())


def write_verilog(netlist: Netlist) -> str:
    """Serialize a netlist as structural Verilog (parse round-trips)."""
    ports = list(netlist.inputs) + list(netlist.outputs)
    lines = [f"module {netlist.name} ({', '.join(ports)});"]
    if netlist.inputs:
        lines.append(f"  input {', '.join(netlist.inputs)};")
    if netlist.outputs:
        lines.append(f"  output {', '.join(netlist.outputs)};")
    internal = [net for net in netlist.gates
                if net not in set(netlist.outputs)]
    if internal:
        lines.append(f"  wire {', '.join(internal)};")
    lines.append("")
    prim_of = {gate_type: prim for prim, gate_type in _PRIMITIVES.items()
               if prim not in ("buff",)}
    for i, gate in enumerate(netlist.gates.values()):
        prim = prim_of[gate.gate_type]
        ports_text = ", ".join((gate.name,) + gate.inputs)
        lines.append(f"  {prim} U{i} ({ports_text});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
