"""Tests for repro.netlist.verilog — structural Verilog I/O."""

import pytest

from repro.logic.gates import GateType
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.verilog import (
    VerilogParseError,
    parse_verilog,
    parse_verilog_file,
    write_verilog,
)

SAMPLE = """
// gate-level sample
module top (a, b, c, y, q);
  input a, b;
  input c;
  output y, q;
  wire n1, n2;

  nand U1 (n1, a, b);      /* two-input nand */
  xor  U2 (n2, n1, c);
  not  U3 (y, n2);
  dff  FF (q, n2);
endmodule
"""


class TestParsing:
    def test_basic_module(self):
        net = parse_verilog(SAMPLE)
        assert net.name == "top"
        assert net.inputs == ("a", "b", "c")
        assert net.outputs == ("y", "q")
        assert net.gates["n1"].gate_type is GateType.NAND
        assert net.gates["n2"].inputs == ("n1", "c")
        assert net.gates["q"].gate_type is GateType.DFF

    def test_comments_stripped(self):
        net = parse_verilog(SAMPLE)
        assert "U1" not in net.gates  # instance names are not nets

    def test_assign_becomes_buffer(self):
        net = parse_verilog("""
            module m (a, y);
              input a; output y;
              assign y = a;
            endmodule""")
        assert net.gates["y"].gate_type is GateType.BUFF
        assert net.gates["y"].inputs == ("a",)

    def test_instance_name_optional(self):
        net = parse_verilog("""
            module m (a, y);
              input a; output y;
              not (y, a);
            endmodule""")
        assert net.gates["y"].gate_type is GateType.NOT

    def test_buf_alias(self):
        net = parse_verilog("""
            module m (a, y);
              input a; output y;
              buf B (y, a);
            endmodule""")
        assert net.gates["y"].gate_type is GateType.BUFF

    def test_explicit_name_override(self):
        net = parse_verilog(SAMPLE, name="renamed")
        assert net.name == "renamed"

    def test_no_module_rejected(self):
        with pytest.raises(VerilogParseError, match="no module"):
            parse_verilog("wire x;")

    def test_missing_endmodule_rejected(self):
        with pytest.raises(VerilogParseError, match="endmodule"):
            parse_verilog("module m (a); input a;")

    def test_two_modules_rejected(self):
        with pytest.raises(VerilogParseError, match="multiple modules"):
            parse_verilog("""
                module a (x); input x; endmodule
                module b (y); input y; endmodule""")

    def test_vectors_rejected(self):
        with pytest.raises(VerilogParseError, match="vector"):
            parse_verilog("""
                module m (a, y);
                  input [3:0] a; output y;
                endmodule""")

    def test_unknown_primitive_rejected(self):
        with pytest.raises(VerilogParseError, match="unsupported primitive"):
            parse_verilog("""
                module m (a, y);
                  input a; output y;
                  latch L (y, a);
                endmodule""")

    @pytest.mark.parametrize("cell,expected", [
        ("nand", None),
        ("foo", "unsupported primitive or submodule 'foo'"),
    ], ids=["primitive", "unknown-cell"])
    def test_instance_name_touching_its_ports(self, cell, expected):
        """``nand g1(b, a);`` (no space before the port list) is an
        instance like any other, not text to skip."""
        text = f"""
            module m (a, b);
              input a; output b;
              {cell} g1(b, a);
            endmodule"""
        if expected is not None:
            with pytest.raises(VerilogParseError, match=expected):
                parse_verilog(text)
            return
        net = parse_verilog(text)
        assert net.gates["b"].gate_type is GateType.NAND
        assert net.gates["b"].inputs == ("a",)

    def test_semantic_errors_wrapped(self):
        with pytest.raises(VerilogParseError, match="undriven"):
            parse_verilog("""
                module m (a, y);
                  input a; output y;
                  not N (y, ghost);
                endmodule""")

    def test_parse_file(self, tmp_path):
        path = tmp_path / "m.v"
        path.write_text(SAMPLE)
        assert parse_verilog_file(path).name == "top"


class TestRoundTrip:
    def test_write_then_parse(self, mixed_circuit):
        text = write_verilog(mixed_circuit)
        back = parse_verilog(text)
        assert back.inputs == mixed_circuit.inputs
        assert back.outputs == mixed_circuit.outputs
        for name, gate in mixed_circuit.gates.items():
            assert back.gates[name].gate_type is gate.gate_type
            assert back.gates[name].inputs == gate.inputs

    def test_round_trip_s27(self):
        s27 = benchmark_circuit("s27")
        back = parse_verilog(write_verilog(s27))
        assert set(back.gates) == set(s27.gates)
        assert len(back.dffs) == 3

    def test_round_trip_generated_benchmark(self):
        netlist = benchmark_circuit("s298")
        back = parse_verilog(write_verilog(netlist))
        assert set(back.gates) == set(netlist.gates)

    def test_cross_format_equivalence(self):
        """bench -> netlist -> verilog -> netlist gives the same timing."""
        from repro.core.inputs import CONFIG_I
        from repro.core.spsta import run_spsta
        from repro.netlist.analysis import critical_endpoint

        original = benchmark_circuit("s27")
        back = parse_verilog(write_verilog(original))
        endpoint, _ = critical_endpoint(original)
        a = run_spsta(original, CONFIG_I).report(endpoint, "rise")
        b = run_spsta(back, CONFIG_I).report(endpoint, "rise")
        assert a == pytest.approx(b)
