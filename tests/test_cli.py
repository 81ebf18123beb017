"""Tests for repro.cli — the ``spsta`` command-line interface."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "s27"])
        assert args.circuit == "s27"
        assert args.config == "I"
        assert args.trials == 10_000


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "s27"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out
        assert "4 PI" in out

    def test_analyze_benchmark(self, capsys):
        assert main(["analyze", "s27", "--trials", "500"]) == 0
        out = capsys.readouterr().out
        assert "SPSTA" in out and "SSTA" in out and "MC(500)" in out

    def test_analyze_without_mc(self, capsys):
        assert main(["analyze", "s27", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "MC(" not in out

    def test_analyze_config_ii(self, capsys):
        assert main(["analyze", "s27", "--config", "II",
                     "--trials", "0"]) == 0

    def test_analyze_bench_file(self, capsys, tmp_path):
        path = tmp_path / "tiny.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        assert main(["analyze", str(path), "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out

    def test_unknown_circuit_exits(self):
        with pytest.raises(SystemExit, match="unknown circuit"):
            main(["analyze", "nonexistent"])

    def test_bad_config_exits(self):
        with pytest.raises(SystemExit, match="config must be"):
            main(["analyze", "s27", "--config", "III"])

    def test_table2_small(self, capsys):
        # Full benchmark list but few trials; keep runtime modest.
        assert main(["table2", "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Error vs Monte Carlo" in out


class TestHierCommand:
    def test_hier_report(self, capsys):
        assert main(["hier", "s27", "--partitions", "3"]) == 0
        out = capsys.readouterr().out
        assert "partition of s27" in out
        assert "3 partitions" in out

    def test_hier_json_and_compare_flat(self, tmp_path, capsys):
        import json
        path = tmp_path / "hier.json"
        assert main(["hier", "s208", "--partitions", "4",
                     "--compare-flat", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["partition"]["n_regions"] == 4
        assert report["complete"] is True
        deltas = report["compare_flat"]["max_endpoint_delta"]
        assert deltas["probability"] == 0.0
        assert deltas["mean"] == 0.0

    def test_hier_cache_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["hier", "s27", "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["hier", "s27", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "cache 4 hits / 0 misses" in out

    def test_analyze_partition_matches_flat(self, capsys):
        assert main(["analyze", "s27", "--partition", "3",
                     "--trials", "0"]) == 0
        hier_out = capsys.readouterr().out
        assert "hierarchical: 3 regions" in hier_out
        assert main(["analyze", "s27", "--trials", "0"]) == 0
        flat_out = capsys.readouterr().out
        hier_rows = [line for line in hier_out.splitlines()
                     if "SPSTA" in line or "signal probability" in line]
        flat_rows = [line for line in flat_out.splitlines()
                     if "SPSTA" in line or "signal probability" in line]
        assert hier_rows == flat_rows

    def test_bad_grid_spec_exits(self):
        with pytest.raises(SystemExit, match="^--grid: grid must be"):
            main(["hier", "s27", "--algebra", "grid", "--grid", "1:2"])

    def test_analyze_partition_rejects_naive_engine(self):
        with pytest.raises(SystemExit, match="fast engine"):
            main(["analyze", "s27", "--partition", "2",
                  "--engine", "naive", "--trials", "0"])


class TestConvertGenerateSlack:
    def test_convert_bench_to_verilog_and_back(self, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.bench import write_bench
        from repro.netlist.benchmarks import benchmark_circuit

        bench_path = tmp_path / "s27.bench"
        bench_path.write_text(write_bench(benchmark_circuit("s27")))
        v_path = tmp_path / "s27.v"
        assert main(["convert", str(bench_path), str(v_path)]) == 0
        back_path = tmp_path / "back.bench"
        assert main(["convert", str(v_path), str(back_path)]) == 0
        from repro.netlist.bench import parse_bench_file
        back = parse_bench_file(back_path)
        assert set(back.gates) == set(benchmark_circuit("s27").gates)

    def test_convert_rejects_unknown_suffix(self, tmp_path):
        from repro.cli import main
        src = tmp_path / "x.bench"
        src.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        import pytest as _pytest
        with _pytest.raises(SystemExit, match="unknown output format"):
            main(["convert", str(src), str(tmp_path / "x.xyz")])

    def test_generate_to_stdout(self, capsys):
        from repro.cli import main
        assert main(["generate", "--inputs", "4", "--outputs", "2",
                     "--dffs", "2", "--gates", "20", "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "INPUT(" in out and "DFF(" in out

    def test_generate_to_file_parses(self, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.bench import parse_bench_file
        path = tmp_path / "gen.bench"
        assert main(["generate", "--gates", "30", "--depth", "5",
                     "--output", str(path)]) == 0
        netlist = parse_bench_file(path)
        assert len(netlist.gates) >= 30

    def test_slack_command(self, capsys):
        from repro.cli import main
        assert main(["slack", "s27", "--clock", "5"]) == 0
        out = capsys.readouterr().out
        assert "worst slack" in out
        assert "histogram" in out


class TestOptimizeCommand:
    def test_optimize_report(self, capsys):
        assert main(["optimize", "s298", "--clock-period", "5",
                     "--target-yield", "0.999", "--max-area", "6"]) == 0
        out = capsys.readouterr().out
        assert "yield" in out
        assert "incremental re-timing" in out

    def test_optimize_json_verify_and_mc(self, tmp_path, capsys):
        import json
        path = tmp_path / "opt.json"
        assert main(["optimize", "s27", "--clock-period", "3.5",
                     "--target-yield", "0.999", "--max-area", "4",
                     "--algebra", "mixture", "--verify-moves",
                     "--mc-validate", "2000", "--seed", "3",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verified bit-exact" in out
        assert "MC oracle" in out
        report = json.loads(path.read_text())
        assert report["report"] == "spsta-optimize"
        assert report["metric_after"] >= report["metric_before"]
        assert report["area_cost"] <= 4.0
        assert report["mc_validation"]["trials"] == 2000
        assert report["verified_moves"] == len([
            m for m in report["moves"]]) + len([
                m for m in report["moves"] if not m["accepted"]])
        assert report["recomputed_gates"] <= \
            report["full_pass_equivalent_gates"]


class TestTestabilityCommand:
    def test_testability(self, capsys):
        from repro.cli import main
        assert main(["testability", "s27"]) == 0
        out = capsys.readouterr().out
        assert "hardest faults" in out
        assert "expected coverage" in out

    def test_testability_with_atpg(self, capsys):
        from repro.cli import main
        assert main(["testability", "s27", "--atpg", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "deterministic test set" in out


BAD_BENCH = "INPUT(a)\nOUTPUT(b)\nb = FOO(a)\n"


class TestAnalysisSpecOptions:
    def test_option_group_and_serve_request_name_one_spec(self):
        from repro.cli import _spec
        from repro.serve import Server

        args = build_parser().parse_args(
            ["sweep", "s27", "--config", "ii", "--algebra", "grid",
             "--grid=-4:30:512"])
        cli_spec = _spec(args)
        served, fingerprint = Server()._spec_for(
            {"config": "II", "algebra": "grid", "grid": "-4:30:512"})
        assert cli_spec == served
        assert cli_spec.fingerprint() == fingerprint

    def test_every_spec_subcommand_keeps_its_defaults(self):
        from repro.spec import DEFAULT_GRID

        parser = build_parser()
        for argv in (["analyze", "s27"], ["lint", "s27"], ["table2"],
                     ["table3"], ["verify"], ["bounds", "s27"],
                     ["report", "s27", "--clock", "5"], ["serve"],
                     ["sweep", "s27"], ["hier", "s27"],
                     ["optimize", "s27", "--clock-period", "5"]):
            args = parser.parse_args(argv)
            assert args.config == "I", argv
            if argv[0] in ("sweep", "hier", "serve", "optimize"):
                assert args.algebra == "moments", argv
            if argv[0] in ("sweep", "hier", "serve"):
                assert args.grid == DEFAULT_GRID, argv
        assert parser.parse_args(["lint", "s27"]).grid is None

    def test_serve_refuses_a_bad_default_grid(self):
        with pytest.raises(SystemExit, match="^--grid: grid must be"):
            main(["serve", "--grid", "bogus"])

    def test_serve_refuses_a_bad_default_config(self):
        with pytest.raises(SystemExit, match="^--config: config must be"):
            main(["serve", "--config", "III"])


class TestCircuitLoading:
    @pytest.mark.parametrize("command", ["analyze", "lint", "stats",
                                         "bounds"])
    def test_unparseable_bench_is_one_line(self, command, tmp_path):
        path = tmp_path / "bad.bench"
        path.write_text(BAD_BENCH)
        with pytest.raises(SystemExit) as info:
            main([command, str(path)])
        message = str(info.value.code)
        assert "\n" not in message
        assert message == (f"circuit {str(path)!r} does not parse: "
                           f"line 3: unknown gate type 'FOO': 'b = FOO(a)'")

    def test_convert_unparseable_bench_is_one_line(self, tmp_path):
        path = tmp_path / "bad.bench"
        path.write_text(BAD_BENCH)
        with pytest.raises(SystemExit) as info:
            main(["convert", str(path), str(tmp_path / "out.v")])
        assert str(info.value.code) == (
            f"circuit {str(path)!r} does not parse: "
            f"line 3: unknown gate type 'FOO': 'b = FOO(a)'")
        assert not (tmp_path / "out.v").exists()

    def test_convert_unparseable_verilog_is_one_line(self, tmp_path):
        path = tmp_path / "bad.v"
        path.write_text("module m(a, b);\n  input a;\n  output b;\n")
        with pytest.raises(SystemExit) as info:
            main(["convert", str(path), str(tmp_path / "out.bench")])
        assert str(info.value.code) == (
            f"circuit {str(path)!r} does not parse: missing endmodule")
        assert not (tmp_path / "out.bench").exists()


class TestScenarioSpecFile:
    @pytest.mark.parametrize("text,kind", [("[1]", "list"), ("3", "int"),
                                           ("null", "NoneType")],
                             ids=["list", "number", "null"])
    def test_non_object_spec_is_one_line(self, text, kind, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as info:
            main(["sweep", "s27", "--scenarios", str(path)])
        assert str(info.value.code) == (
            f"bad scenario spec {path}: expected a JSON object, got {kind}")

    @pytest.mark.parametrize("spec,message", [
        ({"corners": 5}, "bad scenario spec {}: 'corners' must be a JSON "
                         "list"),
        ({"derate": [1]}, "bad derate entry in {}: expected a JSON object"),
    ], ids=["corners-number", "derate-list"])
    def test_wrongly_shaped_key_is_one_line(self, spec, message, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as info:
            main(["sweep", "s27", "--scenarios", str(path)])
        assert str(info.value.code) == message.format(path)


class TestTrialCounts:
    @pytest.mark.parametrize("argv,message", [
        (["analyze", "s27", "--trials", "-5"], "must be >= 0, got -5"),
        (["verify", "--trials", "0"], "must be >= 1, got 0"),
        (["verify", "--trials", "-3"], "must be >= 1, got -3"),
        (["verify", "--trials", "x"], "invalid int value: 'x'"),
    ], ids=["analyze-negative", "verify-zero", "verify-negative",
            "verify-not-a-number"])
    def test_out_of_range_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --trials: {message}" in err

    def test_smallest_counts_parse(self):
        parser = build_parser()
        assert parser.parse_args(["analyze", "s27", "--trials",
                                  "0"]).trials == 0
        assert parser.parse_args(["verify", "--trials", "1"]).trials == 1
        assert parser.parse_args(["verify"]).trials == 20_000


class TestStoreOpenErrors:
    @pytest.mark.parametrize("argv", [["hier", "s27"], ["serve"]])
    def test_unrecognised_manifest_is_one_line(self, argv, tmp_path):
        (tmp_path / "manifest.json").write_text("not json")
        with pytest.raises(SystemExit) as info:
            main(argv + ["--cache", str(tmp_path)])
        message = str(info.value.code)
        assert message.startswith("--cache: ") and "\n" not in message
        assert "refusing to use the directory as a cache" in message


class TestOneLineExits:
    """An out-of-range number exits 2 with the usage line; an input file
    that cannot be read or is not JSON of the right shape exits 1 with
    one line naming it.  Neither prints a traceback."""

    @pytest.mark.parametrize("argv,code,message", [
        (["hier", "s27", "--partitions", "0"], 2,
         "argument --partitions: must be >= 1, got 0"),
        (["optimize", "s27", "--clock-period", "-5"], 2,
         "argument --clock-period: must be > 0, got -5"),
        (["lint", "s27", "--baseline", "{missing}"], 1,
         "cannot read lint baseline {missing}: No such file or directory"),
        (["lint", "s27", "--baseline", "{garbage}"], 1,
         "bad lint baseline {garbage}: not JSON ("),
        (["lint", "s27", "--baseline", "{array}"], 1,
         "{array}: not a lint baseline"),
        (["sweep", "s27", "--scenarios", "{missing}"], 1,
         "cannot read scenario spec {missing}: No such file or directory"),
        (["sweep", "s27", "--scenarios", "{garbage}"], 1,
         "bad scenario spec {garbage}: not JSON ("),
        (["generate", "--gates", "0"], 2,
         "argument --gates: must be >= --depth (8), got 0"),
    ], ids=["hier-partitions", "optimize-clock-period", "baseline-missing",
            "baseline-not-json", "baseline-shape", "scenarios-missing",
            "scenarios-not-json", "generate-gates-below-depth"])
    def test_one_line_exit(self, argv, code, message, tmp_path):
        files = {name: tmp_path / f"{name}.json"
                 for name in ("missing", "garbage", "array")}
        files["garbage"].write_text("{not json")
        files["array"].write_text("[1]")
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro",
             *(arg.format(**files) for arg in argv)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        if code == 2:
            assert lines[0].startswith("usage: ")
            errors = [line for line in lines if ": error: " in line]
            assert errors == [lines[-1]]
            assert lines[-1].endswith(message)
        else:
            assert len(lines) == 1
            assert lines[0].startswith(message.format(**files))

    @pytest.mark.parametrize("argv", [
        ["bounds", "s27", "--endpoints", "-1"],
        ["report", "s27", "--clock", "5", "--endpoints", "-1"],
        ["testability", "s27", "--top", "-1"],
        ["optimize", "s27", "--clock-period", "5", "--max-iterations", "-1"],
    ], ids=["bounds-endpoints", "report-endpoints", "testability-top",
            "optimize-max-iterations"])
    def test_negative_count_is_a_usage_exit(self, argv, capsys):
        """A negative count exits 2 before any analysis runs, where it
        used to run: ``bounds --endpoints -1`` sliced ``ranked[:-1]`` and
        silently dropped the last endpoint.  Zero keeps its meaning."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: ")
        assert lines[-1].endswith(
            f"argument {argv[-2]}: must be >= 0, got -1")
        assert main([*argv[:-1], "0"]) == 0


class TestJsonWriter:
    COMMANDS = {
        "optimize": ["optimize", "s27", "--clock-period", "5",
                     "--max-iterations", "2"],
        "sweep": ["sweep", "s27", "--corners", "tt:1.0"],
        "hier": ["hier", "s27", "--partitions", "2"],
        "lint": ["lint", "s27"],
        "bounds": ["bounds", "s27"],
        "verify": ["verify", "--random", "0", "--benches", "s27",
                   "--trials", "400"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_json_file_and_stdout(self, command, tmp_path, capsys):
        import json

        path = tmp_path / f"{command}.json"
        assert main(self.COMMANDS[command] + ["--json", str(path)]) == 0
        text = path.read_text()
        assert text.endswith("}\n")
        payload = json.loads(text)
        assert f"wrote {path}" in capsys.readouterr().out
        assert main(self.COMMANDS[command] + ["--json", "-"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):]).keys() == payload.keys()
