"""End-to-end tests of the ``spsta serve`` daemon.

The guarantees pinned here (docs/serving.md):

- a repeated query is a cache **hit** whose payload is *bit-identical*
  to the cold response (same JSON serialization, replayed);
- a delay edit re-times incrementally and the served numbers match a
  fresh full :func:`run_spsta` over the same effective delays exactly;
- reverting an edit restores the original fingerprint, so pre-edit
  cache entries become valid again (keys are semantic, not temporal);
- malformed, oversized, unknown-target, and lint-rejected requests are
  refused with machine-readable error codes and never kill the daemon;
- the LRU honors ``--cache-entries`` and the optional disk tier makes a
  *restarted* daemon start warm with bit-identical payloads;
- the stdio transport round-trips a scripted session through a real
  subprocess.
"""

from __future__ import annotations

import json
from pathlib import Path
import subprocess
import sys

import pytest

from repro.core.incremental_spsta import assert_matches_full
from repro.core.inputs import CONFIG_I
from repro.core.spsta import run_spsta
from repro.netlist.benchmarks import benchmark_circuit
from repro.serve import (
    PROTOCOL_VERSION,
    RequestError,
    ResultCache,
    Server,
    ServeCacheError,
    ServeOptions,
    validate_request,
)
from repro.serve.protocol import parse_delay_model, parse_grid

BENCH_TINY = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"

REPO_ROOT = Path(__file__).resolve().parent.parent


def _serve_subprocess(session_lines):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve"],
        input="\n".join(json.dumps(r) for r in session_lines) + "\n",
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"),
             "PATH": "/usr/bin:/bin"},
        cwd=str(REPO_ROOT))


def _req(server, **fields):
    fields.setdefault("v", PROTOCOL_VERSION)
    return server.handle(fields)


def _payload_text(response):
    """The canonical serialization the cache stores/replays."""
    return json.dumps(response["result"], sort_keys=True)


@pytest.fixture()
def server():
    return Server(ServeOptions(cache_entries=32))


# -- protocol validation -----------------------------------------------------

class TestProtocol:
    def test_not_an_object(self):
        with pytest.raises(RequestError):
            validate_request([1, 2, 3])

    def test_wrong_version(self):
        with pytest.raises(RequestError):
            validate_request({"v": 99, "op": "status"})

    def test_unknown_op(self):
        with pytest.raises(RequestError):
            validate_request({"v": 1, "op": "explode"})

    def test_bad_direction(self):
        with pytest.raises(RequestError):
            validate_request({"v": 1, "op": "query", "circuit": "s27",
                              "net": "G17", "direction": "sideways"})

    def test_negative_sigma(self):
        with pytest.raises(RequestError):
            validate_request({"v": 1, "op": "edit", "circuit": "s27",
                              "gate": "G14", "mu": 1.0, "sigma": -0.5})

    def test_valid_request_passes(self):
        payload = {"v": 1, "id": 7, "op": "analyze", "circuit": "s27"}
        assert validate_request(payload) is payload

    @pytest.mark.parametrize("payload", [
        {"v": 99, "op": "status"},
        {"op": "status"},
        {"v": 1, "op": "explode"},
        {"v": 1, "op": "query", "direction": "sideways"},
        {"v": 1, "op": "edit", "gate": "G14", "mu": "fast"},
        {"v": 1, "op": "edit", "gate": "G14", "sigma": -0.5},
        {"v": 1, "op": "analyze", "circuit": ""},
        {"v": 1, "op": "analyze", "grid": "1:2"},
        {"v": 1, "op": "analyze", "delay": {"value": 1.0}},
        {"v": 1, "op": "analyze", "delay": {"kind": "quantum"}},
        {"v": 1, "op": "status", "id": [1]},
        {"v": 1, "op": "edit", "clear": "yes"},
    ])
    def test_messages_match_jsonschema_validate(self, payload):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.serve.protocol import REQUEST_SCHEMA

        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(payload, REQUEST_SCHEMA)
        with pytest.raises(RequestError) as got:
            validate_request(payload)
        assert str(got.value) == \
            f"schema violation: {expected.value.message}"
        assert got.value.code == "bad-request"

    def test_schema_is_checked_once(self, monkeypatch):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.schema import CompiledSchema
        from repro.serve import protocol

        cls = jsonschema.validators.validator_for(protocol.REQUEST_SCHEMA)
        checks = []
        original = cls.check_schema

        def counting(schema, *args, **kwargs):
            checks.append(schema)
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", staticmethod(counting))
        monkeypatch.setattr(protocol, "_REQUEST_VALIDATOR",
                            CompiledSchema(protocol.REQUEST_SCHEMA))
        for i in range(100):
            validate_request({"v": 1, "id": i, "op": "query",
                              "circuit": "s27", "net": "G17"})
        assert len(checks) == 1

    def test_delay_specs_round_trip(self):
        from repro.core.delay import NormalDelay, UnitDelay
        from repro.core.nldm import FrozenDelays

        assert parse_delay_model(None) == UnitDelay()
        assert parse_delay_model(
            {"kind": "normal", "mu": 2.0, "sigma": 0.2}) \
            == NormalDelay(2.0, 0.2)
        assert parse_delay_model(
            {"kind": "frozen", "delays": {"g": 1.5}}) \
            == FrozenDelays({"g": 1.5}, 0.0)
        with pytest.raises(RequestError):
            parse_delay_model({"kind": "frozen"})
        with pytest.raises(RequestError):
            parse_delay_model({"kind": "quantum"})

    def test_grid_spec(self):
        grid = parse_grid("-8:60:2048")
        assert grid.n == 2048
        with pytest.raises(RequestError):
            parse_grid("1:2")
        with pytest.raises(RequestError):
            parse_grid("a:b:c")


# -- cold/warm caching -------------------------------------------------------

class TestCaching:
    def test_warm_repeat_is_bit_identical_cache_hit(self, server):
        cold = _req(server, id=1, op="analyze", circuit="s27")
        warm = _req(server, id=2, op="analyze", circuit="s27")
        assert cold["ok"] and not cold["cached"]
        assert warm["ok"] and warm["cached"]
        assert _payload_text(cold) == _payload_text(warm)

    def test_warm_query_meets_latency_bound(self):
        """The acceptance criterion: warm repeat at <= 1/5 cold latency
        on s1196 under the moment algebra (in practice ~1000x)."""
        server = Server(ServeOptions())
        cold = _req(server, id=1, op="analyze", circuit="s1196")
        warm = _req(server, id=2, op="analyze", circuit="s1196")
        assert warm["cached"]
        assert _payload_text(cold) == _payload_text(warm)
        assert warm["seconds"] <= cold["seconds"] / 5

    def test_distinct_parameters_key_separately(self, server):
        a = _req(server, id=1, op="analyze", circuit="s27")
        b = _req(server, id=2, op="analyze", circuit="s27",
                 algebra="mixture")
        c = _req(server, id=3, op="analyze", circuit="s27", config="II")
        d = _req(server, id=4, op="analyze", circuit="s27",
                 delay={"kind": "normal", "mu": 2.0, "sigma": 0.1})
        assert not any(r["cached"] for r in (a, b, c, d))
        assert len({_payload_text(r) for r in (a, b, c, d)}) == 4

    def test_query_and_analyze_key_separately(self, server):
        _req(server, id=1, op="analyze", circuit="s27")
        q = _req(server, id=2, op="query", circuit="s27", net="G17")
        assert q["ok"] and not q["cached"]
        assert _req(server, id=3, op="query", circuit="s27",
                    net="G17")["cached"]

    def test_lru_eviction_honors_cache_entries(self):
        server = Server(ServeOptions(cache_entries=2))
        nets = ["G17", "G10", "G11"]
        for i, net in enumerate(nets):
            _req(server, id=i, op="query", circuit="s27", net=net)
        assert server.cache.evictions == 1
        # oldest key (G17) evicted -> recomputed; newest still cached
        assert not _req(server, id=10, op="query", circuit="s27",
                        net="G17")["cached"]
        assert _req(server, id=11, op="query", circuit="s27",
                    net="G11")["cached"]

    def test_invalidate_purges_circuit(self, server):
        _req(server, id=1, op="analyze", circuit="s27")
        inv = _req(server, id=2, op="invalidate", circuit="s27")
        assert inv["result"]["sessions_dropped"] == 1
        assert inv["result"]["cache_entries_purged"] == 1
        assert not _req(server, id=3, op="analyze", circuit="s27")["cached"]


# -- incremental edits -------------------------------------------------------

class TestEdits:
    def test_edit_retimes_incrementally(self, server):
        _req(server, id=1, op="analyze", circuit="s27")
        edit = _req(server, id=2, op="edit", circuit="s27", gate="G14",
                    mu=2.5, sigma=0.3)
        retime = edit["result"]["retime"]
        assert retime["mode"] == "incremental"
        assert 0 < retime["recomputed"] <= retime["total_gates"]

    def test_edited_state_matches_fresh_full_run_bit_exact(self, server):
        """The acceptance criterion: post-edit responses equal a fresh
        full run_spsta over the same effective delays, exactly."""
        _req(server, id=1, op="edit", circuit="s27", gate="G14",
             mu=2.5, sigma=0.3)
        _req(server, id=2, op="edit", circuit="s27", gate="G8",
             mu=0.7, sigma=0.05)
        (session,) = server._sessions.values()
        assert_matches_full(session.inc, tolerance=0.0)
        served = _req(server, id=3, op="query", circuit="s27",
                      net="G17")["result"]["reports"]
        fresh = run_spsta(benchmark_circuit("s27"), CONFIG_I,
                          session.inc.effective_delay_model(),
                          session.inc.algebra.__class__())
        for report in served:
            p, mean, std = fresh.report(report["net"],
                                        report["direction"])
            assert report["probability"] == p
            assert report["mean"] == mean
            assert report["std"] == std

    def test_reverted_edit_restores_cache_validity(self, server):
        before = _req(server, id=1, op="query", circuit="s27", net="G17")
        _req(server, id=2, op="edit", circuit="s27", gate="G14", mu=9.0)
        during = _req(server, id=3, op="query", circuit="s27", net="G17")
        assert not during["cached"]
        assert _payload_text(during) != _payload_text(before)
        _req(server, id=4, op="edit", circuit="s27", gate="G14",
             clear=True)
        after = _req(server, id=5, op="query", circuit="s27", net="G17")
        assert after["cached"]
        assert _payload_text(after) == _payload_text(before)

    def test_revert_is_a_restore(self, server):
        _req(server, id=1, op="analyze", circuit="s27")
        edit = _req(server, id=2, op="edit", circuit="s27", gate="G14",
                    mu=2.5, sigma=0.3)["result"]["retime"]
        clear = _req(server, id=3, op="edit", circuit="s27", gate="G14",
                     clear=True)["result"]["retime"]
        assert edit["restored"] == 0 and edit["recomputed"] > 0
        assert clear["recomputed"] == 0
        assert clear["restored"] == edit["recomputed"] - edit["skipped"]
        (session,) = server._sessions.values()
        assert_matches_full(session.inc, tolerance=0.0)
        status = _req(server, id=4, op="status")["result"]
        assert status["sessions"][0]["edits"] == 2

    def test_sigma_far_below_grid_pitch(self, server):
        fields = {"circuit": "s27", "algebra": "grid",
                  "grid": "-8:60:512"}
        edit = _req(server, id=1, op="edit", gate="G14", mu=1.5,
                    sigma=0.001, **fields)
        assert edit["ok"], edit
        query = _req(server, id=2, op="query", net="G17", **fields)
        assert query["ok"], query
        (session,) = server._sessions.values()
        assert_matches_full(session.inc, tolerance=0.0)

    def test_structural_edit_rebuilds(self, server):
        edit = _req(server, id=1, op="edit", circuit="tiny",
                    bench=BENCH_TINY)
        assert edit["ok"]
        assert edit["result"]["retime"]["mode"] == "full-rebuild"
        q = _req(server, id=2, op="query", circuit="tiny", net="y")
        assert q["ok"]
        # replacing the structure invalidates the old fingerprint
        edit2 = _req(server, id=3, op="edit", circuit="tiny",
                     bench=BENCH_TINY.replace("NAND", "NOR"))
        assert edit2["ok"]
        q2 = _req(server, id=4, op="query", circuit="tiny", net="y")
        assert not q2["cached"]
        assert _payload_text(q2) != _payload_text(q)

    def test_bad_bench_is_refused(self, server):
        response = _req(server, id=1, op="edit", circuit="tiny",
                        bench="y = AND(a, ghost)\nOUTPUT(y)\n")
        assert not response["ok"]
        assert response["error"]["code"] == "bad-request"


# -- refusals ----------------------------------------------------------------

class TestRefusals:
    def test_malformed_json(self, server):
        response = server.handle_text("{not json")
        assert not response["ok"]
        assert response["error"]["code"] == "bad-request"

    def test_oversized_request(self):
        server = Server(ServeOptions(max_request_bytes=128))
        response = server.handle_text("x" * 200)
        assert not response["ok"]
        assert response["error"]["code"] == "oversized-request"

    def test_unknown_circuit(self, server):
        response = _req(server, id=1, op="analyze",
                        circuit="no_such_circuit_anywhere")
        assert not response["ok"]
        assert response["error"]["code"] == "unknown-circuit"

    def test_unknown_net_and_gate(self, server):
        q = _req(server, id=1, op="query", circuit="s27", net="NOPE")
        assert q["error"]["code"] == "unknown-gate"
        e = _req(server, id=2, op="edit", circuit="s27", gate="NOPE",
                 mu=1.0)
        assert e["error"]["code"] == "unknown-gate"

    def test_lint_preflight_rejects_at_fail_on(self):
        """s27 lints clean of errors but carries warnings: a daemon at
        --fail-on warning refuses it and returns the structured report."""
        strict = Server(ServeOptions(fail_on="warning"))
        response = _req(strict, id=1, op="analyze", circuit="s27")
        assert not response["ok"]
        assert response["error"]["code"] == "lint-rejected"
        detail = response["error"]["detail"]
        assert detail["counts"]["warning"] >= 1
        # ... while the default (error) and "never" both serve it
        assert _req(Server(ServeOptions(fail_on="error")), id=2,
                    op="analyze", circuit="s27")["ok"]
        assert _req(Server(ServeOptions(fail_on="never")), id=3,
                    op="analyze", circuit="s27")["ok"]

    def test_daemon_survives_internal_errors(self, server):
        # id echoed even on failure; later requests unaffected
        bad = _req(server, id="x", op="query", circuit="s27")
        assert not bad["ok"] and bad["id"] == "x"
        assert _req(server, id="y", op="status")["ok"]


# -- result cache unit behaviour ---------------------------------------------

class TestResultCache:
    def test_disk_tier_round_trip(self, tmp_path):
        cache = ResultCache(4, tmp_path / "rc")
        cache.put("k" * 64, {"value": 1.5}, circuit="c1")
        fresh = ResultCache(4, tmp_path / "rc")
        assert fresh.get("k" * 64) == {"value": 1.5}
        assert fresh.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(4, tmp_path / "rc")
        cache.put("k" * 64, {"value": 1.5})
        cache.entry_path("k" * 64).write_bytes(b"garbage")
        fresh = ResultCache(4, tmp_path / "rc")
        assert fresh.get("k" * 64) is None
        assert fresh.disk_entries == 0

    def test_foreign_manifest_refused(self, tmp_path):
        directory = tmp_path / "rc"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"format": "something-else", "entries": {}}))
        with pytest.raises(ServeCacheError):
            ResultCache(4, directory)

    def test_invalidate_covers_disk(self, tmp_path):
        cache = ResultCache(4, tmp_path / "rc")
        cache.put("a" * 64, {"v": 1}, circuit="c1")
        cache.put("b" * 64, {"v": 2}, circuit="c2")
        assert cache.invalidate_circuit("c1") == 1
        fresh = ResultCache(4, tmp_path / "rc")
        assert fresh.get("a" * 64) is None
        assert fresh.get("b" * 64) == {"v": 2}

    def test_memory_eviction_keeps_disk_entry(self, tmp_path):
        cache = ResultCache(1, tmp_path / "rc")
        cache.put("a" * 64, {"v": 1})
        cache.put("b" * 64, {"v": 2})  # evicts a from memory
        assert cache.evictions == 1
        assert cache.get("a" * 64) == {"v": 1}  # promoted back from disk
        assert cache.disk_hits == 1



# -- disk tier across processes ----------------------------------------------

#: A worker process: put ``n`` entries, each under a shared key and under
#: a key of its own, cycling circuits c0..c2; every payload is a
#: function of its key, as content-addressed results are.
_WRITER = """
import sys
from repro.serve.cache import ResultCache
directory, name, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache(4, directory)
for i in range(n):
    for key in (f"{i:064x}", f"{name}{i:061x}"):
        cache.put(key, {"key": key, "pad": "x" * (64 * i)},
                  circuit=f"c{i % 3}")
"""

_INVALIDATOR = """
import sys
from repro.serve.cache import ResultCache
print(ResultCache(4, sys.argv[1]).invalidate_circuit(sys.argv[2]))
"""


def _python(script, *args):
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE, text=True)


class TestDiskTier:
    def test_restart_round_trip(self, tmp_path):
        cache = ResultCache(4, tmp_path / "rc")
        for i in range(6):
            cache.put(f"{i:064x}", {"i": i}, circuit="s27")
        restarted = ResultCache(4, tmp_path / "rc")
        assert restarted.disk_entries == 6
        for i in range(6):
            assert restarted.get(f"{i:064x}", "s27") == {"i": i}
        assert restarted.disk_hits == 6
        manifest = json.loads((tmp_path / "rc" / "manifest.json")
                              .read_text())
        assert manifest == {"format": "spsta-serve-cache", "version": 2}

    def test_concurrent_writers_lose_and_tear_nothing(self, tmp_path):
        directory = tmp_path / "rc"
        ResultCache(4, directory)
        n = 60
        procs = [_python(_WRITER, directory, name, n) for name in "abc"]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        fresh = ResultCache(4, directory)
        keys = [f"{i:064x}" for i in range(n)] + [
            f"{name}{i:061x}" for name in "abc" for i in range(n)]
        for i, key in enumerate(keys):
            expected = {"key": key, "pad": "x" * (64 * (i % n))}
            assert fresh.get(key, f"c{i % n % 3}") == expected, key
        assert fresh.disk_entries == 4 * n
        assert not list(directory.glob(".*"))  # no stray temp files

    @pytest.mark.parametrize("damage", ["truncated", "garbage",
                                        "wrong-key", "bad-checksum"])
    def test_damaged_entry_is_a_miss_and_unlinked(self, tmp_path, damage):
        cache = ResultCache(4, tmp_path / "rc")
        key = "a" * 64
        cache.put(key, {"value": 1.5}, circuit="c1")
        path = cache.entry_path(key, "c1")
        raw = path.read_bytes()
        head, _, payload = raw.partition(b"\n")
        if damage == "truncated":
            path.write_bytes(raw[:len(raw) - 3])
        elif damage == "garbage":
            path.write_bytes(b"\x00\xffnot an entry")
        elif damage == "wrong-key":
            other = ResultCache(4, tmp_path / "other")
            other.put("b" * 64, {"value": 1.5}, circuit="c1")
            path.write_bytes(other.entry_path("b" * 64, "c1").read_bytes())
        else:
            path.write_bytes(head + b"\n" + payload.replace(b"1.5", b"2.5"))
        fresh = ResultCache(4, tmp_path / "rc")
        assert fresh.get(key, "c1") is None
        assert fresh.misses == 1
        assert not path.exists()

    def test_invalidate_across_processes(self, tmp_path):
        directory = tmp_path / "rc"
        writer = ResultCache(4, directory)
        for i in range(3):
            writer.put(f"{i:064x}", {"i": i}, circuit="c1")
        writer.put("f" * 64, {"i": 9}, circuit="c2")
        proc = _python(_INVALIDATOR, directory, "c1")
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0 and int(out) == 3
        fresh = ResultCache(4, directory)
        assert all(fresh.get(f"{i:064x}", "c1") is None for i in range(3))
        assert fresh.get("f" * 64, "c2") == {"i": 9}

    def test_v1_directory_opens_empty(self, tmp_path):
        directory = tmp_path / "rc"
        directory.mkdir()
        key = "a" * 64
        text = json.dumps({"v": 1})
        (directory / f"rs_{key[:32]}.json").write_text(text)
        (directory / "manifest.json").write_text(json.dumps({
            "format": "spsta-serve-cache", "version": 1,
            "entries": {key: {"file": f"rs_{key[:32]}.json",
                              "sha256": "0" * 64, "circuit": "c1"}}}))
        cache = ResultCache(4, directory)
        assert cache.disk_entries == 0
        assert cache.get(key) is None and cache.get(key, "c1") is None
        assert not (directory / f"rs_{key[:32]}.json").exists()
        cache.put(key, {"v": 2}, circuit="c1")
        assert ResultCache(4, directory).get(key, "c1") == {"v": 2}

    @pytest.mark.parametrize("manifest", [
        {"format": "something-else", "entries": {}},
        {"format": "spsta-serve-cache", "version": 3},
        "not json",
    ])
    def test_foreign_manifest_still_refused(self, tmp_path, manifest):
        directory = tmp_path / "rc"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            manifest if isinstance(manifest, str) else json.dumps(manifest))
        with pytest.raises(ServeCacheError):
            ResultCache(4, directory)


# -- warm restart ------------------------------------------------------------

class TestWarmRestart:
    def test_restarted_daemon_serves_from_disk_bit_identical(self,
                                                             tmp_path):
        first = Server(ServeOptions(cache_dir=str(tmp_path / "rc")))
        cold = _req(first, id=1, op="analyze", circuit="s27")
        assert not cold["cached"]
        restarted = Server(ServeOptions(cache_dir=str(tmp_path / "rc")))
        warm = _req(restarted, id=2, op="analyze", circuit="s27")
        assert warm["cached"]
        assert restarted.cache.disk_hits == 1
        assert _payload_text(warm) == _payload_text(cold)


# -- stdio transport ---------------------------------------------------------

class TestStdioTransport:
    def test_scripted_session_round_trips_through_subprocess(self):
        session = [
            {"v": 1, "id": 1, "op": "analyze", "circuit": "s27"},
            {"v": 1, "id": 2, "op": "analyze", "circuit": "s27"},
            {"v": 1, "id": 3, "op": "edit", "circuit": "s27",
             "gate": "G14", "mu": 2.0},
            {"v": 1, "id": 4, "op": "bogus"},
            {"v": 1, "id": 5, "op": "shutdown"},
        ]
        proc = _serve_subprocess(session)
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line)
                     for line in proc.stdout.strip().splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3, 4, 5]
        assert responses[0]["ok"] and not responses[0]["cached"]
        assert responses[1]["ok"] and responses[1]["cached"]
        assert json.dumps(responses[0]["result"], sort_keys=True) \
            == json.dumps(responses[1]["result"], sort_keys=True)
        assert responses[2]["ok"]
        assert responses[2]["result"]["retime"]["mode"] == "incremental"
        assert not responses[3]["ok"]
        assert responses[4]["ok"]

    def test_eof_without_shutdown_exits_cleanly(self):
        proc = _serve_subprocess([{"v": 1, "id": 1, "op": "status"}])
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip())["ok"]


# -- status ------------------------------------------------------------------

class TestStatus:
    def test_status_reports_sessions_and_cache(self, server):
        _req(server, id=1, op="analyze", circuit="s27")
        _req(server, id=2, op="analyze", circuit="s27")
        status = _req(server, id=3, op="status")["result"]
        (sess,) = status["sessions"]
        assert sess["circuit"] == "s27"
        assert status["cache"]["hits"] == 1
        assert status["cache"]["entries"] == 1
        assert status["requests_served"] == 3

    def test_session_log_records_pairs(self, tmp_path):
        from repro.serve.daemon import _SessionLog

        server = Server(ServeOptions())
        server.session_log = _SessionLog(tmp_path / "log.jsonl")
        _req(server, id=1, op="status")
        server.handle_text("junk")
        lines = [json.loads(line) for line in
                 (tmp_path / "log.jsonl").read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["response"]["ok"]
        assert not lines[1]["response"]["ok"]
