"""Tests for the .pnet CLI."""

import pytest

from repro.accel.jpeg import JPEG_PNET
from repro.tools.pnet import main

GOOD = """
net demo
place in
place out
transition t
  consume in
  produce out
  delay 3
"""

DEADLOCKING = """
net dl
place in
place never
place out
transition t
  consume in never
  produce out
  delay 1
"""


@pytest.fixture
def pnet_file(tmp_path):
    def write(text, name="net.pnet"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestValidate:
    def test_clean_net(self, pnet_file, capsys):
        assert main(["validate", pnet_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "net 'demo'" in out

    def test_parse_error_exit_code(self, pnet_file, capsys):
        assert main(["validate", pnet_file("net x\nbogus\n")]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_shipped_jpeg_interface_validates(self, pnet_file):
        assert main(["validate", pnet_file(JPEG_PNET)]) == 0

    def test_warning_net_fails(self, pnet_file, capsys):
        text = GOOD + "place orphan\n"
        # 'place' after a transition is fine; orphan produces a warning.
        assert main(["validate", pnet_file(text)]) == 1


class TestDot:
    def test_emits_digraph(self, pnet_file, capsys):
        assert main(["dot", pnet_file(GOOD)]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestSimulate:
    def test_basic_run(self, pnet_file, capsys):
        rc = main(["simulate", pnet_file(GOOD), "--items", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completions: 5" in out
        assert "throughput" in out

    def test_payload_drives_delays(self, pnet_file, capsys):
        text = """
net p
place in
place out
transition t
  consume in
  produce out
  delay expr: tok["n"] * 2
"""
        rc = main(
            ["simulate", pnet_file(text), "--items", "1", "--payload", '{"n": 21}']
        )
        assert rc == 0
        assert "mean=42.000" in capsys.readouterr().out

    def test_deadlock_reported(self, pnet_file, capsys):
        rc = main(["simulate", pnet_file(DEADLOCKING), "--items", "2"])
        assert rc == 1
        assert "DEADLOCK" in capsys.readouterr().err

    def test_unknown_entry_rejected(self, pnet_file, capsys):
        rc = main(["simulate", pnet_file(GOOD), "--entry", "nope"])
        assert rc == 1
        assert "entry place" in capsys.readouterr().err

    def test_jpeg_interface_simulates_from_cli(self, pnet_file, capsys):
        payload = '{"i": 0, "bytes": 16, "nnz": 12, "wr": true}'
        rc = main(
            [
                "simulate",
                pnet_file(JPEG_PNET),
                "--items",
                "8",
                "--payload",
                payload,
            ]
        )
        assert rc == 0
        assert "completions: 8" in capsys.readouterr().out


EXPR_CHAIN = """
net p
place in
place out
transition t
  consume in
  produce out
  delay expr: tok["n"] * 2
"""


class TestBatched:
    def test_batch_file_runs_the_batch_engine(self, pnet_file, tmp_path, capsys):
        batch = tmp_path / "sweep.jsonl"
        batch.write_text('{"n": 1}\n{"n": 2}\n\n{"n": 7}\n')  # blank line skipped
        rc = main(["run", pnet_file(EXPR_CHAIN), "--items", "3", "--batch", str(batch)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "items: 3 x 3 tokens" in out
        assert "batch engine: codegen" in out
        assert "items/sec" in out

    def test_batched_makespans_match_the_per_item_engine(
        self, pnet_file, tmp_path, capsys
    ):
        path = pnet_file(EXPR_CHAIN)
        assert main(["run", path, "--items", "4", "--payload", '{"n": 3}']) == 0
        per_item = capsys.readouterr().out
        batch = tmp_path / "one.jsonl"
        batch.write_text('{"n": 3}\n')
        assert main(["run", path, "--items", "4", "--batch", str(batch)]) == 0
        batched = capsys.readouterr().out
        # Per-item mode prints "makespan: 24.0"; batched summarizes the
        # same value as "... mean=24.000 ...". Compare the numbers.
        per_line = next(ln for ln in per_item.splitlines() if "makespan" in ln)
        want = float(per_line.split(":")[1].split()[0])
        batch_line = next(ln for ln in batched.splitlines() if "makespan" in ln)
        mean = float(batch_line.split("mean=")[1].split()[0])
        assert mean == want

    def test_invalid_json_line_is_reported_with_line_number(
        self, pnet_file, tmp_path, capsys
    ):
        batch = tmp_path / "bad.jsonl"
        batch.write_text('{"n": 1}\nnot json\n')
        rc = main(["run", pnet_file(EXPR_CHAIN), "--batch", str(batch)])
        assert rc == 1
        assert "bad.jsonl:2: invalid JSON" in capsys.readouterr().err

    def test_empty_batch_file_is_an_error(self, pnet_file, tmp_path, capsys):
        batch = tmp_path / "empty.jsonl"
        batch.write_text("\n\n")
        rc = main(["run", pnet_file(EXPR_CHAIN), "--batch", str(batch)])
        assert rc == 1
        assert "no items" in capsys.readouterr().err

    def test_deadlock_in_batch_exits_nonzero(self, pnet_file, tmp_path, capsys):
        batch = tmp_path / "one.jsonl"
        batch.write_text("{}\n")
        rc = main(["run", pnet_file(DEADLOCKING), "--items", "2", "--batch", str(batch)])
        assert rc == 1
        assert "DEADLOCK" in capsys.readouterr().err


class TestVerify:
    def test_all_shipped_bundles_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for name in ("protoacc", "optimusprime", "jpeg", "bitcoin", "vta"):
            assert f"== {name} ==" in out
        assert "proven:" in out
        assert "corner concretization:" in out

    def test_single_package_target(self, capsys):
        assert main(["verify", "protoacc"]) == 0
        out = capsys.readouterr().out
        assert "== protoacc ==" in out
        assert "bounds: [" in out

    def test_unknown_target_is_a_hard_error(self):
        with pytest.raises(SystemExit, match="unknown verify target 'nope'"):
            main(["verify", "nope"])

    def test_broken_fixture_fails_with_bound_and_direction_errors(self, capsys):
        rc = main(["verify", "tests/fixtures/broken_contract.pnet"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "VR003" in out  # derived bounds escape the declared ones
        assert "VR004" in out  # declared direction refuted with witness

    def test_json_output_shape(self, capsys):
        assert main(["verify", "protoacc", "--json"]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        entry = payload[0]
        assert entry["target"] == "protoacc"
        assert entry["exit_code"] == 0
        assert entry["corners"]["checked"] == entry["corners"]["passed"] > 0
        contract = entry["contract"]
        assert contract["evaluability"] == "closed-form"
        assert any(c["proof"] in ("affine", "derivative") for c in contract["monotone"])

    def test_json_broken_fixture_carries_diagnostics(self, capsys):
        rc = main(["verify", "tests/fixtures/broken_contract.pnet", "--json"])
        assert rc == 1
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        rules = {d["rule"] for d in payload[0]["diagnostics"]}
        assert {"VR003", "VR004"} <= rules
