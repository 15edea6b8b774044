import json
import os

import pytest

from qesim.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "qesim", "golden")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "mz_two_bs")
        assert code == 0
        doc = json.loads(out)
        assert doc["axes"] == ["arm"]
        probs = {tuple(o["labels"]): o["p"] for o in doc["outcomes"]}
        assert abs(probs[("r",)] - 1.0) < 1e-12

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "mz_two_bs", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "arm,p"

    def test_edl_target_with_setting(self, capsys):
        path = os.path.join(GOLDEN_DIR, "analyzer_loop.edl")
        code, out, _ = run_cli(
            capsys, "run", path, "--setting", "mask=block_L", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["totalMass"] - 0.5) < 1e-12

    def test_unknown_target_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "not_a_scenario")
        assert code == 2 and "unknown target" in err

    def test_bad_setting_reported(self, capsys):
        code, _, err = run_cli(capsys, "run", "wheeler", "--setting", "screen")
        assert code == 2 and "expected name=value" in err

    def test_missing_setting_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "wheeler")
        assert code == 1 and "missing settings" in err

    def test_out_file_and_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "run", "walborn", "--setting", "p_pol=absent", "--out", str(p1))
        run_cli(capsys, "run", "walborn", "--setting", "p_pol=absent", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestVerify:
    def test_single_scenario_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "mz_two_bs")
        assert code == 0
        assert "PASS mz_two_bs.p_d2_cos2_half_phi" in out
        assert out.strip().endswith("0 failing check(s)")

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "bogus")
        assert code == 2


class TestSweep:
    def test_phase_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "mz_two_bs", "--steps", "3", "--stop", "3.141592653589793"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,P(r),P(t)"
        assert len(lines) == 4

    def test_sweep_rejects_edl_target(self, capsys):
        path = os.path.join(GOLDEN_DIR, "mz_two_bs.edl")
        code, _, _ = run_cli(capsys, "sweep", path)
        assert code == 2


class TestSample:
    def test_jsonl_events(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "mz_two_bs", "-n", "10", "--seed", "1"
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert len(rows) == 10
        assert all(r["det"] == "arms" for r in rows)

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("QESIM_SEED", "77")
        _, out1, _ = run_cli(capsys, "sample", "mz_one_bs", "-n", "20")
        monkeypatch.delenv("QESIM_SEED")
        _, out2, _ = run_cli(capsys, "sample", "mz_one_bs", "-n", "20", "--seed", "77")
        assert out1 == out2

    def test_coincidence_histogram(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sample", "walborn_delayed", "-n", "2000", "--seed", "3",
            "--setting", "p_pol=absent",
            "--pairs", "D_s,D_p", "--offset", "D_p=1e9", "--given", "+",
        )
        assert code == 0
        assert out.splitlines()[0] == "x,intensity"
        assert "pairs" in err

    def test_sample_byte_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (p1, p2):
            run_cli(
                capsys, "sample", "walborn", "-n", "200", "--seed", "5",
                "--setting", "p_pol=absent", "--out", str(p),
            )
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (["--pairs", "D_s,D_x"], "unknown detector 'D_x' in --pairs"),
        (["--delay", "D_x=5"], "unknown detector 'D_x' in --delay"),
        (["--pairs", "D_s,D_p", "--offset", "D_x=5"], "unknown detector 'D_x' in --offset"),
        (["--delay", "D_p=nan"], "bad --delay value 'nan'"),
        (["--pairs", "D_s,D_p", "--window", "-1"], "--window must be >= 0"),
    ])
    def test_bad_sample_arguments_are_usage_errors(self, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "sample", "walborn", "-n", "10", "--setting", "p_pol=absent", *flags
        )
        assert code == 2
        assert out == ""
        assert message in err
        if "unknown detector" in message:
            assert "active detectors: D_s, D_p" in err

    def test_bad_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("QESIM_SEED", "abc")
        code, out, err = run_cli(capsys, "sample", "mz_one_bs", "-n", "5")
        assert code == 2 and out == ""
        assert "QESIM_SEED" in err
        # only a sample that needs the variable reads it
        assert run_cli(capsys, "sample", "mz_one_bs", "-n", "5", "--seed", "1")[0] == 0
        assert run_cli(capsys, "verify", "mz_one_bs")[0] == 0
