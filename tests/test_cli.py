import csv
import json
import math

import pytest

from sdcsim.capacity import CapacityReport
from sdcsim.cli import main
from sdcsim.session import CHUNK_MESSAGES


def run(args):
    return main(args)


class TestSignatures:
    def test_text_output(self, capsys):
        assert run(["signatures"]) == 0
        out = capsys.readouterr().out
        assert "psi+" in out and "aH:1,aV:1" in out
        assert "total variation distance" in out

    def test_json_output(self, capsys):
        assert run(["signatures", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["signatures"]["hh"] == ["aH:2", "bH:2"]
        assert payload["phi_tvd"] < 1e-12
        assert payload["phi+"] == payload["phi-"]

    def test_single_state_distribution(self, capsys):
        assert run(["signatures", "--state", "PhiPlus", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "phi+"
        assert payload["distribution"] == {
            "aH:2": 0.25,
            "aV:2": 0.25,
            "bH:2": 0.25,
            "bV:2": 0.25,
        }

    def test_unknown_state_exits_config_error(self, capsys):
        assert run(["signatures", "--state", "bogus"]) == 1

    def test_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        assert run(["signatures", "--format", "json", "--out", str(target)]) == 0
        assert json.loads(target.read_text())["phi_tvd"] < 1e-12


class TestSimulate:
    def test_scenario_a_report_and_log(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        log_path = tmp_path / "events.csv"
        code = run(
            [
                "simulate",
                "--scenario", "a",
                "--n", "2000",
                "--seed", "1",
                "--out", str(report_path),
                "--log", str(log_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        report = CapacityReport.from_dict(payload)
        assert 0.63 < report.efficiency < 0.70
        assert payload["config"]["scenario"] == "a"
        assert payload["expected"]["efficiency"] == pytest.approx(2 / 3)

        with log_path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["trial", "intended", "branch", "action", "pattern", "decoded", "note"]
        assert len(rows) - 1 == report.pairs_consumed
        # trial indices are dense and ordered
        assert [int(r[0]) for r in rows[1:]] == list(range(report.pairs_consumed))

    def test_scenario_b_send_as_is_corrections(self, tmp_path):
        report_path = tmp_path / "r.json"
        log_path = tmp_path / "l.csv"
        code = run(
            [
                "simulate",
                "--scenario", "b",
                "--messages", "hh",
                "--n", "1000",
                "--seed", "9",
                "--clone-policy", "send-as-is",
                "--out", str(report_path),
                "--log", str(log_path),
            ]
        )
        assert code == 0
        report = CapacityReport.from_dict(json.loads(report_path.read_text()))
        assert report.pairs_consumed == 1000
        with log_path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        corrections = [r for r in rows if r["note"].startswith("CorrectTo")]
        sigma = math.sqrt(0.25 / 1000)
        assert abs(len(corrections) / 1000 - 0.5) < 3 * sigma
        assert all(r["note"] == "CorrectTo(hh)" for r in corrections)

    def test_scenario_c_bell_only_never_stops(self, tmp_path):
        log_path = tmp_path / "l.csv"
        code = run(
            [
                "simulate",
                "--scenario", "c",
                "--messages", "psi+,psi-",
                "--n", "400",
                "--seed", "3",
                "--out", str(tmp_path / "r.json"),
                "--log", str(log_path),
            ]
        )
        assert code == 0
        with log_path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 400
        assert all(r["action"] == "sent" for r in rows)

    def test_explicit_messages_default_n(self, tmp_path):
        code = run(
            [
                "simulate",
                "--scenario", "b",
                "--messages", "hh,vv,psi+",
                "--out", str(tmp_path / "r.json"),
                "--log", str(tmp_path / "l.csv"),
            ]
        )
        assert code == 0
        report = CapacityReport.from_dict(json.loads((tmp_path / "r.json").read_text()))
        assert report.pairs_consumed == 3

    def test_invalid_owner_combination_exits_1(self, tmp_path, capsys):
        code = run(
            [
                "simulate",
                "--scenario", "c",
                "--owner", "bob",
                "--out", str(tmp_path / "r.json"),
                "--log", str(tmp_path / "l.csv"),
            ]
        )
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_bad_flag_exits_1(self, capsys):
        assert run(["simulate", "--scenario", "z"]) == 1

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        code = run(
            [
                "simulate",
                "--scenario", "a",
                "--n", "5",
                "--out", str(tmp_path / "missing_dir" / "r.json"),
                "--log", str(tmp_path / "l.csv"),
            ]
        )
        assert code == 3

    def test_failed_log_write_leaves_no_report(self, tmp_path, capsys):
        code = run(
            [
                "simulate",
                "--scenario", "a",
                "--n", "10",
                "--out", str(tmp_path / "r.json"),
                "--log", str(tmp_path / "missing_dir" / "x.csv"),
            ]
        )
        assert code == 3
        assert list(tmp_path.iterdir()) == []

    def test_log_directory_exits_3_before_writing(self, tmp_path, capsys):
        log_dir = tmp_path / "logs"
        log_dir.mkdir()
        code = run(
            [
                "simulate",
                "--scenario", "a",
                "--n", "10",
                "--out", str(tmp_path / "r.json"),
                "--log", str(log_dir),
            ]
        )
        assert code == 3
        assert list(tmp_path.iterdir()) == [log_dir]
        assert list(log_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "out,log",
        [("same.txt", "./same.txt"), ("same.txt.tmp", "same.txt")],
        ids=["same-path", "report-on-log-temporary"],
    )
    def test_colliding_report_and_log_paths_exit_1(self, tmp_path, capsys, out, log):
        code = run(
            [
                "simulate",
                "--scenario", "a",
                "--n", "10",
                "--out", str(tmp_path / out),
                "--log", str(tmp_path / log),
            ]
        )
        assert code == 1
        assert list(tmp_path.iterdir()) == []
        assert "invalid configuration" in capsys.readouterr().err

    def test_expected_block_weights_the_cycled_stream(self, tmp_path):
        # the stream is hh,psi+,vv,hh: 4 messages over an expected 7 pairs
        report_path = tmp_path / "r.json"
        code = run(
            [
                "simulate",
                "--scenario", "a",
                "--messages", "hh,psi+,vv",
                "--n", "4",
                "--out", str(report_path),
                "--log", str(tmp_path / "l.csv"),
            ]
        )
        assert code == 0
        expected = json.loads(report_path.read_text())["expected"]
        assert expected["efficiency"] == pytest.approx(4 / 7, abs=1e-12)

    def test_report_names_the_rng_scheme(self, tmp_path):
        report_path = tmp_path / "r.json"
        argv = ["simulate", "--scenario", "b", "--n", "5", "--out", str(report_path),
                "--log", str(tmp_path / "l.csv")]
        assert run(argv) == 0
        rng = json.loads(report_path.read_text())["rng"]
        assert "philox" in rng and str(CHUNK_MESSAGES) in rng

    def test_json_summary_matches_report_file(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        code = run(
            [
                "simulate",
                "--scenario", "a",
                "--n", "50",
                "--seed", "5",
                "--format", "json",
                "--out", str(report_path),
                "--log", str(tmp_path / "l.csv"),
            ]
        )
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert stdout_payload == json.loads(report_path.read_text())


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        files = {}
        for tag in ("one", "two"):
            out = tmp_path / f"report_{tag}.json"
            log = tmp_path / f"events_{tag}.csv"
            assert run(
                [
                    "simulate",
                    "--scenario", "b",
                    "--n", "400",
                    "--seed", "77",
                    "--out", str(out),
                    "--log", str(log),
                ]
            ) == 0
            files[tag] = (out.read_bytes(), log.read_bytes())
        assert files["one"] == files["two"]


class TestVerify:
    def test_clean_build_exits_zero(self, capsys):
        assert run(["verify", "--trials", "5000"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_defect_exits_two(self, capsys):
        assert run(["verify", "--trials", "5000", "--inject-defect"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert run(["verify", "--trials", "5000", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(entry["passed"] for entry in payload)

    def test_trials_sizes_both_statistical_checks(self, capsys):
        assert run(["verify", "--trials", "2000", "--format", "json"]) == 0
        detail = {entry["name"]: entry["detail"] for entry in json.loads(capsys.readouterr().out)}
        assert detail["branch_statistics"].endswith("over 2000 trials (3σ = 0.0335)")
        assert detail["sampling_consistency"].endswith("over 2000 draws")
