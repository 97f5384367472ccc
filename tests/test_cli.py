import csv
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import sdcsim
from sdcsim import capacity, cli, session, verify
from sdcsim.cli import main
from sdcsim.protocol import OpticalBench, Optics, Scenario
from sdcsim.session import CHUNK_MESSAGES, RunConfig


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
        # a quarter each, 1/4 - 2^-53 after the splitter's rounded 1/sqrt(2) entries
        quarter = float.fromhex("0x1.ffffffffffffcp-3")
        assert payload["distribution"] == {
            "aH:2": quarter,
            "aV:2": quarter,
            "bH:2": quarter,
            "bV:2": quarter,
        }

    @pytest.mark.parametrize(
        "spelling,value",
        [("psi+", "psi+"), ("PsiPlus", "psi+"), ("psi-", "psi-"), ("PSI_MINUS", "psi-"),
         ("hh", "hh"), ("VV", "vv"), ("phi+", "phi+"), ("phi_plus", "phi+"),
         ("phi-", "phi-"), ("phiminus", "phi-")],
    )
    def test_state_spellings(self, capsys, spelling, value):
        assert run(["signatures", "--state", spelling, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == value

    def test_unknown_state_exits_config_error(self, capsys):
        assert run(["signatures", "--state", "bogus"]) == 1

    def test_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        assert run(["signatures", "--format", "json", "--out", str(target)]) == 0
        assert json.loads(target.read_text())["phi_tvd"] < 1e-12

    @pytest.mark.parametrize("state", [[], ["--state", "phi+"]], ids=["table", "state"])
    @pytest.mark.parametrize("dest", ["dir", "missing/x.json"])
    def test_unwritable_out_exits_3_and_prints_nothing(self, tmp_path, capsys, state, dest):
        (tmp_path / "dir").mkdir()
        assert run(["signatures", *state, "--out", str(tmp_path / dest)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # the error names the path given, not its temporary
        assert str(tmp_path / dest) in captured.err
        assert ".tmp" not in captured.err.replace(str(tmp_path), "")
        assert [p.name for p in tmp_path.rglob("*")] == ["dir"]

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "table.txt"
        assert run(["signatures", "--state", "psi-", "--out", str(target)]) == 0
        assert capsys.readouterr().out == target.read_text()
        assert [p.name for p in tmp_path.iterdir()] == ["table.txt"]


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
        assert 0.63 < payload["efficiency"] < 0.70
        assert payload["config"]["scenario"] == "a"
        assert payload["expected"]["efficiency"] == pytest.approx(2 / 3)

        with log_path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["trial", "intended", "branch", "action", "pattern", "decoded", "note"]
        assert len(rows) - 1 == payload["pairs_consumed"]
        # trial indices are dense and ordered
        assert [int(r[0]) for r in rows[1:]] == list(range(payload["pairs_consumed"]))

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
        assert json.loads(report_path.read_text())["pairs_consumed"] == 1000
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
        assert json.loads((tmp_path / "r.json").read_text())["pairs_consumed"] == 3

    def test_owner_is_an_unrecognized_argument_exits_1(self, tmp_path, capsys):
        # the source's owner had no effect on any output but itself; the library's
        # owner check stays tested with `RunConfig`
        for owner in ("bob", "anna"):
            code = run(
                [
                    "simulate",
                    "--scenario", "a",
                    "--owner", owner,
                    "--out", str(tmp_path / "r.json"),
                    "--log", str(tmp_path / "l.csv"),
                ]
            )
            assert code == 1
            assert "unrecognized arguments: --owner" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "knob",
        [["--scenario", "b", "--erase-notes"], ["--scenario", "a", "--clone-policy", "clone-intended"]],
        ids=["erase-notes-in-b", "clone-intended-in-a"],
    )
    def test_knob_the_scenario_ignores_exits_1(self, tmp_path, capsys, knob):
        code = run(
            ["simulate", *knob, "--out", str(tmp_path / "r.json"), "--log", str(tmp_path / "l.csv")]
        )
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", ["18446744073709551616", "99999999999999999999999"])
    def test_a_size_the_keying_cannot_count_exits_1_before_writing(self, tmp_path, capsys, n):
        out = ["--out", str(tmp_path / "r.json"), "--log", str(tmp_path / "l.csv")]
        assert run(["simulate", "--scenario", "a", "--n", n, *out]) == 1
        assert "n_messages must be >= 1 and below 2^64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_flag_exits_1(self, capsys):
        assert run(["simulate", "--scenario", "z"]) == 1

    def test_a_reference_state_is_no_message(self, tmp_path, capsys):
        out = ["--out", str(tmp_path / "r.json"), "--log", str(tmp_path / "l.csv")]
        assert run(["simulate", "--messages", "hh,phi+", *out]) == 1
        assert "'phi+' is not an encodable message" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_missing_log_directory_names_the_given_path(self, tmp_path, capsys):
        log = tmp_path / "missing" / "e.csv"
        code = run(
            [
                "simulate",
                "--scenario", "a",
                "--n", "10",
                "--out", str(tmp_path / "r.json"),
                "--log", str(log),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("sdcsim: I/O error: ") and str(log) in err
        assert ".tmp" not in err.replace(str(tmp_path), "")
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

    def _simulate(self, tmp_path, log, out="r.json"):
        return run(["simulate", "--scenario", "b", "--n", "50", "--seed", "4",
                    "--out", str(tmp_path / out), "--log", str(log)])

    def test_a_symlinked_log_is_written_through(self, tmp_path):
        assert self._simulate(tmp_path, tmp_path / "direct.csv", out="direct.json") == 0
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert self._simulate(tmp_path, link) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "direct.csv").read_bytes()
        assert target.read_bytes().startswith(",".join(cli.EVENT_HEADER).encode() + b"\r\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "direct.csv", "direct.json", "link.csv", "r.json", "target.csv"]

    def test_a_link_at_a_temporary_is_removed_not_followed(self, tmp_path):
        # a symlink already at the report's temporary name: the run replaces the
        # link, never writes through it
        assert self._simulate(tmp_path, tmp_path / "direct.csv", out="direct.json") == 0
        victim = tmp_path / "victim.txt"
        victim.write_text("keep\n")
        (tmp_path / "r.json.tmp").symlink_to(victim)
        assert self._simulate(tmp_path, tmp_path / "e.csv") == 0
        assert victim.read_text() == "keep\n"
        report = tmp_path / "r.json"
        assert report.is_file() and not report.is_symlink()
        assert json.loads(report.read_text())["config"]["scenario"] == "b"
        assert report.read_bytes() == (tmp_path / "direct.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "direct.csv", "direct.json", "e.csv", "r.json", "victim.txt"]

    def test_a_report_and_a_link_to_it_collide(self, tmp_path, capsys):
        (tmp_path / "link.csv").symlink_to(tmp_path / "r.json")
        assert self._simulate(tmp_path, tmp_path / "link.csv") == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]

    def test_a_fifo_log_is_written_into_not_replaced(self, tmp_path):
        assert self._simulate(tmp_path, tmp_path / "direct.csv", out="direct.json") == 0
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        read = []

        def reader():
            with open(pipe, "rb") as fifo:  # blocks until the writer opens it
                read.append(fifo.read())

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        code = self._simulate(tmp_path, pipe)
        thread.join(timeout=60)
        if thread.is_alive() and stat.S_ISFIFO(os.stat(pipe).st_mode):
            os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))  # free the reader
        assert code == 0
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert read == [(tmp_path / "direct.csv").read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "direct.csv", "direct.json", "pipe.csv", "r.json"]

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

    def test_expected_block_comes_from_the_session_bench(self, tmp_path, monkeypatch):
        bench = OpticalBench(Optics(hh=()))  # hh never branches: 5 pairs per 4 messages
        monkeypatch.setattr(cli, "default_bench", lambda: bench)
        report_path = tmp_path / "r.json"
        argv = ["simulate", "--scenario", "a", "--n", "400", "--out", str(report_path),
                "--log", str(tmp_path / "l.csv")]
        assert run(argv) == 0
        report = json.loads(report_path.read_text())
        assert report["expected"]["efficiency"] == 0.8
        assert report["per_symbol_counts"]["hh"]["repeats"] == 0

    def test_report_names_the_rng_scheme(self, tmp_path):
        report_path = tmp_path / "r.json"
        argv = ["simulate", "--scenario", "b", "--n", "5", "--out", str(report_path),
                "--log", str(tmp_path / "l.csv")]
        assert run(argv) == 0
        rng = json.loads(report_path.read_text())["rng"]
        assert "philox" in rng and str(CHUNK_MESSAGES) in rng

    def test_report_carries_its_schema_and_the_session_blocks(self, tmp_path):
        report_path = tmp_path / "r.json"
        argv = ["simulate", "--scenario", "c", "--n", "5", "--out", str(report_path),
                "--log", str(tmp_path / "l.csv")]
        assert run(argv) == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == cli.REPORT_SCHEMA == 2
        # the session's capacity report, and the blocks `simulate` adds to it
        blocks = {"config", "expected", "rng", "schema"}
        fields = capacity.capacity_from_counts({"hh": (1, 0, 0)}).to_dict()
        assert set(report) - blocks == set(fields)

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


class TestRepeatedCalls:
    """`main` builds its parser once per process and renders a table's log
    suffixes once; neither may leak one call into the next."""

    @staticmethod
    def simulate(tmp_path, tag, *extra):
        out, log = tmp_path / f"r_{tag}.json", tmp_path / f"l_{tag}.csv"
        argv = ["simulate", "--scenario", "a", "--n", "400", "--seed", "31",
                "--out", str(out), "--log", str(log), *extra]
        assert run(argv) == 0
        return out.read_bytes(), log.read_bytes()

    def test_the_parser_is_built_once_per_process(self, tmp_path, monkeypatch, capsys):
        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
        cli._parser.cache_clear()
        assert run(["signatures"]) == 0
        first = self.simulate(tmp_path, "one")
        assert run(["simulate", "--bogus"]) == 1
        assert run(["simulate", "--scenario", "x"]) == 1
        assert self.simulate(tmp_path, "two") == first
        assert run(["verify", "--trials", "1"]) == 1
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_importing_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(sdcsim.__file__))
        code = "import sdcsim, sdcsim.cli; assert sdcsim.cli._parser.cache_info().currsize == 0"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy 1.x imports numpy.random with numpy")
    def test_importing_loads_no_numpy_random(self):
        # numpy 2 loads numpy.random on first use; the session kernel makes its
        # generator on its first key, so importing leaves the ~25 ms import to
        # the first session
        src = os.path.dirname(os.path.dirname(sdcsim.__file__))
        code = "import sys, sdcsim, sdcsim.cli; assert 'numpy.random' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_the_line_end_memo_is_read_only(self):
        table = session.Session(RunConfig(scenario=Scenario.A, n_messages=5, seed=0)).table
        ends = cli._line_ends(table)
        assert ends is cli._line_ends(table)
        with pytest.raises(ValueError):
            ends[0] = ""

    def test_each_wiring_renders_its_own_table(self, tmp_path, monkeypatch):
        """An ideal run, then one on a bench whose hh encoder is empty (hh then
        reads as psi+): each log line is the trial's row of its own table."""
        self.simulate(tmp_path, "ideal")
        bench = OpticalBench(Optics(hh=()))
        monkeypatch.setattr(cli, "default_bench", lambda: bench)
        log = self.simulate(tmp_path, "perturbed")[1].decode()
        reference = session.Session(RunConfig(scenario=Scenario.A, n_messages=400, seed=31), bench)
        fields = reference.table.fields
        lines = [
            f"{trials.first + i},{cli._event_suffix(*fields[row])}"
            for trials in reference.chunks()
            for i, row in enumerate(trials.row.tolist())
        ]
        assert log == ",".join(cli.EVENT_HEADER) + "\r\n" + "".join(lines)


class TestVerify:
    def test_clean_build_exits_zero(self, capsys):
        assert run(["verify", "--trials", "5000"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_defect_exits_two(self, capsys, monkeypatch):
        failed = verify.CheckResult("hom_dip", False, "injected")
        monkeypatch.setattr(verify, "check_hom_dip", lambda bench: failed)
        assert run(["verify", "--trials", "5000"]) == 2
        assert "FAIL  hom_dip" in capsys.readouterr().out

    def test_too_few_trials_exits_1_and_the_minimum_runs(self, capsys):
        bench = OpticalBench()
        law = verify.hh_cell_law(bench)
        minimum = verify.band_minimum(verify.statistical_counts(bench, law))
        assert run(["verify", "--trials", "1"]) == 1
        assert run(["verify", "--trials", str(minimum - 1)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"below {minimum}" in captured.err
        assert run(["verify", "--trials", str(minimum)]) in (0, 2)
        assert "checks passed" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert run(["verify", "--trials", "5000", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(entry["passed"] for entry in payload)

    def test_trials_sizes_both_statistical_checks(self, capsys):
        assert run(["verify", "--trials", "2000", "--format", "json"]) == 0
        detail = {entry["name"]: entry["detail"] for entry in json.loads(capsys.readouterr().out)}
        assert re.fullmatch(
            r"wrong \d+ of 2000 \(p = 0\.5\), smaller tail \S+ >= 2\.5e-07",
            detail["branch_statistics"],
        )
        cells = detail["sampling_consistency"].split("; ")
        assert len(cells) == 4  # HH's two patterns on each branch
        for cell in cells:
            assert re.search(r" of 2000 \(p = 0\.25\), smaller tail \S+ >= 6\.25e-08$", cell)
