"""Self-tests of the benchmark: smoke runs, determinism, and the gate.

    python3 -m pytest perfbench/check_bench.py -q

The file name keeps these tests out of the repository's default pytest run;
they start benchmark processes and take about fifteen seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sdcsim = run.import_program()


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _smoke(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run a smoke-sized benchmark; return the result line and the run record."""
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}-smoke.json").read_text())
    return result, record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    result, record = _smoke(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["absent"] == []


def test_same_seed_same_digest_and_other_seed_differs():
    first = _smoke("sweep_short", 5, 0)[1]["digest"]
    again = _smoke("sweep_short", 5, 0)[1]["digest"]
    other = _smoke("sweep_short", 6, 0)[1]["digest"]
    assert first == again != other


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _session(**fields):
    config = sdcsim.RunConfig(**fields)
    return config, sdcsim.run_session(config, sdcsim.OpticalBench())


P_CONTROLLED = gate.controlled_probabilities(sdcsim)


def test_session_gate_passes_good_output_and_flags_corruption():
    config, result = _session(scenario=sdcsim.Scenario.B, n_messages=30, seed=4,
                              messages=(sdcsim.MessageSymbol.HH,))
    assert gate.check_session(sdcsim, P_CONTROLLED, config, result) == []
    short = dataclasses.replace(
        result, report=dataclasses.replace(result.report, messages_delivered=29)
    )
    assert gate.check_session(sdcsim, P_CONTROLLED, config, short)
    lost_note = dataclasses.replace(result, notes=result.notes[:-1])
    assert result.notes and gate.check_session(sdcsim, P_CONTROLLED, config, lost_note)


def test_simulate_gate_flags_short_report_and_truncated_log(tmp_path):
    report_path, log_path = tmp_path / "report.json", tmp_path / "events.csv"
    argv = ["simulate", "--scenario", "a", "--n", "300", "--seed", "9",
            "--out", str(report_path), "--log", str(log_path)]
    assert sdcsim.cli.main(argv) == 0
    config = sdcsim.RunConfig(scenario=sdcsim.Scenario.A, n_messages=300, seed=9)
    report, log = json.loads(report_path.read_text()), log_path.read_text()
    assert gate.check_simulate(sdcsim, P_CONTROLLED, config, report, log) == []
    short = dict(report, messages_delivered=299)
    assert gate.check_simulate(sdcsim, P_CONTROLLED, config, short, log)
    truncated = "".join(log.splitlines(keepends=True)[:-3])
    assert gate.check_simulate(sdcsim, P_CONTROLLED, config, report, truncated)
    renamed = log.replace("decoded", "decoded_as", 1)
    assert gate.check_simulate(sdcsim, P_CONTROLLED, config, report, renamed)


def test_pair_band_is_exact_and_rejects_far_counts():
    stream = [sdcsim.MessageSymbol.HH] * 50 + [sdcsim.MessageSymbol.PSI_PLUS] * 50
    a = sdcsim.Scenario.A
    assert gate.pair_band(sdcsim, P_CONTROLLED, a, stream, 150) == []
    assert gate.pair_band(sdcsim, P_CONTROLLED, a, stream, 400)
    assert gate.pair_band(sdcsim, P_CONTROLLED, a, stream, 99)
    assert gate.pair_band(sdcsim, P_CONTROLLED, sdcsim.Scenario.B, stream, 101)
    # P(F <= f) + P(F >= f + 1) = 1 for the negative binomial.
    for f in (0, 3, 40):
        lower, _ = gate.negbin_tails(7, 0.5, f)
        _, upper = gate.negbin_tails(7, 0.5, f + 1)
        assert lower + upper == pytest.approx(1.0, abs=1e-12)


def test_verify_gate_flags_a_failed_check():
    passed = sdcsim.verify.CheckResult("hom_dip", True, "ok")
    failed = sdcsim.verify.CheckResult("seed_determinism", False, "differs")
    assert gate.check_verify([passed]) == []
    assert gate.check_verify([passed, failed]) == ["seed_determinism: differs"]
    assert gate.check_verify([])


class _Flaky:
    """Two operations: the first raises, the second changes output every call."""

    ops = [0, 1]

    def __init__(self):
        self.calls = 0

    def run(self, op):
        if op == 0:
            raise RuntimeError("boom")
        self.calls += 1
        return self.calls

    def check(self, op, out):
        return run.Checked(1, [], f"digest {out}")


def test_runner_counts_exceptions_and_nondeterminism_as_failures():
    runner = run.Runner(_Flaky())
    runner.op(0)
    runner.op(1)
    assert (runner.attempted, runner.failed) == (2, 1)
    runner.op(1)
    assert (runner.attempted, runner.failed) == (3, 2)
