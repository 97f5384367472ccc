"""The benchmark recorder's bookkeeping: its layer keys, its line counts, its run
order and its whole-process runs."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_every_per_layer_metric_has_a_layer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 0.0} for m in spec["per_layer"]}
    layers = bench_record._layers(metrics)
    assert set(layers) == {"L0", "L1", "L2", "L3", "L4", "trace"}
    assert sorted(name for layer in layers.values() for name in layer) == sorted(metrics)


def test_line_counts_leave_out_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # trailing\n"
        '    """One line."""\n'
        '    text = """a string\n'
        '    over two lines"""\n'
        "    return x\n"
    )
    assert bench_record.line_counts(tmp_path) == {"physical": 9, "code_only": 4, "docstring": 3}


def test_trees_take_turns_leading_each_pair(monkeypatch):
    workloads = ["w1", "w2"]

    def copy_tree(rev, dest):
        spec = {"workloads": [{"name": w} for w in workloads]}
        (dest / "BENCHMARK.json").write_text(json.dumps(spec))
        return rev

    calls = []

    def run(copy, workload, seed, trace):
        calls.append((copy.name, workload, seed, trace))
        return {"environment": {"python": "3"}, "digest": "d", "attempted": 1, "failed": 0,
                "seconds": 30.0, "seed": seed, "metrics": {"wall_s": {"unit": "s", "value": 1.0}}}

    simulated = []

    def simulate(copy):
        simulated.append(copy.name)
        return {"wall_s": 0.5 if copy.name == "parent" else 0.25, "peak_rss_mb": 40.0}

    monkeypatch.setattr(bench_record, "_copy_tree", copy_tree)
    monkeypatch.setattr(bench_record, "_run", run)
    monkeypatch.setattr(bench_record, "_simulate", simulate)
    result = bench_record.record({"parent": "p", "change": "c"})
    untraced = [call for call in calls if call[3] == 0]
    for w in workloads:
        runs = [label for label, workload, _, _ in untraced if workload == w]
        pairs = list(zip(runs[::2], runs[1::2]))
        assert len(pairs) == 2 * bench_record.RUNS
        assert all(set(pair) == {"parent", "change"} for pair in pairs)
        assert [lead for lead, _ in pairs].count("parent") == bench_record.RUNS
    seeds = result["trees"]["change"]["workloads"]["w1"]["seeds"]
    assert [len(seeds[str(s)]["end_to_end"]["wall_s"]["runs"]) for s in bench_record.SEEDS] == [
        bench_record.RUNS] * len(bench_record.SEEDS)
    pairs = list(zip(simulated[::2], simulated[1::2]))
    assert len(pairs) == bench_record.SIMULATE_RUNS
    assert [lead for lead, _ in pairs] == ["parent", "change", "parent"]
    for label, wall in (("parent", 0.5), ("change", 0.25)):
        entry = result["trees"][label]["simulate"]
        assert entry["argv"] == list(bench_record.SIMULATE)
        assert entry["wall_s"]["runs"] == [wall] * bench_record.SIMULATE_RUNS
        assert entry["peak_rss_mb"]["median"] == 40.0


class _Child:
    """A started process that `os.wait4` reaps, as `subprocess.Popen` gives one."""

    started = []

    def __init__(self, cmd, **kwargs):
        self.pid, self.cmd, self.kwargs, self.returncode = 4242, cmd, kwargs, None
        _Child.started.append(self)


@pytest.mark.parametrize("status, exits", [(0, False), (1 << 8, True)], ids=["ok", "exit-1"])
def test_a_whole_process_run_is_its_own_child_pinned_to_one_cpu(tmp_path, monkeypatch,
                                                                 status, exits):
    _Child.started.clear()
    reaped = []

    def wait4(pid, options):
        reaped.append(pid)
        return pid, status, SimpleNamespace(ru_maxrss=38 * 1024)

    monkeypatch.setattr(bench_record.subprocess, "Popen", _Child)
    monkeypatch.setattr(bench_record.os, "wait4", wait4)
    if exits:
        with pytest.raises(SystemExit, match="exited 1"):
            bench_record._simulate(tmp_path)
        return
    result = bench_record._simulate(tmp_path)
    (child,) = _Child.started
    assert reaped == [child.pid] and child.returncode == 0
    assert result["peak_rss_mb"] == 38.0 and result["wall_s"] >= 0.0
    assert child.cmd[1:3] == ["-m", "sdcsim.cli"]
    assert tuple(child.cmd[3:3 + len(bench_record.SIMULATE)]) == bench_record.SIMULATE
    assert child.kwargs["cwd"] == tmp_path
    assert child.kwargs["env"]["PYTHONPATH"] == str(tmp_path / "src")
    assert child.kwargs["stdout"] is subprocess.DEVNULL
    pinned = []
    monkeypatch.setattr(bench_record.os, "sched_setaffinity", lambda pid, cpus: pinned.append(cpus))
    child.kwargs["preexec_fn"]()  # the child's hook, run here with the pinning faked
    assert pinned == [{min(os.sched_getaffinity(0))}]
