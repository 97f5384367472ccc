"""The benchmark recorder's bookkeeping: its layer keys, its line counts, its run
order, its whole-process runs and its in-process A/B."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
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


def _copy_program(rev, dest):
    """The program and its benchmark, copied without git, so that an A/B runs
    in a copy that is no git work tree too."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest)
    return rev


def test_an_in_process_a_a_run_gates_both_trees_and_puts_the_callers_modules_back(monkeypatch):
    import sdcsim

    monkeypatch.setattr(bench_record, "_copy_tree", _copy_program)
    modules = {name: module for name, module in sys.modules.items()
               if name.split(".", 1)[0] in bench_record.AB_MODULES}
    path, affinity = list(sys.path), os.sched_getaffinity(0)
    result = bench_record.ab("sweep_short", {"a": ".", "b": "."}, seed=3, rounds=3, smoke=True)
    # the caller's own program, module for module, its path and its CPUs
    assert sys.modules["sdcsim"] is sdcsim
    assert {name: module for name, module in sys.modules.items()
            if name.split(".", 1)[0] in bench_record.AB_MODULES} == modules
    assert sys.path == path and os.sched_getaffinity(0) == affinity
    a, b = result["trees"]["a"], result["trees"]["b"]
    # each tree imported its own copy, and every operation of both passed the gate
    assert a["sdcsim"] != b["sdcsim"] and sdcsim.__file__ not in (a["sdcsim"], b["sdcsim"])
    assert result["digests_equal"] and a["digest"] == b["digest"]
    operations = result["operations"]
    assert operations == 16  # the smoke-sized sweep
    for tree in (a, b):
        assert tree["failed"] == 0 and tree["failures"] == []
        assert tree["attempted"] >= (1 + result["rounds"]) * operations
        assert len(tree["pass_s"]["runs"]) == result["rounds"]
        assert tree["pass_s"]["q1"] <= tree["pass_s"]["median"] <= tree["pass_s"]["q3"]
    assert len(result["ratio"]["runs"]) == result["rounds"]
    assert 0 <= result["wins"] <= result["rounds"]


def test_an_a_b_takes_two_trees():
    with pytest.raises(ValueError, match="two trees"):
        bench_record.ab("sweep_short", {"a": "."}, rounds=1, smoke=True)


@pytest.mark.parametrize("equal, failed, code", [(True, 0, 0), (False, 0, 1), (True, 2, 1)],
                         ids=["ok", "digests-differ", "gate-failed"])
def test_the_a_b_command_runs_each_seed_and_exits_1_on_a_difference(tmp_path, monkeypatch,
                                                                    equal, failed, code):
    calls = []

    def ab(workload, trees, seed):
        calls.append((workload, trees, seed))
        tree = {"failed": failed, "attempted": 4, "digest": "d" * 16,
                "pass_s": {"median": 1.0, "q1": 1.0, "q3": 1.0}}
        return {"workload": workload, "seed": seed, "rounds": 1, "operations": 4,
                "trees": {"a": tree, "b": tree}, "digests_equal": equal, "wins": 1,
                "ratio": {"median": 0.9, "q1": 0.9, "q3": 0.9}}

    monkeypatch.setattr(bench_record, "ab", ab)
    out = tmp_path / "ab.json"
    argv = ["--ab", "sweep_short", "--tree", "a=HEAD", "--tree", "b=.", "--out", str(out)]
    assert bench_record.main(argv) == code
    assert calls == [("sweep_short", {"a": "HEAD", "b": "."}, s) for s in bench_record.SEEDS]
    assert [r["seed"] for r in json.loads(out.read_text())] == list(bench_record.SEEDS)
    with pytest.raises(SystemExit):
        bench_record.main(["--ab", "sweep_short", "--tree", "a=HEAD"])
