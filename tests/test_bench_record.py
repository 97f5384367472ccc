"""The benchmark recorder's bookkeeping: its layer keys, its line counts and its run order."""

import importlib.util
import json
from pathlib import Path

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

    monkeypatch.setattr(bench_record, "_copy_tree", copy_tree)
    monkeypatch.setattr(bench_record, "_run", run)
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
