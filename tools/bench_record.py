"""Record the benchmark of one or more source trees into a BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_26.json --tree parent=HEAD~1 --tree change=.

Each tree is `LABEL=REV`: REV is a git revision, exported with `git archive`,
or `.` for the files `git ls-files` lists in the working tree (a checkout's
untracked caches slow the benchmark down, so it never runs in place). Every
tree is copied to a temporary directory, and its own `perfbench/run.py` runs
there at `perfbench/run.py`'s own run length: each workload at seeds 1 and
7777, RUNS times each, then each workload once with `--trace 1` at seed 1.
The trees take turns: each pass runs them in the opposite order to the pass
before, so no tree always runs first and a slow minute of the machine falls
on all of them alike. With two trees, each workload gets 2 * RUNS pairs,
half of them led by each tree. Last, each tree runs one whole `sdcsim simulate`
process (SIMULATE: scenario a at 1,000,000 messages) SIMULATE_RUNS times,
the trees again taking turns, each process pinned to the one CPU that
`perfbench/run.py` pins itself to; its wall time and peak RSS are the child's
own, from `os.wait4`.

The output holds, per tree: the source commit, the `src/sdcsim` line counts
(physical, code-only and docstring lines, by `ast` and `tokenize`), and per
workload the median and quartiles of each end-to-end metric over the runs of
each seed, with the digests and operation counts; the traced run's
per-layer values, keyed by the layers L0-L4 of the ROADMAP's aim 1; and the
median and quartiles of the whole-process `simulate` runs.

    python3 tools/bench_record.py --ab sweep_short --tree parent=HEAD~1 --tree change=.

With `--ab WORKLOAD` the two trees run that workload in one process instead,
at each of the seeds, AB_ROUNDS rounds each, pinned to one CPU, so that no
per-process spread falls between them. Each
tree's `src/sdcsim` is imported with a fresh set of `sdcsim*` (and `run`,
`gate`, `spans`) entries in `sys.modules`, and each tree's own
`perfbench/run.py` workload class and `Runner` drive it; the entries of the
tree that runs are put back in `sys.modules` before each of its passes. A round
is one pass over every operation of the workload per tree, the trees in
opposite order from round to round, and a pass's time is the sum of its
operations' raw run times. Every operation is gated, and the trees must give
equal digests, or the command exits 1. It prints, per seed, each tree's median
and quartiles of the pass times, the median and quartiles of the per-round
ratios (second tree over first) and the rounds the second tree won, and writes
them as JSON to `--out` if given.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7777)  # perfbench's default and held-out workload seeds
RUNS = 5  # runs per tree, workload and seed: 10 pairs per workload over the two seeds
SIMULATE = ("simulate", "--scenario", "a", "--n", "1000000")  # the whole-process run
SIMULATE_RUNS = 3  # whole-process runs per tree
AB_ROUNDS = 60  # rounds of an in-process A/B
# the modules that each tree of an in-process A/B imports for itself: its
# program, and its perfbench modules, which import one another by these names
AB_MODULES = ("sdcsim", "run", "gate", "spans")

# traced span metrics by layer, matched on the metric name's prefix
LAYERS = {
    "L0": ("elements.", "fock.apply_element.", "fock.branch_on_modes.",
           "fock.outcome_distribution.", "protocol.analyze."),
    "L1": ("protocol.bench_init.", "protocol.signature_table.", "protocol.encode_branches.",
           "session.compile."),
    "L2": ("session.scenario_step.", "session.trial_rng.", "protocol.classify.",
           "session.run_session.", "fock.sample_outcome.", "session.useful_ratio"),
    "L3": ("session.build_report.", "capacity."),
    "L4": ("cli.", "verify.", "session.rss_bytes_per_trial"),
    "trace": ("trace.",),
}

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _copy_tree(rev: str, dest: Path) -> str:
    """Copy the tree of `rev` into `dest`; return its commit, marked if edited."""
    if rev != ".":
        subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", rev), check=True)
        return _git("rev-parse", rev).decode().strip()
    for name in _git("ls-files", "-z").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_bytes(source.read_bytes())
    edited = bool(_git("status", "--porcelain", "--untracked-files=no").strip())
    return _git("rev-parse", "HEAD").decode().strip() + ("+edits" if edited else "")


def line_counts(package: Path) -> dict:
    """Physical lines of the package's modules, the lines holding code once
    blanks, comments and docstrings are left out, and the docstring lines."""
    physical = code = docstrings = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        physical += len(text.splitlines())
        doc_lines = set()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, DOCUMENTED):
                continue
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc_lines.update(range(body[0].lineno, body[0].end_lineno + 1))
        skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
        code_lines = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in skip and token.start[0] not in doc_lines:
                code_lines.update(range(token.start[0], token.end[0] + 1))
        code += len(code_lines)
        docstrings += len(doc_lines)
    return {"physical": physical, "code_only": code, "docstring": docstrings}


def _run(copy: Path, workload: str, seed: int, trace: int) -> dict:
    """One `perfbench/run.py` process in `copy`; its run record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    child = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    if child.returncode:
        raise SystemExit(f"{' '.join(cmd)} in {copy} exited {child.returncode}:\n{child.stderr}")
    record = copy / ".perfbench-out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def _simulate(copy: Path) -> dict:
    """One whole `sdcsim simulate` process in `copy`, pinned to one CPU: its wall
    time and its own peak RSS (the rusage `os.wait4` gives for that child alone)."""
    cmd = [sys.executable, "-m", "sdcsim.cli", *SIMULATE,
           "--out", "simulate-report.json", "--log", "simulate-events.csv"]
    cpu = min(os.sched_getaffinity(0))
    with open(copy / "simulate-stderr.txt", "w+") as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
                                 stdout=subprocess.DEVNULL, stderr=stderr,
                                 preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            stderr.seek(0)
            raise SystemExit(f"{' '.join(cmd)} in {copy} exited {child.returncode}:\n"
                             f"{stderr.read()}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _layers(metrics: dict) -> dict:
    layers = {layer: {} for layer in LAYERS}
    for name, metric in sorted(metrics.items()):
        layer = next((k for k, prefixes in LAYERS.items() if name.startswith(prefixes)), "other")
        layers.setdefault(layer, {})[name] = metric["value"]
    return layers


def _turn(order: list, n: int) -> list:
    """The trees in `order` on even passes `n`, reversed on odd ones."""
    return order[::-1] if n % 2 else order


def record(trees: dict[str, str]) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        copies, out = {}, {}
        for label, rev in trees.items():
            copies[label] = Path(scratch) / label
            copies[label].mkdir()
            commit = _copy_tree(rev, copies[label])
            out[label] = {"rev": rev, "commit": commit,
                          "src_sdcsim_lines": line_counts(copies[label] / "src" / "sdcsim"),
                          "workloads": {}}
        spec = json.loads((next(iter(copies.values())) / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        records = {(label, w, s): [] for label in trees for w in workloads for s in SEEDS}
        order = list(copies.items())
        for run in range(RUNS):
            for w in workloads:
                for i, s in enumerate(SEEDS):
                    for label, copy in _turn(order, run + i):
                        print(f"{label} {w} seed {s}", file=sys.stderr, flush=True)
                        records[label, w, s].append(_run(copy, w, s, 0))
        traced = {}
        for j, w in enumerate(workloads):
            for label, copy in _turn(order, j):
                print(f"{label} {w} traced", file=sys.stderr, flush=True)
                traced[label, w] = _run(copy, w, SEEDS[0], 1)
        simulated = {label: [] for label in trees}
        for run in range(SIMULATE_RUNS):
            for label, copy in _turn(order, run):
                print(f"{label} {' '.join(SIMULATE)}", file=sys.stderr, flush=True)
                simulated[label].append(_simulate(copy))
    for label, runs_of in simulated.items():
        out[label]["simulate"] = {
            "argv": list(SIMULATE),
            **{name: _summary([r[name] for r in runs_of]) for name in ("wall_s", "peak_rss_mb")},
        }
    environment = None
    for (label, w, s), runs_of in records.items():
        environment = environment or {k: v for k, v in runs_of[0]["environment"].items()
                                      if k in ("nproc", "numpy", "python")}
        entry = out[label]["workloads"].setdefault(w, {"seeds": {}})
        entry["seeds"][str(s)] = {
            "digests": sorted({r["digest"] for r in runs_of}),
            "attempted": sum(r["attempted"] for r in runs_of),
            "failed": sum(r["failed"] for r in runs_of),
            "seconds": runs_of[0]["seconds"],
            "end_to_end": {
                name: {"unit": metric["unit"],
                       **_summary([r["metrics"][name]["value"] for r in runs_of])}
                for name, metric in runs_of[0]["metrics"].items()
            },
        }
        if (label, w) in traced:
            trace = traced.pop((label, w))
            entry["traced"] = {"seed": trace["seed"], "failed": trace["failed"],
                               "absent_targets": trace.get("absent_targets", []),
                               "layers": _layers(trace["metrics"])}
    return {"environment": environment, "seeds": SEEDS, "runs_per_seed": RUNS, "trees": out}


def _is_tree_module(name: str) -> bool:
    return name.split(".", 1)[0] in AB_MODULES


def _tree_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if _is_tree_module(name)}


def _use_modules(modules: dict) -> None:
    """Make `modules` the only `AB_MODULES` entries of `sys.modules`."""
    for name in [name for name in sys.modules if _is_tree_module(name)]:
        del sys.modules[name]
    sys.modules.update(modules)


def _load_tree(copy: Path, label: str, workload: str, seed: int, smoke: bool):
    """Import the tree in `copy` afresh and build its `Runner` over `workload`;
    return the runner and the tree's modules."""
    _use_modules({})
    path = list(sys.path)
    sys.path.insert(0, str(copy / "perfbench"))  # run.py imports gate and spans by name
    try:
        spec = importlib.util.spec_from_file_location("run", copy / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        sys.modules["run"] = run
        spec.loader.exec_module(run)
        sdcsim = run.import_program()  # refuses any sdcsim outside the tree's src/
        runner = run.Runner(run.WORKLOADS[workload](sdcsim, seed, smoke))
    finally:
        sys.path[:] = path
    print(f"{label}: sdcsim from {Path(sdcsim.__file__).parent}", file=sys.stderr, flush=True)
    return runner, _tree_modules()


def ab(workload: str, trees: dict[str, str], seed: int = SEEDS[0], rounds: int = AB_ROUNDS,
       smoke: bool = False) -> dict:
    """Run `workload` on two trees in this process, alternating; see the module doc."""
    if len(trees) != 2:
        raise ValueError(f"an A/B takes two trees, not {len(trees)}")
    saved_modules, saved_path = _tree_modules(), list(sys.path)
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    loaded = {}
    try:
        with tempfile.TemporaryDirectory(prefix="bench-ab-") as scratch:
            commits = {}
            for label, rev in trees.items():
                copy = Path(scratch) / label
                copy.mkdir()
                commits[label] = _copy_tree(rev, copy)
                loaded[label] = _load_tree(copy, label, workload, seed, smoke)
            for runner, modules in loaded.values():  # warm-up: lazy set-up and caches
                _use_modules(modules)
                for i in range(len(runner.w.ops)):
                    runner.op(i)
            passes = {label: [] for label in trees}
            order = list(loaded.items())
            for n in range(rounds):
                for label, (runner, modules) in _turn(order, n):
                    _use_modules(modules)
                    passes[label].append(sum(runner.op(i).elapsed
                                             for i in range(len(runner.w.ops))))
            for runner, modules in loaded.values():
                _use_modules(modules)
                runner.w.close()
    finally:
        _use_modules(saved_modules)
        sys.path[:] = saved_path
        os.sched_setaffinity(0, affinity)
    (first, (runner_a, _)), (second, (runner_b, _)) = loaded.items()
    ratios = [b / a for a, b in zip(passes[first], passes[second])]
    return {
        "workload": workload, "seed": seed, "rounds": rounds, "smoke": smoke,
        "operations": len(runner_a.w.ops),
        "trees": {label: {"rev": trees[label], "commit": commits[label],
                          "sdcsim": modules["sdcsim"].__file__,
                          "digest": runner.digest(), "attempted": runner.attempted,
                          "failed": runner.failed, "failures": runner.failures,
                          "pass_s": _summary(passes[label])}
                  for label, (runner, modules) in loaded.items()},
        "ratio": _summary(ratios),
        "wins": sum(ratio < 1.0 for ratio in ratios),
        "digests_equal": runner_a.digest() == runner_b.digest(),
    }


def _print_ab(result: dict) -> None:
    print(f"{result['workload']} seed {result['seed']}: {result['rounds']} rounds of "
          f"{result['operations']} operations")
    for label, tree in result["trees"].items():
        s = tree["pass_s"]
        print(f"  {label:<8} median {s['median'] * 1e3:9.3f} ms  q1 {s['q1'] * 1e3:9.3f}  "
              f"q3 {s['q3'] * 1e3:9.3f}  failed {tree['failed']}/{tree['attempted']}  "
              f"digest {tree['digest'][:16]}")
    second = list(result["trees"])[1]
    r = result["ratio"]
    print(f"  ratio    median {r['median']:.4f}  q1 {r['q1']:.4f}  q3 {r['q3']:.4f}  "
          f"{second} won {result['wins']} of {result['rounds']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="the output file (required without --ab)")
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=REV",
                        help="a tree to record (repeatable)")
    parser.add_argument("--ab", metavar="WORKLOAD",
                        help="run WORKLOAD on two trees in one process, alternating")
    args = parser.parse_args(argv)
    if not all("=" in tree for tree in args.tree):
        parser.error("--tree takes LABEL=REV")
    trees = dict(tree.split("=", 1) for tree in args.tree)
    if args.ab is None:
        if args.out is None:
            parser.error("--out is required without --ab")
        result = record(trees)
    else:
        if len(trees) != 2:
            parser.error("--ab takes two --tree")
        result = [ab(args.ab, trees, seed) for seed in SEEDS]
        for by_seed in result:
            _print_ab(by_seed)
    if args.out:
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if args.ab and not all(by_seed["digests_equal"] and not any(
            tree["failed"] for tree in by_seed["trees"].values()) for by_seed in result):
        print("the trees' outputs differ or failed the gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
