"""Layered benchmark for sdcsim, driven from outside through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One process runs one workload as a closed loop with a single caller and no
threads. The program is imported from `src/` of the checkout this file sits
in, never from anywhere else. Every output is checked by `gate.py` outside
the timed region; a failed check or an exception counts as a failed
operation, not as a crash. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
`--workload all` runs every workload in its own process and prints every
metric with its unit and sample count. See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

DEFAULT_SEED = 1
HELDOUT_SEED = 7777
SETUP_RUNS = 9

# Speed calibration. The machine this runs on is shared, and its speed
# drifts by up to 1.7x over minutes, through slow-downs that come in short
# bursts. So the benchmark runs a fixed reference loop after every chunk of about
# CHUNK_S of operations and scales each chunk's times by REFERENCE_UNIT_S /
# (the mean reference-unit time measured just before and after it): times
# are seconds at the speed where one reference unit takes REFERENCE_UNIT_S.
# Raw times go into the run record too.
REFERENCE_UNIT_S = 0.005
REFERENCE_SHARE = 0.25
REFERENCE_MIN_S = 0.05
CHUNK_S = 0.25

LONG_MESSAGES = 5_000
SWEEP_CONFIGS = 480
SMOKE_LONG_MESSAGES = 300
SMOKE_SWEEP_CONFIGS = 16
SMOKE_VERIFY_TRIALS = 5_000

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sdcsim
sdcsim.default_bench().signature_table()
print(time.perf_counter() - t0)
"""


def import_program():
    """Import sdcsim from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import sdcsim
    import sdcsim.cli
    import sdcsim.verify

    if not Path(sdcsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sdcsim resolved to {sdcsim.__file__}, outside {SRC}")
    return sdcsim


def reference_unit() -> int:
    """Fixed work resembling the program's mix: numpy Generator set-up, dicts, tuples."""
    acc = 0
    table = {}
    for i in range(250):
        u = np.random.default_rng((7, 0, i)).random()
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + u
        acc += len(str(key))
    return acc + len(sorted(table))


def reference_block(seconds: float) -> list[float]:
    """Time reference units for at least `seconds`; at least three units."""
    times = []
    end = perf_counter() + seconds
    while len(times) < 3 or perf_counter() < end:
        t0 = perf_counter()
        reference_unit()
        times.append(perf_counter() - t0)
    return times


def speed(before: list[float], after: list[float]) -> float:
    """Scale factor from raw seconds to reference-speed seconds.

    The mean, not the median, of the unit times: the slowdowns come in
    bursts shorter than a unit, and an operation's time sums over them."""
    return REFERENCE_UNIT_S / statistics.fmean(before + after)


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Fresh-process time for `import sdcsim` plus compiling the default bench.

    Returns (calibrated, raw) samples."""
    calibrated, raw = [], []
    before = reference_block(REFERENCE_MIN_S)
    for i in range(runs + 1):  # the first child only warms the file cache
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = reference_block(REFERENCE_MIN_S)
        if i:
            raw.append(float(child.stdout.strip().splitlines()[-1]))
            calibrated.append(raw[-1] * speed(before, after))
        before = after
    return calibrated, raw


@dataclass
class Checked:
    """What the gate learned from one operation's output."""

    attempted: int
    fails: list[str]
    digest: str
    pairs: int = 0
    delivered: int = 0
    log_bytes: int = 0
    elapsed: float = 0.0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class LongUniformA:
    """One long uniform scenario-a session through `sdcsim simulate`, in process."""

    name = "long_uniform_a"

    def __init__(self, sdcsim, seed: int, smoke: bool):
        self.sdcsim = sdcsim
        self.n = SMOKE_LONG_MESSAGES if smoke else LONG_MESSAGES
        self.config = sdcsim.RunConfig(scenario=sdcsim.Scenario.A, n_messages=self.n, seed=seed)
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="long-", dir=OUT))
        self.report, self.log = self.tmp / "report.json", self.tmp / "events.csv"
        self.argv = [
            "simulate", "--scenario", "a", "--n", str(self.n), "--seed", str(seed),
            "--out", str(self.report), "--log", str(self.log),
        ]
        self.ops = [None]
        self.p_controlled = gate.controlled_probabilities(sdcsim)

    def run(self, op):
        for path in (self.report, self.log):
            path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return self.sdcsim.cli.main(self.argv)

    def check(self, op, code) -> Checked:
        if code != 0:
            return Checked(1, [f"simulate exited with {code}"], f"exit {code}")
        report_bytes, log_bytes = self.report.read_bytes(), self.log.read_bytes()
        report = json.loads(report_bytes)
        fails = gate.check_simulate(
            self.sdcsim, self.p_controlled, self.config, report, log_bytes.decode()
        )
        return Checked(
            1, fails, _digest(report_bytes, log_bytes),
            report["pairs_consumed"], report["messages_delivered"], len(log_bytes),
        )

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# Every scenario/owner pair, with each scenario-specific knob both ways.
SWEEP_CELLS = (
    ("a", "bob", "send-as-is", False),
    ("a", "anna", "send-as-is", False),
    ("b", "anna", "send-as-is", False),
    ("b", "anna", "clone-intended", False),
    ("b", "bob", "send-as-is", False),
    ("b", "bob", "clone-intended", False),
    ("c", "alice", "send-as-is", False),
    ("c", "alice", "send-as-is", True),
)
SWEEP_DELAYS = (0, 1, 5, 50)


class SweepShort:
    """Many short sessions, each on a freshly built bench, over every knob."""

    name = "sweep_short"

    def __init__(self, sdcsim, seed: int, smoke: bool):
        self.sdcsim = sdcsim
        rng = random.Random(seed)
        m = sdcsim.MessageSymbol
        self.ops = []
        # The grid, the session sizes and how many product-state messages an
        # explicit list holds depend on the index only, so every seed asks for
        # about the same work; the seed picks the symbols, their order and the
        # session seeds.
        for i in range(SMOKE_SWEEP_CONFIGS if smoke else SWEEP_CONFIGS):
            scenario, owner, clone, erase = SWEEP_CELLS[i % len(SWEEP_CELLS)]
            grid = i // len(SWEEP_CELLS)
            if grid % 2:
                length = 1 + i % 6
                n_product = (i // 3) % (length + 1)
                symbols = [rng.choice((m.HH, m.VV)) for _ in range(n_product)]
                symbols += [rng.choice((m.PSI_PLUS, m.PSI_MINUS)) for _ in range(length - n_product)]
                rng.shuffle(symbols)
                messages = tuple(symbols)
            else:
                messages = "uniform"
            self.ops.append(
                sdcsim.RunConfig(
                    scenario=sdcsim.Scenario(scenario),
                    owner=sdcsim.Owner(owner),
                    n_messages=3 + (7 * i) % 38,
                    seed=rng.getrandbits(64),
                    messages=messages,
                    clone_policy=sdcsim.ClonePolicy(clone),
                    classical_delay=SWEEP_DELAYS[(grid // 2) % len(SWEEP_DELAYS)],
                    erase_notes=erase,
                )
            )
        self.p_controlled = gate.controlled_probabilities(sdcsim)

    def run(self, config):
        return self.sdcsim.run_session(config, self.sdcsim.OpticalBench())

    def check(self, config, result) -> Checked:
        report = result.report
        fails = gate.check_session(self.sdcsim, self.p_controlled, config, result)
        reconstruction = [s.value for s in self.sdcsim.bob_reconstruction(result.records, result.notes)]
        digest = _digest(json.dumps(report.to_dict(), sort_keys=True), reconstruction,
                         [str(n) for n in result.notes])
        return Checked(1, fails, digest, report.pairs_consumed, report.messages_delivered)

    def close(self):
        pass


class VerifySuite:
    """`verify.run_verification` with its default trial counts."""

    name = "verify_suite"

    def __init__(self, sdcsim, seed: int, smoke: bool):
        self.sdcsim = sdcsim
        self.seed = seed
        self.kwargs = {"branch_trials": SMOKE_VERIFY_TRIALS} if smoke else {}
        self.ops = [None]
        # Collect the reports of the sessions the suite runs, to count pairs.
        self._reports = []
        self._run_session = sdcsim.verify.run_session

        def collecting(*args, **kwargs):
            result = self._run_session(*args, **kwargs)
            self._reports.append(result.report)
            return result

        sdcsim.verify.run_session = collecting

    def run(self, op):
        self._reports = []
        results = self.sdcsim.verify.run_verification(seed=self.seed, **self.kwargs)
        return results, self._reports

    def check(self, op, output) -> Checked:
        results, reports = output
        digest = _digest(*[(r.name, r.passed, r.detail) for r in results])
        return Checked(
            len(results), gate.check_verify(results), digest,
            sum(r.pairs_consumed for r in reports), sum(r.messages_delivered for r in reports),
        )

    def close(self):
        self.sdcsim.verify.run_session = self._run_session


WORKLOADS = {w.name: w for w in (LongUniformA, SweepShort, VerifySuite)}


@dataclass
class Phase:
    """Timings of one measured loop: per iteration, and per operation index."""

    walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    pairs: list[int] = field(default_factory=list)
    latencies: dict[int, list[float]] = field(default_factory=dict)
    delivered: int = 0
    log_bytes: int = 0


class Runner:
    """Runs a workload's operations, gates every output, keeps the counts."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digest: dict[int, str] = {}

    def op(self, index: int, call=None) -> Checked:
        """Run, time and gate operation `index`; `call(fn, op)` may wrap the run."""
        op = self.w.ops[index]
        t0 = perf_counter()
        try:
            out, err = (call(self.w.run, op) if call else self.w.run(op)), None
        except Exception as exc:  # a raising operation is a failed operation
            out, err = None, exc
        elapsed = perf_counter() - t0
        if err is None:
            try:
                checked = self.w.check(op, out)
            except Exception as exc:
                checked = Checked(1, [f"gate raised {exc!r}"], "gate-error")
        else:
            checked = Checked(1, [f"raised {err!r}"], "raised")
        first = self.first_digest.setdefault(index, checked.digest)
        if checked.digest != first:
            checked.fails.append(f"op {index}: output differs from its first run")
        self.attempted += checked.attempted
        self.failed += min(len(checked.fails), checked.attempted)
        self.failures.extend(checked.fails[: max(0, 20 - len(self.failures))])
        checked.elapsed = elapsed
        return checked

    def phase(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        call = tracer.call_op if tracer else None
        phase = Phase()
        deadline = perf_counter() + seconds
        before = reference_block(REFERENCE_MIN_S)
        n_ops = len(self.w.ops)
        while not phase.walls or perf_counter() < deadline:
            wall = raw = pairs = 0
            chunk = []
            for i in range(n_ops):
                checked = self.op(i, call)
                pairs += checked.pairs
                phase.delivered += checked.delivered
                phase.log_bytes += checked.log_bytes
                chunk.append(checked.elapsed)
                chunk_s = sum(chunk)
                if chunk_s < CHUNK_S and i < n_ops - 1:
                    continue
                after = reference_block(max(REFERENCE_MIN_S, REFERENCE_SHARE * chunk_s))
                scale = speed(before, after)
                before = after
                phase.speeds.append(scale)
                for j, x in enumerate(chunk, start=i + 1 - len(chunk)):
                    phase.latencies.setdefault(j, []).append(x * scale)
                raw += chunk_s
                wall += chunk_s * scale
                chunk = []
            phase.raw_walls.append(raw)
            phase.walls.append(wall)
            phase.pairs.append(pairs)
        return phase

    def heap_pass(self) -> tuple[int, int]:
        """One untimed pass under tracemalloc: (sum of per-op heap peaks, pairs)."""
        peak_sum = pairs = 0
        tracemalloc.start()
        try:
            for i in range(len(self.w.ops)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                checked = self.op(i)
                peak_sum += tracemalloc.get_traced_memory()[1] - base
                pairs += checked.pairs
        finally:
            tracemalloc.stop()
        return peak_sum, pairs

    def digest(self) -> str:
        return _digest(*[self.first_digest[i] for i in sorted(self.first_digest)])


def tail_latency(values: list[float]) -> float:
    """Nearest-rank p99, or, with fewer than 1000 samples, the highest
    percentile that has at least ten samples beyond it, but not below p50."""
    ordered = sorted(values)
    q = max(0.5, min(0.99, 1 - 10 / len(ordered)))
    return max(statistics.median(ordered), ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def end_to_end(setup: list[float], phase: Phase) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count).

    Every iteration repeats the same inputs, so each operation's latency is
    the median over its repeats, which keeps the machine's short slow-down
    bursts out of the tail; the percentiles are taken over operations."""
    lat_ms = [statistics.median(v) * 1e3 for v in phase.latencies.values()]
    rates = [p / w for p, w in zip(phase.pairs, phase.walls)]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(phase.walls), len(phase.walls)),
        "trials_per_s": (statistics.median(rates), len(rates)),
        "session_ms_p50": (statistics.median(lat_ms), len(lat_ms)),
        "session_ms_p99": (tail_latency(lat_ms), len(lat_ms)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def per_layer(names, tracer: Tracer, traced: Phase, untraced: Phase, heap) -> tuple[dict, list]:
    """Per-layer metrics, each normalised per workload iteration; and the absent ones.

    Span times are scaled to reference speed like the end-to-end times."""
    iters = len(traced.walls)
    totals = tracer.totals()
    pairs = sum(traced.pairs)
    scale = statistics.median(traced.speeds)
    special = {
        "cli.log_bytes_per_trial": traced.log_bytes / pairs if pairs else 0.0,
        "session.rss_bytes_per_trial": heap[0] / heap[1] if heap[1] else 0.0,
        "session.useful_ratio": traced.delivered / pairs if pairs else 0.0,
        "trace.overhead_frac": statistics.median(traced.walls) / statistics.median(untraced.walls) - 1,
        "trace.coverage_frac": tracer.covered_s() / sum(traced.raw_walls),
    }
    values, absent = {}, []
    for name in names:
        if name in special:
            values[name] = (special[name], iters)
            continue
        span, _, kind = name.rpartition(".")
        if span not in tracer.installed:
            absent.append(name)
            values[name] = (0.0, iters)
            continue
        calls, self_s, incl_s = totals.get(span, (0, 0.0, 0.0))
        values[name] = ({
            "calls": calls / iters,
            "self_s": self_s * scale / iters,
            "s": incl_s * scale / iters,
            "us_per_call": incl_s * scale / calls * 1e6 if calls else 0.0,
        }[kind], iters)
    return values, absent


def environment(sdcsim) -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "sdcsim").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sdcsim": getattr(sdcsim, "__version__", "unknown"),
        "commit": _commit(),
        "src_sdcsim_lines": lines,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_workload(args, spec: dict) -> int:
    # One CPU for this process and the set-up children it starts: the run
    # neither migrates nor lets numpy's BLAS start a thread per CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        sdcsim = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import sdcsim from {SRC}: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    setup, raw_setup = ([], []) if args.trace else measure_setup(1 if args.smoke else SETUP_RUNS)
    workload = WORKLOADS[args.workload](sdcsim, args.seed, args.smoke)
    runner = Runner(workload)
    absent: list[str] = []
    try:
        runner.op(0)  # warm-up: lazy set-up and caches
        if args.trace:
            untraced = runner.phase(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                measured = runner.phase(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            heap = runner.heap_pass()
            values, absent = per_layer([m["name"] for m in declared], tracer, measured, untraced, heap)
        else:
            measured = runner.phase(args.seconds)
            values = end_to_end(setup, measured)
    finally:
        workload.close()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "digest": runner.digest(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "absent": absent,
        "environment": environment(sdcsim),
        "raw": {
            "setup_s": statistics.median(raw_setup) if raw_setup else None,
            "wall_s": statistics.median(measured.raw_walls),
            "speed_factor": statistics.median(measured.speeds),
        },
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"], "n": values[m["name"]][1]}
            for m in declared
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if args.trace:
        record["absent_targets"] = tracer.absent
        tracer.save(OUT / f"{stem}-spans.npz", {k: record[k] for k in ("workload", "seed", "digest")})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    _print_record(record)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["metrics"].items()},
    }))
    return 0


def _print_record(record: dict) -> None:
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['attempted']} operations, {record['failed']} failed "
        f"(failed_frac {frac:.3g}), digest {record['digest'][:16]}"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, m in record["metrics"].items():
        mark = "  (absent)" if name in record["absent"] else ""
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}{mark}")


def run_all(args, spec: dict) -> int:
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                               capture_output=True, text=True)
        print("\n".join(child.stdout.splitlines()[:-1]))
        if child.returncode:
            print(child.stderr, file=sys.stderr)
            status = child.returncode
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
