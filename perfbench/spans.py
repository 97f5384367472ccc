"""In-memory span tracer that wraps sdcsim's functions from the outside.

Each wrapper records one span per call: name, start, end, parent span and the
id of the benchmark operation it ran under. Self time is the span's duration
minus the time its child spans cover; calls are strictly nested on one
thread, so that is the sum of the children's durations. Spans stay in memory
(compact typed arrays) until `save` writes them out at the end of a run.

Every target is patched where the caller looks it up, so a function imported
by name into another module is patched in that module. A target that no
longer exists is recorded as absent instead of raising, so the tracer keeps
working while the program is refactored.
"""

from __future__ import annotations

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT_SPAN = "bench.op"

VERIFY_CHECKS = (
    "check_unitarity",
    "check_composition",
    "check_hom_dip",
    "check_perpendicular_split",
    "check_signatures",
    "check_exact_discrimination",
    "check_phi_indistinguishable",
    "check_branch_probability",
    "check_branch_statistics",
    "check_sampling_consistency",
    "check_capacity_references",
    "check_seed_determinism",
)

# (span name, module, attribute path looked up by the caller)
TARGETS = (
    ("cli.main", "sdcsim.cli", "main"),
    ("cli.write", "sdcsim.cli", "cmd_simulate"),
    ("session.run_session", "sdcsim", "run_session"),
    ("session.run_session", "sdcsim.cli", "run_session"),
    ("session.run_session", "sdcsim.verify", "run_session"),
    ("session.compile", "sdcsim.session", "Session.__init__"),
    ("session.scenario_step", "sdcsim.session", "Session.scenario_step"),
    ("session.trial_rng", "sdcsim.session", "trial_rng"),
    ("session.build_report", "sdcsim.session", "build_report"),
    ("capacity.capacity_from_counts", "sdcsim.capacity", "capacity_from_counts"),
    ("capacity.expected_accounting", "sdcsim.capacity", "expected_accounting"),
    ("protocol.bench_init", "sdcsim.protocol", "OpticalBench.__init__"),
    ("protocol.signature_table", "sdcsim.protocol", "OpticalBench.signature_table"),
    ("protocol.encode_branches", "sdcsim.protocol", "OpticalBench.encode_branches"),
    ("protocol.analyze", "sdcsim.protocol", "OpticalBench.analyze"),
    ("protocol.classify", "sdcsim.protocol", "OpticalBench.classify"),
    ("elements.construct", "sdcsim.protocol", "beam_splitter"),
    ("elements.construct", "sdcsim.protocol", "pbs"),
    ("elements.construct", "sdcsim.protocol", "hwp"),
    ("elements.construct", "sdcsim.protocol", "polarizer_monitor"),
    ("elements.construct", "sdcsim.verify", "hwp"),
    ("fock.apply_element", "sdcsim.protocol", "apply_element"),
    ("fock.apply_element", "sdcsim.verify", "apply_element"),
    ("fock.branch_on_modes", "sdcsim.protocol", "branch_on_modes"),
    ("fock.outcome_distribution", "sdcsim.protocol", "outcome_distribution"),
    ("fock.sample_outcome", "sdcsim.verify", "sample_outcome"),
    ("verify.run_verification", "sdcsim.verify", "run_verification"),
) + tuple((f"verify.{name}", "sdcsim.verify", name) for name in VERIFY_CHECKS)


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span recorder; `install` patches the targets, `uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> None:
        self._stack.append([self._next_id, name_id, perf_counter_ns(), 0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter_ns()
        span_id, name_id, start, child_ns = self._stack.pop()
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        self.span_id.append(span_id)
        self.parent.append(parent_id)
        self.name.append(name_id)
        self.op.append(self._op)
        self.start.append(start)
        self.end.append(end)
        self.self_ns.append(duration - child_ns)

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def call_op(self, fn, *args):
        """Run one benchmark operation under a fresh root span and op id."""
        self._op += 1
        self.enter(self._id(ROOT_SPAN))
        try:
            return fn(*args)
        finally:
            self.exit()

    def install(self) -> None:
        for span, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            setattr(owner, attr, self.wrap(span, original))
            self._patched.append((owner, attr, original))
            self.installed.add(span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total self seconds, total inclusive seconds)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        self_ns = np.frombuffer(self.self_ns, dtype=np.int64).astype(float)
        dur_ns = (
            np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        ).astype(float)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_ns, minlength=k) / 1e9
        incl_s = np.bincount(names, weights=dur_ns, minlength=k) / 1e9
        return {
            name: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
            for i, name in enumerate(self.names)
        }

    def covered_s(self) -> float:
        """Time covered by program spans: the children of the root spans."""
        if ROOT_SPAN not in self._name_ids:
            return 0.0
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int32)
        span_id = np.frombuffer(self.span_id, dtype=np.int64)
        roots = span_id[names == self._name_ids[ROOT_SPAN]]
        child = np.isin(parent, roots)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return float(dur[child].sum()) / 1e9

    def save(self, path: Path, meta: dict) -> None:
        """Write every span plus run metadata to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            self_ns=np.frombuffer(self.self_ns, dtype=np.int64),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )
