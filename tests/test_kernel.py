"""The columnar session kernel against the optics, across chunks, and in memory.

The differential tests recompute every exact probability from the bench
(`encode_branches`, `analyze`, `branch_on_modes`), never from the kernel's own
compiled tables, and compare each count with an exact binomial band.
"""

import contextlib
import csv
import io
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sdcsim import session
from sdcsim.cli import main
from sdcsim.fock import branch_on_modes
from sdcsim.protocol import (
    ALICE,
    ALPHABET,
    Branch,
    ClonePolicy,
    MessageSymbol,
    Scenario,
    default_bench,
)
from sdcsim.session import BRANCHES, NoteKind, RunConfig, Session, run_session

# Total false-alarm rate of the differential tests, split evenly (Bonferroni)
# over the configurations and, within one, over every count it checks.
FALSE_ALARM = 1e-6
DIFFERENTIAL_CONFIGS = {
    "a": dict(scenario=Scenario.A),
    "b-send-as-is": dict(scenario=Scenario.B, clone_policy=ClonePolicy.SEND_AS_IS),
    "b-clone-intended": dict(scenario=Scenario.B, clone_policy=ClonePolicy.CLONE_INTENDED),
    "c-erase-notes": dict(scenario=Scenario.C, erase_notes=True),
}


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Bin(n, p).

    The tail on k's side of the mean is summed term by term, outward from k,
    until the terms stop mattering; the other side is its complement.
    """
    if k < 0 or k > n:
        return (0.0, 1.0) if k < 0 else (1.0, 0.0)
    if p in (0.0, 1.0):
        return float(k >= n * p), float(k <= n * p)
    log_n, lp, lq = math.lgamma(n + 1), math.log(p), math.log1p(-p)

    def pmf(j):
        log_choose = log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        return math.exp(log_choose + j * lp + (n - j) * lq)

    step = -1 if k <= n * p else 1
    far, j = 0.0, k
    while 0 <= j <= n:
        term = pmf(j)
        far += term
        if term <= far * 1e-17:
            break
        j += step
    near = min(1.0, 1.0 - far + pmf(k))
    return (far, near) if step < 0 else (near, far)


def negbin_tails(w: int, m: int, p: float) -> tuple[float, float]:
    """(P(W <= w), P(W >= w)) for W failures before the m-th success."""
    lower = binomial_tails(m, m + w, p)[1]
    upper = 1.0 if w == 0 else binomial_tails(m - 1, m + w - 1, p)[0]
    return lower, upper


def exact_cells(scenario, clone_policy):
    """Per message: (P(wrong branch), pattern law on the controlled branch, on the wrong one).

    Computed from the bench's encoder and analyzer; a wrong-branch law of
    None means no photon reaches the receiver. A click's laws come from the
    ideal complementary pair, not from the encoder's own click branch, so they
    check that branch too.
    """
    bench = default_bench()
    cells = {}
    for symbol in ALPHABET:
        split = bench.encode_branches(symbol)
        if split.wrong_symbol is None:
            cells[symbol] = (0.0, bench.analyze(split.controlled_state), {})
            continue
        complement = bench.state_for(split.wrong_symbol)
        if scenario is Scenario.A:  # the sender's photon is detected, the receiver's is alone
            alice = bench.registry.modes_on_path(ALICE)
            ((_, lone),) = branch_on_modes(complement, alice).values()
            wrong = bench.analyze(lone)
        elif scenario is Scenario.C:
            wrong = None
        elif clone_policy is ClonePolicy.SEND_AS_IS:
            wrong = bench.analyze(complement)
        else:
            wrong = bench.analyze(split.controlled_state)
        cells[symbol] = (split.wrong_probability, bench.analyze(split.controlled_state), wrong)
    return cells


@pytest.mark.parametrize("name", DIFFERENTIAL_CONFIGS)
def test_counts_match_the_optics(name):
    fields = DIFFERENTIAL_CONFIGS[name]
    n = 50_000
    config = RunConfig(n_messages=n, seed=2024, **fields)
    trials = run_session(config).trials
    counts = Counter(
        zip(
            (ALPHABET[i] for i in trials.intended.tolist()),
            (BRANCHES[b] for b in trials.branch.tolist()),
            (trials.patterns[p] for p in trials.pattern.tolist()),
        )
    )
    per_branch = Counter((s, b) for s, b, _ in counts.elements())
    retries = config.scenario is not Scenario.B
    tails = {}  # what was checked -> (lower tail, upper tail)
    cells = exact_cells(config.scenario, config.clone_policy)
    for symbol, (p_wrong, controlled, wrong) in cells.items():
        n_wrong = per_branch[symbol, Branch.WRONG]
        messages = per_branch[symbol, Branch.CONTROLLED] + (0 if retries else n_wrong)
        tails[symbol, "messages"] = binomial_tails(messages, n, 1 / len(ALPHABET))
        if retries:
            tails[symbol, "wrong"] = negbin_tails(n_wrong, messages, 1.0 - p_wrong)
        else:
            tails[symbol, "wrong"] = binomial_tails(n_wrong, messages, p_wrong)
        for branch, law in ((Branch.CONTROLLED, controlled), (Branch.WRONG, wrong)):
            seen = {pattern for s, b, pattern in counts if (s, b) == (symbol, branch)}
            if law is None:  # a stopped pair: no pattern at all
                assert seen <= {None}, (symbol, branch, seen)
                continue
            assert seen <= set(law), (symbol, branch, seen - set(law))
            total = per_branch[symbol, branch]
            for pattern, prob in law.items():
                count = counts[symbol, branch, pattern]
                tails[symbol, branch, pattern] = binomial_tails(count, total, prob)
    alpha = FALSE_ALARM / len(DIFFERENTIAL_CONFIGS) / len(tails)
    outside = {cell: t for cell, t in tails.items() if min(t) < alpha / 2}
    assert not outside, outside


def _log_rows(records):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["trial", "intended", "branch", "action", "pattern", "decoded", "note"])
    for r in records:
        writer.writerow(
            [
                r.trial,
                r.intended.value,
                r.branch.value,
                r.action.value,
                r.bob_pattern.to_string() if r.bob_pattern else "",
                r.decoded.label if r.decoded else "",
                str(r.note) if r.note else "",
            ]
        )
    return buffer.getvalue()


@pytest.mark.parametrize(
    "argv,fields",
    [
        (
            ["--scenario", "b", "--messages", "hh,psi+"],
            dict(scenario=Scenario.B, messages=(MessageSymbol.HH, MessageSymbol.PSI_PLUS)),
        ),
        (["--scenario", "c", "--erase-notes"], dict(scenario=Scenario.C, erase_notes=True)),
    ],
)
def test_streamed_log_runs_on_across_chunks(argv, fields, tmp_path, monkeypatch):
    # small chunks, so that a short session spans several of them
    monkeypatch.setattr(session, "CHUNK_MESSAGES", 300)
    n, delay = 1000, 3
    log = tmp_path / "events.csv"
    out = ["--n", str(n), "--seed", "8", "--out", str(tmp_path / "r.json"), "--log", str(log)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", *argv, *out]) == 0
    config = RunConfig(n_messages=n, seed=8, **fields)
    records = run_session(config).records
    assert log.read_bytes().decode() == _log_rows(records)
    assert [r.trial for r in records] == list(range(len(records)))

    starts = np.cumsum([0] + [len(c) for c in Session(config).chunks()])[1:-1].tolist()
    assert len(starts) >= 3
    notes = run_session(RunConfig(n_messages=n, seed=8, classical_delay=delay, **fields)).notes
    assert all(note.delivered_at == note.trial + delay for note in notes)
    assert all(note.kind is not NoteKind.REPEAT for note in notes)
    for start in starts:  # notes are sent on both sides of every boundary
        assert any(start - 30 <= note.trial < start for note in notes)
        assert any(start <= note.trial < start + 30 for note in notes)


def _simulate_peak(n: int, tmp_path) -> int:
    argv = ["simulate", "--scenario", "a", "--n", str(n), "--seed", "5",
            "--out", str(tmp_path / "r.json"), "--log", str(tmp_path / "events.csv")]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_simulate_memory_is_bounded_by_one_chunk(tmp_path):
    _simulate_peak(10, tmp_path)  # compile and cache the bench first
    one = _simulate_peak(session.CHUNK_MESSAGES, tmp_path)
    five = _simulate_peak(5 * session.CHUNK_MESSAGES, tmp_path)
    assert five < 1.5 * one, (one, five)
