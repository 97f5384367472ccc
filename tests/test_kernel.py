"""The columnar session kernel against the optics, across chunks, and in memory.

The differential tests recompute every exact probability from the bench
(`encode_branches`, `analyze`, `branch_on_modes`), never from the kernel's own
compiled tables, and compare each count with an exact binomial band.
"""

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcsim import session
from sdcsim.cli import _event_lines, _line_ends, _row_suffixes, main
from sdcsim.fock import branch_on_modes
from sdcsim.protocol import (
    ALICE,
    ALPHABET,
    Branch,
    ClonePolicy,
    MessageSymbol,
    OpticalBench,
    Optics,
    Scenario,
    Verdict,
    default_bench,
)
from sdcsim.session import (
    ACTIONS,
    BRANCHES,
    NOTE_KINDS,
    NoteKind,
    RunConfig,
    ScenarioAction,
    Session,
    Trials,
    _cycled,
    bob_reconstruction,
    delivered_sequence,
    run_session,
)
from sdcsim.verify import (
    binomial_tails,
    check_branch_statistics,
    check_sampling_consistency,
    hh_session,
    negbin_tails,
)

# Total false-alarm rate of the differential tests, split evenly (Bonferroni)
# over the configurations and, within one, over every count it checks.
FALSE_ALARM = 1e-6
DIFFERENTIAL_CONFIGS = {
    "a": dict(scenario=Scenario.A),
    "b-send-as-is": dict(scenario=Scenario.B, clone_policy=ClonePolicy.SEND_AS_IS),
    "b-clone-intended": dict(scenario=Scenario.B, clone_policy=ClonePolicy.CLONE_INTENDED),
    "c-erase-notes": dict(scenario=Scenario.C, erase_notes=True),
}


# per product message, the ideal pair the oracle derives a click's laws from
COMPLEMENT = {MessageSymbol.HH: MessageSymbol.VV, MessageSymbol.VV: MessageSymbol.HH}


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
        if symbol not in COMPLEMENT:  # a Bell message never goes wrong
            cells[symbol] = (0.0, bench.analyze(split.controlled_state), {})
            continue
        complement = bench.state_for(COMPLEMENT[symbol])
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
            (trials.table.patterns[p] for p in trials.pattern.tolist()),
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


TILTED_HH = Optics(hh=(("hwp", 22.5), ("polarizer", "H")))


def _tilted_hh():
    return OpticalBench(TILTED_HH)


def _tilted_psi_minus():
    return OpticalBench(Optics(psi_minus=(("hwp", 22.5),)))


PINNED_CONFIGS = {**DIFFERENTIAL_CONFIGS, "c": dict(scenario=Scenario.C)}
PINNED_STREAMS = {
    "uniform": "uniform",
    "list": (MessageSymbol.HH, MessageSymbol.PSI_MINUS, MessageSymbol.VV, MessageSymbol.PSI_PLUS,
             MessageSymbol.HH, MessageSymbol.VV, MessageSymbol.PSI_MINUS),
}
PINNED_DTYPES = ["<i8", "|i1", "|i1", "|i1", "<i2", "|i1", "|i1"]
# sha256 over every Trials column (dtype string, then values) of a
# 70,000-message session at seed 31: (bench, config, stream) -> (digest, trials)
PINNED_KERNEL = {
    ("hh", "a", "uniform"):
        ("e10e096d90ecccfef1250345cad5212c4021b6de5c91351ce04e08d1d50c7776", 105189),
    ("hh", "a", "list"):
        ("a141214026b4383a73b2b75f3150378afa2197f2dc3989082a6e00a9486a05f1", 110295),
    ("hh", "b-send-as-is", "uniform"):
        ("9cc6dfe1f1c80819ab981ce21ada6a0a23adb9286759d614b9b73ce3fd3054df", 70000),
    ("hh", "b-send-as-is", "list"):
        ("4755f1f217eb4493554bc3223b16d0458ea84220ac1a28016927991693599f6c", 70000),
    ("hh", "b-clone-intended", "uniform"):
        ("64958ad06472d062465af15360449ff9acd1161f7b360ecf1e38392587d32ab6", 70000),
    ("hh", "b-clone-intended", "list"):
        ("213b8c2b0aa78c1137d7b6f93a24907e75f059b4ff011476559bef0ba60afaf6", 70000),
    ("hh", "c", "uniform"):
        ("fede6e90503a8128e21cea31a79c167da97bbd674c7327f7962e0ee09caf0cb7", 105189),
    ("hh", "c", "list"):
        ("2a20715e52a9cc779cdcd5812e45e06c5ab24fc71e9c6ce4202a18a3cadbc603", 110295),
    ("hh", "c-erase-notes", "uniform"):
        ("75afc4955aa2d6f2954e96edb7a96b59e2400a4af7d6749b1dc6ce44105f358a", 105189),
    ("hh", "c-erase-notes", "list"):
        ("47e0805872754c0249c62b1202e92ae03961b4722aba9e1026355f19757d3783", 110295),
    ("psi-", "a", "uniform"):
        ("a2bb341bac27affb35a9b39919f79b5d77c0576a0d3db5b7ff4e9768b7640007", 105189),
    ("psi-", "a", "list"):
        ("7dc947650afdd2fbe63fdd12051e4c85b25f177b51d2f96adfe51a5da26214e5", 110295),
    ("psi-", "b-send-as-is", "uniform"):
        ("95c885f3ed9ec19eb67a84ba4b0117556575dc91c964996bf5c174c5e093ef8b", 70000),
    ("psi-", "b-send-as-is", "list"):
        ("0cac45c9ff39ff21903e564b8faa27f0c5fcde319e0e0b6028bebe56b1b7f15b", 70000),
    ("psi-", "b-clone-intended", "uniform"):
        ("9ec5c140b12c05c5de314407a2a81751c0f0324ce061cf824416eef368510235", 70000),
    ("psi-", "b-clone-intended", "list"):
        ("e02b243bcae3c8989a1badb776cc3ab78c27d825a1e8a073aa80503ececc6dac", 70000),
    ("psi-", "c", "uniform"):
        ("2ed9d7dc948be79c41e8453327c7678e287838cb5bc8e1eda15eb2d9cd71c183", 105189),
    ("psi-", "c", "list"):
        ("a6e643b82826684ecc7bfccfdb6b1d479a36e683c5513fb013939f748e98045a", 110295),
    ("psi-", "c-erase-notes", "uniform"):
        ("eda1af2636b75818843eb26c70777b6a25b25796d2a961249be3ba724cb0e832", 105189),
    ("psi-", "c-erase-notes", "list"):
        ("69ed953aab648ee21bd1f27514f75f75aa444db79b265763168458ab51bf39f7", 110295),
}


def _law_codes(compiled, t):
    """Compiled law t's pattern codes in draw order: one past each running sum below
    +inf, so a stopped pair (t = -1) has the one code -1."""
    return compiled.codes[: 1 + np.isfinite(compiled.sums[:, t]).sum(), t].tolist()


@pytest.mark.parametrize("bench_name,make_bench", [("hh", _tilted_hh), ("psi-", _tilted_psi_minus)])
def test_kernel_columns_are_pinned_on_perturbed_benches(bench_name, make_bench):
    # laws of unequal widths (2 to 6 outcomes), so a stacked draw that let a
    # narrow law's last running sum count would change these digests
    bench = make_bench()
    compiled = bench.compiled
    widths = {len(_law_codes(compiled, t)) for t in range(compiled.sums.shape[1] - 1)}
    assert len(widths) > 1, widths
    for name, fields in PINNED_CONFIGS.items():
        for stream, messages in PINNED_STREAMS.items():
            config = RunConfig(n_messages=70_000, seed=31, messages=messages, **fields)
            trials = run_session(config, bench).trials
            assert [col.dtype.str for col in trials.columns] == PINNED_DTYPES
            digest = hashlib.sha256()
            for col in trials.columns:
                digest.update(col.dtype.str.encode())
                digest.update(col.tobytes())
            key = (bench_name, name, stream)
            assert (digest.hexdigest(), len(trials)) == PINNED_KERNEL[key], key


class _TopUniforms:
    """A trial stream whose every uniform is the largest float below 1."""

    def __init__(self, rng):
        self._rng = rng

    def geometric(self, p):
        return self._rng.geometric(p)

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("make_bench", [_tilted_hh, _tilted_psi_minus])
@pytest.mark.parametrize("scenario", [Scenario.A, Scenario.B])
def test_the_top_uniform_draws_each_tables_last_outcome(make_bench, scenario, monkeypatch):
    # the laws' last running sums lie below that uniform, so a stacked draw
    # that counted a narrow law's last sum would land in the padding
    real = session.trial_rng
    monkeypatch.setattr(session, "trial_rng", lambda seed, chunk: _TopUniforms(real(seed, chunk)))
    bench = make_bench()
    compiled = bench.compiled
    trials = run_session(RunConfig(scenario, 2_000, 4), bench).trials
    wrong_table = compiled.lone_table if scenario is Scenario.A else compiled.resent_table
    drawn_from = [wrong_table[m] if b else m
                  for m, b in zip(trials.intended.tolist(), trials.branch.tolist())]
    assert trials.pattern.tolist() == [_law_codes(compiled, t)[-1] for t in drawn_from]


BENCHES = {"ideal": OpticalBench, "hh": _tilted_hh, "psi-": _tilted_psi_minus}


@functools.cache
def _bench(name):
    return BENCHES[name]()


def _drawable_rows(config, bench):
    """The rows a session can draw: row cell * width + i for each outcome i of the
    table that cell, 2 * message + wrong branch, draws from (one row for a stopped pair)."""
    compiled = bench.compiled
    wrong_table = {
        Scenario.A: compiled.lone_table,
        Scenario.B: compiled.resent_table if config.clone_policy is ClonePolicy.SEND_AS_IS
        else range(len(ALPHABET)),
        Scenario.C: (-1,) * len(ALPHABET),
    }[config.scenario]
    width = len(compiled.codes)
    rows = {}
    for m, wrong in enumerate(wrong_table):
        for branch, table in enumerate((m, wrong)):
            for i, pattern in enumerate(_law_codes(compiled, table)):
                rows[(2 * m + branch) * width + i] = (m, branch, pattern)
    return rows


@pytest.mark.parametrize("bench_name", BENCHES)
def test_drawable_rows_name_distinct_trials(bench_name):
    bench = _bench(bench_name)
    for name, fields in PINNED_CONFIGS.items():
        config = RunConfig(n_messages=5_000, seed=31, **fields)
        table = Session(config, bench).table
        rows = _drawable_rows(config, bench)
        named = [(table.intended[r], table.branch[r], table.action[r], table.pattern[r],
                  table.decoded[r], table.note[r]) for r in rows]
        assert len(set(named)) == len(named), name
        assert [t[:2] + t[3:4] for t in named] == list(rows.values()), name
        drawn = set(np.unique(run_session(config, bench).trials.row).tolist())
        assert drawn <= rows.keys(), (name, drawn - rows.keys())


@settings(max_examples=100, deadline=None)
@given(bench_name=st.sampled_from(list(BENCHES)), config=st.sampled_from(list(PINNED_CONFIGS)),
       n=st.integers(0, 500), seed=st.integers(0, 2**32 - 1))
def test_tally_counts_each_message_and_action(bench_name, config, n, seed):
    table = Session(RunConfig(n_messages=1, seed=0, **PINNED_CONFIGS[config]),
                    _bench(bench_name)).table
    row = np.random.default_rng(seed).integers(0, len(table), n).astype(np.int16)
    trials = Trials(row, 0, table)
    cell = trials.intended.astype(np.intp) * len(ACTIONS) + trials.action
    expected = np.bincount(cell, minlength=len(ALPHABET) * len(ACTIONS))
    tally = trials.tally()
    assert tally.dtype == np.int64
    assert np.array_equal(tally, expected.reshape(len(ALPHABET), len(ACTIONS)))


def test_trials_keep_one_int16_row_per_trial():
    trials = run_session(RunConfig(Scenario.A, 70_000, 31)).trials
    assert trials.row.dtype == np.int16
    assert trials.row.nbytes == 2 * len(trials)
    arrays = [f.name for f in dataclasses.fields(trials)
              if isinstance(getattr(trials, f.name), np.ndarray)]
    assert arrays == ["row"]


@pytest.mark.parametrize("n", [5, session.CHUNK_MESSAGES + 3])
def test_trials_count_their_rows_once(n):
    trials = run_session(RunConfig(Scenario.A, n, 31)).trials
    counts = trials.row_counts()
    assert trials.row_counts() is counts  # kept from the report's tally
    assert counts.sum() == len(trials)
    assert np.array_equal(counts, np.bincount(trials.row, minlength=len(trials.table)))
    for array in (counts, trials.row):  # so the kept count cannot go stale
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0


def test_trials_own_their_rows():
    table = Session(RunConfig(Scenario.A, 1, 0)).table
    row = np.zeros(4, np.int16)
    trials = Trials(row, 0, table)
    tally = trials.tally()
    row[:] = 1  # the caller's array, not the trials' rows
    assert trials.row_counts()[:2].tolist() == [4, 0]
    assert np.bincount(trials.row).tolist() == [4]
    assert np.array_equal(trials.tally(), tally)
    assert not trials.row.flags.writeable
    kernel = run_session(RunConfig(Scenario.A, 5, 31)).trials
    assert Trials(kernel.row, 0, table).row is kernel.row  # a read-only row is kept, not copied


@pytest.mark.parametrize(
    "fields", [dict(scenario=Scenario.B), dict(scenario=Scenario.C, erase_notes=True)]
)
def test_notes_are_built_on_first_read(fields):
    result = run_session(RunConfig(n_messages=3_000, seed=12, classical_delay=4, **fields))
    assert "data" not in vars(result.notes)
    trials = result.trials
    kinds = [NOTE_KINDS[k] for k in trials.note.tolist()]
    sent = [
        (t, kind, ALPHABET[i] if kind is NoteKind.CORRECT_TO else None, t + 4)
        for t, i, kind in zip(trials.trial.tolist(), trials.intended.tolist(), kinds)
        if kind in (NoteKind.CORRECT_TO, NoteKind.ERASE)
    ]
    assert sent and [(n.trial, n.kind, n.symbol, n.delivered_at) for n in result.notes] == sent


@pytest.mark.parametrize("bench_name", BENCHES)
def test_receiver_views_are_the_per_trial_loops(bench_name):
    # on the tilted benches some trials misdecode, so these differ from the stream
    delivering = (ScenarioAction.SENT, ScenarioAction.CLONED_RESEND)
    for name, fields in PINNED_CONFIGS.items():
        config = RunConfig(n_messages=2_000, seed=17, classical_delay=3, **fields)
        result = run_session(config, _bench(bench_name))
        trials = result.trials
        notes = list(result.notes)
        corrections = {n.trial: n.symbol for n in notes if n.kind is NoteKind.CORRECT_TO}
        delivered, read = [], []
        for t, i, a, d in zip(trials.trial.tolist(), trials.intended.tolist(),
                              trials.action.tolist(), trials.decoded.tolist()):
            if ACTIONS[a] in delivering:
                delivered.append(ALPHABET[i])
            outcome = trials.table.outcomes[d]
            if outcome is not None and outcome.verdict is Verdict.DECODED:
                read.append(corrections.get(t, outcome.symbol))
        assert delivered_sequence(trials) == delivered, name
        assert bob_reconstruction(trials, notes) == read, name


@pytest.mark.parametrize("length", range(1, 8))
def test_cycled_messages_match_the_modulo_form(length):
    cycle = np.arange(length, dtype=np.int8)
    for start in (0, 5, 65_536):
        for size in (1, 17, 65_536):
            cycled = _cycled(cycle, start, size)
            expected = cycle[np.arange(start, start + size) % length]
            assert cycled.dtype == expected.dtype
            assert np.array_equal(cycled, expected), (start, size)


def _log_rows(trials):
    """The event log of these trials, rendered from their columns and their
    table's patterns and outcomes."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["trial", "intended", "branch", "action", "pattern", "decoded", "note"])
    patterns, outcomes = trials.table.patterns, trials.table.outcomes
    for t, i, b, a, p, d, k in zip(*(column.tolist() for column in trials.columns)):
        kind = NOTE_KINDS[k]
        note = "" if kind is None else kind.value
        if kind is NoteKind.CORRECT_TO:
            note += f"({ALPHABET[i].value})"
        writer.writerow(
            [
                t,
                ALPHABET[i].value,
                BRANCHES[b].value,
                ACTIONS[a].value,
                patterns[p].to_string() if p >= 0 else "",
                outcomes[d].label if d >= 0 else "",
                note,
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
    # small chunks, so that a short session spans several of them, one starting
    # off a multiple of 100 and one running from trial 999 to 1000
    monkeypatch.setattr(session, "CHUNK_MESSAGES", 330)
    n, delay = 1100, 3
    log = tmp_path / "events.csv"
    out = ["--n", str(n), "--seed", "8", "--out", str(tmp_path / "r.json"), "--log", str(log)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", *argv, *out]) == 0
    config = RunConfig(n_messages=n, seed=8, **fields)
    trials = run_session(config).trials
    assert log.read_bytes().decode() == _log_rows(trials)
    assert trials.trial.tolist() == list(range(len(trials)))

    starts = np.cumsum([0] + [len(c) for c in Session(config).chunks()])[1:-1].tolist()
    assert len(starts) >= 3
    assert any(start % 100 for start in starts)
    assert 1000 not in starts and len(trials) > 1000
    notes = run_session(RunConfig(n_messages=n, seed=8, classical_delay=delay, **fields)).notes
    assert all(note.delivered_at == note.trial + delay for note in notes)
    assert all(note.kind is not NoteKind.REPEAT for note in notes)
    for start in starts:  # notes are sent on both sides of every boundary
        assert any(start - 30 <= note.trial < start for note in notes)
        assert any(start <= note.trial < start + 30 for note in notes)


@functools.cache
def _line_table():
    """The line ends of a table whose rows send notes, and its 16 rows' suffixes."""
    table = Session(RunConfig(Scenario.C, 5, 0, erase_notes=True)).table
    return _line_ends(table), _row_suffixes(table)


def _lines(first, suffixes):
    return "".join(f"{t},{s}" for t, s in zip(range(first, first + len(suffixes)), suffixes))


def _rendered_and_formatted(first, rows):
    ends, suffixes = _line_table()
    row = np.asarray(rows, dtype=np.int16)
    return "".join(_event_lines(first, row, ends)), _lines(first, suffixes[row].tolist())


@pytest.mark.parametrize("first", [0, 1, 57, 99, 100, 101, 999, 1000, 9_950, 65_536, 999_999,
                                   10**12 - 3])
def test_event_lines_number_every_trial(first):
    # the longer runs cross the renderer's gather step of 8,100 trials, and from
    # 0, 9,950 and 999,999 the trial numbers gain a digit inside a step
    rng = np.random.default_rng(first)
    for n in (1, 2, 43, 99, 100, 101, 1000, 8_099, 8_100, 8_101, 16_300):
        rendered, formatted = _rendered_and_formatted(first, rng.integers(0, 16, n))
        assert rendered == formatted, n


@settings(max_examples=200, deadline=None)
@given(first=st.integers(0, 10**15),
       rows=st.lists(st.integers(0, 15), min_size=1, max_size=2000))
def test_event_lines_match_formatted_trials(first, rows):
    rendered, formatted = _rendered_and_formatted(first, rows)
    assert rendered == formatted


def test_event_lines_are_yielded_a_hundred_at_a_time():
    ends, _ = _line_table()
    hundreds = list(_event_lines(57, np.zeros(20_000, dtype=np.int16), ends))
    assert [h.count("\n") for h in hundreds] == [43] + [100] * 199 + [57]


def _traced_peak(call):
    """The most memory `call()` held at once beyond what was held before it, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def _simulate_peak(n: int, tmp_path) -> int:
    argv = ["simulate", "--scenario", "a", "--n", str(n), "--seed", "5",
            "--out", str(tmp_path / "r.json"), "--log", str(tmp_path / "events.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        peak, code = _traced_peak(lambda: main(argv))
    assert code == 0
    return peak


def test_simulate_memory_is_bounded_by_one_chunk(tmp_path):
    _simulate_peak(10, tmp_path)  # compile and cache the bench first
    one = _simulate_peak(session.CHUNK_MESSAGES, tmp_path)
    five = _simulate_peak(5 * session.CHUNK_MESSAGES, tmp_path)
    assert five < 1.5 * one, (one, five)


def test_simulate_holds_a_few_bytes_a_trial(tmp_path):
    # the chunk's int16 rows and one gather step's index and list: a string, list
    # or intp array that grows with the chunk's log would hold 8 bytes a trial or more
    _simulate_peak(10, tmp_path)  # compile the bench and render its line ends first
    peak = _simulate_peak(session.CHUNK_MESSAGES, tmp_path)
    trials = json.loads((tmp_path / "r.json").read_text())["pairs_consumed"]
    assert peak <= 16 * trials, peak / trials


@pytest.mark.parametrize("scenario", list(Scenario))
def test_a_full_chunk_holds_no_chunk_sized_float_temporary(scenario):
    # its int8 messages, int16 cells and rows and one block's temporaries: a
    # float64 or intp array per trial would add 8 bytes a trial
    run = Session(RunConfig(scenario, session.CHUNK_MESSAGES, 5))
    peak, trials = _traced_peak(lambda: run.scenario_step(0, 0))
    assert peak <= 12 * len(trials), peak / len(trials)


def test_branch_statistics_holds_no_intp_copy_of_its_rows():
    # the session's int16 rows, joined across chunks, and block-sized counts, which
    # both statistical checks read
    bench = default_bench()
    trials = 1_000_000

    def both_checks():
        drawn = hh_session(bench, 5, trials)
        return check_branch_statistics(bench, drawn), check_sampling_consistency(bench, drawn)

    peak, results = _traced_peak(both_checks)
    assert all(result.passed for result in results)
    assert peak <= 6 * trials, peak / trials


# sha256 over each short session's `Trials.row`, every column looked up from it
# (so that two configurations whose rows agree still differ) and its report as
# sorted JSON, for every message stream and size of the grid, one digest per
# configuration; "b-list-two-chunks" is one listed scenario-b session that
# crosses the chunk boundary
SHORT_SIZES = (1, 7, 40)
PINNED_SHORT_SESSIONS = {
    "a": "daa471aa9644ad127071fe5ab6853dfbc19cb784fa40a0b299dc834f64579a6d",
    "b-send-as-is": "0b85428da15ed5bb2c704656063c6fa0ab2d5f3c475ad40420acebbf8013cb0f",
    "b-clone-intended": "f4a8d95925f3ab531f1f4e4581f1cd5cda6c402ce2860878c61a07afc5cebe0e",
    "c-erase-notes": "9120d98a94cac61be1dde6d74c6644b0d9295ea5bee02b2095f20d74a74da231",
    "c": "9aa72f48a05810353fa9e460d6d1a6ac7c49f8db6294c263a9b4ddbe25e9b7c2",
    "b-list-two-chunks": "e416e9977183a09f3fb8177777bfa13197f0d8e0466d2fd8bdf1e2edd5701987",
}


def _short_sessions():
    for name, fields in PINNED_CONFIGS.items():
        yield name, [RunConfig(n_messages=n, seed=100 + n, messages=messages, **fields)
                     for messages in PINNED_STREAMS.values() for n in SHORT_SIZES]
    yield "b-list-two-chunks", [RunConfig(Scenario.B, 65_540, 9,
                                          messages=PINNED_STREAMS["list"])]


@pytest.mark.parametrize("name", PINNED_SHORT_SESSIONS)
def test_short_sessions_are_pinned(name):
    digest = hashlib.sha256()
    for config in dict(_short_sessions())[name]:
        result = run_session(config, OpticalBench())
        for col in (result.trials.row, *result.trials.columns):
            digest.update(col.tobytes())
        digest.update(json.dumps(result.report.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_SHORT_SESSIONS[name], name


@pytest.mark.parametrize("name", PINNED_CONFIGS)
def test_a_session_iterated_again_gives_the_same_chunks(name, monkeypatch):
    monkeypatch.setattr(session, "CHUNK_MESSAGES", 40)
    run = Session(RunConfig(n_messages=130, seed=5, **PINNED_CONFIGS[name]))
    built = dict(vars(run))
    first, second = list(run.chunks()), list(run.chunks())
    assert len(first) == len(second) >= 3
    assert first[0].first == 0
    for a, b in zip(first, second):
        assert a.first == b.first and np.array_equal(a.row, b.row)
    # nothing of the session changed while it was iterated
    assert vars(run).keys() == built.keys()
    assert all(vars(run)[key] is value for key, value in built.items())


# messages per session for each patched block size: every session spans several
# blocks of trials; 1,000 does not divide a chunk, so at the default chunk size
# its 70,000-message sessions end a chunk on a short block
BLOCK_SESSIONS = {1: 60, 7: 1_100, 1_000: 70_000}


def _block_runs(n):
    configs = [RunConfig(n_messages=n, seed=17, messages=messages, **fields)
               for fields in PINNED_CONFIGS.values() for messages in PINNED_STREAMS.values()]
    return [run_session(config) for config in configs]


@pytest.mark.parametrize("chunk", [None, 330])
@pytest.mark.parametrize("block", BLOCK_SESSIONS)
def test_any_block_size_draws_the_same_sessions(block, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(session, "CHUNK_MESSAGES", chunk)
    n = BLOCK_SESSIONS[block] if chunk is None else min(BLOCK_SESSIONS[block], 1_100)
    draws = 30 * block
    wanted = _block_runs(n)
    bench = default_bench()
    wanted_detail = check_sampling_consistency(bench, hh_session(bench, 6, draws)).detail
    monkeypatch.setattr(session, "BLOCK", block)
    for run, want in zip(_block_runs(n), wanted):
        assert len(run.trials) > block, run.config
        assert run.trials.row.dtype == np.int16
        assert np.array_equal(run.trials.row, want.trials.row), run.config
        assert np.array_equal(run.trials.row_counts(), want.trials.row_counts()), run.config
        assert run.report == want.report, run.config
    assert check_sampling_consistency(bench, hh_session(bench, 6, draws)).detail == wanted_detail
    table = wanted[0].trials.table
    empty = Trials(np.zeros(0, dtype=np.int16), 0, table)
    assert np.array_equal(empty.row_counts(), np.zeros(len(table), dtype=np.intp))
    assert empty.row_counts() is empty.row_counts() and not empty.row_counts().flags.writeable
    assert not empty.tally().any()


@pytest.mark.parametrize("name", PINNED_CONFIGS)
def test_equal_optics_share_one_read_only_wiring(name):
    config = RunConfig(n_messages=5, seed=1, **PINNED_CONFIGS[name])
    first, second = Session(config, OpticalBench()), Session(config, OpticalBench())
    assert second.table is first.table
    assert all(a is b for a, b in zip(second._bounds, first._bounds))
    assert first._bounds  # the ideal bench's laws have outcomes to draw between
    table = first.table
    for array in (*first._bounds, table.intended, table.branch, table.action, table.pattern,
                  table.decoded, table.note, table.tally_fold):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_a_changed_encoder_gets_its_own_wiring():
    config = RunConfig(Scenario.A, 5, 1)
    ideal = Session(config, OpticalBench())
    tilted = Session(config, _tilted_hh())
    assert tilted.table is not ideal.table
    assert len(tilted.table) != len(ideal.table)  # the tilted plate widens the laws
    # an equal record built anew shares the wiring; a plate one degree off does not
    bench = OpticalBench(Optics(hh=(("hwp", 45 / 2), ("polarizer", "H"))))
    assert bench.optics == TILTED_HH and bench.optics is not TILTED_HH
    assert Session(config, bench).table is tilted.table
    other = OpticalBench(Optics(hh=(("hwp", 23.5), ("polarizer", "H"))))
    assert Session(config, other).table is not tilted.table


# Each chunk re-keys the thread's one generator instead of building one. These
# properties name the numpy internals that equality rests on, so that a numpy
# release that changes one fails here, not only in the pins: how SeedSequence
# assembles its words from the tuple, the Philox state dict, and Lemire's
# method over buffered bytes for uniform messages.
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
EDGE_CHUNKS = (0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**64)
KEYS = st.tuples(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
                 st.sampled_from([session._STREAM_TRIAL, session._STREAM_MESSAGES]),
                 st.sampled_from(EDGE_CHUNKS) | st.integers(0, 2**40))
MESSAGE_SIZES = (*range(1, 18), 8_191, 8_192, 8_193, session.CHUNK_MESSAGES)


def _fresh(seed, stream, chunk):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream, chunk))))


def _draws(rng):
    """A fixed run of draws: uniforms, geometric retries at p 1, 1/2 and 0.75, then
    one more uniform, which reads where the run left the stream."""
    p = np.array([1.0, 0.5, 0.75] * 7)
    return rng.random(9), rng.geometric(p), rng.geometric(0.5, 3), rng.random()


def _assert_same_draws(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(key=KEYS)
@example(key=(0, 0, 0))
@example(key=(2**32 - 1, 1, 2**32))
@example(key=(2**32, 0, 2**32 - 1))
@example(key=(2**64 - 1, 1, 2**64))
def test_a_keyed_generator_draws_what_a_fresh_one_draws(key):
    want = _draws(_fresh(*key))
    _assert_same_draws(_draws(session._generator(*key)), want)


@settings(max_examples=100, deadline=None)
@given(a=KEYS, b=KEYS, size=st.integers(1, 9))
def test_re_keying_back_gives_the_first_stream_again(a, b, size):
    fresh = _fresh(*a)
    want = fresh.integers(0, 4, size, dtype=np.int8), _draws(fresh)
    first = session._generator(*a)
    first.random(5)
    # a part-read 32-bit word and buffer must not carry over to the next key
    session._generator(*b).integers(0, 4, size, dtype=np.int8)
    again = session._generator(*a)
    assert again is first  # one generator per thread
    assert np.array_equal(again.integers(0, 4, size, dtype=np.int8), want[0])
    _assert_same_draws(_draws(again), want[1])


@settings(max_examples=30, deadline=None)
@given(seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
       chunk=st.sampled_from(EDGE_CHUNKS[:-1]) | st.integers(0, 50))
@example(seed=2**64 - 1, chunk=2**32)
def test_uniform_messages_are_what_integers_draws(seed, chunk):
    for size in MESSAGE_SIZES:
        config = RunConfig(Scenario.A, chunk * session.CHUNK_MESSAGES + size, seed)
        fresh = _fresh(seed, session._STREAM_MESSAGES, chunk)
        want = fresh.integers(0, len(ALPHABET), size, dtype=np.int8)
        messages = session._chunk_messages(config, chunk)
        assert messages.dtype == np.int8
        assert np.array_equal(messages, want), size


THREAD_SESSIONS = [RunConfig(n_messages=n, seed=seed, messages=messages, **fields)
                   for seed, n in ((3, 90), (2**40 + 1, 17))
                   for fields in PINNED_CONFIGS.values()
                   for messages in PINNED_STREAMS.values()]


def _rows(configs):
    return [np.concatenate([t.row for t in Session(c).chunks()]) for c in configs]


def test_sessions_on_two_threads_draw_what_they_draw_serially(monkeypatch):
    monkeypatch.setattr(session, "CHUNK_MESSAGES", 20)  # every session spans chunks
    halves = THREAD_SESSIONS[::2], THREAD_SESSIONS[1::2]
    want = [_rows(half) for half in halves]
    start = threading.Barrier(2)
    got = [None, None]

    def run(i):
        start.wait(timeout=60)
        got[i] = [_rows(halves[i]) for _ in range(20)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so that the threads interleave mid-session
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(2):
        assert got[i] is not None, "a thread raised"
        for rows in got[i]:
            assert all(np.array_equal(a, b) for a, b in zip(rows, want[i], strict=True))


def test_zipped_sessions_each_draw_their_own_chunks(monkeypatch):
    monkeypatch.setattr(session, "CHUNK_MESSAGES", 40)
    first = Session(RunConfig(Scenario.A, 130, 5))
    second = Session(RunConfig(Scenario.B, 130, 6))
    apart = list(first.chunks()), list(second.chunks())
    zipped = list(zip(first.chunks(), second.chunks(), strict=True))
    assert len(zipped) == 4
    for (a, b), want_a, want_b in zip(zipped, *apart):
        assert a.first == want_a.first and np.array_equal(a.row, want_a.row)
        assert b.first == want_b.first and np.array_equal(b.row, want_b.row)
