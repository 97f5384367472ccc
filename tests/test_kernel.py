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
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcsim import session
from sdcsim.cli import _event_lines, main
from sdcsim.elements import hwp
from sdcsim.fock import branch_on_modes
from sdcsim.protocol import (
    ALICE,
    ALPHABET,
    Branch,
    ClonePolicy,
    MessageSymbol,
    OpticalBench,
    Scenario,
    default_bench,
)
from sdcsim.session import (
    ACTIONS,
    BRANCHES,
    NoteKind,
    RunConfig,
    Session,
    Trials,
    _cycled,
    run_session,
)
from sdcsim.verify import binomial_tails

# Total false-alarm rate of the differential tests, split evenly (Bonferroni)
# over the configurations and, within one, over every count it checks.
FALSE_ALARM = 1e-6
DIFFERENTIAL_CONFIGS = {
    "a": dict(scenario=Scenario.A),
    "b-send-as-is": dict(scenario=Scenario.B, clone_policy=ClonePolicy.SEND_AS_IS),
    "b-clone-intended": dict(scenario=Scenario.B, clone_policy=ClonePolicy.CLONE_INTENDED),
    "c-erase-notes": dict(scenario=Scenario.C, erase_notes=True),
}


def negbin_tails(w: int, m: int, p: float) -> tuple[float, float]:
    """(P(W <= w), P(W >= w)) for W failures before the m-th success."""
    lower = binomial_tails(m, m + w, p)[1]
    upper = 1.0 if w == 0 else binomial_tails(m - 1, m + w - 1, p)[0]
    return lower, upper


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


def _tilted_hh():
    bench = OpticalBench()
    bench.encoder[MessageSymbol.HH] = (hwp(bench.registry, 22.5, ALICE), bench.pol_pass_h)
    return bench


def _tilted_psi_minus():
    bench = OpticalBench()
    bench.encoder[MessageSymbol.PSI_MINUS] = (hwp(bench.registry, 22.5, ALICE),)
    return bench


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
    assert np.array_equal(trials.tally(), expected.reshape(len(ALPHABET), len(ACTIONS)))


def test_trials_keep_one_int16_row_per_trial():
    trials = run_session(RunConfig(Scenario.A, 70_000, 31)).trials
    assert trials.row.dtype == np.int16
    assert trials.row.nbytes == 2 * len(trials)
    arrays = [f.name for f in dataclasses.fields(trials)
              if isinstance(getattr(trials, f.name), np.ndarray)]
    assert arrays == ["row"]


@pytest.mark.parametrize(
    "fields", [dict(scenario=Scenario.B), dict(scenario=Scenario.C, erase_notes=True)]
)
def test_notes_are_read_without_building_records(fields):
    result = run_session(RunConfig(n_messages=3_000, seed=12, classical_delay=4, **fields))
    notes = list(result.notes)
    assert "data" not in vars(result.records)  # records still unbuilt
    sent = [r.note for r in result.records if r.note and r.note.delivered_at is not None]
    assert notes and notes == sent


@pytest.mark.parametrize("length", range(1, 8))
def test_cycled_messages_match_the_modulo_form(length):
    cycle = np.arange(length, dtype=np.int8)
    for start in (0, 5, 65_536):
        for size in (1, 17, 65_536):
            cycled = _cycled(cycle, start, size)
            expected = cycle[np.arange(start, start + size) % length]
            assert cycled.dtype == expected.dtype
            assert np.array_equal(cycled, expected), (start, size)


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
    # small chunks, so that a short session spans several of them, one starting
    # off a multiple of 100 and one running from trial 999 to 1000
    monkeypatch.setattr(session, "CHUNK_MESSAGES", 330)
    n, delay = 1100, 3
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
    assert any(start % 100 for start in starts)
    assert 1000 not in starts and len(records) > 1000
    notes = run_session(RunConfig(n_messages=n, seed=8, classical_delay=delay, **fields)).notes
    assert all(note.delivered_at == note.trial + delay for note in notes)
    assert all(note.kind is not NoteKind.REPEAT for note in notes)
    for start in starts:  # notes are sent on both sides of every boundary
        assert any(start - 30 <= note.trial < start for note in notes)
        assert any(start <= note.trial < start + 30 for note in notes)


_SUFFIXES = (
    "psi+,controlled,sent,aH:1,aV:1,psi+,\r\n",
    'hh,wrong,cloned_resend,"aH:1,bH:1",x,y\r\n',
    "\r\n",
)


def _lines(first, suffixes):
    return "".join(f"{t},{s}" for t, s in zip(range(first, first + len(suffixes)), suffixes))


@pytest.mark.parametrize("first", [0, 1, 57, 99, 100, 101, 999, 1000, 9_950, 65_536, 999_999,
                                   10**12 - 3])
def test_event_lines_number_every_trial(first):
    rng = np.random.default_rng(first)
    for n in (1, 2, 43, 99, 100, 101, 1000):
        suffixes = [_SUFFIXES[i] for i in rng.integers(0, len(_SUFFIXES), n)]
        assert _event_lines(first, suffixes) == _lines(first, suffixes), n


@settings(max_examples=200, deadline=None)
@given(first=st.integers(0, 10**15),
       suffixes=st.lists(st.sampled_from(_SUFFIXES), min_size=1, max_size=2000))
def test_event_lines_match_formatted_trials(first, suffixes):
    assert _event_lines(first, suffixes) == _lines(first, suffixes)


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


# sha256 over each short session's `Trials.row`, every column looked up from it
# (so that two configurations whose rows agree still differ) and its report as
# sorted JSON, for every message stream and size of the grid, one digest per
# configuration; "b-list-two-chunks" is one listed scenario-b session that
# crosses the chunk boundary
SHORT_SIZES = (1, 7, 40)
PINNED_SHORT_SESSIONS = {
    "a": "5ed17f1be1138b31ec9e21435aac666d9d0d5205e4ac8fd5afa6550ae6f37198",
    "b-send-as-is": "a3c81c6b8c9bb4c23bb5e597e7291f760b9349d295ecbde5c837ebfef923e1c7",
    "b-clone-intended": "e4a662b52d3d23fc3c8b1f9a2a6f01974fd5e1a79f59b732ac0bb5229926f783",
    "c-erase-notes": "8463139f38caba202cc3d29f508a971e407a666656cb5abcc689203a65f6b882",
    "c": "8015d96851266df8c8cd2da062504e6b03c59fe3aea904ec37c2887417f46bc8",
    "b-list-two-chunks": "39845485bf561b9bed9db43b165c295b47b2ea5571afa358158a17647bd6cc53",
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
def test_equal_optics_share_one_read_only_wiring(name):
    config = RunConfig(n_messages=5, seed=1, **PINNED_CONFIGS[name])
    first, second = Session(config, OpticalBench()), Session(config, OpticalBench())
    assert second.table is first.table
    assert all(a is b for a, b in zip(second._bounds, first._bounds))
    assert first._bounds  # the ideal bench's laws have outcomes to draw between
    table = first.table
    for array in (*first._bounds, table.intended, table.branch, table.action, table.pattern,
                  table.decoded, table.note, table.tally_code):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_a_changed_encoder_gets_its_own_wiring():
    config = RunConfig(Scenario.A, 5, 1)
    ideal = Session(config, OpticalBench())
    tilted = Session(config, _tilted_hh())
    assert tilted.table is not ideal.table
    assert len(tilted.table) != len(ideal.table)  # the tilted plate widens the laws
    bench = OpticalBench()
    bench.encoder[MessageSymbol.HH] = _tilted_hh().encoder[MessageSymbol.HH]
    assert Session(config, bench).table is tilted.table
