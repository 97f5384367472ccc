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
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from sdcsim import session
from sdcsim.cli import _event_lines, _event_suffix, _line_ends, main
from sdcsim.fock import branch_on_modes
from sdcsim.protocol import (
    ALICE,
    ALPHABET,
    Branch,
    ClonePolicy,
    MessageSymbol,
    OpticalBench,
    Optics,
    ProtocolError,
    Scenario,
    Verdict,
    default_bench,
)
from sdcsim.session import (
    ACTIONS,
    BRANCHES,
    NOTE_KINDS,
    InvalidConfigError,
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
    hh_cell_law,
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
        ("60ce5dc471f03ad5126e52f25c5e09eb0fb3fa1dec413182b374be47d9a7d7b7", 105223),
    ("hh", "a", "list"):
        ("5f9a9e41ca7a8ba99dd904611db6dafbe34dd0a8281df272c227d211b423cd2f", 110041),
    ("hh", "b-send-as-is", "uniform"):
        ("f9a61df336650a98bc1f46a1e7fc91a6f2b5536d3b72470cc8e33ec59e20fad7", 70000),
    ("hh", "b-send-as-is", "list"):
        ("6e7936a8f5c7472b098a27ecbe044a3605e45e1846e50acc37b194e5345281a1", 70000),
    ("hh", "b-clone-intended", "uniform"):
        ("b0f512f1c0f4f526118022f14c596d7b14a518e5995e0bd2b30bcff22fb61c4a", 70000),
    ("hh", "b-clone-intended", "list"):
        ("7d3e210bde8618e553a83cb79a7952799777f34ae2d8a5d3b1ad6848355f1474", 70000),
    ("hh", "c", "uniform"):
        ("fe994f16b39486eb08a13ae26377fc0345e90d3a7fe7ceb54ae1bc979a6370f0", 105223),
    ("hh", "c", "list"):
        ("4c320323fb737b7ea63fa2908ba366209e3bdcf5834d8501d3727b637b5f2d31", 110041),
    ("hh", "c-erase-notes", "uniform"):
        ("28b5c45cdb78e52b3c06b4b61ff91b95f6670a8efa22b1b87654835d228971c9", 105223),
    ("hh", "c-erase-notes", "list"):
        ("6c899b2876303eecf3621d922a8871952fe86059b98de33a4569b3b291fcb7e3", 110041),
    ("psi-", "a", "uniform"):
        ("aa034430b8890505e6ea95141407c8604e179177db3f62fa7116508570a089be", 105223),
    ("psi-", "a", "list"):
        ("a4ae4de7c3ff085a4474f3797784229f23d8612d9c8d1f34f57e3e195868336b", 110041),
    ("psi-", "b-send-as-is", "uniform"):
        ("268abaa093d5e48fa055078c9ae01b791ad9453952a5cf71eca0ebc356d2dd07", 70000),
    ("psi-", "b-send-as-is", "list"):
        ("8d3eac2f2688b430f486b4561b972fcb58023c90415c2507bc429b14ea6e5bdc", 70000),
    ("psi-", "b-clone-intended", "uniform"):
        ("f78b8c580a154ca2a90fd49e64ad9c6e3e0957876b566ef517037f78f98b8acc", 70000),
    ("psi-", "b-clone-intended", "list"):
        ("a2d6da38e2163a91c6a310507e7e20218314441c12fd3ff87fa35b26462da01a", 70000),
    ("psi-", "c", "uniform"):
        ("7f70ec5037b2be632e8195d28cafac49dadd29cef03a9a62a0c64040c92da760", 105223),
    ("psi-", "c", "list"):
        ("27d1807ecf437cc1437ed65b304a8d4412b4581c5f1f72820074510268f96954", 110041),
    ("psi-", "c-erase-notes", "uniform"):
        ("0813cbff23fa992f267b303a1a917a6d2108372724c20b6022f5b9ff30274727", 105223),
    ("psi-", "c-erase-notes", "list"):
        ("6f5dc6407d844c37c43b2dda4dcc88c15ae59ee18486afb727dabad7d4c29b03", 110041),
}


def _law_codes(compiled, law):
    """A branch law's pattern codes in draw order, its sorted patterns' codes; a
    stopped pair (law None) has the one code -1."""
    return [compiled.patterns.index(p) for p in sorted(law)] if law is not None else [-1]


def _wrong_laws(compiled, config):
    """Per message, the law its wrong branch draws from in `config`'s wiring."""
    return [{
        Scenario.A: split.lone_law,
        Scenario.B: split.resent_law if config.clone_policy is ClonePolicy.SEND_AS_IS
        else split.controlled_law,
        Scenario.C: None,
    }[config.scenario] for split in compiled.branches]


@pytest.mark.parametrize("bench_name,make_bench", [("hh", _tilted_hh), ("psi-", _tilted_psi_minus)])
def test_kernel_columns_are_pinned_on_perturbed_benches(bench_name, make_bench):
    # laws of unequal widths (2 to 6 outcomes), so a stacked draw that let a
    # narrow law's last running sum count would change these digests
    bench = make_bench()
    compiled = bench.compiled
    widths = {len(law) for split in compiled.branches
              for law in (split.controlled_law, split.lone_law, split.resent_law) if law}
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
    """A trial stream whose every raw word is all ones, whose uniform is the
    largest float below 1."""

    def __init__(self):
        self.bit_generator = self

    def random_raw(self, size):
        return np.full(size, np.iinfo(np.uint64).max, dtype=np.uint64)


TOP = 1.0 - 2.0**-53
# psi+ sent through a plate and a polarizer gets through with p = 1/2 - 2^-54,
# whose running sums stop growing below the top uniform
STALLING_PSI_PLUS = Optics(psi_plus=(("hwp", 142.5078125), ("polarizer", "H")))


def _stalling_psi_plus():
    return OpticalBench(STALLING_PSI_PLUS)


@pytest.mark.parametrize("make_bench", [_tilted_hh, _tilted_psi_minus, _stalling_psi_plus])
@pytest.mark.parametrize("scenario", [Scenario.A, Scenario.B])
def test_the_top_uniform_draws_each_tables_last_outcome(make_bench, scenario, monkeypatch):
    # the laws' last running sums lie below that uniform, so a stacked draw
    # that counted a narrow law's last sum would land in the padding; in
    # scenario a each message draws every retry threshold its running sums
    # give, up to the last that grows
    monkeypatch.setattr(session, "trial_rng", lambda seed, chunk: _TopUniforms())
    bench = make_bench()
    compiled = bench.compiled
    config = RunConfig(scenario, 2_000, 4)
    trials = run_session(config, bench).trials
    wrong_laws = _wrong_laws(compiled, config)
    drawn_from = [wrong_laws[m] if b else compiled.branches[m].controlled_law
                  for m, b in zip(trials.intended.tolist(), trials.branch.tolist())]
    assert trials.pattern.tolist() == [_law_codes(compiled, t)[-1] for t in drawn_from]
    if scenario is Scenario.A:
        sent = Counter(trials.intended[trials.branch == 0].tolist())
        retried = Counter(trials.intended[trials.branch == 1].tolist())
        most = [oracle.retries(TOP, split.controlled_probability) for split in compiled.branches]
        assert retried == Counter({m: k * most[m] for m, k in sent.items()})
        assert max(most) > 50


# any plates and polarizers in front of a message's photon
ANY_ENCODER = st.lists(
    st.floats(-180.0, 180.0, allow_nan=False).map(lambda theta: ("hwp", theta))
    | st.sampled_from([("polarizer", "H"), ("polarizer", "V")]),
    max_size=3).map(tuple)
ANY_OPTICS = st.fixed_dictionaries(
    {}, optional={field: ANY_ENCODER for field in ("psi_plus", "psi_minus", "hh", "vv")}
).map(lambda fields: Optics(**fields))
ANY_STREAM = st.just("uniform") | st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=7)


@settings(max_examples=60, deadline=None)
@given(optics=ANY_OPTICS, clone_policy=st.sampled_from(list(ClonePolicy)), messages=ANY_STREAM,
       n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1),
       block=st.sampled_from([None, 1, 7, 64]), chunk=st.sampled_from([None, 50]))
@example(optics=TILTED_HH, clone_policy=ClonePolicy.SEND_AS_IS, messages="uniform", n=300,
         seed=31, block=7, chunk=None)
# three chunks, each ending on a short block
@example(optics=TILTED_HH, clone_policy=ClonePolicy.CLONE_INTENDED,
         messages=PINNED_STREAMS["list"], n=130, seed=77, block=16, chunk=50)
def test_scenario_b_draws_what_the_per_trial_reference_draws(optics, clone_policy, messages, n,
                                                             seed, block, chunk):
    try:
        bench = OpticalBench(optics)
    except ProtocolError:  # an encoder whose monitor always clicks, or clicks two ways
        return
    config = RunConfig(Scenario.B, n, seed, messages=messages, clone_policy=clone_policy)
    with pytest.MonkeyPatch.context() as patch:
        if block:
            patch.setattr(session, "BLOCK", block)
        if chunk:
            patch.setattr(session, "CHUNK_MESSAGES", chunk)
        got = run_session(config, bench).trials.row.tolist()
        want = oracle.scenario_b_rows(config, bench, session.CHUNK_MESSAGES)
    assert got == want


def _columns(trials):
    """Each trial as (trial, intended symbol, branch, action, pattern, outcome,
    note kind), looked up from its column codes, None where there is none."""
    table = trials.table
    return list(zip(trials.trial.tolist(),
                    (ALPHABET[i] for i in trials.intended.tolist()),
                    (BRANCHES[b] for b in trials.branch.tolist()),
                    (ACTIONS[a] for a in trials.action.tolist()),
                    (table.patterns[p] for p in trials.pattern.tolist()),
                    (table.outcomes[d] for d in trials.decoded.tolist()),
                    (NOTE_KINDS[k] for k in trials.note.tolist())))


@settings(max_examples=60, deadline=None)
@given(optics=ANY_OPTICS, name=st.sampled_from(["a", "c", "c-erase-notes"]), messages=ANY_STREAM,
       n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1),
       block=st.sampled_from([None, 1, 7, 64]), chunk=st.sampled_from([None, 50]))
# three chunks, each ending on a short block, the last of one message
@example(optics=TILTED_HH, name="c-erase-notes", messages=PINNED_STREAMS["list"], n=101,
         seed=77, block=16, chunk=50)
@example(optics=STALLING_PSI_PLUS, name="a", messages="uniform", n=300, seed=31, block=None,
         chunk=None)
def test_scenarios_a_and_c_draw_what_the_per_trial_reference_draws(optics, name, messages, n,
                                                                   seed, block, chunk):
    try:
        bench = OpticalBench(optics)
    except ProtocolError:  # an encoder whose monitor always clicks, or clicks two ways
        return
    config = RunConfig(n_messages=n, seed=seed, messages=messages, **PINNED_CONFIGS[name])
    with pytest.MonkeyPatch.context() as patch:
        if block:
            patch.setattr(session, "BLOCK", block)
        if chunk:
            patch.setattr(session, "CHUNK_MESSAGES", chunk)
        got = _columns(run_session(config, bench).trials)
        want = oracle.scenario_ac_trials(config, bench, session.CHUNK_MESSAGES)
    assert got == want


BELL_STREAM = (MessageSymbol.PSI_PLUS, MessageSymbol.PSI_MINUS)


@pytest.mark.parametrize("name", ["a", "c"])
def test_each_message_draws_its_retries_then_its_controlled_trial(name):
    # exact, with no statistics: a message's trials are its wrong-branch
    # retries and then one controlled trial, so a session's controlled trials
    # are its messages, each the last of its own, and a Bell message, which
    # always gets through, draws one trial and never a wrong one
    for n in (1, 4, 40):
        for seed in range(8):
            for messages in (BELL_STREAM, (MessageSymbol.HH,)):
                config = RunConfig(n_messages=n, seed=seed, messages=messages,
                                   **PINNED_CONFIGS[name])
                trials = run_session(config).trials
                ends = np.flatnonzero(trials.branch == 0)
                assert len(ends) == n and ends[-1] == len(trials) - 1, config
                attempts = np.diff(ends, prepend=-1)
                assert np.array_equal(trials.intended, trials.intended[ends].repeat(attempts))
                assert [ALPHABET[i] for i in trials.intended[ends].tolist()] == [
                    messages[i % len(messages)] for i in range(n)]
                if messages == BELL_STREAM:
                    assert len(trials) == n and not trials.branch.any(), config


PHILOX_KNOWN_ANSWER = [  # Random123's vector for philox4x64_10 at counter 0 and key 0
    "16554d9eca36314c", "db20fe9d672d0fdc", "d7e772cee186176b", "7e68b68aec7ba23b"]


def test_philox_words_are_the_published_known_answer():
    # numpy's Philox steps its counter before each block, so a counter of all
    # 2^64 - 1 gives counter 0's block
    words = np.random.Philox(key=0, counter=[2**64 - 1] * 4).random_raw(4)
    assert [f"{w:016x}" for w in words.tolist()] == PHILOX_KNOWN_ANSWER
    assert [f"{w:016x}" for w in oracle.philox4x64_10((0, 0, 0, 0), (0, 0))] == PHILOX_KNOWN_ANSWER


@pytest.mark.parametrize("seed, chunk, stream", [(1, 0, 0), (7777, 3, 1),
                                                 (2**64 - 1, 2**48 - 1, 0)])
def test_the_kernels_words_are_the_reference_philox_words(seed, chunk, stream):
    # nine words run over three blocks, the third begun
    words = session._generator(seed, stream, chunk).bit_generator.random_raw(9)
    assert words.tolist() == oracle.philox_words(seed, chunk, stream, 9)


def _with_p_controlled(p: float, symbol=MessageSymbol.HH) -> SimpleNamespace:
    """A bench whose compiled model is the ideal one with `symbol`'s controlled
    probability set to p."""
    compiled = OpticalBench().compiled
    p_controlled = compiled.p_controlled.copy()
    p_controlled[ALPHABET.index(symbol)] = p
    return SimpleNamespace(compiled=dataclasses.replace(compiled, p_controlled=p_controlled))


@pytest.mark.parametrize("p", [0.5, 0.4, 1 / 3 + 1e-12, 0.9])
def test_the_wirings_retries_are_what_geometric_draws(p, monkeypatch):
    # from p = 1/3 up, numpy's geometric searches the running sums the retry
    # keys hold, one raw word per draw
    n = 200_000
    monkeypatch.setattr(session, "CHUNK_MESSAGES", n)
    config = RunConfig(Scenario.A, n, 41, messages=(MessageSymbol.HH,))
    trials = Session(config, _with_p_controlled(p)).scenario_step(0, 0)
    attempts = np.diff(np.flatnonzero(trials.branch == 0), prepend=-1)
    assert np.array_equal(attempts, _fresh(41, session._STREAM_TRIAL, 0).geometric(p, n))


def test_a_p_controlled_past_the_retry_bound_is_refused_in_a_and_c():
    hh = ALPHABET.index(MessageSymbol.HH)
    refused = []
    for p in (0.01, 0.005):  # 3,267 retry thresholds, and more than the bound
        bench = _with_p_controlled(p)
        most = oracle.retries(TOP, p, stop=session.MAX_RETRIES + 1)
        refused.append(most > session.MAX_RETRIES)
        Session(RunConfig(Scenario.B, 5, 1), bench)  # scenario b never retries
        for scenario in (Scenario.A, Scenario.C):
            if refused[-1]:
                with pytest.raises(InvalidConfigError, match="retry thresholds"):
                    Session(RunConfig(scenario, 5, 1), bench)
                continue
            _, (thresholds, attempts, rows), _, _ = session.wiring(
                bench.compiled, scenario, ClonePolicy.SEND_AS_IS, False)
            width = len(thresholds) + 1
            assert rows.tolist() == [m * width for m in range(len(ALPHABET))]
            # a word below every threshold makes one attempt, one above them all 1 + most
            row = attempts[rows[hh]:rows[hh] + width]
            assert row[0] == 1 and row[-1] == 1 + most and (np.diff(row) >= 0).all()
    assert refused == [False, True]


@pytest.mark.parametrize("n", [1, session.BLOCK + 3, session.CHUNK_MESSAGES])
@pytest.mark.parametrize("stream", list(PINNED_STREAMS))
def test_a_scenario_b_chunk_draws_one_raw_word_per_message(stream, n, monkeypatch):
    keyed = []
    real = session.trial_rng
    monkeypatch.setattr(session, "trial_rng", lambda seed, chunk: keyed.append(real(seed, chunk))
                        or keyed[-1])
    run = Session(RunConfig(Scenario.B, n, 8, messages=PINNED_STREAMS[stream]))
    assert len(run.scenario_step(0, 0)) == n
    (rng,) = keyed
    # the words after the chunk's: its generator stands exactly n words in
    fresh = _fresh(8, session._STREAM_TRIAL, 0).bit_generator.random_raw(n + 5)
    assert rng.bit_generator.random_raw(5).tolist() == fresh[n:].tolist()


BENCHES = {"ideal": OpticalBench, "hh": _tilted_hh, "psi-": _tilted_psi_minus}


@functools.cache
def _bench(name):
    return BENCHES[name]()


def _drawable_rows(config, bench):
    """The rows a session can draw: row cell * width + i for each outcome i of the
    branch law that cell, 2 * message + wrong branch, draws from (one row for a
    stopped pair), where width is the widest of the wiring's laws."""
    compiled = bench.compiled
    laws = [law for split, wrong in zip(compiled.branches, _wrong_laws(compiled, config))
            for law in (split.controlled_law, wrong)]
    width = max(len(law or ()) for law in laws)
    rows = {}
    for cell, law in enumerate(laws):
        for i, pattern in enumerate(_law_codes(compiled, law)):
            rows[cell * width + i] = (cell >> 1, cell & 1, pattern)
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


BLOCK_EDGES = (1, session.BLOCK - 1, session.BLOCK, session.BLOCK + 1, 2 * session.BLOCK + 3)


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("config", list(PINNED_CONFIGS))
def test_row_counts_and_tally_are_the_plain_counts_at_block_edges(config, n):
    # rows counted one block at a time, the first block before the loop, against
    # one bincount of every row and a loop over each trial's message and action
    table = Session(RunConfig(n_messages=1, seed=0, **PINNED_CONFIGS[config])).table
    row = np.random.default_rng(n).integers(0, len(table), n).astype(np.int16)
    trials = Trials(row, 0, table)
    counts = trials.row_counts()
    assert counts.dtype == np.intp and not counts.flags.writeable
    assert np.array_equal(counts, np.bincount(row.astype(np.intp), minlength=len(table)))
    looped = np.zeros((len(ALPHABET), len(ACTIONS)), dtype=np.int64)
    for r in row.tolist():
        looped[table.intended[r], table.action[r]] += 1
    assert np.array_equal(trials.tally(), looped)


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
    chunk = session.CHUNK_MESSAGES
    # starts on and off a lap of the cycle, each side of a chunk boundary; sizes
    # that end short of a lap, on it and past it
    for start in (0, 5, length - 1, length, chunk - 1, chunk, 3 * chunk + 2):
        for size in (1, length, length + 1, 17, chunk):
            cycled = _cycled(cycle, start, size)
            expected = cycle[np.arange(start, start + size) % length]
            assert cycled.dtype == expected.dtype
            assert np.array_equal(cycled, expected), (start, size)
    # the chunks of a listed stream, one after another, are the cycle repeated
    stream = np.concatenate([_cycled(cycle, k * chunk, chunk) for k in range(3)])
    assert np.array_equal(stream, cycle[np.arange(3 * chunk) % length])


@pytest.mark.parametrize("n", [session.CHUNK_MESSAGES, session.CHUNK_MESSAGES + 1])
@pytest.mark.parametrize("stream", list(PINNED_STREAMS))
@pytest.mark.parametrize("config", list(PINNED_CONFIGS))
def test_a_session_at_the_chunk_edge_is_its_chunks(config, stream, n):
    config = RunConfig(n_messages=n, seed=23, messages=PINNED_STREAMS[stream],
                       **PINNED_CONFIGS[config])
    chunks = list(Session(config).chunks())
    assert len(chunks) == 1 + (n > session.CHUNK_MESSAGES)
    trials = run_session(config).trials
    assert trials.first == 0 and trials.row.dtype == np.int16
    assert np.array_equal(trials.row, np.concatenate([c.row for c in chunks]))
    assert [c.first for c in chunks] == [0, *([len(chunks[0])] if len(chunks) > 1 else [])]


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
    return _line_ends(table), np.array([_event_suffix(*row) for row in table.fields])


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
    # its int8 messages, int16 rows (and cells, in a and c) and one block's temporaries: a
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
        law = hh_cell_law(bench)
        return (check_branch_statistics(bench, drawn),
                check_sampling_consistency(bench, drawn, law))

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
    "a": "c9ab38cc168539e77ed622416ec6201204c202053cb32edc11c84365ec88689b",
    "b-send-as-is": "07d01aaff1ff4dd432476cf40a2494e2ccbca7b66bf23313d942afb042886255",
    "b-clone-intended": "1c1e427a1005e7eb1bccf30cba80ef3e732fef57b71708e589806a05c5863f44",
    "c-erase-notes": "805c3ced05a64f257602870db6959ddfcc3e98ff6984c4413a1a393fd7a40490",
    "c": "79b3925430d3a91dfa25684f6cd4900a6aff713ec1dbc062aa36833f100557c4",
    "b-list-two-chunks": "fcbcf5dfe2cee30f4e72bc759d218f065533fe54310a3a19b45dd940360dde9b",
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
    law = hh_cell_law(bench)
    wanted_detail = check_sampling_consistency(bench, hh_session(bench, 6, draws), law).detail
    monkeypatch.setattr(session, "BLOCK", block)
    for run, want in zip(_block_runs(n), wanted):
        assert len(run.trials) > block, run.config
        assert run.trials.row.dtype == np.int16
        assert np.array_equal(run.trials.row, want.trials.row), run.config
        assert np.array_equal(run.trials.row_counts(), want.trials.row_counts()), run.config
        assert run.report == want.report, run.config
    assert check_sampling_consistency(bench, hh_session(bench, 6, draws), law).detail == wanted_detail
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
    assert second._retries is first._retries and second._attempts is first._attempts
    assert first._bounds  # the ideal bench's laws have outcomes to draw between
    table = first.table
    for array in (*first._bounds, first._retries, first._attempts, first._rows, table.intended,
                  table.branch, table.action, table.pattern, table.decoded, table.note,
                  table.tally_fold):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = array[:1]


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


# Each chunk re-keys the thread's one generator instead of building one, and
# draws its uniforms as raw words. These properties name the numpy internals
# that equality rests on, so that a numpy release that changes one fails here,
# not only in the pins: the Philox state dict, which sets the key and counter
# words the public constructor sets, Lemire's method over buffered bytes for
# uniform messages, and the double `random` makes of each raw word.
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
# the last is the last chunk a session of at most 2^64 - 1 messages has
EDGE_CHUNKS = (0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**48 - 1)
CHUNKS = st.sampled_from(EDGE_CHUNKS) | st.integers(0, 2**48 - 1)
KEYS = st.tuples(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
                 st.sampled_from([session._STREAM_TRIAL, session._STREAM_MESSAGES]), CHUNKS)
MESSAGE_SIZES = (*range(1, 18), 8_191, 8_192, 8_193, session.CHUNK_MESSAGES)


def _fresh(seed, stream, chunk):
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, chunk, stream]))


def _draws(rng):
    """A fixed run of draws: uniforms, raw words, then one more uniform, which
    reads where the run left the stream."""
    return rng.random(9), rng.bit_generator.random_raw(21), rng.random()


def _assert_same_draws(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(key=KEYS)
@example(key=(0, 0, 0))
@example(key=(2**32 - 1, 1, 2**32))
@example(key=(2**32, 0, 2**32 - 1))
@example(key=(2**64 - 1, 1, 2**48 - 1))
def test_a_keyed_generator_draws_what_a_fresh_one_draws(key):
    want = _draws(_fresh(*key))
    _assert_same_draws(_draws(session._generator(*key)), want)


@settings(max_examples=20, deadline=None)
@given(seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1), chunk=CHUNKS,
       scenario=st.sampled_from(list(Scenario)))
@example(seed=2**64 - 1, chunk=2**48 - 1, scenario=Scenario.A)
@example(seed=0, chunk=0, scenario=Scenario.B)
def test_a_chunk_keeps_its_counter_words(seed, chunk, scenario):
    # a chunk's draws step counter word 0, one step per four words, and never
    # carry into word 1, so each (chunk, stream) keeps its own segment of the
    # key; chunk `chunk` of the session is full, or as full as 2^64 - 1 messages allow
    config = RunConfig(scenario, min((chunk + 1) * session.CHUNK_MESSAGES, 2**64 - 1), seed)
    messages = session._chunk_messages(config, chunk)
    assert len(messages) >= session.CHUNK_MESSAGES - 1
    philox = session._THREAD.rng.bit_generator  # the thread's one generator
    state = philox.state["state"]
    assert state["key"].tolist() == [seed, 0]
    # one raw word per 8 messages
    assert state["counter"].tolist() == [-(-len(messages) // 32), 0, chunk,
                                         session._STREAM_MESSAGES]
    trials = Session(config).scenario_step(chunk, 0)
    state = philox.state["state"]  # as the trial stream left it
    assert state["key"].tolist() == [seed, 0]
    steps, carry, *words = state["counter"].tolist()
    assert carry == 0 and words == [chunk, session._STREAM_TRIAL]
    if scenario is Scenario.B:  # one word per message
        assert steps == -(-len(trials) // 4)
    else:  # one word per message for its retries and one per trial
        assert steps == -(-(len(messages) + len(trials)) // 4)


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
       chunk=st.sampled_from(EDGE_CHUNKS) | st.integers(0, 50))
@example(seed=2**64 - 1, chunk=2**32)
@example(seed=2**64 - 1, chunk=2**48 - 1)
def test_uniform_messages_are_what_integers_draws(seed, chunk):
    start = chunk * session.CHUNK_MESSAGES
    for size in MESSAGE_SIZES:
        # the last chunk holds at most 2^64 - 1 - start messages
        size = min(size, 2**64 - 1 - start)
        config = RunConfig(Scenario.A, start + size, seed)
        fresh = _fresh(seed, session._STREAM_MESSAGES, chunk)
        want = fresh.integers(0, len(ALPHABET), size, dtype=np.int8)
        messages = session._chunk_messages(config, chunk)
        assert messages.dtype == np.int8
        assert np.array_equal(messages, want), size


def _uniforms(raw):
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


@settings(max_examples=30, deadline=None)
@given(seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
       chunk=st.sampled_from(EDGE_CHUNKS) | st.integers(0, 50),
       other=KEYS, size=st.integers(1, 9))
@example(seed=0, chunk=0, other=(0, 0, 0), size=1)
@example(seed=2**64 - 1, chunk=2**48 - 1, other=(1, 1, 1), size=3)
def test_a_raw_words_uniform_is_what_random_draws(seed, chunk, other, size):
    # the kernel compares raw words where `random` would compare their doubles,
    # (raw >> 11) * 2^-53; each draws one word of the stream, so the two mixed
    # leave the stream where either alone would
    for n in (1, 5, session.BLOCK + 3):
        want = session.trial_rng(seed, chunk).random(n)
        got = _uniforms(session.trial_rng(seed, chunk).bit_generator.random_raw(n))
        assert np.array_equal(got, want), n
    fresh = _fresh(seed, session._STREAM_TRIAL, chunk)
    want = fresh.random(size), fresh.random(size), fresh.random(2 * size + 1)
    # a re-keyed generator after another key drew a part of its buffer
    session._generator(*other).random(size)
    rng = session.trial_rng(seed, chunk)
    got = (_uniforms(rng.bit_generator.random_raw(size)), rng.random(size),
           _uniforms(rng.bit_generator.random_raw(2 * size + 1)))
    _assert_same_draws(got, want)


def test_the_wiring_refuses_a_boundary_at_or_below_0():
    # HH's controlled law with its first outcome at probability 0: its first running
    # sum, a boundary, is 0
    compiled = OpticalBench().compiled
    branches = list(compiled.branches)
    hh = ALPHABET.index(MessageSymbol.HH)
    first, *rest = sorted(branches[hh].controlled_law)
    law = MappingProxyType({first: 0.0, **{p: 1.0 / len(rest) for p in rest}})
    branches[hh] = dataclasses.replace(branches[hh], controlled_law=law)
    with pytest.raises(ValueError, match="must be > 0"):
        session.wiring(dataclasses.replace(compiled, branches=tuple(branches)), Scenario.A,
                       ClonePolicy.SEND_AS_IS, False)


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
