import math

import numpy as np
import pytest

from sdcsim.capacity import expected_accounting
from sdcsim.protocol import (
    ALLOWED_OWNERS,
    ALPHABET,
    Branch,
    ClonePolicy,
    MessageSymbol,
    Owner,
    Scenario,
    Verdict,
)
from sdcsim.session import (
    ACTIONS,
    BRANCHES,
    NOTE_KINDS,
    InvalidConfigError,
    NoteKind,
    RunConfig,
    ScenarioAction,
    bob_reconstruction,
    delivered_sequence,
    intended_stream,
    run_session,
)

PSI_PLUS = MessageSymbol.PSI_PLUS
PSI_MINUS = MessageSymbol.PSI_MINUS
HH = MessageSymbol.HH
VV = MessageSymbol.VV

WRONG = BRANCHES.index(Branch.WRONG)
SENT = ACTIONS.index(ScenarioAction.SENT)
STOPPED = ACTIONS.index(ScenarioAction.PAIR_STOPPED)


def intended(trials, where=slice(None)):
    """The intended symbols of these trials, or of those `where` picks."""
    return [ALPHABET[i] for i in trials.intended[where].tolist()]


def decoded(trials, where=slice(None)):
    """The receiver's readings of these trials, or of those `where` picks."""
    return [trials.table.outcomes[d] for d in trials.decoded[where].tolist()]


class TestRunConfig:
    def test_defaults_owner_per_scenario(self):
        assert RunConfig(Scenario.A, 10, 0).owner is Owner.BOB
        assert RunConfig(Scenario.B, 10, 0).owner is Owner.ANNA
        assert RunConfig(Scenario.C, 10, 0).owner is Owner.ALICE

    @pytest.mark.parametrize(
        "scenario,owner",
        [
            (Scenario.A, Owner.ALICE),
            (Scenario.B, Owner.ALICE),
            (Scenario.C, Owner.BOB),
            (Scenario.C, Owner.ANNA),
        ],
    )
    def test_disallowed_owner_combinations(self, scenario, owner):
        with pytest.raises(InvalidConfigError):
            RunConfig(scenario, 10, 0, owner=owner)

    def test_bad_sizes_and_seeds(self):
        with pytest.raises(InvalidConfigError):
            RunConfig(Scenario.A, 0, 0)
        with pytest.raises(InvalidConfigError):
            RunConfig(Scenario.A, 10, -1)
        with pytest.raises(InvalidConfigError):
            RunConfig(Scenario.A, 10, 2**64)
        with pytest.raises(InvalidConfigError):
            RunConfig(Scenario.A, 10, 0, classical_delay=-1)

    def test_a_size_the_keying_cannot_count_is_rejected(self):
        # each chunk's index is one 64-bit counter word of its generator, so a
        # session holds fewer than 2^64 messages; this one is built, never run
        assert RunConfig(Scenario.A, 2**64 - 1, 0).n_messages == 2**64 - 1
        for n in (2**64, 10**23):
            with pytest.raises(InvalidConfigError, match="below 2"):
                RunConfig(Scenario.A, n, 0)

    @pytest.mark.parametrize("field,value", [
        ("n_messages", 2.5), ("n_messages", 10.0), ("n_messages", "10"), ("seed", 2.5),
        ("seed", 1.0), ("seed", "1"), ("classical_delay", 1.5), ("classical_delay", None),
        # a bool is an Integral, but a flag, not a count: True must not run one message
        ("n_messages", True), ("seed", False), ("seed", True), ("classical_delay", True),
        ("seed", np.bool_(True)),
    ])
    def test_non_integral_sizes_seeds_and_delays_rejected(self, field, value):
        fields = dict(scenario=Scenario.B, n_messages=10, seed=1, classical_delay=0)
        with pytest.raises(InvalidConfigError, match="integer"):
            RunConfig(**{**fields, field: value})

    def test_numpy_integers_are_accepted_as_ints(self):
        config = RunConfig(Scenario.B, np.int64(300), np.uint64(7), classical_delay=np.int8(2))
        assert config == RunConfig(Scenario.B, 300, 7, classical_delay=2)
        assert {type(v) for v in (config.n_messages, config.seed, config.classical_delay)} == {int}
        result = run_session(config)
        assert len(result.trials) == 300
        # notes past trial 127 are stamped without an int8 overflow
        assert max(note.trial for note in result.notes) > 127
        assert all(note.delivered_at == note.trial + 2 for note in result.notes)

    @pytest.mark.parametrize("field,value", [
        ("scenario", "b"), ("scenario", None), ("scenario", ClonePolicy.SEND_AS_IS),
        ("owner", "bob"), ("owner", ""), ("owner", Scenario.B),
        ("clone_policy", "send-as-is"), ("clone_policy", None),
        ("erase_notes", 1), ("erase_notes", np.bool_(True)), ("erase_notes", None),
    ])
    def test_a_value_outside_its_type_is_rejected(self, field, value):
        fields = dict(scenario=Scenario.B, n_messages=10, seed=1)
        with pytest.raises(InvalidConfigError, match=f"^{field} must be"):
            RunConfig(**{**fields, field: value})

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_every_member_and_a_none_owner_are_accepted(self, scenario):
        for owner in (None, *ALLOWED_OWNERS[scenario]):
            for erase_notes in (False, True) if scenario is Scenario.C else (False,):
                config = RunConfig(scenario, 10, 0, owner=owner, erase_notes=erase_notes)
                assert config.owner is (owner or ALLOWED_OWNERS[scenario][0])
        policies = list(ClonePolicy) if scenario is Scenario.B else [ClonePolicy.SEND_AS_IS]
        for policy in policies:
            assert RunConfig(scenario, 10, 0, clone_policy=policy).clone_policy is policy

    @pytest.mark.parametrize(
        "scenario,knob,home",
        [
            (Scenario.A, dict(erase_notes=True), "c"),
            (Scenario.B, dict(erase_notes=True), "c"),
            (Scenario.A, dict(clone_policy=ClonePolicy.CLONE_INTENDED), "b"),
            (Scenario.C, dict(clone_policy=ClonePolicy.CLONE_INTENDED), "b"),
        ],
    )
    def test_knob_outside_its_scenario_rejected(self, scenario, knob, home):
        message = rf"scenario \({home}\) only, not \({scenario.value}\)"
        with pytest.raises(InvalidConfigError, match=message):
            RunConfig(scenario, 10, 0, **knob)

    def test_empty_message_sequence_rejected(self):
        with pytest.raises(InvalidConfigError):
            RunConfig(Scenario.A, 10, 0, messages=())

    def test_non_symbol_rejected(self):
        with pytest.raises(InvalidConfigError):
            RunConfig(Scenario.A, 10, 0, messages=("hh",))


class TestIntendedStream:
    def test_explicit_sequence_cycles(self):
        config = RunConfig(Scenario.A, 5, 0, messages=(HH, PSI_PLUS))
        assert intended_stream(config) == [HH, PSI_PLUS, HH, PSI_PLUS, HH]

    def test_uniform_is_seed_deterministic(self):
        config = RunConfig(Scenario.A, 1000, 123)
        assert intended_stream(config) == intended_stream(config)
        other = RunConfig(Scenario.A, 1000, 124)
        assert intended_stream(config) != intended_stream(other)

    def test_uniform_covers_alphabet(self):
        stream = intended_stream(RunConfig(Scenario.A, 400, 5))
        assert set(stream) == {PSI_PLUS, PSI_MINUS, HH, VV}


# The two configurations that send notes: send-as-is corrections in scenario b
# and Erase notes in scenario c.
NOTE_SENDERS = (
    dict(scenario=Scenario.B, clone_policy=ClonePolicy.SEND_AS_IS),
    dict(scenario=Scenario.C, erase_notes=True),
)


def _check_delivery(delay: int) -> None:
    for fields in NOTE_SENDERS:
        config = RunConfig(n_messages=200, seed=3, classical_delay=delay, **fields)
        result = run_session(config)
        trials = result.trials
        kinds = [NOTE_KINDS[k] for k in trials.note.tolist()]
        sent = [(t, kind, symbol)
                for t, kind, symbol in zip(trials.trial.tolist(), kinds, intended(trials))
                if kind in (NoteKind.CORRECT_TO, NoteKind.ERASE)]
        assert result.notes and [(n.trial, n.kind) for n in result.notes] == [s[:2] for s in sent]
        for n, (_, kind, symbol) in zip(result.notes, sent):
            assert n.symbol is (symbol if kind is NoteKind.CORRECT_TO else None)
        assert all(n.delivered_at == n.trial + delay for n in result.notes)
        arrivals = [n.delivered_at for n in result.notes]
        assert arrivals == sorted(arrivals)


class TestClassicalChannel:
    def test_in_order_delivery_with_delay(self):
        _check_delivery(delay=5)

    def test_zero_delay_delivers_immediately(self):
        _check_delivery(delay=0)

    def test_flush_returns_pending_in_order(self):
        # notes due after the session's last trial are still listed, in order
        config = RunConfig(Scenario.B, 50, 11, messages=(HH,), classical_delay=1000)
        result = run_session(config)
        assert result.notes
        assert all(n.delivered_at >= len(result.trials) for n in result.notes)
        assert [n.trial for n in result.notes] == sorted(n.trial for n in result.notes)
        assert bob_reconstruction(result.trials, result.notes) == intended_stream(config)


class TestScenarioA:
    def test_bell_messages_always_sent(self):
        config = RunConfig(Scenario.A, 50, 2, messages=(PSI_PLUS, PSI_MINUS))
        result = run_session(config)
        trials = result.trials
        assert len(trials) == 50
        assert (trials.action == SENT).all()
        assert [d.symbol for d in decoded(trials)] == intended(trials)

    def test_wrong_branch_discards_and_bob_sees_one_photon(self):
        config = RunConfig(Scenario.A, 200, 7, messages=(HH, VV))
        result = run_session(config)
        trials = result.trials
        wrong = trials.branch == WRONG
        assert wrong.any(), "expected some uncontrolled branches"
        assert (trials.action[wrong] == ACTIONS.index(ScenarioAction.DISCARDED_BY_ALICE)).all()
        assert all(d.verdict is Verdict.SINGLE_PHOTON for d in decoded(trials, wrong))
        assert all(trials.table.patterns[p].total == 1 for p in trials.pattern[wrong].tolist())
        assert (trials.note[wrong] == NOTE_KINDS.index(NoteKind.REPEAT)).all()
        assert result.notes == []  # Repeat notes only label trials; none is sent

    def test_delivered_equals_intended(self):
        config = RunConfig(Scenario.A, 500, 11)
        result = run_session(config)
        assert delivered_sequence(result.trials) == intended_stream(config)

    def test_every_delivered_decode_is_correct(self):
        config = RunConfig(Scenario.A, 300, 13)
        trials = run_session(config).trials
        sent = trials.action == SENT
        assert [d.symbol for d in decoded(trials, sent)] == intended(trials, sent)


class TestScenarioB:
    def test_consumes_exactly_one_pair_per_message(self):
        config = RunConfig(Scenario.B, 400, 3)
        result = run_session(config)
        assert result.report.pairs_consumed == 400
        assert result.report.messages_delivered == 400

    def test_send_as_is_emits_corrections(self):
        config = RunConfig(Scenario.B, 600, 17, messages=(HH,))
        result = run_session(config)
        trials = result.trials
        wrong = trials.branch == WRONG
        corrections = [n for n in result.notes if n.kind is NoteKind.CORRECT_TO]
        assert [n.trial for n in corrections] == trials.trial[wrong].tolist()
        assert all(n.symbol is HH for n in corrections)
        assert (trials.action[wrong] == ACTIONS.index(ScenarioAction.CLONED_RESEND)).all()
        # the complementary message went out
        assert all(d.symbol is VV for d in decoded(trials, wrong))
        assert (trials.note[wrong] == NOTE_KINDS.index(NoteKind.CORRECT_TO)).all()

    @pytest.mark.parametrize("seed", [0, 1, 99])
    @pytest.mark.parametrize("delay", [0, 5])
    def test_reconstruction_matches_intended(self, seed, delay):
        config = RunConfig(Scenario.B, 300, seed, classical_delay=delay)
        result = run_session(config)
        assert bob_reconstruction(result.trials, result.notes) == intended_stream(config)

    def test_reconstruction_reads_the_notes_it_is_given(self):
        config = RunConfig(Scenario.B, 300, 5, messages=(HH,))
        result = run_session(config)
        notes = list(result.notes)
        assert notes and bob_reconstruction(result.trials, notes) == [HH] * 300
        # every trial decodes, so a lost correction leaves its trial's vv standing
        lost = notes.pop(len(notes) // 2)
        expected = [HH] * 300
        expected[lost.trial] = VV
        assert bob_reconstruction(result.trials, notes) == expected

    def test_clone_intended_needs_no_corrections(self):
        config = RunConfig(
            Scenario.B, 400, 23, messages=(HH, VV), clone_policy=ClonePolicy.CLONE_INTENDED
        )
        result = run_session(config)
        assert not result.notes
        assert [d.symbol for d in decoded(result.trials)] == intended(result.trials)
        assert bob_reconstruction(result.trials, result.notes) == intended_stream(config)


class TestScenarioC:
    def test_stopped_pairs_invisible_to_bob(self):
        config = RunConfig(Scenario.C, 400, 29)
        result = run_session(config)
        trials = result.trials
        stopped = trials.action == STOPPED
        assert stopped.any(), "expected some stopped pairs"
        assert (trials.pattern[stopped] == -1).all() and (trials.decoded[stopped] == -1).all()
        assert (trials.action[trials.pattern >= 0] != STOPPED).all()

    def test_delivered_equals_intended(self):
        config = RunConfig(Scenario.C, 400, 31)
        result = run_session(config)
        assert delivered_sequence(result.trials) == intended_stream(config)

    def test_bell_only_stream_never_stops(self):
        config = RunConfig(Scenario.C, 200, 37, messages=(PSI_PLUS,))
        trials = run_session(config).trials
        assert len(trials) == 200
        assert (trials.action == SENT).all()

    def test_erase_notes_optional(self):
        silent = run_session(RunConfig(Scenario.C, 300, 41, messages=(HH,)))
        assert not silent.notes
        chatty = run_session(
            RunConfig(Scenario.C, 300, 41, messages=(HH,), erase_notes=True)
        )
        stopped = int((chatty.trials.action == STOPPED).sum())
        erase = [n for n in chatty.notes if n.kind is NoteKind.ERASE]
        assert len(erase) == stopped > 0


class TestDeterminism:
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_identical_config_reproduces_records(self, scenario):
        config = RunConfig(scenario, 250, 4242)
        first = run_session(config)
        second = run_session(config)
        assert np.array_equal(first.trials.row, second.trials.row)
        assert first.notes == second.notes
        assert first.report == second.report

    def test_different_seeds_differ(self):
        a = run_session(RunConfig(Scenario.A, 250, 1))
        b = run_session(RunConfig(Scenario.A, 250, 2))
        assert not np.array_equal(a.trials.row, b.trials.row)


class TestBranchStatistics:
    def test_wrong_branch_frequency_near_half(self):
        n = 4000
        config = RunConfig(Scenario.B, n, 53, messages=(HH,))
        result = run_session(config)
        wrong = int((result.trials.branch == WRONG).sum())
        sigma = math.sqrt(0.25 / n)
        assert abs(wrong / n - 0.5) < 3 * sigma


class TestReportCounts:
    def test_per_symbol_consistency_scenario_a(self):
        config = RunConfig(Scenario.A, 800, 61)
        result = run_session(config)
        report = result.report
        stream = intended_stream(config)
        for symbol in (PSI_PLUS, PSI_MINUS, HH, VV):
            counts = report.per_symbol_counts[symbol.value]
            assert counts.delivered == stream.count(symbol)
            assert counts.cloned == 0
        assert report.pairs_consumed == len(result.trials)
        assert report.messages_delivered == len(stream)
        assert report.efficiency == pytest.approx(len(stream) / len(result.trials))

    @pytest.mark.parametrize("wiring", [
        dict(scenario=Scenario.A),
        dict(scenario=Scenario.B),
        dict(scenario=Scenario.B, clone_policy=ClonePolicy.CLONE_INTENDED),
        dict(scenario=Scenario.C),
        dict(scenario=Scenario.C, erase_notes=True),
    ], ids=["a", "b-send-as-is", "b-clone-intended", "c", "c-erase-notes"])
    @pytest.mark.parametrize("messages", ["uniform", (HH, PSI_PLUS, VV)],
                             ids=["uniform", "hh,psi+,vv"])
    def test_per_symbol_counts_sum_to_the_totals(self, wiring, messages):
        config = RunConfig(n_messages=600, seed=71, messages=messages, **wiring)
        report = run_session(config).report
        assert report.messages_delivered == 600
        # the expected report keeps the same books, per delivered message
        dist = None if messages == "uniform" else dict.fromkeys(messages, 1 / len(messages))
        expected = expected_accounting(config.scenario, dist)
        for r in (report, expected):
            counts = r.per_symbol_counts.values()
            delivered = sum(c.delivered for c in counts)
            assert delivered == pytest.approx(r.messages_delivered, abs=1e-12)
            pairs = sum(c.delivered + c.repeats for c in counts)
            assert pairs == pytest.approx(r.pairs_consumed, abs=1e-12)
            if config.scenario is Scenario.B:
                assert all(c.repeats == 0 for c in counts)
            else:
                assert all(c.cloned == 0 for c in counts)

    def test_uncontrolled_fraction_bell_messages_zero(self):
        config = RunConfig(Scenario.B, 100, 67, messages=(PSI_PLUS, PSI_MINUS))
        report = run_session(config).report
        assert report.uncontrolled_fraction == 0.0
