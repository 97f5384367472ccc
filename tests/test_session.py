import math

import pytest

from sdcsim.protocol import (
    Branch,
    ClonePolicy,
    MessageSymbol,
    Owner,
    Scenario,
    Verdict,
)
from sdcsim.session import (
    InvalidConfigError,
    NoteKind,
    RunConfig,
    ScenarioAction,
    TrialRecord,
    bob_records,
    bob_reconstruction,
    delivered_sequence,
    intended_stream,
    run_session,
)

PSI_PLUS = MessageSymbol.PSI_PLUS
PSI_MINUS = MessageSymbol.PSI_MINUS
HH = MessageSymbol.HH
VV = MessageSymbol.VV


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
        sent = [r.note for r in result.records if r.note and r.note.kind is not NoteKind.REPEAT]
        assert result.notes and result.notes == sent
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
        assert all(n.delivered_at >= len(result.records) for n in result.notes)
        assert [n.trial for n in result.notes] == sorted(n.trial for n in result.notes)
        assert bob_reconstruction(result.records, result.notes) == intended_stream(config)


class TestScenarioA:
    def test_bell_messages_always_sent(self):
        config = RunConfig(Scenario.A, 50, 2, messages=(PSI_PLUS, PSI_MINUS))
        result = run_session(config)
        assert len(result.records) == 50
        assert all(r.action is ScenarioAction.SENT for r in result.records)
        assert all(r.decoded.symbol is r.intended for r in result.records)

    def test_wrong_branch_discards_and_bob_sees_one_photon(self):
        config = RunConfig(Scenario.A, 200, 7, messages=(HH, VV))
        result = run_session(config)
        wrong = [r for r in result.records if r.branch is Branch.WRONG]
        assert wrong, "expected some uncontrolled branches"
        for r in wrong:
            assert r.action is ScenarioAction.DISCARDED_BY_ALICE
            assert r.decoded.verdict is Verdict.SINGLE_PHOTON
            assert r.bob_pattern.total == 1
            assert r.note.kind is NoteKind.REPEAT and r.note.delivered_at is None
        assert result.notes == []  # Repeat notes only label records; none is sent

    def test_delivered_equals_intended(self):
        config = RunConfig(Scenario.A, 500, 11)
        result = run_session(config)
        assert delivered_sequence(result.records) == intended_stream(config)

    def test_every_delivered_decode_is_correct(self):
        config = RunConfig(Scenario.A, 300, 13)
        result = run_session(config)
        for r in result.records:
            if r.action is ScenarioAction.SENT:
                assert r.decoded.symbol is r.intended


class TestScenarioB:
    def test_consumes_exactly_one_pair_per_message(self):
        config = RunConfig(Scenario.B, 400, 3)
        result = run_session(config)
        assert result.report.pairs_consumed == 400
        assert result.report.messages_delivered == 400

    def test_send_as_is_emits_corrections(self):
        config = RunConfig(Scenario.B, 600, 17, messages=(HH,))
        result = run_session(config)
        wrong = [r for r in result.records if r.branch is Branch.WRONG]
        corrections = [n for n in result.notes if n.kind is NoteKind.CORRECT_TO]
        assert len(corrections) == len(wrong)
        for r in wrong:
            assert r.action is ScenarioAction.CLONED_RESEND
            assert r.decoded.symbol is VV  # the complementary message went out
            assert r.note.kind is NoteKind.CORRECT_TO and r.note.symbol is HH

    @pytest.mark.parametrize("seed", [0, 1, 99])
    @pytest.mark.parametrize("delay", [0, 5])
    def test_reconstruction_matches_intended(self, seed, delay):
        config = RunConfig(Scenario.B, 300, seed, classical_delay=delay)
        result = run_session(config)
        assert bob_reconstruction(result.records, result.notes) == intended_stream(config)

    def test_clone_intended_needs_no_corrections(self):
        config = RunConfig(
            Scenario.B, 400, 23, messages=(HH, VV), clone_policy=ClonePolicy.CLONE_INTENDED
        )
        result = run_session(config)
        assert not result.notes
        for r in result.records:
            assert r.decoded.symbol is r.intended
        assert bob_reconstruction(result.records, result.notes) == intended_stream(config)


class TestScenarioC:
    def test_stopped_pairs_invisible_to_bob(self):
        config = RunConfig(Scenario.C, 400, 29)
        result = run_session(config)
        stopped = [r for r in result.records if r.action is ScenarioAction.PAIR_STOPPED]
        assert stopped, "expected some stopped pairs"
        for r in stopped:
            assert r.bob_pattern is None and r.decoded is None
        assert all(r.action is not ScenarioAction.PAIR_STOPPED for r in bob_records(result.records))

    def test_delivered_equals_intended(self):
        config = RunConfig(Scenario.C, 400, 31)
        result = run_session(config)
        assert delivered_sequence(result.records) == intended_stream(config)

    def test_bell_only_stream_never_stops(self):
        config = RunConfig(Scenario.C, 200, 37, messages=(PSI_PLUS,))
        result = run_session(config)
        assert len(result.records) == 200
        assert all(r.action is ScenarioAction.SENT for r in result.records)

    def test_erase_notes_optional(self):
        silent = run_session(RunConfig(Scenario.C, 300, 41, messages=(HH,)))
        assert not silent.notes
        chatty = run_session(
            RunConfig(Scenario.C, 300, 41, messages=(HH,), erase_notes=True)
        )
        stopped = sum(1 for r in chatty.records if r.action is ScenarioAction.PAIR_STOPPED)
        erase = [n for n in chatty.notes if n.kind is NoteKind.ERASE]
        assert len(erase) == stopped > 0


class TestDeterminism:
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_identical_config_reproduces_records(self, scenario):
        config = RunConfig(scenario, 250, 4242)
        first = run_session(config)
        second = run_session(config)
        assert first.records == second.records
        assert first.notes == second.notes
        assert first.report == second.report

    def test_different_seeds_differ(self):
        a = run_session(RunConfig(Scenario.A, 250, 1))
        b = run_session(RunConfig(Scenario.A, 250, 2))
        assert a.records != b.records


class TestBranchStatistics:
    def test_wrong_branch_frequency_near_half(self):
        n = 4000
        config = RunConfig(Scenario.B, n, 53, messages=(HH,))
        result = run_session(config)
        wrong = sum(1 for r in result.records if r.branch is Branch.WRONG)
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
            assert counts.intended == counts.delivered == stream.count(symbol)
            assert counts.repeats == counts.discarded
            assert counts.cloned == 0
        assert report.pairs_consumed == len(result.records)
        assert report.messages_delivered == len(stream)
        assert report.efficiency == pytest.approx(len(stream) / len(result.records))

    def test_uncontrolled_fraction_bell_messages_zero(self):
        config = RunConfig(Scenario.B, 100, 67, messages=(PSI_PLUS, PSI_MINUS))
        report = run_session(config).report
        assert report.uncontrolled_fraction == 0.0
