"""Protocol sessions: scenario state machines over a classical side channel.

Three operating modes, differing only in what happens when the encoder's
reject-port detector clicks on a product-state message:

  a  the sender discards her attempt; the receiver sees a lone photon and
     discards too; the message is retried on a fresh pair.
  b  every pair is used: the sender re-emits (clones) a photon of known
     polarization, so the receiver always gets a decodable pair. Under the
     send-as-is policy the clone matches the wrong branch and a delayed
     correction note travels over the classical channel; under clone-intended
     the pair is idealized to carry the intended message and no note is sent.
  c  the sender owns both photons and silently stops the whole pair; the
     receiver never learns the pair existed; the message is retried.

A sent note (CorrectTo in b, Erase in c) arrives classical_delay trials after
the trial it concerns, at Note.delivered_at; one delay for all notes makes
send order the delivery order.

Randomness: each trial uses its own numpy PCG64 generator seeded with
SeedSequence((seed, 0, trial_index)); the i.i.d. message stream uses
(seed, 1). Streams are independent, so sessions are reproducible and trials
could be evaluated in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import capacity
from .fock import OutcomeTable, sample_outcome
from .protocol import (
    ALLOWED_OWNERS,
    ALPHABET,
    Branch,
    ClassifiedOutcome,
    ClonePolicy,
    DetectionPattern,
    MessageSymbol,
    OpticalBench,
    Owner,
    Scenario,
    Verdict,
    default_bench,
)

_STREAM_TRIAL = 0
_STREAM_MESSAGES = 1


class InvalidConfigError(ValueError):
    """Run configuration violates a scenario constraint."""


class ScenarioAction(Enum):
    SENT = "sent"
    DISCARDED_BY_ALICE = "discarded_by_alice"
    PAIR_STOPPED = "pair_stopped"
    CLONED_RESEND = "cloned_resend"


class NoteKind(Enum):
    REPEAT = "Repeat"
    CORRECT_TO = "CorrectTo"
    ERASE = "Erase"


@dataclass(frozen=True, slots=True)
class Note:
    """One classical-channel message, tied to the trial it talks about.

    ``delivered_at`` is the trial it reaches the receiver, None if never sent.
    """

    trial: int
    kind: NoteKind
    symbol: MessageSymbol | None = None
    delivered_at: int | None = None

    def __str__(self):
        if self.kind is NoteKind.CORRECT_TO:
            return f"CorrectTo({self.symbol.value})"
        return self.kind.value


@dataclass(frozen=True)
class TrialRecord:
    """Everything one pair did: encoder branch, scenario action, receiver view."""

    trial: int
    intended: MessageSymbol
    branch: Branch
    action: ScenarioAction
    bob_pattern: DetectionPattern | None
    decoded: ClassifiedOutcome | None
    note: Note | None


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    n_messages: int
    seed: int
    owner: Owner | None = None
    messages: str | tuple[MessageSymbol, ...] = "uniform"
    clone_policy: ClonePolicy = ClonePolicy.SEND_AS_IS
    classical_delay: int = 0
    erase_notes: bool = False

    def __post_init__(self):
        if self.n_messages < 1:
            raise InvalidConfigError("n_messages must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfigError("seed must be an unsigned 64-bit integer")
        if self.classical_delay < 0:
            raise InvalidConfigError("classical delay must be >= 0")
        allowed = ALLOWED_OWNERS[self.scenario]
        owner = self.owner or allowed[0]
        if owner not in allowed:
            raise InvalidConfigError(
                f"scenario ({self.scenario.value}) allows owner "
                f"{'/'.join(o.value for o in allowed)}, not {owner.value}"
            )
        object.__setattr__(self, "owner", owner)
        if self.messages != "uniform":
            msgs = tuple(self.messages)
            if not msgs:
                raise InvalidConfigError("explicit message sequence is empty")
            for m in msgs:
                if not isinstance(m, MessageSymbol):
                    raise InvalidConfigError(f"not a message symbol: {m!r}")
            object.__setattr__(self, "messages", msgs)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream derived from (seed, trial index)."""
    return np.random.default_rng((seed, _STREAM_TRIAL, trial))


def intended_stream(config: RunConfig) -> list[MessageSymbol]:
    """The sender's message sequence: i.i.d. uniform draws or a cycled list."""
    if config.messages == "uniform":
        rng = np.random.default_rng((config.seed, _STREAM_MESSAGES))
        picks = rng.integers(0, len(ALPHABET), size=config.n_messages)
        return [ALPHABET[i] for i in picks]
    seq = config.messages
    return [seq[i % len(seq)] for i in range(config.n_messages)]


@dataclass(frozen=True)
class _SymbolPlan:
    p_controlled: float
    controlled: OutcomeTable
    wrong_symbol: MessageSymbol | None
    wrong_single: OutcomeTable | None  # receiver's lone photon, scenario a


class Session:
    """One protocol run: precomputed exact statistics plus per-trial sampling.

    All quantum evolution happens once up front through the optics engine;
    each trial then draws its encoder branch and detector pattern from those
    exact distributions with its own random stream.
    """

    def __init__(self, config: RunConfig, bench: OpticalBench | None = None):
        self.config = config
        self.bench = bench or default_bench()
        self.records: list[TrialRecord] = []
        self.notes: list[Note] = []  # sent notes, in send (= delivery) order
        self._trial = 0
        self._plans = self._build_plans()

    def _build_plans(self) -> dict[MessageSymbol, _SymbolPlan]:
        bench = self.bench
        split = {symbol: bench.encode_branches(symbol) for symbol in ALPHABET}
        lone = {
            pol: OutcomeTable(bench.analyze(bench.bob_photon(pol)))
            for pol in ("H", "V")
        }
        plans = {}
        for symbol, branches in split.items():
            wrong = branches.wrong_symbol
            plans[symbol] = _SymbolPlan(
                p_controlled=branches.controlled_probability,
                controlled=OutcomeTable(bench.analyze(branches.controlled_state)),
                wrong_symbol=wrong,
                wrong_single=lone["H" if wrong is MessageSymbol.HH else "V"]
                if wrong
                else None,
            )
        return plans

    def scenario_step(self, message: MessageSymbol) -> TrialRecord:
        """Consume one source pair for `message` and log what happened."""
        trial = self._trial
        self._trial += 1
        rng = trial_rng(self.config.seed, trial)
        plan = self._plans[message]

        if plan.wrong_symbol is None or rng.random() < plan.p_controlled:
            pattern = sample_outcome(plan.controlled, rng)
            record = TrialRecord(
                trial=trial,
                intended=message,
                branch=Branch.CONTROLLED,
                action=ScenarioAction.SENT,
                bob_pattern=pattern,
                decoded=self.bench.classify(pattern),
                note=None,
            )
        else:
            record = self._wrong_branch(trial, message, plan, rng)

        self.records.append(record)
        return record

    def _send(self, trial: int, kind: NoteKind, symbol: MessageSymbol | None = None) -> Note:
        note = Note(trial, kind, symbol, trial + self.config.classical_delay)
        self.notes.append(note)
        return note

    def _wrong_branch(self, trial, message, plan, rng) -> TrialRecord:
        scenario = self.config.scenario
        if scenario is Scenario.A:
            pattern = sample_outcome(plan.wrong_single, rng)
            return TrialRecord(
                trial=trial,
                intended=message,
                branch=Branch.WRONG,
                action=ScenarioAction.DISCARDED_BY_ALICE,
                bob_pattern=pattern,
                decoded=self.bench.classify(pattern),
                note=Note(trial, NoteKind.REPEAT),
            )
        if scenario is Scenario.C:
            if self.config.erase_notes:
                note = self._send(trial, NoteKind.ERASE)
            else:
                note = Note(trial, NoteKind.REPEAT)
            return TrialRecord(
                trial=trial,
                intended=message,
                branch=Branch.WRONG,
                action=ScenarioAction.PAIR_STOPPED,
                bob_pattern=None,
                decoded=None,
                note=note,
            )
        # scenario b: the pair is always used
        if self.config.clone_policy is ClonePolicy.CLONE_INTENDED:
            transmitted = message
            note = None
        else:
            transmitted = plan.wrong_symbol
            note = self._send(trial, NoteKind.CORRECT_TO, message)
        pattern = sample_outcome(self._plans[transmitted].controlled, rng)
        return TrialRecord(
            trial=trial,
            intended=message,
            branch=Branch.WRONG,
            action=ScenarioAction.CLONED_RESEND,
            bob_pattern=pattern,
            decoded=self.bench.classify(pattern),
            note=note,
        )


@dataclass(frozen=True)
class SessionResult:
    config: RunConfig
    records: list[TrialRecord]
    notes: list[Note]  # sent notes in send order, which is also delivery order
    report: "capacity.CapacityReport"


_DELIVERING = (ScenarioAction.SENT, ScenarioAction.CLONED_RESEND)


def run_session(config: RunConfig, bench: OpticalBench | None = None) -> SessionResult:
    """Run a full session: every intended message is driven to delivery.

    Scenarios a and c retry a failed product-state message on a fresh pair
    until it gets through; scenario b consumes exactly one pair per message.
    Deterministic for a fixed config.
    """
    session = Session(config, bench)
    for message in intended_stream(config):
        while True:
            record = session.scenario_step(message)
            if record.action in _DELIVERING:
                break
    report = build_report(config, session.records)
    return SessionResult(config, session.records, session.notes, report)


def build_report(config: RunConfig, records: Sequence[TrialRecord]) -> "capacity.CapacityReport":
    """Aggregate a trial log into the capacity report."""
    per_symbol = {}
    for symbol in ALPHABET:
        rows = [r for r in records if r.intended is symbol]
        wrong = [r for r in rows if r.branch is Branch.WRONG]
        delivered = [r for r in rows if r.action in _DELIVERING]
        # every intended message is driven to delivery, so the two counts agree
        per_symbol[symbol.value] = capacity.SymbolCounts(
            intended=len(delivered),
            delivered=len(delivered),
            repeats=sum(
                1
                for r in wrong
                if r.action
                in (ScenarioAction.DISCARDED_BY_ALICE, ScenarioAction.PAIR_STOPPED)
            ),
            discarded=sum(1 for r in wrong if r.action is not ScenarioAction.CLONED_RESEND),
            cloned=sum(1 for r in wrong if r.action is ScenarioAction.CLONED_RESEND),
            uncontrolled_fraction=len(wrong) / len(rows) if rows else 0.0,
        )
    wrong_total = sum(1 for r in records if r.branch is Branch.WRONG)
    return capacity.capacity_from_counts(
        pairs_consumed=len(records),
        messages_delivered=sum(1 for r in records if r.action in _DELIVERING),
        per_symbol=per_symbol,
        uncontrolled_fraction=wrong_total / len(records) if records else 0.0,
    )


def bob_records(records: Sequence[TrialRecord]) -> list[TrialRecord]:
    """The receiver's event log: only trials where a photon reached him."""
    return [r for r in records if r.bob_pattern is not None]


def bob_reconstruction(
    records: Sequence[TrialRecord], notes: Sequence[Note]
) -> list[MessageSymbol]:
    """The receiver's final message sequence after applying correction notes."""
    decoded: dict[int, MessageSymbol] = {}
    order: list[int] = []
    for r in records:
        if r.decoded is not None and r.decoded.verdict is Verdict.DECODED:
            decoded[r.trial] = r.decoded.symbol
            order.append(r.trial)
    for note in notes:
        if note.kind is NoteKind.CORRECT_TO and note.trial in decoded:
            decoded[note.trial] = note.symbol
    return [decoded[t] for t in order]


def delivered_sequence(records: Sequence[TrialRecord]) -> list[MessageSymbol]:
    """Intended symbols of the trials that delivered a message, in order."""
    return [r.intended for r in records if r.action in _DELIVERING]
