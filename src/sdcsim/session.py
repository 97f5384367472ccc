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

The kernel is columnar. A `Session` samples the bench's compiled tables
(`OpticalBench.compiled`, computed once per bench) and only wires in what its
scenario does on a wrong branch; `Session.scenario_step` draws CHUNK_MESSAGES
messages at a time as `Trials` columns of small integer codes. `TrialRecord`
and `Note` objects are built from the columns only when
`SessionResult.records`/`.notes` is read.

Randomness (RNG_SCHEME): chunk k of a session draws its uniform messages from
stream 1 and its trials from stream 0, each a numpy Philox generator seeded
with SeedSequence((seed, stream, k)), the counter-based keyed scheme of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11). A chunk's
trial stream draws, per message, its wrong-branch retries as
geometric(p_controlled) - 1 (scenarios a, c) or one uniform for its branch
(b), then one uniform per trial for the receiver's detector pattern. Chunks
are independent, so sessions are reproducible and chunks could be drawn in
parallel.
"""

from __future__ import annotations

from collections import UserList
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from . import capacity
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

CHUNK_MESSAGES = 1 << 16

_STREAM_TRIAL = 0
_STREAM_MESSAGES = 1

RNG_SCHEME = (
    f"philox4x64 per chunk of {CHUNK_MESSAGES} messages, seeded "
    f"SeedSequence((seed, stream, chunk)); stream {_STREAM_TRIAL} trials, "
    f"stream {_STREAM_MESSAGES} uniform messages"
)


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


# Column codes index these tuples; a code of -1 means "none" and picks the
# trailing None of the tuples that have one.
BRANCHES = (Branch.CONTROLLED, Branch.WRONG)
ACTIONS = tuple(ScenarioAction)
NOTE_KINDS = (*NoteKind, None)
_SENT = ACTIONS.index(ScenarioAction.SENT)
_DELIVERING = (ScenarioAction.SENT, ScenarioAction.CLONED_RESEND)
_WRONG_ACTION = {
    Scenario.A: ScenarioAction.DISCARDED_BY_ALICE,
    Scenario.B: ScenarioAction.CLONED_RESEND,
    Scenario.C: ScenarioAction.PAIR_STOPPED,
}


def _generator(seed: int, stream: int, chunk: int) -> np.random.Generator:
    key = np.random.SeedSequence((seed, stream, chunk))
    return np.random.Generator(np.random.Philox(key))


def trial_rng(seed: int, chunk: int) -> np.random.Generator:
    """Independent trial stream of one chunk, keyed by (seed, chunk index)."""
    return _generator(seed, _STREAM_TRIAL, chunk)


def _chunk_count(config: RunConfig) -> int:
    return -(-config.n_messages // CHUNK_MESSAGES)


def _chunk_messages(config: RunConfig, chunk: int) -> np.ndarray:
    """ALPHABET codes of chunk `chunk` of the sender's message sequence."""
    start = chunk * CHUNK_MESSAGES
    size = min(CHUNK_MESSAGES, config.n_messages - start)
    if config.messages == "uniform":
        rng = _generator(config.seed, _STREAM_MESSAGES, chunk)
        return rng.integers(0, len(ALPHABET), size=size, dtype=np.int8)
    cycle = np.array([ALPHABET.index(m) for m in config.messages], dtype=np.int8)
    return cycle[np.arange(start, start + size) % len(cycle)]


def intended_stream(config: RunConfig) -> list[MessageSymbol]:
    """The sender's message sequence: i.i.d. uniform draws or a cycled list."""
    return [
        ALPHABET[code]
        for chunk in range(_chunk_count(config))
        for code in _chunk_messages(config, chunk).tolist()
    ]


@dataclass(frozen=True, eq=False)
class Trials:
    """Consecutive trials of one session as numpy columns of codes.

    `intended` indexes ALPHABET, `branch` BRANCHES, `action` ACTIONS, `note`
    NOTE_KINDS, `pattern` the `patterns` tuple and `decoded` the `outcomes`
    tuple; -1 means none (no photon reached the receiver, or no note).
    """

    trial: np.ndarray
    intended: np.ndarray
    branch: np.ndarray
    action: np.ndarray
    pattern: np.ndarray
    decoded: np.ndarray
    note: np.ndarray
    patterns: tuple[DetectionPattern | None, ...]
    outcomes: tuple[ClassifiedOutcome | None, ...]

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.trial, self.intended, self.branch, self.action, self.pattern,
                self.decoded, self.note)

    def __len__(self):
        return len(self.trial)

    def __eq__(self, other):
        return (
            isinstance(other, Trials)
            and (self.patterns, self.outcomes) == (other.patterns, other.outcomes)
            and all(map(np.array_equal, self.columns, other.columns))
        )

    @classmethod
    def concat(cls, parts: Sequence["Trials"]) -> "Trials":
        if len(parts) == 1:
            return parts[0]
        columns = (np.concatenate(col) for col in zip(*(p.columns for p in parts)))
        return cls(*columns, parts[0].patterns, parts[0].outcomes)

    def tally(self) -> np.ndarray:
        """Trial counts per (message, action), a len(ALPHABET) x len(ACTIONS) matrix."""
        cell = self.intended.astype(np.intp) * len(ACTIONS) + self.action
        counts = np.bincount(cell, minlength=len(ALPHABET) * len(ACTIONS))
        return counts.reshape(len(ALPHABET), len(ACTIONS))

    def row_codes(self) -> np.ndarray:
        """One integer per trial naming its (intended, branch, action, pattern, decoded, note)."""
        sizes = (len(ALPHABET), len(BRANCHES), len(ACTIONS), len(self.patterns),
                 len(self.outcomes), len(NOTE_KINDS))
        return np.ravel_multi_index(self.columns[1:], sizes, mode="wrap")  # -1: the last

    def records(self, classical_delay: int, rows=slice(None)) -> list[TrialRecord]:
        """The `rows` of these trials as TrialRecords, sent notes stamped with their arrival."""
        out = []
        columns = (col[rows].tolist() for col in self.columns)
        for t, i, b, a, p, d, k in zip(*columns):
            symbol, kind = ALPHABET[i], NOTE_KINDS[k]
            if kind is None:
                note = None
            elif kind is NoteKind.REPEAT:  # labels the record, never sent
                note = Note(t, kind)
            else:
                corrects = symbol if kind is NoteKind.CORRECT_TO else None
                note = Note(t, kind, corrects, t + classical_delay)
            out.append(
                TrialRecord(
                    t, symbol, BRANCHES[b], ACTIONS[a], self.patterns[p], self.outcomes[d], note
                )
            )
        return out


class Session:
    """One protocol run: columnar sampling from the bench's compiled tables.

    All quantum evolution happens once per bench, in `OpticalBench.compiled`;
    each chunk draws its branches and detector patterns from those exact
    distributions with its own random stream.
    """

    def __init__(self, config: RunConfig, bench: OpticalBench | None = None):
        self.config = config
        self._next_trial = 0
        compiled = (bench or default_bench()).compiled
        self._tables = compiled.tables
        self.patterns = (*compiled.patterns, None)
        self.outcomes = (*compiled.outcomes, None)
        # pattern code -> decoded code; pattern -1 reads the trailing -1
        self._decoded = np.append(compiled.decoded, np.int8(-1))
        self._p_controlled = np.array([b.controlled_probability for b in compiled.branches])

        # what a wrong branch does, per message: the receiver's table (-1: the
        # pair is stopped), and for the scenario its action and note
        scenario = config.scenario
        send_as_is = config.clone_policy is ClonePolicy.SEND_AS_IS
        if scenario is Scenario.A:  # the receiver's lone photon
            wrong_table = compiled.lone_table
        elif scenario is Scenario.C:
            wrong_table = [-1] * len(ALPHABET)
        else:  # the complementary pair as is, or cloned to carry the intended message
            wrong_table = [
                ALPHABET.index(b.wrong_symbol) if send_as_is and b.wrong_symbol else code
                for code, b in enumerate(compiled.branches)
            ]
        self._wrong_table = np.array(wrong_table, dtype=np.int8)
        self._wrong_action = ACTIONS.index(_WRONG_ACTION[scenario])
        if scenario is Scenario.B:
            wrong_note = NoteKind.CORRECT_TO if send_as_is else None
        elif scenario is Scenario.C and config.erase_notes:
            wrong_note = NoteKind.ERASE
        else:
            wrong_note = NoteKind.REPEAT
        self._wrong_note = NOTE_KINDS.index(wrong_note)

    def scenario_step(self, chunk: int) -> Trials:
        """Drive chunk `chunk`'s messages to delivery; chunks are drawn in order, once."""
        messages = _chunk_messages(self.config, chunk)
        rng = trial_rng(self.config.seed, chunk)
        p_controlled = self._p_controlled[messages]
        if self.config.scenario is Scenario.B:  # one pair per message
            intended = messages
            wrong = rng.random(len(messages)) >= p_controlled
        else:  # retry on fresh pairs until the controlled branch
            attempts = rng.geometric(p_controlled)
            intended = np.repeat(messages, attempts)
            wrong = np.ones(len(intended), dtype=bool)
            wrong[np.cumsum(attempts) - 1] = False
        table_of = np.where(wrong, self._wrong_table[intended], intended)
        u = rng.random(len(intended))
        pattern = np.full(len(intended), -1, dtype=np.int16)
        for t, table in enumerate(self._tables):
            rows = np.flatnonzero(table_of == t)
            pattern[rows] = np.take(table.outcomes, table.locate(u[rows]))
        start = self._next_trial
        self._next_trial += len(intended)
        return Trials(
            trial=np.arange(start, self._next_trial),
            intended=intended,
            branch=wrong.astype(np.int8),  # BRANCHES: 0 controlled, 1 wrong
            action=np.where(wrong, self._wrong_action, _SENT).astype(np.int8),
            pattern=pattern,
            decoded=self._decoded[pattern],
            note=np.where(wrong, self._wrong_note, -1).astype(np.int8),
            patterns=self.patterns,
            outcomes=self.outcomes,
        )

    def chunks(self) -> Iterator[Trials]:
        """Every chunk of the session, in order."""
        for chunk in range(_chunk_count(self.config)):
            yield self.scenario_step(chunk)


class _LazyList(UserList):
    """A list built by `build()` the first time it is read.

    `initlist` is there because UserList makes slices and copies through it.
    """

    def __init__(self, initlist=None, build=None):
        if build is None:
            super().__init__(initlist)
        else:
            self._build = build

    @cached_property
    def data(self):
        return self._build()


@dataclass(frozen=True)
class SessionResult:
    config: RunConfig
    records: Sequence[TrialRecord]  # built from `trials` on first read
    notes: Sequence[Note]  # sent notes in send order, which is also delivery order
    report: "capacity.CapacityReport"
    trials: Trials


def run_session(config: RunConfig, bench: OpticalBench | None = None) -> SessionResult:
    """Run a full session: every intended message is driven to delivery.

    Scenarios a and c retry a failed product-state message on a fresh pair
    until it gets through; scenario b consumes exactly one pair per message.
    Deterministic for a fixed config.
    """
    trials = Trials.concat(list(Session(config, bench).chunks()))
    records = _LazyList(build=lambda: trials.records(config.classical_delay))
    notes = _LazyList(
        build=lambda: [r.note for r in records if r.note and r.note.delivered_at is not None]
    )
    return SessionResult(config, records, notes, build_report(config, trials.tally()), trials)


def build_report(config: RunConfig, tally: np.ndarray) -> "capacity.CapacityReport":
    """The capacity report of a session from its summed `Trials.tally()` matrix."""
    sent, discarded, stopped, cloned = tally.T.tolist()  # ACTIONS order
    per_symbol = {}
    for i, symbol in enumerate(ALPHABET):
        # every intended message is driven to delivery, so the two counts
        # agree; every wrong-branch pair is either repeated (a, c) or cloned (b)
        delivered = sent[i] + cloned[i]
        repeats = discarded[i] + stopped[i]
        rows = delivered + repeats
        per_symbol[symbol.value] = capacity.SymbolCounts(
            intended=delivered,
            delivered=delivered,
            repeats=repeats,
            discarded=repeats,
            cloned=cloned[i],
            uncontrolled_fraction=(repeats + cloned[i]) / rows if rows else 0.0,
        )
    pairs = int(tally.sum())
    return capacity.capacity_from_counts(
        pairs_consumed=pairs,
        messages_delivered=sum(sent) + sum(cloned),
        per_symbol=per_symbol,
        uncontrolled_fraction=(pairs - sum(sent)) / pairs if pairs else 0.0,
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
