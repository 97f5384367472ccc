"""Protocol sessions: scenario state machines over a classical side channel.

Three operating modes, differing only in what happens when the encoder's
reject-port detector clicks on a product-state message:

  a  the sender discards her attempt; the receiver sees a lone photon and
     discards too; the message is retried on a fresh pair.
  b  every pair is used: the sender re-emits (clones) a photon of the
     polarization her monitor detected, so the receiver always gets a pair.
     Under the send-as-is policy he gets whatever the optics make of that
     photon and his own, and a delayed correction note travels over the
     classical channel; under clone-intended the pair is idealized to carry
     the intended message and no note is sent.
  c  the sender owns both photons and silently stops the whole pair; the
     receiver never learns the pair existed; the message is retried.

A sent note (CorrectTo in b, Erase in c) arrives classical_delay trials after
the trial it concerns, at Note.delivered_at; one delay for all notes makes
send order the delivery order.

The kernel is columnar. A `Session` samples the bench's compiled laws
(`OpticalBench.compiled`, computed once per bench and laid out for sampling
as the columns of `sums` and `codes`) and only wires in what its scenario
does on a wrong branch; `Session.scenario_step` draws CHUNK_MESSAGES messages
at a time. Each trial falls in a cell, 2 * message + wrong branch. The
session picks once the compiled column of the law each cell draws from and
builds its `RowTable`: row cell * width + i is outcome i of the cell's law,
with its message, branch, action, pattern, decoding and note. A chunk gathers
the running sums by cell, samples all its trials in one `sample_outcome` call
and keeps one int16 row code per trial (`Trials.row`). Every other column,
the report's tally and the `TrialRecord` and `Note` objects, which are built
only when `SessionResult.records`/`.notes` is read, are looked up by row.

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
from functools import cache, cached_property
from typing import Iterator, Sequence

import numpy as np

from . import capacity
from .fock import sample_outcome
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


def check_seed(seed: int) -> None:
    """Raise InvalidConfigError unless `seed` is an unsigned 64-bit integer."""
    if not 0 <= seed < 2**64:
        raise InvalidConfigError("seed must be an unsigned 64-bit integer")


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
        check_seed(self.seed)
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
        # a knob that the scenario ignores would be recorded with no effect
        if self.erase_notes and self.scenario is not Scenario.C:
            raise InvalidConfigError(
                f"erase notes apply to scenario (c) only, not ({self.scenario.value})"
            )
        if self.clone_policy is ClonePolicy.CLONE_INTENDED and self.scenario is not Scenario.B:
            raise InvalidConfigError(
                f"clone policy {self.clone_policy.value} applies to scenario (b) only, "
                f"not ({self.scenario.value})"
            )
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
    return _cycled(cycle, start, size)


def _cycled(cycle: np.ndarray, start: int, size: int) -> np.ndarray:
    """Items start, ..., start + size - 1 of `cycle` repeated without end."""
    rotated = np.roll(cycle, -(start % len(cycle)))
    return np.tile(rotated, -(-size // len(cycle)))[:size]


def intended_stream(config: RunConfig) -> list[MessageSymbol]:
    """The sender's message sequence: i.i.d. uniform draws or a cycled list."""
    return [
        ALPHABET[code]
        for chunk in range(_chunk_count(config))
        for code in _chunk_messages(config, chunk).tolist()
    ]


@dataclass(frozen=True, eq=False)
class RowTable:
    """What each row code of one session names, as the `Trials` columns' codes.

    Row cell * width + i is outcome i of the law that cell, 2 * message +
    wrong branch, draws from; past a law's last outcome, and for a stopped
    pair, its pattern and decoded codes are -1.
    """

    intended: np.ndarray
    branch: np.ndarray
    action: np.ndarray
    pattern: np.ndarray
    decoded: np.ndarray
    note: np.ndarray
    patterns: tuple[DetectionPattern | None, ...]
    outcomes: tuple[ClassifiedOutcome | None, ...]

    def __len__(self):
        return len(self.pattern)

    @cached_property
    def fields(self) -> list[tuple]:
        """Per row: its intended symbol, branch, action, pattern, decoding and note kind."""
        codes = (self.intended, self.branch, self.action, self.pattern, self.decoded, self.note)
        return [
            (ALPHABET[i], BRANCHES[b], ACTIONS[a], self.patterns[p], self.outcomes[d],
             NOTE_KINDS[k])
            for i, b, a, p, d, k in zip(*(col.tolist() for col in codes))
        ]


def _looked_up(column: str) -> property:
    return property(lambda self: getattr(self.table, column)[self.row],
                    doc=f"Each trial's {column} code, looked up by its row.")


def _note(trial: int, symbol: MessageSymbol, kind: NoteKind | None,
          classical_delay: int) -> Note | None:
    """Trial `trial`'s note of this kind, if any; a sent one is stamped with its arrival."""
    if kind is None:
        return None
    if kind is NoteKind.REPEAT:  # labels the record, never sent
        return Note(trial, kind)
    corrects = symbol if kind is NoteKind.CORRECT_TO else None
    return Note(trial, kind, corrects, trial + classical_delay)


_SENT_NOTES = [NOTE_KINDS.index(NoteKind.CORRECT_TO), NOTE_KINDS.index(NoteKind.ERASE)]


@dataclass(frozen=True, eq=False)
class Trials:
    """Consecutive trials of one session: trial `first + i` drew row `row[i]` of `table`.

    Every other column is looked up from the row: `intended` indexes
    ALPHABET, `branch` BRANCHES, `action` ACTIONS, `note` NOTE_KINDS,
    `pattern` the table's `patterns` and `decoded` its `outcomes`; -1 means
    none (no photon reached the receiver, or no note).
    """

    row: np.ndarray  # int16
    first: int
    table: RowTable

    intended = _looked_up("intended")
    branch = _looked_up("branch")
    action = _looked_up("action")
    pattern = _looked_up("pattern")
    decoded = _looked_up("decoded")
    note = _looked_up("note")

    @property
    def trial(self) -> np.ndarray:
        return np.arange(self.first, self.first + len(self.row))

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.trial, self.intended, self.branch, self.action, self.pattern,
                self.decoded, self.note)

    def __len__(self):
        return len(self.row)

    @classmethod
    def concat(cls, parts: Sequence["Trials"]) -> "Trials":
        if len(parts) == 1:
            return parts[0]
        return cls(np.concatenate([p.row for p in parts]), parts[0].first, parts[0].table)

    def row_counts(self) -> np.ndarray:
        """Trial counts per row of the table."""
        return np.bincount(self.row, minlength=len(self.table))

    def tally(self) -> np.ndarray:
        """Trial counts per (message, action), a len(ALPHABET) x len(ACTIONS) matrix."""
        counts = np.zeros((len(ALPHABET), len(ACTIONS)), dtype=np.intp)
        np.add.at(counts, (self.table.intended, self.table.action), self.row_counts())
        return counts

    def records(self, classical_delay: int) -> list[TrialRecord]:
        """These trials as TrialRecords, sent notes stamped with their arrival."""
        out = []
        fields = self.table.fields
        for t, r in enumerate(self.row.tolist(), self.first):
            symbol, branch, action, pattern, decoded, kind = fields[r]
            note = _note(t, symbol, kind, classical_delay)
            out.append(TrialRecord(t, symbol, branch, action, pattern, decoded, note))
        return out

    def notes(self, classical_delay: int) -> list[Note]:
        """The notes these trials send, in send order, stamped with their arrival."""
        sent = np.flatnonzero(np.isin(self.table.note, _SENT_NOTES)[self.row])
        fields = self.table.fields
        return [
            _note(t, fields[r][0], fields[r][-1], classical_delay)
            for t, r in zip((sent + self.first).tolist(), self.row[sent].tolist())
        ]


@cache
def _cell_columns(width: int, wrong_action: int, wrong_note: int) -> tuple[np.ndarray, ...]:
    """The intended, branch, action and note codes of each row, `width` rows per cell.

    A row's cell alone decides them, so sessions with the same wrong-branch
    action and note share these (read-only) arrays.
    """
    cell = np.arange(2 * len(ALPHABET), dtype=np.int8).repeat(width)
    branch = cell & 1  # BRANCHES: 0 controlled, 1 wrong
    columns = (cell >> 1, branch, np.array([_SENT, wrong_action], dtype=np.int8)[branch],
               np.array([-1, wrong_note], dtype=np.int8)[branch])
    for column in columns:
        column.flags.writeable = False
    return columns


class Session:
    """One protocol run: columnar sampling from the bench's compiled laws.

    All quantum evolution happens once per bench, in `OpticalBench.compiled`;
    each chunk draws its branches and detector patterns from those exact
    distributions with its own random stream.
    """

    def __init__(self, config: RunConfig, bench: OpticalBench | None = None):
        self.config = config
        self._next_trial = 0
        compiled = (bench or default_bench()).compiled
        self._p_controlled = np.array([b.controlled_probability for b in compiled.branches])

        # what a wrong branch does, per scenario: the receiver's law per
        # message (-1: the pair is stopped), the action and the note
        send_as_is = config.clone_policy is ClonePolicy.SEND_AS_IS
        wrong_law, wrong_action, wrong_note = {
            Scenario.A: (compiled.lone_table, ScenarioAction.DISCARDED_BY_ALICE, NoteKind.REPEAT),
            # the re-emitted pair as the optics make it, or cloned to carry the intended message
            Scenario.B: (compiled.resent_table if send_as_is else range(len(ALPHABET)),
                         ScenarioAction.CLONED_RESEND, NoteKind.CORRECT_TO if send_as_is else None),
            Scenario.C: ((-1,) * len(ALPHABET), ScenarioAction.PAIR_STOPPED,
                         NoteKind.ERASE if config.erase_notes else NoteKind.REPEAT),
        }[config.scenario]

        # per cell, 2 * message + wrong branch: the compiled law it draws from
        law = [t for m, wrong in enumerate(wrong_law) for t in (m, wrong)]
        self._width = len(compiled.sums)
        self._cell_sums = compiled.sums[:, law]  # (index, cell) -> running sum
        pattern = compiled.codes[:, law].T.ravel()
        intended, branch, action, note = _cell_columns(
            self._width, ACTIONS.index(wrong_action), NOTE_KINDS.index(wrong_note))
        self.table = RowTable(
            intended, branch, action, pattern,
            decoded=np.append(compiled.decoded, np.int8(-1))[pattern],
            note=note,
            patterns=(*compiled.patterns, None),
            outcomes=(*compiled.outcomes, None),
        )

    def scenario_step(self, chunk: int) -> Trials:
        """Drive chunk `chunk`'s messages to delivery; chunks are drawn in order, once."""
        messages = _chunk_messages(self.config, chunk)
        rng = trial_rng(self.config.seed, chunk)
        if self.config.scenario is Scenario.B:  # one pair per message
            intended = messages
            wrong = rng.random(len(messages)) >= self._p_controlled[messages]
        else:  # retry on fresh pairs until the controlled branch
            attempts = rng.geometric(self._p_controlled[messages])
            intended = np.repeat(messages, attempts)
            wrong = np.ones(len(intended), dtype=bool)
            wrong[np.cumsum(attempts) - 1] = False
        cell = 2 * intended.astype(np.int16) + wrong
        row = cell * np.int16(self._width)  # the cell's first row, then the drawn index
        row += sample_outcome(np.take(self._cell_sums, cell, axis=1), rng.random(len(intended)))
        start = self._next_trial
        self._next_trial += len(intended)
        return Trials(row, start, self.table)

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
    chunks = list(Session(config, bench).chunks())
    trials = Trials.concat(chunks)
    records = _LazyList(build=lambda: trials.records(config.classical_delay))
    notes = _LazyList(build=lambda: trials.notes(config.classical_delay))
    report = build_report(sum(chunk.tally() for chunk in chunks))
    return SessionResult(config, records, notes, report, trials)


def build_report(tally: np.ndarray) -> "capacity.CapacityReport":
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
