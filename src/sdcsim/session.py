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
(`OpticalBench.compiled`, computed once per distinct optics and laid out
for sampling as the columns of `sums` and `codes`) and only wires in what
its scenario does on a wrong branch; `Session.scenario_step` draws
CHUNK_MESSAGES messages at a time. Each trial falls in a cell, 2 * message
+ wrong branch. The wiring, memoized per compiled model and configuration
(`wiring`), picks the compiled column of the law each cell draws from: its
boundary rows hold each cell's running sums, and its `RowTable` names what
each row code means: row cell * width + i is outcome i of the cell's law,
with its message, branch, action, pattern, decoding and note. Sessions
share it read-only, so a session costs only its draws and lookups. A chunk
draws in two passes over blocks of at most BLOCK items, so that its only
arrays as long as the chunk are its int8 messages and its int16 cells and
row codes: pass 1 goes over blocks of messages and draws each block's
branches into its trials' cells; pass 2 goes over blocks of trials, starts
each trial's row code at its cell's first row and adds, in one
`sample_outcome` call per block, each boundary row gathered by cell. It
keeps that one row code per trial (`Trials.row`). Every other column, the
report's tally, the receiver's reconstruction and the `Note` objects, which
are built only when `SessionResult.notes` is read, are looked up by row.
`Session.chunks()` numbers each chunk's trials on from the last's, so a
session holds no cursor and can be iterated again.

Randomness (RNG_SCHEME): chunk k of a session draws its uniform messages from
stream 1 and its trials from stream 0, each a numpy Philox generator seeded
with SeedSequence((seed, stream, k)), the counter-based keyed scheme of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11). A chunk's
trial stream draws, per message, its wrong-branch retries as
geometric(p_controlled) - 1 (scenarios a, c) or one uniform for its branch
(b), then one uniform per trial for the receiver's detector pattern. Pass 1
makes every branch draw of a chunk before pass 2 makes any pattern draw, and
a generator draws in sequence, so the blocks draw the same stream as one
call per chunk would: BLOCK is no part of the scheme. Chunks are
independent, so sessions are reproducible and chunks could be drawn in
parallel.

Both streams of a chunk come from one generator per thread, which
`_generator` re-keys for each (seed, stream, chunk) instead of building a new
one, and a uniform chunk reads its messages from the raw stream. Each draws
exactly what the scheme's fresh generator draws, so, like BLOCK, the reuse is
no part of the scheme. That rests on three numpy internals, each guarded by a
test in tests/test_kernel.py:
  - SeedSequence hashes the tuple as its integers' 32-bit words, least
    significant first, 0 as one zero word
    (test_a_keyed_generator_draws_what_a_fresh_one_draws);
  - a Philox state dict with counter 0 and an empty buffer starts the stream
    of its key, whatever was drawn before
    (test_re_keying_back_gives_the_first_stream_again);
  - integers(0, 4, dtype=int8) draws each message by Lemire's method from
    one byte of the buffered stream, read little-endian, which over 4 values
    is the byte's top two bits (test_uniform_messages_are_what_integers_draws).
`scenario_step` keys and draws all of a chunk in one call, so nothing holds
the generator across a yield of `Session.chunks()`.
"""

from __future__ import annotations

import threading
from collections import UserList
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from numbers import Integral
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
    CompiledBench,
    DetectionPattern,
    MessageSymbol,
    OpticalBench,
    Owner,
    Scenario,
    Verdict,
    default_bench,
)

CHUNK_MESSAGES = 1 << 16
# Messages or trials per step of a chunk's two passes: 8,192 float64 temporaries
# are 64 KB, below glibc's 128 KB mmap threshold (so no step maps and
# first-touches fresh pages) and small enough to stay in cache
BLOCK = 1 << 13

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

    ``delivered_at`` is the trial it reaches the receiver.
    """

    trial: int
    kind: NoteKind
    symbol: MessageSymbol | None = None
    delivered_at: int | None = None

    def __str__(self):
        if self.kind is NoteKind.CORRECT_TO:
            return f"CorrectTo({self.symbol.value})"
        return self.kind.value


def check_seed(seed: int) -> None:
    """Raise InvalidConfigError unless `seed` is an unsigned 64-bit integer."""
    if not isinstance(seed, Integral) or not 0 <= seed < 2**64:
        raise InvalidConfigError("seed must be an unsigned 64-bit integer")


# Each enum or flag field of RunConfig, the types it takes and how to name them;
# any other value is rejected, not coerced: "send-as-is" is not SEND_AS_IS.
_TYPED_FIELDS = (
    ("scenario", Scenario, "a Scenario"),
    ("owner", (Owner, type(None)), "an Owner or None"),
    ("clone_policy", ClonePolicy, "a ClonePolicy"),
    ("erase_notes", bool, "a bool"),
)


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
        for name, kinds, named in _TYPED_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise InvalidConfigError(f"{name} must be {named}, not {value!r}")
        for name in ("n_messages", "seed", "classical_delay"):
            value = getattr(self, name)
            if not isinstance(value, Integral):
                raise InvalidConfigError(f"{name} must be an integer, not {value!r}")
            # a numpy integer becomes an int, so no sum with a trial number overflows
            object.__setattr__(self, name, int(value))
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
_DELIVERING = [ACTIONS.index(ScenarioAction.SENT), ACTIONS.index(ScenarioAction.CLONED_RESEND)]


_THREAD = threading.local()  # `rng`: each thread's one generator, made on its first key
_ZEROS = np.zeros(4, dtype=np.uint64)  # a fresh Philox's counter, and its unread buffer
_ZEROS.flags.writeable = False


def _words(n: int) -> list[int]:
    """n's 32-bit words, least significant first; 0 is one zero word."""
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _generator(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """The calling thread's generator, keyed to draw exactly what
    Generator(Philox(SeedSequence((seed, stream, chunk)))) draws.

    SeedSequence takes the tuple as these words; Philox keys itself with its
    first four output words read as two little-endian uint64s, and starts at
    counter 0 with an empty buffer.
    """
    words = np.array(_words(seed) + _words(stream) + _words(chunk), dtype=np.uint32)
    key = np.random.SeedSequence(words).generate_state(4).astype("<u4", copy=False).view("<u8")
    try:
        rng = _THREAD.rng
    except AttributeError:  # made here, not on import, which then loads no numpy.random
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
                               "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def trial_rng(seed: int, chunk: int) -> np.random.Generator:
    """Independent trial stream of one chunk, keyed by (seed, chunk index).

    It is the calling thread's one generator, so it is valid until the next
    keyed call on the same thread.
    """
    return _generator(seed, _STREAM_TRIAL, chunk)


def _blocks(size: int) -> Iterator[slice]:
    """Consecutive slices of at most BLOCK items, in order, that cover `size` items."""
    return (slice(start, start + BLOCK) for start in range(0, size, BLOCK))


def _chunk_count(config: RunConfig) -> int:
    return -(-config.n_messages // CHUNK_MESSAGES)


def _chunk_messages(config: RunConfig, chunk: int) -> np.ndarray:
    """ALPHABET codes of chunk `chunk` of the sender's message sequence."""
    start = chunk * CHUNK_MESSAGES
    size = min(CHUNK_MESSAGES, config.n_messages - start)
    if config.messages == "uniform":
        # what integers(0, 4, size, dtype=int8) draws: Lemire's method maps each
        # byte of the raw stream, read little-endian, to its top two bits, and over
        # 4 values it never rejects a byte
        philox = _generator(config.seed, _STREAM_MESSAGES, chunk).bit_generator
        raw = philox.random_raw(-(-size // 8)).astype("<u8", copy=False).view(np.uint8)[:size]
        raw >>= 6
        return raw.view(np.int8)
    cycle = np.array([ALPHABET.index(m) for m in config.messages], dtype=np.int8)
    return _cycled(cycle, start, size)


def _cycled(cycle: np.ndarray, start: int, size: int) -> np.ndarray:
    """Items start, ..., start + size - 1 of `cycle` repeated without end."""
    offset = start % len(cycle)
    return np.tile(cycle, -(-(offset + size) // len(cycle)))[offset:offset + size]


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
    pair, its pattern and decoded codes are -1. Sessions of one wiring share
    the table, so its arrays are read-only.
    """

    intended: np.ndarray
    branch: np.ndarray
    action: np.ndarray
    pattern: np.ndarray
    decoded: np.ndarray
    note: np.ndarray
    patterns: tuple[DetectionPattern | None, ...]
    outcomes: tuple[ClassifiedOutcome | None, ...]

    def __post_init__(self):
        for column in (self.intended, self.branch, self.action, self.pattern, self.decoded,
                       self.note):
            column.flags.writeable = False

    def __len__(self):
        return len(self.pattern)

    @cached_property
    def tally_fold(self) -> np.ndarray:
        """Per row, a one-hot int64 row marking its cell of `Trials.tally`,
        intended * len(ACTIONS) + action: row counts times it are the tally."""
        fold = np.zeros((len(self), len(ALPHABET) * len(ACTIONS)), dtype=np.int64)
        fold[np.arange(len(self)), self.intended * len(ACTIONS) + self.action] = 1
        fold.flags.writeable = False
        return fold

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


def _note(trial: int, symbol: MessageSymbol, kind: NoteKind, classical_delay: int) -> Note:
    """The note of this kind that trial `trial` sends, stamped with its arrival."""
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

    The rows are counted once, on the first `row_counts()`, and the count is
    kept, so a session's tally and `verify`'s two statistical checks share one pass.
    `row` is read-only, so that count cannot go stale: a writable row is
    copied on construction, and the kernel's rows, already read-only, are not.
    """

    row: np.ndarray  # int16
    first: int
    table: RowTable

    def __post_init__(self):
        if self.row.flags.writeable:
            row = self.row.copy()
            row.flags.writeable = False
            object.__setattr__(self, "row", row)

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
        row = np.concatenate([p.row for p in parts])
        row.flags.writeable = False
        return cls(row, parts[0].first, parts[0].table)

    def row_counts(self) -> np.ndarray:
        """Trial counts per row of the table, read-only: counted on first use, a
        block at a time, so that no intp copy of every row code is made, and kept."""
        return self._row_counts

    @cached_property
    def _row_counts(self) -> np.ndarray:
        counts = np.zeros(len(self.table), dtype=np.intp)
        for block in _blocks(len(self.row)):
            counts += np.bincount(self.row[block], minlength=len(self.table))
        counts.flags.writeable = False
        return counts

    def tally(self) -> np.ndarray:
        """Trial counts per (message, action), a len(ALPHABET) x len(ACTIONS) matrix."""
        return (self.row_counts() @ self.table.tally_fold).reshape(len(ALPHABET), -1)

    def notes(self, classical_delay: int) -> list[Note]:
        """The notes these trials send, in send order, stamped with their arrival."""
        sent = np.flatnonzero(np.isin(self.table.note, _SENT_NOTES)[self.row])
        fields = self.table.fields
        return [
            _note(t, fields[r][0], fields[r][-1], classical_delay)
            for t, r in zip((sent + self.first).tolist(), self.row[sent].tolist())
        ]


@lru_cache(maxsize=256)
def wiring(compiled: CompiledBench, scenario: Scenario, clone_policy: ClonePolicy,
           erase_notes: bool) -> tuple[tuple[np.ndarray, ...], RowTable]:
    """What a session of this configuration samples from `compiled`: its boundary
    rows and its `RowTable`, built once per process and shared, read-only.

    A trial falls in a cell, 2 * message + wrong branch, and the cell decides
    the compiled law it draws from. Boundary row j holds, per cell, running
    sum j of that law: a contiguous copy of those columns of `compiled.sums`.
    """
    # what a wrong branch does, per scenario: the receiver's law per message
    # (-1: the pair is stopped), the action and the note
    send_as_is = clone_policy is ClonePolicy.SEND_AS_IS
    wrong_law, wrong_action, wrong_note = {
        Scenario.A: (compiled.lone_table, ScenarioAction.DISCARDED_BY_ALICE, NoteKind.REPEAT),
        # the re-emitted pair as the optics make it, or cloned to carry the intended message
        Scenario.B: (compiled.resent_table if send_as_is else range(len(ALPHABET)),
                     ScenarioAction.CLONED_RESEND, NoteKind.CORRECT_TO if send_as_is else None),
        Scenario.C: ((-1,) * len(ALPHABET), ScenarioAction.PAIR_STOPPED,
                     NoteKind.ERASE if erase_notes else NoteKind.REPEAT),
    }[scenario]
    law = [t for m, wrong in enumerate(wrong_law) for t in (m, wrong)]
    bounds = np.ascontiguousarray(compiled.sums[:, law])
    bounds.flags.writeable = False  # and so are the views of its rows
    width = len(compiled.codes)
    cell = np.arange(len(law), dtype=np.int8).repeat(width)
    branch = cell & 1  # BRANCHES: 0 controlled, 1 wrong
    pattern = compiled.codes[:, law].T.ravel()
    table = RowTable(
        intended=cell >> 1,
        branch=branch,
        action=np.array([_SENT, ACTIONS.index(wrong_action)], dtype=np.int8)[branch],
        pattern=pattern,
        decoded=np.append(compiled.decoded, np.int8(-1))[pattern],  # code -1 reads as none
        note=np.array([-1, NOTE_KINDS.index(wrong_note)], dtype=np.int8)[branch],
        patterns=(*compiled.patterns, None),
        outcomes=(*compiled.outcomes, None),
    )
    return tuple(bounds), table


class Session:
    """One protocol run: columnar sampling from the bench's compiled laws.

    All quantum evolution happens once per distinct optics, in `compile_optics`,
    and all wiring once per compiled model and configuration, in `wiring`;
    each chunk draws its branches and detector patterns from those exact
    distributions with its own random stream. Nothing of a session changes
    after it is built, so every pass over `chunks()` gives the same trials.
    """

    def __init__(self, config: RunConfig, bench: OpticalBench | None = None):
        self.config = config
        compiled = (bench or default_bench()).compiled
        self._p_controlled = compiled.p_controlled
        self._width = np.int16(len(compiled.codes))
        self._bounds, self.table = wiring(compiled, config.scenario, config.clone_policy,
                                          config.erase_notes)

    def scenario_step(self, chunk: int, first: int) -> Trials:
        """Drive chunk `chunk`'s messages to delivery, numbering its trials from `first`."""
        messages = _chunk_messages(self.config, chunk)
        rng = trial_rng(self.config.seed, chunk)
        # pass 1: each block of messages' branches, into its trials' cells
        if self.config.scenario is Scenario.B:  # one pair per message
            cell = 2 * messages.astype(np.int16)
            for block in _blocks(len(cell)):
                p_controlled = self._p_controlled.take(messages[block])
                cell[block] += rng.random(len(p_controlled)) >= p_controlled  # the wrong branch
        else:  # retry on fresh pairs until the controlled branch
            pieces = []
            for block in _blocks(len(messages)):
                attempts = rng.geometric(self._p_controlled.take(messages[block]))
                controlled = 2 * messages[block].astype(np.int16)
                piece = np.repeat(controlled + 1, attempts)  # every attempt wrong ...
                piece[attempts.cumsum() - 1] = controlled  # ... but each message's last
                pieces.append(piece)
            cell = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            del pieces  # so that pass 2 holds one copy of the cells
        row = cell * self._width  # the cell's first row, then the drawn index
        for block in _blocks(len(cell)):  # pass 2, after every branch is drawn
            cells = cell[block]  # `take` gathers by it twice as fast as indexing does
            sample_outcome((bound.take(cells) for bound in self._bounds),
                           rng.random(len(cells)), out=row[block])
        row.flags.writeable = False
        return Trials(row, first, self.table)

    def chunks(self) -> Iterator[Trials]:
        """Every chunk of the session, in order, its trials numbered on from the last's."""
        first = 0
        for chunk in range(_chunk_count(self.config)):
            trials = self.scenario_step(chunk, first)
            first += len(trials)
            yield trials


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
    notes: Sequence[Note]  # sent notes in send order, which is also delivery order
    report: "capacity.CapacityReport"
    trials: Trials

    # `trials` under the name the benchmark's gate (`perfbench/gate.py`) reads
    # them by; it goes when the gate reads `trials`
    records = property(lambda self: self.trials, doc="The session's `trials`, read-only.")


def run_session(config: RunConfig, bench: OpticalBench | None = None) -> SessionResult:
    """Run a full session: every intended message is driven to delivery.

    Scenarios a and c retry a failed product-state message on a fresh pair
    until it gets through; scenario b consumes exactly one pair per message.
    Deterministic for a fixed config.

    Unlike `simulate`'s chunk-by-chunk log, it keeps every trial's int16 row
    code, so its memory grows with the session: about 4 bytes a trial at peak,
    2 for the chunks' rows plus 2 for the copy `Trials.concat` joins them into,
    and 2 held after (tracemalloc, scenario a, 8 chunks: 4.1 and 2.0).
    """
    chunks = list(Session(config, bench).chunks())
    trials = Trials.concat(chunks)
    notes = _LazyList(build=lambda: trials.notes(config.classical_delay))
    return SessionResult(config, notes, build_report(trials.tally()), trials)


_SYMBOL_NAMES = tuple(symbol.value for symbol in ALPHABET)


def build_report(tally: np.ndarray) -> "capacity.CapacityReport":
    """The capacity report of a session from its summed `Trials.tally()` matrix."""
    # one row per symbol, in ACTIONS order; every wrong-branch pair is either
    # repeated (a, c) or cloned (b), and a clone delivers its message
    return capacity.capacity_from_counts({
        name: (sent + cloned, discarded + stopped, cloned)
        for name, (sent, discarded, stopped, cloned) in zip(_SYMBOL_NAMES, tally.tolist())
    })


def bob_reconstruction(trials: Trials, notes: Sequence[Note]) -> list[MessageSymbol]:
    """The receiver's final message sequence: the symbol each decoding trial
    reads, replaced by that of any CorrectTo note about the trial."""
    outcomes = trials.table.outcomes  # its trailing None is decoded code -1
    decodes = np.array([o is not None and o.verdict is Verdict.DECODED for o in outcomes])
    decoded = trials.decoded
    at = np.flatnonzero(decodes[decoded])
    read = {t: outcomes[d].symbol
            for t, d in zip((at + trials.first).tolist(), decoded[at].tolist())}
    for note in notes:
        if note.kind is NoteKind.CORRECT_TO and note.trial in read:
            read[note.trial] = note.symbol
    return list(read.values())


def delivered_sequence(trials: Trials) -> list[MessageSymbol]:
    """Intended symbols of the trials that delivered a message, in order."""
    delivers = np.isin(trials.table.action, _DELIVERING)[trials.row]
    return [ALPHABET[i] for i in trials.intended[delivers].tolist()]
