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
(`OpticalBench.compiled`, computed once per distinct optics, each on its
encoder branch) and only wires in what its scenario does on a wrong branch;
`Session.scenario_step` draws CHUNK_MESSAGES messages at a time. Each trial
falls in a cell, 2 * message + wrong branch. The wiring, memoized per
compiled model and configuration (`wiring`), picks the law each cell draws
from and lays it out for sampling: its boundary rows hold each cell's
running sums (in scenario b, those of the message's joint law), and its
`RowTable` names what each row code means: row cell * width + i is outcome
i of the cell's law, with its message, branch, action, pattern, decoding
and note. Sessions share it read-only, so a session costs only its draws
and lookups.
The kernel draws raw 64-bit words of the chunk's generator, never doubles: the
wiring holds each boundary, each message's controlled probability and each
of its retry sums as a threshold on the word (`fock.raw_thresholds`,
`_retry_thresholds`) that it passes exactly when the double numpy's `random`
makes of it passes the boundary, so no draw builds a double and every draw
is the one `random` would make. A chunk draws over blocks of at most BLOCK
items, so that its only arrays as long as the chunk are its int8 messages,
its int16 row codes and, in scenarios a and c, its int16 cells. A
scenario-b chunk draws in one pass over blocks of messages: each message's
one word goes wrong when it exceeds the message's controlled threshold, and
the same word is then counted, in one `sample_outcome` call per block,
against each boundary row gathered by its cell. A chunk of scenarios a and
c draws in two passes: pass 1 goes over blocks of messages, counts the
retry thresholds below each message's one word in one `searchsorted` per
block, looks up the attempts that count makes for its message, and lays
them out as its trials' cells; pass 2 goes over blocks of trials and draws
each trial's word the same way as b.
The chunk keeps one row code per trial (`Trials.row`), its cell's first
row plus the drawn index. Every other column, the report's tally, the
receiver's reconstruction and the `Note` objects, which are built only when
`SessionResult.notes` is read, are looked up by row.
`Session.chunks()` numbers each chunk's trials on from the last's, so a
session holds no cursor and can be iterated again.

A short session pays mostly for what it does once per call, whatever its
size: keying its generators, a few numpy calls per pass and its report. So
the passes step through plain ranges of blocks, a listed stream's chunk is
its cycle repeated (`_cycled`), and the rows are counted by one `bincount`
per block, the first before the loop; a session of one chunk keeps that
chunk's rows, uncopied. Its report's records (`capacity.SymbolCounts`,
`RoundedReference`, `CapacityReport`) and its `SessionResult` are slotted,
not frozen, dataclasses, which cost a plain object's construction each.

Randomness (RNG_SCHEME): chunk k of a session draws its uniform messages from
stream 1 and its trials from stream 0, each the numpy Philox generator
Philox(key=seed, counter=(0, 0, k, stream)), the counter-based keyed scheme
of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11). The
seed is the key, and each (stream, chunk) owns the segment of its stream
that starts at its counter: a chunk steps only counter word 0, one step per
four words, and would carry into word 1 only after 2^66 words. Each chunk's
index is one counter word, so a session holds fewer than 2^64 messages. In
scenario b a chunk's trial stream draws one uniform per message, its one
trial: the message's branch is wrong when the uniform reaches p_controlled,
and its detector pattern is the outcome whose running sum in the message's
joint (branch, pattern) law first exceeds the uniform. In scenarios a and c
it draws one uniform per message, whose wrong-branch retries are the number
of running sums of the geometric law at p_controlled that the uniform
exceeds, the sums built as numpy's geometric search builds them (S_1 = p,
prod *= 1 - p, S += prod), so that for p >= 1/3 they are the retries
geometric(p) - 1 draws; the sums stop where one stops growing, where that
search would never end, and a p whose sums need more than MAX_RETRIES of
them is refused (`_retry_thresholds`). Then it draws one uniform per trial
for the receiver's detector pattern; pass 1 makes every retry draw of a
chunk before pass 2 makes any pattern draw. Each uniform is random()'s,
drawn as the raw word it is made of, and every draw counts the thresholds
its word exceeds. A generator draws in sequence, so the blocks draw the
same stream as one call per chunk would: BLOCK is no part of the scheme.
Chunks are independent, so sessions are reproducible and chunks could be
drawn in parallel.

Both streams of a chunk come from one generator per thread, which
`_generator` re-keys for each (seed, stream, chunk) by setting its state
instead of building a new one, and a uniform chunk reads its messages from
the raw stream. Each draws exactly what the scheme's fresh generator draws,
so, like BLOCK, the reuse is no part of the scheme. That, and drawing raw
words for uniforms, rest on three numpy internals, each guarded by a test in
tests/test_kernel.py:
  - a Philox state dict with key (seed, 0), counter (0, 0, chunk, stream)
    and an empty buffer starts the stream the public constructor starts,
    whatever was drawn before (test_a_keyed_generator_draws_what_a_fresh_one_draws,
    test_re_keying_back_gives_the_first_stream_again), and a chunk's draws
    leave counter words 1 to 3 as they were (test_a_chunk_keeps_its_counter_words);
  - integers(0, 4, dtype=int8) draws each message by Lemire's method from
    one byte of the buffered stream, read little-endian, which over 4 values
    is the byte's top two bits (test_uniform_messages_are_what_integers_draws);
  - random() makes each double of one raw word of the stream, the word
    random_raw() returns, as (raw >> 11) * 2^-53
    (test_a_raw_words_uniform_is_what_random_draws).
`scenario_step` keys and draws all of a chunk in one call, so nothing holds
the generator across a yield of `Session.chunks()`.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import UserList
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from numbers import Integral
from typing import Iterator, Sequence

import numpy as np

from . import capacity
from .fock import raw_thresholds, sample_outcome
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
    _read_only,
    default_bench,
)

CHUNK_MESSAGES = 1 << 16
# Messages or trials per step of a chunk's passes: 8,192 8-byte temporaries
# are 64 KB, below glibc's 128 KB mmap threshold (so no step maps and
# first-touches fresh pages) and small enough to stay in cache
BLOCK = 1 << 13

_STREAM_TRIAL = 0
_STREAM_MESSAGES = 1
# The most retries one message's word can draw in scenarios a and c: a
# p_controlled whose running sums need more thresholds, one below about 0.008,
# is refused
MAX_RETRIES = 1 << 12

RNG_SCHEME = (
    f"philox4x64 per chunk of {CHUNK_MESSAGES} messages, keyed (seed, 0) from counter (0, 0, "
    f"chunk, stream); stream {_STREAM_TRIAL} trials, stream {_STREAM_MESSAGES} uniform messages; "
    f"scenario b draws one uniform per message for its branch and pattern from their joint law, "
    f"a and c one for its retries, the geometric running sums it exceeds up to the first that "
    f"stops growing (at most {MAX_RETRIES}), then one uniform per trial for its pattern"
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
    """Raise InvalidConfigError unless `seed` is an unsigned 64-bit integer; a
    bool is a flag, never a seed."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
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
            if isinstance(value, bool) or not isinstance(value, Integral):  # a bool is a flag
                raise InvalidConfigError(f"{name} must be an integer, not {value!r}")
            # a numpy integer becomes an int, so no sum with a trial number overflows
            object.__setattr__(self, name, int(value))
        if not 1 <= self.n_messages < 2**64:  # so that each chunk's index keys a counter word
            raise InvalidConfigError("n_messages must be >= 1 and below 2^64")
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


def _generator(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """The calling thread's generator, keyed to draw exactly what
    Generator(Philox(key=seed, counter=(0, 0, chunk, stream))) draws: key
    words (seed, 0), those counter words and an empty buffer, set in place.
    """
    try:
        rng = _THREAD.rng
    except AttributeError:  # made here, not on import, which then loads no numpy.random
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, chunk, stream), "key": (seed, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def trial_rng(seed: int, chunk: int) -> np.random.Generator:
    """Independent trial stream of one chunk, keyed by (seed, chunk index).

    It is the calling thread's one generator, so it is valid until the next
    keyed call on the same thread.
    """
    return _generator(seed, _STREAM_TRIAL, chunk)


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
    laps = -(-(offset + size) // len(cycle))
    return cycle.reshape(1, -1).repeat(laps, axis=0).ravel()[offset:offset + size]


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
        counts = vars(self).get("_row_counts")
        if counts is None:
            counts = np.bincount(self.row[:BLOCK], minlength=len(self.table))
            for start in range(BLOCK, len(self.row), BLOCK):
                counts += np.bincount(self.row[start:start + BLOCK], minlength=len(self.table))
            counts.flags.writeable = False
            object.__setattr__(self, "_row_counts", counts)
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


def _retry_thresholds(p: float) -> list[int]:
    """The raw-word retry thresholds of a message that gets through with
    probability p: a word's uniform, (raw >> 11) * 2^-53, exceeds running sum
    S_k of the geometric law, built as numpy's search builds it (S_1 = p,
    prod *= q, S += prod), exactly when raw >> 11 >= c_k = floor(S_k * 2^53) + 1,
    that is when the word exceeds c_k * 2^11 - 1.

    They stop before the first c_k above 2^53 - 1, which no word reaches, or
    after the last sum that grows, so a word above the last draws that many
    retries where the search would never end. More than MAX_RETRIES raises
    InvalidConfigError.
    """
    steps, total, prod, q, last = [], p, p, 1.0 - p, 0.0
    while total > last and (step := int(total * 2.0**53) + 1) < 2**53:
        if len(steps) == MAX_RETRIES:
            raise InvalidConfigError(f"p_controlled {p} needs over {MAX_RETRIES} retry thresholds")
        steps.append((step << 11) - 1)
        prod *= q
        last, total = total, total + prod
    return steps


@lru_cache(maxsize=256)
def wiring(compiled: CompiledBench, scenario: Scenario, clone_policy: ClonePolicy,
           erase_notes: bool) -> tuple[np.ndarray, tuple[np.ndarray, ...],
                                       tuple[np.ndarray, ...], RowTable]:
    """What a session of this configuration samples from `compiled`: its
    controlled thresholds, its retries, its boundary rows and its `RowTable`,
    built once per process and shared, read-only. It is the one place that
    lays the branch laws out for the sampler.

    A trial falls in a cell, 2 * message + wrong branch, and the cell decides
    the law it draws from: the message's `controlled_law`, or on the wrong
    branch the scenario's law, None for a stopped pair. Each cell's block of
    rows is as wide as the widest of those laws: row cell * width + i is
    outcome i of the cell's law, its patterns in sorted order, then padding.
    Boundary row j holds, per cell, the raw-word threshold
    (`fock.raw_thresholds`) of running sum j of that law, or 2^64 - 1 past its
    last boundary; the controlled thresholds are those of each message's
    `compiled.p_controlled`, which a scenario-b word exceeds to go wrong. That
    word then draws the pattern too, so in scenario b running sum j is the
    message's joint law's: p * S_j in the controlled cell and p + (1 - p) * S_j
    in the wrong one, where p is p_controlled and S_j the branch law's running
    sum. A message with p = 1 keeps its wrong cell's boundaries at 2^64 - 1;
    padding is added after scaling, as 0 * inf is NaN. A boundary at or below
    0 raises ValueError.

    The retries are (thresholds, attempts, rows): every message's
    `_retry_thresholds` in scenarios a and c (scenario b never retries), each
    value once, as one sorted uint64 array; and one row per message of the
    attempts a word of it makes that exceeds j of those thresholds, 1 plus
    the number of its own among them, at index rows[m] + j of `attempts`.
    """
    # what a wrong branch does, per scenario: the receiver's law per message
    # (None: the pair is stopped), the action and the note
    send_as_is = clone_policy is ClonePolicy.SEND_AS_IS
    wrong_laws, wrong_action, wrong_note = {
        Scenario.A: ([b.lone_law for b in compiled.branches], ScenarioAction.DISCARDED_BY_ALICE,
                     NoteKind.REPEAT),
        # the re-emitted pair as the optics make it, or cloned to carry the intended message
        Scenario.B: ([b.resent_law if send_as_is else b.controlled_law for b in compiled.branches],
                     ScenarioAction.CLONED_RESEND, NoteKind.CORRECT_TO if send_as_is else None),
        Scenario.C: ([None] * len(ALPHABET), ScenarioAction.PAIR_STOPPED,
                     NoteKind.ERASE if erase_notes else NoteKind.REPEAT),
    }[scenario]
    laws = [law for b, wrong in zip(compiled.branches, wrong_laws)
            for law in (b.controlled_law, wrong)]
    width = max(len(law or ()) for law in laws)
    code = {p: i for i, p in enumerate(compiled.patterns)}
    sums, codes = [], []
    for cell, law in enumerate(laws):
        keys = sorted(law or ())
        running = list(accumulate(law[key] for key in keys))[:-1]  # the last is no boundary
        if scenario is Scenario.B:  # one word draws branch and pattern: the joint law's sums
            p = float(compiled.p_controlled[cell >> 1])
            running = [p + (1.0 - p) * s if cell & 1 else p * s for s in running]
        sums.append(running + [np.inf] * (width - 1 - len(running)))
        codes.append([code[p] for p in keys] + [-1] * (width - len(keys)))
    # copied, so that each row is contiguous; read-only, and so are the views of its rows
    bounds = _read_only(raw_thresholds(np.array(sums).T.copy()))
    controlled = _read_only(raw_thresholds(compiled.p_controlled))
    steps = [[] if scenario is Scenario.B else _retry_thresholds(p)
             for p in compiled.p_controlled.tolist()]
    thresholds = sorted({t for row in steps for t in row})
    # column j of row m: a word of message m above the first j thresholds (j = 0: none)
    attempts = [1 + bisect_right(row, t) for row in steps for t in (-1, *thresholds)]
    retries = (_read_only(np.array(thresholds, dtype=np.uint64)), _read_only(np.array(attempts)),
               _read_only(np.arange(0, len(attempts), len(thresholds) + 1)))
    cell = np.arange(len(laws), dtype=np.int8).repeat(width)
    branch = cell & 1  # BRANCHES: 0 controlled, 1 wrong
    pattern = np.array(codes, dtype=np.int16).ravel()
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
    return controlled, retries, tuple(bounds), table


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
        self._controlled, (self._retries, self._attempts, self._rows), self._bounds, self.table = (
            wiring(compiled, config.scenario, config.clone_policy, config.erase_notes))
        self._width = len(self._bounds) + 1  # an int, which keeps the rows int16

    def scenario_step(self, chunk: int, first: int) -> Trials:
        """Drive chunk `chunk`'s messages to delivery, numbering its trials from `first`."""
        messages = _chunk_messages(self.config, chunk)
        rng = trial_rng(self.config.seed, chunk)
        words = rng.bit_generator.random_raw  # what rng.random makes its doubles from
        if self.config.scenario is Scenario.B:  # one pair per message, drawn from one word
            row = np.empty(len(messages), dtype=np.int16)
            for start in range(0, len(row), BLOCK):
                block = messages[start:start + BLOCK]
                word = words(len(block))
                cells = np.left_shift(block, 1, dtype=np.int16)  # 2 * message
                cells += word > self._controlled.take(block)  # wrong branch
                self._draw(cells, word, row[start:start + BLOCK])
        else:  # retry on fresh pairs until the controlled branch
            # pass 1: each block of messages' attempts, one word each, into its trials' cells
            pieces = []
            for start in range(0, len(messages), BLOCK):
                block = messages[start:start + BLOCK]
                exceeded = self._retries.searchsorted(words(len(block)))  # thresholds below each
                attempts = self._attempts.take(exceeded + self._rows.take(block))
                controlled = np.left_shift(block, 1, dtype=np.int16)  # 2 * message
                piece = (controlled + 1).repeat(attempts)  # every attempt wrong ...
                piece[attempts.cumsum() - 1] = controlled  # ... but each message's last
                pieces.append(piece)
            cell = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            del pieces  # so that pass 2 holds one copy of the cells
            row = np.empty_like(cell)
            for start in range(0, len(cell), BLOCK):  # pass 2, after every branch is drawn
                cells = cell[start:start + BLOCK]
                self._draw(cells, words(len(cells)), row[start:start + BLOCK])
        row.flags.writeable = False
        return Trials(row, first, self.table)

    def _draw(self, cells: np.ndarray, word: np.ndarray, row: np.ndarray) -> None:
        """Each trial's row code into `row`: its cell's first row plus the outcome
        its raw word draws from the boundary rows, gathered by cell."""
        np.multiply(cells, self._width, out=row)
        # `take` gathers by the cells twice as fast as indexing does
        sample_outcome([bound.take(cells) for bound in self._bounds], word, out=row)

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


@dataclass(slots=True)
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
    and 2 held after (tracemalloc, 8 chunks, scenarios a and b alike: 4.0 and
    2.0). A session of one chunk is that chunk's trials, with no copy.
    """
    trials = Trials.concat(list(Session(config, bench).chunks()))
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
