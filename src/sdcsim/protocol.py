"""Superdense coding over the mixed message basis.

The four-letter alphabet is two Bell states plus the two parallel-polarized
product states: {psi+, psi-, HH, VV}. The sender encodes by manipulating only
her photon of a shared psi+ pair; the receiver's analyzer is a 50/50 beam
splitter followed by a polarizing beam splitter on each output side, read out
with photon-number-resolving detectors. That analyzer separates all four
alphabet states unambiguously, while the unused Bell pair phi+/phi- stays
indistinguishable (the linear-optics limitation the alphabet routes around).

A bench takes its registry and elements from memoized constructors, so they
are shared values; the analyzer applies the beam splitter and both PBSs as
one composed element. Compiling is a memoized pure function of those values
(`compile_optics`), so benches with equal optics share one read-only
`CompiledBench` and a process compiles each distinct optics once. The
compiled laws decode: a pattern reads as its likeliest message, and `verify`
checks that the ideal bench's signatures are disjoint, so none is misread.

Every law a reject-port click leads to comes from the encoder's own click
branch: the receiver's lone photon, and the pair the sender makes by
re-emitting a photon of the polarization her monitor detected
(`EncodeBranches.lone_state`, `.resent_state`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .elements import beam_splitter, hwp, pbs, polarizer_monitor
from .fock import (
    ModeLabel,
    ModeRegistry,
    ModeUnitary,
    PureState,
    apply_element,
    branch_on_modes,
    compose,
    make_state,
    outcome_distribution,
    superpose,
)

ALICE = "alice"
BOB = "bob"
MONITOR = "monitor"
REFLECT_A = "analyzer_out_a"
REFLECT_B = "analyzer_out_b"

# Fixed detector order; also the canonical key order in serialized patterns.
DETECTOR_NAMES = ("aH", "aV", "bH", "bV")


class MessageSymbol(Enum):
    """The four encodable messages, named by the state that carries them."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    HH = "hh"
    VV = "vv"


class ReferenceState(Enum):
    """Analyzer check states; never encodable."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


ALPHABET = (
    MessageSymbol.PSI_PLUS,
    MessageSymbol.PSI_MINUS,
    MessageSymbol.HH,
    MessageSymbol.VV,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# each ideal pair state as terms (amplitude, alice's and bob's polarization)
_TERMS = {
    MessageSymbol.PSI_PLUS: ((_INV_SQRT2, "HV"), (_INV_SQRT2, "VH")),
    MessageSymbol.PSI_MINUS: ((_INV_SQRT2, "HV"), (-_INV_SQRT2, "VH")),
    MessageSymbol.HH: ((1.0, "HH"),),
    MessageSymbol.VV: ((1.0, "VV"),),
    ReferenceState.PHI_PLUS: ((_INV_SQRT2, "HH"), (_INV_SQRT2, "VV")),
    ReferenceState.PHI_MINUS: ((_INV_SQRT2, "HH"), (-_INV_SQRT2, "VV")),
}


class Branch(Enum):
    """Whether the encoder's reject-port detector stayed silent."""

    CONTROLLED = "controlled"
    WRONG = "wrong"


class Scenario(Enum):
    """Operating mode on a wrong branch: discard (a), use every pair (b), stop both photons (c)."""

    A = "a"
    B = "b"
    C = "c"


class Owner(Enum):
    """Who holds the photon-pair source; bookkeeping only, the optics are identical."""

    BOB = "bob"
    ANNA = "anna"
    ALICE = "alice"


ALLOWED_OWNERS = {
    Scenario.A: (Owner.BOB, Owner.ANNA),
    Scenario.B: (Owner.ANNA, Owner.BOB),
    Scenario.C: (Owner.ALICE,),
}


class ClonePolicy(Enum):
    """Scenario b: what polarization the re-emitted photon carries on a wrong branch."""

    CLONE_INTENDED = "clone-intended"
    SEND_AS_IS = "send-as-is"


class ProtocolError(RuntimeError):
    """An encoder that never transmits: its monitor always clicks."""


@dataclass(frozen=True, order=True)
class DetectionPattern:
    """Photon counts on the named detectors (aH, aV, bH, bV)."""

    counts: tuple[int, int, int, int]

    @classmethod
    def of(cls, **named: int) -> "DetectionPattern":
        unknown = set(named) - set(DETECTOR_NAMES)
        if unknown:
            raise ValueError(f"unknown detector(s): {sorted(unknown)}")
        return cls(tuple(named.get(name, 0) for name in DETECTOR_NAMES))

    def count(self, name: str) -> int:
        return self.counts[DETECTOR_NAMES.index(name)]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_string(self) -> str:
        """Canonical form 'aH:n,aV:n,bH:n,bV:n' with zero entries omitted."""
        return ",".join(
            f"{name}:{n}" for name, n in zip(DETECTOR_NAMES, self.counts) if n
        )

    def __str__(self):
        return self.to_string() or "none"


class Verdict(Enum):
    DECODED = "decoded"
    SINGLE_PHOTON = "single_photon"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class ClassifiedOutcome:
    verdict: Verdict
    symbol: MessageSymbol | None = None

    @classmethod
    def decoded(cls, symbol: MessageSymbol) -> "ClassifiedOutcome":
        return cls(Verdict.DECODED, symbol)

    @property
    def label(self) -> str:
        if self.verdict is Verdict.DECODED:
            return self.symbol.value
        return self.verdict.value


@dataclass(frozen=True)
class EncodeBranches:
    """Exact encoder outcome split: the pair on a silent monitor and, on a click,
    the receiver's lone photon and the pair the sender makes by re-emitting the
    polarization her monitor detected (both None for a message that never goes
    wrong)."""

    controlled_probability: float
    controlled_state: PureState
    lone_state: PureState | None
    resent_state: PureState | None

    @property
    def wrong_probability(self) -> float:
        return 1.0 - self.controlled_probability


@dataclass(frozen=True, eq=False)
class CompiledBench:
    """The exact laws of one optics, computed once per process by `compile_optics`.

    Benches with equal optics share this object, so nothing in it can be
    written: its containers are tuples and a mapping proxy, its arrays are
    read-only. `branches` holds each message's encoder split, in ALPHABET
    order, and `p_controlled` its controlled probability. Column t of `sums`
    and `codes` lays out analyzer law t for sampling: its running sums over
    `patterns` codes without the last, which are the boundaries
    `fock.sample_outcome` counts, then +inf, and its pattern codes in order,
    then -1; both are as deep as the widest law, so the last row of `sums`
    is +inf in every column and a session's wiring leaves it out. The laws are first
    the controlled pair of each message, at its ALPHABET code, then the
    receiver's lone photon after a reject-port click, which `lone_table`
    indexes per message, and the re-emitted pair, which `resent_table`
    indexes. A click state with the exact amplitudes of a state already
    analyzed reuses that state's law. The extra last column, all +inf and -1,
    is a stopped pair: index -1, as for a message that never goes wrong.
    `decoded` maps each pattern to the message whose controlled law gives it
    the unique largest positive probability, or else to SINGLE_PHOTON or
    AMBIGUOUS. The `*_or_none` fields repeat `patterns`, `outcomes` and
    `decoded` with a trailing None (-1), so that code -1 looks up none.
    """

    branches: tuple[EncodeBranches, ...]
    p_controlled: np.ndarray  # float64, per message, read-only
    signatures: Mapping[MessageSymbol, frozenset[DetectionPattern]]
    patterns: tuple[DetectionPattern, ...]  # every pattern a law yields, sorted
    outcomes: tuple[ClassifiedOutcome, ...]  # the distinct classifications
    decoded: np.ndarray  # int8, pattern code -> `outcomes` code, read-only
    sums: np.ndarray  # float64, widest law x (laws + 1), read-only
    codes: np.ndarray  # int16, widest law x (laws + 1), read-only
    lone_table: tuple[int, ...]
    resent_table: tuple[int, ...]
    patterns_or_none: tuple[DetectionPattern | None, ...]
    outcomes_or_none: tuple[ClassifiedOutcome | None, ...]
    decoded_or_none: np.ndarray  # int8, read-only


def _likeliest(laws: list[dict], pattern: DetectionPattern) -> ClassifiedOutcome:
    """The message whose controlled law (in ALPHABET order) gives `pattern` the
    unique largest positive probability, else SINGLE_PHOTON or AMBIGUOUS."""
    probs = [law.get(pattern, 0.0) for law in laws]
    best = max(probs, default=0.0)
    if best > 0.0 and probs.count(best) == 1:
        return ClassifiedOutcome.decoded(ALPHABET[probs.index(best)])
    return ClassifiedOutcome(Verdict.SINGLE_PHOTON if pattern.total == 1 else Verdict.AMBIGUOUS)


class OpticalBench:
    """Mode registry plus the fixed element layout of the whole experiment.

    Paths: the pair lives on (alice, bob); the encoder's polarizer reject port
    goes to (monitor); the analyzer PBSs reflect V onto (analyzer_out_a/b).
    Detector map: aH/bH are the transmitted H ports, aV/bV the reflected V
    ports; the sender's monitor is read by `encode_branches`, not the analyzer.

    The registry, the elements, the ideal pair states and the compiled model
    are memoized values shared by every bench with the same optics. What a
    bench owns is its `encoder` map, its element attributes, the `analyzer`
    composed from them as they are now, and the handle `compiled`; perturb a
    bench through those values, never by patching one of its methods, which
    compiling does not call.
    """

    def __init__(self):
        self.registry = ModeRegistry.for_paths(
            (ALICE, BOB, REFLECT_A, REFLECT_B, MONITOR)
        )
        reg = self.registry
        self.bs = beam_splitter(reg, ALICE, BOB)
        self.pbs_a = pbs(reg, ALICE, REFLECT_A)
        self.pbs_b = pbs(reg, BOB, REFLECT_B)
        self.hwp0 = hwp(reg, 0.0, ALICE)
        self.hwp45 = hwp(reg, 45.0, ALICE)
        self.pol_pass_h = polarizer_monitor(reg, ALICE, "H", MONITOR)
        self.pol_pass_v = polarizer_monitor(reg, ALICE, "V", MONITOR)
        self.monitor_modes = reg.modes_on_path(MONITOR)
        self.analyzer_detectors = (
            ModeLabel(ALICE, "H"),
            ModeLabel(REFLECT_A, "V"),
            ModeLabel(BOB, "H"),
            ModeLabel(REFLECT_B, "V"),
        )
        # what the sender puts in her photon's path, per message
        self.encoder = {
            MessageSymbol.PSI_PLUS: (),
            MessageSymbol.PSI_MINUS: (self.hwp0,),
            MessageSymbol.HH: (self.hwp45, self.pol_pass_h),
            MessageSymbol.VV: (self.hwp45, self.pol_pass_v),
        }

    # ---- state preparation -------------------------------------------------

    def source_emit(self) -> PureState:
        """Fresh pair from the source: psi+ on (alice, bob)."""
        return self.state_for(MessageSymbol.PSI_PLUS)

    def state_for(self, symbol) -> PureState:
        """Ideal pair state for a message symbol or reference state."""
        if symbol not in _TERMS:
            raise ValueError(f"unknown symbol {symbol!r}")
        return _ideal_state(self.registry, symbol)

    # ---- encoder -----------------------------------------------------------

    def encode_branches(self, message: MessageSymbol) -> EncodeBranches:
        """Exact branch split of this bench's encoder for `message` (see `_encode_branches`)."""
        if not isinstance(message, MessageSymbol):
            raise ValueError(f"cannot encode non-alphabet symbol {message!r}")
        return _encode_branches(self.registry, message, tuple(self.encoder[message]),
                                self.monitor_modes)

    # ---- analyzer ----------------------------------------------------------

    @property
    def analyzer(self) -> ModeUnitary:
        """The beam splitter then both PBSs as they are now, composed into one
        element (memoized by `compose`, so equal elements compose once)."""
        return compose((self.bs, self.pbs_a, self.pbs_b))

    def analyze(self, state: PureState) -> dict[DetectionPattern, float]:
        """Exact detector statistics of the beam-splitter + PBS analyzer."""
        return _analyze(state, self.analyzer, self.analyzer_detectors)

    # ---- compiled model ----------------------------------------------------

    @property
    def compiled(self) -> CompiledBench:
        """Every law the protocol samples or decodes with, looked up by this
        bench's optics as they are now, so a changed `encoder` takes effect."""
        return compile_optics(
            self.registry,
            tuple(tuple(self.encoder[symbol]) for symbol in ALPHABET),
            self.analyzer,
            self.analyzer_detectors,
            self.monitor_modes,
        )

    def signature_table(self) -> Mapping[MessageSymbol, frozenset[DetectionPattern]]:
        """Detector signatures per message, computed from the optics (read-only)."""
        return self.compiled.signatures

    def classify(self, pattern: DetectionPattern) -> ClassifiedOutcome:
        """Decode one detector pattern by the compiled `decoded` table."""
        compiled = self.compiled
        i = bisect_left(compiled.patterns, pattern)
        if i < len(compiled.patterns) and compiled.patterns[i] == pattern:
            return compiled.outcomes[compiled.decoded[i]]
        return _likeliest([], pattern)  # a pattern no law produces


@lru_cache(maxsize=64)
def _ideal_state(registry: ModeRegistry, symbol) -> PureState:
    return superpose([
        (amp, make_state(registry, [ModeLabel(ALICE, pols[0]), ModeLabel(BOB, pols[1])]))
        for amp, pols in _TERMS[symbol]
    ])


def _encode_branches(registry: ModeRegistry, message: MessageSymbol,
                     elements: tuple[ModeUnitary, ...],
                     monitor_modes: tuple[ModeLabel, ...]) -> EncodeBranches:
    """Exact branch split of the encoder `elements` on a fresh source pair.

    The controlled branch is the transmitted pair after post-selecting on
    a silent monitor. On a monitor click the sender's photon is absorbed
    at her reject port and the receiver's is left alone; re-emitting her
    photon in the polarization that clicked makes the resent pair.
    """
    routed = _ideal_state(registry, MessageSymbol.PSI_PLUS)
    for element in elements:
        routed = apply_element(routed, element)
    branches = branch_on_modes(routed, monitor_modes)
    silent = (0,) * len(monitor_modes)
    if silent not in branches:
        raise ProtocolError(f"encoder for {message} never transmits")
    p_controlled, controlled = branches.pop(silent)
    if p_controlled < 1.0 - 1e-12:
        ((clicks, (_, lone)),) = branches.items()
        (clicked,) = (m for m, n in zip(monitor_modes, clicks) if n)
        i = registry.index(ModeLabel(ALICE, clicked.pol))
        # her path is empty after the click, so the new photon adds no bosonic factor
        resent = PureState(registry, {
            occ[:i] + (occ[i] + 1,) + occ[i + 1:]: amp for occ, amp in lone.amplitudes.items()
        })
        return EncodeBranches(p_controlled, controlled, lone, resent)
    # never goes wrong: exactly 1, not the 1 within rounding the optics give
    return EncodeBranches(1.0, controlled, None, None)


def _analyze(state: PureState, analyzer: ModeUnitary,
             detectors: tuple[ModeLabel, ...]) -> dict[DetectionPattern, float]:
    mode_dist = outcome_distribution(apply_element(state, analyzer), detectors)
    return {DetectionPattern(counts): p for counts, p in mode_dist.items()}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def compile_optics(
    registry: ModeRegistry,
    encoders: tuple[tuple[ModeUnitary, ...], ...],
    analyzer: ModeUnitary,
    analyzer_detectors: tuple[ModeLabel, ...],
    monitor_modes: tuple[ModeLabel, ...],
) -> CompiledBench:
    """The compiled model of one optics: `encoders` holds each message's
    encoder elements, in ALPHABET order.

    A pure function of its arguments, memoized: equal optics compile once per
    process and share one `CompiledBench`. Elements hash by identity and the
    memo's keys keep them alive, so one key never names two elements.
    """
    branches = tuple(_encode_branches(registry, symbol, elements, monitor_modes)
                     for symbol, elements in zip(ALPHABET, encoders))
    laws = [_analyze(b.controlled_state, analyzer, analyzer_detectors) for b in branches]
    signatures = {symbol: frozenset(law) for symbol, law in zip(ALPHABET, laws)}
    controlled = laws[:]
    # a click state reuses the law of an analyzed state with its exact amplitudes
    analyzed = {frozenset(b.controlled_state.amplitudes.items()): code
                for code, b in enumerate(branches)}

    def law_of(state: PureState | None) -> int:
        if state is None:
            return -1
        key = frozenset(state.amplitudes.items())
        if key not in analyzed:
            analyzed[key] = len(laws)
            laws.append(_analyze(state, analyzer, analyzer_detectors))
        return analyzed[key]

    lone_table = tuple(law_of(b.lone_state) for b in branches)
    resent_table = tuple(law_of(b.resent_state) for b in branches)
    patterns = tuple(sorted(set().union(*laws)))
    code = {p: i for i, p in enumerate(patterns)}  # sorted, so each law keeps its order
    width = max(map(len, laws))
    sums, codes = [], []
    for t, law in enumerate(laws):
        keys = sorted(law)
        running = list(accumulate(law[p] for p in keys))
        total = running[-1] if keys else 0.0
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"law {t} sums to {total}, not 1")
        sums.append(running[:-1] + [np.inf] * (width - len(keys) + 1))
        codes.append([code[p] for p in keys] + [-1] * (width - len(keys)))
    classified = [_likeliest(controlled, p) for p in patterns]
    outcomes = tuple(dict.fromkeys(classified))
    decoded = [outcomes.index(c) for c in classified]
    return CompiledBench(
        branches=branches,
        p_controlled=_read_only(np.array([b.controlled_probability for b in branches])),
        signatures=MappingProxyType(signatures),
        patterns=patterns,
        outcomes=outcomes,
        decoded=_read_only(np.array(decoded, dtype=np.int8)),
        # the last column: a stopped pair; a view of a read-only array is read-only
        sums=_read_only(np.array([*sums, [np.inf] * width])).T,
        codes=_read_only(np.array([*codes, [-1] * width], dtype=np.int16)).T,
        lone_table=lone_table,
        resent_table=resent_table,
        patterns_or_none=(*patterns, None),
        outcomes_or_none=(*outcomes, None),
        decoded_or_none=_read_only(np.array([*decoded, -1], dtype=np.int8)),
    )


@lru_cache(maxsize=1)
def default_bench() -> OpticalBench:
    """Shared bench instance; the layout is immutable so reuse is safe."""
    return OpticalBench()
