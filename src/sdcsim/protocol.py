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
one composed element. Each bench compiles its own laws once
(`OpticalBench.compiled`); no compiled model is shared between benches. The
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
from functools import cached_property, lru_cache
from itertools import accumulate

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
    """The bench's exact laws, computed once per bench by `OpticalBench.compiled`.

    `branches` holds each message's encoder split, in ALPHABET order. Column t
    of `sums` and `codes` lays out analyzer law t for sampling: its running
    sums over `patterns` codes without the last, then +inf, and its pattern
    codes in order, then -1; both are as deep as the widest law. The laws are
    first the controlled pair of each message, at its ALPHABET code, then the
    receiver's lone photon after a reject-port click, which `lone_table`
    indexes per message, and the re-emitted pair, which `resent_table`
    indexes. A click state with the exact amplitudes of a state already
    analyzed reuses that state's law. The extra last column, all +inf and -1,
    is a stopped pair: index -1, as for a message that never goes wrong.
    `decoded` maps each pattern to the message whose controlled law gives it
    the unique largest positive probability, or else to SINGLE_PHOTON or
    AMBIGUOUS.
    """

    branches: tuple[EncodeBranches, ...]
    signatures: dict[MessageSymbol, frozenset[DetectionPattern]]
    patterns: tuple[DetectionPattern, ...]  # every pattern a law yields, sorted
    outcomes: tuple[ClassifiedOutcome, ...]  # the distinct classifications
    decoded: np.ndarray  # pattern code -> `outcomes` code
    sums: np.ndarray  # float64, widest law x (laws + 1), read-only
    codes: np.ndarray  # int16, widest law x (laws + 1), read-only
    lone_table: tuple[int, ...]
    resent_table: tuple[int, ...]


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

    The registry and the elements are memoized values shared by every bench;
    what a bench owns is its `encoder` map and what it derives lazily: the
    ideal pair states, the composed analyzer element and `compiled`.
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
        self._ideal_states: dict[object, PureState] = {}

    # ---- state preparation -------------------------------------------------

    def source_emit(self) -> PureState:
        """Fresh pair from the source: psi+ on (alice, bob)."""
        return self.state_for(MessageSymbol.PSI_PLUS)

    def bob_photon(self, pol: str) -> PureState:
        return make_state(self.registry, [ModeLabel(BOB, pol)])

    def state_for(self, symbol) -> PureState:
        """Ideal pair state for a message symbol or reference state, built once."""
        state = self._ideal_states.get(symbol)
        if state is None:
            if symbol not in _TERMS:
                raise ValueError(f"unknown symbol {symbol!r}")
            reg = self.registry
            state = self._ideal_states[symbol] = superpose([
                (amp, make_state(reg, [ModeLabel(ALICE, pols[0]), ModeLabel(BOB, pols[1])]))
                for amp, pols in _TERMS[symbol]
            ])
        return state

    # ---- encoder -----------------------------------------------------------

    def encode_branches(self, message: MessageSymbol) -> EncodeBranches:
        """Exact branch split of the encoder on a fresh source pair.

        The controlled branch is the transmitted pair after post-selecting on
        a silent monitor. On a monitor click the sender's photon is absorbed
        at her reject port and the receiver's is left alone; re-emitting her
        photon in the polarization that clicked makes the resent pair.
        """
        if not isinstance(message, MessageSymbol):
            raise ValueError(f"cannot encode non-alphabet symbol {message!r}")
        routed = self.source_emit()
        for element in self.encoder[message]:
            routed = apply_element(routed, element)
        branches = branch_on_modes(routed, self.monitor_modes)
        silent = (0,) * len(self.monitor_modes)
        if silent not in branches:
            raise ProtocolError(f"encoder for {message} never transmits")
        p_controlled, controlled = branches.pop(silent)
        if p_controlled < 1.0 - 1e-12:
            ((clicks, (_, lone)),) = branches.items()
            (clicked,) = (m for m, n in zip(self.monitor_modes, clicks) if n)
            i = self.registry.index(ModeLabel(ALICE, clicked.pol))
            # her path is empty after the click, so the new photon adds no bosonic factor
            resent = PureState(self.registry, {
                occ[:i] + (occ[i] + 1,) + occ[i + 1:]: amp for occ, amp in lone.amplitudes.items()
            })
            return EncodeBranches(p_controlled, controlled, lone, resent)
        # never goes wrong: exactly 1, not the 1 within rounding the optics give
        return EncodeBranches(1.0, controlled, None, None)

    # ---- analyzer ----------------------------------------------------------

    @cached_property
    def analyzer(self) -> ModeUnitary:
        """The beam splitter then both PBSs, composed into one element."""
        return compose((self.bs, self.pbs_a, self.pbs_b))

    def analyze(self, state: PureState) -> dict[DetectionPattern, float]:
        """Exact detector statistics of the beam-splitter + PBS analyzer."""
        mode_dist = outcome_distribution(
            apply_element(state, self.analyzer), self.analyzer_detectors
        )
        return {DetectionPattern(counts): p for counts, p in mode_dist.items()}

    # ---- compiled model ----------------------------------------------------

    @cached_property
    def compiled(self) -> CompiledBench:
        """Every law the protocol samples or decodes with, computed once."""
        branches = tuple(self.encode_branches(symbol) for symbol in ALPHABET)
        laws = [self.analyze(b.controlled_state) for b in branches]
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
                laws.append(self.analyze(state))
            return analyzed[key]

        lone_table = tuple(law_of(b.lone_state) for b in branches)
        resent_table = tuple(law_of(b.resent_state) for b in branches)
        patterns = sorted(set().union(*laws))
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
        sums = np.array([*sums, [np.inf] * width]).T  # the last column: a stopped pair
        codes = np.array([*codes, [-1] * width], dtype=np.int16).T
        sums.flags.writeable = codes.flags.writeable = False
        classified = [_likeliest(controlled, p) for p in patterns]
        outcomes = tuple(dict.fromkeys(classified))
        decoded = np.array([outcomes.index(c) for c in classified], dtype=np.int8)
        return CompiledBench(branches, signatures, tuple(patterns), outcomes, decoded, sums,
                             codes, lone_table, resent_table)

    def signature_table(self) -> dict[MessageSymbol, frozenset[DetectionPattern]]:
        """Detector signatures per message, computed from the optics."""
        return self.compiled.signatures

    def classify(self, pattern: DetectionPattern) -> ClassifiedOutcome:
        """Decode one detector pattern by the compiled `decoded` table."""
        compiled = self.compiled
        i = bisect_left(compiled.patterns, pattern)
        if i < len(compiled.patterns) and compiled.patterns[i] == pattern:
            return compiled.outcomes[compiled.decoded[i]]
        return _likeliest([], pattern)  # a pattern no law produces


@lru_cache(maxsize=1)
def default_bench() -> OpticalBench:
    """Shared bench instance; the layout is immutable so reuse is safe."""
    return OpticalBench()
