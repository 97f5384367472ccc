"""Superdense coding over the mixed message basis.

The four-letter alphabet is two Bell states plus the two parallel-polarized
product states: {psi+, psi-, HH, VV}. The sender encodes by manipulating only
her photon of a shared psi+ pair; the receiver's analyzer is a 50/50 beam
splitter followed by a polarizing beam splitter on each output side, read out
with photon-number-resolving detectors. That analyzer separates all four
alphabet states unambiguously, while the unused Bell pair phi+/phi- stays
indistinguishable (the linear-optics limitation the alphabet routes around).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .elements import beam_splitter, hwp, pbs, polarizer_monitor
from .fock import (
    ModeLabel,
    ModeRegistry,
    PureState,
    apply_element,
    branch_on_modes,
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
DETECTOR_NAMES = ("aH", "aV", "bH", "bV", "d")


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

_COMPLEMENT = {MessageSymbol.HH: MessageSymbol.VV, MessageSymbol.VV: MessageSymbol.HH}


class EncoderAction(Enum):
    """What the sender puts in her photon's path, one action per message."""

    NOTHING = "nothing"
    HWP0 = "hwp0"
    HWP45_POL_PASS_H = "hwp45+pol_pass_h"
    HWP45_POL_PASS_V = "hwp45+pol_pass_v"


ACTION_FOR = {
    MessageSymbol.PSI_PLUS: EncoderAction.NOTHING,
    MessageSymbol.PSI_MINUS: EncoderAction.HWP0,
    MessageSymbol.HH: EncoderAction.HWP45_POL_PASS_H,
    MessageSymbol.VV: EncoderAction.HWP45_POL_PASS_V,
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
    """Internal consistency failure, e.g. overlapping decoder signatures."""


@dataclass(frozen=True, order=True)
class DetectionPattern:
    """Photon counts on the named detectors (aH, aV, bH, bV, d)."""

    counts: tuple[int, int, int, int, int]

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
        """Canonical form 'aH:n,aV:n,bH:n,bV:n,d:n' with zero entries omitted."""
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
    """Exact encoder outcome split: pair states and probabilities per branch."""

    controlled_probability: float
    controlled_state: PureState
    wrong_symbol: MessageSymbol | None  # complementary message, None if p=0
    wrong_state: PureState | None

    @property
    def wrong_probability(self) -> float:
        return 1.0 - self.controlled_probability


class OpticalBench:
    """Mode registry plus the fixed element layout of the whole experiment.

    Paths: the pair lives on (alice, bob); the encoder's polarizer reject port
    goes to (monitor); the analyzer PBSs reflect V onto (analyzer_out_a/b).
    Detector map: aH/bH are the transmitted H ports, aV/bV the reflected V
    ports, d is the sender's monitor detector.
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
        self._signature_table: dict[MessageSymbol, frozenset[DetectionPattern]] | None = None

    # ---- state preparation -------------------------------------------------

    def source_emit(self) -> PureState:
        """Fresh pair from the source: psi+ on (alice, bob)."""
        reg = self.registry
        hv = make_state(reg, [ModeLabel(ALICE, "H"), ModeLabel(BOB, "V")])
        vh = make_state(reg, [ModeLabel(ALICE, "V"), ModeLabel(BOB, "H")])
        inv = 1.0 / math.sqrt(2.0)
        return superpose([(inv, hv), (inv, vh)])

    def product_pair(self, pol: str) -> PureState:
        return make_state(
            self.registry, [ModeLabel(ALICE, pol), ModeLabel(BOB, pol)]
        )

    def bob_photon(self, pol: str) -> PureState:
        return make_state(self.registry, [ModeLabel(BOB, pol)])

    def _complement_pair(self, message: MessageSymbol) -> PureState:
        return self.product_pair("H" if _COMPLEMENT[message] is MessageSymbol.HH else "V")

    def state_for(self, symbol) -> PureState:
        """Ideal pair state for a message symbol or reference state."""
        inv = 1.0 / math.sqrt(2.0)
        if symbol is MessageSymbol.PSI_PLUS:
            return self.source_emit()
        if symbol is MessageSymbol.PSI_MINUS:
            reg = self.registry
            hv = make_state(reg, [ModeLabel(ALICE, "H"), ModeLabel(BOB, "V")])
            vh = make_state(reg, [ModeLabel(ALICE, "V"), ModeLabel(BOB, "H")])
            return superpose([(inv, hv), (-inv, vh)])
        if symbol is MessageSymbol.HH:
            return self.product_pair("H")
        if symbol is MessageSymbol.VV:
            return self.product_pair("V")
        if symbol is ReferenceState.PHI_PLUS:
            return superpose([(inv, self.product_pair("H")), (inv, self.product_pair("V"))])
        if symbol is ReferenceState.PHI_MINUS:
            return superpose([(inv, self.product_pair("H")), (-inv, self.product_pair("V"))])
        raise ValueError(f"unknown symbol {symbol!r}")

    # ---- encoder -----------------------------------------------------------

    def _routed_state(self, message: MessageSymbol) -> PureState:
        state = self.source_emit()
        action = ACTION_FOR[message]
        if action is EncoderAction.NOTHING:
            return state
        if action is EncoderAction.HWP0:
            return apply_element(state, self.hwp0)
        swapped = apply_element(state, self.hwp45)
        pol = (
            self.pol_pass_h
            if action is EncoderAction.HWP45_POL_PASS_H
            else self.pol_pass_v
        )
        return apply_element(swapped, pol)

    def encode_branches(self, message: MessageSymbol) -> EncodeBranches:
        """Exact branch split of the encoder on a fresh source pair.

        The controlled branch is the transmitted pair after post-selecting on
        a silent monitor. On a monitor click the sender's photon is detected
        at her reject port and the pair is left in the complementary product
        state, which is what the wrong branch carries.
        """
        if not isinstance(message, MessageSymbol):
            raise ValueError(f"cannot encode non-alphabet symbol {message!r}")
        routed = self._routed_state(message)
        branches = branch_on_modes(routed, self.monitor_modes)
        silent = tuple([0] * len(self.monitor_modes))
        p_controlled = 0.0
        controlled = None
        p_wrong = 0.0
        for counts, (prob, post) in branches.items():
            if counts == silent:
                p_controlled, controlled = prob, post
            else:
                p_wrong += prob
        if controlled is None:
            raise ProtocolError(f"encoder for {message} never transmits")
        if p_wrong > 1e-12:
            return EncodeBranches(
                p_controlled, controlled, _COMPLEMENT[message], self._complement_pair(message)
            )
        return EncodeBranches(p_controlled, controlled, None, None)

    # ---- analyzer ----------------------------------------------------------

    def analyze(self, state: PureState) -> dict[DetectionPattern, float]:
        """Exact detector statistics of the beam-splitter + PBS analyzer."""
        out = apply_element(state, self.bs)
        out = apply_element(out, self.pbs_a)
        out = apply_element(out, self.pbs_b)
        mode_dist = outcome_distribution(out, self.analyzer_detectors)
        return {
            DetectionPattern((ah, av, bh, bv, 0)): p
            for (ah, av, bh, bv), p in mode_dist.items()
        }

    def signature_table(self) -> dict[MessageSymbol, frozenset[DetectionPattern]]:
        """Detector signatures per message, computed from the optics.

        The four support sets must come out pairwise disjoint; anything else
        is an internal inconsistency and raises.
        """
        if self._signature_table is None:
            table = {}
            for symbol in ALPHABET:
                branches = self.encode_branches(symbol)
                support = frozenset(self.analyze(branches.controlled_state))
                table[symbol] = support
            for i, a in enumerate(ALPHABET):
                for b in ALPHABET[i + 1 :]:
                    overlap = table[a] & table[b]
                    if overlap:
                        raise ProtocolError(
                            f"signatures of {a.value} and {b.value} overlap: "
                            f"{sorted(str(p) for p in overlap)}"
                        )
            self._signature_table = table
        return self._signature_table

    def classify(self, pattern: DetectionPattern) -> ClassifiedOutcome:
        """Decode one detector pattern against the computed signature table."""
        for symbol, support in self.signature_table().items():
            if pattern in support:
                return ClassifiedOutcome.decoded(symbol)
        if pattern.total == 1:
            return ClassifiedOutcome(Verdict.SINGLE_PHOTON)
        return ClassifiedOutcome(Verdict.AMBIGUOUS)


@lru_cache(maxsize=1)
def default_bench() -> OpticalBench:
    """Shared bench instance; the layout is immutable so reuse is safe."""
    return OpticalBench()
