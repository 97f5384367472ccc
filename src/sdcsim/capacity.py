"""Channel-capacity accounting and distribution comparison utilities.

A capacity report counts the pairs the source emitted into a session and the
messages they delivered, in total and per message symbol. Efficiency is
messages_delivered / pairs_consumed. Bits per pair follow as
log2(4 * efficiency), the log of the effective alphabet (an alphabet of 3 in
place of 4 gives dense coding's reference). Two figures are always reported
side by side: the exact value and a coarse display-rounded reference (effective
alphabet rounded to one decimal before taking the log), since rounding
2/3 -> 0.67 -> 2.7 shifts the uniform four-message capacity from 1.4150 to
1.4330 bits and the exact number should never silently absorb that.

`capacity_from_counts` is the one derivation of these figures from counts. A
session's report holds its sampled counts; `expected_accounting` holds the
counts one delivered message costs in expectation, computed from a bench's
compiled encoder splits, so the two reports pair up field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .protocol import ALPHABET, MessageSymbol, OpticalBench, Scenario, default_bench

DENSE_CODING_BITS = math.log2(3)  # three distinguishable messages per pair
IDEAL_BITS = math.log2(4)

@dataclass(frozen=True)
class SymbolCounts:
    """One symbol's counts: integers in a session's report, expected shares of
    one delivered message in `expected_accounting`'s."""

    delivered: float
    repeats: float  # pairs that delivered nothing: discarded (a) or stopped (c)
    cloned: float
    uncontrolled_fraction: float


@dataclass(frozen=True)
class RoundedReference:
    effective_alphabet: float
    bits_per_pair: float


@dataclass(frozen=True)
class CapacityReport:
    """A session's counts, or their expectation per delivered message
    (`expected_accounting`), with the figures `capacity_from_counts` derives."""

    per_symbol_counts: dict[str, SymbolCounts]
    pairs_consumed: float
    messages_delivered: float
    efficiency: float
    effective_alphabet: float
    bits_per_pair: float
    uncontrolled_fraction: float
    rounded_reference: RoundedReference

    @property
    def discard_fraction(self) -> float:
        """The share of pairs that delivered no message: discarded attempts (a),
        stopped pairs (c), none in b. Not a field, so `to_dict` leaves it out."""
        return (self.pairs_consumed - self.messages_delivered) / self.pairs_consumed

    def to_dict(self) -> dict:
        """The report as nested dicts of its fields, as `dataclasses.asdict` gives
        it, built without its recursive deep copy: every leaf is a str or number."""
        fields = dict(vars(self))
        fields["per_symbol_counts"] = {
            name: dict(vars(counts)) for name, counts in self.per_symbol_counts.items()
        }
        fields["rounded_reference"] = dict(vars(self.rounded_reference))
        return fields


def _rounded_reference(effective_alphabet: float) -> RoundedReference:
    rounded = round(effective_alphabet, 1)
    if rounded <= 0.0:
        rounded = effective_alphabet
    return RoundedReference(rounded, math.log2(rounded))


def capacity_from_counts(
    pairs_consumed: float,
    messages_delivered: float,
    per_symbol: dict[str, SymbolCounts] | None = None,
    alphabet_size: int = 4,
    uncontrolled_fraction: float = 0.0,
) -> CapacityReport:
    """Derive all capacity figures from session counts, sampled or expected."""
    if not pairs_consumed > 0:
        raise ValueError("capacity is undefined without consumed pairs")
    if not 0 < messages_delivered <= pairs_consumed:
        raise ValueError(
            f"need 0 < messages_delivered <= pairs_consumed, got "
            f"{messages_delivered}/{pairs_consumed}"
        )
    efficiency = messages_delivered / pairs_consumed
    effective_alphabet = alphabet_size * efficiency
    return CapacityReport(
        per_symbol_counts=dict(per_symbol or {}),
        pairs_consumed=pairs_consumed,
        messages_delivered=messages_delivered,
        efficiency=efficiency,
        effective_alphabet=effective_alphabet,
        bits_per_pair=math.log2(effective_alphabet),
        uncontrolled_fraction=uncontrolled_fraction,
        rounded_reference=_rounded_reference(effective_alphabet),
    )


def uniform_alphabet() -> dict[MessageSymbol, float]:
    return {symbol: 1.0 / len(ALPHABET) for symbol in ALPHABET}


def expected_accounting(
    scenario: Scenario,
    distribution: Mapping[MessageSymbol, float] | None = None,
    bench: OpticalBench | None = None,
) -> CapacityReport:
    """The capacity report a session gives in expectation, per delivered message.

    Each symbol's wrong-branch probability comes from the encoder of `bench`
    (the default bench if None). A symbol of weight p delivers p messages.
    Scenarios a and c retry a failed attempt on a fresh pair, a geometric cost
    of 1/p_controlled pairs per message, whose extra pairs are its repeats;
    scenario b consumes exactly one pair per message, and its wrong-branch
    pairs are cloned. Each symbol's uncontrolled fraction is its wrong-branch
    probability per attempt, and 0.0 for a symbol of weight 0, which has no
    pairs, as a session's report gives a symbol it never sent.
    """
    dist = dict(distribution or uniform_alphabet())
    stranger = next((key for key in dist if key not in ALPHABET), None)
    if stranger is not None:
        raise ValueError(f"{stranger!r} is not a message of the alphabet")
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-9 or any(p < 0 for p in dist.values()):
        raise ValueError("message distribution must be a probability vector")
    retries = scenario in (Scenario.A, Scenario.C)
    per_symbol = {}
    pairs = delivered = 0.0
    for symbol, branches in zip(ALPHABET, (bench or default_bench()).compiled.branches):
        p = dist.get(symbol, 0.0)
        wrong = branches.wrong_probability
        cost = 1.0 / branches.controlled_probability if retries else 1.0
        per_symbol[symbol.value] = SymbolCounts(
            delivered=p,
            repeats=p * (cost - 1.0),
            cloned=0.0 if retries else p * wrong,
            uncontrolled_fraction=wrong if p else 0.0,
        )
        pairs += p * cost
        delivered += p
    uncontrolled = sum(c.repeats + c.cloned for c in per_symbol.values())
    return capacity_from_counts(
        pairs, delivered, per_symbol, uncontrolled_fraction=uncontrolled / pairs
    )


def total_variation_distance(dist_1: Mapping, dist_2: Mapping) -> float:
    """0.5 * sum |p - q| over the union of outcomes; 0 iff identical."""
    for name, dist in (("first", dist_1), ("second", dist_2)):
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} distribution sums to {total}, not 1")
    keys = set(dist_1) | set(dist_2)
    return 0.5 * sum(abs(dist_1.get(k, 0.0) - dist_2.get(k, 0.0)) for k in keys)
