"""Channel-capacity accounting and distribution comparison utilities.

Efficiency is defined against pairs emitted by the source and consumed by a
session: messages_delivered / pairs_consumed. Bits per pair follow as
log2(alphabet_size * efficiency). Two figures are always reported side by
side: the exact value and a coarse display-rounded reference (effective
alphabet rounded to one decimal before taking the log), since rounding
2/3 -> 0.67 -> 2.7 shifts the uniform four-message capacity from 1.4150 to
1.4330 bits and the exact number should never silently absorb that.

The analytic expectations are computed from the optics: branch probabilities
and retry costs come from the default bench's compiled encoder splits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping

from .protocol import ALPHABET, MessageSymbol, Scenario, default_bench

DENSE_CODING_BITS = math.log2(3)  # three distinguishable messages per pair
IDEAL_BITS = math.log2(4)

@dataclass(frozen=True)
class SymbolCounts:
    intended: int
    delivered: int
    repeats: int
    discarded: int
    cloned: int
    uncontrolled_fraction: float


@dataclass(frozen=True)
class RoundedReference:
    effective_alphabet: float
    bits_per_pair: float


@dataclass(frozen=True)
class CapacityReport:
    per_symbol_counts: dict[str, SymbolCounts]
    pairs_consumed: int
    messages_delivered: int
    efficiency: float
    effective_alphabet: float
    bits_per_pair: float
    bits_per_received_message: float
    uncontrolled_fraction: float
    alphabet_size: int
    rounded_reference: RoundedReference

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "CapacityReport":
        per_symbol = {
            key: SymbolCounts(**counts)
            for key, counts in data["per_symbol_counts"].items()
        }
        return cls(
            per_symbol_counts=per_symbol,
            pairs_consumed=data["pairs_consumed"],
            messages_delivered=data["messages_delivered"],
            efficiency=data["efficiency"],
            effective_alphabet=data["effective_alphabet"],
            bits_per_pair=data["bits_per_pair"],
            bits_per_received_message=data["bits_per_received_message"],
            uncontrolled_fraction=data["uncontrolled_fraction"],
            alphabet_size=data["alphabet_size"],
            rounded_reference=RoundedReference(**data["rounded_reference"]),
        )


def _rounded_reference(effective_alphabet: float) -> RoundedReference:
    rounded = round(effective_alphabet, 1)
    if rounded <= 0.0:
        rounded = effective_alphabet
    return RoundedReference(rounded, math.log2(rounded))


def capacity_from_counts(
    pairs_consumed: int,
    messages_delivered: int,
    per_symbol: dict[str, SymbolCounts] | None = None,
    alphabet_size: int = 4,
    uncontrolled_fraction: float = 0.0,
) -> CapacityReport:
    """Derive all capacity figures from raw session counts."""
    if pairs_consumed < 1:
        raise ValueError("capacity is undefined without consumed pairs")
    if not 1 <= messages_delivered <= pairs_consumed:
        raise ValueError(
            f"need 1 <= messages_delivered <= pairs_consumed, got "
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
        bits_per_received_message=math.log2(alphabet_size),
        uncontrolled_fraction=uncontrolled_fraction,
        alphabet_size=alphabet_size,
        rounded_reference=_rounded_reference(effective_alphabet),
    )


@dataclass(frozen=True)
class ExpectedSymbolShare:
    pairs_per_message: float
    delivered_share: float  # fraction of all consumed pairs that deliver this symbol
    repeat_share: float  # fraction of all consumed pairs wasted on this symbol
    uncontrolled_fraction: float  # wrong-branch probability per attempt


@dataclass(frozen=True)
class ExpectedAccounting:
    """Analytic expectations from branch probabilities, no sampling involved."""

    scenario: Scenario
    efficiency: float
    discard_fraction: float
    uncontrolled_fraction: float
    effective_alphabet: float
    bits_per_pair: float
    rounded_reference: RoundedReference
    per_symbol: dict[str, ExpectedSymbolShare]


def uniform_alphabet() -> dict[MessageSymbol, float]:
    return {symbol: 1.0 / len(ALPHABET) for symbol in ALPHABET}


def expected_accounting(
    scenario: Scenario, distribution: Mapping[MessageSymbol, float] | None = None
) -> ExpectedAccounting:
    """Exact expected capacity accounting for a message distribution.

    Each symbol's wrong-branch probability comes from the bench's encoder.
    Scenarios a and c retry a failed attempt on a fresh pair, a geometric cost
    of 1/p_controlled pairs per message; scenario b consumes exactly one pair
    per message.
    """
    dist = dict(distribution or uniform_alphabet())
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-9 or any(p < 0 for p in dist.values()):
        raise ValueError("message distribution must be a probability vector")
    retries = scenario in (Scenario.A, Scenario.C)
    per_symbol = {}
    pairs_per_delivery = 0.0
    uncontrolled_weight = 0.0
    for symbol, branches in zip(ALPHABET, default_bench().compiled.branches):
        p = dist.get(symbol, 0.0)
        wrong = branches.wrong_probability
        cost = 1.0 / branches.controlled_probability if retries else 1.0
        pairs_per_delivery += p * cost
        # expected wrong-branch attempts per message: cost-1 when retrying,
        # else the single attempt goes wrong with probability `wrong`
        uncontrolled_weight += p * ((cost - 1.0) if retries else wrong)
        per_symbol[symbol] = (p, cost, wrong)
    efficiency = 1.0 / pairs_per_delivery
    discard_fraction = (pairs_per_delivery - 1.0) / pairs_per_delivery
    attempts_per_delivery = pairs_per_delivery if retries else 1.0
    shares = {
        symbol.value: ExpectedSymbolShare(
            pairs_per_message=cost,
            delivered_share=p / pairs_per_delivery,
            repeat_share=p * (cost - 1.0) / pairs_per_delivery,
            uncontrolled_fraction=wrong,
        )
        for symbol, (p, cost, wrong) in per_symbol.items()
    }
    effective_alphabet = len(ALPHABET) * efficiency
    return ExpectedAccounting(
        scenario=scenario,
        efficiency=efficiency,
        discard_fraction=discard_fraction,
        uncontrolled_fraction=uncontrolled_weight / attempts_per_delivery,
        effective_alphabet=effective_alphabet,
        bits_per_pair=math.log2(effective_alphabet),
        rounded_reference=_rounded_reference(effective_alphabet),
        per_symbol=shares,
    )


def total_variation_distance(dist_1: Mapping, dist_2: Mapping) -> float:
    """0.5 * sum |p - q| over the union of outcomes; 0 iff identical."""
    for name, dist in (("first", dist_1), ("second", dist_2)):
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} distribution sums to {total}, not 1")
    keys = set(dist_1) | set(dist_2)
    return 0.5 * sum(abs(dist_1.get(k, 0.0) - dist_2.get(k, 0.0)) for k in keys)
