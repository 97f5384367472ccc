"""Channel-capacity accounting and distribution comparison utilities.

A capacity report is its per-symbol counts: each message symbol's delivered
messages, repeats (pairs that delivered nothing) and cloned pairs.
`capacity_from_counts` derives every other figure from them, so a session's
report (sampled counts) and `expected_accounting`'s (the counts one delivered
message costs in expectation, from a bench's compiled encoder splits) pair up
field by field. Efficiency is messages_delivered / pairs_consumed. Bits per
pair follow as log2(alphabet * efficiency), the log of the effective alphabet,
the alphabet being the symbols counted (three symbols delivered on every pair
give dense coding's log2 3 reference). Two figures are always reported side by
side: the exact value and a coarse display-rounded reference (effective
alphabet rounded to one decimal before taking the log), since rounding
2/3 -> 0.67 -> 2.7 shifts the uniform four-message capacity from 1.4150 to
1.4330 bits and the exact number should never silently absorb that.

The records are slotted dataclasses, not frozen ones. A frozen dataclass's
`__init__` sets each field through `object.__setattr__`, which made building
a report's six records most of what a short session's report cost. Freezing
bought little: it was shallow (`per_symbol_counts` is a plain dict), and no
report is cached, shared between calls or hashed. `dataclasses.replace` and
`dataclasses.asdict` take them as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .protocol import ALPHABET, MessageSymbol, OpticalBench, Scenario, default_bench

DENSE_CODING_BITS = math.log2(3)  # three distinguishable messages per pair
IDEAL_BITS = math.log2(4)

@dataclass(slots=True)
class SymbolCounts:
    """One symbol's counts: integers in a session's report, expected shares of
    one delivered message in `expected_accounting`'s."""

    delivered: float
    repeats: float  # pairs that delivered nothing: discarded (a) or stopped (c)
    cloned: float
    uncontrolled_fraction: float


@dataclass(slots=True)
class RoundedReference:
    effective_alphabet: float
    bits_per_pair: float


@dataclass(slots=True)
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
        """The share of pairs that delivered no message, the repeats: discarded
        attempts (a), stopped pairs (c), none in b. In a and c every wrong-branch
        pair is a repeat, so it is the uncontrolled fraction there, to the bit.
        Not a field, so `to_dict` leaves it out."""
        return sum(c.repeats for c in self.per_symbol_counts.values()) / self.pairs_consumed

    def to_dict(self) -> dict:
        """The report as nested dicts of its fields, as `dataclasses.asdict` gives
        it, built without its recursive deep copy: every leaf is a str or number."""
        fields = _fields(self)
        fields["per_symbol_counts"] = {
            name: _fields(counts) for name, counts in self.per_symbol_counts.items()
        }
        fields["rounded_reference"] = _fields(self.rounded_reference)
        return fields


def _fields(record) -> dict:
    """A slotted record's fields by name, in field order: it has no `vars()`, and
    its `__slots__` are its field names."""
    return {name: getattr(record, name) for name in record.__slots__}


def capacity_from_counts(per_symbol: Mapping[str, tuple[float, float, float]]) -> CapacityReport:
    """Every capacity figure from each symbol's (delivered, repeats, cloned) counts.

    A symbol's pairs are delivered + repeats, and its uncontrolled fraction is
    (repeats + cloned) over them, 0.0 without pairs. The totals are sums from
    int 0, so integer counts give integer totals.
    """
    counts = {}
    pairs = delivered_total = uncontrolled = 0
    for name, (delivered, repeats, cloned) in per_symbol.items():
        if delivered < 0 or repeats < 0 or cloned < 0:
            raise ValueError(
                f"{name}: counts must not be negative, got {(delivered, repeats, cloned)}"
            )
        own_pairs = delivered + repeats
        counts[name] = SymbolCounts(
            delivered, repeats, cloned, (repeats + cloned) / own_pairs if own_pairs else 0.0
        )
        pairs += own_pairs
        delivered_total += delivered
        uncontrolled += repeats + cloned
    if not delivered_total > 0:
        raise ValueError("capacity is undefined without a delivered message")
    efficiency = delivered_total / pairs
    effective_alphabet = len(counts) * efficiency
    rounded = round(effective_alphabet, 1) or effective_alphabet  # exact if it rounds to 0
    return CapacityReport(
        per_symbol_counts=counts,
        pairs_consumed=pairs,
        messages_delivered=delivered_total,
        efficiency=efficiency,
        effective_alphabet=effective_alphabet,
        bits_per_pair=math.log2(effective_alphabet),
        uncontrolled_fraction=uncontrolled / pairs,
        rounded_reference=RoundedReference(rounded, math.log2(rounded)),
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
    pairs are cloned. Each symbol's uncontrolled fraction is then its
    wrong-branch probability per attempt, up to rounding, and 0.0 for a symbol
    of weight 0, which has no pairs, as a session's report gives a symbol it
    never sent.
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
    for symbol, branches in zip(ALPHABET, (bench or default_bench()).compiled.branches):
        p = dist.get(symbol, 0.0)
        cost = 1.0 / branches.controlled_probability if retries else 1.0
        per_symbol[symbol.value] = (
            p, p * (cost - 1.0), 0.0 if retries else p * branches.wrong_probability
        )
    return capacity_from_counts(per_symbol)


def total_variation_distance(dist_1: Mapping, dist_2: Mapping) -> float:
    """0.5 * sum |p - q| over the union of outcomes; 0 iff identical."""
    for name, dist in (("first", dist_1), ("second", dist_2)):
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} distribution sums to {total}, not 1")
    keys = set(dist_1) | set(dist_2)
    return 0.5 * sum(abs(dist_1.get(k, 0.0) - dist_2.get(k, 0.0)) for k in keys)
