import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcsim import cli, session
from sdcsim.capacity import (
    capacity_from_counts,
    expected_accounting,
    total_variation_distance,
    uniform_alphabet,
)
from sdcsim.protocol import (
    ALPHABET,
    ClonePolicy,
    MessageSymbol,
    ReferenceState,
    Scenario,
    default_bench,
)
from sdcsim.session import RunConfig, run_session


def _each(delivered, repeats=0, cloned=0, symbols=ALPHABET):
    """The same (delivered, repeats, cloned) counts for each of `symbols`."""
    return {symbol.value: (delivered, repeats, cloned) for symbol in symbols}


class TestCapacityFromCounts:
    def test_full_efficiency_gives_two_bits(self):
        report = capacity_from_counts(_each(250))
        assert report.efficiency == 1.0
        assert report.effective_alphabet == 4.0
        assert report.bits_per_pair == pytest.approx(2.0)

    def test_two_thirds_efficiency(self):
        report = capacity_from_counts(_each(10_000, 5_000))
        assert (report.pairs_consumed, report.messages_delivered) == (60_000, 40_000)
        assert report.efficiency == pytest.approx(2.0 / 3.0)
        assert report.bits_per_pair == pytest.approx(math.log2(8.0 / 3.0), abs=1e-12)
        assert report.rounded_reference.effective_alphabet == pytest.approx(2.7)
        assert report.rounded_reference.bits_per_pair == pytest.approx(
            math.log2(2.7), abs=1e-12
        )

    def test_dense_coding_reference(self):
        # three distinguishable messages per pair
        report = capacity_from_counts(_each(1000, symbols=ALPHABET[:3]))
        assert report.bits_per_pair == pytest.approx(1.585, abs=1e-3)

    @pytest.mark.parametrize(
        "scenario, clone_policy",
        [(Scenario.A, ClonePolicy.SEND_AS_IS), (Scenario.B, ClonePolicy.SEND_AS_IS),
         (Scenario.B, ClonePolicy.CLONE_INTENDED), (Scenario.C, ClonePolicy.SEND_AS_IS)],
    )
    def test_to_dict_is_asdict(self, scenario, clone_policy):
        config = RunConfig(scenario=scenario, n_messages=300, seed=5, clone_policy=clone_policy)
        report = run_session(config).report
        as_dict = dataclasses.asdict(report)
        assert report.to_dict() == as_dict
        assert list(report.to_dict()) == list(as_dict)
        assert report.to_dict() is not report.to_dict()

    def test_the_records_stay_dataclasses(self):
        # callers copy a report or a session's result with one field changed
        result = run_session(RunConfig(Scenario.B, 21, 3))
        for report in (result.report, expected_accounting(Scenario.A)):
            assert dataclasses.is_dataclass(report)
            changed = dataclasses.replace(report, messages_delivered=29)
            assert changed.messages_delivered == 29
            assert changed.pairs_consumed == report.pairs_consumed
            assert dataclasses.asdict(changed)["messages_delivered"] == 29
            assert dataclasses.asdict(report)["rounded_reference"] == dataclasses.asdict(
                report.rounded_reference
            )
        assert result.report.to_dict() == dataclasses.asdict(result.report)
        fewer = dataclasses.replace(result, notes=result.notes[:-1])
        assert list(fewer.notes) == list(result.notes)[:-1]
        assert (fewer.config, fewer.report, fewer.trials) == (
            result.config, result.report, result.trials
        )

    def test_to_dict_states_each_figure_once(self):
        observed = run_session(RunConfig(Scenario.C, 300, 5)).report
        # the expected report has the observed one's shape, field by field
        for report in (observed.to_dict(), expected_accounting(Scenario.C).to_dict()):
            assert set(report) == {
                "per_symbol_counts", "pairs_consumed", "messages_delivered", "efficiency",
                "effective_alphabet", "bits_per_pair", "uncontrolled_fraction",
                "rounded_reference",
            }
            assert list(report["per_symbol_counts"]) == [symbol.value for symbol in ALPHABET]
            for counts in report["per_symbol_counts"].values():
                assert set(counts) == {"delivered", "repeats", "cloned", "uncontrolled_fraction"}
            assert set(report["rounded_reference"]) == {"effective_alphabet", "bits_per_pair"}

    def test_to_dict_of_counts_given_by_hand(self):
        report = capacity_from_counts({"hh": (7, 3, 0)})
        assert report.to_dict() == dataclasses.asdict(report)
        assert report.to_dict()["per_symbol_counts"] == {
            "hh": {"delivered": 7, "repeats": 3, "cloned": 0, "uncontrolled_fraction": 0.3}
        }

    def test_a_reference_that_rounds_to_zero_keeps_the_exact_alphabet(self):
        # one message over 1000 pairs, from an alphabet of four
        report = capacity_from_counts(
            {"psi+": (1, 0, 0), "psi-": (0, 333, 0), "hh": (0, 333, 0), "vv": (0, 333, 0)}
        )
        assert (report.pairs_consumed, report.messages_delivered) == (1000, 1)
        assert report.effective_alphabet == 0.004
        assert report.rounded_reference.effective_alphabet == report.effective_alphabet
        assert report.rounded_reference.bits_per_pair == math.log2(0.004)

    def test_zero_pairs_rejected(self):
        for counts in ({}, _each(0)):
            with pytest.raises(ValueError, match="without a delivered message"):
                capacity_from_counts(counts)

    def test_delivered_bounds_enforced(self):
        # 11 delivered over 10 pairs needs a negative repeat count
        with pytest.raises(ValueError, match="^hh: .*negative"):
            capacity_from_counts({**_each(1), "hh": (11, -1, 0)})
        with pytest.raises(ValueError, match="^vv: .*negative"):
            capacity_from_counts({**_each(1), "vv": (1, 0, -1)})
        with pytest.raises(ValueError, match="without a delivered message"):
            capacity_from_counts({"hh": (0, 10, 0)})

    @pytest.mark.parametrize("pairs,delivered", [(10, 5), (100, 99), (1000, 667)])
    def test_discarding_a_pair_strictly_lowers_capacity(self, pairs, delivered):
        before = capacity_from_counts({**_each(0), "hh": (delivered, pairs - delivered, 0)})
        after = capacity_from_counts({**_each(0), "hh": (delivered, pairs + 1 - delivered, 0)})
        assert (before.pairs_consumed, after.pairs_consumed) == (pairs, pairs + 1)
        assert after.efficiency < before.efficiency
        assert after.bits_per_pair < before.bits_per_pair

    @settings(max_examples=200, deadline=None)
    @given(
        tally=st.lists(st.integers(0, 10**6), min_size=16, max_size=16).filter(
            # some message is delivered: sent or cloned
            lambda cells: any(cells[4 * i] + cells[4 * i + 3] for i in range(4))
        ),
    )
    @example(tally=[1, 0, 0, 0] + [0] * 12)
    @example(tally=[0, 0, 0, 3, 5, 2, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0])
    def test_a_session_tally_gives_integer_totals_and_exact_fractions(self, tally):
        # rows are symbols, columns (sent, discarded, stopped, cloned)
        rows = [tally[4 * i: 4 * i + 4] for i in range(4)]
        report = session.build_report(np.array(rows, dtype=np.int64))
        sent = sum(row[0] for row in rows)
        pairs = sum(sum(row) for row in rows)
        delivered = sum(row[0] + row[3] for row in rows)
        assert type(report.pairs_consumed) is int and report.pairs_consumed == pairs
        assert type(report.messages_delivered) is int
        assert report.messages_delivered == delivered
        # the formula `build_report` used before the counts derived it
        assert report.uncontrolled_fraction == (pairs - sent) / pairs
        assert report.discard_fraction == (pairs - delivered) / pairs
        assert report.effective_alphabet == 4 * report.efficiency
        for symbol, (s, discarded, stopped, cloned) in zip(ALPHABET, rows):
            counts = report.per_symbol_counts[symbol.value]
            own = s + discarded + stopped + cloned
            assert (counts.delivered, counts.repeats, counts.cloned) == (
                s + cloned, discarded + stopped, cloned
            )
            assert counts.uncontrolled_fraction == (
                (discarded + stopped + cloned) / own if own else 0.0
            )


class TestExpectedAccounting:
    def test_uniform_retry_scenario(self):
        acc = expected_accounting(Scenario.A)
        assert acc.efficiency == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert acc.discard_fraction == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert acc.bits_per_pair == pytest.approx(1.4150, abs=5e-4)
        assert acc.rounded_reference.bits_per_pair == pytest.approx(1.433, abs=5e-4)
        for symbol in MessageSymbol:
            delivered = acc.per_symbol_counts[symbol.value].delivered
            assert delivered / acc.pairs_consumed == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_uniform_repeat_shares(self):
        acc = expected_accounting(Scenario.C)
        counts = acc.per_symbol_counts
        assert counts["hh"].repeats / acc.pairs_consumed == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert counts["psi+"].repeats == 0.0

    def test_scenario_b_uses_every_pair(self):
        acc = expected_accounting(Scenario.B)
        assert acc.efficiency == 1.0
        assert acc.discard_fraction == 0.0
        assert acc.bits_per_pair == pytest.approx(2.0)
        # uniform alphabet: half the messages branch, each wrong half the time
        assert acc.uncontrolled_fraction == pytest.approx(0.25)

    def test_product_only_stream(self):
        dist = {MessageSymbol.HH: 1.0}
        assert expected_accounting(Scenario.A, dist).discard_fraction == pytest.approx(0.5)
        acc_b = expected_accounting(Scenario.B, dist)
        assert acc_b.uncontrolled_fraction == pytest.approx(0.5)

    def test_bell_only_stream_has_no_waste(self):
        dist = {MessageSymbol.PSI_PLUS: 0.5, MessageSymbol.PSI_MINUS: 0.5}
        for scenario in Scenario:
            assert expected_accounting(scenario, dist).discard_fraction == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
            lambda w: sum(w) > 1e-3
        ),
        scenario=st.sampled_from(list(Scenario)),
    )
    def test_efficiency_follows_the_bench(self, weights, scenario):
        total = sum(weights)
        dist = {symbol: w / total for symbol, w in zip(ALPHABET, weights)}
        bench = default_bench()
        pairs = 0.0
        for symbol, p in dist.items():
            branches = bench.encode_branches(symbol)
            retried = scenario is not Scenario.B and branches.controlled_probability < 1.0
            pairs += p * (1.0 / branches.controlled_probability if retried else 1.0)
        efficiency = expected_accounting(scenario, dist).efficiency
        assert efficiency == pytest.approx(1.0 / pairs, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        messages=st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=12),
        n=st.integers(1, 60),
        scenario=st.sampled_from(list(Scenario)),
    )
    @example(
        messages=[MessageSymbol.PSI_MINUS, MessageSymbol.VV, MessageSymbol.PSI_MINUS,
                  MessageSymbol.PSI_PLUS, MessageSymbol.HH],
        n=7,
        scenario=Scenario.B,
    )
    def test_listed_streams_never_expect_more_than_every_pair(self, messages, n, scenario):
        # the stream's weights are count / n, which need not sum to exactly 1
        config = RunConfig(scenario, n, 0, messages=tuple(messages))
        acc = expected_accounting(scenario, cli._intended_distribution(config))
        if scenario is Scenario.B:
            assert (acc.efficiency, acc.discard_fraction, acc.bits_per_pair) == (1.0, 0.0, 2.0)
        else:
            assert acc.efficiency <= 1.0 and acc.discard_fraction >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        messages=st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=12),
        n=st.integers(1, 200_000),
        scenario=st.sampled_from([Scenario.A, Scenario.C]),
    )
    @example(
        messages=[MessageSymbol.HH] * 4 + [MessageSymbol.PSI_MINUS], n=777, scenario=Scenario.C,
    )
    def test_a_retry_scenario_discards_exactly_its_uncontrolled_pairs(
        self, messages, n, scenario
    ):
        # in a and c every wrong-branch pair is a repeat: one quantity, to the bit
        config = RunConfig(scenario, n, 0, messages=tuple(messages))
        acc = expected_accounting(scenario, cli._intended_distribution(config))
        assert acc.discard_fraction == acc.uncontrolled_fraction

    @pytest.mark.parametrize("scenario, fields", [
        (Scenario.A, {}), (Scenario.B, {}),
        (Scenario.B, {"clone_policy": ClonePolicy.CLONE_INTENDED}),
        (Scenario.C, {}), (Scenario.C, {"erase_notes": True}),
    ], ids=["a", "b", "b-clone-intended", "c", "c-erase-notes"])
    def test_an_unsent_symbol_is_counted_alike(self, scenario, fields):
        # a symbol of weight 0 has no pairs: the expected report gives it what the
        # session's report does, an uncontrolled fraction of 0.0 among the zeros
        config = RunConfig(scenario, 300, 4, messages=(MessageSymbol.PSI_PLUS,), **fields)
        sampled = run_session(config).report.per_symbol_counts
        expected = expected_accounting(scenario, cli._intended_distribution(config))
        for name in ("psi-", "hh", "vv"):
            assert expected.per_symbol_counts[name] == sampled[name], name

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            expected_accounting(Scenario.A, {MessageSymbol.HH: 0.7})

    @pytest.mark.parametrize("dist, named", [
        ({MessageSymbol.HH: 0.5, "vv": 0.5}, "'vv'"),
        ({"hh": 1.0}, "'hh'"),
        ({ReferenceState.PHI_PLUS: 1.0}, "ReferenceState.PHI_PLUS"),
    ], ids=["hh-and-named-vv", "named-hh", "phi+"])
    def test_a_key_outside_the_alphabet_is_named(self, dist, named):
        # a key that is no message must not be read as a message never sent
        with pytest.raises(ValueError, match=re.escape(named)):
            expected_accounting(Scenario.A, dist)

    def test_uniform_alphabet_helper(self):
        dist = uniform_alphabet()
        assert sum(dist.values()) == pytest.approx(1.0)
        assert all(p == 0.25 for p in dist.values())


class TestTotalVariationDistance:
    def test_identical_is_zero(self):
        d = {"x": 0.5, "y": 0.5}
        assert total_variation_distance(d, d) == 0.0

    def test_disjoint_point_masses_is_one(self):
        assert total_variation_distance({"x": 1.0}, {"y": 1.0}) == 1.0

    def test_half_overlap(self):
        a = {"x": 1.0}
        b = {"x": 0.5, "y": 0.5}
        assert total_variation_distance(a, b) == pytest.approx(0.5)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            total_variation_distance({"x": 0.9}, {"x": 1.0})

