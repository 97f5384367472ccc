import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcsim.capacity import (
    capacity_from_counts,
    expected_accounting,
    total_variation_distance,
    uniform_alphabet,
)
from sdcsim.protocol import ALPHABET, MessageSymbol, Scenario, default_bench


class TestCapacityFromCounts:
    def test_full_efficiency_gives_two_bits(self):
        report = capacity_from_counts(1000, 1000)
        assert report.efficiency == 1.0
        assert report.effective_alphabet == 4.0
        assert report.bits_per_pair == pytest.approx(2.0)
        assert report.bits_per_received_message == pytest.approx(2.0)

    def test_two_thirds_efficiency(self):
        report = capacity_from_counts(60_000, 40_000)
        assert report.efficiency == pytest.approx(2.0 / 3.0)
        assert report.bits_per_pair == pytest.approx(math.log2(8.0 / 3.0), abs=1e-12)
        assert report.rounded_reference.effective_alphabet == pytest.approx(2.7)
        assert report.rounded_reference.bits_per_pair == pytest.approx(
            math.log2(2.7), abs=1e-12
        )

    def test_dense_coding_reference(self):
        # three distinguishable messages per pair
        report = capacity_from_counts(1000, 1000, alphabet_size=3)
        assert report.bits_per_pair == pytest.approx(1.585, abs=1e-3)

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError):
            capacity_from_counts(0, 0)

    def test_delivered_bounds_enforced(self):
        with pytest.raises(ValueError):
            capacity_from_counts(10, 11)
        with pytest.raises(ValueError):
            capacity_from_counts(10, 0)

    @pytest.mark.parametrize("pairs,delivered", [(10, 5), (100, 99), (1000, 667)])
    def test_discarding_a_pair_strictly_lowers_capacity(self, pairs, delivered):
        before = capacity_from_counts(pairs, delivered)
        after = capacity_from_counts(pairs + 1, delivered)
        assert after.efficiency < before.efficiency
        assert after.bits_per_pair < before.bits_per_pair


class TestExpectedAccounting:
    def test_uniform_retry_scenario(self):
        acc = expected_accounting(Scenario.A)
        assert acc.efficiency == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert acc.discard_fraction == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert acc.bits_per_pair == pytest.approx(1.4150, abs=5e-4)
        assert acc.rounded_reference.bits_per_pair == pytest.approx(1.433, abs=5e-4)
        for symbol in MessageSymbol:
            share = acc.per_symbol[symbol.value]
            assert share.delivered_share == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_uniform_repeat_shares(self):
        acc = expected_accounting(Scenario.C)
        assert acc.per_symbol["hh"].repeat_share == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert acc.per_symbol["psi+"].repeat_share == 0.0

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

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            expected_accounting(Scenario.A, {MessageSymbol.HH: 0.7})

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

