import math
from collections import Counter

import numpy as np
import pytest

import oracle
from sdcsim.capacity import total_variation_distance
from sdcsim.elements import hwp
from sdcsim import protocol
from sdcsim.fock import ModeLabel, ModeUnitary, branch_on_modes, make_state, superpose
from sdcsim.protocol import (
    ALICE,
    ALPHABET,
    BOB,
    Branch,
    DetectionPattern,
    MessageSymbol,
    OpticalBench,
    ReferenceState,
    Scenario,
    Verdict,
    default_bench,
)
from sdcsim.capacity import expected_accounting
from sdcsim.session import RunConfig, run_session

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Exact analyzer statistics, frozen from the closed-form two-photon expansion
# through BS + both PBSs (independently reproduced by the oracle below).
EXPECTED_ANALYZE = {
    MessageSymbol.PSI_PLUS: {"aH:1,aV:1": 0.5, "bH:1,bV:1": 0.5},
    MessageSymbol.PSI_MINUS: {"aH:1,bV:1": 0.5, "aV:1,bH:1": 0.5},
    MessageSymbol.HH: {"aH:2": 0.5, "bH:2": 0.5},
    MessageSymbol.VV: {"aV:2": 0.5, "bV:2": 0.5},
    ReferenceState.PHI_PLUS: {"aH:2": 0.25, "aV:2": 0.25, "bH:2": 0.25, "bV:2": 0.25},
    ReferenceState.PHI_MINUS: {"aH:2": 0.25, "aV:2": 0.25, "bH:2": 0.25, "bV:2": 0.25},
}


@pytest.fixture(scope="module")
def bench():
    return OpticalBench()


def as_strings(dist):
    return {pattern.to_string(): prob for pattern, prob in dist.items()}


def oracle_analyzer_distribution(bench, symbol):
    """Analyzer statistics via the dense transfer-matrix reference path."""
    reg = bench.registry
    transfer = oracle.compose([bench.bs, bench.pbs_a, bench.pbs_b], reg)
    idx = lambda path, pol: reg.index(ModeLabel(path, pol))
    terms = {
        MessageSymbol.PSI_PLUS: [
            (INV_SQRT2, idx(ALICE, "H"), idx(BOB, "V")),
            (INV_SQRT2, idx(ALICE, "V"), idx(BOB, "H")),
        ],
        MessageSymbol.PSI_MINUS: [
            (INV_SQRT2, idx(ALICE, "H"), idx(BOB, "V")),
            (-INV_SQRT2, idx(ALICE, "V"), idx(BOB, "H")),
        ],
        MessageSymbol.HH: [(1.0, idx(ALICE, "H"), idx(BOB, "H"))],
        MessageSymbol.VV: [(1.0, idx(ALICE, "V"), idx(BOB, "V"))],
        ReferenceState.PHI_PLUS: [
            (INV_SQRT2, idx(ALICE, "H"), idx(BOB, "H")),
            (INV_SQRT2, idx(ALICE, "V"), idx(BOB, "V")),
        ],
        ReferenceState.PHI_MINUS: [
            (INV_SQRT2, idx(ALICE, "H"), idx(BOB, "H")),
            (-INV_SQRT2, idx(ALICE, "V"), idx(BOB, "V")),
        ],
    }[symbol]
    pair_dist = oracle.superposed_two_photon_distribution(transfer, terms)
    detector_idx = {
        name: reg.index(mode)
        for name, mode in zip(("aH", "aV", "bH", "bV"), bench.analyzer_detectors)
    }
    named = {}
    for (k, l), p in pair_dist.items():
        counts = {name: (k == i) + (l == i) for name, i in detector_idx.items()}
        assert sum(counts.values()) == 2, "oracle photon landed off-detector"
        named_pattern = DetectionPattern.of(**counts)
        named[named_pattern] = named.get(named_pattern, 0.0) + p
    return named


class TestSourceAndStates:
    def test_source_is_psi_plus(self, bench):
        reg = bench.registry
        hv = make_state(reg, [ModeLabel(ALICE, "H"), ModeLabel(BOB, "V")])
        vh = make_state(reg, [ModeLabel(ALICE, "V"), ModeLabel(BOB, "H")])
        psi_plus = superpose([(INV_SQRT2, hv), (INV_SQRT2, vh)])
        assert bench.source_emit().fidelity(psi_plus) == pytest.approx(1.0, abs=1e-12)

    def test_source_orthogonal_to_psi_minus(self, bench):
        psi_minus = bench.state_for(MessageSymbol.PSI_MINUS)
        assert abs(bench.source_emit().overlap(psi_minus)) < 1e-12

    def test_raw_source_decodes_as_psi_plus(self, bench):
        dist = bench.analyze(bench.source_emit())
        for pattern, prob in dist.items():
            assert bench.classify(pattern).symbol is MessageSymbol.PSI_PLUS
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


class TestAnalyze:
    @pytest.mark.parametrize("symbol", list(EXPECTED_ANALYZE))
    def test_matches_frozen_values(self, bench, symbol):
        dist = as_strings(bench.analyze(bench.state_for(symbol)))
        expected = EXPECTED_ANALYZE[symbol]
        assert set(dist) == set(expected)
        for key, prob in expected.items():
            assert dist[key] == pytest.approx(prob, abs=1e-12)

    @pytest.mark.parametrize("symbol", list(EXPECTED_ANALYZE))
    def test_matches_oracle(self, bench, symbol):
        engine = bench.analyze(bench.state_for(symbol))
        reference = oracle_analyzer_distribution(bench, symbol)
        assert set(engine) == set(reference)
        for pattern, prob in reference.items():
            assert engine[pattern] == pytest.approx(prob, abs=1e-12)

    def test_single_photon_goes_to_matching_detectors(self, bench):
        dist = as_strings(bench.analyze(bench.bob_photon("V")))
        assert dist == {
            "aV:1": pytest.approx(0.5, abs=1e-12),
            "bV:1": pytest.approx(0.5, abs=1e-12),
        }

    def test_phi_pair_indistinguishable(self, bench):
        tvd = total_variation_distance(
            bench.analyze(bench.state_for(ReferenceState.PHI_PLUS)),
            bench.analyze(bench.state_for(ReferenceState.PHI_MINUS)),
        )
        assert tvd < 1e-12


class TestEncoder:
    def test_psi_plus_is_identity(self, bench):
        branches = bench.encode_branches(MessageSymbol.PSI_PLUS)
        assert branches.controlled_probability == pytest.approx(1.0, abs=1e-12)
        assert branches.controlled_state.fidelity(
            bench.source_emit()
        ) == pytest.approx(1.0, abs=1e-12)

    def test_psi_minus_always_controlled(self, bench):
        branches = bench.encode_branches(MessageSymbol.PSI_MINUS)
        assert branches.resent_state is None
        assert branches.controlled_state.fidelity(
            bench.state_for(MessageSymbol.PSI_MINUS)
        ) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "symbol,complement",
        [(MessageSymbol.HH, MessageSymbol.VV), (MessageSymbol.VV, MessageSymbol.HH)],
    )
    def test_product_messages_branch_at_one_half(self, bench, symbol, complement):
        branches = bench.encode_branches(symbol)
        assert branches.controlled_probability == pytest.approx(0.5, abs=1e-12)
        assert branches.controlled_state.fidelity(
            bench.state_for(symbol)
        ) == pytest.approx(1.0, abs=1e-12)
        # the click absorbed the sender's photon: one photon is left, on bob's path
        lone = bench.bob_photon({MessageSymbol.HH: "V", MessageSymbol.VV: "H"}[symbol])
        assert branches.lone_state.fidelity(lone) == pytest.approx(1.0, abs=1e-12)
        # re-emitting her photon in the polarization that clicked makes the complement
        assert branches.resent_state.fidelity(
            bench.state_for(complement)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_bell_messages_never_branch(self, bench):
        for symbol in (MessageSymbol.PSI_PLUS, MessageSymbol.PSI_MINUS):
            branches = bench.encode_branches(symbol)
            assert branches.controlled_probability == 1.0
            assert branches.lone_state is None and branches.resent_state is None

    def test_encode_realizes_both_branches(self, bench):
        # a scenario-b session passes on whichever pair the encoder left
        config = RunConfig(Scenario.B, 32, 0, messages=(MessageSymbol.HH,))
        records = run_session(config, bench).records
        assert {r.branch for r in records} == {Branch.CONTROLLED, Branch.WRONG}
        for r in records:
            target = MessageSymbol.HH if r.branch is Branch.CONTROLLED else MessageSymbol.VV
            assert r.decoded.symbol is target

    def test_reference_states_not_encodable(self, bench):
        with pytest.raises(ValueError):
            bench.encode_branches(ReferenceState.PHI_PLUS)


class TestSignaturesAndClassify:
    def test_signature_table_frozen(self, bench):
        table = {
            symbol: {p.to_string() for p in patterns}
            for symbol, patterns in bench.signature_table().items()
        }
        assert table == {
            MessageSymbol.PSI_PLUS: {"aH:1,aV:1", "bH:1,bV:1"},
            MessageSymbol.PSI_MINUS: {"aH:1,bV:1", "aV:1,bH:1"},
            MessageSymbol.HH: {"aH:2", "bH:2"},
            MessageSymbol.VV: {"aV:2", "bV:2"},
        }

    def test_signatures_pairwise_disjoint(self, bench):
        table = bench.signature_table()
        for a in ALPHABET:
            for b in ALPHABET:
                if a is not b:
                    assert not table[a] & table[b]

    def test_each_message_decodes_to_itself(self, bench):
        for symbol in ALPHABET:
            controlled = bench.encode_branches(symbol).controlled_state
            for pattern, prob in bench.analyze(controlled).items():
                outcome = bench.classify(pattern)
                assert outcome.verdict is Verdict.DECODED
                assert outcome.symbol is symbol

    def test_single_photon_patterns(self, bench):
        assert bench.classify(DetectionPattern.of(aH=1)).verdict is Verdict.SINGLE_PHOTON
        assert bench.classify(DetectionPattern.of(bV=1)).verdict is Verdict.SINGLE_PHOTON

    def test_unknown_two_photon_pattern_is_ambiguous(self, bench):
        assert bench.classify(DetectionPattern.of(aH=1, bH=1)).verdict is Verdict.AMBIGUOUS
        assert bench.classify(DetectionPattern.of()).verdict is Verdict.AMBIGUOUS

    @pytest.mark.parametrize("psi_minus", ["psi+", "hwp22.5"])
    def test_overlapping_laws_decode_by_likelihood(self, psi_minus):
        patched = OpticalBench()
        encoder = () if psi_minus == "psi+" else (hwp(patched.registry, 22.5, ALICE),)
        patched.encoder[MessageSymbol.PSI_MINUS] = encoder
        laws = [patched.analyze(patched.encode_branches(s).controlled_state) for s in ALPHABET]
        for pattern in patched.compiled.patterns:
            probs = [law.get(pattern, 0.0) for law in laws]
            best = max(probs)
            if best > 0.0 and probs.count(best) == 1:
                assert patched.classify(pattern).symbol is ALPHABET[probs.index(best)]
            else:
                undecoded = Verdict.SINGLE_PHOTON if pattern.total == 1 else Verdict.AMBIGUOUS
                assert patched.classify(pattern).verdict is undecoded
        if psi_minus == "hwp22.5":  # psi- reaches hh's and vv's patterns with 1/8 against 1/2
            assert laws[1][DetectionPattern.of(aH=2)] == pytest.approx(0.125, abs=1e-12)
            assert patched.classify(DetectionPattern.of(aH=2)).symbol is MessageSymbol.HH
            assert patched.classify(DetectionPattern.of(aH=1, bV=1)).symbol is MessageSymbol.PSI_MINUS


@pytest.fixture
def compile_calls(monkeypatch):
    """Counts of OpticalBench.encode_branches and .analyze calls from here on."""
    calls = Counter()
    for name in ("encode_branches", "analyze"):
        original = getattr(OpticalBench, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(OpticalBench, name, counted)
    return calls


def law_column(compiled, t):
    """Compiled law t's pattern codes and stored running sums, once its -1 and +inf
    padding down to the widest law is checked off."""
    codes, sums = compiled.codes[:, t].tolist(), compiled.sums[:, t].tolist()
    n = codes.index(-1) if -1 in codes else len(codes)
    assert codes[n:] == [-1] * (len(codes) - n)
    assert sums[n - 1:] == [math.inf] * (len(sums) - n + 1)
    return codes[:n], sums[:n - 1]


class TestCompiledBench:
    def test_fresh_bench_compiles_once(self, compile_calls):
        bench = OpticalBench()
        # one split per message; one law per controlled pair and per lone photon
        run_session(RunConfig(Scenario.A, 20, 0), bench)
        assert compile_calls == {"encode_branches": 4, "analyze": 6}
        run_session(RunConfig(Scenario.B, 20, 1), bench)
        bench.signature_table()
        bench.classify(DetectionPattern.of(aH=2))
        assert compile_calls == {"encode_branches": 4, "analyze": 6}
        assert bench.compiled is bench.compiled

    def test_expected_accounting_reuses_the_default_bench(self, compile_calls):
        expected_accounting(Scenario.A)
        compile_calls.clear()
        for scenario in (*Scenario, *Scenario):
            expected_accounting(scenario)
        assert compile_calls == {}

    @pytest.mark.parametrize("symbol,lone", [(MessageSymbol.HH, "V"), (MessageSymbol.VV, "H")])
    def test_lone_photon_follows_the_complement(self, bench, symbol, lone):
        # the wrong branch leaves the complementary pair; the receiver keeps
        # its photon when the sender's is detected
        compiled = bench.compiled
        codes, sums = law_column(compiled, compiled.lone_table[ALPHABET.index(symbol)])
        law = bench.analyze(bench.bob_photon(lone))
        assert [compiled.patterns[c] for c in codes] == sorted(law)
        assert sums == np.cumsum([law[p] for p in sorted(law)])[:-1].tolist()

    def test_fresh_compile_branches_once_per_message(self, monkeypatch):
        calls = []

        def counted(state, modes):
            calls.append(modes)
            return branch_on_modes(state, modes)

        monkeypatch.setattr(protocol, "branch_on_modes", counted)
        bench = OpticalBench()
        bench.compiled
        assert calls == [bench.monitor_modes] * len(ALPHABET)

    def test_resent_pair_follows_the_click_branch(self):
        # an HH encoder whose plate sits at 22.5 degrees: on a click the monitor
        # detects V and the receiver's photon is left in (V - H)/sqrt(2)
        tilted = OpticalBench()
        reg = tilted.registry
        tilted.encoder[MessageSymbol.HH] = (hwp(reg, 22.5, ALICE), tilted.pol_pass_h)
        by_hand = superpose([
            (INV_SQRT2, make_state(reg, [ModeLabel(ALICE, "V"), ModeLabel(BOB, "V")])),
            (-INV_SQRT2, make_state(reg, [ModeLabel(ALICE, "V"), ModeLabel(BOB, "H")])),
        ])
        law = tilted.analyze(by_hand)
        assert as_strings(law) == {
            "aV:2": pytest.approx(0.25, abs=1e-12),
            "bV:2": pytest.approx(0.25, abs=1e-12),
            **{p: pytest.approx(0.125, abs=1e-12)
               for p in ("aH:1,aV:1", "aH:1,bV:1", "aV:1,bH:1", "bH:1,bV:1")},
        }
        compiled = tilted.compiled
        codes, sums = law_column(compiled, compiled.resent_table[ALPHABET.index(MessageSymbol.HH)])
        assert [compiled.patterns[c] for c in codes] == sorted(law)
        assert sums == pytest.approx(np.cumsum([law[p] for p in sorted(law)])[:-1], abs=1e-12)
        # the receiver decodes what the optics give him, not the ideal complement
        config = RunConfig(Scenario.B, 400, 3, messages=(MessageSymbol.HH,))
        trials = run_session(config, tilted).trials
        wrong = {str(trials.table.patterns[p]) for p in trials.pattern[trials.branch == 1].tolist()}
        assert wrong - {"aV:2", "bV:2"}
        assert wrong <= set(as_strings(law))

    @pytest.mark.parametrize("law", [{}, {DetectionPattern.of(aH=2): 0.4}],
                             ids=["empty", "unnormalized"])
    def test_compile_rejects_a_law_that_does_not_sum_to_one(self, monkeypatch, law):
        bench = OpticalBench()
        monkeypatch.setattr(bench, "analyze", lambda state: law)
        with pytest.raises(ValueError, match="not 1"):
            bench.compiled

    def test_bell_messages_have_no_lone_photon(self, bench):
        lone = bench.compiled.lone_table
        assert lone[ALPHABET.index(MessageSymbol.PSI_PLUS)] == -1
        assert lone[ALPHABET.index(MessageSymbol.PSI_MINUS)] == -1


# The ideal bench's compiled model, as float.hex literals: any drift of one
# ulp in a branch probability or a stored running sum fails here. Each law's
# last running sum is not stored (its column ends in inf); compiling holds it
# to 1 within 1e-9. The last column is a stopped pair.
PINNED_P_CONTROLLED = [
    "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.0000000000001p-1", "0x1.0000000000001p-1",
]
PINNED_COLUMNS = [
    ([3, 10], ["0x1.ffffffffffffep-2", "inf"]),
    ([6, 9], ["0x1.ffffffffffffep-2", "inf"]),
    ([4, 11], ["0x1.ffffffffffffep-2", "inf"]),
    ([1, 7], ["0x1.ffffffffffffep-2", "inf"]),
    ([0, 5], ["0x1.ffffffffffffep-2", "inf"]),
    ([2, 8], ["0x1.ffffffffffffep-2", "inf"]),
    ([-1, -1], ["inf", "inf"]),
]
PINNED_PATTERNS = [
    "bV:1", "bV:2", "bH:1", "bH:1,bV:1", "bH:2", "aV:1",
    "aV:1,bH:1", "aV:2", "aH:1", "aH:1,bV:1", "aH:1,aV:1", "aH:2",
]
PINNED_OUTCOMES = ["single_photon", "vv", "psi+", "hh", "psi-"]
PINNED_DECODED = [0, 1, 0, 2, 3, 0, 4, 1, 0, 4, 2, 3]
PINNED_LONE_TABLE = (-1, -1, 4, 5)
PINNED_RESENT_TABLE = (-1, -1, 3, 2)


def test_ideal_compiled_model_is_pinned():
    compiled = OpticalBench().compiled
    assert [float(b.controlled_probability).hex() for b in compiled.branches] == (
        PINNED_P_CONTROLLED
    )
    assert (compiled.sums.dtype, compiled.codes.dtype) == (np.float64, np.int16)
    assert not compiled.sums.flags.writeable and not compiled.codes.flags.writeable
    assert [
        (codes.tolist(), [float(c).hex() for c in sums])
        for codes, sums in zip(compiled.codes.T, compiled.sums.T)
    ] == PINNED_COLUMNS
    assert [p.to_string() for p in compiled.patterns] == PINNED_PATTERNS
    assert [o.label for o in compiled.outcomes] == PINNED_OUTCOMES
    assert compiled.decoded.tolist() == PINNED_DECODED
    assert compiled.lone_table == PINNED_LONE_TABLE
    assert compiled.resent_table == PINNED_RESENT_TABLE


class TestMemoizedElements:
    def test_fresh_benches_share_their_elements(self):
        first, second = OpticalBench(), OpticalBench()
        assert first.registry is second.registry
        for name in ("bs", "pbs_a", "pbs_b", "hwp0", "hwp45", "pol_pass_h", "pol_pass_v"):
            assert getattr(first, name) is getattr(second, name)
        assert first.analyzer is second.analyzer

    def test_elements_are_keyed_by_every_argument(self, bench):
        other = hwp(bench.registry, 22.5, ALICE)
        assert other is not bench.hwp45
        assert not np.array_equal(other.matrix, bench.hwp45.matrix)
        assert hwp(bench.registry, 45.0, ALICE) is bench.hwp45
        assert hwp(bench.registry, 45.0, BOB) is not bench.hwp45

    def test_elements_are_immutable(self, bench):
        assert not bench.bs.matrix.flags.writeable
        with pytest.raises(AttributeError):
            bench.bs.name = "other"

    def test_second_fresh_bench_constructs_no_element(self, monkeypatch):
        OpticalBench().compiled
        built = []
        original = ModeUnitary.__post_init__

        def counted(self):
            built.append(self.name)
            original(self)

        monkeypatch.setattr(ModeUnitary, "__post_init__", counted)
        bench = OpticalBench()
        bench.compiled
        assert built == []

    def test_a_patched_encoder_stays_on_its_bench(self, monkeypatch):
        patched = OpticalBench()
        # psi- encoded like psi+ shares its detector patterns, equally likely
        monkeypatch.setitem(patched.encoder, MessageSymbol.PSI_MINUS, ())
        for pattern in (DetectionPattern.of(aH=1, aV=1), DetectionPattern.of(bH=1, bV=1)):
            assert patched.classify(pattern).verdict is Verdict.AMBIGUOUS
        assert patched.classify(DetectionPattern.of(aH=2)).symbol is MessageSymbol.HH
        fresh = OpticalBench()
        assert fresh.encoder[MessageSymbol.PSI_MINUS] == (fresh.hwp0,)
        assert {s: sorted(map(str, p)) for s, p in fresh.signature_table().items()} == {
            symbol: sorted(EXPECTED_ANALYZE[symbol]) for symbol in ALPHABET
        }


class TestDetectionPattern:
    def test_canonical_string_omits_zeros(self):
        assert DetectionPattern.of(aH=1, bV=1).to_string() == "aH:1,bV:1"
        assert DetectionPattern.of(bV=1).to_string() == "bV:1"

    def test_key_order_fixed(self):
        assert DetectionPattern.of(bV=1, aH=1).to_string() == "aH:1,bV:1"

    def test_unknown_detector_rejected(self):
        for name in ("zz", "d"):  # the analyzer has no detector d
            with pytest.raises(ValueError, match="unknown detector"):
                DetectionPattern.of(**{name: 1})

    def test_total(self):
        assert DetectionPattern.of(aH=2).total == 2


def test_default_bench_is_shared():
    assert default_bench() is default_bench()
