import contextlib
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from sdcsim.capacity import total_variation_distance
from sdcsim.elements import beam_splitter, hwp, pbs, polarizer_monitor
from sdcsim import protocol, session, verify
from sdcsim.fock import (
    ModeLabel,
    ModeUnitary,
    apply_element,
    branch_on_modes,
    compose,
    make_state,
    outcome_distribution,
    raw_thresholds,
    superpose,
)
from sdcsim.protocol import (
    ALICE,
    ALPHABET,
    BOB,
    MONITOR,
    ClonePolicy,
    REFLECT_A,
    REFLECT_B,
    REGISTRY,
    Branch,
    DetectionPattern,
    MessageSymbol,
    OpticalBench,
    Optics,
    ProtocolError,
    ReferenceState,
    Scenario,
    Verdict,
    default_bench,
)
from sdcsim.capacity import expected_accounting
from sdcsim.session import BRANCHES, RunConfig, run_session

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def bob_photon(bench, pol):
    """One photon of polarization `pol` on the receiver's path."""
    return make_state(bench.registry, [ModeLabel(BOB, pol)])


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
    transfer = oracle.compose(list(bench.compiled.analyzer), reg)
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
        for name, mode in zip(("aH", "aV", "bH", "bV"), protocol.ANALYZER_DETECTORS)
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

    def test_a_name_is_not_a_state(self, bench):
        with pytest.raises(ValueError, match="unknown symbol 'psi'"):
            bench.state_for("psi")

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
        dist = as_strings(bench.analyze(bob_photon(bench, "V")))
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
        lone = bob_photon(bench, {MessageSymbol.HH: "V", MessageSymbol.VV: "H"}[symbol])
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
        trials = run_session(config, bench).trials
        branches = [BRANCHES[b] for b in trials.branch.tolist()]
        assert set(branches) == {Branch.CONTROLLED, Branch.WRONG}
        for branch, d in zip(branches, trials.decoded.tolist()):
            target = MessageSymbol.HH if branch is Branch.CONTROLLED else MessageSymbol.VV
            assert trials.table.outcomes[d].symbol is target

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
        patched = OpticalBench(Optics(psi_minus=() if psi_minus == "psi+" else (("hwp", 22.5),)))
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

    def test_probabilities_a_few_ulp_apart_tie(self):
        # a tilted analyzer plate gives aH:1,aV:1 a quarter under both hh and vv;
        # the plate's cos and sin round apart, so the two quarters differ
        tilted = OpticalBench(
            Optics(analyzer=(("bs",), ("hwp", 22.5), ("pbs", ALICE), ("pbs", BOB)))
        )
        pattern = DetectionPattern.of(aH=1, aV=1)
        laws = [tilted.analyze(tilted.encode_branches(s).controlled_state) for s in ALPHABET]
        hh, vv = (law[pattern] for law in laws[2:])
        assert hh != vv and abs(hh - vv) < protocol.TIE_TOLERANCE
        assert max(law.get(pattern, 0.0) for law in laws) == max(hh, vv)
        assert tilted.classify(pattern).verdict is Verdict.AMBIGUOUS
        # the ideal bench has no near tie: its decoded table stays as pinned
        assert OpticalBench().compiled.decoded.tolist() == PINNED_DECODED


@pytest.fixture
def compile_calls(monkeypatch, fresh_compile_memo):
    """Counts of the encoder splits and analyzer laws computed from here on, by
    compiling or by the bench methods that share their module-level functions;
    the compile memo starts empty."""
    calls = Counter()
    for name in ("encode_branches", "analyze"):
        original = getattr(protocol, f"_{name}")

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(protocol, f"_{name}", counted)
    return calls


def as_values(elements):
    """Elements as comparable values: each one's name and matrix entries."""
    return [(e.name, e.matrix.tolist()) for e in elements]


# (scenario, clone policy, erase notes) of each wiring a RunConfig reaches
WIRINGS = {
    "a": (Scenario.A, ClonePolicy.SEND_AS_IS, False),
    "b-send-as-is": (Scenario.B, ClonePolicy.SEND_AS_IS, False),
    "b-clone-intended": (Scenario.B, ClonePolicy.CLONE_INTENDED, False),
    "c": (Scenario.C, ClonePolicy.SEND_AS_IS, False),
    "c-erase-notes": (Scenario.C, ClonePolicy.SEND_AS_IS, True),
}


def wired_law(compiled, wiring, cell):
    """The pattern codes and boundary thresholds that `wiring` of `compiled` lays
    out for cell `cell`, 2 * message + wrong branch, once its -1 and 2^64 - 1
    padding down to the wiring's widest law is checked off."""
    _, _, bounds, table = session.wiring(compiled, *WIRINGS[wiring])
    width = len(bounds) + 1
    codes = table.pattern[cell * width:(cell + 1) * width].tolist()
    thresholds = [int(bound[cell]) for bound in bounds]
    n = codes.index(-1) if -1 in codes else width
    assert codes[n:] == [-1] * (width - n)
    assert thresholds[n - 1:] == [2**64 - 1] * (width - n)
    return codes[:n], thresholds[:n - 1]


def sorted_thresholds(law):
    """The raw-word thresholds of `law`'s running sums over its sorted patterns,
    without the last."""
    return raw_thresholds(np.cumsum([law[p] for p in sorted(law)])[:-1]).tolist()


def drawn_law(compiled, wiring, cell):
    """Per pattern of cell `cell`'s law, the share of all raw words that draw it,
    read from `wiring`'s thresholds alone: a word of the cell draws outcome i
    when it exceeds i of the cell's thresholds. In scenarios a and c every word
    is the cell's; in scenario b, where one word also draws the branch, only
    the words on the cell's side of the message's controlled threshold are."""
    controlled, _, _, _ = session.wiring(compiled, *WIRINGS[wiring])
    codes, thresholds = wired_law(compiled, wiring, cell)
    low, high = -1, 2**64 - 1  # the cell's words are those above low, up to high
    if WIRINGS[wiring][0] is Scenario.B:
        split = int(controlled[cell >> 1])
        low, high = (split, high) if cell & 1 else (low, split)
    edges = [low, *(min(max(t, low), high) for t in thresholds), high]
    return {compiled.patterns[c]: (b - a) / 2**64 for c, a, b in zip(codes, edges, edges[1:])}


def assert_b_draws_each_joint_law(compiled):
    """Each scenario-b wiring draws each message's joint (branch, pattern) law to
    1e-12 of the optics': p times its controlled law on the controlled branch,
    1 - p times the wrong branch's law on the other. A message that never goes
    wrong (p = 1) keeps its wrong cell's boundaries at 2^64 - 1."""
    for wiring in ("b-send-as-is", "b-clone-intended"):
        _, _, bounds, _ = session.wiring(compiled, *WIRINGS[wiring])
        for m, split in enumerate(compiled.branches):
            p = split.controlled_probability
            wrong = split.resent_law if wiring == "b-send-as-is" else split.controlled_law
            if p == 1.0:
                assert all(int(bound[2 * m + 1]) == 2**64 - 1 for bound in bounds), (wiring, m)
            for cell, weight, law in ((2 * m, p, split.controlled_law), (2 * m + 1, 1.0 - p, wrong)):
                if law is None:  # no resent pair: the message never goes wrong
                    assert weight <= 1e-12, (wiring, cell)
                    continue
                drawn = drawn_law(compiled, wiring, cell)
                assert drawn.keys() == law.keys(), (wiring, cell)
                for pattern, q in law.items():
                    assert abs(drawn[pattern] - weight * q) <= 1e-12, (wiring, cell, pattern)


class TestCompiledBench:
    def test_fresh_bench_compiles_once(self, compile_calls):
        bench = OpticalBench()
        # one split per message; one law per controlled pair, per lone photon
        # and per re-emitted pair
        run_session(RunConfig(Scenario.A, 20, 0), bench)
        assert compile_calls == {"encode_branches": 4, "analyze": 8}
        run_session(RunConfig(Scenario.B, 20, 1), bench)
        bench.signature_table()
        bench.classify(DetectionPattern.of(aH=2))
        assert compile_calls == {"encode_branches": 4, "analyze": 8}
        assert bench.compiled is bench.compiled
        # the bench reads its encoder splits from the compiled model, never reruns them
        for i, symbol in enumerate(ALPHABET):
            assert bench.encode_branches(symbol) is bench.compiled.branches[i]
        assert verify.check_exact_discrimination(bench).passed
        assert verify.check_branch_probability(bench).passed
        assert verify.hh_cell_law(bench)
        # verify reads each law from its compiled branch and never analyzes it again
        assert compile_calls == {"encode_branches": 4, "analyze": 8}

    def test_fresh_benches_share_one_compiled_model(self, compile_calls):
        first = OpticalBench().compiled
        assert compile_calls == {"encode_branches": 4, "analyze": 8}
        second = OpticalBench().compiled
        assert second is first
        assert compile_calls == {"encode_branches": 4, "analyze": 8}

    @pytest.mark.parametrize("symbol", [MessageSymbol.HH, MessageSymbol.PSI_MINUS])
    def test_a_tilted_plate_compiles_its_own_model(self, symbol):
        ideal = OpticalBench().compiled
        field = symbol.name.lower()
        # the message's plate turned to 22.5 degrees, anything after it kept
        tilted = OpticalBench(Optics(**{field: (("hwp", 22.5), *getattr(Optics(), field)[1:])}))
        plate = tilted.compiled.encoders[ALPHABET.index(symbol)][0]
        assert as_values([plate]) == as_values([hwp(REGISTRY, 22.5, ALICE)])
        assert tilted.compiled is not ideal
        assert tilted.compiled.signatures[symbol] != ideal.signatures[symbol]
        # scenario b lays out the tilted message's own joint law, not the ideal one's
        assert_b_draws_each_joint_law(tilted.compiled)
        assert OpticalBench().compiled is ideal
        test_ideal_compiled_model_is_pinned()

    def test_an_encoder_changed_after_compiling_takes_effect(self):
        bench = OpticalBench()
        ideal = bench.compiled
        # a bench is changed by building one from a changed record
        with pytest.raises(dataclasses.FrozenInstanceError):
            bench.optics.psi_minus = (("hwp", 22.5),)
        changed = OpticalBench(dataclasses.replace(bench.optics, psi_minus=(("hwp", 22.5),)))
        assert changed.compiled is not ideal
        assert DetectionPattern.of(aH=2) in changed.signature_table()[MessageSymbol.PSI_MINUS]
        assert bench.compiled is ideal and bench.optics == Optics()
        restored = OpticalBench(dataclasses.replace(changed.optics, psi_minus=(("hwp", 0.0),)))
        assert restored.compiled is ideal

    def test_distinct_plates_leave_the_memo_bounded(self):
        before = protocol.compile_optics.cache_info()
        for k in range(70):
            OpticalBench(Optics(psi_minus=(("hwp", 0.25 + k),)))
        after = protocol.compile_optics.cache_info()
        assert after.misses - before.misses == 70
        assert after.currsize <= after.maxsize == 64

    def test_the_shared_compiled_model_is_read_only(self):
        compiled = OpticalBench().compiled
        arrays = [getattr(compiled, f.name) for f in dataclasses.fields(compiled)
                  if isinstance(getattr(compiled, f.name), np.ndarray)]
        assert len(arrays) == 2  # p_controlled, decoded
        for array in arrays:
            assert not array.flags.writeable
            assert array.base is None or not array.base.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        table = OpticalBench().signature_table()
        with pytest.raises(TypeError):
            table[MessageSymbol.HH] = frozenset()
        split = compiled.branches[ALPHABET.index(MessageSymbol.HH)]
        state = split.lone_state
        with pytest.raises(TypeError):
            state.amplitudes[next(iter(state.amplitudes))] = 0j
        for law in (split.controlled_law, split.lone_law, split.resent_law):
            with pytest.raises(TypeError):
                law[next(iter(law))] = 0.0

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
        law = bench.analyze(bob_photon(bench, lone))
        assert compiled.branches[ALPHABET.index(symbol)].lone_law == law
        # scenario a lays it out for the message's wrong cell
        codes, thresholds = wired_law(compiled, "a", 2 * ALPHABET.index(symbol) + 1)
        assert [compiled.patterns[c] for c in codes] == sorted(law)
        assert thresholds == sorted_thresholds(law)

    def test_fresh_compile_branches_once_per_message(self, monkeypatch, fresh_compile_memo):
        calls = []

        def counted(state, modes):
            calls.append(modes)
            return branch_on_modes(state, modes)

        monkeypatch.setattr(protocol, "branch_on_modes", counted)
        bench = OpticalBench()
        bench.compiled
        assert calls == [protocol.MONITOR_MODES] * len(ALPHABET)

    def test_resent_pair_follows_the_click_branch(self):
        # an HH encoder whose plate sits at 22.5 degrees: on a click the monitor
        # detects V and the receiver's photon is left in (V - H)/sqrt(2)
        tilted = OpticalBench(Optics(hh=(("hwp", 22.5), ("polarizer", "H"))))
        reg = tilted.registry
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
        resent = compiled.branches[ALPHABET.index(MessageSymbol.HH)].resent_law
        assert resent == pytest.approx(law, abs=1e-12)
        # scenario b, sent as is, lays it out for HH's wrong cell, as its share of
        # HH's joint law: the words past HH's controlled threshold
        hh_wrong = 2 * ALPHABET.index(MessageSymbol.HH) + 1
        codes, _ = wired_law(compiled, "b-send-as-is", hh_wrong)
        assert [compiled.patterns[c] for c in codes] == sorted(law)
        p_wrong = compiled.branches[ALPHABET.index(MessageSymbol.HH)].wrong_probability
        assert 0.0 < p_wrong < 1.0
        drawn = drawn_law(compiled, "b-send-as-is", hh_wrong)
        assert drawn == {p: pytest.approx(p_wrong * q, abs=1e-12) for p, q in law.items()}
        # the receiver decodes what the optics give him, not the ideal complement
        config = RunConfig(Scenario.B, 400, 3, messages=(MessageSymbol.HH,))
        trials = run_session(config, tilted).trials
        wrong = {str(trials.table.patterns[p]) for p in trials.pattern[trials.branch == 1].tolist()}
        assert wrong - {"aV:2", "bV:2"}
        assert wrong <= set(as_strings(law))

    @pytest.mark.parametrize("law", [{}, {DetectionPattern.of(aH=2): 0.4}],
                             ids=["empty", "unnormalized"])
    def test_compile_rejects_a_law_that_does_not_sum_to_one(self, monkeypatch,
                                                             fresh_compile_memo, law):
        monkeypatch.setattr(protocol, "_analyze", lambda state, analyzer: law)
        with pytest.raises(ValueError, match="not 1"):
            OpticalBench().compiled
        assert fresh_compile_memo.cache_info().currsize == 0

    def test_bell_messages_have_no_lone_photon(self, bench):
        for symbol in (MessageSymbol.PSI_PLUS, MessageSymbol.PSI_MINUS):
            split = bench.encode_branches(symbol)
            assert split.lone_law is None and split.resent_law is None


# The ideal bench's compiled model, as float.hex literals: any drift of one
# ulp in a branch probability, a law or a boundary fails here. Each message's
# laws, in ALPHABET order, are (controlled, lone, resent), each as its
# (pattern, probability) pairs in pattern order, or None. Each wiring lays
# out per cell, 2 * message + wrong branch, its law's pattern codes and its
# boundary rows. In scenarios a and c row j holds running sum j of the cell's
# law, the last of which is no boundary (compiling holds it to 1 within
# 1e-9), and "inf" past a law's last boundary or for a stopped pair. Scenario
# b's rows hold each message's joint law instead, which
# `assert_b_draws_each_joint_law` holds to the optics on this bench and others.
# the splitter's 1/sqrt(2) entries round below it, once per photon: a lone
# photon's even split reads 1/2 - 2^-53, a pair's 1/2 - 2^-52
HALF = "0x1.ffffffffffffcp-2"
LONE_HALF = "0x1.ffffffffffffep-2"
PINNED_P_CONTROLLED = [
    "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.0000000000001p-1", "0x1.0000000000001p-1",
]
PINNED_LAWS = [
    ([("bH:1,bV:1", HALF), ("aH:1,aV:1", HALF)], None, None),
    ([("aV:1,bH:1", HALF), ("aH:1,bV:1", HALF)], None, None),
    ([("bH:2", HALF), ("aH:2", HALF)], [("bV:1", LONE_HALF), ("aV:1", LONE_HALF)],
     [("bV:2", HALF), ("aV:2", HALF)]),
    ([("bV:2", HALF), ("aV:2", HALF)], [("bH:1", LONE_HALF), ("aH:1", LONE_HALF)],
     [("bH:2", HALF), ("aH:2", HALF)]),
]
PINNED_WIRED_CODES = {
    "a": [[3, 10], [-1, -1], [6, 9], [-1, -1], [4, 11], [0, 5], [1, 7], [2, 8]],
    "b-send-as-is": [[3, 10], [-1, -1], [6, 9], [-1, -1], [4, 11], [1, 7], [1, 7], [4, 11]],
    "b-clone-intended": [[3, 10], [3, 10], [6, 9], [6, 9], [4, 11], [4, 11], [1, 7], [1, 7]],
    "c": [[3, 10], [-1, -1], [6, 9], [-1, -1], [4, 11], [-1, -1], [1, 7], [-1, -1]],
    "c-erase-notes": [[3, 10], [-1, -1], [6, 9], [-1, -1], [4, 11], [-1, -1], [1, 7], [-1, -1]],
}
PINNED_BOUNDARY_ROWS = {
    "a": [[HALF, "inf", HALF, "inf", HALF, LONE_HALF, HALF, LONE_HALF]],
    "c": [[HALF, "inf"] * 4],
    "c-erase-notes": [[HALF, "inf"] * 4],
}
PINNED_PATTERNS = [
    "bV:1", "bV:2", "bH:1", "bH:1,bV:1", "bH:2", "aV:1",
    "aV:1,bH:1", "aV:2", "aH:1", "aH:1,bV:1", "aH:1,aV:1", "aH:2",
]
PINNED_OUTCOMES = ["single_photon", "vv", "psi+", "hh", "psi-"]
PINNED_DECODED = [0, 1, 0, 2, 3, 0, 4, 1, 0, 4, 2, 3]


def test_ideal_compiled_model_is_pinned():
    compiled = OpticalBench().compiled
    assert [float(b.controlled_probability).hex() for b in compiled.branches] == (
        PINNED_P_CONTROLLED
    )
    assert [
        tuple(None if law is None else [(p.to_string(), q.hex()) for p, q in sorted(law.items())]
              for law in (b.controlled_law, b.lone_law, b.resent_law))
        for b in compiled.branches
    ] == PINNED_LAWS
    assert [p.to_string() for p in compiled.patterns] == PINNED_PATTERNS
    assert [o.label for o in compiled.outcomes] == PINNED_OUTCOMES
    assert compiled.decoded.tolist() == PINNED_DECODED
    for name, wiring in WIRINGS.items():
        _, _, bounds, table = session.wiring(compiled, *wiring)
        assert table.pattern.dtype == np.int16
        assert table.pattern.reshape(2 * len(ALPHABET), -1).tolist() == PINNED_WIRED_CODES[name]
        assert all(bound.dtype == np.uint64 and not bound.flags.writeable for bound in bounds)
        if name in PINNED_BOUNDARY_ROWS:
            assert [bound.tolist() for bound in bounds] == [
                raw_thresholds([float.fromhex(b) for b in row]).tolist()
                for row in PINNED_BOUNDARY_ROWS[name]
            ], name
    assert_b_draws_each_joint_law(compiled)


class TestMemoizedElements:
    """The elements a compiled model holds: built once per distinct optics, by
    the compile memo, and equal as values to the constructors' elements."""

    def test_fresh_benches_share_their_elements(self):
        first, second = OpticalBench(), OpticalBench(Optics())
        assert first.registry is second.registry
        assert second.optics == first.optics and second.compiled is first.compiled
        reg = first.registry
        expected = (
            beam_splitter(reg, ALICE, BOB), pbs(reg, ALICE, REFLECT_A), pbs(reg, BOB, REFLECT_B),
            hwp(reg, 0.0, ALICE),
            hwp(reg, 45.0, ALICE), polarizer_monitor(reg, ALICE, "H", MONITOR),
            hwp(reg, 45.0, ALICE), polarizer_monitor(reg, ALICE, "V", MONITOR),
        )
        compiled = first.compiled
        built = (*compiled.analyzer, *(e for encoder in compiled.encoders for e in encoder))
        assert as_values(built) == as_values(expected)
        assert [len(encoder) for encoder in compiled.encoders] == [0, 1, 2, 2]

    def test_a_replaced_analyzer_element_takes_effect(self):
        ideal = OpticalBench().compiled
        # a plate turned to 22.5 degrees in arm a, in front of its PBS
        specs = (("bs",), ("hwp", 22.5), ("pbs", ALICE), ("pbs", BOB))
        tilted = OpticalBench(Optics(analyzer=specs))
        plate = hwp(tilted.registry, 22.5, ALICE)
        expected = (ideal.analyzer[0], plate, *ideal.analyzer[1:])
        assert as_values(tilted.compiled.analyzer) == as_values(expected)
        assert tilted.compiled.composed_analyzer.name != ideal.composed_analyzer.name
        assert tilted.compiled.signatures != ideal.signatures
        # analyze applies the record's elements in order
        state = tilted.source_emit()
        for element in tilted.compiled.analyzer:
            state = apply_element(state, element)
        by_hand = outcome_distribution(state, protocol.ANALYZER_DETECTORS)
        law = tilted.analyze(tilted.source_emit())
        assert {p.counts for p in law} == set(by_hand)
        assert all(law[p] == pytest.approx(by_hand[p.counts], abs=1e-12) for p in law)
        restored = OpticalBench(Optics(analyzer=(specs[0], *specs[2:])))
        assert restored.compiled is ideal is OpticalBench().compiled

    def test_analyze_applies_the_compiled_analyzer(self, bench, monkeypatch):
        composed = bench.compiled.composed_analyzer
        assert as_values([composed]) == as_values([compose(bench.compiled.analyzer)])
        # the composed element is stored at compile time, never composed again
        monkeypatch.setattr(protocol, "compose", None)
        state = bench.source_emit()
        analyzed = apply_element(state, composed)
        by_hand = outcome_distribution(analyzed, protocol.ANALYZER_DETECTORS)
        assert {p.counts: q for p, q in bench.analyze(state).items()} == by_hand

    def test_elements_are_keyed_by_every_argument(self, bench):
        hwp45 = bench.compiled.encoders[ALPHABET.index(MessageSymbol.HH)][0]
        other = hwp(bench.registry, 22.5, ALICE)
        assert not np.array_equal(other.matrix, hwp45.matrix)
        assert as_values([hwp(bench.registry, 45.0, ALICE)]) == as_values([hwp45])
        on_bob = hwp(bench.registry, 45.0, BOB)
        assert on_bob.name != hwp45.name and on_bob.indices != hwp45.indices

    def test_elements_are_immutable(self, bench):
        bs = bench.compiled.analyzer[0]
        assert not bs.matrix.flags.writeable
        with pytest.raises(AttributeError):
            bs.name = "other"

    def test_second_fresh_bench_constructs_no_element(self, monkeypatch):
        OpticalBench().compiled
        built = []
        original = ModeUnitary.__post_init__

        def counted(self):
            built.append(self.name)
            original(self)

        monkeypatch.setattr(ModeUnitary, "__post_init__", counted)
        misses = protocol.compile_optics.cache_info().misses
        bench = OpticalBench()
        bench.compiled
        assert built == []
        assert protocol.compile_optics.cache_info().misses == misses
        assert vars(bench) == {"optics": Optics(), "compiled": bench.compiled}

    def test_a_patched_encoder_stays_on_its_bench(self):
        # psi- encoded like psi+ shares its detector patterns, equally likely
        patched = OpticalBench(Optics(psi_minus=()))
        for pattern in (DetectionPattern.of(aH=1, aV=1), DetectionPattern.of(bH=1, bV=1)):
            assert patched.classify(pattern).verdict is Verdict.AMBIGUOUS
        assert patched.classify(DetectionPattern.of(aH=2)).symbol is MessageSymbol.HH
        fresh = OpticalBench()
        assert fresh.optics.psi_minus == (("hwp", 0.0),)
        (plate,) = fresh.compiled.encoders[ALPHABET.index(MessageSymbol.PSI_MINUS)]
        assert as_values([plate]) == as_values([hwp(fresh.registry, 0.0, ALICE)])
        assert {s: sorted(map(str, p)) for s, p in fresh.signature_table().items()} == {
            symbol: sorted(EXPECTED_ANALYZE[symbol]) for symbol in ALPHABET
        }


# plate angles on a 7.5-degree grid
PLATES = st.builds(lambda k: ("hwp", 7.5 * k), st.integers(-12, 12))
POLARIZERS = st.sampled_from([("polarizer", "H"), ("polarizer", "V")])
ENCODERS = st.lists(st.one_of(PLATES, POLARIZERS), max_size=3).map(tuple)
FIELDS = ("psi_plus", "psi_minus", "hh", "vv")


class TestOpticsRecord:
    def test_the_ideal_record_is_the_paper_bench(self):
        optics = Optics()
        assert optics.encoders == (
            (), (("hwp", 0.0),), (("hwp", 45.0), ("polarizer", "H")),
            (("hwp", 45.0), ("polarizer", "V")),
        )
        assert optics.analyzer == (("bs",), ("pbs", ALICE), ("pbs", BOB))
        assert OpticalBench().optics == optics and hash(OpticalBench().optics) == hash(optics)

    def test_the_record_is_frozen(self):
        optics = Optics()
        for field in (*FIELDS, "analyzer"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(optics, field, ())
        assert optics == Optics()

    def test_an_encoder_that_clicks_two_ways_is_a_protocol_error(self):
        # a plate between two crossed polarizers: the first rejects V, the second H
        optics = Optics(psi_plus=(("polarizer", "H"), ("hwp", 7.5), ("polarizer", "V")))
        with pytest.raises(ProtocolError, match="PSI_PLUS") as raised:
            OpticalBench(optics)
        assert "2 click branches" in str(raised.value)
        assert "monitor.H" in str(raised.value) and "monitor.V" in str(raised.value)

    @pytest.mark.parametrize("spec", [("hwp",), ("plate", 0.0), ("polarizer", "D"),
                                      ("pbs", MONITOR), ("bs", 0.5)])
    def test_an_unknown_element_spec_is_rejected(self, spec):
        with pytest.raises(ValueError, match="not an element spec|orientation must be"):
            OpticalBench(Optics(psi_plus=(spec,)))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FIELDS), ENCODERS, st.integers(0, 2), st.one_of(PLATES, POLARIZERS))
    def test_equal_records_share_one_model_and_others_never(self, field, specs, index, spec):
        optics = Optics(**{field: specs})
        twin = Optics(**{field: tuple(tuple(list(spec)) for spec in specs)})  # built anew
        assert twin == optics and twin is not optics
        try:
            compiled = OpticalBench(optics).compiled
        except ProtocolError:  # an encoder whose monitor always clicks, or clicks two ways
            with pytest.raises(ProtocolError):
                OpticalBench(twin)
            return
        assert OpticalBench(twin).compiled is compiled
        index = min(index, len(specs))  # past the last spec: one more spec, at most three
        changed = (*specs[:index], spec, *specs[index + 1:])
        if changed != specs:  # one spec differs
            with contextlib.suppress(ProtocolError):
                assert OpticalBench(Optics(**{field: changed})).compiled is not compiled


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


ANY_PLATE = st.floats(-180.0, 180.0, allow_nan=False).map(lambda theta: ("hwp", theta))
ANY_ENCODER = st.lists(st.one_of(ANY_PLATE, POLARIZERS), max_size=3).map(tuple)
# plates and the beam splitter in any order, then both PBSs, so that every
# photon reaches a detector
ANY_ANALYZER = st.lists(st.one_of(ANY_PLATE, st.just(("bs",))), max_size=3).map(
    lambda specs: (*specs, ("pbs", ALICE), ("pbs", BOB)))


def oracle_law(amplitudes, transfer):
    """The analyzer law of the state with these Fock-basis `amplitudes` by the dense
    reference path, keyed by pattern."""
    detectors = [REGISTRY.index(mode) for mode in protocol.ANALYZER_DETECTORS]
    law = {}
    for modes, p in oracle.state_distribution(amplitudes, transfer).items():
        assert set(modes) <= set(detectors), "oracle photon landed off-detector"
        pattern = DetectionPattern(tuple(modes.count(i) for i in detectors))
        law[pattern] = law.get(pattern, 0.0) + p
    return law


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional={**{field: ANY_ENCODER for field in FIELDS},
                                           "analyzer": ANY_ANALYZER}))
def test_each_branch_law_is_the_law_of_its_state(fields):
    """Every law a compiled branch carries is `analyze` of that branch's own
    state, bit for bit, and the dense path's law of it to 1e-12."""
    try:
        bench = OpticalBench(Optics(**fields))
    except ProtocolError:  # an encoder whose monitor always clicks, or clicks two ways
        assume(False)
    transfer = oracle.compose(list(bench.compiled.analyzer), REGISTRY)
    for split in bench.compiled.branches:
        for state, law in ((split.controlled_state, split.controlled_law),
                           (split.lone_state, split.lone_law),
                           (split.resent_state, split.resent_law)):
            if state is None:
                assert law is None
                continue
            with pytest.raises(TypeError):  # read-only
                law[next(iter(law))] = 0.0
            assert list(law.items()) == list(bench.analyze(state).items())
            reference = oracle_law(state.amplitudes, transfer)
            for pattern in law.keys() | reference.keys():
                assert law.get(pattern, 0.0) == pytest.approx(reference.get(pattern, 0.0),
                                                              abs=1e-12)


def test_a_tiny_plate_keeps_what_it_leaks():
    """A psi- plate turned by 1e-6 degrees leaks 3.05e-16 into each of four
    patterns of its controlled law. That is far above PROBABILITY_FLOOR, the one
    place a count is dropped, so the law keeps them: its support and values are
    the dense reference path's over the encoder and the analyzer, fed the source
    pair's Fock amplitudes written out by hand."""
    compiled = OpticalBench(Optics(psi_minus=(("hwp", 1e-6),))).compiled
    message = ALPHABET.index(MessageSymbol.PSI_MINUS)
    law = compiled.branches[message].controlled_law
    transfer = oracle.compose([*compiled.encoders[message], *compiled.analyzer], REGISTRY)
    occupation = {}
    for alice, bob in ("HV", "VH"):
        occ = [0] * len(REGISTRY)
        occ[REGISTRY.index(ModeLabel(ALICE, alice))] = occ[REGISTRY.index(ModeLabel(BOB, bob))] = 1
        occupation[tuple(occ)] = INV_SQRT2
    reference = oracle_law(occupation, transfer)
    assert law.keys() == reference.keys()
    assert all(law[p] == pytest.approx(reference[p], abs=1e-12) for p in law)
    leaked = sorted(p for p in law.values() if p < 1e-12)
    assert len(leaked) == 4 and leaked == pytest.approx([3.05e-16] * 4, rel=1e-2)


@settings(max_examples=40, deadline=None)
@given(st.fixed_dictionaries({}, optional={field: ANY_ENCODER for field in FIELDS}))
@example({"hh": (("hwp", 22.5), ("polarizer", "H"))})  # HH's resent pair has 6 patterns
@example({"psi_minus": (("hwp", 22.5),)})  # a wider controlled law, p = 1
@example({"hh": ()})  # HH sent as psi+, p = 1: its clone-intended wrong cell is never drawn
@example({"analyzer": (("bs",), ("hwp", 22.5), ("pbs", ALICE), ("pbs", BOB))})
def test_scenario_b_lays_out_each_messages_joint_law(fields):
    try:
        bench = OpticalBench(Optics(**fields))
    except ProtocolError:  # an encoder whose monitor always clicks, or clicks two ways
        assume(False)
    assert_b_draws_each_joint_law(bench.compiled)
