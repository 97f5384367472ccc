import math

import numpy as np
import pytest

from sdcsim.elements import beam_splitter, hwp, pbs, polarizer_monitor
from sdcsim.fock import (
    ModeLabel,
    ModeRegistry,
    apply_element,
    branch_on_modes,
    make_state,
    outcome_distribution,
    superpose,
    unitarity_defect,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@pytest.fixture
def reg():
    return ModeRegistry.for_paths(["alice", "bob", "monitor"])


def one_photon(reg, path, pol):
    return make_state(reg, [ModeLabel(path, pol)])


def probability_on(state, label):
    idx = state.registry.index(label)
    return sum(abs(a) ** 2 for occ, a in state.amplitudes.items() if occ[idx])


class TestBeamSplitter:
    def test_unitary(self, reg):
        assert unitarity_defect(beam_splitter(reg, "alice", "bob").matrix) < 1e-12

    def test_identical_paths_rejected(self, reg):
        with pytest.raises(ValueError):
            beam_splitter(reg, "alice", "alice")

    def test_single_photon_fifty_fifty(self, reg):
        out = apply_element(one_photon(reg, "alice", "H"), beam_splitter(reg, "alice", "bob"))
        assert probability_on(out, ModeLabel("alice", "H")) == pytest.approx(0.5, abs=1e-12)
        assert probability_on(out, ModeLabel("bob", "H")) == pytest.approx(0.5, abs=1e-12)

    def test_perpendicular_photons_bunch_half_the_time(self, reg):
        state = make_state(reg, [ModeLabel("alice", "H"), ModeLabel("bob", "V")])
        out = apply_element(state, beam_splitter(reg, "alice", "bob"))
        dist = outcome_distribution(out, reg.labels)
        same_side = 0.0
        for occ, p in dist.items():
            on_alice = occ[reg.index(ModeLabel("alice", "H"))] + occ[reg.index(ModeLabel("alice", "V"))]
            if on_alice in (0, 2):
                same_side += p
        assert same_side == pytest.approx(0.5, abs=1e-12)

    def test_psi_plus_always_bunches(self, reg):
        hv = make_state(reg, [ModeLabel("alice", "H"), ModeLabel("bob", "V")])
        vh = make_state(reg, [ModeLabel("alice", "V"), ModeLabel("bob", "H")])
        psi_plus = superpose([(INV_SQRT2, hv), (INV_SQRT2, vh)])
        out = apply_element(psi_plus, beam_splitter(reg, "alice", "bob"))
        split = 0.0
        for occ, p in outcome_distribution(out, reg.labels).items():
            on_alice = occ[reg.index(ModeLabel("alice", "H"))] + occ[reg.index(ModeLabel("alice", "V"))]
            if on_alice == 1:
                split += p
        assert split == pytest.approx(0.0, abs=1e-12)


class TestPBS:
    def test_is_permutation(self, reg):
        mat = pbs(reg, "alice", "bob").matrix
        assert np.array_equal(np.abs(mat), np.abs(mat) ** 2)  # entries 0/1
        assert unitarity_defect(mat) < 1e-12

    def test_h_transmits_v_reflects(self, reg):
        element = pbs(reg, "alice", "bob")
        out_h = apply_element(one_photon(reg, "alice", "H"), element)
        assert probability_on(out_h, ModeLabel("alice", "H")) == pytest.approx(1.0)
        out_v = apply_element(one_photon(reg, "alice", "V"), element)
        assert probability_on(out_v, ModeLabel("bob", "V")) == pytest.approx(1.0)

    def test_separates_hv_on_one_path(self, reg):
        state = make_state(reg, [ModeLabel("alice", "H"), ModeLabel("alice", "V")])
        out = apply_element(state, pbs(reg, "alice", "bob"))
        dist = outcome_distribution(out, reg.labels)
        ah = reg.index(ModeLabel("alice", "H"))
        bv = reg.index(ModeLabel("bob", "V"))
        (pattern, p), = dist.items()
        assert p == pytest.approx(1.0, abs=1e-12)
        assert pattern[ah] == 1 and pattern[bv] == 1

    def test_applied_twice_is_identity(self, reg):
        element = pbs(reg, "alice", "bob")
        state = make_state(reg, [ModeLabel("alice", "V"), ModeLabel("bob", "H")])
        back = apply_element(apply_element(state, element), element)
        assert back.fidelity(state) == pytest.approx(1.0, abs=1e-12)


class TestHWP:
    @pytest.mark.parametrize("theta", [0.0, 22.5, 45.0, 67.5, 90.0, 123.4])
    def test_unitary_at_any_angle(self, reg, theta):
        assert unitarity_defect(hwp(reg, theta, "alice").matrix) < 1e-12

    def test_zero_degrees_flips_v_sign(self, reg):
        mat = hwp(reg, 0.0, "alice").matrix
        assert np.allclose(mat, np.diag([1.0, -1.0]))

    def test_zero_degrees_maps_psi_plus_to_psi_minus(self, reg):
        hv = make_state(reg, [ModeLabel("alice", "H"), ModeLabel("bob", "V")])
        vh = make_state(reg, [ModeLabel("alice", "V"), ModeLabel("bob", "H")])
        psi_plus = superpose([(INV_SQRT2, hv), (INV_SQRT2, vh)])
        psi_minus = superpose([(INV_SQRT2, hv), (-INV_SQRT2, vh)])
        out = apply_element(psi_plus, hwp(reg, 0.0, "alice"))
        assert out.fidelity(psi_minus) == pytest.approx(1.0, abs=1e-12)

    def test_45_degrees_exchanges_h_and_v(self, reg):
        out = apply_element(one_photon(reg, "alice", "H"), hwp(reg, 45.0, "alice"))
        assert probability_on(out, ModeLabel("alice", "V")) == pytest.approx(1.0, abs=1e-12)

    def test_45_degrees_maps_psi_plus_to_phi_plus(self, reg):
        # this Jones convention lands on (|HH>+|VV>)/sqrt(2); the sign is a
        # gauge choice with no effect on any detector statistics downstream
        hv = make_state(reg, [ModeLabel("alice", "H"), ModeLabel("bob", "V")])
        vh = make_state(reg, [ModeLabel("alice", "V"), ModeLabel("bob", "H")])
        psi_plus = superpose([(INV_SQRT2, hv), (INV_SQRT2, vh)])
        hh = make_state(reg, [ModeLabel("alice", "H"), ModeLabel("bob", "H")])
        vv = make_state(reg, [ModeLabel("alice", "V"), ModeLabel("bob", "V")])
        phi_plus = superpose([(INV_SQRT2, hh), (INV_SQRT2, vv)])
        out = apply_element(psi_plus, hwp(reg, 45.0, "alice"))
        assert out.fidelity(phi_plus) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 22.5, 45.0, 80.0])
    def test_involutive_up_to_phase(self, reg, theta):
        element = hwp(reg, theta, "alice")
        state = superpose(
            [(0.6, one_photon(reg, "alice", "H")), (0.8, one_photon(reg, "alice", "V"))]
        )
        twice = apply_element(apply_element(state, element), element)
        assert twice.fidelity(state) == pytest.approx(1.0, abs=1e-12)


class TestPolarizerMonitor:
    def test_pass_h_keeps_h(self, reg):
        element = polarizer_monitor(reg, "alice", "H", "monitor")
        out = apply_element(one_photon(reg, "alice", "H"), element)
        assert probability_on(out, ModeLabel("alice", "H")) == pytest.approx(1.0)
        assert probability_on(out, ModeLabel("monitor", "V")) == 0.0

    def test_pass_h_reroutes_v_to_monitor(self, reg):
        element = polarizer_monitor(reg, "alice", "H", "monitor")
        out = apply_element(one_photon(reg, "alice", "V"), element)
        assert probability_on(out, ModeLabel("monitor", "V")) == pytest.approx(1.0)

    def test_diagonal_input_clicks_half_the_time(self, reg):
        element = polarizer_monitor(reg, "alice", "H", "monitor")
        diag = superpose(
            [(INV_SQRT2, one_photon(reg, "alice", "H")), (INV_SQRT2, one_photon(reg, "alice", "V"))]
        )
        out = apply_element(diag, element)
        branches = branch_on_modes(out, reg.modes_on_path("monitor"))
        click = sum(p for counts, (p, _) in branches.items() if sum(counts))
        assert click == pytest.approx(0.5, abs=1e-12)

    def test_postselection_projects(self, reg):
        # keeping only silent-monitor runs must leave the normalized H component
        element = polarizer_monitor(reg, "alice", "H", "monitor")
        state = superpose(
            [(0.6, one_photon(reg, "alice", "H")), (0.8, one_photon(reg, "alice", "V"))]
        )
        out = apply_element(state, element)
        branches = branch_on_modes(out, reg.modes_on_path("monitor"))
        _, kept = branches[(0, 0)]
        assert kept.fidelity(one_photon(reg, "alice", "H")) == pytest.approx(1.0, abs=1e-12)

    def test_monitor_must_differ_from_input(self, reg):
        with pytest.raises(ValueError):
            polarizer_monitor(reg, "alice", "H", "alice")

    def test_bad_orientation(self, reg):
        with pytest.raises(ValueError):
            polarizer_monitor(reg, "alice", "X", "monitor")

