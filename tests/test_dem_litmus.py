"""Litmus cells for the backward DEM walk.

One minimal circuit per cell of the extractor's interaction surface, in
the spirit of TransForm's per-cell tests: merge pattern (a unique
signature, a merged group, an invisible fault, an undetectable logical
fault), channel kind (``PAULI_CHANNEL_1``/``_2`` with zero entries, the
profile, crosstalk and drift lowerings), gate class (H, MX, RX, chained
CNOT groups) and annotation pattern (a measurement referenced twice by
one detector or observable).  Every cell is compared exactly with the
forward-propagation oracle, merged and unmerged, and pins its own
expected shape.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from dem_oracle import oracle_extract_dem
from scipy import sparse
from test_sim_crosscheck import TARGETED_SPECS, random_clifford_noise_circuit

from repro.circuits import build_memory_experiment, nz_schedule
from repro.circuits.circuit import Circuit
from repro.circuits.gates import register_noise_gate, unregister_noise_gate
from repro.codes import rotated_surface_code
from repro.gf2 import unpack_rows
from repro.noise import DeviceProfile, DriftSchedule, NoiseSpec
from repro.sim import DetectorErrorModel, ErrorMechanism, extract_dem


def assert_matches_oracle(circuit: Circuit):
    """Both merge modes equal the oracle exactly; returns the merged DEM."""
    for merge in (True, False):
        want = oracle_extract_dem(circuit, merge=merge)
        got = extract_dem(circuit, merge=merge)
        assert got.fingerprint() == want.fingerprint()
        assert got.detector_labels == want.detector_labels
        assert got.mechanisms == want.mechanisms
        assert_locate_matches_sources(got)
    return extract_dem(circuit)


def assert_locate_matches_sources(dem):
    """``locate_fault`` answers as an index over every source would."""
    index = {}
    for j, mech in enumerate(dem.mechanisms):
        for src in mech.sources:
            index[(src.label, src.pauli)] = j
    for key, j in index.items():
        assert dem.locate_fault(*key) == j
    assert dem.locate_fault(("no such gate",), "X0") == -1


def one_qubit(*noise, measure="M", reset="R") -> Circuit:
    """Reset qubit 0, apply ``noise`` ops, measure, one detector."""
    c = Circuit()
    c.append(reset, [0])
    for gate, targets, args in noise:
        c.append(gate, targets, args, label=("n", gate))
    c.append(measure, [0])
    c.append("DETECTOR", [0], label=("d",))
    return c


class TestMergePatterns:
    def test_unique_signature(self):
        # Only X has weight: one mechanism with one source.
        dem = assert_matches_oracle(
            one_qubit(("PAULI_CHANNEL_1", [0], [0.01, 0.0, 0.0]))
        )
        assert dem.num_errors == 1
        assert [s.pauli for s in dem.mechanisms[0].sources] == ["X0"]
        assert dem.fault_mechanism.tolist() == [0]

    def test_merged_group_and_invisible_fault(self):
        # X and Y flip the Z measurement and merge; Z flips nothing.
        dem = assert_matches_oracle(one_qubit(("DEPOLARIZE1", [0], [0.03])))
        assert dem.num_errors == 1
        assert [s.pauli for s in dem.mechanisms[0].sources] == ["X0", "Y0"]
        assert dem.fault_mechanism.tolist() == [0, 0, -1]
        assert dem.probs[0] == 0.01 * (1 - 0.01) + 0.01 * (1 - 0.01)

    def test_all_faults_invisible(self):
        c = Circuit()
        c.append("DEPOLARIZE1", [0], [0.03])
        c.append("R", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = assert_matches_oracle(c)
        assert dem.num_errors == 0
        assert dem.fault_mechanism.tolist() == [-1, -1, -1]
        assert dem.check_matrices()[0].shape == (1, 0)

    def test_undetectable_logical(self):
        c = Circuit()
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], [0.03])
        c.append("M", [0])
        c.append("OBSERVABLE_INCLUDE", [0], [0])
        dem = assert_matches_oracle(c)
        (mech,) = dem.undetectable_logical_mechanisms()
        assert mech.detectors == () and mech.observables == (0,)

    def test_merge_across_noise_ops_keeps_site_order(self):
        c = one_qubit(
            ("PAULI_CHANNEL_1", [0], [0.0, 0.02, 0.0]),
            ("DEPOLARIZE1", [0], [0.03]),
        )
        dem = assert_matches_oracle(c)
        assert [s.pauli for s in dem.mechanisms[0].sources] == ["Y0", "X0", "Y0"]


class TestChannelKinds:
    def test_pauli_channel_2_with_zero_entries(self):
        probs = [0.0] * 15
        probs[0] = 0.01  # IX
        probs[4] = 0.02  # XX
        probs[14] = 0.03  # ZZ (invisible to Z measurements)
        c = Circuit()
        c.append("R", [0, 1])
        c.append("PAULI_CHANNEL_2", [0, 1], probs, label=("pc2",))
        c.append("CNOT", [0, 1])
        c.append("M", [0, 1])
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1])
        dem = assert_matches_oracle(c)
        # Three faults emitted (zero entries dropped), two visible.
        assert dem.fault_slot.tolist() == [0, 4, 14]
        assert dem.fault_mechanism.tolist() == [0, 1, -1]

    def test_depolarize_with_zero_rate_keeps_its_faults(self):
        dem = assert_matches_oracle(one_qubit(("DEPOLARIZE1", [0], [0.0])))
        assert dem.probs.tolist() == [0.0]
        assert len(dem.fault_op) == 3

    @pytest.mark.parametrize(
        "spec",
        [
            NoiseSpec.depolarizing(
                0.01,
                readout=0.005,
                profile=DeviceProfile(qubits={0: 2.0, 3: 0.5}, gates={"cnot": 1.3}),
            ),
            NoiseSpec(crosstalk=0.01),
            NoiseSpec.depolarizing(0.01, drift=DriftSchedule.linear(0.5, 1.5, 3)),
        ],
        ids=["profile", "crosstalk", "drift"],
    )
    def test_spec_lowerings_on_surface_d3(self, spec):
        code = rotated_surface_code(3)
        circuit = build_memory_experiment(code, nz_schedule(code), rounds=2).circuit
        assert assert_matches_oracle(spec.apply(circuit)).num_errors > 0

    @pytest.mark.parametrize("name", sorted(TARGETED_SPECS))
    def test_targeted_specs_on_random_circuits(self, name):
        rng = np.random.default_rng(7)
        circuit = random_clifford_noise_circuit(rng, include_noise=False)
        assert_matches_oracle(TARGETED_SPECS[name].apply(circuit))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_clifford_noise_circuits(self, seed):
        rng = np.random.default_rng(seed)
        assert_matches_oracle(random_clifford_noise_circuit(rng))


class TestGatePaths:
    def test_h_swaps_sensitivity_rows(self):
        c = Circuit()
        c.append("R", [0])
        c.append("H", [0])
        c.append("DEPOLARIZE1", [0], [0.03])
        c.append("H", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = assert_matches_oracle(c)
        assert [s.pauli for s in dem.mechanisms[0].sources] == ["Y0", "Z0"]

    def test_rx_mx_path(self):
        dem = assert_matches_oracle(
            one_qubit(("DEPOLARIZE1", [0], [0.03]), measure="MX", reset="RX")
        )
        assert [s.pauli for s in dem.mechanisms[0].sources] == ["Y0", "Z0"]

    def test_chained_cnot_groups_in_one_op(self):
        # CNOT 0->1 then 1->2 in one op: X on 0 reaches qubit 2 only
        # because the groups apply in order.
        c = Circuit()
        c.append("R", [0, 1, 2])
        c.append("DEPOLARIZE1", [0, 1, 2], [0.03])
        c.append("CNOT", [0, 1, 1, 2])
        c.append("M", [0, 1, 2])
        for m in range(3):
            c.append("DETECTOR", [m])
        dem = assert_matches_oracle(c)
        assert dem.mechanisms[0].detectors == (0, 1, 2)
        assert dem.mechanisms[0].sources[0].pauli == "X0"


class TestRepeatedReferences:
    def test_detector_referencing_a_measurement_twice_cancels_it(self):
        c = Circuit()
        c.append("R", [0, 1])
        c.append("DEPOLARIZE1", [0, 1], [0.03])
        c.append("M", [0, 1])
        c.append("DETECTOR", [0, 0, 1])
        c.append("DETECTOR", [0])
        dem = assert_matches_oracle(c)
        assert sorted(m.detectors for m in dem.mechanisms) == [(0,), (1,)]

    def test_observable_referencing_a_measurement_twice_cancels_it(self):
        c = Circuit()
        c.append("R", [0, 1])
        c.append("DEPOLARIZE1", [0, 1], [0.03])
        c.append("M", [0, 1])
        c.append("DETECTOR", [0])
        c.append("OBSERVABLE_INCLUDE", [0, 1, 0], [1])
        dem = assert_matches_oracle(c)
        assert dem.num_observables == 2
        assert sorted((m.detectors, m.observables) for m in dem.mechanisms) == [
            ((), (1,)),
            ((0,), ()),
        ]


class TestArraysAndViews:
    @pytest.fixture
    def dem(self):
        code = rotated_surface_code(3)
        circuit = build_memory_experiment(code, nz_schedule(code), rounds=2).circuit
        return extract_dem(NoiseSpec.depolarizing(0.01).apply(circuit))

    def test_check_matrices_match_the_mechanism_construction(self, dem):
        h, l_mat = dem.check_matrices()
        for matrix, field, rows in (
            (h, "detectors", dem.num_detectors),
            (l_mat, "observables", dem.num_observables),
        ):
            pairs = [
                (r, j) for j, m in enumerate(dem.mechanisms) for r in getattr(m, field)
            ]
            want = sparse.csr_matrix(
                (np.ones(len(pairs), dtype=np.uint8), tuple(zip(*pairs))),
                shape=(rows, dem.num_errors),
            )
            assert matrix.format == "csr"
            assert matrix.dtype == want.dtype
            np.testing.assert_array_equal(matrix.indptr, want.indptr)
            np.testing.assert_array_equal(matrix.indices, want.indices)
        # H's packed columns: one row per mechanism, detector bits only.
        words = dem.detector_words()
        assert words.shape == (dem.num_errors, -(-dem.num_detectors // 64))
        np.testing.assert_array_equal(
            unpack_rows(words, words.shape[1] * 64),
            np.pad(h.T.toarray(), ((0, 0), (0, words.shape[1] * 64 - h.shape[0]))),
        )

    def test_mechanisms_are_built_once_and_frozen(self, dem):
        assert dem.mechanisms is dem.mechanisms
        with pytest.raises(dataclasses.FrozenInstanceError):
            dem.mechanisms[0].prob = 0.0
        with pytest.raises(ValueError):
            dem.probs[0] = 0.0
        with pytest.raises(ValueError):
            dem.signatures[0] = 0

    @pytest.mark.parametrize("materialize", [False, True])
    def test_pickle_round_trip(self, dem, materialize):
        if materialize:
            dem.mechanisms
        clone = pickle.loads(pickle.dumps(dem))
        assert clone.fingerprint() == dem.fingerprint()
        assert clone.mechanisms == dem.mechanisms

    def test_from_mechanisms_round_trips(self, dem):
        clone = DetectorErrorModel.from_mechanisms(
            dem.mechanisms, dem.num_detectors, dem.num_observables
        )
        assert clone.fingerprint() == dem.fingerprint()
        np.testing.assert_array_equal(clone.signatures, dem.signatures)
        assert clone.mechanisms == dem.mechanisms

    def test_from_mechanisms_rejects_unsorted_support(self):
        mech = ErrorMechanism(prob=0.1, detectors=(1, 0), observables=(), sources=())
        with pytest.raises(ValueError, match="strictly increasing"):
            DetectorErrorModel.from_mechanisms([mech], 2, 0)


def test_unlowered_noise_gate_raises():
    register_noise_gate("STUB_NOISE", arity=1, num_args=1)
    try:
        c = Circuit()
        c.append("R", (0,))
        c.append("STUB_NOISE", (0,), (0.01,))
        c.append("M", (0,))
        c.append("DETECTOR", (0,))
        for extract in (extract_dem, oracle_extract_dem):
            with pytest.raises(
                ValueError, match="no lowering for noise gate 'STUB_NOISE'"
            ):
                extract(c)
    finally:
        unregister_noise_gate("STUB_NOISE")
