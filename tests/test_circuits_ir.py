"""Tests for the circuit IR (gates + container)."""

import pytest

from repro.circuits import Circuit, Operation


class TestOperation:
    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            Operation("FOO", (0,))

    def test_cnot_arity(self):
        Operation("CNOT", (0, 1, 2, 3))  # two applications
        with pytest.raises(ValueError):
            Operation("CNOT", (0, 1, 2))

    def test_pauli_channel_args(self):
        Operation("PAULI_CHANNEL_1", (0,), (0.1, 0.1, 0.1))
        with pytest.raises(ValueError):
            Operation("PAULI_CHANNEL_1", (0,), (0.1,))

    def test_depolarize_args(self):
        with pytest.raises(ValueError):
            Operation("DEPOLARIZE1", (0,), ())

    def test_observable_include_needs_index(self):
        with pytest.raises(ValueError):
            Operation("OBSERVABLE_INCLUDE", (0,), ())

    def test_target_groups(self):
        op = Operation("CNOT", (0, 1, 2, 3))
        assert op.target_groups() == [(0, 1), (2, 3)]

    def test_str(self):
        op = Operation("DEPOLARIZE1", (3,), (0.01,))
        assert "DEPOLARIZE1" in str(op)
        assert "0.01" in str(op)

    def test_label_not_compared(self):
        a = Operation("H", (0,), label=("x",))
        b = Operation("H", (0,), label=("y",))
        assert a == b


class TestCircuit:
    def make_small(self):
        c = Circuit()
        c.append("R", [0, 1])
        c.tick()
        c.append("H", [0])
        c.tick()
        c.append("CNOT", [0, 1])
        c.tick()
        c.append("M", [0, 1])
        c.append("DETECTOR", [0])
        c.append("OBSERVABLE_INCLUDE", [1], args=[0])
        return c

    def test_counts(self):
        c = self.make_small()
        assert c.num_qubits == 2
        assert c.num_measurements == 2
        assert c.num_detectors == 1
        assert c.num_observables == 1
        assert c.count_gate("CNOT") == 1

    def test_num_layers(self):
        assert self.make_small().num_layers() == 4

    def test_validate_ok(self):
        self.make_small().validate()

    def test_validate_bad_measurement_reference(self):
        c = Circuit()
        c.append("M", [0])
        c.append("DETECTOR", [3])
        with pytest.raises(ValueError):
            c.validate()

    def test_validate_double_touch_in_layer(self):
        c = Circuit()
        c.append("H", [0])
        c.append("CNOT", [0, 1])
        with pytest.raises(ValueError):
            c.validate()

    def test_without_noise(self):
        c = self.make_small()
        c.append("DEPOLARIZE1", [0], args=[0.1])
        assert c.without_noise().count_gate("DEPOLARIZE1") == 0
        assert c.count_gate("DEPOLARIZE1") == 1

    def test_extend_and_eq(self):
        a = self.make_small()
        b = Circuit()
        b.extend(a)
        assert b == a

    def test_str_roundtrip_is_readable(self):
        text = str(self.make_small())
        assert "CNOT 0 1" in text
        assert "DETECTOR" in text


class TestOpTable:
    """The circuit is an op table; ``Operation``s are views of its rows."""

    def test_append_checks_each_instruction(self):
        c = Circuit()
        with pytest.raises(ValueError, match="unknown gate"):
            c.append("FOO", [0])
        with pytest.raises(ValueError, match="groups of 2"):
            c.append("CNOT", [0, 1, 2])
        with pytest.raises(ValueError, match="probability argument"):
            c.append("PAULI_CHANNEL_1", [0], [0.1])
        assert len(c) == 0

    def test_rows_and_views(self):
        c = Circuit()
        c.append("CNOT", [0, 1, 2, 3], label=("cnot", 0))
        c.append("DEPOLARIZE2", [0, 1, 2, 3], [0.01], label=("cnot", 0))
        c.append("OBSERVABLE_INCLUDE", [], [1])
        t = c.table
        assert t.target_ptr.tolist() == [0, 4, 8, 8]
        assert t.arg_ptr.tolist() == [0, 0, 1, 2]
        assert c.labels == [("cnot", 0), ()]  # interned once
        assert t.label_ids.tolist() == [0, 0, 1]
        op = list(c)[1]
        assert (op.gate, op.targets, op.args, op.label) == (
            "DEPOLARIZE2",
            (0, 1, 2, 3),
            (0.01,),
            ("cnot", 0),
        )
        assert c.num_observables == 2

    def test_views_follow_appends(self):
        c = Circuit()
        c.append("H", [0])
        assert [op.gate for op in c] == ["H"]
        c.append("M", [0])
        assert [op.gate for op in c] == ["H", "M"] and c.num_qubits == 1

    def test_equality_ignores_labels(self):
        a, b = Circuit(), Circuit()
        a.append("H", [0], label=("x",))
        b.append("H", [0], label=("y",))
        assert a == b
        b.append("H", [1])
        assert a != b

    def test_pickle_drops_the_views(self):
        import pickle

        c = TestCircuit().make_small()
        list(c)  # build the views
        clone = pickle.loads(pickle.dumps(c))
        assert clone._ops is None
        assert clone == c and clone.labels == c.labels

    def test_validate_reports_the_first_fault_in_op_order(self):
        c = Circuit()
        c.append("M", [0])
        c.append("DETECTOR", [1])
        c.append("H", [0])  # second touch of qubit 0, after the bad reference
        with pytest.raises(ValueError, match="references measurement 1, only 1"):
            c.validate()
