"""Both kernel backends run DEM extraction's two loops byte for byte alike.

``repro.gf2.kernels.walk_back`` (the backward sensitivity walk over an
op table) and ``group_faults`` (first-occurrence grouping of fault
signatures with probabilities composed in site order) have a ``numpy``
reference — the Python-int walk and the ``unique``/``argsort`` grouping
extraction used before — and a C kernel.  Every case compares the two
on the kernel itself and on the whole extracted DEM (probabilities,
signatures and fault provenance, dtypes included):

* rows of one, two and three words (detectors + observables past 128);
* a fault that flips nothing;
* ``merge=False``;
* explicit ``PAULI_CHANNEL_*`` zero slots dropped, ``DEPOLARIZE*``
  zero slots kept;
* a mechanism of three or more faults whose composed probability
  changes if the site order changes;
* an empty circuit.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import Circuit, build_memory_experiment, coloration_schedule
from repro.circuits.gates import GATE_CODES, GATE_NAMES
from repro.codes import load_benchmark_code, rotated_surface_code
from repro.gf2 import kernels
from repro.noise import NoiseModel
from repro.sim import extract_dem

pytestmark = pytest.mark.skipif(
    "cnative" not in kernels.available_backends(), reason="no C compiler here"
)


def native_kernel(name):
    """The C kernel itself (no self-test stand-in, no fallback)."""
    native = kernels._native_backend()
    return getattr(type(native), name).__get__(native)


def assert_arrays_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_extraction_equal(circuit, merge=True):
    """The whole DEM is the same under both backends; returns it."""
    dems = []
    for name in ("cnative", "numpy"):
        with kernels.use_backend(name):
            dem = extract_dem(circuit, merge=merge)
        provenance = (dem.fault_op, dem.fault_slot, dem.fault_mechanism)
        dems.append((dem.probs, dem.signatures) + provenance)
    assert_arrays_equal(*dems)
    return dem


def walk_inputs(circuit):
    from repro.sim.dem import _scan

    t = circuit.table
    meas_rows, _, _ = _scan(circuit)
    return t.gates, t.target_ptr, t.targets, meas_rows, circuit.num_qubits


def memory_circuit(code, rounds, basis="z"):
    experiment = build_memory_experiment(code, coloration_schedule(code), rounds, basis)
    return NoiseModel(1e-3, idle_strength=0.01).apply(experiment.circuit)


@pytest.mark.parametrize(
    "make, rounds, nwords",
    [
        (lambda: rotated_surface_code(3), 2, 1),
        (lambda: load_benchmark_code("lp39"), 3, 2),
        (lambda: load_benchmark_code("lp39"), 4, 3),
    ],
    ids=["1-word", "2-word", "3-word"],
)
@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
def test_memory_circuits(make, rounds, nwords, merge):
    circuit = memory_circuit(make(), rounds)
    inputs = walk_inputs(circuit)
    assert inputs[3].shape[1] == nwords
    assert_arrays_equal(
        (native_kernel("walk_back")(*inputs),), (kernels._REFERENCE.walk_back(*inputs),)
    )
    dem = assert_extraction_equal(circuit, merge=merge)
    assert dem.signatures.shape[1] == nwords
    if not merge:
        assert dem.num_errors == int((dem.fault_mechanism >= 0).sum())


def one_qubit_circuit(*noise) -> Circuit:
    c = Circuit()
    c.append("R", [0, 1])
    for gate, targets, args in noise:
        c.append(gate, targets, args, label=("n", gate))
    c.append("M", [0, 1])
    c.append("DETECTOR", [0])
    c.append("OBSERVABLE_INCLUDE", [1], [0])
    return c


def test_invisible_fault_and_zero_slots():
    """Noise on an unmeasured qubit flips nothing; PAULI_CHANNEL_1's zero
    Y slot is dropped, DEPOLARIZE1(0)'s three zero slots are kept."""
    c = Circuit()
    c.append("R", [0, 1, 2])
    c.append("DEPOLARIZE1", [2], [0.01], label=("idle qubit",))
    c.append("PAULI_CHANNEL_1", [0], [0.02, 0.0, 0.03], label=("explicit",))
    c.append("DEPOLARIZE1", [1], [0.0], label=("zero",))
    c.append("PAULI_CHANNEL_2", [0, 1], [0.0] * 14 + [0.01], label=("pair",))
    c.append("M", [0, 1])
    c.append("DETECTOR", [0])
    c.append("DETECTOR", [1])
    dem = assert_extraction_equal(c)
    assert dem.fault_slot.tolist() == [0, 1, 2, 0, 2, 0, 1, 2, 14]
    # Qubit 2 is never measured; Z errors before M flip nothing.
    assert dem.fault_mechanism.tolist() == [-1, -1, -1, 0, -1, 1, 1, -1, -1]
    assert_extraction_equal(c, merge=False)


def test_composition_follows_site_order():
    """Three faults of one signature: the composed probability differs
    if the faults are taken in another order, so only site order passes."""
    sig = np.array([[5], [0], [5], [7], [5]], dtype=np.uint64)
    members = [0.25591081235012836, 0.47523184816296765, 0.07207980635981687]
    probs = np.array([members[0], 0.9, members[1], 0.5, members[2]])
    want = kernels._REFERENCE.group_faults(sig, probs, True)
    got = native_kernel("group_faults")(sig, probs, True)
    assert_arrays_equal(got, want)
    assert got[1].tolist() == [0, -1, 0, 1, 0]

    def compose(ps):
        a = 0.0
        for p in ps:
            a = a * (1 - p) + p * (1 - a)
        return a

    assert got[2][0] == compose(members)
    assert compose(members) != compose(members[::-1])
    assert_arrays_equal(
        native_kernel("group_faults")(sig, probs, False),
        kernels._REFERENCE.group_faults(sig, probs, False),
    )


def test_merged_mechanism_in_a_circuit():
    """The same X error three times over (three ops, one signature)."""
    p = [0.25591081235012836, 0.47523184816296765, 0.07207980635981687]
    c = one_qubit_circuit(*[("PAULI_CHANNEL_1", [0], [q, 0.0, 0.0]) for q in p])
    dem = assert_extraction_equal(c)
    assert dem.num_errors == 1
    assert dem.fault_mechanism.tolist() == [0, 0, 0]


def test_empty_circuit():
    dem = assert_extraction_equal(Circuit())
    assert dem.num_errors == 0 and dem.signatures.shape == (0, 1)
    empty = (
        np.zeros(0, dtype=np.int32),
        np.zeros(1, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros((0, 1), dtype=np.uint64),
        0,
    )
    assert_arrays_equal(
        (native_kernel("walk_back")(*empty),), (kernels._REFERENCE.walk_back(*empty),)
    )
    sig = np.zeros((0, 2), dtype=np.uint64)
    for merge in (True, False):
        assert_arrays_equal(
            native_kernel("group_faults")(sig, np.zeros(0), merge),
            kernels._REFERENCE.group_faults(sig, np.zeros(0), merge),
        )


def test_c_walk_enum_spells_out_the_walk_codes():
    """``_kernels.c`` cannot import the walk's gate numbering; its enum
    must name the same codes."""
    source = (Path(kernels.__file__).parent / "_kernels.c").read_text()
    enum = dict(re.findall(r"G_(\w+) = (\d+)", source))
    want = {name: str(code) for name, code in kernels.WALK_GATE_CODES.items()}
    want["NOISE_FIRST"] = str(kernels.WALK_NOISE_CODES[0])
    want["NOISE_LAST"] = str(kernels.WALK_NOISE_CODES[-1])
    assert enum == want
    assert GATE_NAMES[: kernels.WALK_NOISE_CODES.stop] == list(
        kernels.WALK_GATES + kernels.WALK_NOISE_GATES
    )


def test_walk_refuses_what_it_cannot_index():
    walk = native_kernel("walk_back")
    ptr, no_rows = np.array([0, 1]), np.zeros((0, 1), np.uint64)
    hadamard = np.array([GATE_CODES["H"]], dtype=np.int32)
    with pytest.raises(ValueError, match="outside"):
        walk(hadamard, ptr, np.array([3]), no_rows, 2)
    measure = np.array([GATE_CODES["M"]], dtype=np.int32)
    with pytest.raises(ValueError, match="one row per measurement"):
        walk(measure, ptr, np.array([0]), no_rows, 1)
