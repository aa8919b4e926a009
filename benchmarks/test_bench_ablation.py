"""Bench: ablations of PropHunt's design choices (``repro.experiments.ablations``)."""

from repro.experiments import ablations


def test_ablation_change_types(experiment):
    result = experiment(ablations.run_change_types, iterations=3, samples=20)
    rows = {r["mode"]: r for r in result.rows}
    assert set(rows) == {"both", "reorder-only", "reschedule-only"}
    # Using both change types must not be worse than the best single type
    # by more than noise.
    best_single = min(
        rows["reorder-only"]["final_rate"], rows["reschedule-only"]["final_rate"]
    )
    assert rows["both"]["final_rate"] <= best_single * 1.6


def test_ablation_solver_backends(experiment):
    result = experiment(ablations.run_solver_backends, samples=8)
    rows = {r["method"]: r for r in result.rows}
    # ISD and MaxSAT always solve; they must agree on the mean weight
    # (both exact on these small subgraphs).
    assert rows["isd"]["mean_weight"] == rows["maxsat"]["mean_weight"]
    # The graph-like exact solver, when applicable, is the fastest path.
    assert rows["graphlike"]["mean_time_s"] < rows["maxsat"]["mean_time_s"]


def test_ablation_flags_vs_prophunt(experiment):
    result = experiment(ablations.run_flags_vs_prophunt, shots=5000)
    rows = {r["approach"]: r for r in result.rows}
    baseline = rows["poor schedule (baseline)"]
    # Both remedies beat the broken baseline...
    assert rows["prophunt"]["logical_error_rate"] < baseline["logical_error_rate"]
    flagged = rows["poor + flag qubits"]
    assert flagged["logical_error_rate"] < baseline["logical_error_rate"]
    # ...but only flags pay in qubits.
    assert rows["poor + flag qubits"]["qubits"] > rows["prophunt"]["qubits"]
