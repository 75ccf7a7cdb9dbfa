"""The traced layers of nearwave and the per-layer metrics computed from their spans.

The layers are the package modules geometry, wavefront, ppe, mle, sim and
cli. Each span wraps the name its caller looks up, so a function imported by
name into another module is wrapped there.
"""

from __future__ import annotations

from spans import Recorder, by_name

# (module whose attribute the caller looks up, attribute, span name)
WRAPPED = (
    ("nearwave.cli", "main", "cli.main"),
    ("nearwave.sim", "run_mse_sweep", "sim.run_mse_sweep"),
    ("nearwave.sim", "run_trajectory_experiment", "sim.run_trajectory_experiment"),
    ("nearwave.sim", "add_noise", "sim.add_noise"),
    ("nearwave.sim", "per_entry_mse", "sim.per_entry_mse"),
    ("nearwave.sim", "write_csv", "sim.write_csv"),
    ("nearwave.sim", "synth", "geometry.synth"),
    ("nearwave.sim", "sample_pose", "geometry.sample_pose"),
    ("nearwave.mle", "optimize", "mle.optimize"),
    ("nearwave.mle", "write_trajectory_csv", "mle.write_trajectory_csv"),
    ("nearwave.mle", "synth", "geometry.synth"),
    ("nearwave.mle", "sample_pose", "geometry.sample_pose"),
    ("nearwave.mle", "synth_batch", "geometry.synth_batch"),
    ("nearwave.mle", "rotation_from_tangent_batch", "geometry.rotation_from_tangent_batch"),
    ("nearwave.ppe", "estimate", "ppe.estimate"),
    ("nearwave.ppe", "reconstruct", "ppe.reconstruct"),
    ("nearwave.ppe", "diff_multi", "ppe.diff_multi"),
    ("nearwave.ppe", "circular_average", "ppe.circular_average"),
    ("nearwave.ppe", "weights", "ppe.weights"),
    ("nearwave.ppe", "basis_on_lattice", "wavefront.basis_on_lattice"),
    ("nearwave.ppe", "approx_channel", "wavefront.approx_channel"),
)

# The spans each kind of workload crosses, by the metrics reported for them.
# A layer a workload never calls is left out rather than reported as zero.
SWEEP_CALLS = ("geometry.synth", "wavefront.basis_on_lattice", "wavefront.approx_channel",
               "ppe.estimate", "ppe.diff_multi", "ppe.circular_average", "ppe.weights",
               "sim.per_entry_mse")
SWEEP_SELF = ("geometry.synth", "geometry.sample_pose", "wavefront.basis_on_lattice",
              "wavefront.approx_channel", "ppe.estimate", "ppe.diff_multi",
              "ppe.circular_average", "ppe.weights", "ppe.reconstruct", "sim.run_mse_sweep",
              "sim.add_noise", "sim.per_entry_mse", "sim.write_csv", "cli.main")
MLE_CALLS = ("geometry.synth", "geometry.synth_batch")
MLE_SELF = ("geometry.synth", "geometry.synth_batch", "geometry.rotation_from_tangent_batch",
            "geometry.sample_pose", "mle.optimize", "mle.write_trajectory_csv",
            "sim.run_trajectory_experiment", "sim.add_noise", "cli.main")


def trace() -> Recorder:
    """Wrap every layer boundary in WRAPPED and return the recorder."""
    recorder = Recorder()
    seen_weights = set()

    def count_terms(rec, args, kwargs, result):
        rec.counters["ppe.estimate.terms"] += len(args[1])

    def count_poses(rec, args, kwargs, result):
        spec, r = args[0], args[1]
        rec.counters["geometry.synth_batch.poses"] += len(r)
        rec.counters["geometry.synth_batch.entries"] += len(r) * spec.size

    def count_weights(rec, args, kwargs, result):
        key = (tuple(int(v) for v in args[0]), tuple(int(n) for n in args[1]))
        if key not in seen_weights:
            seen_weights.add(key)
            rec.counters["ppe.weights.distinct"] += 1

    def count_diverged(rec, args, kwargs, result):
        rec.counters["mle.diverged_starts"] += sum(tr.diverged for tr in result[1])

    counts = {
        "ppe.estimate": count_terms,
        "geometry.synth_batch": count_poses,
        "ppe.weights": count_weights,
        "mle.optimize": count_diverged,
    }
    for module, attr, span in WRAPPED:
        recorder.wrap(module, attr, span, counts.get(span))
    return recorder


def layer_metrics(spans, counters, iterations: int) -> dict[str, float]:
    """Per-layer metrics of one traced call; ``iterations`` is the optimizer's (0 for sweeps)."""
    totals = by_name(spans)

    def calls(name):
        return float(totals.get(name, {}).get("calls", 0))

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    names_calls, names_self = (MLE_CALLS, MLE_SELF) if iterations else (SWEEP_CALLS, SWEEP_SELF)
    out = {f"{name}.calls": calls(name) for name in names_calls}
    out.update({f"{name}.self_s": self_s(name) for name in names_self})
    if iterations:
        out["geometry.synth_batch.poses"] = counters.get("geometry.synth_batch.poses", 0.0)
        out["geometry.synth_batch.entries_per_s"] = ratio(
            counters.get("geometry.synth_batch.entries", 0.0), self_s("geometry.synth_batch"))
        out["mle.synth_batch_per_iter"] = calls("geometry.synth_batch") / iterations
        out["mle.diverged_starts"] = counters.get("mle.diverged_starts", 0.0)
    else:
        out["ppe.estimate.terms"] = counters.get("ppe.estimate.terms", 0.0)
        out["ppe.weights.distinct_share"] = ratio(
            counters.get("ppe.weights.distinct", 0.0), calls("ppe.weights"))
    return out
