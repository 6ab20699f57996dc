"""Which engine functions the traced run wraps, and the per-layer metrics.

Each target is wrapped where its callers look it up (see tracer.py). The
metric names follow `<module>.<quantity>`; a layer a workload never enters
reports 0.
"""
from __future__ import annotations

import os

from tracer import children_index, self_time


def _nbytes_result(args, kwargs, result):
    return {"bytes": int(result.nbytes), "orders": int(result.shape[0]) - 1}


def _remainder_attrs(args, kwargs, result):
    coeff, sines = args[0], args[1]
    # Computed from the table shapes: both tables read once, two output fields.
    nodes = coeff[0].size
    return {
        "orders": int(coeff.shape[0]) - 1,
        "bytes": int((coeff.size + sines.size + 2 * nodes) * 8),
    }


def _file_bytes(index):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}

    return attrs


def targets(lc):
    """(span name, module, attribute, attrs) for every wrapped function."""
    sched, dec, corr, fld, lor, bnd, cli = (
        lc.scheduler,
        lc.decomp,
        lc.corrugation,
        lc.fields,
        lc.lorentz,
        lc.bounds,
        lc.cli,
    )
    return [
        ("cli.main", cli, "main", lambda a, k, r: {"command": (a[0] if a else k["argv"])[0]}),
        ("scheduler.run_stage", sched, "run_stage", lambda a, k, r: {"retries": r[1].retries}),
        ("decomp.decompose", dec, "decompose", lambda a, k, r: {"nodes": int(a[0].E.size)}),
        ("corrugation.successive_cp", corr, "successive_cp", None),
        ("corrugation.select_corrugation_number", corr, "select_corrugation_number", None),
        ("corrugation.prepare_step", corr, "prepare_step", lambda a, k, r: {"orders": r.orders}),
        ("corrugation.apply_corrugation", corr, "apply_corrugation", None),
        ("corrugation.phi_inverse", corr, "phi_inverse", lambda a, k, r: {"iters": r.iterations}),
        ("corrugation.bessel_table", corr, "bessel_table", _nbytes_result),
        ("corrugation.sin_table", corr, "sin_table", _nbytes_result),
        ("corrugation.remainder_series", corr, "remainder_series", _remainder_attrs),
        ("fields.operator_norm_form", fld, "operator_norm_form", None),
        ("fields.operator_norm_map", fld, "operator_norm_map", None),
        ("fields.pullback_metric", fld, "pullback_metric", None),
        ("fields.export_obj", fld, "export_obj", _file_bytes(1)),
        ("fields.write_metric_csv", fld, "write_metric_csv", _file_bytes(0)),
        ("fields.read_metric_csv", fld, "read_metric_csv", _file_bytes(0)),
        ("lorentz.timelike_unit_normal", lor, "timelike_unit_normal", None),
        ("bounds.compute_constants", bnd, "compute_constants", None),
    ]


def namespaces(lc):
    """Every package module whose globals may hold a wrapped function."""
    return [
        lc,
        lc.scheduler,
        lc.decomp,
        lc.corrugation,
        lc.fields,
        lc.lorentz,
        lc.bounds,
        lc.cli,
        lc.scenarios,
        lc.verify,
    ]


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "scheduler.run_stage_s": "s",
    "scheduler.self_s": "s",
    "scheduler.retries": "count",
    "decomp.decompose_s": "s",
    "decomp.decompose_calls": "count",
    "decomp.nodes_per_s": "1/s",
    "corrugation.select_s": "s",
    "corrugation.steps": "count",
    "corrugation.probes": "count",
    "corrugation.probes_per_step": "probe/step",
    "corrugation.prepare_s": "s",
    "corrugation.phi_inverse_s": "s",
    "corrugation.phi_inverse_iters": "count",
    "corrugation.bessel_table_s": "s",
    "corrugation.apply_s": "s",
    "corrugation.apply_ms_per_probe": "ms",
    "corrugation.sin_table_s": "s",
    "corrugation.remainder_series_s": "s",
    "corrugation.remainder_series_calls": "count",
    "corrugation.harmonic_orders": "count",
    "corrugation.remainder_bytes_computed": "B",
    "fields.operator_norm_s": "s",
    "fields.pullback_metric_s": "s",
    "lorentz.normal_s": "s",
    "fields.export_obj_s": "s",
    "fields.export_obj_calls": "count",
    "fields.read_metric_csv_s": "s",
    "fields.write_metric_csv_s": "s",
    "cli.decompose_self_s": "s",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "bounds.compute_constants_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_computed_s": "s",
    "trace.spans": "count",
}


def layer_metrics(spans, bytes_written, overhead_s, wrapper_cost_s):
    """Per-layer numbers from one traced unit's spans."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    kids = children_index(spans)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()) if s.attrs)

    stage_self = 0.0
    for s in by_name.get("scheduler.run_stage", ()):
        inner = [
            c
            for c in kids.get(s.id, ())
            if c.name in ("decomp.decompose", "corrugation.successive_cp")
        ]
        stage_self += s.duration - sum(c.duration for c in inner)
    decompose_self = sum(
        self_time(s, kids)
        for s in by_name.get("cli.main", ())
        if s.attrs and s.attrs["command"] == "decompose"
    )
    steps = count("corrugation.prepare_step")
    probes = count("corrugation.apply_corrugation")
    decompose_s = total("decomp.decompose")
    apply_s = total("corrugation.apply_corrugation")
    values = {
        "scheduler.run_stage_s": total("scheduler.run_stage"),
        "scheduler.self_s": stage_self,
        "scheduler.retries": attr_sum("scheduler.run_stage", "retries"),
        "decomp.decompose_s": decompose_s,
        "decomp.decompose_calls": count("decomp.decompose"),
        "decomp.nodes_per_s": (
            attr_sum("decomp.decompose", "nodes") / decompose_s if decompose_s > 0 else 0.0
        ),
        "corrugation.select_s": total("corrugation.select_corrugation_number"),
        "corrugation.steps": steps,
        "corrugation.probes": probes,
        "corrugation.probes_per_step": probes / steps if steps else 0.0,
        "corrugation.prepare_s": total("corrugation.prepare_step"),
        "corrugation.phi_inverse_s": total("corrugation.phi_inverse"),
        "corrugation.phi_inverse_iters": attr_sum("corrugation.phi_inverse", "iters"),
        "corrugation.bessel_table_s": total("corrugation.bessel_table"),
        "corrugation.apply_s": apply_s,
        "corrugation.apply_ms_per_probe": 1e3 * apply_s / probes if probes else 0.0,
        "corrugation.sin_table_s": total("corrugation.sin_table"),
        "corrugation.remainder_series_s": total("corrugation.remainder_series"),
        "corrugation.remainder_series_calls": count("corrugation.remainder_series"),
        "corrugation.harmonic_orders": attr_sum("corrugation.remainder_series", "orders"),
        "corrugation.remainder_bytes_computed": attr_sum("corrugation.remainder_series", "bytes"),
        "fields.operator_norm_s": total("fields.operator_norm_form")
        + total("fields.operator_norm_map"),
        "fields.pullback_metric_s": total("fields.pullback_metric"),
        "lorentz.normal_s": total("lorentz.timelike_unit_normal"),
        "fields.export_obj_s": total("fields.export_obj"),
        "fields.export_obj_calls": count("fields.export_obj"),
        "fields.read_metric_csv_s": total("fields.read_metric_csv"),
        "fields.write_metric_csv_s": total("fields.write_metric_csv"),
        "cli.decompose_self_s": decompose_self,
        "io.bytes_written": bytes_written,
        "io.bytes_read": attr_sum("fields.read_metric_csv", "bytes"),
        "bounds.compute_constants_s": total("bounds.compute_constants"),
        "trace.overhead_s": overhead_s,
        "trace.overhead_computed_s": wrapper_cost_s * len(spans),
        "trace.spans": len(spans),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def probes_per_step(spans):
    """Probe count of each N-selection, in call order."""
    counts = {s.id: 0 for s in spans if s.name == "corrugation.select_corrugation_number"}
    for s in spans:
        if s.name == "corrugation.apply_corrugation" and s.parent in counts:
            counts[s.parent] += 1
    return list(counts.values())
