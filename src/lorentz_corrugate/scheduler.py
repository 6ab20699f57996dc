"""Staged iteration driving a long embedding toward an isometric one.

Stage metrics g_n = g + delta_n * Delta interpolate from the induced metric
(delta_0 = 1) toward the target g. Each stage decomposes the current defect
over the dictionary, corrugates once per active form with a per-step error
budget tuned so the stage lands inside its acceptance inequality
    sup |f_n*h - g_n|  <=  |g_{n+1} - g_n|,
and audits the C0 and C1 drift against their budgets. All field norms are
sup-node operator norms measured against the fixed target metric g.

The schedule is dyadic and computed in run_nash_kuiper's stage loop:
delta_n = 2^-n, so each stage removes half of the remaining surplus, and
the C0 budgets a_n = eps 2^-(n+1) sum below eps. The last stage T is
accepted against g_{T+1}, the next term of the same formula. Each ladder of
corrugation numbers is N = 16, 32, ..., 2^20 (corrugation.LADDER_START to
corrugation.LADDER_CAP). A stage's C1 bound is the one-stage estimate
taken at the stage's own start jet f_{n-1},
    a_n + 2 M c sqrt|g_n - g_{n-1}| (|df_{n-1}|_g + |n_{n-1}|_E),
with M the largest increment constant the stage's steps measured and c the
stage's form family constant.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bounds import c1_budget_constant, form_family_constant
from .corrugation import successive_cp
from .decomp import build_dictionary, decompose
from .errors import BudgetExceeded, DomainError, EngineError
from .fields import (
    MetricField,
    c0_distance,
    c1_increment,
    export_obj,
    operator_norm_form,
    pullback_metric,
    require_long,
    write_table,
)

# Budget retries per stage: doublings after BudgetExceeded, or halvings
# after a missed stage bound.
MAX_RETRIES = 3


@dataclass
class StageRow:
    """Per-stage ledger entry with measured values and audit flags."""

    stage: int
    delta: float
    sup_default: float
    stage_bound: float
    stage_bound_pass: bool
    c0_shift: float
    c0_budget: float
    c0_pass: bool
    c1_increment: float
    c1_increment_euclid: float
    c1_bound: float
    c1_bound_pass: bool
    c1_bound_pass_euclid: bool
    triangle_pass: bool
    n_values: list
    alpha_max: float
    per_step_eps: float
    retries: int
    decomp_residual: float
    form_constant: float
    long_next_min_eig: float
    sup_vs_target: float
    step_records: list = field(default_factory=list)

    # Ledger columns in file order: StageRow attributes, except steps and
    # n_values, which ledger_cells derives from the list of N values.
    LEDGER_COLUMNS = (
        "stage", "delta", "sup_default", "stage_bound", "stage_bound_pass",
        "c0_shift", "c0_budget", "c0_pass", "c1_increment", "c1_increment_euclid",
        "c1_bound", "c1_bound_pass", "c1_bound_pass_euclid", "triangle_pass",
        "steps", "n_values", "alpha_max", "per_step_eps", "retries",
        "decomp_residual", "form_constant", "long_next_min_eig", "sup_vs_target",
    )

    def ledger_cells(self):
        derived = {"steps": len(self.n_values), "n_values": ";".join(map(str, self.n_values))}
        return [derived[c] if c in derived else getattr(self, c) for c in self.LEDGER_COLUMNS]


@dataclass
class RunLedger:
    """Stage rows plus run-level summary, writable as deterministic CSV."""

    rows: list
    summary: dict

    def write_csv(self, path):
        write_table(path, StageRow.LEDGER_COLUMNS, (row.ledger_cells() for row in self.rows))

    def write_constants_csv(self, path):
        write_table(path, ("name", "value"), ((k, self.summary[k]) for k in sorted(self.summary)))


def run_stage(
    f_prev,
    g_n,
    g_next,
    a_n,
    dictionary,
    g_norm,
    stage_index,
    delta,
    delta_prev_norm,
    threads=None,
):
    """One stage: decompose the defect, corrugate per form, audit budgets.

    The per-step error budget is tuned adaptively. It starts at
    stage_bound / k_active; when no corrugation number on the ladder can
    meet it (the inherited frame roughness sets a floor C/N, and C grows
    as the tangents tilt toward the light cone) the budget is doubled, up
    to 0.9 of the stage target; when the measured stage defect still
    misses the acceptance inequality the budget is halved instead. Both
    directions exhausted means the stage genuinely cannot satisfy the
    bounds and the failure propagates. The C1 drift allowance is
    a_n + 2 M c |g_n - g_{n-1}|^(1/2) (|df_{n-1}|_g + |n_{n-1}|_E), taken
    at f_prev with the stage's largest measured increment constant M and
    its form constant c.
    """
    D_n = require_long(f_prev, g_n)
    stage_bound = float(np.max(operator_norm_form(g_next - g_n, g_norm)))
    dec = decompose(D_n, dictionary, threads=threads)
    c_stage = form_family_constant(dec, g_norm)
    active = sum(1 for eta in dec.etas if float(np.max(eta)) > 0.0)

    def within_bound(sup_def):
        """The stage inequality, with the slack both the retries and the ledger use."""
        return sup_def <= stage_bound + 1e-12

    per_step_eps, c0_per_step = (stage_bound / active, a_n / active) if active else (0.0, 0.0)
    eps_cap = 0.9 * stage_bound
    retries = 0
    tightened = False
    while True:
        try:
            f_n, records = successive_cp(
                f_prev,
                dec,
                per_step_eps,
                norm_metric=g_norm,
                c0_budget_per_step=c0_per_step,
                final_long_for=g_next,
            )
        except BudgetExceeded:
            if tightened or per_step_eps >= eps_cap or retries >= MAX_RETRIES:
                raise
            retries += 1
            per_step_eps = min(2.0 * per_step_eps, eps_cap)
            continue
        pulled = pullback_metric(f_n)
        sup_def = float(np.max(operator_norm_form(pulled - g_n, g_norm)))
        if not active or within_bound(sup_def) or retries >= MAX_RETRIES:
            break
        retries += 1
        tightened = True
        per_step_eps *= 0.5

    c0_shift = c0_distance(f_n, f_prev)
    c1_inc = c1_increment(f_n, f_prev, g_norm)
    c1_inc_e = c1_increment(f_n, f_prev, MetricField.identity(g_norm.shape))
    M_stage = max((r.audits["increment_constant"] for r in records), default=0.0)
    c1_bound = a_n + c1_budget_constant(M_stage, c_stage, f_prev, g_norm) * math.sqrt(
        delta_prev_norm
    )
    sup_Dn = float(np.max(operator_norm_form(D_n, g_norm)))
    triangle_pass = math.sqrt(sup_Dn) <= 2.0 * math.sqrt(delta_prev_norm) + 1e-12
    long_next = float((pulled - g_next).min_eigenvalue())

    row = StageRow(
        stage=stage_index,
        delta=delta,
        sup_default=sup_def,
        stage_bound=stage_bound,
        stage_bound_pass=within_bound(sup_def),
        c0_shift=c0_shift,
        c0_budget=a_n,
        c0_pass=c0_shift <= a_n + 1e-15,
        c1_increment=c1_inc,
        c1_increment_euclid=c1_inc_e,
        c1_bound=c1_bound,
        c1_bound_pass=c1_inc <= c1_bound + 1e-12,
        c1_bound_pass_euclid=c1_inc_e <= c1_bound + 1e-12,
        triangle_pass=triangle_pass,
        n_values=[r.N for r in records],
        alpha_max=max((r.alpha_max for r in records), default=0.0),
        per_step_eps=per_step_eps,
        retries=retries,
        decomp_residual=dec.residual,
        form_constant=c_stage,
        long_next_min_eig=long_next,
        sup_vs_target=float(np.max(operator_norm_form(pulled - g_norm, g_norm))),
        step_records=records,
    )
    return f_n, row


def run_nash_kuiper(
    f0,
    g,
    stages=6,
    eps=0.05,
    dictionary=None,
    outdir=None,
    threads=None,
):
    """Full staged run from a long embedding toward the target metric.

    Returns the final jet and the RunLedger. When outdir is given, writes
    stage_000.obj (initial) through stage_%03d.obj, ledger.csv and
    constants.csv there, flushing whatever exists if a stage aborts.
    """
    if dictionary is None:
        dictionary = build_dictionary(5)
    Delta = require_long(f0, g)
    g.require_positive_definite(what="target metric")
    if stages < 1:
        raise DomainError("need at least one stage")
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError("eps must be positive and finite")
    # g_0 is f0's induced metric; g_{T+1} is only the last stage's target.
    gs = [g + 2.0**-n * Delta for n in range(stages + 2)]
    for g_n in gs:
        g_n.require_positive_definite(what="stage metric")
    a_seq = [eps * 2.0 ** (-n - 1) for n in range(1, stages + 1)]
    delta_norm = float(np.max(operator_norm_form(Delta, g)))
    rows = []

    def finish(final):
        """Summarize the stages run so far and write the ledger files."""
        sups = [delta_norm] + [r.sup_vs_target for r in rows]
        summary = {
            "stages": stages,
            "eps": float(eps),
            "alpha_max_measured": max((r.alpha_max for r in rows), default=0.0),
            "form_constant_max": max((r.form_constant for r in rows), default=0.0),
            "delta_norm": delta_norm,
            "initial_sup_default": delta_norm,
            "final_sup_default": sups[-1],
            "c0_total": c0_distance(final, f0) if rows else 0.0,
            "c0_budget_total": sum(a_seq),
            "monotone_pass": all(b < a for a, b in zip(sups, sups[1:])),
        }
        ledger = RunLedger(rows=rows, summary=summary)
        if outdir is not None:
            ledger.write_csv(os.path.join(outdir, "ledger.csv"))
            ledger.write_constants_csv(os.path.join(outdir, "constants.csv"))
        return ledger

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        export_obj(f0, os.path.join(outdir, "stage_000.obj"))

    cur = f0
    for n in range(1, stages + 1):
        try:
            cur, row = run_stage(
                cur,
                gs[n],
                gs[n + 1],
                a_seq[n - 1],
                dictionary,
                g_norm=g,
                stage_index=n,
                delta=2.0**-n,
                delta_prev_norm=float(np.max(operator_norm_form(gs[n] - gs[n - 1], g))),
                threads=threads,
            )
        except EngineError:
            finish(cur)
            raise
        rows.append(row)
        if outdir is not None:
            export_obj(cur, os.path.join(outdir, "stage_%03d.obj" % n))
    return cur, finish(cur)
