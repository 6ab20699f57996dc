"""The registry of every checkable claim, each defined once.

A claim is a function of the level's inputs that measures a slack against
a stated tolerance and returns a CheckResult; failures are report content,
not exceptions. `lorentz-corrugate verify` prints the registry and
tests/test_acceptance.py asserts it at the full level.

quick runs 65x65 (and smaller) grids and a 33x33 three-stage staged run.
full adds the 257x257 inputs, the oscillation-decay measurement and the
canonical run (flat-shrink, 257x257, 6 practical stages, eps 0.05), which
end-to-end convergence reads. The claims that read a ledger share the
level's one staged run.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bounds as bnd
from . import corrugation as cor
from .decomp import build_dictionary, decompose
from .errors import ConeViolation
from .fields import (
    EmbeddingJet,
    Grid,
    LinearForm,
    MetricField,
    corrugation_frame,
    operator_norm_form,
    operator_norm_map,
    pullback_metric,
)
from .lorentz import minkowski_inner, timelike_unit_normal
from .scenarios import collar_eta_field, flat_inclusion, scenario, strip_eta_field, STRIP_FORM
from .scheduler import run_nash_kuiper


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    note: str = ""
    seconds: float = 0.0

    def line(self):
        state = "PASS" if self.passed else "FAIL"
        txt = "%s %-34s measured=%.3e tol=%.3e (%.2fs)" % (
            state,
            self.name,
            self.measured,
            self.tolerance,
            self.seconds,
        )
        if self.note:
            txt += "  " + self.note
        return txt


class Inputs:
    """The grids, the strip step records and the staged run a level feeds the claims.

    The records and the staged run are built on first use, so their wall
    time counts toward the first claim that reads them (average-condition
    and staged-run-audits).
    """

    def __init__(self, level):
        if level not in ("quick", "full"):
            raise ValueError("level must be quick or full, got %r" % (level,))
        self.full = level == "full"
        self.grids = (65, 257) if self.full else (65,)
        self.run_grid, self.run_stages = (257, 6) if self.full else (33, 3)

    @cached_property
    def ledger(self):
        f0, g = scenario("flat-shrink").build(Grid(self.run_grid, self.run_grid))
        return run_nash_kuiper(f0, g, stages=self.run_stages, eps=0.05)[1]

    @cached_property
    def strip_records(self):
        """The N=40 strip step's record at each grid, shared by two claims."""
        return [
            cor.apply_corrugation(cor.prepare_step(*_strip_setup(n)), 40)[1] for n in self.grids
        ]


def _perturbed_jet(grid, rng):
    """Random spacelike graph-like jet with exact analytic differentials."""
    scale = 0.15
    X, Y = grid.mesh()
    ax, ay, bx, by = rng.uniform(0.5, 2.5, size=4)
    w = scale * np.sin(ax * X + bx * Y) * np.cos(ay * Y)
    z = scale * np.sin(ax * X) * np.sin(by * Y)
    pos = np.stack([X + 0.1 * np.sin(Y), Y + w, z], axis=-1)
    dfx = np.stack(
        [
            np.ones_like(X),
            scale * ax * np.cos(ax * X + bx * Y) * np.cos(ay * Y),
            scale * ax * np.cos(ax * X) * np.sin(by * Y),
        ],
        axis=-1,
    )
    dfy = np.stack(
        [
            0.1 * np.cos(Y),
            1.0 + scale * (bx * np.cos(ax * X + bx * Y) * np.cos(ay * Y)
                           - ay * np.sin(ax * X + bx * Y) * np.sin(ay * Y)),
            scale * by * np.sin(ax * X) * np.cos(by * Y),
        ],
        axis=-1,
    )
    return EmbeddingJet(grid, pos, dfx, dfy)


def _strip_setup(grid_n):
    grid = Grid(grid_n, grid_n)
    return flat_inclusion(grid), strip_eta_field(grid), STRIP_FORM


def _check_lorentz(n, inputs):
    rng = np.random.default_rng(7)
    v = rng.normal(size=(64, 3))
    w = rng.normal(size=(64, 3))
    sym = float(np.max(np.abs(minkowski_inner(v, w) - minkowski_inner(w, v))))
    basis = np.eye(3)
    sig = np.array([minkowski_inner(basis[i], basis[i]) for i in range(3)])
    ok = sym == 0.0 and np.array_equal(sig, np.array([1.0, 1.0, -1.0]))
    return CheckResult(n, ok, sym, 0.0, note="signature (+,+,-)")


def _check_normal(n, inputs):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        t1 = np.array([1.0, 0.0, 0.0]) + 0.3 * rng.normal(size=3) * np.array([1, 1, 0.8])
        t2 = np.array([0.0, 1.0, 0.0]) + 0.3 * rng.normal(size=3) * np.array([1, 1, 0.8])
        g = np.array(
            [[minkowski_inner(t1, t1), minkowski_inner(t1, t2)],
             [minkowski_inner(t1, t2), minkowski_inner(t2, t2)]]
        )
        if np.linalg.eigvalsh(g)[0] < 0.05:
            continue
        m = timelike_unit_normal(t1, t2)
        worst = max(
            worst,
            abs(minkowski_inner(m, t1)),
            abs(minkowski_inner(m, t2)),
            abs(minkowski_inner(m, m) + 1.0),
        )
        if m[2] <= 0.0:
            worst = max(worst, 1.0)
    return CheckResult(n, worst <= 1e-12, worst, 1e-12, note="orthogonal, unit, future")


def _check_flat_pullback(n, inputs):
    g = pullback_metric(flat_inclusion(Grid(65, 65)))
    worst = max(
        float(np.max(np.abs(g.E - 1.0))),
        float(np.max(np.abs(g.F))),
        float(np.max(np.abs(g.G - 1.0))),
    )
    return CheckResult(n, worst == 0.0, worst, 0.0)


def _check_frame(n, inputs):
    grid = Grid(33, 33)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(6):
        f = _perturbed_jet(grid, rng)
        ell = LinearForm.from_angle(rng.uniform(0.0, np.pi))
        fr = corrugation_frame(f, ell)
        g = pullback_metric(f)
        worst = max(
            worst,
            float(np.max(np.abs(g.inner(fr.v, fr.v) - 1.0))),
            float(np.max(np.abs(g.inner(fr.u, fr.u) - 1.0))),
            float(np.max(np.abs(g.inner(fr.u, fr.v)))),
            float(np.max(np.abs(minkowski_inner(fr.t, fr.t) - 1.0))),
            float(np.max(np.abs(minkowski_inner(fr.vhat, fr.vhat) - 1.0))),
            float(np.max(np.abs(minkowski_inner(fr.t, fr.vhat)))),
            float(np.max(np.abs(minkowski_inner(fr.n, fr.n) + 1.0))),
            float(np.max(np.abs(minkowski_inner(fr.n, fr.t)))),
            float(np.max(np.abs(minkowski_inner(fr.n, fr.vhat)))),
        )
        if np.any(fr.dlu <= 0.0):
            worst = max(worst, 1.0)
    return CheckResult(n, worst <= 1e-10, worst, 1e-10, note="orthonormality and dl(u) > 0")


def _check_operator_norms(n, inputs):
    shape = (1, 1)
    g = MetricField.constant(0.25, 0.0, 0.25, shape)
    Ax = np.zeros(shape + (3,))
    Ax[..., 0] = 1.0
    Ay = np.zeros(shape + (3,))
    Ay[..., 1] = 1.0
    v1 = float(operator_norm_map(Ax, Ay, g)[0, 0])
    B = MetricField.constant(0.5, 0.0, 0.25, shape)
    v2 = float(operator_norm_form(B, MetricField.identity(shape))[0, 0])
    rng = np.random.default_rng(31)
    Mx = rng.normal(size=(4, 3))
    My = rng.normal(size=(4, 3))
    gI = MetricField.identity((4,))
    hom = float(np.max(np.abs(operator_norm_map(2.0 * Mx, 2.0 * My, gI)
                              - 2.0 * operator_norm_map(Mx, My, gI))))
    worst = max(abs(v1 - 2.0), abs(v2 - 0.5), hom)
    return CheckResult(n, worst <= 1e-12, worst, 1e-12, note="known values, homogeneity")


def _check_phi(n, inputs):
    a = np.linspace(0.0, 5.0, 101)
    d = float(np.max(np.abs(cor.phi(a) - cor.phi_quadrature(a, samples=8192))))
    exact0 = cor.phi(0.0) == 1.0
    mono = np.all(cor.phi(a) <= np.cosh(a) + 1e-14)
    y = np.linspace(1.0, 30.0, 57)
    rt_y = float(np.max(np.abs(cor.phi(cor.phi_inverse(y).alpha) - y)))
    alpha = np.random.default_rng(101).uniform(0.0, 5.0, size=100)
    rt_a = float(np.max(np.abs(np.asarray(cor.phi_inverse(cor.phi(alpha)).alpha) - alpha)))
    ok = d <= 1e-12 and exact0 and bool(mono) and rt_y <= 1e-9 and rt_a <= 1e-9
    return CheckResult(
        n,
        ok,
        max(d, rt_y, rt_a),
        1e-9,
        note="series vs quadrature %.1e <= 1e-12, inverse round-trips" % d,
    )


def _check_psi(n, inputs):
    worst = max(abs(bnd.psi2(1e-3) - 2.0) / 1e-3, abs(bnd.psi1(1e-3) - 1.5) / 5e-3)
    iden = 0.0
    for a in (0.5, 1.0, 2.0):
        iden = max(
            iden,
            abs(bnd.psi(a) - (np.sqrt(2.0 * bnd.psi1(a)) + np.sqrt(bnd.psi2(a)))),
        )
    ok = worst <= 1.0 and iden <= 1e-10
    return CheckResult(n, ok, iden, 1e-10, note="limits 2 and 3/2, split identity")


def _check_envelope(n, inputs):
    rng = np.random.default_rng(41)
    worst = 0.0
    for amax in (0.5, 1.5, 3.0):
        M = bnd.increment_constant(amax)
        a = rng.uniform(0.0, amax, size=4096)
        worst = max(worst, float(np.max(bnd.psi(np.maximum(a, 1e-9)) / M)))
    return CheckResult(n, worst <= 1.0, worst, 1.0, note="psi below padded sup")


def _check_decomp(n, inputs):
    dic5 = build_dictionary(5)
    dic3 = build_dictionary(3)
    worst = 0.0
    for seed, fields in ((53, 25), (103, 100)):
        rng = np.random.default_rng(seed)
        for _ in range(fields):
            target = None
            for ell, eta in zip(dic5.forms, rng.uniform(0.0, 1.0, size=(5, 8, 8))):
                term = ell.outer(eta)
                target = term if target is None else target + term
            dec = decompose(target, dic5)
            worst = max(worst, float(np.max((target - dec.reconstruct()).frobenius())))
            if any(float(np.min(e)) < 0.0 for e in dec.etas):
                worst = max(worst, 1.0)
    dec3 = decompose(MetricField.constant(1.0, 0.2, 0.8, (4, 4)), dic3)
    A = np.array([[f.a * f.a for f in dic3.forms],
                  [f.a * f.b for f in dic3.forms],
                  [f.b * f.b for f in dic3.forms]])
    x = np.linalg.solve(A, np.array([1.0, 0.2, 0.8]))
    d3 = float(np.max(np.abs(np.array([float(e[0, 0]) for e in dec3.etas]) - x)))
    try:
        # rank-1 along dy falls outside the span of any 3-form family
        decompose(MetricField.constant(0.0, 0.0, 1.0, (2, 2)), dic3)
        caught = False
    except ConeViolation:
        caught = True
    ok = worst <= 1e-9 and d3 <= 1e-12 and caught
    return CheckResult(
        n,
        ok,
        max(worst, d3),
        1e-9,
        note="round-trip over 125 fields, k=3 solve gap %.1e <= 1e-12, cone detect" % d3,
    )


def _check_average(n, inputs):
    worst = max(rec.audits["average_max"] for rec in inputs.strip_records)
    return CheckResult(n, worst <= 1e-10, worst, 1e-10, note="sup |r phi(alpha) - 1/dl(u)|")


def _check_identity(n, inputs):
    params = cor.prepare_step(*_strip_setup(65))
    worst = max(cor.apply_corrugation(params, N)[1].audits["identity_max"] for N in (12, 64))
    return CheckResult(n, worst <= 1e-9, worst, 1e-9, note="target differential pullback, N=12,64")


def _check_series_vs_quadrature(n, inputs):
    worst = 0.0
    for alpha in (0.5, 1.3, 2.5):
        coeff = cor.bessel_table(np.array(alpha), cor.series_orders(alpha))
        for x in (0.3, 0.7, 1.9):
            xf = x - np.floor(x)
            sines = cor.sin_table(np.array(xf), coeff.shape[0] - 1)
            Ac, As = cor.remainder_series(coeff, sines)
            qc, qs = cor.remainder_quadrature(alpha, x, samples_per_period=4096)
            worst = max(worst, abs(float(Ac) - qc), abs(float(As) - qs))
    return CheckResult(n, worst <= 1e-6, worst, 1e-6, note="harmonic sums vs trapezoid")


def _check_gluing(n, inputs):
    grid = Grid(65, 65)
    f = flat_inclusion(grid)
    eta = collar_eta_field(grid)
    out, _ = cor.apply_corrugation(cor.prepare_step(f, eta, STRIP_FORM), 24)
    collar = eta == 0.0
    pos_ok = bool(np.all(out.pos[collar] == f.pos[collar]))
    inner = collar.copy()
    inner[1:, :] &= collar[:-1, :]
    inner[:-1, :] &= collar[1:, :]
    inner[:, 1:] &= collar[:, :-1]
    inner[:, :-1] &= collar[:, 1:]
    d_ok = bool(
        np.all(out.dfx[inner] == f.dfx[inner]) and np.all(out.dfy[inner] == f.dfy[inner])
    )
    ok = pos_ok and d_ok
    return CheckResult(n, ok, 0.0 if ok else 1.0, 0.0, note="bitwise on zero-coefficient collar")


def _check_staged_run(n, inputs):
    ledger = inputs.ledger
    margin = -np.inf
    steps = 0
    flags = ledger.summary["monotone_pass"]
    for row in ledger.rows:
        flags = (
            flags
            and row.stage_bound_pass
            and row.c0_pass
            and row.c1_bound_pass
            and row.c1_bound_pass_euclid
            and row.triangle_pass
        )
        for rec in row.step_records:
            steps += 1
            margin = max(
                margin,
                rec.audits["increment_margin"],
                rec.audits["growth_margin"],
                rec.audits["normal_growth_margin"],
            )
    ok = bool(flags) and steps > 0 and margin <= 1e-12
    return CheckResult(
        n,
        ok,
        margin,
        1e-12,
        note="stage flags (stage bound, C0, C1 g and euclid, triangle) and monotone %s, "
        "step bound margins over %d steps" % (bool(flags), steps),
    )


def _check_normal_step(n, inputs):
    unit = 0.0
    ortho_ok = True
    for rec in inputs.strip_records:
        a = rec.audits
        unit = max(unit, a["normal_unit_actual"], a["normal_unit_predicted"])
        ortho_ok = ortho_ok and a["normal_ortho_predicted"] <= a["normal_ortho_budget"]
    ratio = 0.0
    for row in inputs.ledger.rows:
        for rec in row.step_records:
            unit = max(unit, rec.audits["normal_unit_actual"])
            ratio = max(ratio, rec.audits["normal_ortho_actual"] / rec.audits["normal_ortho_budget"])
    ok = unit <= 1e-8 and ortho_ok and ratio <= 1.0
    return CheckResult(
        n,
        ok,
        unit,
        1e-8,
        note="unit timelike; N=40 tilt pairing within 10/N %s, ledger sup |h(n,dF)| / (10/N) "
        "= %.2e <= 1" % (ortho_ok, ratio),
    )


def _check_decay(n, inputs):
    params = cor.prepare_step(*_strip_setup(257))
    errs = {}
    for N in (20, 40, 80, 160):
        _, rec = cor.apply_corrugation(params, N)
        errs[N] = rec.sup_default
    ratios = [errs[20] / errs[40], errs[40] / errs[80], errs[80] / errs[160]]
    ok = all(1.5 <= r <= 2.5 for r in ratios) and errs[160] <= errs[20] / 4.0
    worst = max(abs(r - 2.0) for r in ratios)
    return CheckResult(
        n, ok, worst, 0.5, note="ratios %s" % ",".join("%.3f" % r for r in ratios)
    )


def _check_convergence(n, inputs):
    s = inputs.ledger.summary
    ratio = s["final_sup_default"] / s["delta_norm"]
    stages = len(inputs.ledger.rows)
    ok = ratio <= 0.05 and s["c0_total"] <= s["eps"] and stages == inputs.run_stages
    return CheckResult(
        n,
        ok,
        ratio,
        0.05,
        note="final/initial over %d stages, C0 drift %.3e <= %g"
        % (stages, s["c0_total"], s["eps"]),
    )


# name -> (claim(name, inputs) -> CheckResult, full level only), in run order
CLAIMS = {
    "metric-signature": (_check_lorentz, False),
    "timelike-normal": (_check_normal, False),
    "flat-pullback-identity": (_check_flat_pullback, False),
    "corrugation-frame": (_check_frame, False),
    "operator-norms": (_check_operator_norms, False),
    "loop-average-phi": (_check_phi, False),
    "envelope-limits": (_check_psi, False),
    "increment-envelope-sup": (_check_envelope, False),
    "primitive-decomposition": (_check_decomp, False),
    "average-condition": (_check_average, False),
    "pullback-identity": (_check_identity, False),
    "remainder-series-quadrature": (_check_series_vs_quadrature, False),
    "compact-support-gluing": (_check_gluing, False),
    "staged-run-audits": (_check_staged_run, False),
    "corrugated-normal": (_check_normal_step, False),
    "oscillation-decay": (_check_decay, True),
    "end-to-end-convergence": (_check_convergence, True),
}


def run_checks(level):
    """Run the registry at level 'quick' or 'full'; returns a list of CheckResult."""
    inputs = Inputs(level)
    results = []
    for name, (check, full_only) in CLAIMS.items():
        if full_only and not inputs.full:
            continue
        t0 = time.perf_counter()
        try:
            res = check(name, inputs)
        except Exception as exc:  # a crashed check is a failed check
            res = CheckResult(name, False, float("nan"), 0.0, note=repr(exc))
        res.seconds = time.perf_counter() - t0
        results.append(res)
    return results
