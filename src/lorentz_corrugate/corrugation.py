"""One corrugation step and its quantitative audits.

A step replaces a spacelike jet f by

    F = f + (1/N) * r * (A_c(Nl) t + A_s(Nl) n),

where (t, n) come from the adapted frame for the form ell, r and the
amplitude alpha are chosen so the corrugated differential

    L = df + (gamma(Nl) - gammabar) (x) dl

pulls back exactly to mu = f*h - eta dl (x) dl. The loop family is

    gamma(s) = r (cosh(theta) t + sinh(theta) n),  theta = alpha cos(2 pi s),

whose average is gammabar = r phi(alpha) t with phi(alpha) the full-turn
average of cosh(alpha cos 2 pi s). A_c and A_s are the primitives of the
oscillating parts of cosh(theta) and sinh(theta); their harmonic expansions
terminate the everywhere-periodic integrals exactly, so both are evaluated
as short harmonic sums with modified-Bessel coefficient tables (a trapezoid
evaluator is kept as an independent cross-check). The true differential is
dF = L + (1/N) D where D collects the derivatives of the slowly varying
fields at frozen oscillation phase; D is formed by differencing the
remainder field across neighbor nodes while holding the phase fixed at the
center node, one-sided at the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import ALPHA_CAP, growth_constant, increment_constant, phi, phi_prime
from .errors import BudgetExceeded, DomainError, LostSpacelike, NotRiemannian
from .fields import (
    LONG_TOL,
    EmbeddingJet,
    FrameField,
    Grid,
    MetricField,
    c1_increment,
    corrugation_frame,
    operator_norm_form,
    operator_norm_map,
    pullback_metric,
)
from .lorentz import euclidean_norm, minkowski_inner, timelike_unit_normal

SPACELIKE_TOL = 1e-10
# phi_inverse steps until |phi(alpha) - y| <= PHI_INVERSE_TOL * y at every
# node (y >= 1), and gives up after PHI_INVERSE_MAX_ITER Newton steps.
PHI_INVERSE_TOL = 1e-12
PHI_INVERSE_MAX_ITER = 61
# series_orders keeps the harmonics whose coefficients can exceed this.
SERIES_TOL = 1e-18
# Every N-selection climbs the doubling ladder N = 16, 32, ..., 2^20.
LADDER_START = 16
LADDER_CAP = 2**20


def phi_quadrature(alpha, samples=4096):
    """Trapezoid cross-check of phi on a full period."""
    s = np.linspace(0.0, 1.0, samples + 1)
    vals = np.cosh(np.multiply.outer(np.asarray(alpha, dtype=float), np.cos(2.0 * np.pi * s)))
    return np.trapezoid(vals, s, axis=-1)


@dataclass
class AmplitudeSolveResult:
    """Solution of phi(alpha) = y with its number of Newton steps."""

    alpha: np.ndarray
    iterations: int


def phi_inverse(y):
    """Solve phi(alpha) = y for alpha >= 0 by Newton steps with phi_prime.

    phi <= cosh, so the start arccosh(y) is at or left of the root; phi is
    convex and increasing, so the first step lands at or right of it and
    later iterates decrease monotonically to it. Every node steps until all
    of them have |phi(alpha) - y| <= PHI_INVERSE_TOL * y; steps are clipped
    at ALPHA_CAP only. Deterministic and vectorized. y may be an
    array; values inside [1 - 1e-12, 1) are clamped to 1; smaller values,
    NaN, values above phi(ALPHA_CAP) and a solve that needs more than
    PHI_INVERSE_MAX_ITER steps raise DomainError.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y >= 1.0 - 1e-12):
        raise DomainError("phi_inverse needs y >= 1, got min %.17g" % float(np.min(y)))
    if not np.all(y <= phi(ALPHA_CAP)):
        raise DomainError("amplitude beyond cap %g" % ALPHA_CAP)
    y = np.maximum(y, 1.0)
    tol = PHI_INVERSE_TOL * y
    a = np.arccosh(y)
    for iterations in range(PHI_INVERSE_MAX_ITER + 1):
        fa = phi(a) - y
        if np.all(np.abs(fa) <= tol):
            return AmplitudeSolveResult(alpha=np.asarray(a), iterations=iterations)
        # phi_prime vanishes only at alpha = 0, where y = 1 is solved exactly
        step = np.divide(fa, phi_prime(a), out=np.zeros_like(fa), where=fa != 0.0)
        a = np.minimum(a - step, ALPHA_CAP)
    raise DomainError("phi_inverse took more than %d Newton steps" % PHI_INVERSE_MAX_ITER)


def radial_factor(eta, dlu):
    """Loop radius r = sqrt(1 - eta dl(u)^2) / dl(u).

    Raises NotRiemannian when eta dl(u)^2 >= 1 somewhere, since the
    intermediate metric mu = f*h - eta dl (x) dl degenerates there.
    """
    eta = np.asarray(eta, dtype=float)
    dlu = np.asarray(dlu, dtype=float)
    q = 1.0 - eta * dlu**2
    if np.any(q <= 0.0):
        raise NotRiemannian(
            "eta * dl(u)^2 reaches %.6g >= 1" % float(np.max(eta * dlu**2))
        )
    return np.sqrt(q) / dlu


def series_orders(alpha_max):
    """Number of harmonics so dropped coefficients are below SERIES_TOL."""
    a = max(float(alpha_max), 1e-6) / 2.0
    t = 1.0
    m = 0
    while t > SERIES_TOL and m < 200:
        m += 1
        t *= a / m
    return max(10, min(m + 6, 120))


def bessel_table(alpha, orders):
    """Modified Bessel values I_m(alpha) for m = 0..orders, per node.

    Downward recurrence on the ratios r_m = I_m / I_{m-1},
    r_m = alpha / (2m + alpha r_{m+1}), started at 0 well above the top
    order; then I_m = phi(alpha) r_1 ... r_m. Every r_m lies in [0, 1), so
    nothing overflows, and alpha = 0 gives r_m = 0 exactly. alpha may be
    any array. Agrees with library Bessel evaluations to ~1e-15 and is an
    order of magnitude faster on grid-sized batches.
    """
    z = np.asarray(alpha, dtype=float)
    start = orders + int(np.sqrt(40.0 * max(float(np.max(z)), 1.0))) + 14
    out = np.empty((orders + 1,) + z.shape)
    r = np.zeros(z.shape)
    for m in range(start, 0, -1):
        # r = z / (2m + z r), in place
        np.multiply(z, r, out=r)
        r += 2.0 * m
        np.divide(z, r, out=r)
        if m <= orders:
            out[m] = r
    out[0] = phi(z)
    # a running product row by row; np.cumprod along axis 0 is slower here
    for m in range(1, orders + 1):
        out[m] *= out[m - 1]
    return out


def sin_table(x, orders):
    """sin(2 pi k x) for k = 0..orders via the three-term recurrence."""
    psi = 2.0 * np.pi * np.asarray(x, dtype=float)
    S = np.empty((orders + 1,) + psi.shape)
    S[0] = 0.0
    if orders >= 1:
        S[1] = np.sin(psi)
    twoc = 2.0 * np.cos(psi)
    for k in range(2, orders + 1):
        S[k] = twoc * S[k - 1] - S[k - 2]
    return S


def remainder_series(coeff, sines):
    """Oscillation primitives (A_c, A_s) from aligned coefficient/sine tables.

    A_c collects even harmonics of cosh(theta) - phi, A_s the odd harmonics
    of sinh(theta); both vanish at every integer phase.
    """
    orders = coeff.shape[0] - 1
    Ac = np.zeros(coeff.shape[1:])
    As = np.zeros(coeff.shape[1:])
    term = np.empty(coeff.shape[1:])
    for k in range(1, orders + 1):
        np.multiply(coeff[k], sines[k], out=term)
        term /= np.pi * k
        if k % 2 == 0:
            Ac += term
        else:
            As += term
    return Ac, As


def remainder_quadrature(alpha, x, samples_per_period=64):
    """Trapezoid evaluation of the oscillation primitives on [0, x].

    Independent cross-check for the harmonic series; the integrand is
    resolved with samples_per_period points per unit of phase.
    """
    alpha = float(alpha)
    x = float(x)
    n = max(2, int(np.ceil(samples_per_period * max(x, 1.0 / samples_per_period))))
    s = np.linspace(0.0, x, n + 1)
    theta = alpha * np.cos(2.0 * np.pi * s)
    Ac = np.trapezoid(np.cosh(theta) - phi(alpha), s)
    As = np.trapezoid(np.sinh(theta), s)
    return Ac, As


@dataclass
class StepParams:
    """Everything about a corrugation step that does not depend on N."""

    f: EmbeddingJet
    eta: np.ndarray
    ell: object
    frame: object
    r: np.ndarray
    alpha: np.ndarray
    alpha_max: float
    coeff: np.ndarray
    phase0: np.ndarray
    orders: int
    mu: MetricField
    hx: float
    hy: float


@dataclass
class CorrugationStepRecord:
    """Measured quantities and audits of one applied corrugation."""

    N: int
    alpha_max: float
    orders: int
    eta_max: float
    sup_default: float
    c0_shift: float
    c1_shift: float
    c1_shift_euclid: float
    spacelike_min: float
    audits: dict = field(default_factory=dict)


def prepare_step(f, eta, ell):
    """Frame, radius, amplitude and coefficient tables for a step."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != f.grid.shape:
        raise DomainError("eta shape %s does not match grid" % (eta.shape,))
    if np.any(eta < 0.0):
        raise DomainError("eta must be nonnegative")
    frame = corrugation_frame(f, ell)
    r = radial_factor(eta, frame.dlu)
    # average condition: the loop average r phi(alpha) equals 1 / dl(u)
    alpha = phi_inverse(1.0 / (r * frame.dlu)).alpha
    alpha_max = float(np.max(alpha))
    orders = series_orders(alpha_max)
    coeff = bessel_table(alpha, orders)
    X, Y = f.grid.mesh()
    mu = pullback_metric(f) - ell.outer(eta)
    return StepParams(
        f=f,
        eta=eta,
        ell=ell,
        frame=frame,
        r=r,
        alpha=alpha,
        alpha_max=alpha_max,
        coeff=coeff,
        phase0=ell.phase(X, Y),
        orders=orders,
        mu=mu,
        hx=f.grid.hx,
        hy=f.grid.hy,
    )


def target_differential(params, xhat):
    """Corrugated differential pair (L dx, L dy) at oscillation phase xhat."""
    fr = params.frame
    theta = params.alpha * np.cos(2.0 * np.pi * np.asarray(xhat))
    gap = params.r[..., None] * (
        (np.cosh(theta) - params.coeff[0])[..., None] * fr.t
        + np.sinh(theta)[..., None] * fr.n
    )
    Lx = params.f.dfx + params.ell.a * gap
    Ly = params.f.dfy + params.ell.b * gap
    return Lx, Ly


def _remainder_field(params, coeff, sines, sel):
    """W = r (A_c t + A_s n) with fields sliced by sel, phase table as given."""
    Ac, As = remainder_series(coeff, sines)
    fr = params.frame
    r = params.r[sel]
    return r[..., None] * (Ac[..., None] * fr.t[sel] + As[..., None] * fr.n[sel])


def _frozen_phase_derivatives(params, sines, W):
    """Difference the remainder across neighbors at frozen center phase.

    Central differences inside, one-sided on the boundary rows; the sine
    table (the phase-carrying factor) always belongs to the center node, so
    only the slow fields are differenced.
    """
    C = params.coeff
    hx, hy = params.hx, params.hy

    Wp = _remainder_field(params, C[:, 1:, :], sines[:, :-1, :], (slice(1, None), slice(None)))
    Wm = _remainder_field(params, C[:, :-1, :], sines[:, 1:, :], (slice(None, -1), slice(None)))
    Dx = np.empty_like(W)
    Dx[1:-1] = (Wp[1:] - Wm[:-1]) / (2.0 * hx)
    Dx[0] = (Wp[0] - W[0]) / hx
    Dx[-1] = (W[-1] - Wm[-1]) / hx

    Wp = _remainder_field(params, C[:, :, 1:], sines[:, :, :-1], (slice(None), slice(1, None)))
    Wm = _remainder_field(params, C[:, :, :-1], sines[:, :, 1:], (slice(None), slice(None, -1)))
    Dy = np.empty_like(W)
    Dy[:, 1:-1] = (Wp[:, 1:] - Wm[:, :-1]) / (2.0 * hy)
    Dy[:, 0] = (Wp[:, 0] - W[:, 0]) / hy
    Dy[:, -1] = (W[:, -1] - Wm[:, -1]) / hy
    return Dx, Dy


@dataclass
class _Probe:
    """The corrugated jet at one N and the quantities acceptance reads.

    Each quantity is a max (defect, C0 shift) or a min (spacelike and
    long-for-next eigenvalues) over the probed nodes; long_min is None when
    no next metric was given.
    """

    N: int
    out: EmbeddingJet
    gF: MetricField
    Lx: np.ndarray
    Ly: np.ndarray
    xhat: np.ndarray
    sup_default: float
    spacelike_min: float
    c0_shift: float
    long_min: float | None


def _node_values(params, out, gF, norm_metric, next_metric):
    """Per-node defect, spacelike eigenvalue, C0 shift and long-for-next eigenvalue."""
    d = out.pos - params.f.pos
    return (
        operator_norm_form(gF - params.mu, norm_metric),
        gF.eigenvalues()[0],
        euclidean_norm(d),
        None if next_metric is None else (gF - next_metric).eigenvalues()[0],
    )


def _probe(params, N, norm_metric, next_metric=None, mask=None):
    """Corrugate at N; measure what acceptance reads over the nodes in mask (default all)."""
    if N < 1:
        raise DomainError("corrugation number must be positive")
    x = params.phase0 * float(N)
    xhat = x - np.floor(x)
    sines = sin_table(xhat, params.orders)

    W = _remainder_field(params, params.coeff, sines, (slice(None), slice(None)))
    pos = params.f.pos + W / float(N)

    Lx, Ly = target_differential(params, xhat)
    Dx, Dy = _frozen_phase_derivatives(params, sines, W)
    dfx = Lx + Dx / float(N)
    dfy = Ly + Dy / float(N)

    out = EmbeddingJet(params.f.grid, pos, dfx, dfy)
    gF = pullback_metric(out)
    defect, spacelike, c0, long = _node_values(params, out, gF, norm_metric, next_metric)

    def over_mask(values, reduce):
        return float(reduce(values if mask is None else values[mask]))

    return _Probe(
        N=N,
        out=out,
        gF=gF,
        Lx=Lx,
        Ly=Ly,
        xhat=xhat,
        sup_default=over_mask(defect, np.max),
        spacelike_min=over_mask(spacelike, np.min),
        c0_shift=over_mask(c0, np.max),
        long_min=None if long is None else over_mask(long, np.min),
    )


def _accepts(probe, epsilon, c0_budget):
    """The acceptance tests of N-selection; C0 only with a budget, long only with a next metric."""
    return (
        probe.sup_default <= epsilon
        and probe.spacelike_min > SPACELIKE_TOL
        and (c0_budget is None or probe.c0_shift <= c0_budget)
        and (probe.long_min is None or probe.long_min >= -LONG_TOL)
    )


def _boundary_blocks(params, norm_metric, next_metric):
    """The probe's inputs on the two boundary blocks, each with its outer-line mask.

    Rows [0, 1, n-2, n-1] with every column, then columns [0, 1, n-2, n-1]
    with every row. The one-sided frozen-phase differences on a block's two
    outer lines read exactly lines 1 and n-2, and every other operation is
    per node, so on those lines a block probe computes bitwise the values of
    the whole-grid probe (also when n < 4 and lines repeat).
    """
    f = params.f
    outer = np.array([True, False, False, True])
    blocks = []
    for axis, n in enumerate(f.grid.shape):
        lines = [0, 1, n - 2, n - 1]

        def take(a, lead=0):
            return np.take(a, lines, axis=axis + lead)

        def metric(m):
            return None if m is None else MetricField(take(m.E), take(m.F), take(m.G))

        grid = Grid(4, f.grid.ny) if axis == 0 else Grid(f.grid.nx, 4)
        block = replace(
            params,
            f=EmbeddingJet(grid, take(f.pos), take(f.dfx), take(f.dfy)),
            eta=take(params.eta),
            frame=FrameField(**{k: take(v) for k, v in vars(params.frame).items()}),
            r=take(params.r),
            alpha=take(params.alpha),
            coeff=take(params.coeff, lead=1),
            phase0=take(params.phase0),
            mu=metric(params.mu),
        )
        mask = np.broadcast_to(outer[:, None] if axis == 0 else outer, grid.shape)
        blocks.append((block, metric(norm_metric), metric(next_metric), mask))
    return blocks


def _step_record(params, probe, norm_metric):
    """Full record of a probe: C1 shifts and the step audits."""
    out = probe.out
    return CorrugationStepRecord(
        N=int(probe.N),
        alpha_max=params.alpha_max,
        orders=params.orders,
        eta_max=float(np.max(params.eta)),
        sup_default=probe.sup_default,
        c0_shift=probe.c0_shift,
        c1_shift=c1_increment(out, params.f, norm_metric),
        c1_shift_euclid=c1_increment(out, params.f, MetricField.identity(params.f.grid.shape)),
        spacelike_min=probe.spacelike_min,
        audits=_step_audits(params, probe),
    )


def apply_corrugation(params, N, raise_on_loss=True):
    """Apply the corrugation at corrugation number N and audit the result.

    The defect and the C1 shift are measured against the step's own
    intermediate metric mu.
    """
    probe = _probe(params, N, params.mu)
    if raise_on_loss and probe.spacelike_min <= SPACELIKE_TOL:
        raise LostSpacelike(
            "corrugated jet min eigenvalue %.3e at N=%d" % (probe.spacelike_min, N)
        )
    return probe.out, _step_record(params, probe, params.mu)


def _step_audits(params, probe):
    """Exact-identity, bound and normal audits for one step."""
    fr = params.frame
    mu = params.mu
    out, Lx, Ly = probe.out, probe.Lx, probe.Ly

    LE = minkowski_inner(Lx, Lx)
    LF = minkowski_inner(Lx, Ly)
    LG = minkowski_inner(Ly, Ly)
    identity_max = float(
        max(
            np.max(np.abs(LE - mu.E)),
            np.max(np.abs(LF - mu.F)),
            np.max(np.abs(LG - mu.G)),
        )
    )

    average_max = float(np.max(np.abs(params.r * params.coeff[0] - 1.0 / fr.dlu)))

    theta = params.alpha * np.cos(2.0 * np.pi * probe.xhat)
    nL = np.sinh(theta)[..., None] * fr.t + np.cosh(theta)[..., None] * fr.n
    unit_pred = float(np.max(np.abs(minkowski_inner(nL, nL) + 1.0)))
    ortho_pred = float(
        max(
            np.max(np.abs(minkowski_inner(nL, out.dfx))),
            np.max(np.abs(minkowski_inner(nL, out.dfy))),
        )
    )
    ortho_exact = float(
        max(np.max(np.abs(minkowski_inner(nL, Lx))), np.max(np.abs(minkowski_inner(nL, Ly))))
    )
    # A candidate rejected for losing spacelikeness has no unit normal;
    # mark the actual-normal audits infinite instead of failing the probe.
    if probe.spacelike_min > SPACELIKE_TOL:
        nF = timelike_unit_normal(out.dfx, out.dfy)
        unit_actual = float(np.max(np.abs(minkowski_inner(nF, nF) + 1.0)))
        ortho_actual = float(
            max(
                np.max(np.abs(minkowski_inner(nF, out.dfx))),
                np.max(np.abs(minkowski_inner(nF, out.dfy))),
            )
        )
        normal_norm = euclidean_norm(nF)
    else:
        unit_actual = float("inf")
        ortho_actual = float("inf")
        normal_norm = None

    # Increment bound: the u-direction C1 shift is controlled by the
    # amplitude envelope plus the O(1/N) remainder slack.
    M = increment_constant(max(params.alpha_max, 1e-12))
    du_new = out.apply_d(fr.u)
    lhs = euclidean_norm(du_new - fr.t)
    slack = euclidean_norm(du_new - (fr.u[..., 0:1] * Lx + fr.u[..., 1:2] * Ly))
    envelope = (
        M
        * np.sqrt(params.eta)
        * fr.dlu
        * (euclidean_norm(fr.t) + euclidean_norm(fr.n))
    )
    increment_margin = float(np.max(lhs - envelope - slack))

    # Growth bound: K controls the new differential and normal against the
    # old ones in the pullback operator norm.
    K = growth_constant(max(params.alpha_max, 1e-12))
    g_old = pullback_metric(params.f)
    base = operator_norm_map(params.f.dfx, params.f.dfy, g_old) + euclidean_norm(fr.n)
    new_norm = operator_norm_map(out.dfx, out.dfy, g_old)
    growth_margin = float(np.max(new_norm - K * base))
    if normal_norm is None:
        normal_growth_margin = float("inf")
    else:
        normal_growth_margin = float(np.max(normal_norm - K * base))

    return {
        "identity_max": identity_max,
        "average_max": average_max,
        "normal_unit_predicted": unit_pred,
        "normal_ortho_predicted": ortho_pred,
        "normal_ortho_exact": ortho_exact,
        "normal_unit_actual": unit_actual,
        "normal_ortho_actual": ortho_actual,
        "normal_ortho_budget": 10.0 / float(probe.N),
        "increment_margin": increment_margin,
        "growth_margin": growth_margin,
        "normal_growth_margin": normal_growth_margin,
        "increment_constant": M,
        "growth_constant": K,
    }


def select_corrugation_number(
    f,
    eta,
    ell,
    epsilon,
    norm_metric=None,
    c0_budget=None,
    next_metric=None,
):
    """Smallest doubling N whose corrugated jet meets every acceptance bound.

    Tries N = 16, 32, ..., 2^20 (LADDER_START doubling up to LADDER_CAP);
    accepts when the measured defect against mu is at most epsilon, the
    output stays spacelike, the position shift fits c0_budget (when given)
    and the output remains long for next_metric (when given). Raises
    BudgetExceeded past LADDER_CAP.

    Each N is first screened on the grid's four boundary lines
    (_boundary_blocks), which cost a few percent of a whole-grid probe.
    Every acceptance quantity is a max or a min over nodes and the screen
    reproduces the whole-grid values on those lines bitwise, so a violation
    there proves that the whole grid fails: the screen can only reject an N
    the whole-grid probe would reject, and the chosen N is the one the
    unscreened ladder chooses. An N the screen passes gets the whole-grid
    probe and the same acceptance tests.
    Only the accepted N is audited; the record equals the one
    apply_corrugation gives at that N.
    """
    params = prepare_step(f, eta, ell)
    if norm_metric is None:
        norm_metric = params.mu
    blocks = _boundary_blocks(params, norm_metric, next_metric)
    N = LADDER_START
    while N <= LADDER_CAP:
        if all(
            _accepts(_probe(block, N, block_norm, block_next, mask), epsilon, c0_budget)
            for block, block_norm, block_next, mask in blocks
        ):
            probe = _probe(params, N, norm_metric, next_metric)
            if _accepts(probe, epsilon, c0_budget):
                return probe.out, _step_record(params, probe, norm_metric)
        N *= 2
    raise BudgetExceeded("no corrugation number up to %d met the bounds" % LADDER_CAP)


def successive_cp(
    f,
    decomposition,
    epsilon_per_step,
    norm_metric=None,
    c0_budget_per_step=None,
    final_long_for=None,
):
    """Corrugate once per active dictionary form, in dictionary order.

    Forms with identically zero coefficient fields are skipped (the step
    would be the identity). Returns the final jet and the step records.
    """
    records = []
    cur = f
    active = [
        (ell, eta)
        for ell, eta in zip(decomposition.forms, decomposition.etas)
        if float(np.max(eta)) > 0.0
    ]
    for idx, (ell, eta) in enumerate(active):
        last = idx == len(active) - 1
        cur, rec = select_corrugation_number(
            cur,
            eta,
            ell,
            epsilon_per_step,
            norm_metric=norm_metric,
            c0_budget=c0_budget_per_step,
            next_metric=final_long_for if last else None,
        )
        records.append(rec)
    return cur, records
