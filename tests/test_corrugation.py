"""Tests for the corrugation step: amplitude solve, oscillation tables,
the exact pullback identity, and the corrugation-number search.

Library Bessel/quadrature/root-finding routines serve as independent
oracles for the hand-rolled series and solvers.
"""
import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from lorentz_corrugate import corrugation
from lorentz_corrugate.corrugation import (
    ALPHA_CAP,
    PHI_INVERSE_TOL,
    apply_corrugation,
    bessel_table,
    phi,
    phi_inverse,
    phi_prime,
    phi_quadrature,
    prepare_step,
    radial_factor,
    remainder_quadrature,
    remainder_series,
    select_corrugation_number,
    series_orders,
    sin_table,
    successive_cp,
    target_differential,
)
from lorentz_corrugate.decomp import build_dictionary, decompose
from lorentz_corrugate.errors import (
    BudgetExceeded,
    DomainError,
    LostSpacelike,
    NotRiemannian,
)
from lorentz_corrugate.fields import (
    Grid,
    LinearForm,
    MetricField,
    corrugation_frame,
    isometric_default,
    minkowski_inner,
    operator_norm_form,
    pullback_metric,
)
from lorentz_corrugate.scenarios import (
    STRIP_FORM,
    collar_eta_field,
    flat_inclusion,
    strip_eta_field,
)


def strip_jet(n=33):
    grid = Grid(n, n)
    return grid, flat_inclusion(grid), strip_eta_field(grid)


# --- average function phi and its inverse ---


def test_phi_matches_library_bessel():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 5.0, size=100)
    ref = special.iv(0, a)
    assert np.max(np.abs(phi(a) - ref) / ref) < 1e-14


def test_phi_frozen_values():
    # I_0(1) and I_0(2) to full double precision.
    assert float(phi(0.0)) == 1.0
    assert abs(float(phi(1.0)) - 1.2660658777520084) < 1e-15
    assert abs(float(phi(2.0)) - 2.2795853023360673) < 1e-15


def test_phi_prime_matches_library_bessel():
    rng = np.random.default_rng(12)
    a = rng.uniform(1e-6, 5.0, size=100)
    ref = special.iv(1, a)
    assert np.max(np.abs(phi_prime(a) - ref) / ref) < 1e-13
    assert float(phi_prime(0.0)) == 0.0


def _phi_reference(alpha):
    """The series loop of phi with a fresh array per term."""
    z = np.asarray(alpha, dtype=float)
    q = (z / 2.0) ** 2
    term = np.ones_like(z)
    total = np.ones_like(z)
    m = 0
    while True:
        m += 1
        term = term * q / (m * m)
        total += term
        if np.max(term) <= 1e-17 * np.max(total) or m > 2000:
            break
    return total if total.shape else float(total)


def test_phi_in_place_series_matches_reference():
    rng = np.random.default_rng(13)
    for a in (
        rng.uniform(0.0, 5.0, size=100),
        rng.uniform(0.0, ALPHA_CAP, size=(7, 9)),
        np.linspace(0.0, 40.0, 33)[::3],
    ):
        assert np.array_equal(phi(a), _phi_reference(a))
    for a in (0.0, 0.7, 2.0, np.float64(3.5), np.array(12.0)):
        value = phi(a)
        assert type(value) is float
        assert value == _phi_reference(a)


def test_phi_domain_guard():
    phi(ALPHA_CAP)  # boundary is admissible
    with pytest.raises(DomainError):
        phi(-0.1)
    with pytest.raises(DomainError):
        phi(ALPHA_CAP + 1.0)


def test_phi_quadrature_cross_check():
    """The series and the trapezoid average agree; quad agrees with both."""
    for a in (0.3, 1.7, 4.0):
        assert abs(float(phi(a)) - float(phi_quadrature(a))) < 1e-12
    q, _ = integrate.quad(lambda s: np.cosh(1.7 * np.cos(2 * np.pi * s)), 0.0, 1.0)
    assert abs(float(phi(1.7)) - q) < 1e-12


def test_phi_inverse_roundtrip():
    rng = np.random.default_rng(13)
    a = rng.uniform(1e-3, 5.0, size=40)
    res = phi_inverse(phi(a))
    assert np.max(np.abs(np.asarray(res.alpha) - a)) < 1e-9


def test_phi_inverse_frozen_and_edges():
    # alpha with I_0(alpha) = sqrt(2), pinned by bracketing root-finding.
    r = phi_inverse(np.sqrt(2.0))
    assert abs(float(r.alpha) - 1.2282198517512042) < 1e-11
    assert float(phi_inverse(1.0).alpha) == 0.0
    # tiny dips below 1 are clamped, genuine ones rejected
    assert float(phi_inverse(1.0 - 1e-13).alpha) == 0.0
    for y in (0.9, np.nan, np.array([2.0, np.nan])):
        with pytest.raises(DomainError):
            phi_inverse(y)


def test_phi_inverse_library_oracle():
    for y in (1.05, 2.0, 11.3, 150.0):
        ref = optimize.brentq(
            lambda a: special.iv(0, a) - y, 1e-12, 20.0, xtol=1e-14
        )
        assert abs(float(phi_inverse(y).alpha) - ref) < 1e-10


def test_phi_inverse_solves_up_to_alpha_cap():
    """Newton steps are clipped at ALPHA_CAP, so every amplitude up to the
    cap solves (61 iterations at most)."""
    alphas = np.array([60.0, 200.0, 450.0, 499.0])
    cases = [float(a) for a in alphas] + [np.append(alphas, 0.3)]
    for a in cases:
        y = phi(a)
        res = phi_inverse(y)
        assert np.asarray(res.alpha).shape == np.shape(a)
        assert np.all(np.abs(res.alpha - a) <= 1e-12 * a)
        assert np.all(np.abs(phi(res.alpha) - y) <= 1e-12 * y)
        assert res.iterations <= 61
    with pytest.raises(DomainError):
        phi_inverse(1.01 * phi(ALPHA_CAP))
    with pytest.raises(DomainError):
        phi_inverse(np.array([2.0, 1.01 * phi(ALPHA_CAP)]))


def test_phi_inverse_cost_on_run_amplitudes():
    """Amplitudes of a staged run stay below 1: a few Newton steps solve
    every node of a 257x257 grid to the per-node tolerance."""
    a = 1.0 - np.random.default_rng(15).uniform(size=(257, 257))
    y = phi(a)
    res = phi_inverse(y)
    assert res.iterations <= 8
    assert np.all(np.abs(phi(res.alpha) - y) <= PHI_INVERSE_TOL * np.maximum(1.0, y))


def test_phi_inverse_monotone_vectorized():
    y = np.linspace(1.0, 40.0, 80)
    a = np.asarray(phi_inverse(y).alpha)
    assert a.shape == y.shape
    assert np.all(np.diff(a) > 0.0)


# --- loop radius, amplitude, loop average ---


def test_radial_factor_values_and_guard():
    assert abs(float(radial_factor(0.5, 1.0)) - np.sqrt(0.5)) < 1e-15
    assert abs(float(radial_factor(0.0, 2.0)) - 0.5) < 1e-15
    with pytest.raises(NotRiemannian):
        radial_factor(1.0, 1.0)
    with pytest.raises(NotRiemannian):
        radial_factor(np.array([0.1, 0.9]), np.array([1.0, 1.1]))


def test_amplitude_average_condition():
    """r phi(alpha) dlu = 1: the corrugated average matches the original."""
    rng = np.random.default_rng(14)
    eta = rng.uniform(0.0, 0.9, size=200)
    dlu = rng.uniform(0.3, 1.0, size=200)
    r = radial_factor(eta, dlu)
    a = np.asarray(phi_inverse(1.0 / (r * dlu)).alpha)
    assert np.max(np.abs(r * phi(a) * dlu - 1.0)) < 1e-10


# Reference loop family, in closed form and by quadrature; the engine only
# evaluates its harmonic expansion.
def loop_gamma(r, alpha, t, n, s):
    """Loop point gamma(s) = r (cosh(theta) t + sinh(theta) n)."""
    theta = np.asarray(alpha) * np.cos(2.0 * np.pi * np.asarray(s))
    r = np.asarray(r)
    return r[..., None] * (np.cosh(theta)[..., None] * t + np.sinh(theta)[..., None] * n)


def loop_average(r, alpha, t):
    """Closed-form loop average r phi(alpha) t."""
    return (np.asarray(r) * phi(alpha))[..., None] * t


def loop_average_quadrature(r, alpha, t, n, samples=2048):
    """Trapezoid average of the loop over one period, as a cross-check."""
    s = np.linspace(0.0, 1.0, samples + 1)
    theta = np.multiply.outer(np.asarray(alpha, dtype=float), np.cos(2.0 * np.pi * s))
    ch = np.trapezoid(np.cosh(theta), s, axis=-1)
    sh = np.trapezoid(np.sinh(theta), s, axis=-1)
    r = np.asarray(r)
    return r[..., None] * (ch[..., None] * t + sh[..., None] * n)


def test_loop_gamma_causal_norm():
    """h(gamma, gamma) = r^2 for any h-orthonormal pair, any phase."""
    rng = np.random.default_rng(15)
    b = rng.uniform(-1.0, 1.0, size=30)
    t = np.stack([np.cosh(b), np.zeros_like(b), np.sinh(b)], axis=-1)
    n = np.stack([np.sinh(b), np.zeros_like(b), np.cosh(b)], axis=-1)
    r = rng.uniform(0.2, 2.0, size=30)
    al = rng.uniform(0.0, 2.0, size=30)
    s = rng.uniform(0.0, 1.0, size=30)
    g = loop_gamma(r, al, t, n, s)
    assert np.max(np.abs(minkowski_inner(g, g) - r**2)) < 1e-12


def test_loop_average_closed_form_vs_quadrature():
    rng = np.random.default_rng(16)
    b = rng.uniform(-0.5, 0.5, size=20)
    t = np.stack([np.cosh(b), np.zeros_like(b), np.sinh(b)], axis=-1)
    n = np.stack([np.sinh(b), np.zeros_like(b), np.cosh(b)], axis=-1)
    r = rng.uniform(0.2, 2.0, size=20)
    al = rng.uniform(0.0, 3.0, size=20)
    closed = loop_average(r, al, t)
    quad = loop_average_quadrature(r, al, t, n)
    assert np.max(np.abs(closed - quad)) < 1e-12


# --- oscillation tables ---


def test_series_orders_bounds_and_monotone():
    assert series_orders(1e-8) == 10
    assert series_orders(1e6) == 120
    vals = [series_orders(a) for a in (0.5, 2.0, 8.0, 40.0)]
    assert vals == sorted(vals)
    assert all(10 <= v <= 120 for v in vals)


def test_bessel_table_library_oracle():
    orders = 24
    # at 1e-200 and 1e-100 a Miller recurrence overflows in one step
    a = np.array([0.0, 1e-200, 1e-100, 1e-3, 0.3, 0.7, 3.0, 30.0, 300.0, 499.0])
    tab = bessel_table(a, orders)
    assert np.all(np.isfinite(tab))
    ref = np.array([[special.iv(k, x) for x in a] for k in range(orders + 1)])
    nz = ref != 0.0
    assert np.max(np.abs(tab[nz] - ref[nz]) / np.abs(ref[nz])) < 5e-14
    # scipy underflows to 0 early (I_1(1e-200), I_3(1e-100)); the two-term
    # series (a/2)^m / m! (1 + (a/2)^2 / (m + 1)) checks every order whose
    # value is a normal double
    tiny = np.array([1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-8])
    tab_tiny = bessel_table(tiny, orders)
    series = np.array(
        [[(x / 2) ** m / math.factorial(m) * (1 + (x / 2) ** 2 / (m + 1)) for x in tiny]
         for m in range(orders + 1)]
    )
    normal = series >= np.finfo(float).tiny
    assert np.all(normal[:2])
    rel = np.abs(tab_tiny[normal] - series[normal]) / series[normal]
    assert np.max(rel) < 5e-14
    # exact zero column: I_0 = 1, higher orders 0
    assert tab[0, 0] == 1.0
    assert np.all(tab[1:, 0] == 0.0)
    # scalar-shaped input keeps working
    scal = bessel_table(np.array(2.5), 6)
    assert scal.shape == (7,)
    assert abs(scal[3] - special.iv(3, 2.5)) < 1e-14


def test_sin_table_recurrence():
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 1.0, size=64)
    S = sin_table(x, 60)
    for k in (0, 1, 7, 31, 60):
        assert np.max(np.abs(S[k] - np.sin(2.0 * np.pi * k * x))) < 1e-10


def test_remainder_series_vs_quadrature():
    for a in (0.5, 2.0):
        orders = series_orders(a)
        coeff = bessel_table(np.array([a]), orders)
        for x in (0.13, 0.37, 0.5, 0.81):
            sines = sin_table(np.array([x]), orders)
            Ac, As = remainder_series(coeff, sines)
            qc, qs = remainder_quadrature(a, x, samples_per_period=32768)
            assert abs(float(Ac[0]) - qc) < 1e-6
            assert abs(float(As[0]) - qs) < 1e-6


def _remainder_reference(coeff, sines):
    """The harmonic sum of remainder_series with a fresh array per term."""
    Ac = np.zeros(coeff.shape[1:])
    As = np.zeros(coeff.shape[1:])
    for k in range(1, coeff.shape[0]):
        term = coeff[k] * sines[k] / (np.pi * k)
        if k % 2 == 0:
            Ac += term
        else:
            As += term
    return Ac, As


def test_remainder_series_in_place_matches_reference():
    """Bitwise equal on whole tables and on the four neighbor-shifted
    strided slices that the frozen-phase derivatives pass."""
    grid, f, eta = strip_jet(33)
    params = prepare_step(f, eta, LinearForm(1.0, 0.3))
    x = params.phase0 * 48.0
    sines = sin_table(x - np.floor(x), params.orders)
    C = params.coeff
    pairs = [
        (C, sines),
        (C[:, 1:, :], sines[:, :-1, :]),
        (C[:, :-1, :], sines[:, 1:, :]),
        (C[:, :, 1:], sines[:, :, :-1]),
        (C[:, :, :-1], sines[:, :, 1:]),
    ]
    for coeff, sn in pairs:
        Ac, As = remainder_series(coeff, sn)
        rc, rs = _remainder_reference(coeff, sn)
        assert np.array_equal(Ac, rc)
        assert np.array_equal(As, rs)


def test_remainder_vanishes_at_integer_phase():
    a = 1.3
    orders = series_orders(a)
    coeff = bessel_table(np.array([a]), orders)
    sines = sin_table(np.array([0.0]), orders)
    Ac, As = remainder_series(coeff, sines)
    assert float(Ac[0]) == 0.0 and float(As[0]) == 0.0
    qc, qs = remainder_quadrature(a, 1.0, samples_per_period=32768)
    assert abs(qc) < 1e-8 and abs(qs) < 1e-12


# --- step construction ---


def test_prepare_step_guards():
    grid, f, eta = strip_jet(9)
    with pytest.raises(DomainError):
        prepare_step(f, -eta, STRIP_FORM)
    with pytest.raises(DomainError):
        prepare_step(f, eta[:-1], STRIP_FORM)


def test_prepare_step_intermediate_metric():
    grid, f, eta = strip_jet(17)
    params = prepare_step(f, eta, STRIP_FORM)
    want = pullback_metric(f) - STRIP_FORM.outer(eta)
    assert np.max(np.abs(params.mu.E - want.E)) == 0.0
    assert np.max(np.abs(params.mu.F - want.F)) == 0.0
    assert np.max(np.abs(params.mu.G - want.G)) == 0.0


def test_target_differential_pullback_identity():
    """L*h = mu exactly, at arbitrary oscillation phase."""
    grid, f, eta = strip_jet(17)
    params = prepare_step(f, eta, STRIP_FORM)
    rng = np.random.default_rng(18)
    xhat = rng.uniform(0.0, 1.0, size=grid.shape)
    Lx, Ly = target_differential(params, xhat)
    assert np.max(np.abs(minkowski_inner(Lx, Lx) - params.mu.E)) < 1e-12
    assert np.max(np.abs(minkowski_inner(Lx, Ly) - params.mu.F)) < 1e-12
    assert np.max(np.abs(minkowski_inner(Ly, Ly) - params.mu.G)) < 1e-12


def test_target_differential_fixes_kernel_direction():
    """Along ker dl the corrugated differential equals the original."""
    grid, f, eta = strip_jet(17)
    params = prepare_step(f, eta, STRIP_FORM)
    v = params.frame.v
    Lx, Ly = target_differential(params, np.full(grid.shape, 0.37))
    new = v[..., 0:1] * Lx + v[..., 1:2] * Ly
    old = v[..., 0:1] * f.dfx + v[..., 1:2] * f.dfy
    assert np.max(np.abs(new - old)) < 1e-13


def test_zero_eta_step_is_identity():
    grid = Grid(17, 17)
    f = flat_inclusion(grid)
    out, rec = apply_corrugation(prepare_step(f, np.zeros(grid.shape), STRIP_FORM), 8)
    assert np.array_equal(out.pos, f.pos)
    assert np.array_equal(out.dfx, f.dfx)
    assert np.array_equal(out.dfy, f.dfy)
    assert rec.sup_default == 0.0 and rec.c0_shift == 0.0


def test_collar_support_is_bitwise_untouched():
    """Nodes whose neighborhood misses supp(eta) keep position and
    differential bit for bit."""
    grid = Grid(33, 33)
    f = flat_inclusion(grid)
    eta = collar_eta_field(grid)
    out, rec = apply_corrugation(prepare_step(f, eta, STRIP_FORM), 16)
    zero = eta == 0.0
    assert np.array_equal(out.pos[zero], f.pos[zero])
    quiet = zero.copy()
    quiet[1:-1] &= zero[2:] & zero[:-2]
    quiet[0] &= zero[1]
    quiet[-1] &= zero[-2]
    quiet[:, 1:-1] &= zero[:, 2:] & zero[:, :-2]
    quiet[:, 0] &= zero[:, 1]
    quiet[:, -1] &= zero[:, -2]
    assert np.count_nonzero(quiet) > 0
    assert np.array_equal(out.dfx[quiet], f.dfx[quiet])
    assert np.array_equal(out.dfy[quiet], f.dfy[quiet])
    assert rec.spacelike_min > 0.0


def test_step_audits_on_strip():
    grid, f, eta = strip_jet(33)
    out, rec = apply_corrugation(prepare_step(f, eta, STRIP_FORM), 32)
    aud = rec.audits
    assert list(aud) == [
        "identity_max",
        "average_max",
        "normal_unit_predicted",
        "normal_ortho_predicted",
        "normal_ortho_exact",
        "normal_unit_actual",
        "normal_ortho_actual",
        "normal_ortho_budget",
        "increment_margin",
        "growth_margin",
        "normal_growth_margin",
        "increment_constant",
        "growth_constant",
    ]
    assert aud["identity_max"] < 1e-12
    assert aud["average_max"] < 1e-10
    assert aud["normal_unit_predicted"] < 1e-8
    assert aud["normal_ortho_exact"] < 1e-12
    assert aud["normal_ortho_predicted"] <= aud["normal_ortho_budget"]
    assert aud["normal_ortho_actual"] <= aud["normal_ortho_budget"]
    assert aud["normal_unit_actual"] < 1e-6
    assert aud["increment_margin"] <= 0.0
    assert aud["growth_margin"] <= 0.0
    assert aud["normal_growth_margin"] <= 0.0


def test_defect_decays_with_corrugation_number():
    grid, f, eta = strip_jet(33)
    sups = []
    for N in (24, 48, 96):
        out, rec = apply_corrugation(prepare_step(f, eta, STRIP_FORM), N)
        sups.append(rec.sup_default)
    assert sups[0] > sups[1] > sups[2]


def test_apply_corrugation_rejects_bad_N():
    grid, f, eta = strip_jet(9)
    params = prepare_step(f, eta, STRIP_FORM)
    with pytest.raises(DomainError):
        apply_corrugation(params, 0)


def test_chained_steps_can_lose_spacelikeness():
    """Corrugating an already corrugated jet at too small an N drives the
    pullback metric past the light cone; the guard reports it."""
    grid = Grid(33, 33)
    f = flat_inclusion(grid)
    g1 = MetricField.constant(0.75, 0.0, 0.75, grid.shape)
    dec = decompose(isometric_default(f, g1), build_dictionary(5))
    act = [i for i, e in enumerate(dec.etas) if float(np.max(e)) > 1e-14]
    mid, _ = apply_corrugation(prepare_step(f, dec.etas[act[0]], dec.forms[act[0]]), 16)
    params = prepare_step(mid, dec.etas[act[1]], dec.forms[act[1]])
    with pytest.raises(LostSpacelike):
        apply_corrugation(params, 4)
    out, rec = apply_corrugation(params, 4, raise_on_loss=False)
    assert rec.spacelike_min <= 0.0
    assert rec.audits["normal_unit_actual"] == np.inf


# --- corrugation number search ---


def test_select_accepts_zero_field_at_start():
    grid = Grid(17, 17)
    f = flat_inclusion(grid)
    out, rec = select_corrugation_number(f, np.zeros(grid.shape), STRIP_FORM, 0.05)
    assert rec.N == 16


def test_select_monotone_in_epsilon():
    grid, f, eta = strip_jet(33)
    _, loose = select_corrugation_number(f, eta, STRIP_FORM, 0.05)
    _, tight = select_corrugation_number(f, eta, STRIP_FORM, 0.0125)
    assert loose.sup_default <= 0.05
    assert tight.sup_default <= 0.0125
    assert tight.N >= loose.N


def _assert_same_step(got, want):
    """Identical jets and records: every field and every audit, exactly."""
    (out, rec), (ref_out, ref) = got, want
    for name in ("pos", "dfx", "dfy"):
        assert np.array_equal(getattr(out, name), getattr(ref_out, name))
    for fld in dataclasses.fields(rec):
        if fld.name != "audits":
            assert getattr(rec, fld.name) == getattr(ref, fld.name), fld.name
    assert list(rec.audits) == list(ref.audits)
    for key, value in rec.audits.items():
        assert value == ref.audits[key], key


@pytest.mark.parametrize(
    "ell, epsilon, c0_budget, next_metric",
    [
        (STRIP_FORM, 0.0125, None, None),
        (LinearForm(1.0, 0.3), 1e-3, None, None),
        (LinearForm(1.0, 0.3), 0.05, 3e-3, MetricField.constant(0.4, 0.0, 0.4, (33, 33))),
    ],
)
def test_select_record_equals_apply_at_accepted_N(ell, epsilon, c0_budget, next_metric):
    """Selection audits only the accepted N; its record is the one the
    audited step gives at that N."""
    grid, f, eta = strip_jet(33)
    got = select_corrugation_number(
        f, eta, ell, epsilon, c0_budget=c0_budget, next_metric=next_metric
    )
    want = apply_corrugation(prepare_step(f, eta, ell), got[1].N, raise_on_loss=False)
    _assert_same_step(got, want)


def test_select_audits_once(monkeypatch):
    calls = []
    original = corrugation._step_audits

    def counted(*args):
        calls.append(args[1].N)
        return original(*args)

    monkeypatch.setattr(corrugation, "_step_audits", counted)
    grid, f, eta = strip_jet(33)
    _, rec = select_corrugation_number(f, eta, LinearForm(1.0, 0.3), 1e-3)
    assert rec.N > 16  # the ladder rejected at least one probe
    assert calls == [rec.N]


# --- boundary screen of N-selection ---


@pytest.mark.parametrize(
    "shape, ell",
    [
        ((33, 40), STRIP_FORM),
        ((33, 40), LinearForm(1.0, 0.3)),
        ((2, 2), LinearForm(1.0, 0.3)),
        ((3, 5), LinearForm(0.6, -0.8)),
    ],
)
def test_boundary_screen_values_equal_whole_grid(shape, ell):
    """On the outer lines of both blocks the per-node acceptance values are
    the whole-grid probe's, bitwise; lines repeat on the 2x2 and 3x5 grids."""
    grid = Grid(*shape)
    params = prepare_step(flat_inclusion(grid), strip_eta_field(grid), ell)
    norm = MetricField.identity(shape)
    nxt = MetricField.constant(0.4, 0.1, 0.5, shape)
    blocks = corrugation._boundary_blocks(params, norm, nxt)
    for N in (1, 16, 48, 1024, 2**20):
        whole = corrugation._probe(params, N, norm, nxt)
        want = corrugation._node_values(params, whole.out, whole.gF, norm, nxt)
        for axis, (block, block_norm, block_next, mask) in enumerate(blocks):
            probe = corrugation._probe(block, N, block_norm, block_next, mask)
            got = corrugation._node_values(block, probe.out, probe.gF, block_norm, block_next)
            n = shape[axis]
            for g, w in zip(got, want):
                assert np.array_equal(np.take(g, [0, 3], axis), np.take(w, [0, n - 1], axis))
            # the block probe reduces over exactly those lines
            outer = [np.take(w, [0, n - 1], axis) for w in want]
            assert probe.sup_default == np.max(outer[0])
            assert probe.spacelike_min == np.min(outer[1])
            assert probe.c0_shift == np.max(outer[2])
            assert probe.long_min == np.min(outer[3])


def _unscreened_select(f, eta, ell, epsilon, c0_budget=None, next_metric=None):
    """Reference ladder without the boundary screen: the whole-grid probe at every N."""
    params = prepare_step(f, eta, ell)
    N = corrugation.LADDER_START
    while N <= corrugation.LADDER_CAP:
        probe = corrugation._probe(params, N, params.mu)
        ok = probe.sup_default <= epsilon and probe.spacelike_min > corrugation.SPACELIKE_TOL
        if ok and c0_budget is not None:
            ok = probe.c0_shift <= c0_budget
        if ok and next_metric is not None:
            ok = (probe.gF - next_metric).min_eigenvalue() >= -1e-12
        if ok:
            return probe.out, corrugation._step_record(params, probe, params.mu)
        N *= 2
    raise BudgetExceeded("reference ladder exhausted")


def _count_whole_grid_probes(monkeypatch, shape):
    """Record, per _probe call, whether it probed the whole grid of this shape."""
    calls = []
    original = corrugation._probe

    def counted(params, *args):
        calls.append(params.f.grid.shape == shape)
        return original(params, *args)

    monkeypatch.setattr(corrugation, "_probe", counted)
    return calls


@pytest.mark.parametrize(
    "ell, epsilon, c0_budget, next_metric, collar",
    [
        (STRIP_FORM, 0.0125, None, None, False),
        (LinearForm(1.0, 0.3), 1e-3, None, None, False),
        (LinearForm(1.0, 0.3), 0.05, 3e-3, MetricField.constant(0.4, 0.0, 0.4, (33, 33)), False),
        # eta vanishes on the boundary lines, so only the whole grid can reject
        (LinearForm(1.0, 0.3), 1e-3, None, None, True),
    ],
)
def test_select_equals_unscreened_ladder(monkeypatch, ell, epsilon, c0_budget, next_metric, collar):
    grid, f, eta = strip_jet(33)
    if collar:
        eta = collar_eta_field(grid)
    want = _unscreened_select(f, eta, ell, epsilon, c0_budget=c0_budget, next_metric=next_metric)
    whole = _count_whole_grid_probes(monkeypatch, grid.shape)
    got = select_corrugation_number(
        f, eta, ell, epsilon, c0_budget=c0_budget, next_metric=next_metric
    )
    _assert_same_step(got, want)
    if collar:
        assert sum(whole) > 1  # whole-grid probes rejected what the screen passed


def test_select_probes_whole_grid_once_per_step(monkeypatch):
    """The screen rejects every refused N, so each step makes one whole-grid probe."""
    grid = Grid(33, 33)
    f = flat_inclusion(grid)
    g1 = MetricField.constant(0.75, 0.0, 0.75, grid.shape)
    dec = decompose(isometric_default(f, g1), build_dictionary(3))
    whole = _count_whole_grid_probes(monkeypatch, grid.shape)
    _, records = successive_cp(f, dec, 1e-3, norm_metric=g1)
    assert any(rec.N > corrugation.LADDER_START for rec in records)  # rejections happened
    assert sum(whole) == len(records) == 3
    assert len(whole) > 2 * len(records)


def test_select_budget_exhaustion(monkeypatch):
    # tilted form so no ladder N aligns with the node lattice
    grid, f, eta = strip_jet(17)
    ell = LinearForm(1.0, 0.3)
    monkeypatch.setattr(corrugation, "LADDER_CAP", 256)
    with pytest.raises(BudgetExceeded, match="up to 256 met"):
        select_corrugation_number(f, eta, ell, 1e-15)
    with pytest.raises(BudgetExceeded):
        select_corrugation_number(f, eta, ell, 0.05, c0_budget=1e-12)


def test_successive_cp_zero_decomposition():
    grid = Grid(17, 17)
    f = flat_inclusion(grid)
    dec = decompose(
        MetricField.constant(0.0, 0.0, 0.0, grid.shape), build_dictionary(5)
    )
    out, records = successive_cp(f, dec, 0.05)
    assert records == []
    assert np.array_equal(out.pos, f.pos)


def test_successive_cp_triangle_bound():
    """Per-step errors accumulate at most additively: after k steps the
    defect against the stage target is below k * eps plus slack."""
    grid = Grid(33, 33)
    f = flat_inclusion(grid)
    g1 = MetricField.constant(0.75, 0.0, 0.75, grid.shape)
    dec = decompose(isometric_default(f, g1), build_dictionary(3))
    eps = 0.02
    out, records = successive_cp(f, dec, eps, norm_metric=g1)
    k = len(records)
    assert k == 3
    final = float(np.max(operator_norm_form(isometric_default(out, g1), g1)))
    assert final <= k * eps + dec.residual + 1e-9
    for rec in records:
        assert rec.sup_default <= eps
        assert rec.alpha_max > 0.0
        assert rec.spacelike_min > 0.0
