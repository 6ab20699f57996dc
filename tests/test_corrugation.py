"""Tests for the corrugation step: amplitude solve, oscillation tables,
the exact pullback identity, and the corrugation-number search.

Library Bessel/quadrature/root-finding routines serve as independent
oracles for the hand-rolled series and solvers.
"""
import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, optimize, special

from lorentz_corrugate import corrugation, fields
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
)
from lorentz_corrugate.decomp import build_dictionary, decompose
from lorentz_corrugate.errors import (
    BudgetExceeded,
    DegeneratePlane,
    DomainError,
    LostSpacelike,
    NotRiemannian,
    SingularMetric,
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
    alphas = np.array([20.8, 40.0, 60.0, 63.9])
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
    a = np.array([0.0, 1e-200, 1e-100, 1e-3, 0.3, 0.7, 3.0, 30.0, 60.0])
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


def test_bessel_table_bands_given_the_grid_alpha_max():
    """Given the grid's alpha_max, a row band's table, written into its
    columns of one table, is bitwise the whole grid's."""
    rng = np.random.default_rng(29)
    alpha = rng.uniform(0.0, 20.8, (11, 7))
    alpha[0, 0], alpha[3, 2], alpha[10, 6] = 0.0, 1e-300, ALPHA_CAP
    alpha_max = float(np.max(alpha))
    orders = series_orders(alpha_max)
    whole = bessel_table(alpha, orders)
    banded = np.empty_like(whole)
    for rows in (slice(0, 1), slice(1, 4), slice(4, 5), slice(5, 11)):
        out = bessel_table(alpha[rows], orders, alpha_max, banded[:, rows])
        assert np.shares_memory(out, banded)
    assert banded.tobytes() == whole.tobytes()


def test_phi_inverse_holds_at_least():
    """at_least at or below a solve's count changes nothing; above it, the
    solve steps on to that count and stays converged."""
    y = phi(np.linspace(0.0, 20.0, 41))
    first = phi_inverse(y)
    assert first.iterations > 0
    for at_least in (0, first.iterations):
        again = phi_inverse(y, at_least=at_least)
        assert again.iterations == first.iterations
        assert again.alpha.tobytes() == first.alpha.tobytes()
    for at_least in (first.iterations + 1, first.iterations + 3):
        held = phi_inverse(y, at_least=at_least)
        assert held.iterations == at_least
        assert np.all(np.abs(phi(held.alpha) - y) <= PHI_INVERSE_TOL * y)


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


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (33, 17)])
@pytest.mark.parametrize("N", [1, 16, 2**20])
def test_harmonic_sums_equal_remainder_series_per_cut(shape, N):
    """The probe's one pass gives, bitwise, remainder_series on each cut of
    the coefficient table and of sin_table: the centre, then the +x, -x,
    +y and -y neighbours at the centre's phase. alpha is 0 at some nodes."""
    grid = Grid(*shape)
    alpha = np.random.default_rng(19).uniform(0.0, 3.0, size=shape)
    alpha[::2, 0] = 0.0
    orders = series_orders(float(np.max(alpha)))
    coeff = bessel_table(alpha, orders)
    X, Y = grid.mesh()
    x = LinearForm(0.6, -0.8).phase(X, Y) * float(N)
    xhat = x - np.floor(x)
    psi = 2.0 * np.pi * xhat
    cuts = corrugation._cuts(corrugation._whole(shape), shape)
    sums = corrugation._harmonic_sums(coeff, psi, np.cos(psi), cuts)
    sines = sin_table(xhat, orders)
    every, head, tail = slice(None), slice(None, -1), slice(1, None)
    cuts = [
        ((every, every), (every, every)),
        ((tail, every), (head, every)),
        ((head, every), (tail, every)),
        ((every, tail), (every, head)),
        ((every, head), (every, tail)),
    ]
    assert len(sums) == len(cuts)
    for (ccut, scut), (Ac, As) in zip(cuts, sums):
        rc, rs = remainder_series(coeff[(every,) + ccut], sines[(every,) + scut])
        assert np.array_equal(Ac, rc)
        assert np.array_equal(As, rs)


def _probe_peak(eta):
    """Peak bytes allocated by one whole-grid probe of the flat 129x129 plane."""
    grid = Grid(129, 129)
    params = prepare_step(flat_inclusion(grid), eta(grid), LinearForm(1.0, 0.0))
    norm = MetricField.identity(grid.shape)
    tracemalloc.start()
    try:
        corrugation._probe(params, 64, norm, None, corrugation._whole(grid.shape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return params.orders, peak


def test_probe_peak_does_not_grow_with_orders():
    """The probe keeps three sine rows, not an (orders + 1) x nodes table:
    a step with 30+ harmonics peaks where a 10-harmonic step does."""
    small_orders, small_peak = _probe_peak(lambda grid: np.zeros(grid.shape))
    large_orders, large_peak = _probe_peak(lambda grid: np.full(grid.shape, 1.0 - 1e-12))
    assert small_orders == 10 and large_orders >= 30
    table_growth = (large_orders - small_orders) * 129 * 129 * 8
    assert abs(large_peak - small_peak) < 0.25 * table_growth


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


def test_prepare_step_reaches_its_largest_amplitude_below_cap():
    """eta dl(u)^2 = nextafter(1, 0) gives the smallest positive
    q = 1 - eta dl(u)^2 = 2^-53, so phi(alpha) = 2^26.5: the largest
    amplitude any step can produce, about 20.80, well inside ALPHA_CAP."""
    grid = Grid(3, 3)
    eta = np.full(grid.shape, np.nextafter(1.0, 0.0))
    params = prepare_step(flat_inclusion(grid), eta, LinearForm(1.0, 0.0))
    assert params.alpha_max == pytest.approx(20.80, abs=5e-3)
    assert params.alpha_max < ALPHA_CAP
    _, rec = apply_corrugation(params, 16, raise_on_loss=False)
    assert np.isfinite(rec.audits["increment_constant"])
    assert np.isfinite(rec.audits["growth_constant"])


def _assert_same_params(got, want):
    """Every StepParams field of got is bitwise want's."""
    for field in dataclasses.fields(corrugation.StepParams):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, MetricField):
            a, b = np.stack([a.E, a.F, a.G]), np.stack([b.E, b.F, b.G])
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def test_step_fields_are_allocated_and_cut_by_their_declaration():
    """Walked from StepParams' declaration, every per-node field has its
    node axes where the declaration puts them (after the harmonic axis,
    before the component axes), allocated fresh and prepared; a tile, a
    one-row band and the stepped boundary pairs cut each to views of
    exactly that region's node shape, with the scalars kept; and a write
    through a band's cut lands in the whole step."""
    grid = Grid(33, 40)
    params = prepare_step(flat_inclusion(grid), strip_eta_field(grid), LinearForm(1.0, 0.3))
    declared = {
        fld.name: fld.metadata["nodes"]
        for fld in dataclasses.fields(corrugation.StepParams)
        if "nodes" in fld.metadata
    }
    assert list(declared) == [
        "f", "t", "n", "u", "r", "alpha", "coeff", "phase0", "mu", "pullback", "envelope", "base",
    ]
    scalars = [fld.name for fld in dataclasses.fields(params) if fld.name not in declared]

    def shapes(step, nodes_shape):
        """{name: [shape of each array]} of step's per-node fields, and the
        shapes their declarations give on nodes of nodes_shape."""
        got, want = {}, {}
        for name, nodes in declared.items():
            lead = (step.orders + 1,) if nodes.harmonic else ()
            got[name] = [a.shape for a in nodes.arrays(getattr(step, name))]
            want[name] = [lead + nodes_shape + nodes.tail] * len(got[name])
        return got, want

    fresh = corrugation.StepParams(f=params.f)
    fresh.allocate()
    assert fresh.coeff is None and fresh.t.shape == grid.shape + (3,)
    fresh.orders = 3
    fresh.allocate()
    assert fresh.f is params.f and fresh.coeff.shape == (4,) + grid.shape
    for step in (fresh, params):
        got, want = shapes(step, grid.shape)
        assert got == want
    regions = [
        ((slice(8, 16), slice(0, 40)), (8, 40)),  # a tile
        (slice(5, 6), (1, 40)),  # a one-row band
        ((slice(0, 33, 32), slice(0, 40)), (2, 40)),  # the boundary rows
        ((slice(0, 33), slice(0, 40, 39)), (33, 2)),  # the boundary columns
    ]
    for index, nodes_shape in regions:
        cut = params.at(index)
        got, want = shapes(cut, nodes_shape)
        assert got == want
        for name, nodes in declared.items():
            for part, whole in zip(*(nodes.arrays(getattr(s, name)) for s in (cut, params))):
                assert np.shares_memory(part, whole), name
                assert np.array_equal(part, whole[(slice(None),) * nodes.harmonic + np.index_exp[index]])
        assert type(cut.f) is corrugation._JetRows and type(cut.mu) is MetricField
        assert all(getattr(cut, name) is getattr(params, name) for name in scalars)
        assert corrugation._METRIC.at(None, index) is None
    band = params.at(slice(5, 6))
    band.write(r=np.full((1, 40), 7.0), mu=MetricField.constant(1.0, 2.0, 3.0, (1, 40)))
    assert np.all(params.r[5] == 7.0) and np.all(params.mu.F[5] == 2.0)
    assert not np.any(params.r[4] == 7.0)


def _prepared(monkeypatch, workers, *step):
    monkeypatch.setattr(fields, "WORKERS", workers)
    return prepare_step(*step)


@pytest.mark.parametrize(
    "shape, ell",
    [
        ((2, 5), STRIP_FORM),
        ((3, 4), LinearForm(1.0, 0.3)),
        ((17, 9), LinearForm(0.6, -0.8)),
        ((33, 33), LinearForm(1.0, 0.3)),
    ],
)
def test_prepare_step_does_not_depend_on_workers(monkeypatch, shape, ell):
    """Every prepared field is bitwise the same in one, two, three or five
    row bands (more threads than cores, switching often), a band of one row
    included, on a curved input jet."""
    grid = Grid(*shape)
    eta = strip_eta_field(grid)
    f, _ = apply_corrugation(prepare_step(flat_inclusion(grid), eta, STRIP_FORM), 16)
    want = _prepared(monkeypatch, 1, f, 0.5 * eta, ell)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 5):
            _assert_same_params(_prepared(monkeypatch, workers, f, 0.5 * eta, ell), want)
    finally:
        sys.setswitchinterval(interval)


def test_prepare_step_catches_bands_up_to_the_grid_newton_count(monkeypatch):
    """A band that converges in fewer Newton steps is solved again, held to
    the count the other band needs, so every node gets the whole grid's
    Newton count."""
    calls = []
    original = corrugation.phi_inverse

    def spy(y, at_least=0):
        solve = original(y, at_least=at_least)
        calls.append((at_least, solve.iterations))
        return solve

    monkeypatch.setattr(corrugation, "phi_inverse", spy)
    grid, f, eta = strip_jet(16)
    # the first band converges in 4 steps and the second in 6; steps past
    # convergence still move the first band's last bits
    eta[:8], eta[8:] = 1e-3, 0.99
    want = _prepared(monkeypatch, 1, f, eta, STRIP_FORM)
    assert calls == [(0, 6)]
    calls.clear()
    got = _prepared(monkeypatch, 2, f, eta, STRIP_FORM)
    assert sorted(calls[:2]) == [(0, 4), (0, 6)]
    assert calls[2:] == [(6, 6)]
    _assert_same_params(got, want)
    # the first band's own solve: dl(u) = 1 on the flat jet
    first = phi_inverse(1.0 / got.r[:8])
    assert first.iterations == 4
    assert first.alpha.tobytes() != got.alpha[:8].tobytes()


def _raised(monkeypatch, f, eta, ell=STRIP_FORM):
    """(type, message) that prepare_step raises in one, two and three bands."""
    seen = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(fields, "WORKERS", workers)
        with pytest.raises(Exception) as info:
            prepare_step(f, eta, ell)
        seen.append((type(info.value), str(info.value)))
    return seen


def _bent(grid, nodes=()):
    """The flat jet with the given (field, row, col) -> vector changes."""
    f = flat_inclusion(grid)
    for (name, i, j), value in dict(nodes).items():
        getattr(f, name)[i, j] = value
    return f


def test_prepare_step_raises_what_one_band_raises(monkeypatch):
    """An error found in a band has the type and message the whole grid
    gives, whose messages name an extreme over every node; with one bad
    node in the first band and a worse one in the last, and with bands
    failing different checks (the frame's is the grid's first)."""
    grid = Grid(9, 9)
    eta = strip_eta_field(grid)
    big = eta.copy()
    big[0, 2], big[8, 4] = 2.0, 3.0
    nan = eta.copy()
    nan[8, 4] = np.nan
    timelike = {("dfx", 0, 2): (0.5, 0.0, 1.0), ("dfx", 8, 4): (0.1, 0.0, 1.0)}
    null = {("dfy", 0, 2): (0.0, 1.0, 1.0 - 4e-12), ("dfy", 8, 4): (0.0, 1.0, 1.0 - 1e-12)}
    cases = [
        (_bent(grid), big, NotRiemannian, "reaches 3 >= 1"),
        (_bent(grid), nan, DomainError, "got min nan"),
        (_bent(grid, timelike), eta, SingularMetric, "min eigenvalue -9.900e-01"),
        (_bent(grid, null), eta, DegeneratePlane, "not spacelike"),
        (_bent(grid, {("dfx", 8, 4): (0.1, 0.0, 1.0)}), big, SingularMetric, "-9.900e-01"),
    ]
    for f, eta_case, error, text in cases:
        seen = _raised(monkeypatch, f, eta_case)
        assert seen == [seen[0]] * 3
        assert seen[0][0] is error and text in seen[0][1]


def test_target_differential_pullback_identity():
    """L*h = mu exactly, at arbitrary oscillation phase."""
    grid, f, eta = strip_jet(17)
    params = prepare_step(f, eta, STRIP_FORM)
    rng = np.random.default_rng(18)
    xhat = rng.uniform(0.0, 1.0, size=grid.shape)
    Lx, Ly = corrugation._loop_differential(params, params.alpha * np.cos(2.0 * np.pi * xhat))
    assert np.max(np.abs(minkowski_inner(Lx, Lx) - params.mu.E)) < 1e-12
    assert np.max(np.abs(minkowski_inner(Lx, Ly) - params.mu.F)) < 1e-12
    assert np.max(np.abs(minkowski_inner(Ly, Ly) - params.mu.G)) < 1e-12


def test_target_differential_fixes_kernel_direction():
    """Along ker dl the corrugated differential equals the original."""
    grid, f, eta = strip_jet(17)
    params = prepare_step(f, eta, STRIP_FORM)
    v = corrugation_frame(f, STRIP_FORM, pullback_metric(f)).v
    theta = params.alpha * np.cos(2.0 * np.pi * np.full(grid.shape, 0.37))
    Lx, Ly = corrugation._loop_differential(params, theta)
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


def test_chained_steps_can_lose_spacelikeness(monkeypatch):
    """Corrugating an already corrugated jet at too small an N drives the
    pullback metric past the light cone; the guard reports it, and without
    the guard the record's actual-normal audits are infinite, even where a
    tile's normal degenerates."""
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
    # a degenerate normal on one tile is not raised from a record that is not spacelike
    monkeypatch.setattr(corrugation, "TILE_NODES", 8 * 33)
    raised = _degenerate_tiles(monkeypatch, lambda N, index: index == 1)
    _, rec = apply_corrugation(params, 4, raise_on_loss=False)
    assert raised == ["N=4 tile 1"]
    for name in ("normal_unit_actual", "normal_ortho_actual", "normal_growth_margin"):
        assert rec.audits[name] == np.inf


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


def test_select_audits_only_the_accepted_N(monkeypatch):
    """In the strip case the screen rejects every refused N, so the one
    audited probe is the whole-grid probe at the accepted N, and its record
    is built once."""
    probes, records = [], []
    probe, record = corrugation._probe, corrugation._step_record

    def probed(*args):
        out = probe(*args)
        probes.append((out.N, out.audits[0] is not None))
        return out

    def recorded(params, out):
        records.append(out.N)
        return record(params, out)

    monkeypatch.setattr(corrugation, "_probe", probed)
    monkeypatch.setattr(corrugation, "_step_record", recorded)
    grid, f, eta = strip_jet(33)
    _, rec = select_corrugation_number(f, eta, LinearForm(1.0, 0.3), 1e-3)
    assert rec.N > 16  # the ladder rejected at least one probe
    assert [N for N, audited in probes if audited] == records == [rec.N]


def test_applied_step_makes_each_tile_once(monkeypatch):
    """A probe and its record walk the tiles once: the phase and the loop
    differential are made once per tile, and the audits read them, on one
    thread and on two."""
    calls = []
    for name in ("_phase", "_loop_differential"):
        original = getattr(corrugation, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(corrugation, name, counted)
    monkeypatch.setattr(corrugation, "TILE_NODES", 8 * 33)
    grid, f, eta = strip_jet(33)
    params = prepare_step(f, eta, LinearForm(1.0, 0.3))
    tiles = len(corrugation._tiles(corrugation._whole(grid.shape), grid.shape))
    assert tiles == 5
    for workers in (1, 2):
        monkeypatch.setattr(fields, "WORKERS", workers)
        calls.clear()
        apply_corrugation(params, 32)
        assert sorted(calls) == sorted(["_phase", "_loop_differential"] * tiles)


def _degenerate_tiles(monkeypatch, fails):
    """Make the actual-normal audits raise DegeneratePlane, naming N and the
    tile's index in its whole-grid probe, on the tiles for which
    fails(N, index) holds; returns the messages raised, in the order the
    tiles' threads raised them."""
    probe_tile, normal = corrugation._probe_tile, corrugation._actual_normal_audits
    at, raised = threading.local(), []

    def probed(params, N, tile, *args):
        shape = params.f.grid.shape
        tiles = [t for t, _ in corrugation._tiles(corrugation._whole(shape), shape)]
        at.tile = N, tiles.index(tile) if tile in tiles else None
        return probe_tile(params, N, tile, *args)

    def audited(out):
        N, index = at.tile
        if fails(N, index):
            raised.append("N=%d tile %d" % (N, index))
            raise DegeneratePlane(raised[-1])
        return normal(out)

    monkeypatch.setattr(corrugation, "_probe_tile", probed)
    monkeypatch.setattr(corrugation, "_actual_normal_audits", audited)
    return raised


def test_rejected_probe_never_raises_from_its_audits(monkeypatch):
    """The collar case rejects whole-grid probes; a degenerate normal on one
    of their tiles changes neither the selected N nor its record."""
    monkeypatch.setattr(corrugation, "TILE_NODES", 8 * 33)
    grid, f, _ = strip_jet(33)
    eta, ell = collar_eta_field(grid), LinearForm(1.0, 0.3)
    want = select_corrugation_number(f, eta, ell, 1e-3)
    raised = _degenerate_tiles(monkeypatch, lambda N, index: N < want[1].N and index == 1)
    _assert_same_step(select_corrugation_number(f, eta, ell, 1e-3), want)
    assert raised  # whole-grid probes were rejected


def test_spacelike_record_raises_the_first_degenerate_tile(monkeypatch):
    """Every tile is audited, and the record of a spacelike probe raises the
    error of the first tile whose normal degenerated."""
    monkeypatch.setattr(corrugation, "TILE_NODES", 8 * 33)
    grid, f, eta = strip_jet(33)
    params = prepare_step(f, eta, LinearForm(1.0, 0.3))
    raised = _degenerate_tiles(monkeypatch, lambda N, index: index in (1, 3))
    with pytest.raises(DegeneratePlane, match="^N=64 tile 1$"):
        apply_corrugation(params, 64)
    assert sorted(raised) == ["N=64 tile 1", "N=64 tile 3"]


def test_one_step_applied_at_several_N_equals_fresh_steps():
    """One prepared step applied at several N gives, bitwise, the jets and
    records of a fresh step at each N."""
    grid, f, eta = strip_jet(33)
    ell = LinearForm(1.0, 0.3)
    params = prepare_step(f, eta, ell)
    for N in (16, 64, 2**20):
        got = apply_corrugation(params, N, raise_on_loss=False)
        want = apply_corrugation(prepare_step(f, eta, ell), N, raise_on_loss=False)
        _assert_same_step(got, want)


def test_step_makes_two_pullbacks(monkeypatch):
    """A prepared and applied step evaluates f*h once for its input jet and
    once for its output, whether called through corrugation or fields. On
    one thread the input's reads the jet's own arrays over every row; on
    two, one per row band, which together cover the jet's rows once, in
    order."""
    calls = []
    original = fields.pullback_metric

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(corrugation, "pullback_metric", counted)
    monkeypatch.setattr(fields, "pullback_metric", counted)
    grid, f, eta = strip_jet(17)
    monkeypatch.setattr(fields, "WORKERS", 1)
    out, _ = apply_corrugation(prepare_step(f, eta, LinearForm(1.0, 0.3)), 32)
    assert len(calls) == 2
    # the one band is a view of the whole jet
    for name in ("pos", "dfx", "dfy"):
        band, whole = getattr(calls[0], name), getattr(f, name)
        assert np.shares_memory(band, whole)
        assert band.shape == whole.shape and band.tobytes() == whole.tobytes()
    assert np.array_equal(calls[1].pos, out.pos)
    calls.clear()
    monkeypatch.setattr(fields, "WORKERS", 2)
    out, _ = apply_corrugation(prepare_step(f, eta, LinearForm(1.0, 0.3)), 32)
    assert len(calls) == 3
    # the bands read views of the jet's rows, on two threads in either order
    for name in ("pos", "dfx", "dfy"):
        whole = getattr(f, name)
        starts = {
            (getattr(band, name).ctypes.data - whole.ctypes.data) // whole.strides[0]: band
            for band in calls[:2]
        }
        assert sorted(starts) == [0, 8]
        bands = [getattr(starts[start], name) for start in sorted(starts)]
        assert np.array_equal(np.concatenate(bands), whole)
    assert np.array_equal(calls[2].pos, out.pos)


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
def test_boundary_screen_values_equal_whole_grid(monkeypatch, shape, ell):
    """On each rung's pair of boundary lines, one stepped region, the
    screen's jet is the whole-grid probe's, bitwise, and the rung reduces
    its acceptance values over exactly those lines; the lines are
    neighbours on the 2x2 grid. With 5-node tiles a 33-node column pair
    spans 17 tiles, and below 2 x ny nodes the row pair splits into two
    one-row tiles."""
    grid = Grid(*shape)
    params = prepare_step(flat_inclusion(grid), strip_eta_field(grid), ell)
    norm = MetricField.identity(shape)
    nxt = MetricField.constant(0.4, 0.1, 0.5, shape)
    nx, ny = shape
    rows, cols = slice(0, nx), slice(0, ny)
    screen = [(slice(0, nx, nx - 1), cols), (rows, slice(0, ny, ny - 1))]
    assert corrugation._rungs(shape) == screen + [(rows, cols)]
    for tile_nodes in (corrugation.TILE_NODES, 5, 2 * ny - 1):
        monkeypatch.setattr(corrugation, "TILE_NODES", tile_nodes)
        assert len(corrugation._tiles(screen[0], shape)) == (1 if tile_nodes >= 2 * ny else 2)
        assert len(corrugation._tiles(screen[1], shape)) == -(-nx // max(tile_nodes // 2, 1))
        for N in (1, 16, 48, 1024, 2**20):
            jet = corrugation._probe(params, N, norm, nxt, (rows, cols)).out
            want = corrugation._node_values(params, jet, pullback_metric(jet), norm, nxt)
            for region in screen:
                probe = corrugation._probe(params, N, norm, nxt, region)
                for name in ("pos", "dfx", "dfy"):
                    assert np.array_equal(getattr(probe.out, name), getattr(jet, name)[region])
                lines = [w[region] for w in want]
                assert probe.sup_default == np.max(lines[0])
                assert probe.spacelike_min == np.min(lines[1])
                assert probe.c0_shift == np.max(lines[2])
                assert probe.long_min == np.min(lines[3])


def _unscreened_select(f, eta, ell, epsilon, c0_budget=None, next_metric=None):
    """Reference ladder without the boundary screen: the whole-grid probe at every N."""
    params = prepare_step(f, eta, ell)
    N = corrugation.LADDER_START
    while N <= corrugation.LADDER_CAP:
        probe = corrugation._probe(params, N, params.mu, None, corrugation._whole(f.grid.shape))
        ok = probe.sup_default <= epsilon and probe.spacelike_min > corrugation.SPACELIKE_TOL
        if ok and c0_budget is not None:
            ok = probe.c0_shift <= c0_budget
        if ok and next_metric is not None:
            ok = (pullback_metric(probe.out) - next_metric).min_eigenvalue() >= -1e-12
        if ok:
            return corrugation._step_record(params, probe)
        N *= 2
    raise BudgetExceeded("reference ladder exhausted")


def _count_whole_grid_probes(monkeypatch, shape):
    """Record, per _probe call, whether its region is the whole grid of this shape."""
    calls = []
    original = corrugation._probe

    def counted(params, N, norm, nxt, region):
        calls.append(region == (slice(0, shape[0]), slice(0, shape[1])))
        return original(params, N, norm, nxt, region)

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
    """The screen rejects every refused N, so each step makes one whole-grid
    probe, and no whole-grid probe pays for audits it does not keep. The
    targets are the first stage metrics of flat-shrink and aniso-shrink."""
    grid = Grid(33, 33)
    f = flat_inclusion(grid)
    whole = _count_whole_grid_probes(monkeypatch, grid.shape)
    for stage_1 in ((0.75, 0.0, 0.75), (0.8, 0.0, 0.9)):
        g1 = MetricField.constant(*stage_1, grid.shape)
        dec = decompose(isometric_default(f, g1), build_dictionary(3))
        whole.clear()
        _, records = successive_cp(f, dec, 1e-3, norm_metric=g1)
        assert any(rec.N > corrugation.LADDER_START for rec in records)  # rejections happened
        assert sum(whole) == len(records) == 3
        assert len(whole) > 2 * len(records)


@pytest.mark.parametrize(
    "ell, epsilon, zero_rows, rejecting",
    [
        (LinearForm(1.0, 0.3), 1e-3, False, {"rows"}),
        # eta vanishes on the first and last two rows, so only the other rungs can reject
        (LinearForm(0.3, 1.0), 1e-2, True, {"columns", "whole"}),
    ],
)
def test_select_probes_rungs_in_order(monkeypatch, ell, epsilon, zero_rows, rejecting):
    """Per N: the first and last rows, then the first and last columns only
    if the rows passed, then the whole grid only if both passed; the first
    failing probe rejects N and the accepted N passed all three."""
    grid = Grid(33, 40)
    eta = strip_eta_field(grid)
    if zero_rows:
        eta[:2] = eta[-2:] = 0.0
    rows, cols = slice(0, 33), slice(0, 40)
    named = {
        "rows": (slice(0, 33, 32), cols),
        "columns": (rows, slice(0, 40, 39)),
        "whole": (rows, cols),
    }
    calls = []
    original = corrugation._probe

    def recorded(params, N, norm, nxt, region):
        probe = original(params, N, norm, nxt, region)
        failed = bool(corrugation._failures(probe, epsilon, None))
        calls.append((N, next(k for k, v in named.items() if v == region), failed))
        return probe

    monkeypatch.setattr(corrugation, "_probe", recorded)
    _, rec = select_corrugation_number(flat_inclusion(grid), eta, ell, epsilon)
    Ns = [N for N, _, _ in calls]
    assert Ns == sorted(Ns)  # each N's probes are contiguous
    ladder = sorted(set(Ns))
    assert ladder == [corrugation.LADDER_START * 2**i for i in range(len(ladder))]
    assert ladder[-1] == rec.N
    rungs = ["rows", "columns", "whole"]
    rejected = set()
    for N in ladder:
        shapes = [shape for n, shape, _ in calls if n == N]
        failed = [fail for n, _, fail in calls if n == N]
        assert shapes == rungs[: len(shapes)]
        if N < rec.N:
            assert failed == [False] * (len(shapes) - 1) + [True]
            rejected.add(shapes[-1])
        else:
            assert shapes == rungs and not any(failed)
    assert rejected == rejecting


# --- tiles ---


def _probe_and_record(params, N, norm, nxt, region):
    """A probe's jet and acceptance values, and the step record of a whole-grid probe."""
    probe = corrugation._probe(params, N, norm, nxt, region)
    values = (probe.sup_default, probe.spacelike_min, probe.c0_shift, probe.long_min)
    whole = region == corrugation._whole(params.f.grid.shape)
    return probe.out, values, corrugation._step_record(params, probe) if whole else None


@pytest.mark.parametrize(
    "shape, tile_rows",
    [
        ((33, 17), 1),  # one-row tiles
        ((33, 17), 4),  # 4 does not divide 33
        ((65, 65), 7),
        ((65, 65), 64),  # two tiles, of 32 and 33 rows
        ((3, 5), 4),  # fewer rows than one tile
        ((2, 7), 1),
    ],
)
def test_row_tiles_change_no_bit(monkeypatch, shape, tile_rows):
    """Probe and step record in tiles equal, bitwise, the one-tile run: the
    jets, the four acceptance values, both C1 shifts and every audit, with
    and without a next metric, on the whole grid and on the screen's two
    stepped line pairs (the row pair splits into one-row tiles when
    tile_rows is 1, and the column pair spans several tiles when its 2 x nx
    nodes exceed tile_rows x ny)."""
    grid = Grid(*shape)
    params = prepare_step(flat_inclusion(grid), strip_eta_field(grid), LinearForm(1.0, 0.3))
    norm = MetricField.identity(shape)
    nxt = MetricField.constant(0.4, 0.1, 0.5, shape)
    rows_rung, columns_rung, whole = corrugation._rungs(shape)
    cases = [(params.mu, whole), (norm, rows_rung), (norm, columns_rung)]
    nx = shape[0]
    for N in (1, 48, 2**20):
        for step_norm, region in cases:
            for next_metric in (None, nxt):
                monkeypatch.setattr(corrugation, "TILE_NODES", 2**62)
                want = _probe_and_record(params, N, step_norm, next_metric, region)
                monkeypatch.setattr(corrugation, "TILE_NODES", tile_rows * shape[1])
                got = _probe_and_record(params, N, step_norm, next_metric, region)
                for name in ("pos", "dfx", "dfy"):
                    assert np.array_equal(getattr(got[0], name), getattr(want[0], name))
                assert got[1] == want[1]
                if want[2] is not None:
                    _assert_same_step(got[2], want[2])
    assert len(corrugation._tiles(rows_rung, shape)) == (2 if tile_rows == 1 else 1)
    tiles = [rows for (rows, cols), _ in corrugation._tiles(whole, shape)]
    assert len(tiles) == -(-nx // tile_rows)
    assert [t.start for t in tiles[1:]] == [t.stop for t in tiles[:-1]]
    assert tiles[0].start == 0 and tiles[-1].stop == nx
    assert all(1 <= t.stop - t.start <= tile_rows for t in tiles)


def _same_bytes(a, b):
    """Equal arrays, down to the sign of zeros and the dtype."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "shape, tile_nodes, region",
    [
        ((33, 17), 6 * 17, "whole"),  # odd row count: six tiles at one, two and three threads
        ((33, 17), 17, "whole"),  # one row per tile
        ((33, 17), 2**62, "whole"),  # a region smaller than two tiles
        ((33, 17), 12, "columns"),  # the column pair in six tiles
        ((33, 17), 17, "rows"),
        ((2, 7), 7, "whole"),
    ],
)
def test_probe_is_the_same_on_any_thread_count(monkeypatch, shape, tile_nodes, region):
    """On one, two and three threads a probe gives the same bytes: its jet,
    its four acceptance values, each tile's audits and the step record."""
    grid = Grid(*shape)
    params = prepare_step(flat_inclusion(grid), strip_eta_field(grid), LinearForm(1.0, 0.3))
    nxt = MetricField.constant(0.4, 0.1, 0.5, shape)
    monkeypatch.setattr(corrugation, "TILE_NODES", tile_nodes)
    region = dict(zip(("rows", "columns", "whole"), corrugation._rungs(shape)))[region]
    for N in (1, 48, 2**20):
        for next_metric in (None, nxt):
            runs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(fields, "WORKERS", workers)
                probe = corrugation._probe(params, N, params.mu, next_metric, region)
                whole = region == corrugation._whole(shape)
                runs.append((probe, corrugation._step_record(params, probe) if whole else None))
            (want, want_record), *others = runs
            for probe, record in others:
                for name in ("pos", "dfx", "dfy"):
                    assert _same_bytes(getattr(probe.out, name), getattr(want.out, name))
                for name in ("sup_default", "spacelike_min", "c0_shift", "long_min"):
                    assert getattr(probe, name) == getattr(want, name), name
                assert len(probe.audits) == len(want.audits)
                for got, ref in zip(probe.audits, want.audits):
                    assert got == ref
                if record is not None:
                    _assert_same_step(record, want_record)


def test_probe_is_the_same_on_more_threads_than_cores(monkeypatch):
    """Five threads switching every microsecond over one-row tiles write
    the same jet and measure the same values and audits as one thread.
    Each lane's first tile waits until all five lanes run, so the four
    helper lanes run on four threads at once."""
    grid = Grid(33, 17)
    params = prepare_step(flat_inclusion(grid), strip_eta_field(grid), LinearForm(1.0, 0.3))
    monkeypatch.setattr(corrugation, "TILE_NODES", 17)
    whole = corrugation._whole(grid.shape)
    tiles = [t for t, _ in corrugation._tiles(whole, grid.shape)]
    probe_tile, threads, probes = corrugation._probe_tile, {}, []

    def tile_run(params, N, tile, *args):
        index = tiles.index(tile)
        threads[index] = threading.get_ident()
        if index < fields.WORKERS:
            started.wait(timeout=30)
        return probe_tile(params, N, tile, *args)

    monkeypatch.setattr(corrugation, "_probe_tile", tile_run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 5):
            monkeypatch.setattr(fields, "WORKERS", workers)
            started = threading.Barrier(workers)
            probes.append(corrugation._probe(params, 48, params.mu, None, whole))
    finally:
        sys.setswitchinterval(interval)
    assert threads[0] == threading.get_ident()
    assert len({threads[lane] for lane in range(1, 5)} - {threads[0]}) == 4
    assert all(threads[i] == threads[i % 5] for i in range(len(tiles)))
    want, got = probes
    for name in ("pos", "dfx", "dfy"):
        assert _same_bytes(getattr(got.out, name), getattr(want.out, name))
    assert (got.sup_default, got.spacelike_min, got.c0_shift) == (
        want.sup_default,
        want.spacelike_min,
        want.c0_shift,
    )
    assert len(got.audits) == 33 and got.audits == want.audits


def test_select_is_the_same_on_one_and_two_threads(monkeypatch):
    """N-selection with rejections, a C0 budget and a next metric picks the
    same N and gives the same jet and record on one and two threads."""
    monkeypatch.setattr(corrugation, "TILE_NODES", 6 * 33)
    grid, f, eta = strip_jet(33)
    nxt = MetricField.constant(0.4, 0.0, 0.4, grid.shape)
    steps = []
    for workers in (1, 2):
        monkeypatch.setattr(fields, "WORKERS", workers)
        steps.append(
            select_corrugation_number(
                f, eta, LinearForm(1.0, 0.3), 1e-3, c0_budget=3e-3, next_metric=nxt
            )
        )
    assert steps[0][1].N > corrugation.LADDER_START
    _assert_same_step(steps[1], steps[0])


def test_tiles_run_on_the_calling_thread_and_one_helper(monkeypatch):
    """On two threads a region of several tiles runs its even tiles on the
    calling thread and its odd tiles on a helper; a one-tile region, such
    as a boundary line pair, runs on the calling thread alone."""
    monkeypatch.setattr(fields, "WORKERS", 2)
    monkeypatch.setattr(corrugation, "TILE_NODES", 4 * 33)
    grid, f, eta = strip_jet(33)
    params = prepare_step(f, eta, LinearForm(1.0, 0.3))
    rows, _, whole = corrugation._rungs(grid.shape)
    tiles = [t for t, _ in corrugation._tiles(whole, grid.shape)]
    probe_tile, threads = corrugation._probe_tile, {}

    def tile_run(params, N, tile, *args):
        threads[tiles.index(tile) if tile in tiles else None] = threading.get_ident()
        return probe_tile(params, N, tile, *args)

    monkeypatch.setattr(corrugation, "_probe_tile", tile_run)
    corrugation._probe(params, 64, params.mu, None, rows)
    assert threads == {None: threading.get_ident()}
    threads.clear()
    corrugation._probe(params, 64, params.mu, None, whole)
    assert len(tiles) == 9 and sorted(threads) == list(range(9))
    assert {threads[i] for i in range(0, 9, 2)} == {threading.get_ident()}
    helper = {threads[i] for i in range(1, 9, 2)}
    assert len(helper) == 1 and threading.get_ident() not in helper


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tile_errors_raise_as_the_serial_walk(monkeypatch, workers):
    """A probe whose tiles raise raises the first error in tile order, after
    every tile before it has run, and no tile is still running when the
    probe raises or returns. Tile 1 raises late, tile 2 at once."""
    monkeypatch.setattr(fields, "WORKERS", workers)
    monkeypatch.setattr(corrugation, "TILE_NODES", 4 * 33)
    grid, f, eta = strip_jet(33)
    params = prepare_step(f, eta, LinearForm(1.0, 0.3))
    whole = corrugation._whole(grid.shape)
    tiles = [t for t, _ in corrugation._tiles(whole, grid.shape)]
    probe_tile = corrugation._probe_tile
    running, ran, failing = set(), [], set()

    def tile_run(params, N, tile, *args):
        index = tiles.index(tile)
        running.add(index)
        try:
            if index in failing:
                time.sleep(0.05 if index == 1 else 0.0)
                raise RuntimeError("tile %d" % index)
            return probe_tile(params, N, tile, *args)
        finally:
            ran.append(index)
            running.discard(index)

    monkeypatch.setattr(corrugation, "_probe_tile", tile_run)
    want = corrugation._probe(params, 64, params.mu, None, whole)
    assert not running and sorted(ran) == list(range(len(tiles)))
    failing.update((1, 2))
    ran.clear()
    with pytest.raises(RuntimeError, match="^tile 1$"):
        corrugation._probe(params, 64, params.mu, None, whole)
    assert not running and {0, 1} <= set(ran)
    if workers == 1:
        assert ran == [0, 1]
    failing.clear()
    got = corrugation._probe(params, 64, params.mu, None, whole)
    assert not running and got.audits == want.audits


def test_a_helper_base_exception_reaches_the_caller(monkeypatch):
    """An error that is not an Exception, raised on a helper thread, ends
    that lane and is raised to the caller once no lane is running."""
    monkeypatch.setattr(fields, "WORKERS", 2)

    class Stop(BaseException):
        pass

    running, ran = set(), []

    def run(index):
        running.add(index)
        try:
            if index == 1:
                raise Stop()
            time.sleep(0.01)
            return index
        finally:
            ran.append(index)
            running.discard(index)

    with pytest.raises(Stop):
        fields._in_lanes(run, list(range(6)))
    assert not running and sorted(ran) == [0, 1, 2, 4]


def _probe_and_record_peak(monkeypatch, tile_nodes):
    """Peak bytes allocated by one whole-grid probe of a 129x129 strip step and its record."""
    monkeypatch.setattr(corrugation, "TILE_NODES", tile_nodes)
    grid = Grid(129, 129)
    params = prepare_step(flat_inclusion(grid), strip_eta_field(grid), LinearForm(1.0, 0.3))
    tracemalloc.start()
    try:
        probe = corrugation._probe(params, 64, params.mu, None, corrugation._whole(grid.shape))
        corrugation._step_record(params, probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_row_tiles_bound_probe_and_record_peak(monkeypatch):
    """In 8-row tiles, a probe and its step record allocate the output jet
    and per-tile arrays only: beyond the jet they peak at under a quarter of
    what the one-tile run allocates beyond it."""
    jet = 9 * 129 * 129 * 8
    one_tile = _probe_and_record_peak(monkeypatch, 2**62)
    tiled = _probe_and_record_peak(monkeypatch, 8 * 129)
    assert tiled - jet < 0.25 * (one_tile - jet)


def _probe_peak_on(params, region):
    """Peak bytes allocated by one probe of the region at N = 64."""
    tracemalloc.start()
    try:
        corrugation._probe(params, 64, params.mu, None, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_screen_rungs_allocate_a_fraction_of_a_whole_grid_probe():
    """At 129x129 the row rung and the column rung each allocate under 1/8
    of a whole-grid probe: a line pair's tiles write into an output shaped
    like the pair, not into a whole-grid jet."""
    grid = Grid(129, 129)
    params = prepare_step(flat_inclusion(grid), strip_eta_field(grid), LinearForm(1.0, 0.3))
    rows, columns, whole = corrugation._rungs(grid.shape)
    whole_peak = _probe_peak_on(params, whole)
    for rung in (rows, columns):
        assert _probe_peak_on(params, rung) < whole_peak / 8


def test_select_budget_exhaustion(monkeypatch):
    # tilted form so no ladder N aligns with the node lattice
    grid, f, eta = strip_jet(17)
    ell = LinearForm(1.0, 0.3)
    monkeypatch.setattr(corrugation, "LADDER_CAP", 256)
    with pytest.raises(BudgetExceeded, match="up to 256 met"):
        select_corrugation_number(f, eta, ell, 1e-15)
    with pytest.raises(BudgetExceeded):
        select_corrugation_number(f, eta, ell, 0.05, c0_budget=1e-12)


def test_select_budget_exhaustion_names_the_failed_tests(monkeypatch):
    grid, f, eta = strip_jet(17)
    monkeypatch.setattr(corrugation, "LADDER_CAP", 256)
    with pytest.raises(BudgetExceeded) as exc:
        select_corrugation_number(f, eta, LinearForm(1.0, 0.3), 1e-15)
    msg = str(exc.value)
    assert "for form (1, 0.3) at per-step budget 1.000000e-15; N=256 fails on the " in msg
    assert "defect " in msg and "> 1.000000e-15" in msg
    assert "C0" not in msg and "long-for-next" not in msg
    with pytest.raises(BudgetExceeded, match=r"N=256 fails on the .*C0 shift .* > 1\.000000e-12"):
        select_corrugation_number(f, eta, LinearForm(1.0, 0.3), 0.05, c0_budget=1e-12)


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
