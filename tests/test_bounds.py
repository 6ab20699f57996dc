"""Tests for the quantitative constants: the increment envelope psi and its
split, the growth constants, and the measured family/budget constants."""
import warnings

import numpy as np
import pytest

from lorentz_corrugate.bounds import (
    ALPHA_CAP,
    PSI1_LIMIT,
    PSI2_LIMIT,
    PSI_LIMIT,
    SMALL_ALPHA,
    compute_constants,
    c1_budget_constant,
    form_family_constant,
    growth_constant,
    increment_constant,
    phi,
    phi_prime,
    psi,
    psi1,
    psi2,
)
from lorentz_corrugate.decomp import build_dictionary, decompose
from lorentz_corrugate.errors import DomainError
from lorentz_corrugate.fields import (
    Grid,
    MetricField,
    form_norm,
    isometric_default,
    operator_norm_form,
)
from lorentz_corrugate.scenarios import flat_inclusion


def _amplitude_arrays(rng):
    """Random amplitude arrays of the shapes a step's solve meets, each with
    the special values 0, 1e-300, SMALL_ALPHA, 20.80 and ALPHA_CAP."""
    special = [0.0, 1e-300, SMALL_ALPHA, 20.80, ALPHA_CAP]
    for _ in range(40):
        n = int(rng.integers(8, 200))
        kind = rng.integers(4)
        if kind == 0:
            a = rng.uniform(0.0, 20.8, n)
        elif kind == 1:
            a = 10.0 ** rng.uniform(-13.0, np.log10(20.0), n)
        elif kind == 2:
            a = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 20.8, n))
        else:
            a = rng.uniform(0.0, ALPHA_CAP, n)
        a[rng.choice(n, len(special), replace=False)] = special
        yield a


def test_series_stops_exactly_on_every_part():
    """phi and phi_prime on any run of an array's nodes equal, bitwise, the
    whole array's values there: the series stops on a part's largest term
    and sum, and every term the whole array adds later rounds away."""
    rng = np.random.default_rng(27)
    for a in _amplitude_arrays(rng):
        cuts = np.sort(rng.choice(np.arange(1, len(a)), 6, replace=False))
        for fn in (phi, phi_prime):
            whole = fn(a)
            parts = np.concatenate([fn(part) for part in np.split(a, cuts)])
            assert parts.tobytes() == whole.tobytes()
            for value in a[:: len(a) // 7]:
                assert fn(value) == whole[a == value][0]


def test_psi_limits_at_zero():
    # removable singularities: values just above 0 sit next to the limits
    assert abs(psi(1e-3) - PSI_LIMIT) < 1e-3
    assert abs(psi1(1e-3) - PSI1_LIMIT) < 5e-3
    assert abs(psi2(1e-3) - PSI2_LIMIT) < 5e-3
    assert psi(0.0) == PSI_LIMIT
    assert psi1(0.0) == PSI1_LIMIT
    assert psi2(0.0) == PSI2_LIMIT


def test_psi_split_identity():
    """psi = sqrt(2 psi1) + sqrt(psi2) pointwise."""
    for a in (0.5, 1.0, 2.0, 4.0):
        lhs = psi(a)
        rhs = np.sqrt(2.0 * psi1(a)) + np.sqrt(psi2(a))
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("alpha", [360.0, 400.0, 500.0])
def test_psi_split_finite_above_overflow(alpha):
    """Above alpha ~ 355, where cosh^2 and phi^2 overflow, psi, psi1 and psi2
    never return inf or nan: those amplitudes are past ALPHA_CAP and raise,
    and at the cap the values are finite and silent and the split holds."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = [fn(ALPHA_CAP) for fn in (psi, psi1, psi2)]
        array = [fn(np.array([0.5, ALPHA_CAP])) for fn in (psi, psi1, psi2)]
    for p, p1, p2 in (scalar, [a[1] for a in array], [a[0] for a in array]):
        assert np.isfinite([p, p1, p2]).all()
        assert abs(p - (np.sqrt(2.0 * p1) + np.sqrt(p2))) <= 1e-10 * p
    assert [a[1] for a in array] == scalar
    for fn in (psi, psi1, psi2):
        for arg in (alpha, np.array([0.5, alpha])):
            with pytest.raises(DomainError):
                fn(arg)


def test_psi_rejects_negative():
    with pytest.raises(DomainError):
        psi(-0.5)


def test_increment_constant_dominates_psi():
    rng = np.random.default_rng(21)
    for amax in (0.3, 1.0, 2.5):
        M = increment_constant(amax)
        a = rng.uniform(1e-9, amax, size=4000)
        assert np.all(psi(a) <= M)
    with pytest.raises(DomainError):
        increment_constant(0.0)


def test_increment_constant_finite_up_to_alpha_cap():
    """On [SMALL_ALPHA, ALPHA_CAP] psi, psi1 and psi2 are their formulas,
    bitwise; increment_constant is finite and increasing up to the cap, and
    above it they and phi raise."""
    a = np.linspace(SMALL_ALPHA, ALPHA_CAP, 64001)
    p = np.asarray(phi(a))
    formulas = [
        (psi, (np.sqrt(2.0 * np.cosh(a) ** 2 - 2.0 * p) + np.sinh(a)) / np.sqrt(p**2 - 1.0)),
        (psi1, (np.cosh(a) ** 2 - p) / (p**2 - 1.0)),
        (psi2, np.sinh(a) ** 2 / (p**2 - 1.0)),
    ]
    for fn, want in formulas:
        assert np.array_equal(fn(a), want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Ms = [increment_constant(c) for c in (0.5, 2.0, 20.8, 40.0, ALPHA_CAP)]
    assert np.all(np.isfinite(Ms)) and Ms == sorted(Ms)
    above = np.nextafter(ALPHA_CAP, np.inf)
    for fn in (psi, psi1, psi2, phi, increment_constant):
        with pytest.raises(DomainError):
            fn(above)


def test_growth_constant_values():
    assert growth_constant(0.0) == 3.0
    assert abs(growth_constant(1.0) - (2.0 * np.cosh(1.0) + 1.0)) < 1e-15
    with pytest.raises(DomainError):
        growth_constant(-1e-9)


def test_form_family_constant_bounds_measured_sum():
    grid = Grid(17, 17)
    g = MetricField.identity(grid.shape)
    f = flat_inclusion(grid)
    target = MetricField.constant(0.7, 0.05, 0.8, grid.shape)
    dec = decompose(isometric_default(f, target), build_dictionary(5))
    c = form_family_constant(dec, g)
    assert c > 0.0
    recon = dec.reconstruct()
    den = np.sqrt(operator_norm_form(recon, g))
    num = np.zeros(grid.shape)
    for ell, eta in zip(dec.forms, dec.etas):
        num += np.sqrt(eta) * form_norm(ell, g)
    mask = den > 1e-14
    assert np.all(num[mask] <= c * den[mask] + 1e-12)


def test_form_family_constant_zero_field():
    grid = Grid(9, 9)
    g = MetricField.identity(grid.shape)
    dec = decompose(MetricField.constant(0.0, 0.0, 0.0, grid.shape), build_dictionary(3))
    assert form_family_constant(dec, g) == 0.0


def test_c1_budget_flat_initial():
    # flat inclusion: |df0| = 1 against the identity, |n0| = 1
    grid = Grid(9, 9)
    f = flat_inclusion(grid)
    g = MetricField.identity(grid.shape)
    T = c1_budget_constant(2.0, 3.0, f, g)
    assert abs(T - 2.0 * 2.0 * 3.0 * 2.0) < 1e-12


def test_compute_constants_pack():
    grid = Grid(17, 17)
    f = flat_inclusion(grid)
    g = MetricField.identity(grid.shape)
    target = MetricField.constant(0.5, 0.0, 0.5, grid.shape)
    dec = decompose(isometric_default(f, target), build_dictionary(5))
    rows = dict(compute_constants(1.2, 5, decomposition=dec, f0=f, g=g))
    assert rows["growth_constant"] == growth_constant(1.2)
    assert rows["increment_constant"] >= PSI_LIMIT
    assert np.isfinite(rows["form_constant"]) and rows["form_constant"] > 0.0
    assert np.isfinite(rows["c1_budget_constant"]) and rows["c1_budget_constant"] > 0.0
    bare = compute_constants(1.2, 5)
    assert [name for name, _ in bare] == [
        "alpha_max", "dictionary_size", "increment_constant", "growth_constant"
    ]
