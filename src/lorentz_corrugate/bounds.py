"""Quantitative constants controlling one corrugation step and one stage.

phi(alpha) is the full-turn average of cosh(alpha cos 2 pi s), the loop
average every step solves for its amplitude. psi bounds the C1 increment
of a step per unit sqrt(eta) dl(u); its square splits as
psi = sqrt(2 psi1) + sqrt(psi2). All three have removable
singularities at alpha = 0 with limits sqrt(3) + sqrt(2), 3/2 and 2; below
a small threshold the limits are returned so the three stay algebraically
consistent. M (padded sup of psi) and K (differential growth) feed the step
audits; the form family constant c and T = 2 M c (|df|_g + |n|_E) make the
scheduler's one-stage C1 bound.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .fields import form_norm, operator_norm_form, operator_norm_map
from .lorentz import euclidean_norm, timelike_unit_normal

# The amplitude cap. A step solves phi(alpha) = 1 / (r dl(u)) = q^(-1/2) with
# q = 1 - eta dl(u)^2 (radial_factor), and a positive double q is at least
# 2^-53, so no step reaches phi above 2^26.5, i.e. alpha above 20.80. The cap
# leaves 3x headroom; cosh^2 and phi^2 stay finite up to it.
ALPHA_CAP = 64.0
SMALL_ALPHA = 1e-4
PSI_LIMIT = np.sqrt(3.0) + np.sqrt(2.0)
PSI1_LIMIT = 1.5
PSI2_LIMIT = 2.0
# increment_constant samples psi at this many amplitudes and pads the sup by
# this factor to cover the sampling gaps.
INCREMENT_SAMPLES = 4096
INCREMENT_PAD = 1.01


def _bessel_series(alpha, nu, name):
    """(alpha, sum_m q^m nu! / (m! (m + nu)!)) with q = (alpha/2)^2, nu = 0 or 1.

    The sum is I_nu(alpha) (2 / alpha)^nu nu!, absolutely convergent;
    evaluation stops when the largest term over the array is at most 1e-17
    of the largest running sum.

    The stop is exact on any part of the array, so a row band of a grid
    gets bitwise the whole grid's values. Rounded products and sums are
    monotone, so a node's term and running sum never decrease with alpha,
    and a part's largest term and largest sum both sit at its largest
    alpha. The ratio term / sum grows with q, so where a part stops every
    node of it has a term of at most 1e-17 of its own sum, and later terms
    are smaller still: below half an ulp of the sum (over 5.55e-17 of it),
    each term the whole array would still add rounds away.
    """
    z = np.asarray(alpha, dtype=float)
    if np.any(z < 0.0) or np.any(z > ALPHA_CAP):
        raise DomainError("%s needs 0 <= alpha <= %g" % (name, ALPHA_CAP))
    q = (z / 2.0) ** 2
    term = np.ones_like(z)
    total = np.ones_like(z)
    m = 0
    while True:
        m += 1
        term *= q
        term /= m * (m + nu)
        total += term
        if np.max(term) <= 1e-17 * np.max(total) or m > 2000:
            break
    return z, total


def phi(alpha):
    """Average of cosh(alpha cos 2 pi s) over a full turn: I_0(alpha)."""
    _, total = _bessel_series(alpha, 0, "phi")
    return total if total.shape else float(total)


def phi_prime(alpha):
    """Derivative of phi, the same average against cos(2 pi s) sinh: I_1(alpha)."""
    z, total = _bessel_series(alpha, 1, "phi_prime")
    out = z / 2.0 * total
    return out if out.shape else float(out)


def _split(alpha):
    a = np.asarray(alpha, dtype=float)
    if np.any(a < 0.0):
        raise DomainError("psi needs alpha >= 0")
    small = a < SMALL_ALPHA
    return small, np.where(small, 1.0, a)


def _envelope(alpha, formula, limit):
    """formula(alpha, phi), with limit below SMALL_ALPHA."""
    small, safe = _split(alpha)
    out = np.where(small, limit, formula(safe, np.asarray(phi(safe))))
    return out if out.shape else float(out)


def psi(alpha):
    """C1 increment envelope (sqrt(2 cosh^2 - 2 phi) + sinh) / sqrt(phi^2 - 1)."""
    return _envelope(
        alpha,
        lambda a, p: (np.sqrt(2.0 * np.cosh(a) ** 2 - 2.0 * p) + np.sinh(a)) / np.sqrt(p**2 - 1.0),
        PSI_LIMIT,
    )


def psi1(alpha):
    """(cosh^2 - phi) / (phi^2 - 1), the squared even part of psi."""
    return _envelope(alpha, lambda a, p: (np.cosh(a) ** 2 - p) / (p**2 - 1.0), PSI1_LIMIT)


def psi2(alpha):
    """sinh^2 / (phi^2 - 1), the squared odd part of psi."""
    return _envelope(alpha, lambda a, p: np.sinh(a) ** 2 / (p**2 - 1.0), PSI2_LIMIT)


def increment_constant(alpha_max):
    """Padded sup of psi over (0, alpha_max].

    Dense sampling (log and linear mixed) joined with the alpha -> 0 limit;
    no monotonicity of psi is assumed. The pad covers sampling gaps.
    """
    a = float(alpha_max)
    if a <= 0.0:
        raise DomainError("increment_constant needs alpha_max > 0")
    half = INCREMENT_SAMPLES // 2
    grid = np.concatenate(
        [np.geomspace(a * 1e-6, a, half), np.linspace(a / INCREMENT_SAMPLES, a, half)]
    )
    sup = max(float(np.max(psi(grid))), PSI_LIMIT)
    return INCREMENT_PAD * sup


def growth_constant(alpha_max):
    """K = 2 cosh(alpha_max) + 1 bounding one step's differential growth."""
    a = float(alpha_max)
    if a < 0.0:
        raise DomainError("growth_constant needs alpha_max >= 0")
    return 2.0 * np.cosh(a) + 1.0


def form_family_constant(decomposition, g):
    """Measured c with sum_j sqrt(eta_j) |dl_j|_g <= c |sum eta_j dl_j^2|_g^(1/2).

    Taken as the max over nodes where the reconstruction is nonzero; 0.0
    when every coefficient vanishes.
    """
    recon = decomposition.reconstruct()
    den = np.sqrt(operator_norm_form(recon, g))
    num = np.zeros_like(den)
    for ell, eta in zip(decomposition.forms, decomposition.etas):
        num += np.sqrt(np.maximum(eta, 0.0)) * form_norm(ell, g)
    mask = den > 1e-14
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / den[mask]))


def c1_budget_constant(increment, form_constant, f, g):
    """T = 2 M c (|df|_g + |n|_E), the C1 drift of one stage started at f.

    A stage whose metric moves by |g_n - g_{n-1}| may shift the
    differential by at most T |g_n - g_{n-1}|^(1/2) (Nash; Conti, De Lellis
    and Szekelyhidi); the scheduler takes f as the stage's start jet.
    """
    df_norm = float(np.max(operator_norm_map(f.dfx, f.dfy, g)))
    n = timelike_unit_normal(f.dfx, f.dfy)
    n_norm = float(np.max(euclidean_norm(n)))
    return 2.0 * increment * form_constant * (df_norm + n_norm)


def compute_constants(alpha_max, k, decomposition=None, f0=None, g=None):
    """The (name, value) rows of the constants table for (alpha_max, k).

    Given a scenario's decomposition, initial jet f0 and target g, the rows
    also hold its form family constant c and drift budget constant T.
    """
    increment = increment_constant(alpha_max)
    rows = [
        ("alpha_max", float(alpha_max)),
        ("dictionary_size", float(k)),
        ("increment_constant", increment),
        ("growth_constant", growth_constant(alpha_max)),
    ]
    if decomposition is not None:
        c = form_family_constant(decomposition, g)
        rows.append(("form_constant", c))
        rows.append(("c1_budget_constant", c1_budget_constant(increment, c, f0, g)))
    return rows
