"""Acceptance gate: the ten primary claims, one test each.

Every claim is defined once, in lorentz_corrugate.verify. This module runs
the full registry once, the canonical flat-shrink 257x257 six-stage run
included, and each test prints the lines of its criterion's claims (visible
with -s) and asserts them. Only three things live here: the scipy oracle
for phi (the runtime needs numpy only), the wall-time bounds, and which
claims make up each criterion.
"""
import numpy as np
import pytest
from scipy import special

from lorentz_corrugate.corrugation import phi
from lorentz_corrugate.verify import run_checks

CRITERIA = {
    1: ("pullback-identity",),
    2: ("average-condition",),
    3: ("oscillation-decay",),
    4: ("compact-support-gluing",),
    5: ("loop-average-phi",),
    6: ("envelope-limits",),
    7: ("staged-run-audits",),
    8: ("corrugated-normal",),
    9: ("staged-run-audits", "end-to-end-convergence"),
    10: ("primitive-decomposition",),
}

# Seconds a criterion's claims may take together; the canonical run counts
# toward criterion 09 through staged-run-audits, the first claim to read it.
WALL_S = {1: 5.0, 3: 30.0, 9: 600.0}


@pytest.fixture(scope="module")
def full():
    return {res.name: res for res in run_checks("full")}


def verdict(full, num):
    results = [full[name] for name in CRITERIA[num]]
    for res in results:
        print("criterion %02d %s" % (num, res.line()))
    assert all(res.passed for res in results), [res.line() for res in results]
    if num in WALL_S:
        wall = sum(res.seconds for res in results)
        assert wall < WALL_S[num], "criterion %02d took %.1fs" % (num, wall)


def test_criterion_01_exact_pullback_identity(full):
    verdict(full, 1)


def test_criterion_02_average_condition(full):
    verdict(full, 2)


def test_criterion_03_defect_decay(full):
    verdict(full, 3)


def test_criterion_04_compact_support_gluing(full):
    verdict(full, 4)


def test_criterion_05_phi_oracle(full):
    a = np.random.default_rng(101).uniform(0.0, 5.0, size=100)
    d = float(np.max(np.abs(phi(a) - special.iv(0, a))))
    print("criterion 05 sup |phi - I0| = %.3e <= 1e-10" % d)
    assert d <= 1e-10
    verdict(full, 5)


def test_criterion_06_envelope_limits(full):
    verdict(full, 6)


def test_criterion_07_step_bound_audits(full):
    verdict(full, 7)


def test_criterion_08_normal_correctness(full):
    verdict(full, 8)


def test_criterion_09_end_to_end_convergence(full):
    verdict(full, 9)


def test_criterion_10_decomposition_round_trip(full):
    verdict(full, 10)
