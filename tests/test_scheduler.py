"""Tests for the staged runner: the dyadic schedule, budgets and retries, ledger."""
import numpy as np
import pytest

from lorentz_corrugate import corrugation, scheduler
from lorentz_corrugate.decomp import build_dictionary
from lorentz_corrugate.errors import BudgetExceeded, DomainError, NotLong, SingularMetric
from lorentz_corrugate.fields import (
    EmbeddingJet,
    Grid,
    MetricField,
)
from lorentz_corrugate.scenarios import flat_inclusion, scenario
from lorentz_corrugate.scheduler import run_nash_kuiper


def test_practical_schedule_is_dyadic():
    """The ledger carries delta_n = 2^-n and C0 budgets a_n = eps 2^-(n+1)."""
    f0, g = scenario("flat-shrink").build(Grid(17, 17))
    _, ledger = run_nash_kuiper(f0, g, stages=4, eps=0.05)
    assert [r.delta for r in ledger.rows] == [2.0**-n for n in range(1, 5)]
    budgets = [r.c0_budget for r in ledger.rows]
    assert budgets == [0.05 * 2.0 ** (-n - 1) for n in range(1, 5)]
    assert budgets[0] == 0.05 * 0.25
    assert ledger.summary["c0_budget_total"] == sum(budgets) < 0.05
    for bad in ({"stages": 0}, {"eps": 0.0}, {"eps": -1.0}, {"eps": float("inf")}):
        with pytest.raises(DomainError):
            run_nash_kuiper(f0, g, **bad)


def test_stage_metrics_interpolate_monotonically():
    """Stage n is accepted against g_{n+1} = g + 2^-(n+1) Delta, the last stage too."""
    f0, g = scenario("flat-shrink").build(Grid(17, 17))
    _, ledger = run_nash_kuiper(f0, g, stages=3)
    delta_norm = ledger.summary["delta_norm"]
    for row in ledger.rows:
        # flat-shrink has a constant Delta: |g_{n+1} - g_n|_g = (delta_n - delta_{n+1}) |Delta|_g
        assert row.stage_bound == pytest.approx(0.5 * row.delta * delta_norm, rel=1e-12)
        assert row.long_next_min_eig >= -1e-12
    # stage metrics are built on the target, which must be positive definite
    indefinite = MetricField.constant(0.5, 0.0, -0.5, f0.grid.shape)
    with pytest.raises(SingularMetric, match="target metric"):
        run_nash_kuiper(f0, indefinite, stages=1)


def test_run_rejects_short_embedding():
    grid = Grid(9, 9)
    f0 = flat_inclusion(grid)
    g = MetricField.constant(2.0, 0.0, 2.0, grid.shape)
    with pytest.raises(NotLong):
        run_nash_kuiper(f0, g, stages=2)


def test_run_flat_shrink_three_stages(tmp_path):
    grid = Grid(33, 33)
    f0, g = scenario("flat-shrink").build(grid)
    out = tmp_path / "run"
    final, ledger = run_nash_kuiper(f0, g, stages=3, outdir=str(out))
    assert len(ledger.rows) == 3
    for row in ledger.rows:
        assert row.stage_bound_pass and row.c0_pass and row.triangle_pass
        assert row.c1_bound_pass and row.c1_bound_pass_euclid
        assert row.n_values and all(n >= 16 for n in row.n_values)
        assert row.sup_default <= row.stage_bound + 1e-12
        assert row.long_next_min_eig >= -1e-12
    s = ledger.summary
    assert s["monotone_pass"]
    assert s["final_sup_default"] < s["initial_sup_default"]
    assert s["c0_total"] <= s["c0_budget_total"]
    # defect tracks the remaining stage weight
    assert s["final_sup_default"] <= 2.0 * ledger.rows[-1].delta * s["delta_norm"]
    assert (out / "ledger.csv").exists()
    assert (out / "constants.csv").exists()
    for n in range(4):
        assert (out / ("stage_%03d.obj" % n)).exists()


def test_budget_retry_rescues_late_stages(monkeypatch):
    """Capped at N = 2^16, stages 5 and 6 pass only after doubling their per-step budget."""
    monkeypatch.setattr(corrugation, "LADDER_CAP", 2**16)
    f0, g = scenario("flat-shrink").build(Grid(33, 33))
    _, ledger = run_nash_kuiper(f0, g, stages=6, dictionary=build_dictionary(5))
    assert [r.retries for r in ledger.rows] == [0, 0, 0, 0, 1, 2]
    for row in ledger.rows:
        assert row.stage_bound_pass and row.c0_pass and row.triangle_pass
        assert row.c1_bound_pass and row.c1_bound_pass_euclid
        assert max(row.n_values) <= 2**16
        # each retry doubled the starting budget stage_bound / active
        start = row.stage_bound / len(row.n_values)
        want = min(2.0**row.retries * start, 0.9 * row.stage_bound)
        assert row.per_step_eps == pytest.approx(want, rel=1e-12)
    assert ledger.summary["monotone_pass"]


def test_stage_inside_slack_is_not_retried(monkeypatch):
    """A stage defect within the ledger's 1e-12 slack passes without a halved retry."""
    f0, g = scenario("flat-shrink").build(Grid(17, 17))
    _, ledger = run_nash_kuiper(f0, g, stages=1)
    honest = ledger.rows[0]
    # g is the constant target that norms are taken against: adding s g
    # to the defect raises its measured norm by s
    s = honest.stage_bound + 5e-13 - honest.sup_default
    measure = scheduler.pullback_metric
    monkeypatch.setattr(scheduler, "pullback_metric", lambda f: measure(f) + g * s)
    _, ledger = run_nash_kuiper(f0, g, stages=1)
    row = ledger.rows[0]
    assert row.retries == 0 and row.stage_bound_pass
    assert row.stage_bound < row.sup_default <= row.stage_bound + 1e-12


def test_stage_without_active_form():
    """A stage whose defect is zero keeps its jet, with no step, no budget and no retry."""
    shape = (9, 9)
    f = flat_inclusion(Grid(*shape))
    f_n, row = scheduler.run_stage(
        f,
        MetricField.identity(shape),
        MetricField.constant(0.9, 0.0, 0.9, shape),
        0.01,
        build_dictionary(5),
        g_norm=MetricField.constant(0.8, 0.0, 0.8, shape),
        stage_index=1,
        delta=0.5,
        delta_prev_norm=0.25,
    )
    assert f_n is f
    assert row.n_values == [] and row.step_records == []
    assert row.per_step_eps == 0.0 and row.retries == 0
    assert row.sup_default == 0.0 and row.stage_bound_pass
    assert row.c0_shift == 0.0 and row.c1_increment == 0.0
    assert row.long_next_min_eig == pytest.approx(0.1, abs=1e-15)


def test_c1_bound_fails_an_overshooting_stage(monkeypatch):
    """A stage that moves the jet 20 times as far as its steps did breaks the C1 bound."""
    grid = Grid(33, 33)
    f0, g = scenario("flat-shrink").build(grid)
    honest = scheduler.successive_cp

    def overshoot(f_prev, *args, **kwargs):
        f_n, records = honest(f_prev, *args, **kwargs)
        parts = [
            p + 20.0 * (q - p)
            for p, q in zip((f_prev.pos, f_prev.dfx, f_prev.dfy), (f_n.pos, f_n.dfx, f_n.dfy))
        ]
        return EmbeddingJet(grid, *parts), records

    monkeypatch.setattr(scheduler, "successive_cp", overshoot)
    _, ledger = run_nash_kuiper(f0, g, stages=1)
    row = ledger.rows[0]
    assert row.c1_increment > row.c1_bound
    assert not row.c1_bound_pass and not row.c1_bound_pass_euclid


def test_run_ledger_deterministic(tmp_path):
    grid = Grid(33, 33)
    f0, g = scenario("flat-shrink").build(grid)
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_nash_kuiper(f0, g, stages=2, outdir=str(a))
    run_nash_kuiper(f0, g, stages=2, outdir=str(b))
    assert (a / "ledger.csv").read_bytes() == (b / "ledger.csv").read_bytes()
    assert (a / "constants.csv").read_bytes() == (b / "constants.csv").read_bytes()
    assert (a / "stage_002.obj").read_bytes() == (b / "stage_002.obj").read_bytes()


def test_run_threads_bit_identical():
    grid = Grid(33, 33)
    f0, g = scenario("flat-shrink").build(grid)
    f1, _ = run_nash_kuiper(f0, g, stages=2, threads=1)
    f2, _ = run_nash_kuiper(f0, g, stages=2, threads=2)
    assert np.array_equal(f1.pos, f2.pos)
    assert np.array_equal(f1.dfx, f2.dfx)


def test_run_already_isometric():
    grid = Grid(17, 17)
    f0 = flat_inclusion(grid)
    g = MetricField.identity(grid.shape)
    final, ledger = run_nash_kuiper(f0, g, stages=2)
    assert ledger.summary["final_sup_default"] == 0.0
    assert np.array_equal(final.pos, f0.pos)
    for row in ledger.rows:
        assert row.n_values == []
        assert row.sup_default == 0.0


def test_aborted_run_flushes_partial_ledger(tmp_path, monkeypatch):
    """An exhausted corrugation budget still leaves the ledger on disk."""
    monkeypatch.setattr(corrugation, "LADDER_CAP", 64)
    grid = Grid(33, 33)
    f0, g = scenario("flat-shrink").build(grid)
    out = tmp_path / "aborted"
    with pytest.raises(BudgetExceeded):
        run_nash_kuiper(f0, g, stages=3, outdir=str(out))
    assert (out / "ledger.csv").exists()
    assert (out / "constants.csv").exists()
    assert (out / "stage_000.obj").exists()
