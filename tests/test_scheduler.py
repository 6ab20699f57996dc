"""Tests for the staged runner: schedules, stage metrics, budgets, ledger."""
import numpy as np
import pytest

from lorentz_corrugate import scheduler
from lorentz_corrugate.errors import BudgetExceeded, DomainError, NotLong
from lorentz_corrugate.fields import (
    EmbeddingJet,
    Grid,
    MetricField,
    isometric_default,
    pullback_metric,
)
from lorentz_corrugate.scenarios import flat_inclusion, scenario
from lorentz_corrugate.scheduler import (
    Schedule,
    make_schedule,
    run_nash_kuiper,
    stage_metrics,
)


def test_practical_schedule_is_dyadic():
    s = make_schedule(6, eps=0.05)
    assert s.deltas == [2.0**-n for n in range(7)]
    assert s.delta_next == 2.0**-7
    assert len(s.a_seq) == 6
    assert sum(s.a_seq) < 0.05
    assert s.a_seq[0] == 0.05 * 0.25


def test_schedule_guards():
    with pytest.raises(DomainError):
        make_schedule(0)
    with pytest.raises(DomainError):
        Schedule(
            deltas=[1.0, 0.5, 0.5],
            a_seq=[0.01, 0.01],
            stages=2,
            eps=0.05,
            delta_next=0.1,
        )
    with pytest.raises(DomainError):
        Schedule(
            deltas=[1.0, 0.5, 0.25],
            a_seq=[0.03, 0.03],
            stages=2,
            eps=0.05,
            delta_next=0.125,
        )


def test_stage_metrics_interpolate_monotonically():
    grid = Grid(17, 17)
    f0, g = scenario("flat-shrink").build(grid)
    delta = isometric_default(f0, g)
    s = make_schedule(4)
    gs = stage_metrics(g, delta, s)
    assert len(gs) == 5
    # delta_0 = 1 reproduces the induced metric of the initial jet
    ind = pullback_metric(f0)
    assert np.max(np.abs(gs[0].E - ind.E)) < 1e-15
    for a, b in zip(gs, gs[1:]):
        assert (a - b).min_eigenvalue() >= -1e-15
        b.require_positive_definite()


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
    assert s["final_sup_default"] <= 2.0 * ledger.schedule.deltas[-1] * s["delta_norm"]
    assert (out / "ledger.csv").exists()
    assert (out / "constants.csv").exists()
    for n in range(4):
        assert (out / ("stage_%03d.obj" % n)).exists()


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


def test_aborted_run_flushes_partial_ledger(tmp_path):
    """An exhausted corrugation budget still leaves the ledger on disk."""
    grid = Grid(33, 33)
    f0, g = scenario("flat-shrink").build(grid)
    out = tmp_path / "aborted"
    with pytest.raises(BudgetExceeded):
        run_nash_kuiper(f0, g, stages=3, outdir=str(out), n_cap=64)
    assert (out / "ledger.csv").exists()
    assert (out / "constants.csv").exists()
    assert (out / "stage_000.obj").exists()
