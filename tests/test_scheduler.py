"""Tests for the staged runner: the dyadic schedule, budgets and retries, ledger."""
import numpy as np
import pytest

from lorentz_corrugate import corrugation, fields, scheduler
from lorentz_corrugate.decomp import build_dictionary
from lorentz_corrugate.errors import BudgetExceeded, DomainError, NotLong, SingularMetric
from lorentz_corrugate.fields import (
    EmbeddingJet,
    Grid,
    MetricField,
    require_long,
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
    """A stage defect within the ledger's 1e-12 slack passes."""
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
    # g_1 = I is f's own metric, g_2 = 0.9 I, a_1 = 0.01 and |g_1 - g_0|_g = 0.25
    f_n, row = scheduler.run_stage(
        f,
        1,
        MetricField.constant(0.8, 0.0, 0.8, shape),
        MetricField.constant(0.4, 0.0, 0.4, shape),
        0.04,
        build_dictionary(5),
    )
    assert f_n is f
    assert row.n_values == [] and row.step_records == []
    assert row.per_step_eps == 0.0 and row.retries == 0
    assert row.sup_default == 0.0 and row.stage_bound_pass
    assert row.c0_shift == 0.0 and row.c1_increment == 0.0
    assert row.long_next_min_eig == pytest.approx(0.1, abs=1e-15)


def test_run_stage_replays_the_run_from_its_number():
    """run_stage(f, n, g, Delta, eps, dictionary) is stage n of run_nash_kuiper, bitwise."""
    f0, g = scenario("flat-shrink").build(Grid(17, 17))
    Delta, dictionary = require_long(f0, g), build_dictionary(5)
    f1, _ = run_nash_kuiper(f0, g, stages=1, eps=0.05, dictionary=dictionary)
    f2, ledger = run_nash_kuiper(f0, g, stages=2, eps=0.05, dictionary=dictionary)
    for n, (f_prev, f_run) in enumerate(((f0, f1), (f1, f2)), 1):
        f_n, row = scheduler.run_stage(f_prev, n, g, Delta, 0.05, dictionary)
        for a, b in zip((f_n.pos, f_n.dfx, f_n.dfy), (f_run.pos, f_run.dfx, f_run.dfy)):
            assert np.array_equal(a, b)
        assert row.ledger_cells() == ledger.rows[n - 1].ledger_cells()


def test_run_stage_is_the_same_on_one_and_two_threads(monkeypatch):
    """A stage whose probes run in several tiles gives the same jet, ledger
    row and step records on one and two threads."""
    f0, g = scenario("flat-shrink").build(Grid(33, 33))
    Delta, dictionary = require_long(f0, g), build_dictionary(5)
    monkeypatch.setattr(corrugation, "TILE_NODES", 6 * 33)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(fields, "WORKERS", workers)
        runs.append(scheduler.run_stage(f0, 1, g, Delta, 0.05, dictionary))
    (f_1, row_1), (f_2, row_2) = runs
    for a, b in zip((f_1.pos, f_1.dfx, f_1.dfy), (f_2.pos, f_2.dfx, f_2.dfy)):
        assert a.tobytes() == b.tobytes()
    assert row_1.ledger_cells() == row_2.ledger_cells()
    assert row_1.step_records == row_2.step_records


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
    # the overshoot also misses the stage bound under the starting budget,
    # which is recorded, not retried
    assert row.retries == 0 and not row.stage_bound_pass


def test_doubled_budget_that_misses_the_stage_bound_raises(monkeypatch):
    """A doubled budget that the ladder meets but the stage bound does not fails the stage.

    Capped at N = 256, stage 2 (bound 0.125) raises at its starting budget
    0.125 / 3, passes the ladder at the doubled 0.25 / 3 and lands above
    its bound. The budget never goes back to one that already failed.
    """
    monkeypatch.setattr(corrugation, "LADDER_CAP", 256)
    f0, g = scenario("flat-shrink").build(Grid(17, 17))
    honest = scheduler.successive_cp
    budgets = []

    def recording(f_prev, dec, per_step_eps, **kwargs):
        budgets.append(per_step_eps)
        return honest(f_prev, dec, per_step_eps, **kwargs)

    monkeypatch.setattr(scheduler, "successive_cp", recording)
    with pytest.raises(BudgetExceeded, match=r"stage 2 defect .* misses its bound 1\.250000e-01"):
        run_nash_kuiper(f0, g, stages=2, dictionary=build_dictionary(3))
    assert budgets == pytest.approx([0.25 / 3, 0.125 / 3, 0.25 / 3], rel=1e-12)


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
