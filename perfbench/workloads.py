"""The three benchmark workloads: inputs, one timed unit, and output checks.

Each workload builds its inputs in `setup`, runs one unit of user-visible
work in `unit` (timed by the caller), hashes the unit's outputs in `digest`
and returns named pass/fail checks of them from `checks`. Engine functions are always called
through their module attribute (`self.corr.prepare_step`), so the traced
run sees them.

canonical-257  flat-shrink, 257x257, 6 practical stages, eps 0.05, k = 5,
               through `cli.main(["run", ...])`. N-selection, probes, step
               audits and prepare_step do almost all the work.
strip-ladder   strip-primitive eta on 257x257; per dictionary form one
               prepare_step and apply_corrugation at the fixed ladder
               N = 16 .. 2^20 (85 probes). Probe kernel only: no
               N-selection, scheduler, decomposition or I/O.
artifacts-513  a seeded smooth metric field on 513x513: write the metric
               CSV, `cli.main(["decompose", ...])` (read, decompose, write
               the etas CSV), then export_obj of a seeded 513x513 jet.
               I/O and decomposition on a 4x larger working set, no
               corrugation.

Canonical and strip inputs are fixed by definition; only artifacts-513
draws its field and jet from the seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

DICTIONARY_K = 5
ALPHA_MAX_HINT = 2.0
DECOMPOSE_THREADS = 2


@contextlib.contextmanager
def keep_result(module, name, sink):
    """Append each return value of module.name to sink while active."""
    original = getattr(module, name)

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, keep)
    try:
        yield sink
    finally:
        setattr(module, name, original)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _table_bytes(orders, nodes):
    """Bessel plus sine table bytes, (orders + 1) * nodes * 8 each."""
    return 2 * (orders + 1) * nodes * 8


class Workload:
    name = ""

    def __init__(self, seed, smoke):
        self.seed = seed
        self.smoke = smoke

    def setup(self, lc, setup_dir):
        self.corr = lc.corrugation
        self.fields = lc.fields
        self.cli = lc.cli
        self.constants = lc.bounds.compute_constants(ALPHA_MAX_HINT, DICTIONARY_K)

    def unit(self, workdir):
        raise NotImplementedError

    def digest(self, out):
        """Hash of the unit's outputs; repeats inside one run must agree."""
        raise NotImplementedError

    def checks(self, out):
        raise NotImplementedError

    def report(self, outs):
        raise NotImplementedError


class Canonical(Workload):
    name = "canonical-257"

    def setup(self, lc, setup_dir):
        super().setup(lc, setup_dir)
        self.n = 33 if self.smoke else 257
        self.config = {
            "grid": self.n,
            "stages": 6,
            "mode": "practical",
            "eps": 0.05,
            "dictionary_k": DICTIONARY_K,
            "scenario": "flat-shrink",
        }
        self.config_path = os.path.join(setup_dir, "run.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def unit(self, workdir):
        outdir = os.path.join(workdir, "out")
        argv = ["run", "--config", self.config_path, "--outdir", outdir]
        # The step audits never reach disk, so keep the ledger the CLI gets.
        with keep_result(self.cli, "run_nash_kuiper", []) as kept:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        return {"code": code, "ledger": kept[0][1] if kept else None, "outdir": outdir}

    def digest(self, out):
        ledger_path = os.path.join(out["outdir"], "ledger.csv")
        return _sha256(ledger_path) if os.path.exists(ledger_path) else None

    def checks(self, out):
        ledger = out["ledger"]
        if out["code"] != 0 or ledger is None:
            return [("exit code 0", False)]
        s = ledger.summary
        rows = ledger.rows
        records = [rec for row in rows for rec in row.step_records]
        margin = max(
            (
                max(a["increment_margin"], a["growth_margin"], a["normal_growth_margin"])
                for a in (rec.audits for rec in records)
            ),
            default=math.inf,
        )
        identity = max((rec.audits["identity_max"] for rec in records), default=math.inf)
        unit_err = max((rec.audits["normal_unit_actual"] for rec in records), default=math.inf)
        ortho = max(
            (rec.audits["normal_ortho_actual"] / (10.0 / rec.N) for rec in records),
            default=math.inf,
        )
        defects = [s["initial_sup_default"]] + [row.sup_vs_target for row in rows]
        with open(os.path.join(out["outdir"], "ledger.csv")) as fh:
            ledger_lines = fh.read().splitlines()
        objs = [
            os.path.exists(os.path.join(out["outdir"], "stage_%03d.obj" % i))
            for i in range(len(rows) + 1)
        ]
        return [
            ("exit code 0", True),
            ("six stage rows", len(rows) == 6 and len(ledger_lines) == 7),
            ("stage bounds pass", all(row.stage_bound_pass for row in rows)),
            ("final <= 0.05 delta_norm", s["final_sup_default"] <= 0.05 * s["delta_norm"]),
            ("C0 drift <= 0.05", s["c0_total"] <= 0.05),
            ("defect decreases every stage", all(b < a for a, b in zip(defects, defects[1:]))),
            ("step audit margins <= 1e-12", margin <= 1e-12),
            ("step identity_max <= 1e-9", identity <= 1e-9),
            ("|h(n,n)+1| <= 1e-8", unit_err <= 1e-8),
            ("normal orthogonality <= 10/N", ortho <= 1.0),
            ("stage meshes written", all(objs)),
        ]

    def report(self, outs):
        ledger = outs[-1]["ledger"]
        nodes = self.n * self.n
        if ledger is None:
            return {}
        alpha = max(row.alpha_max for row in ledger.rows)
        orders = self.corr.series_orders(alpha)
        return {
            "cli_threads": self.cli.RunConfig(**self.config).resolved_threads(),
            "determinism": {
                "ledger_sha256": [o["digest"] for o in outs],
                "n_values": [row.n_values for row in ledger.rows],
                "retries": [row.retries for row in ledger.rows],
            },
            "working_set_computed": {
                "nodes": nodes,
                "orders_at_max_alpha": orders,
                "bessel_plus_sine_tables_bytes": _table_bytes(orders, nodes),
                "jet_bytes": 9 * nodes * 8,
            },
        }


class StripLadder(Workload):
    name = "strip-ladder"

    def setup(self, lc, setup_dir):
        super().setup(lc, setup_dir)
        self.n = 33 if self.smoke else 257
        grid = lc.Grid(self.n, self.n)
        self.f = lc.scenarios.flat_inclusion(grid)
        self.eta = lc.scenarios.strip_eta_field(grid)
        self.forms = lc.decomp.build_dictionary(DICTIONARY_K).forms
        top = 8 if self.smoke else 20
        self.ladder = [2**p for p in range(4, top + 1)]

    def unit(self, workdir):
        probes = []
        orders = []
        for q, ell in enumerate(self.forms):
            params = self.corr.prepare_step(self.f, self.eta, ell)
            orders.append(params.orders)
            for N in self.ladder:
                _, rec = self.corr.apply_corrugation(params, N, raise_on_loss=False)
                probes.append(
                    (q, N, rec.sup_default, rec.audits["identity_max"], rec.spacelike_min)
                )
        return {"probes": probes, "orders": orders}

    def digest(self, out):
        return hashlib.sha256(np.array([p[2:] for p in out["probes"]]).tobytes()).hexdigest()

    def checks(self, out):
        tol = self.corr.SPACELIKE_TOL
        return [
            check
            for q, N, _, identity, spacelike in out["probes"]
            for check in (
                ("form %d N=%d identity_max <= 1e-9" % (q, N), identity <= 1e-9),
                ("form %d N=%d spacelike" % (q, N), spacelike > tol),
            )
        ]

    def report(self, outs):
        out = outs[-1]
        h = 1.0 / (self.n - 1)
        curves = []
        for q, ell in enumerate(self.forms):
            norm = math.hypot(ell.a, ell.b)
            curves.append(
                {
                    "form": q,
                    "angle_rad": math.atan2(ell.b, ell.a),
                    "orders": out["orders"][q],
                    "N": [p[1] for p in out["probes"] if p[0] == q],
                    "defect": [p[2] for p in out["probes"] if p[0] == q],
                    "osc_per_cell": [p[1] * h * norm for p in out["probes"] if p[0] == q],
                }
            )
        nodes = self.n * self.n
        return {
            "defect_vs_N": curves,
            "working_set_computed": {
                "nodes": nodes,
                "orders_max": max(out["orders"]),
                "bessel_plus_sine_tables_bytes": _table_bytes(max(out["orders"]), nodes),
                "jet_bytes": 9 * nodes * 8,
            },
        }


class Artifacts(Workload):
    name = "artifacts-513"

    def setup(self, lc, setup_dir):
        super().setup(lc, setup_dir)
        self.n = 33 if self.smoke else 513
        grid = lc.Grid(self.n, self.n)
        rng = np.random.default_rng(self.seed)
        X, Y = grid.mesh()
        self.dictionary = lc.decomp.build_dictionary(DICTIONARY_K)
        # A positive combination of the dictionary's squares lies in the
        # dictionary cone, so the decomposition is exact.
        field = None
        for ell in self.dictionary.forms:
            kx, ky = rng.integers(1, 4, size=2)
            px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
            amp = rng.uniform(0.2, 0.5)
            c = 1.0 + amp * np.sin(2 * np.pi * kx * X + px) * np.cos(2 * np.pi * ky * Y + py)
            term = ell.outer(c)
            field = term if field is None else field + term
        self.field = field
        # A seeded smooth graph z(x, y) with its exact partials.
        kx, ky = rng.integers(1, 4, size=2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
        sx, cx = np.sin(2 * np.pi * kx * X + px), np.cos(2 * np.pi * kx * X + px)
        sy, cy = np.sin(2 * np.pi * ky * Y + py), np.cos(2 * np.pi * ky * Y + py)
        one, zero = np.ones_like(X), np.zeros_like(X)
        pos = np.stack([X, Y, 0.05 * sx * sy], axis=-1)
        dfx = np.stack([one, zero, 0.1 * np.pi * kx * cx * sy], axis=-1)
        dfy = np.stack([zero, one, 0.1 * np.pi * ky * sx * cy], axis=-1)
        self.jet = lc.fields.EmbeddingJet(grid, pos, dfx, dfy)
        self.verified = None

    def unit(self, workdir):
        metric = os.path.join(workdir, "metric.csv")
        etas = os.path.join(workdir, "etas.csv")
        obj = os.path.join(workdir, "surface.obj")
        self.fields.write_metric_csv(metric, self.field)
        argv = ["decompose", "--metric", metric, "--k", str(DICTIONARY_K), "--out", etas]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv + ["--threads", str(DECOMPOSE_THREADS)])
        self.fields.export_obj(self.jet, obj)
        return {"code": code, "stdout": buf.getvalue(), "paths": (metric, etas, obj)}

    def digest(self, out):
        return ",".join(_sha256(p) if os.path.exists(p) else "-" for p in out["paths"])

    def checks(self, out):
        if out["code"] != 0:
            return [("exit code 0", False)]
        residual = float(out["stdout"].rsplit("residual", 1)[1])
        head = [("exit code 0", True), ("decompose residual <= 1e-9", residual <= 1e-9)]
        if out["digest"] == self.verified:
            # Byte-identical to outputs that already passed the file checks.
            return head + [("files identical to verified ones", True)]
        files = self._file_checks(*out["paths"])
        if all(ok for _, ok in files):
            self.verified = out["digest"]
        return head + files

    def _file_checks(self, metric, etas, obj):
        nodes = self.n * self.n
        m = np.loadtxt(metric, delimiter=",", skiprows=1)
        e = np.loadtxt(etas, delimiter=",", skiprows=1)
        recon = np.zeros((3, nodes))
        for j, ell in enumerate(self.dictionary.forms):
            recon += np.outer([ell.a * ell.a, ell.a * ell.b, ell.b * ell.b], e[:, 2 + j])
        target = np.stack([c.ravel() for c in (self.field.E, self.field.F, self.field.G)])
        dE, dF, dG = recon - target
        recon_err = float(np.max(np.sqrt(dE**2 + 2 * dF**2 + dG**2)))
        v = np.loadtxt(obj, usecols=(1, 2, 3), max_rows=nodes)
        with open(obj, "rb") as fh:
            faces = fh.read().count(b"\nf ")
        return [
            ("metric CSV round-trips bitwise", np.array_equal(m[:, 2:].T, target)),
            ("etas CSV reconstructs the field within 1e-9", recon_err <= 1e-9),
            ("OBJ vertices round-trip bitwise", np.array_equal(v, self.jet.pos.reshape(-1, 3))),
            ("OBJ face count", faces == 2 * (self.n - 1) ** 2),
        ]

    def report(self, outs):
        nodes = self.n * self.n
        return {
            "decompose_threads": DECOMPOSE_THREADS,
            "metric_etas_obj_sha256": [o["digest"] for o in outs],
            "working_set_computed": {
                "nodes": nodes,
                "metric_field_bytes": 3 * nodes * 8,
                "decompose_rows_and_coeff_bytes": (3 + DICTIONARY_K) * nodes * 8,
                "jet_bytes": 9 * nodes * 8,
            },
        }


WORKLOADS = {w.name: w for w in (Canonical, StripLadder, Artifacts)}
