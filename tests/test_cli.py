"""End-to-end tests of the command-line surface and its exit codes."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorentz_corrugate
from lorentz_corrugate import corrugation
from lorentz_corrugate.cli import RunConfig, main
from lorentz_corrugate.fields import (
    Grid,
    MetricField,
    read_metric_csv,
    write_grid_csv,
    write_metric_csv,
)
from lorentz_corrugate.scenarios import strip_eta_field
from lorentz_corrugate.verify import CLAIMS, Inputs


def test_info_lists_scenarios(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "lorentz-corrugate" in out
    assert "flat-shrink" in out and "strip-primitive" in out


def test_corrugate_needs_exactly_one_of_N_and_eps(tmp_path, capsys):
    out = str(tmp_path / "s.obj")
    assert main(["corrugate", "--grid", "17", "--out", out]) == 2
    assert (
        main(["corrugate", "--grid", "17", "--out", out, "--N", "8", "--eps", "0.1"])
        == 2
    )
    assert "exactly one" in capsys.readouterr().err


def test_corrugate_fixed_N(tmp_path, capsys):
    obj = tmp_path / "step.obj"
    rec = tmp_path / "record.csv"
    code = main(
        [
            "corrugate",
            "--grid",
            "33",
            "--N",
            "32",
            "--out",
            str(obj),
            "--record",
            str(rec),
        ]
    )
    assert code == 0
    assert "corrugated at N=32" in capsys.readouterr().out
    lines = obj.read_text().splitlines()
    assert lines[0].startswith("v ")
    assert sum(1 for ln in lines if ln.startswith("v ")) == 33 * 33
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2 * 32 * 32
    rows = dict(
        ln.split(",") for ln in rec.read_text().splitlines()[1:]
    )
    assert float(rows["sup_default"]) > 0.0
    assert float(rows["identity_max"]) < 1e-9
    assert int(rows["N"]) == 32


def test_corrugate_by_epsilon(tmp_path, capsys):
    obj = tmp_path / "eps.obj"
    code = main(["corrugate", "--grid", "33", "--eps", "0.05", "--out", str(obj)])
    assert code == 0
    assert "corrugated at N=" in capsys.readouterr().out
    assert obj.exists()


def test_corrugate_eta_file(tmp_path, capsys):
    grid = Grid(17, 17)
    eta_path = tmp_path / "eta.csv"
    write_grid_csv(str(eta_path), {"value": strip_eta_field(grid)})
    obj = tmp_path / "o.obj"
    code = main(
        ["corrugate", "--grid", "17", "--eta-file", str(eta_path), "--N", "16", "--out", str(obj)]
    )
    assert code == 0
    capsys.readouterr()
    # shape mismatch is a configuration error that names the file
    assert (
        main(
            ["corrugate", "--grid", "33", "--eta-file", str(eta_path), "--N", "16", "--out", str(obj)]
        )
        == 2
    )
    assert capsys.readouterr().err == (
        "config error: %s: eta field shape (17, 17) does not match --grid 33\n" % eta_path
    )


# -0.5 is well-formed but outside the coefficient domain: an input fault too
@pytest.mark.parametrize("bad", ["zero", "nan", "-0.5"])
def test_corrugate_malformed_eta_file_is_usage_error(tmp_path, capsys, bad):
    eta_path = tmp_path / "eta.csv"
    write_grid_csv(str(eta_path), {"value": strip_eta_field(Grid(5, 5))})
    lines = eta_path.read_text().splitlines()
    assert lines[7].startswith("1,1,")
    lines[7] = "1,1," + bad
    eta_path.write_text("\n".join(lines) + "\n")
    obj = tmp_path / "o.obj"
    code = main(
        ["corrugate", "--grid", "5", "--eta-file", str(eta_path), "--N", "16", "--out", str(obj)]
    )
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not obj.exists()


def test_corrugate_rejects_zero_form(tmp_path):
    obj = str(tmp_path / "z.obj")
    assert main(["corrugate", "--grid", "17", "--N", "8", "--ell", "0,0", "--out", obj]) == 2
    assert main(["corrugate", "--grid", "17", "--N", "8", "--ell", "1", "--out", obj]) == 2


def test_decompose_roundtrip(tmp_path, capsys):
    grid = Grid(9, 9)
    metric = tmp_path / "delta.csv"
    write_metric_csv(str(metric), MetricField.constant(0.25, 0.0, 0.25, grid.shape))
    out = tmp_path / "etas.csv"
    assert main(["decompose", "--metric", str(metric), "--out", str(out), "--k", "5"]) == 0
    assert "residual" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "x_idx,y_idx,eta_1,eta_2,eta_3,eta_4,eta_5"
    assert len(lines) == 1 + 81
    vals = [float(v) for v in lines[1].split(",")[2:]]
    assert all(v >= 0.0 for v in vals)


def test_decompose_missing_metric_is_usage_error(tmp_path, capsys):
    out = tmp_path / "etas.csv"
    code = main(["decompose", "--metric", str(tmp_path / "nope.csv"), "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


# 1,1,1,0,-0.5 is well-formed but indefinite, outside the defect field's domain
@pytest.mark.parametrize("bad_row", ["1,1,1,zero,1", "1,1,nan,0,1", "1,0,1,0,1", "1,1,1,0,-0.5"])
def test_decompose_malformed_metric_is_usage_error(tmp_path, capsys, bad_row):
    metric = tmp_path / "delta.csv"
    metric.write_text("x_idx,y_idx,E,F,G\n0,0,1,0,1\n0,1,1,0,1\n1,0,1,0,1\n%s\n" % bad_row)
    out = tmp_path / "etas.csv"
    assert main(["decompose", "--metric", str(metric), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "bounds --alpha-max 1 --k 5 --scenario nosuch --csv {out}",
        "bounds --alpha-max 0 --k 5 --csv {out}",
        "bounds --alpha-max 600 --k 5 --csv {out}",
        "bounds --alpha-max 65 --k 5 --csv {out}",
        "bounds --alpha-max 1 --k 2 --scenario flat-shrink --csv {out}",
        "bounds --alpha-max 1 --k 5 --scenario flat-shrink --grid 1 --csv {out}",
        "corrugate --grid 1 --N 16 --out {out}",
        "corrugate --grid 17 --N 0 --out {out}",
        "corrugate --grid 17 --eps -1 --out {out}",
        "corrugate --grid 17 --eps inf --out {out}",
        "corrugate --grid 17 --N 16 --ell nan,0 --out {out}",
        "corrugate --grid 17 --N 16 --ell inf,0 --out {out}",
        "corrugate --grid 17 --N 16 --ell 1,nan --out {out}",
        "corrugate --grid 17 --N 16 --ell 1e-300,0 --out {out}",
        "corrugate --grid 17 --N 16 --ell 1e200,1e200 --out {out}",
        "corrugate --grid 17 --N 16 --ell 1e300,0 --out {out}",
        "decompose --metric {metric} --k 2 --out {out}",
        "decompose --metric {metric} --k 13 --out {out}",
        "decompose --metric {metric} --threads 0 --out {out}",
    ],
)
def test_bad_option_value_is_usage_error(tmp_path, capsys, argv):
    """An option value outside the engine's domain exits 2 before any work."""
    metric = tmp_path / "delta.csv"
    write_metric_csv(str(metric), MetricField.constant(0.25, 0.0, 0.25, (5, 5)))
    out = tmp_path / "out"
    assert main(argv.format(out=out, metric=metric).split()) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.csv").exists()


def test_bounds_table(tmp_path, capsys):
    csv = tmp_path / "bounds.csv"
    assert main(["bounds", "--alpha-max", "1.0", "--k", "5", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "increment_constant" in out and "growth_constant" in out
    assert len(csv.read_text().splitlines()) == 5
    assert (
        main(["bounds", "--alpha-max", "1.0", "--k", "5", "--scenario", "flat-shrink", "--grid", "17"])
        == 0
    )
    assert "form_constant" in capsys.readouterr().out
    # without --scenario no dictionary is built, so k is only echoed
    assert main(["bounds", "--alpha-max", "1.0", "--k", "2"]) == 0
    # the amplitude cap itself is admissible, with finite constants
    assert main(["bounds", "--alpha-max", "64", "--k", "5"]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert np.isfinite(float(rows["increment_constant"]))
    assert np.isfinite(float(rows["growth_constant"]))


def test_run_with_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": 33, "stages": 2, "threads": 1}))
    outdir = tmp_path / "artifacts"
    assert main(["run", "--config", str(cfg), "--outdir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "final sup default" in out
    resolved = json.loads((outdir / "config.resolved.json").read_text())
    assert resolved["grid"] == 33
    assert resolved["stages"] == 2
    assert resolved["threads"] == 1
    assert set(resolved) == set(RunConfig.__dataclass_fields__)
    # echo is deterministic: sorted keys, two-space indent
    text = (outdir / "config.resolved.json").read_text()
    assert text == json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    # and depends on run.json alone, not on where the artifacts go
    elsewhere = tmp_path / "elsewhere" / "artifacts"
    assert main(["run", "--config", str(cfg), "--outdir", str(elsewhere)]) == 0
    echo = "config.resolved.json"
    assert (elsewhere / echo).read_bytes() == (outdir / echo).read_bytes()
    assert (outdir / "ledger.csv").exists()
    assert (outdir / "constants.csv").exists()
    assert (outdir / "stage_002.obj").exists()


def _child_env():
    """The environment of a child process that imports the same lorentz_corrugate as this test."""
    import_root = str(Path(lorentz_corrugate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (import_root, env.get("PYTHONPATH")) if p)
    return env


def test_run_needs_numpy_only(tmp_path):
    """`run` exits 0 with scipy unimportable: the runtime depends on numpy alone."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": 17, "stages": 2}))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from lorentz_corrugate.cli import main\n"
        "sys.exit(main(['run', '--config', %r, '--outdir', %r]))\n"
        % (str(cfg), str(tmp_path / "out"))
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_out_concurrent_futures():
    """Importing the CLI, and with it the package, loads no concurrent.futures:
    the lane runner starts plain threads."""
    code = "import sys, lorentz_corrugate.cli\nsys.exit('concurrent.futures' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": 33, "nonsense": 1}))
    assert main(["run", "--config", str(bad), "--outdir", str(tmp_path / "x")]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    # run never read quadrature_samples; the key is gone from run.json
    dropped = tmp_path / "dropped.json"
    dropped.write_text(json.dumps({"grid": 33, "quadrature_samples": 64}))
    assert main(["run", "--config", str(dropped), "--outdir", str(tmp_path / "q")]) == 2
    assert "unknown config keys: quadrature_samples" in capsys.readouterr().err
    # the ladder's cap is corrugation.LADDER_CAP, no longer a run.json key
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps({"grid": 33, "n_cap": 64}))
    assert main(["run", "--config", str(capped), "--outdir", str(tmp_path / "c")]) == 2
    assert "config error: unknown config keys: n_cap" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["run", "--config", str(notjson), "--outdir", str(tmp_path / "y")]) == 2
    gone = tmp_path / "missing.json"
    assert main(["run", "--config", str(gone), "--outdir", str(tmp_path / "z")]) == 2
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"grid": 1}))
    assert main(["run", "--config", str(small), "--outdir", str(tmp_path / "w")]) == 2
    typed = tmp_path / "typed.json"
    typed.write_text(json.dumps({"grid": "x"}))
    assert main(["run", "--config", str(typed), "--outdir", str(tmp_path / "v")]) == 2
    assert "expects int" in capsys.readouterr().err
    boolean = tmp_path / "boolean.json"
    boolean.write_text(json.dumps({"stages": True}))
    assert main(["run", "--config", str(boolean), "--outdir", str(tmp_path / "u")]) == 2
    # a top level that is not an object, and an eps Python's json reads but
    # no budget can be: an infinite eps would make every C0 and C1 check pass
    for text, message in (
        ("[]", "config must be a JSON object"),
        ("null", "config must be a JSON object"),
        ('"grid"', "config must be a JSON object"),
        ('{"grid": 17, "stages": 1, "eps": Infinity}', "eps must be positive and finite"),
    ):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        outdir = tmp_path / "doc"
        capsys.readouterr()
        assert main(["run", "--config", str(doc), "--outdir", str(outdir)]) == 2
        assert "config error: " + message in capsys.readouterr().err
        assert not outdir.exists()


def test_run_json_compatibility(tmp_path, capsys):
    # exactly the keys perfbench/workloads.py writes into its run.json
    keys = {
        "grid": 17,
        "stages": 1,
        "mode": "practical",
        "eps": 0.05,
        "dictionary_k": 5,
        "scenario": "flat-shrink",
    }
    RunConfig(**keys).validate()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(keys))
    assert main(["run", "--config", str(cfg), "--outdir", str(tmp_path / "ok")]) == 0
    # no threads key: the decomposition runs in one thread
    assert json.loads((tmp_path / "ok" / "config.resolved.json").read_text())["threads"] == 1
    # the dyadic schedule is the only one, and alpha_max_hint is gone
    for extra, message in (
        ({"mode": "theoretical"}, "mode must be 'practical'"),
        ({"alpha_max_hint": 2.0}, "unknown config keys: alpha_max_hint"),
    ):
        cfg.write_text(json.dumps(dict(keys, **extra)))
        outdir = tmp_path / "rejected"
        assert main(["run", "--config", str(cfg), "--outdir", str(outdir)]) == 2
        assert "config error: " + message in capsys.readouterr().err
        assert not outdir.exists()


def test_run_engine_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(corrugation, "LADDER_CAP", 64)
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"grid": 33, "stages": 3, "threads": 1}))
    assert main(["run", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "k, form, budget",
    [
        (5, "(-0.809, 0.588)", "5.625000e-02"),
        # stage 3 has ten active forms, nine of them residues: the budget
        # doubles four times, to the 0.9 cap of the 6.25e-02 stage bound
        (10, "(-0.951, 0.309)", "5.625000e-02"),
    ],
    ids=["k5", "k10"],
)
def test_run_ladder_failure_names_what_failed(tmp_path, capsys, k, form, budget):
    """strip-primitive 33x6 exhausts the ladder in stage 3 on the long-for-next
    test alone, at the 0.9 cap of the stage bound."""
    cfg = tmp_path / "strip.json"
    cfg.write_text(
        json.dumps({"scenario": "strip-primitive", "grid": 33, "stages": 6, "dictionary_k": k})
    )
    assert main(["run", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: stage 3: no corrugation number up to 1048576 met the bounds" in err
    assert "form %s at per-step budget %s;" % (form, budget) in err
    assert "N=1048576 fails on the " in err
    assert ": long-for-next min eigenvalue " in err
    assert "defect" not in err and "spacelike" not in err and "C0" not in err


def test_bad_env_threads_exit_code(tmp_path, monkeypatch):
    """A bad LORENTZ_CORRUGATE_THREADS is no setting: run and decompose exit 0 in one thread."""
    monkeypatch.setenv("LORENTZ_CORRUGATE_THREADS", "zero")
    cfg = tmp_path / "env.json"
    cfg.write_text(json.dumps({"grid": 17, "stages": 1}))
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--outdir", str(outdir)]) == 0
    assert json.loads((outdir / "config.resolved.json").read_text())["threads"] == 1
    metric = tmp_path / "delta.csv"
    write_metric_csv(str(metric), MetricField.constant(0.25, 0.0, 0.25, (5, 5)))
    assert main(["decompose", "--metric", str(metric), "--out", str(tmp_path / "etas.csv")]) == 0


def test_env_threads_override(tmp_path, monkeypatch):
    """LORENTZ_CORRUGATE_THREADS overrides nothing: run echoes the config's count, or 1."""
    monkeypatch.setenv("LORENTZ_CORRUGATE_THREADS", "3")
    cfg = tmp_path / "env.json"
    for keys, threads in (({}, 1), ({"threads": 2}, 2)):
        cfg.write_text(json.dumps(dict(keys, grid=17, stages=1)))
        outdir = tmp_path / ("out%d" % threads)
        assert main(["run", "--config", str(cfg), "--outdir", str(outdir)]) == 0
        assert json.loads((outdir / "config.resolved.json").read_text())["threads"] == threads


def test_verify_quick(capsys):
    code = main(["verify", "--level", "quick"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines and all(ln.startswith("PASS") for ln in lines)
    assert "checks passed" in out


def test_staged_run_claim_needs_step_records():
    inputs = Inputs("quick")
    check, _ = CLAIMS["staged-run-audits"]
    res = check("staged-run-audits", inputs)
    # the true worst margin is reported, not a floor of 0
    assert res.passed and res.measured < 0.0
    # a ledger without step records audits nothing, so it cannot pass
    for row in inputs.ledger.rows:
        row.step_records = []
    res = check("staged-run-audits", inputs)
    assert not res.passed
    assert res.measured == -np.inf
    assert "over 0 steps" in res.note


@pytest.mark.parametrize("flag", ["c1_bound_pass", "c1_bound_pass_euclid"])
def test_staged_run_claim_reads_c1_flags(flag):
    inputs = Inputs("quick")
    check, _ = CLAIMS["staged-run-audits"]
    assert check("staged-run-audits", inputs).passed
    setattr(inputs.ledger.rows[1], flag, False)
    assert not check("staged-run-audits", inputs).passed


def test_console_script_installed(tmp_path):
    """The declared `lorentz-corrugate` entry point runs as an executable.

    The wrapper is built from `[project.scripts]` the way pip writes one,
    so the check needs no install: it runs the package under test,
    installed or from a source checkout.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["lorentz-corrugate"]
    module, _, attr = entry.partition(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "lorentz-corrugate"
    script.write_text(
        "#!%s\nimport sys\nfrom %s import %s\nsys.exit(%s())\n"
        % (sys.executable, module, attr, attr)
    )
    script.chmod(0o755)
    exe = shutil.which("lorentz-corrugate", path=str(bindir))
    assert exe is not None
    env = _child_env()
    proc = subprocess.run([exe, "info"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "scenarios" in proc.stdout
    # a usage error reaches the shell as exit status 2
    proc = subprocess.run(
        [
            exe,
            "decompose",
            "--metric",
            str(tmp_path / "nope.csv"),
            "--out",
            str(tmp_path / "etas.csv"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
