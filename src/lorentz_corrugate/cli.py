"""Command-line surface: bounds, decompose, corrugate, run, verify, info."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .bounds import ALPHA_CAP, compute_constants
from .corrugation import apply_corrugation, prepare_step, select_corrugation_number
from .decomp import MAX_FORMS, build_dictionary, decompose
from .errors import ConfigError, EngineError, NotPSD
from .fields import (
    FLOAT_FMT,
    Grid,
    LinearForm,
    export_obj,
    isometric_default,
    read_metric_csv,
    read_scalar_csv,
    write_grid_csv,
    write_table,
)
from .scenarios import SCENARIOS, flat_inclusion, scenario, strip_eta_field
from .scheduler import run_nash_kuiper
from .verify import run_checks


def _need(ok, message):
    if not ok:
        raise ConfigError(message)


def _need_scenario(name):
    registered = ", ".join(sorted(SCENARIOS))
    _need(name in SCENARIOS, "scenario %r not registered (%s)" % (name, registered))


@dataclass
class RunConfig:
    """Keys of run.json; every field is echoed into config.resolved.json."""

    grid: int = 257
    stages: int = 6
    mode: str = "practical"  # the dyadic schedule, the only one
    eps: float = 0.05
    dictionary_k: int = 5
    scenario: str = "flat-shrink"
    threads: int = 0

    def validate(self):
        _need(self.grid >= 2, "grid must be at least 2")
        _need(self.stages >= 1, "stages must be positive")
        _need(self.mode == "practical", "mode must be 'practical', the only schedule")
        _need(math.isfinite(self.eps) and self.eps > 0.0, "eps must be positive and finite")
        _need(3 <= self.dictionary_k <= MAX_FORMS, "dictionary_k must be in [3, %d]" % MAX_FORMS)
        _need_scenario(self.scenario)
        _need(self.threads >= 0, "threads must be nonnegative")

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc) from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc) from None
        _need(isinstance(raw, dict), "config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        kinds = {"int": int, "float": (int, float), "str": str}
        for key, value in raw.items():
            want = cls.__dataclass_fields__[key].type
            if isinstance(value, bool) or not isinstance(value, kinds[want]):
                raise ConfigError("config key %r expects %s" % (key, want))
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def resolved_threads(self):
        return self.threads or 1


def _parse_ell(text):
    try:
        a, b = (float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError("--ell expects 'a,b' with two floats") from None
    # the frame squares the components: NaN, inf, zero and a^2 + b^2 that
    # underflows to 0 or overflows to inf all fail this one test
    _need(0.0 < a * a + b * b < math.inf, "--ell needs finite a, b with 0 < a^2 + b^2 < inf")
    return LinearForm(a, b)


def _check_options(args):
    """Reject option values outside the engine's domain, as RunConfig.validate does.

    Runs before any command reads or writes a file, so a bad value exits 2.
    """
    if args.command == "bounds":
        _need(0.0 < args.alpha_max <= ALPHA_CAP, "--alpha-max must be in (0, %g]" % ALPHA_CAP)
        if args.scenario is not None:
            _need_scenario(args.scenario)
            _need(3 <= args.k <= MAX_FORMS, "--k must be in [3, %d]" % MAX_FORMS)
            _need(args.grid >= 2, "--grid must be at least 2")
    elif args.command == "decompose":
        _need(3 <= args.k <= MAX_FORMS, "--k must be in [3, %d]" % MAX_FORMS)
        _need(args.threads is None or args.threads >= 1, "--threads must be at least 1")
    elif args.command == "corrugate":
        _need((args.N is None) != (args.eps is None), "give exactly one of --N or --eps")
        _need(args.grid >= 2, "--grid must be at least 2")
        _need(args.N is None or args.N >= 1, "--N must be positive")
        _need(
            args.eps is None or (math.isfinite(args.eps) and args.eps > 0.0),
            "--eps must be positive and finite",
        )


def _cmd_bounds(args):
    measured = {}
    if args.scenario is not None:
        f0, g = scenario(args.scenario).build(Grid(args.grid, args.grid))
        dec = decompose(isometric_default(f0, g), build_dictionary(args.k))
        measured = dict(decomposition=dec, f0=f0, g=g)
    rows = compute_constants(args.alpha_max, args.k, **measured)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print("%-*s  %s" % (width, name, FLOAT_FMT % value))
    if args.csv:
        write_table(args.csv, ("name", "value"), rows)
    return 0


def _cmd_decompose(args):
    delta = read_metric_csv(args.metric)
    dic = build_dictionary(args.k)
    try:
        dec = decompose(delta, dic, threads=args.threads)
    except NotPSD as exc:
        # decompose raises NotPSD only for its input: an indefinite defect CSV
        raise ConfigError("%s: %s" % (args.metric, exc)) from None
    nx, ny = delta.shape
    write_grid_csv(args.out, {"eta_%d" % (q + 1): eta for q, eta in enumerate(dec.etas)})
    print("decomposed %dx%d field over %d forms, residual %.3e" % (nx, ny, dic.k, dec.residual))
    return 0


def _cmd_corrugate(args):
    gr = Grid(args.grid, args.grid)
    f = flat_inclusion(gr)
    eta = read_scalar_csv(args.eta_file) if args.eta_file else strip_eta_field(gr)
    if eta.shape != gr.shape:
        raise ConfigError("eta field shape %s does not match --grid %d" % (eta.shape, args.grid))
    if eta.min() < 0.0:
        raise ConfigError("%s: eta must be nonnegative, min %.3e" % (args.eta_file, eta.min()))
    ell = _parse_ell(args.ell)
    if args.N is not None:
        out, rec = apply_corrugation(prepare_step(f, eta, ell), args.N)
    else:
        out, rec = select_corrugation_number(f, eta, ell, args.eps)
    export_obj(out, args.out)
    print(
        "corrugated at N=%d: sup default %.3e, alpha_max %.6f, C0 shift %.3e"
        % (rec.N, rec.sup_default, rec.alpha_max, rec.c0_shift)
    )
    if args.record:
        _write_record(args.record, rec)
    return 0


def _write_record(path, rec):
    # the record's fields in declaration order, then its audits by name
    rows = [(fld.name, getattr(rec, fld.name)) for fld in fields(rec) if fld.name != "audits"]
    rows += sorted(rec.audits.items())
    write_table(path, ("name", "value"), rows)


def _cmd_run(args):
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    gr = Grid(cfg.grid, cfg.grid)
    sc = scenario(cfg.scenario)
    f0, g = sc.build(gr)
    os.makedirs(args.outdir, exist_ok=True)
    resolved = asdict(cfg)
    resolved["threads"] = cfg.resolved_threads()
    with open(os.path.join(args.outdir, "config.resolved.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    final, ledger = run_nash_kuiper(
        f0,
        g,
        stages=cfg.stages,
        eps=cfg.eps,
        dictionary=build_dictionary(cfg.dictionary_k),
        outdir=args.outdir,
        threads=resolved["threads"],
    )
    s = ledger.summary
    print("stages: %d, grid %dx%d" % (cfg.stages, cfg.grid, cfg.grid))
    print("final sup default: %.6e (initial %.6e)" % (s["final_sup_default"], s["initial_sup_default"]))
    print("C0 drift: %.6e of budget %.6e" % (s["c0_total"], s["c0_budget_total"]))
    print("artifacts in %s" % args.outdir)
    return 0


def _cmd_verify(args):
    results = run_checks(level=args.level)
    failed = 0
    for res in results:
        print(res.line())
        failed += 0 if res.passed else 1
    print("%d/%d checks passed" % (len(results) - failed, len(results)))
    return 0 if failed == 0 else 1


def _cmd_info(args):
    print("lorentz-corrugate %s" % __version__)
    print("scenarios:")
    for name in sorted(SCENARIOS):
        print("  %-16s %s" % (name, SCENARIOS[name].description))
    d = RunConfig()
    print(
        "defaults: grid %d, stages %d, mode %s, eps %g, dictionary k=%d"
        % (d.grid, d.stages, d.mode, d.eps, d.dictionary_k)
    )
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="lorentz-corrugate", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="print the constants table")
    b.add_argument(
        "--alpha-max", type=float, required=True, help="amplitude cap, in (0, %g]" % ALPHA_CAP
    )
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--csv", default=None)
    b.add_argument("--scenario", default=None, help="also measure c and T on this scenario")
    b.add_argument("--grid", type=int, default=65)
    b.set_defaults(fn=_cmd_bounds)

    d = sub.add_parser("decompose", help="decompose a metric CSV over the dictionary")
    d.add_argument("--metric", required=True)
    d.add_argument("--k", type=int, default=5)
    d.add_argument("--out", required=True)
    d.add_argument("--threads", type=int, default=None)
    d.set_defaults(fn=_cmd_decompose)

    c = sub.add_parser("corrugate", help="single corrugation step on the flat plane")
    c.add_argument("--eta-file", default=None)
    c.add_argument("--ell", default="1,0")
    c.add_argument("--N", type=int, default=None)
    c.add_argument("--eps", type=float, default=None)
    c.add_argument("--grid", type=int, default=257)
    c.add_argument("--out", required=True)
    c.add_argument("--record", default=None)
    c.set_defaults(fn=_cmd_corrugate)

    r = sub.add_parser("run", help="staged run toward the target metric")
    r.add_argument("--config", default=None)
    r.add_argument("--outdir", required=True)
    r.set_defaults(fn=_cmd_run)

    v = sub.add_parser("verify", help="run the audit suite")
    v.add_argument("--level", choices=("quick", "full"), default="quick")
    v.set_defaults(fn=_cmd_verify)

    i = sub.add_parser("info", help="version, scenarios and defaults")
    i.set_defaults(fn=_cmd_info)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.fn(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        # unreadable inputs and unwritable outputs are usage errors
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except EngineError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
