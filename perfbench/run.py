"""Benchmark of the lorentz-corrugate engine, run from the repository root.

    python3 perfbench/run.py --workload canonical-257 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 0 --trace 1

With --trace 0 the run measures whole units of the workload (see
workloads.py) until --seconds have passed, at least one, with tracing off,
and reports the end-to-end metrics: the median wall and CPU seconds of a
unit, the median set-up time of several fresh processes, and the process's
peak RSS. With --trace 1 it runs one untraced unit and one traced unit and
reports the per-layer metrics of the traced one (layers.py) together with
the tracing overhead. Every unit's outputs are checked; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
(output checks) and `metrics`. The line before it is a JSON report with the
environment, the failed check names, determinism hashes and the
workload's curves; the same report, with the spans of a traced run, is
written under .perfbench/ in the repository root.

--smoke shrinks every grid to 33x33 (and the strip ladder to N <= 256) so
that all code paths and metrics run in seconds; --workload all runs each
workload in its own process and prints a table.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from envinfo import environment
from layers import layer_metrics, namespaces, probes_per_step, targets
from tracer import Tracer, per_call_cost

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
NAMES = ("canonical-257", "strip-ladder", "artifacts-513")
SETUP_REPEATS = 5
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def setup(name, seed, smoke, setup_dir):
    """Import the engine, build the workload's inputs; returns (lc, workload, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import lorentz_corrugate as lc
    import lorentz_corrugate.cli  # noqa: F401  (the workloads enter through the CLI)

    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, smoke)
    wl.setup(lc, setup_dir)
    return lc, wl, time.perf_counter() - t0


def setup_samples(args):
    """Set-up seconds measured in SETUP_REPEATS fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def timed_unit(wl, workdir):
    """One unit: (outputs, wall s, cpu s, bytes written), then its checks."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    out = wl.unit(str(workdir))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    written = dir_bytes(workdir)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["digest"] = wl.digest(out)
    checks = wl.checks(out)
    return {"out": out, "wall_s": wall, "cpu_s": cpu, "bytes_written": written,
            "peak_rss_mib": peak, "checks": checks}


def repeat_check(units):
    """Repeats of one unit inside a run must give identical output hashes."""
    if len(units) < 2:
        return []
    digests = {u["out"]["digest"] for u in units}
    return [("repeated units give identical hashes", len(digests) == 1)]


def measure_untraced(wl, work, seconds, samples):
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(timed_unit(wl, work / "unit"))
    values = {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "setup_s": statistics.median(samples),
        # Later units see the heap the earlier ones left behind, so the
        # peak is taken once, after the first unit.
        "peak_rss_mib": units[0]["peak_rss_mib"],
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return units, metrics, []


def measure_traced(lc, wl, work):
    """One untraced unit, then set-up and one unit with every target wrapped."""
    units = [timed_unit(wl, work / "unit")]
    with Tracer() as tracer:
        tracer.install(targets(lc), namespaces(lc))
        wl.setup(lc, str(work))
        units.append(timed_unit(wl, work / "unit"))
    overhead = units[1]["wall_s"] - units[0]["wall_s"]
    metrics = layer_metrics(tracer.spans, units[1]["bytes_written"], overhead, per_call_cost())
    return units, metrics, tracer.spans


def run_workload(args):
    work = OUT_DIR / ("work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        samples = [] if args.trace else setup_samples(args)
        lc, wl, setup_inproc = setup(args.workload, args.seed, args.smoke, str(work))
        if args.trace:
            units, metrics, spans = measure_traced(lc, wl, work)
        else:
            units, metrics, spans = measure_untraced(wl, work, args.seconds, samples)
        checks = [c for u in units for c in u["checks"]] + repeat_check(units)
        failed = [name for name, ok in checks if not ok]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "env": environment(ROOT),
            "units": [{"wall_s": u["wall_s"], "cpu_s": u["cpu_s"],
                       "bytes_written": u["bytes_written"]} for u in units],
            "setup_samples_s": samples,
            "setup_in_process_s": setup_inproc,
            "checks_attempted": len(checks),
            "failed_checks": failed,
            "failed_ratio": len(failed) / len(checks),
            **wl.report([u["out"] for u in units]),
        }
        if spans:
            report["probes_per_step"] = probes_per_step(spans)
        result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
                  "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-smoke" if args.smoke else "")
    with open(OUT_DIR / (tag + ".json"), "w") as fh:
        json.dump({"report": report, "result": result,
                   "spans": [s.as_dict() for s in spans]}, fh)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; prints every metric with its unit."""
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        rows.append((name, result))
    ok = True
    for name, result in rows:
        ok = ok and result["correct"]
        ratio = result["failed"] / result["attempted"]
        print("%s: correct=%s checks=%d failed_ratio=%.6g ratio"
              % (name, result["correct"], result["attempted"], ratio))
        for metric, v in result["metrics"].items():
            print("  %-38s %.6g %s" % (metric, v["value"], v["unit"]))
    return 0 if ok else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="33x33 grids, runs in seconds")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "lorentz_corrugate").is_dir():
        print("error: no engine source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_probe:
        probe_dir = OUT_DIR / ("probe-%d" % os.getpid())
        os.makedirs(probe_dir)
        try:
            seconds = setup(args.workload, args.seed, args.smoke, str(probe_dir))[2]
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
