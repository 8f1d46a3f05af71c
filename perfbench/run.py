"""grmahler benchmark runner.

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a grmahler checkout.  Each workload run:

1. builds the workload's request list from the seed and computes every
   reference answer (perfbench/reference.py) in this process;
2. measures set-up: SETUP_SAMPLES fresh interpreters each time
   `import grmahler.cli`; setup_s is the median of their import times;
3. starts one fresh child process (perfbench/child.py) that runs the
   request list (over 100 distinct requests) in-process, closed loop, one
   client, repeating it until --seconds have passed and at least MIN_PASSES
   passes have run;
4. checks every response against its reference, and takes each request's
   median latency over the passes: wall_s is their sum, latency_p50_s and
   latency_p90_s their percentiles;
5. with --all and --trace 0, runs each workload's known-defect probes in
   another child and reports them apart from the figures;
6. prints a report, writes .perfbench/result-*.json, and prints one JSON
   line: {"correct", "attempted", "failed", "metrics"}.

Every time in the metrics is stated at the reference host speed: a measured
time t is reported as t * REFERENCE_UNIT_S / u, where u is the time of the
child's fixed host_unit() loop measured around it.  The speed of a shared
host wanders by up to 1.8x over minutes, and the same wander shows in the
loop, so the ratio cancels it; the report and the result file also give the
raw measured times.

--trace 0 reports end-to-end metrics.  --trace 1 alternates untraced passes
with passes traced around every layer (perfbench/tracing.py) and reports
per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 9
MIN_PASSES = 3
DEADLINE_S = 10.0  # per request: every README example should answer in seconds
RUN_BUDGET_S = 170.0  # a run must end within 180 s
# host_unit() time of the reference host: times are reported as if the host
# ran at the speed at which the loop takes this long
REFERENCE_UNIT_S = 0.0025

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "terms": "count", "order_sum": "count",
                   "errors": "count", "calls_per_request": "count", "overhead_s": "s"}

PER_LAYER = (
    "cli.self_s", "cli.render.self_s", "cli.errors",
    "parsing.self_s", "parsing.calls", "parsing.errors",
    "groups.multiply.calls", "groups.elements.calls", "groups.errors",
    "ring.self_s", "ring.power.self_s", "ring.power.calls", "ring.power.terms",
    "ring.mul.self_s", "ring.mul.calls", "ring.errors",
    "mahler.self_s", "mahler.series.self_s", "mahler.u.self_s", "mahler.general.self_s",
    "mahler.finite.self_s", "mahler.torus.self_s", "mahler.errors",
    "spectra.self_s", "spectra.adjacency.self_s", "spectra.adjacency.order_sum",
    "spectra.eigen.self_s", "spectra.eigen.calls", "spectra.det_float.self_s",
    "spectra.characters.self_s", "spectra.det_exact.self_s", "spectra.det_exact.calls",
    "spectra.errors",
    "genfun.self_s", "genfun.errors",
    "experiments.self_s", "experiments.errors",
    "spectra.det_exact.calls_per_request", "spectra.eigen.calls_per_request",
    "trace.overhead_s",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args, timeout):
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(SRC), *args],
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process exceeded {timeout:.0f} s and was killed") from None
    if proc.returncode != 0:
        raise BenchError(f"child process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return proc.stdout


def provenance(workload, seed, trace) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "grmahler").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seed_role": {workloads.DEV_SEED: "dev",
                      workloads.HELDOUT_SEED: "held-out"}.get(seed, "other"),
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": commit or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "client": "closed loop, 1 client, in-process grmahler.cli.main, no threads",
        "deadline_s": DEADLINE_S,
    }


def _run_requests(requests, refs, check, seconds, min_passes, trace, tag, deadline):
    job = {
        "requests": [list(r.argv) for r in requests],
        "tags": [list(r.tags) for r in requests],
        "seconds": seconds,
        "min_passes": min_passes,
        "hard_stop_s": seconds + 60,  # ends a slow run while it can still report
        "deadline_s": DEADLINE_S,
        "trace": trace,
        "spans_path": str(OUT / f"spans-{tag}.jsonl"),
        "records_path": str(OUT / f"responses-{tag}.jsonl"),
    }
    job_path, result_path = OUT / f"job-{tag}.json", OUT / f"child-{tag}.json"
    job_path.write_text(json.dumps(job))
    _child([str(job_path), str(result_path)], timeout=max(deadline - time.perf_counter(), 1.0))
    result = json.loads(result_path.read_text())
    records_path = Path(job["records_path"])
    with open(records_path) as fh:
        result["records"] = [json.loads(line) for line in fh]
    records_path.unlink()  # failures are kept in the result file; the bulk is not
    failures = []
    for rec in result["records"]:
        req = requests[rec["index"]]
        if rec["status"] != "ok":
            reason = (f"missed the {DEADLINE_S:g} s deadline after {rec['seconds']:.3f} s"
                      if rec["status"] == "deadline" else f"crashed: {rec['stderr'][-300:]}")
        else:
            reason = check(req, rec["exit"], rec["stdout"], rec["stderr"], refs.get(req.check))
        if reason:
            failures.append({"argv": list(req.argv), "pass": rec["pass"], "reason": reason,
                             "seconds": rec["seconds"]})
    return result, failures


def run_workload(workload, seed, seconds, trace, with_probes) -> dict:
    import reference  # imports grmahler, so only once the sources are known to exist

    t_start = time.perf_counter()
    deadline = t_start + RUN_BUDGET_S
    prov = provenance(workload, seed, trace)
    requests, probes = workloads.build(workload, seed)
    refs = reference.References()
    for r in list(requests) + list(probes):
        refs.get(r.check)
    setups = [json.loads(_child(["--import-only"], timeout=60)) for _ in range(SETUP_SAMPLES)]
    tag = f"{workload}-seed{seed}-trace{trace}"
    result, failures = _run_requests(requests, refs, reference.check, seconds,
                                     MIN_PASSES, trace, tag, deadline)
    records = result["records"]
    latencies = _latencies(records, traced=False)
    out = {
        "provenance": prov,
        "requests_per_pass": len(requests),
        "passes": len(result["walls"]) + len(result.get("traced_walls", ())),
        "untraced_passes": len(result["walls"]),
        "median_pass_s": statistics.median(result["walls"]),
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:50],
        "setup_samples": setups,
        "child_setup": result["setup"],
        "raw_setup_s": statistics.median(x["setup_s"] for x in setups),
        "median_unit_s": statistics.median(r["unit_s"] for r in records),
    }
    if trace:
        layers = result["layers"]
        layers["trace.overhead_s"] = sum(_latencies(records, traced=True)) - sum(latencies)
        out["metrics"] = {k: (layers[k], PER_LAYER_UNITS[k.rsplit(".", 1)[1]]) for k in PER_LAYER}
        out["bases"] = {k: layers[k + ".base"] for k in ("spectra.det_exact.calls_per_request",
                                                        "spectra.eigen.calls_per_request")}
        out["traced_passes"] = len(result["traced_walls"])
        out["layer_share"] = _layer_share(layers)
    else:
        values = {
            "setup_s": statistics.median(at_reference(x["setup_s"], x["unit_s"])
                                         for x in setups),
            "wall_s": sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        out["metrics"] = {k: (v, END_TO_END[k]) for k, v in values.items()}
        out["failed_frac"] = len(failures) / len(records)
        if probes and with_probes:
            _, probe_failures = _run_requests(probes, refs, reference.check, 0.0, 0, 0,
                                             tag + "-probes", deadline)
            out["probes"] = {"attempted": len(probes), "failed": len(probe_failures),
                             "failures": probe_failures}
    out["elapsed_s"] = time.perf_counter() - t_start
    (OUT / f"result-{tag}.json").write_text(json.dumps(out, indent=1))
    return out


def at_reference(seconds, unit_s) -> float:
    """A time measured while host_unit() took unit_s, at the reference speed."""
    return seconds * REFERENCE_UNIT_S / unit_s


def _latencies(records, traced) -> list:
    """Each request's latency at the reference speed: the median over the
    passes that were (not) traced.  The host speed for a request is the mean
    of the host_unit() times right before it and right after it (before the
    next request of its pass)."""
    units = {(r["pass"], r["index"]): r["unit_s"] for r in records}
    by_index = {}
    for r in records:
        if r["traced"] == traced:
            before = r["unit_s"]
            unit = (before + units.get((r["pass"], r["index"] + 1), before)) / 2
            by_index.setdefault(r["index"], []).append(at_reference(r["seconds"], unit))
    return [statistics.median(v) for v in by_index.values()]


def _layer_share(layers) -> dict:
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    return {layer: layers[f"{layer}.self_s"] / total for layer in LAYERS}


def report(workload, seed, trace, out):
    p = print
    p(f"== {workload} (seed {seed}, trace {trace}): closed loop, 1 client, "
      f"in-process grmahler.cli.main")
    p(f"   {out['requests_per_pass']} requests per pass x {out['passes']} passes; "
      f"{out['attempted']} responses checked, {out['failed']} failed; "
      f"deadline {DEADLINE_S:g} s per request")
    if trace:
        p(f"   per-layer figures per pass, averaged over {out['traced_passes']} traced passes")
        for name, (value, unit) in out["metrics"].items():
            base = out["bases"].get(name)
            note = f"   (base: {base:g} requests)" if base is not None else ""
            p(f"   {name:40s} {value:14.6g} {unit}{note}")
        p("   self-time share by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(out["layer_share"].items(), key=lambda kv: -kv[1])))
    else:
        m = out["metrics"]
        n, k = out["requests_per_pass"], out["untraced_passes"]
        p(f"   times at the reference speed (host_unit {REFERENCE_UNIT_S * 1e3:g} ms; "
          f"here its median was {out['median_unit_s'] * 1e3:.3f} ms); each request's "
          f"latency is its median of {k} passes")
        p(f"   {'setup_s':16s} {m['setup_s'][0]:10.4f} s   median of {SETUP_SAMPLES} fresh "
          f"imports of grmahler.cli (measured {out['raw_setup_s']:.4f} s)")
        p(f"   {'wall_s':16s} {m['wall_s'][0]:10.4f} s   one pass (measured: median pass "
          f"{out['median_pass_s']:.4f} s)")
        p(f"   {'latency_p50_s':16s} {m['latency_p50_s'][0]:10.4f} s   ({n} requests)")
        p(f"   {'latency_p90_s':16s} {m['latency_p90_s'][0]:10.4f} s   ({n} requests, "
          f"{n - int(0.9 * n)} beyond p90)")
        p(f"   {'failed_frac':16s} {out['failed_frac']:10.4f} fraction of responses "
          f"({out['failed']} of {out['attempted']})")
        p(f"   {'peak_rss_mb':16s} {m['peak_rss_mb'][0]:10.1f} MB  peak RSS of the child")
        if "probes" in out:
            probes = out["probes"]
            p(f"   known-defect probes (outside the figures): {probes['failed']} of "
              f"{probes['attempted']} failed")
            for f in probes["failures"]:
                p(f"     FAIL {' '.join(f['argv'])}: {f['reason']}")
    for f in out["failures"][:10]:
        p(f"   FAIL {' '.join(f['argv'])}: {f['reason']}")
    p("   provenance: " + json.dumps(out["provenance"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="grmahler benchmark")
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=workloads.WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "grmahler" / "cli.py").is_file():
        print(f"perfbench: no grmahler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.all else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         with_probes=args.all)
            report(name, args.seed, args.trace, results[name])
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    metrics = {}
    for name, out in results.items():
        prefix = f"{name}." if args.all else ""
        for key, (value, unit) in out["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    attempted = sum(o["attempted"] for o in results.values())
    failed = sum(o["failed"] for o in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
