"""The benchmark client: one process per workload run, one request at a time.

    python3 perfbench/child.py <src dir> <job.json> <result.json>   (job from run.py)
    python3 perfbench/child.py <src dir> --import-only

It imports `grmahler.cli` first and times that import (the set-up every CLI
invocation pays), then calls `grmahler.cli.main(argv)` in-process for each
request of the job, with stdout and stderr captured, in a closed loop with
one client and no threads.  Each request runs under a deadline from
`signal.setitimer`; a request that misses it is recorded, not fatal.

Right before each request, and around the import, it times `host_unit()`, a
fixed loop that shares no code with the library: how fast the host runs
at that moment.  run.py uses it to state each time at a reference speed.
"""
from __future__ import annotations

import sys
import time


def host_unit() -> float:
    """Seconds the host takes right now for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return time.perf_counter() - t0


if __name__ == "__main__":
    _UNITS = [host_unit() for _ in range(3)]
    # timed before anything else is imported, so the figure is the library's own
    _T0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import grmahler.cli

    SETUP_S = time.perf_counter() - _T0
    _UNITS += [host_unit() for _ in range(3)]

import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import tracing  # noqa: E402  (perfbench/ is on sys.path as the script's directory)


def _library_caches():
    """functools caches in the library: a fresh CLI process starts with them empty."""
    return [value for name, mod in list(sys.modules.items())
            if name == "grmahler" or name.startswith("grmahler.")
            for value in vars(mod).values()
            if isinstance(value, functools._lru_cache_wrapper)]


def _on_alarm(signum, frame):
    raise tracing.Deadline()


def run_request(main, argv, deadline_s, caches=()):
    """Call main(argv) once: (status, exit code, stdout, stderr, seconds),
    status being ok | deadline | crash.  Needs SIGALRM routed to _on_alarm."""
    for c in caches:
        c.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    status, code = "ok", None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a crash is a failed request, not a failed run
            status = "crash"
            err.write(f"{type(e).__name__}: {e}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except tracing.Deadline:  # also when the timer fires just before it is disarmed
        status = "deadline"
    elapsed = time.perf_counter() - t0
    return status, code, out.getvalue(), err.getvalue(), elapsed


def run_passes(job, tracer, seconds, min_passes, records, caches, first_pass=0):
    """Repeat the request list until `seconds` have passed and at least
    `min_passes` passes (and at least one) have run; passes are numbered
    from `first_pass`."""
    walls = []
    start = time.perf_counter()
    while len(walls) < max(min_passes, 1) or time.perf_counter() - start < seconds:
        if walls and time.perf_counter() - start > job["hard_stop_s"]:
            break
        gc.collect()
        t0 = time.perf_counter()
        n = first_pass + len(walls)
        for i, argv in enumerate(job["requests"]):
            if tracer is not None:
                tracer.request = f"{n}:{i}"
            unit = host_unit()
            status, code, out, err, dt = run_request(
                sys.modules["grmahler.cli"].main, argv, job["deadline_s"], caches)
            if tracer is not None:
                tracer.reset_stack()
            records.write(json.dumps({"pass": n, "index": i, "status": status,
                                      "exit": code, "stdout": out, "stderr": err[-2000:],
                                      "seconds": dt, "unit_s": unit,
                                      "traced": tracer is not None}) + "\n")
        walls.append(time.perf_counter() - t0)
    return walls


def main():
    setup = {"setup_s": SETUP_S, "unit_s": statistics.median(_UNITS)}
    if sys.argv[2] == "--import-only":
        print(json.dumps(setup))
        return
    with open(sys.argv[2]) as fh:
        job = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)
    caches = _library_caches()
    result = {"setup": setup}
    # responses go to disk as they come, so they do not count in peak_rss_mb
    with open(job["records_path"], "w") as records:
        _run(job, result, records, caches)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(sys.argv[3], "w") as fh:
        json.dump(result, fh)


def _run(job, result, records, caches):
    if job["trace"]:
        # untraced and traced passes alternate, so a drift in machine speed
        # falls on both sides of the overhead
        tracer = tracing.Tracer()
        result["walls"], result["traced_walls"] = [], []
        start = time.perf_counter()
        while not result["traced_walls"] or time.perf_counter() - start < job["seconds"]:
            n = 2 * len(result["walls"])
            result["walls"] += run_passes(job, None, 0, 1, records, caches, n)
            tracer.install()
            try:
                result["traced_walls"] += run_passes(job, tracer, 0, 1, records, caches, n + 1)
            finally:
                tracer.uninstall()
        result["layers"] = layer_metrics(tracer, job, len(result["traced_walls"]))
        tracer.write_jsonl(job["spans_path"])
    else:
        result["walls"] = run_passes(job, None, job["seconds"], job["min_passes"], records,
                                     caches)


def layer_metrics(tracer, job, passes) -> dict:
    """Per-pass per-layer figures from the traced passes."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    by_name, calls, by_layer = {}, {}, {}
    for s, st in zip(spans, selfs):
        by_name[s[tracing.NAME]] = by_name.get(s[tracing.NAME], 0.0) + st
        calls[s[tracing.NAME]] = calls.get(s[tracing.NAME], 0) + 1
        by_layer[s[tracing.LAYER]] = by_layer.get(s[tracing.LAYER], 0.0) + st
    out = {f"{layer}.self_s": by_layer.get(layer, 0.0) / passes for layer in tracing.LAYERS}
    for name in ("cli.render", "ring.power", "ring.mul", "mahler.series", "mahler.u",
                 "mahler.general", "mahler.finite", "mahler.torus", "spectra.adjacency",
                 "spectra.eigen", "spectra.det_float", "spectra.characters",
                 "spectra.det_exact"):
        out[f"{name}.self_s"] = by_name.get(name, 0.0) / passes
    for name in ("ring.power", "ring.mul", "spectra.eigen", "spectra.det_exact"):
        out[f"{name}.calls"] = calls.get(name, 0) / passes
    out["parsing.calls"] = sum(v for k, v in calls.items() if k.startswith("parsing.")) / passes
    for name in ("groups.multiply", "groups.elements"):
        out[f"{name}.calls"] = tracer.counts.get(name, [0])[0] / passes
    for key, value in tracer.extra.items():
        out[key] = value / passes
    for layer, n in tracer.errors.items():
        out[f"{layer}.errors"] = n / passes
    for metric, span, tag in (("spectra.det_exact.calls_per_request", "spectra.det_exact",
                               "lambda_free_finite"),
                              ("spectra.eigen.calls_per_request", "spectra.eigen",
                               "finite_lambda")):
        tagged = {i for i, tags in enumerate(job["tags"]) if tag in tags}
        n_req = passes * len(tagged)
        hits = sum(1 for s in spans if s[tracing.NAME] == span
                   and int(s[tracing.REQUEST].split(":")[1]) in tagged)
        out[metric] = hits / n_req if n_req else 0.0
        out[metric + ".base"] = n_req
    return out


if __name__ == "__main__":
    main()
