"""Self-tests of the benchmark:  python3 -m pytest perfbench/test_perfbench.py"""
from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_argv():
    for name in workloads.WORKLOADS:
        a = [r.argv for r in workloads.build(name, 3)[0]]
        b = [r.argv for r in workloads.build(name, 3)[0]]
        c = [r.argv for r in workloads.build(name, 4)[0]]
        assert a == b
        assert a != c


def _response(req, refs):
    """A correct response built from the reference answer."""
    ref = refs.get(req.check)
    obj = {"command": req.argv[0], "value": ref["value"][0], "error_bound": 0, "extra": {}}
    return json.dumps(obj)


def test_checker_rejects_bad_responses():
    refs = reference.References()
    req = workloads.measure_finite(random.Random(0), ("D", 4), workloads.rot_refl(1, 1), 0.2)
    good = _response(req, refs)
    assert reference.check(req, 0, good, "", refs.get(req.check)) is None
    wrong = json.loads(good)
    wrong["value"] += 1e-6
    assert reference.check(req, 0, json.dumps(wrong), "", refs.get(req.check))
    assert reference.check(req, 0, "value = 0.1", "", refs.get(req.check))
    assert reference.check(req, 0, good.replace(str(json.loads(good)["value"]), "NaN"), "",
                           refs.get(req.check))
    assert reference.check(req, 3, good, "", refs.get(req.check))
    mistake = workloads._mistake(["measure", "--group", "Q8", "--poly", "x"], 2, "ParseError")
    err = '{"error": {"type": "ParseError", "message": "bad"}}'
    assert reference.check(mistake, 2, "", err, {}) is None
    assert reference.check(mistake, 0, "", err, {})
    assert reference.check(mistake, 2, "", "usage: grmahler ...", {})


def test_reference_routes_agree_on_a_known_constant():
    # det B = 81 for 1 + x + y over Z/3 x Z/2 (the README example)
    ref = reference.expected(workloads.README[0].check)
    assert abs(ref["determinant"] - 81) < 1e-9
    # a walk count computed two ways: tree closed form and the distance count
    assert reference.family_counts(("F", 2), 1, 8) == reference.tree_counts(4, 8)


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3]
    spans = [
        ["root", 0.0, 10.0, None, "r", "cli"],
        ["a", 1.0, 4.0, 0, "r", "ring"],
        ["b", 3.0, 6.0, 0, "r", "ring"],
        ["c", 8.0, 9.0, 0, "r", "spectra"],
        ["d", 2.0, 3.0, 1, "r", "groups"],
    ]
    assert tracing.self_times(spans) == [10 - 5 - 1, 3 - 1, 3, 1, 1]


def test_deadline_miss_is_recorded_not_fatal():
    def slow_main(argv):
        while True:
            pass

    def fast_main(argv):
        print('{"ok": 1}')
        return 0

    old = signal.signal(signal.SIGALRM, child._on_alarm)
    try:
        status, code, _, _, seconds = child.run_request(slow_main, ["x"], 0.05)
        assert status == "deadline" and code is None and 0.04 < seconds < 5
        status, code, out, _, _ = child.run_request(fast_main, ["x"], 0.05)
        assert (status, code, out.strip()) == ("ok", 0, '{"ok": 1}')
        time.sleep(0.1)  # the disarmed timer must not fire later
    finally:
        signal.signal(signal.SIGALRM, old)


def test_tracer_patches_from_imports_and_restores():
    import grmahler.cli as cli
    import grmahler.parsing as parsing

    original = cli.parse_group
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.parse_group is not original
        assert cli.parse_group is parsing.parse_group
        tracer.request = "0:0"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["measure", "--group", "D3", "--poly", "3+x+y"])
    finally:
        tracer.uninstall()
    assert cli.parse_group is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "cli.main" and "parsing.parse_group" in names
    assert names.count("spectra.det_exact") == 2
    assert tracer.counts["groups.multiply"][0] > 0


def test_latency_at_reference_speed_cancels_host_speed():
    import run

    # one request over three passes, the last two on a host twice as slow
    # (host_unit takes twice as long around them)
    records = [{"pass": p, "index": 0, "seconds": 0.01 * f, "unit_s": run.REFERENCE_UNIT_S * f,
                "traced": False} for p, f in enumerate((1, 2, 2))]
    (latency,) = run._latencies(records, traced=False)
    assert abs(latency - 0.01) < 1e-12
