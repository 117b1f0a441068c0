"""The benchmark's tracer (perfbench/tracer.py) wraps chainext from outside,
by rebinding every name bound to a traced function in ten chainext modules.
These tests install it on the current sources in a fresh interpreter.  They
only read perfbench/."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import importlib, json, pkgutil, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import chainext
for info in pkgutil.iter_modules(chainext.__path__):
    importlib.import_module("chainext." + info.name)
import tracer

originals = []
for _prefix, mod_name, path, _hot in tracer.WRAP_POINTS:
    owner = getattr(chainext, mod_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    originals.append(owner)
if sys.argv[3] == "plant":
    # a module the tracer does not scan, holding a traced function by name
    chainext.series.antibracket = chainext.superalg.antibracket
try:
    tracer.Tracer().install(chainext)
    error = None
except Exception as e:
    error = "%s: %s" % (type(e).__name__, e)
left = []
for name, mod in sorted(sys.modules.items()):
    if name != "chainext" and not name.startswith("chainext."):
        continue
    for attr, value in vars(mod).items():
        items = value.values() if isinstance(value, dict) else [value]
        if any(v is o for v in items for o in originals):
            left.append(name + "." + attr)
print(json.dumps({"error": error, "unwrapped": left,
                  "wrap_points": len(originals)}))
"""


def install(mode):
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench"), mode],
        capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(out.stdout.splitlines()[-1])


def test_tracer_installs_and_leaves_no_unwrapped_binding():
    got = install("plain")
    assert got["error"] is None
    assert got["wrap_points"] > 40
    assert got["unwrapped"] == []


def test_unwrapped_binding_is_seen():
    """The check above is live: a traced function bound by name in a module
    the tracer does not scan is reported."""
    got = install("plant")
    assert got["error"] is None
    assert got["unwrapped"] == ["chainext.series.antibracket"]


TRACED_RUN = r"""
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import chainext
from chainext import cli
import tracer, workloads

t = tracer.Tracer()
t.install(chainext)
silent, codes = {}, {}
for workload in workloads.WORKLOADS:
    before = dict(t.calls)
    for argv in workloads.jobs(workload, 1):
        with contextlib.redirect_stdout(io.StringIO()):
            codes[" ".join(argv)] = cli.main(argv)
    silent[workload] = [name for name in workloads.EXPECTED_CALLS[workload]
                        if t.calls[name] == before[name]]
print(json.dumps({"silent": silent, "codes": codes}))
"""


def test_traced_job_lists_call_every_expected_function():
    """Each workload's job list, run once under the tracer, calls every
    function workloads.EXPECTED_CALLS names for it; a zero there makes a
    traced benchmark run report "correct": false.  Every job passes, as
    recorded in perfbench/expected.json."""
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, check=True, cwd=ROOT)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["silent"] == {"closed_form": [], "cross_check": [],
                             "fuzz_dense": []}
    assert set(got["codes"].values()) == {0}
