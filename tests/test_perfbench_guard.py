"""The benchmark's tracer (perfbench/tracer.py) wraps chainext from outside,
by rebinding every name bound to a traced function in ten chainext modules.
These tests install it on the current sources in a fresh interpreter.  A
last check reads perfbench/sample.py: each `formats` and `cli` name that the
harness calls must exist in src.  They only read perfbench/."""

import ast
import importlib
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


def harness_attributes(source, modules=("formats", "cli")):
    """{module.attr} for each attribute that source loads from one of
    modules by name, as `formats.load_lie` or `cli.main`."""
    return {"%s.%s" % (node.value.id, node.attr)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_every_name_the_harness_calls_exists():
    """perfbench/sample.py picks each input's loader with formats.read_kind,
    reads it with cli.read_input and runs each job through cli.main; each
    of these names exists in src and is callable."""
    with open(os.path.join(ROOT, "perfbench", "sample.py")) as fh:
        used = harness_attributes(fh.read())
    assert used == {"formats.read_kind", "formats.load_lie",
                    "formats.load_cochain", "formats.load_brst",
                    "formats.load_bv", "formats.load_extend",
                    "cli.read_input", "cli.main"}
    for name in sorted(used):
        module, attr = name.split(".")
        value = getattr(importlib.import_module("chainext." + module), attr,
                        None)
        assert callable(value), name


def test_the_harness_scan_sees_attribute_loads():
    assert harness_attributes("cli.main([])\nx = formats.gone\n"
                              "other.f()\n") == \
        {"cli.main", "formats.gone"}
