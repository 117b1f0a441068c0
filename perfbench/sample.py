"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/sample.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is `setup` (import and parse the inputs, then stop), `run` (then run
every job of the workload in order) or `trace` (as `run`, with the tracer
installed before the inputs are parsed; spans go to SPANS_PATH).  Prints one
JSON object as its last line of standard output.  Job reports are captured
and returned for checking; the caller compares them with the recorded ones.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

CALIBRATION_ITERATIONS = 400_000


def calibrate():
    """Time a fixed pure-Python loop: context for host speed, never gated."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    return time.perf_counter() - t0


def run_job(cli, argv):
    """(exit code, captured stdout, error or None, seconds) of one job."""
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a job that raises is a failed job, not a crash
        code, error = None, "%s: %s" % (type(e).__name__, e)
    return code, out.getvalue(), error, time.perf_counter() - t0


def main():
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import chainext
    from chainext import (brst, bv, cli, complexes, exactla,  # noqa: F401
                          formats, instances, lie, shlie, superalg)
    if not os.path.abspath(chainext.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit("chainext was imported from outside this checkout: %s"
                         % chainext.__file__)
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(chainext)
    jobs = workloads.jobs(workload, seed)
    loaders = {"lie": formats.load_lie, "cochain": formats.load_cochain,
               "brst": formats.load_brst, "bv": formats.load_bv,
               "extend": formats.load_extend}
    parsed = set()
    for argv in jobs:
        for name in workloads.input_names(argv):
            if name not in parsed:
                text = cli.read_input(name)
                loaders[formats.read_kind(text)](text)
                parsed.add(name)
    result = {"ready": time.monotonic(), "inputs": len(parsed)}
    if mode != "setup":
        result["calibration_s"] = calibrate()
        results = []
        t_first = time.perf_counter()
        for argv in jobs:
            code, stdout, error, seconds = run_job(cli, argv)
            results.append({"argv": argv, "exit": code, "stdout": stdout,
                            "error": error, "s": seconds})
        result["wall_s"] = time.perf_counter() - t_first
        result["jobs"] = results
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(sys.argv[4])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
