"""chainext benchmark: closed-loop runs of fixed CLI job lists.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh interpreter that
imports chainext from `src/`, parses the workload's inputs once, then runs
each job (`chainext.cli.main(argv)`) in order, one after the other: one
client, one process, no threads, so no job ever waits in a queue.  Each job's
exit code and report are compared with the ones recorded at the seed commit
(`expected.json`); a job that raises or differs counts as failed.

With --trace 0 the run takes samples until --seconds have passed (at least
workloads.MIN_SAMPLES) and reports the end-to-end metrics wall_s, setup_s and
peak_rss_mb as medians.  With --trace 1 it takes one untraced and one traced
sample and reports the per-layer metrics of the traced one, plus the tracing
overhead.
The last line of standard output is the result object; the line before it
holds the run's context.  Exits 2 without a result when the checkout has no
chainext source, a frozen input differs, or a sample process fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5          # extra set-up-only interpreters per untraced run
SAMPLE_TIMEOUT_S = 170    # one sample; a run must end within 180 s
RUN_BUDGET_S = 150        # no new sample may start past this
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def preflight():
    if not os.path.isfile(os.path.join(ROOT, "src", "chainext", "cli.py")):
        raise BenchError("no chainext source under %s/src" % ROOT)
    for name, digest in sorted(workloads.FROZEN_INPUTS.items()):
        path = os.path.join(ROOT, workloads.INPUTS_DIR, name)
        with open(path, "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        if actual != digest:
            raise BenchError("frozen input %s has SHA-256 %s, expected %s"
                             % (name, actual, digest))
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)["jobs"]


def sample(workload, seed, mode, spans_path=None):
    """Run one sample interpreter; its result plus setup_s."""
    argv = [sys.executable, os.path.join(HERE, "sample.py"), workload,
            str(seed), mode] + ([spans_path] if spans_path else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("a %s sample ran past %d s" % (mode, SAMPLE_TIMEOUT_S))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("the %s sample exited %d: %s"
                         % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t_spawn
    return result


def expected_of(expected, argv):
    """(exit code, stdout) recorded for one job.  A fuzz report depends only
    on its seed: every generated instance satisfies the theorem."""
    if argv[0] == "fuzz":
        rec = expected["fuzz --seed {seed}"]
        return rec["exit"], rec["stdout"].replace("{seed}", argv[2])
    key = " ".join(argv)
    if key not in expected:
        raise BenchError("no recorded output for job: %s" % key)
    rec = expected[key]
    return rec["exit"], rec["stdout"]


def failed_jobs(result, expected):
    """Indices of the jobs of one sample that raised or whose exit code or
    report differs from the recorded one; each is reported on stderr."""
    bad = []
    for i, job in enumerate(result["jobs"]):
        code, stdout = expected_of(expected, job["argv"])
        if job["error"] is not None or job["exit"] != code \
                or job["stdout"] != stdout:
            bad.append(i)
            print("perfbench: job failed: %s (exit %r, expected %d; error %s)"
                  % (" ".join(job["argv"]), job["exit"], code, job["error"]),
                  file=sys.stderr)
    return bad


def highest_percentile(values):
    """The highest percentile with at least ten samples above it, as
    {"p", "value"}, or None when there are too few samples for any."""
    n = len(values)
    if n < 11:
        return None
    return {"p": 100 * (n - 10) / n, "value": sorted(values)[n - 11]}


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "chainext")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".txt")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_untraced(args, expected, context):
    sample(args.workload, args.seed, "setup")      # compiles bytecode; unused
    setups = [sample(args.workload, args.seed, "setup")["setup_s"]
              for _ in range(SETUP_PROBES)]
    samples = []
    t_start = time.monotonic()
    while len(samples) < workloads.MIN_SAMPLES[args.workload] or (
            time.monotonic() - t_start < args.seconds
            and time.monotonic() - t_start + samples[-1]["wall_s"]
            < RUN_BUDGET_S):
        samples.append(sample(args.workload, args.seed, "run"))
    attempted = sum(len(s["jobs"]) for s in samples)
    failed = sum(len(failed_jobs(s, expected)) for s in samples)
    setups += [s["setup_s"] for s in samples]
    walls = [s["wall_s"] for s in samples]
    rss = [s["peak_rss_kb"] * 1024 / 1e6 for s in samples]
    context.update({
        "samples": len(samples),
        "wall_s_samples": walls,
        "wall_s_quartiles": (statistics.quantiles(walls, n=4)
                             if len(walls) > 1 else None),
        "wall_s_highest_percentile": highest_percentile(walls),
        "setup_s_samples": setups,
        "peak_rss_mb_samples": rss,
        "calibration_s": [s["calibration_s"] for s in samples],
        "job_s": {" ".join(job["argv"]): statistics.median(
            s["jobs"][i]["s"] for s in samples)
            for i, job in enumerate(samples[0]["jobs"])},
    })
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(rss)}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return attempted, failed, True, metrics


def run_traced(args, expected, context):
    sample(args.workload, args.seed, "setup")      # compiles bytecode; unused
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "spans-%s-seed%d.jsonl"
                              % (args.workload, args.seed))
    plain = sample(args.workload, args.seed, "run")
    traced = sample(args.workload, args.seed, "trace", spans_path)
    attempted = len(plain["jobs"]) + len(traced["jobs"])
    failed = len(failed_jobs(plain, expected)) + \
        len(failed_jobs(traced, expected))
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    vacuous = [name for name in workloads.EXPECTED_CALLS[args.workload]
               if not any(layers.get(name + suffix)
                          for suffix in (".calls", ".s", ".bytes"))]
    for name in vacuous:
        print("perfbench: %s recorded no calls on %s, which exercises it"
              % (name, args.workload), file=sys.stderr)
    context.update({
        "samples": 1,
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "calibration_s": [plain["calibration_s"], traced["calibration_s"]],
        "spans": os.path.relpath(spans_path, ROOT),
    })
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit, _ in tracer.per_layer_metrics()}
    return attempted, failed, not vacuous, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        expected = preflight()
        context = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": "%s %s" % (sys.implementation.name,
                                 sys.version.split()[0]),
            "commit": commit(), "source_sha256": source_digest(),
            "closed_loop_clients": 1, "wait_s": 0.0,
        }
        run = run_traced if args.trace else run_untraced
        attempted, failed, layers_ok, metrics = run(args, expected, context)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    context["fail_ratio"] = failed / attempted
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0 and layers_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
