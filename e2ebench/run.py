#!/usr/bin/env python3
"""Socket-to-kernel benchmark for exdld (see e2ebench/README.md).

Run from the root of a checkout:

    python3 e2ebench/run.py --workload warm_eval --seed 1 --seconds 20 --trace 0

Builds exdld and the load generator exdl_e2e (Release) from the checkout's
sources, runs one workload and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end_to_end metrics of BENCHMARK.json; with --trace 1 the
per_layer ones, computed by trace_report.py from the traced replay. The full
result of each run (every metric, sample counts) is kept under
<checkout dir>/results, or written to --result-file.

Everything a run leaves lives in a checkout dir, <target>/e2e-<hash of this
checkout's path>, where <target> is $CARGO_TARGET_DIR (default .bench_build).
Two checkouts that share one target therefore never build or measure each
other's sources.

Exit codes: 0 success; 1 an answer differed from the reference (the result
line says "correct": false); 2 build, set-up or usage error (no result).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import trace_report  # noqa: E402

WORKLOADS = ("warm_eval", "cold_compile", "standing_ingest")
# Budget for exdl_e2e after the build (a no-op once built; the first run
# of a checkout builds from source and may take longer in total).
RUN_LIMIT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds exdld and exdl_e2e (a no-op when fresh)."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "exdld", "exdl_e2e"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))


def run_loadgen(cmd, timeout_s):
    """Runs exdl_e2e in its own process group, so a timeout also reaps the
    exdld children it started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"exdl_e2e exceeded {timeout_s:.0f} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every shape at toy sizes (self-test)")
    parser.add_argument("--result-file",
                        help="also write the full result (every metric) here")
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"run from the checkout root; cannot read BENCHMARK.json: {e}")

    # Relative paths keep the daemon's unix socket path short.
    target = os.path.relpath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    checkout = hashlib.sha256(HERE.encode()).hexdigest()[:12]
    root = os.path.join(target, "e2e-" + checkout)
    build_dir = os.path.join(root, "cmake")
    build(build_dir)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    work_dir = os.path.join(root, "work", tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "exdl_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--exdld", os.path.join(build_dir, "exdld"),
           "--work-dir", work_dir]
    if args.size == "tiny":
        cmd.append("--tiny")
    trace_prefix = os.path.join(root, "trace", tag)
    if args.trace:
        os.makedirs(os.path.dirname(trace_prefix), exist_ok=True)
        cmd += ["--trace-prefix", trace_prefix]
    code, out = run_loadgen(cmd, RUN_LIMIT_S)
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail(f"exdl_e2e exited with code {code}")
    result = json.loads(lines[-1])

    if args.trace:
        layer = trace_report.per_layer_metrics(
            trace_prefix + ".spans.jsonl", trace_prefix + ".counters.json")
        trace_report.print_table(layer, sys.stderr)
        print(f"e2ebench: spans and counters in {trace_prefix}.*",
              file=sys.stderr)
        result["e2e_metrics"] = result["metrics"]
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in layer.items()}
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    results_dir = os.path.join(root, "results")
    os.makedirs(results_dir, exist_ok=True)
    for path in (os.path.join(results_dir, tag + ".json"), args.result_file):
        if path:
            with open(path, "w") as f:
                json.dump(result, f, indent=1)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not produced on {args.workload}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, not {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
