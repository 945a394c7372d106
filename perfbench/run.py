#!/usr/bin/env python3
"""Repository benchmark: builds omxbench and omxd from source, warms the
native object cache, runs one workload and prints the result line.

    python3 perfbench/run.py --workload compile|stiff|service \
        --seed N --seconds S --trace 0|1

Run from the repository root. Everything built or written goes under
.bench_build/ (or $CARGO_TARGET_DIR when set). The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer
metrics with --trace 1. A readable summary with sample counts goes to
stderr. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build(bdir):
    """Configures once, then builds omxbench and omxd (a no-op when
    nothing changed); the output goes to build.log. Returns the paths of
    the two binaries."""
    cmake_dir = os.path.join(bdir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", cmake_dir, "-j",
                  str(os.cpu_count() or 1), "--target", "omxbench", "omxd"])
    with open(os.path.join(bdir, "build.log"), "w+") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                out.seek(0)
                log(out.read()[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))
    return (os.path.join(cmake_dir, "omxbench"),
            os.path.join(cmake_dir, "omx", "omxd"))


def warm(omxbench, env, cache):
    """Compiles every workload's native kernels into the cache unless the
    cache was warmed by this very omxbench binary. The 40-roller kernel
    takes longest, so it builds beside the other two workloads'."""
    st = os.stat(omxbench)
    stamp = os.path.join(cache, "warmed-by")
    key = "%d %d\n" % (st.st_size, st.st_mtime_ns)
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == key:
                return
    log("perfbench: warming the native object cache (cold g++ builds)")
    big = subprocess.Popen([omxbench, "--warm", "compile"], env=env,
                           stdout=sys.stderr)
    try:
        for w in ("stiff", "service"):
            subprocess.run([omxbench, "--warm", w], env=env, check=True,
                           stdout=sys.stderr)
    finally:
        big.wait()
    if big.returncode != 0:
        raise RuntimeError("warming the compile workload failed")
    with open(stamp, "w") as f:
        f.write(key)


def measure(omxbench, omxd, args, env, bdir):
    spans = os.path.join(bdir, "spans",
                         "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [omxbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--omxd", omxd]
    if args.trace:
        cmd += ["--spans", spans]
    # Own process group, so a timeout also stops the omxd it started.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError("omxbench exited with %d" % proc.returncode)
    report = json.loads(out.strip().splitlines()[-1])
    record = os.path.join(bdir, "runs", "%s-seed%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(record), exist_ok=True)
    with open(record, "w") as f:
        json.dump(report, f, indent=1)
    return report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload %r" % args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    cache = os.path.join(bdir, "native-cache")
    tmp = os.path.join(bdir, "tmp")  # compiler temporaries stay inside
    for d in (cache, tmp):
        os.makedirs(d, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    omxbench, omxd = build(bdir)

    env = dict(os.environ)
    env["OMX_NATIVE_CACHE_DIR"] = cache
    env.pop("OMX_TUNE", None)  # the autotuner stays off
    warm(omxbench, env, cache)

    report = measure(omxbench, omxd, args, env, bdir)
    if report["metrics"]["exec.native_compiles"]["value"] > 0:
        # A kernel was compiled during the run: a cold-cache run, whose
        # timings are not kept. The cache is warm now; measure again.
        log("perfbench: cold native cache during the run; measuring again")
        report = measure(omxbench, omxd, args, env, bdir)
        if report["metrics"]["exec.native_compiles"]["value"] > 0:
            log("perfbench: native cache still cold")
            return 1

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            log("perfbench: metric %s missing from the report" % m["name"])
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    attempted, failed = report["attempted"], report["failed"]
    env_info = report["env"]
    log("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%s "
        "compiler=%s build_type=%s" % (
            args.workload, args.seed, args.seconds, args.trace,
            env_info["nproc"], env_info["compiler"], env_info["build_type"]))
    for name in sorted(report["metrics"]):
        m = report["metrics"][name]
        if m["samples"] == 0:
            continue  # a layer this workload does not exercise
        log("  %-28s %16.6g %-6s n=%d" % (name, m["value"], m["unit"],
                                          m["samples"]))
    log("  %-28s %16.6g %-6s n=%d" % ("failed_frac",
                                      failed / max(attempted, 1), "ratio",
                                      attempted))
    for why in report["failures"]:
        log("  failure: " + why)

    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, RuntimeError, KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
