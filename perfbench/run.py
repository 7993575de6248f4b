#!/usr/bin/env python3
"""The repository benchmark: one workload per call, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload serve_miss --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke       # all four workloads, tiny inputs, seconds
    python3 perfbench/test_run.py          # the benchmark's self-tests

The first call configures and builds the library, decycle_serve and the
measuring program (perfbench/measure) as a Release build in $CARGO_TARGET_DIR, or
.bench_build when it is unset. Later calls only re-check the build.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
traced replay and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Any failed correctness check makes the exit code non-zero.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_miss", "serve_hit", "serve_mutate", "lab_250k")
MEASURE_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def check_checkout():
    needed = ["BENCHMARK.json", "CMakeLists.txt", "src/serve/server.cpp", "tools/decycle_serve.cpp"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        die("not a source checkout of the repository (missing %s); run from its root"
            % ", ".join(missing))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cmake_cache(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def build():
    """Configures once, then builds the targets; refuses non-Release builds."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    cache = cmake_cache(build_dir)
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        die("refusing to measure a %r build; reconfigure %s with -DCMAKE_BUILD_TYPE=Release"
            % (cache.get("CMAKE_BUILD_TYPE", ""), build_dir))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_measure",
                    "decycle_serve"], check=True, stdout=sys.stderr)
    return build_dir, cache


def source_identity():
    """Git sha and dirty flag; a content digest of the sources without git."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True).stdout
        return {"git_sha": sha.strip(), "dirty": bool(status.strip())}
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", os.path.relpath(HERE, ROOT)):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"git_sha": "none (not a git checkout)", "dirty": "unknown",
            "source_sha256": digest.hexdigest()[:16]}


def provenance(cache):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
    return {
        "host": {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release()},
        "build": {"compiler": compiler,
                  "compiler_version": version.splitlines()[0] if version else "",
                  "build_type": cache.get("CMAKE_BUILD_TYPE")},
        "source": source_identity(),
    }


def run_measure(build_dir, workload, seed, seconds, trace, smoke):
    """Runs perfbench_measure in its own process group; returns (result, out_dir)."""
    out_dir = os.path.join(".bench_out", "%s-s%d-t%d-%d" % (workload, seed, trace, os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_measure"), "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--daemon=" + os.path.join(build_dir, "decycle", "decycle_serve"), "--out=" + out_dir]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(signum, _frame):
        # perfbench_measure and the daemon it spawned share one process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s: perfbench_measure did not finish within %d s" % (workload, MEASURE_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        die("%s: perfbench_measure failed (exit %d); logs in %s"
            % (workload, proc.returncode, out_dir))
    return json.loads(out.strip().splitlines()[-1]), out_dir


def select_metrics(spec, result, trace):
    """The metrics of BENCHMARK.json for this --trace, with their units."""
    chosen = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                die("perfbench_measure did not report end-to-end metric %s" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}  # a layer this workload does not exercise
        if got["unit"] != m["unit"]:
            die("metric %s: measured unit %r != BENCHMARK.json unit %r"
                % (m["name"], got["unit"], m["unit"]))
        chosen[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return chosen


def report(workload, result, metrics, prov):
    print("perfbench: workload %s" % workload)
    print("perfbench: host %s" % json.dumps(prov["host"], sort_keys=True))
    print("perfbench: build %s" % json.dumps(prov["build"], sort_keys=True))
    print("perfbench: source %s" % json.dumps(prov["source"], sort_keys=True))
    for note in result.get("notes", []):
        print("perfbench: %s" % note)
    for name, m in metrics.items():
        print("metric %s = %r %s" % (name, m["value"], m["unit"]))
    attempted, failed = result["attempted"], result["failed"]
    print("metric failed_frac = %r ratio (%d of %d operations)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    for reason in result.get("failures", []):
        print("perfbench: FAILED %s" % reason)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs for about a second each")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    check_checkout()
    spec = load_spec()
    build_dir, cache = build()
    prov = provenance(cache)

    if args.smoke:
        # Every workload, traced (so the daemon run and the replay both run);
        # both metric sets are printed.
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            result, _ = run_measure(build_dir, workload, args.seed, 1, 1, True)
            metrics = select_metrics(spec, result, 0)
            metrics.update(select_metrics(spec, result, 1))
            report(workload, result, metrics, prov)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in metrics.items():
                combined["metrics"]["%s/%s" % (workload, name)] = m
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1

    result, out_dir = run_measure(build_dir, args.workload, args.seed, args.seconds, args.trace,
                                 False)
    metrics = select_metrics(spec, result, args.trace)
    report(args.workload, result, metrics, prov)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "provenance": prov, "result": result}, f, indent=1)
    if result["correct"] and not args.trace:
        shutil.rmtree(out_dir, ignore_errors=True)  # traced runs keep their spans
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
