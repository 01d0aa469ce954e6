#!/usr/bin/env python3
"""The repository benchmark (README.md in this directory).

    python3 perfbench/run.py --workload stencil|gauss|irregular|service \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds libf90d, f90dcd and the perfbench
driver from source (Release, into .bench_build/perfbench), then:

  --trace 0  end-to-end metrics: seven fresh processes each set up once
             (setup_s is their median); the middle one then measures warm
             runs for --seconds.
  --trace 1  per-layer metrics from one traced process.

Every run's outputs are checked (oracles, reference runs, determinism
guard).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits non-zero without that line when it cannot build or measure.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("stencil", "gauss", "irregular", "service")
SETUP_BEFORE = SETUP_AFTER = 3  # set-up-only processes around the measuring
                                # one; setup_s is the median of all seven
CHILD_TIMEOUT_S = 150  # one child process; the whole run must end in 180 s


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cmake_cache(key):
    """A value from the build directory's CMakeCache.txt ("" when absent),
    read the way scripts/run_benchmarks.py reads CMAKE_BUILD_TYPE."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no f90d source tree at {ROOT}; run from the root of a checkout")
    tmp = os.path.join(ROOT, ".bench_build", "tmp")  # compiler temporaries
    os.makedirs(tmp, exist_ok=True)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True,
             "env": dict(os.environ, TMPDIR=tmp)}
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        subprocess.run(["cmake", "--build", BUILD, "-j",
                        str(os.cpu_count() or 1)], **quiet)
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type.lower() != "release":
        die(f"refusing to measure: libf90d is CMAKE_BUILD_TYPE="
            f"'{build_type or 'unknown'}', not Release")
    return os.path.join(BUILD, "perfbench"), os.path.join(BUILD, "f90dcd")


def stamp(build_type, compiler):
    """Build type, compiler, CPUs and commit of the measured tree."""
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    # A checkout without git history is stamped by a digest of src/.
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"build_type": build_type, "compiler": f"{compiler} ({version})",
            "nproc": len(os.sched_getaffinity(0)), "commit": commit or "none",
            "src_sha256": digest.hexdigest()[:16]}


def run_child(cmd, workdir):
    """Run one driver process; returns (seconds from start to its SETUP
    line, SETUP record, RESULT record).  Dies on a non-zero exit."""
    env = dict(os.environ, TMPDIR=workdir)  # JIT compiler temporaries
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    setup_wall, setup, result = None, None, None
    try:
        for line in proc.stdout:
            tag, _, body = line.partition(" ")
            if tag == "SETUP":
                setup_wall = time.perf_counter() - start
                setup = json.loads(body)
            elif tag == "RESULT":
                result = json.loads(body)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup is None or result is None:
        die(f"{' '.join(cmd[1:3])} {cmd[-1]!r} phase failed "
            f"(exit {proc.returncode})")
    return setup_wall, setup, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {spec_path}: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    driver, daemon = build()
    info = stamp(cmake_cache("CMAKE_BUILD_TYPE"),
                 cmake_cache("CMAKE_CXX_COMPILER"))
    workdir = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    base = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--workdir", workdir,
            "--f90dcd", daemon]
    try:
        if args.trace:
            trace_file = os.path.join(ROOT, ".bench_build",
                                      f"trace-{args.workload}.json")
            _, setup, result = run_child(
                base + ["--trace-out", trace_file, "--phase", "trace"], workdir)
            children = [(None, setup, result)]
        else:
            # Set-ups before and after the measurement sample the host
            # over the whole run, not only its first seconds.
            setup_only = base + ["--phase", "setup"]
            children = [run_child(setup_only, workdir)
                        for _ in range(SETUP_BEFORE)]
            measuring = run_child(base + ["--phase", "measure"], workdir)
            children += [run_child(setup_only, workdir)
                         for _ in range(SETUP_AFTER)]
            children.append(measuring)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for _, _, r in children)
    failed = sum(r["failed"] for _, _, r in children)
    # Determinism guard: every structural count of every process must
    # repeat exactly; drift is a failure, never noise.
    structures = [s["structure"] for _, s, _ in children]
    structures += [r["structure"] for _, _, r in children]
    attempted += 1
    if any(s != structures[0] for s in structures):
        failed += 1
        print("perfbench: FAIL structural counts differ between repetitions: "
              + json.dumps(structures), file=sys.stderr)

    measured = dict(children[-1][2]["metrics"])
    extra = dict(children[-1][2]["info"])
    if not args.trace:
        # Set-up times at reference speed (calibrate.hpp): the child times
        # the calibration kernel right after its set-up.
        setups = [s.get("setup_s", wall) * r["info"]["setup_factor"]
                  for wall, s, r in children]
        measured["setup_s"] = statistics.median(setups)
        extra["raw_setup_s"] = statistics.median(
            s.get("setup_s", wall) for wall, s, _ in children)
    if set(measured) != set(units):
        die(f"metric names differ from BENCHMARK.json: driver "
            f"{sorted(set(measured) ^ set(units))}")

    print(f"perfbench: {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"fail_ratio={failed / attempted:.6g} "
          + " ".join(f"{k}={v:.6g}" for k, v in sorted(extra.items())))
    print("perfbench: stamp " + json.dumps(info, sort_keys=True))
    for name in sorted(measured):
        print(f"  {name:32s} {measured[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": measured[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
