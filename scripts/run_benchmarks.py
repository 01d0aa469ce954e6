#!/usr/bin/env python3
"""Run the benchmark binaries and record their JSON output.

Executes the perf binaries with --benchmark_format=json and writes the
results to BENCH_*.json files, so every PR leaves a machine-readable
performance record next to the sources:

    BENCH_interp.json  <- bench_ablation_exec_plan (the backend ladder
                          tree-walk vs exec-plan vs native-JIT vs skeleton
                          on jacobi/gauss; wall time + plan/native cache
                          counters; the native rows fall back to the plan
                          interpreter when no toolchain is available)
    BENCH_fig6.json    <- bench_fig6_speedup (paper Figure 6: GE speed-up,
                          hand-written vs compiler-generated)
    BENCH_fig5.json    <- bench_fig5_portability (paper Figure 5: GE on
                          iPSC/860 vs nCUBE/2, plus the jacobi portability
                          sweep over machine profiles on 1..1024 processors)
    BENCH_irregular.json <- bench_ablation_schedule_reuse (§7 schedule
                          reuse: the irregular kernel plus the three
                          inspector/executor workloads — ELL SpMV, mesh
                          edge sweep, particle binning — each with the
                          schedule cache on/off over BLOCK and
                          INDIRECT(MAP), with PARTI traffic counters)
    BENCH_service.json <- f90d_loadgen (resident compile service: N clients
                          x M programs against one-process-per-request
                          f90dc, then a cold and a warm shared-cache
                          ServiceCore pool; throughput, latency
                          percentiles, artifact/schedule/plan/native
                          cache-hit rates per phase)

Usage:
    scripts/run_benchmarks.py --build-dir build [--out-dir .] [--quick]
        [--repetitions N] [--filter REGEX]

--quick shrinks the problem sizes through F90D_GE_N (useful in CI, where
the point is that the recording pipeline works, not the absolute numbers).

--repetitions N runs every google-benchmark row N times.  The record keeps
one row per benchmark: the repetition with the median wall time (its
counters are exact, so any repetition carries the same ones), annotated
with the repetition count and the wall spread (real_time_min/_max).

--filter REGEX records only the matching rows (google-benchmark filter
syntax) and merges them into the existing document: matching rows are
replaced in place, recorded rows the filter matches but the binary no
longer produces (a renamed or removed benchmark) are dropped, every other
row keeps its recorded values, and context.rerecorded lists each merge
(filter, date, repetitions).

Recordings are only meaningful from a Release build of libf90d: the script
reads CMAKE_BUILD_TYPE out of the build directory's CMakeCache.txt, refuses
to record from anything else unless --allow-non-release is given, and stamps
every written document with context.f90d_build_type (plus a loud
context.non_release_build flag for overridden runs).  Note the benchmark
harness's own "library_build_type" context key describes how the *google-
benchmark library* was compiled, not libf90d — f90d_build_type is the
authoritative field for the numbers in these records.
"""
import argparse
import json
import os
import re
import subprocess
import sys

BENCH_MAP = {
    "BENCH_interp.json": "bench_ablation_exec_plan",
    "BENCH_fig6.json": "bench_fig6_speedup",
    "BENCH_fig5.json": "bench_fig5_portability",
    "BENCH_irregular.json": "bench_ablation_schedule_reuse",
    "BENCH_service.json": "f90d_loadgen",
}


def build_type(build_dir: str) -> str:
    """CMAKE_BUILD_TYPE of the build directory ("" when undetectable)."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def stamp_build_type(out_path: str, bt: str) -> None:
    """Annotate a written record with the libf90d build type."""
    with open(out_path) as f:
        doc = json.load(f)
    ctx = doc.setdefault("context", {})
    ctx["f90d_build_type"] = bt.lower()
    if bt.lower() != "release":
        ctx["non_release_build"] = True
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")


def run_loadgen(binary: str, out_path: str, env: dict, build_dir: str,
                quick: bool) -> None:
    # The load generator speaks its own flags (it is a client driver, not a
    # google-benchmark binary) and writes the JSON record itself.
    cmd = [binary, f"--json={out_path}",
           f"--f90dc={os.path.join(build_dir, 'f90dc')}"]
    if quick:
        cmd += ["--clients=2", "--requests=8", "--programs=2", "--floor=0"]
    print(f"[run_benchmarks] {' '.join(cmd)} -> {out_path}", flush=True)
    # rc 2 = ran fine but the warm speedup missed the 5x floor; surface it
    # as a failure so the record never silently regresses.
    subprocess.run(cmd, env=env, check=True)


def median_rows(rows: list, repetitions: int) -> list:
    """One row per benchmark: the repetition with the median wall time,
    annotated with the repetition count and the wall spread.  Aggregate
    rows (mean/median/stddev) are dropped; order follows first appearance."""
    groups = {}
    for r in rows:
        if r.get("run_type", "iteration") != "iteration":
            continue
        groups.setdefault(r["name"], []).append(r)
    out = []
    for reps in groups.values():
        reps.sort(key=lambda r: r["real_time"])
        row = dict(reps[(len(reps) - 1) // 2])
        if repetitions > 1:
            row["repetitions"] = len(reps)
            row["repetition_index"] = 0
            row["real_time_min"] = reps[0]["real_time"]
            row["real_time_max"] = reps[-1]["real_time"]
        out.append(row)
    return out


def run_one(binary: str, out_path: str, env: dict, repetitions: int = 1,
            filt: str = None) -> None:
    cmd = [binary, "--benchmark_format=json"]
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
    if filt:
        cmd.append(f"--benchmark_filter={filt}")
    print(f"[run_benchmarks] {' '.join(cmd)} -> {out_path}", flush=True)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True)
    # stdout is the benchmark library's JSON document; table printers
    # (bench_fig6's Figure-6 summary) go to the end of the stream, so cut
    # the document at the final closing brace before parsing.
    text = proc.stdout.decode()
    end = text.rfind("}")
    if end < 0:
        raise RuntimeError(f"{binary}: no JSON in output")
    doc = json.loads(text[: end + 1])
    doc["benchmarks"] = median_rows(doc.get("benchmarks", []), repetitions)
    if filt:
        doc = merge_rows(out_path, doc, filt, repetitions)
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")


def merge_rows(out_path: str, fresh: dict, filt: str,
               repetitions: int) -> dict:
    """Replace the recorded rows that `fresh` re-measured; keep the rest."""
    with open(out_path) as f:
        doc = json.load(f)
    new_rows = {r["name"]: r for r in fresh["benchmarks"]}
    if not new_rows:
        raise RuntimeError(f"--filter {filt!r} matched no benchmark")
    # A negative filter ("-REGEX") selects by exclusion; only a positive one
    # says which recorded rows the binary should have produced again.
    # Rows new to the document go where the first dropped row was.
    stale = None if filt.startswith("-") else re.compile(filt)
    rows = []
    insert_at = None
    for r in doc.get("benchmarks", []):
        if r["name"] in new_rows:
            rows.append(new_rows.pop(r["name"]))
        elif stale is None or not stale.search(r["name"]):
            rows.append(r)
        elif insert_at is None:
            insert_at = len(rows)
    if insert_at is None:
        insert_at = len(rows)
    doc["benchmarks"] = (rows[:insert_at] + list(new_rows.values()) +
                         rows[insert_at:])
    ctx = doc.setdefault("context", {})
    ctx.setdefault("rerecorded", []).append({
        "filter": filt,
        "date": fresh.get("context", {}).get("date", ""),
        "repetitions": repetitions,
    })
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory holding the bench binaries")
    ap.add_argument("--out-dir", default=".",
                    help="directory the BENCH_*.json files are written to")
    ap.add_argument("--quick", action="store_true",
                    help="shrink problem sizes (F90D_GE_N=64) for CI smoke")
    ap.add_argument("--only", action="append", default=None,
                    metavar="BENCH_x.json",
                    help="record only the named output(s); repeatable")
    ap.add_argument("--repetitions", type=int, default=1, metavar="N",
                    help="run each google-benchmark row N times and record "
                         "its median-wall repetition with the spread")
    ap.add_argument("--filter", default=None, metavar="REGEX",
                    help="record only the matching rows, merged into the "
                         "existing document (needs exactly one --only)")
    ap.add_argument("--allow-non-release", action="store_true",
                    help="record from a non-Release build anyway; the "
                         "output is tagged context.non_release_build")
    args = ap.parse_args()

    bt = build_type(args.build_dir)
    if bt.lower() != "release" and not args.allow_non_release:
        print(f"[run_benchmarks] refusing to record: build dir "
              f"'{args.build_dir}' is CMAKE_BUILD_TYPE="
              f"'{bt or 'unknown'}', not Release.  Benchmarks from "
              f"unoptimised builds are not comparable; pass "
              f"--allow-non-release to record a tagged document anyway.",
              file=sys.stderr)
        return 1

    bench_map = dict(BENCH_MAP)
    if args.only:
        unknown = [o for o in args.only if o not in bench_map]
        if unknown:
            ap.error(f"unknown --only target(s): {', '.join(unknown)} "
                     f"(choose from {', '.join(BENCH_MAP)})")
        bench_map = {k: v for k, v in bench_map.items() if k in args.only}

    if args.repetitions < 1:
        ap.error("--repetitions must be at least 1")
    if args.filter and (not args.only or len(args.only) != 1
                        or args.only[0] == "BENCH_service.json"):
        ap.error("--filter needs exactly one --only google-benchmark record")

    env = dict(os.environ)
    if args.quick:
        env.setdefault("F90D_GE_N", "64")
        env.setdefault("F90D_JACOBI_N", "64")

    os.makedirs(args.out_dir, exist_ok=True)
    failures = []
    for out_name, bench in bench_map.items():
        binary = os.path.join(args.build_dir, bench)
        if not os.path.exists(binary):
            print(f"[run_benchmarks] missing binary: {binary}", file=sys.stderr)
            failures.append(bench)
            continue
        try:
            out_path = os.path.join(args.out_dir, out_name)
            if bench == "f90d_loadgen":
                run_loadgen(binary, out_path, env, args.build_dir,
                            args.quick)
            else:
                run_one(binary, out_path, env, args.repetitions, args.filter)
            stamp_build_type(out_path, bt)
        except (subprocess.CalledProcessError, RuntimeError, ValueError) as e:
            print(f"[run_benchmarks] {bench} failed: {e}", file=sys.stderr)
            failures.append(bench)
    if failures:
        print(f"[run_benchmarks] FAILED: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("[run_benchmarks] all benchmark records written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
