#!/usr/bin/env python3
"""Perf-smoke gate: pin warm native ladder rows against the record.

Runs benchmarks from the exec-plan ladder (default: the warm native-backend
jacobi 256^2 on a 4x4 grid and Gauss 256 on 16 processors) at full problem
size and compares each against the committed BENCH_interp.json:

* `messages_sent` / `bytes_sent` must match EXACTLY.  Simulated wire
  traffic is deterministic and machine-independent; a drift of a single
  message or byte is a behaviour change (a comm plan packing a different
  slab, a collective issuing an extra call), never noise.
* The statement-cache counters `plan_hits` / `plan_misses` /
  `comm_plan_hits` must match EXACTLY too: they count cache lookups, which
  are as deterministic as the traffic.  `native_runs` is pinned exactly
  whenever the record has native runs and the native toolchain is present.
* Host wall must not regress beyond a noise tolerance.  The JIT compile
  cost is subtracted out on both sides (`native_compile_ms`), so the
  comparison is warm-kernel wall vs warm-kernel wall; the default
  tolerance is generous because shared CI runners are noisy, and the
  exact-traffic check above is the sharp edge of this gate.

When the native toolchain is unavailable (F90D_NATIVE=OFF builds,
containers without a compiler, env F90D_NATIVE=0) the candidate falls back
to the plan interpreter: traffic and cache counters are still compared
exactly, `native_runs` and the wall gate are skipped with a note (the plan
interpreter is the fallback, not a regression).

Usage:
    scripts/check_perf_smoke.py --build-dir build [--baseline BENCH_interp.json]
        [--bench NAME ...]
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

DEFAULT_BENCHES = ("BM_ExecPlanJacobi/mode:3/p:4/q:4/iterations:1",
                   "BM_ExecPlanGauss/mode:3/p:16/iterations:1")
EXACT_COUNTERS = ("messages_sent", "bytes_sent", "plan_hits", "plan_misses",
                  "comm_plan_hits")


def load_entry(doc: dict, name: str) -> dict:
    for b in doc.get("benchmarks", []):
        if b.get("name") == name:
            return b
    raise SystemExit(f"[perf_smoke] benchmark '{name}' not in document "
                     f"(re-record the baseline with scripts/run_benchmarks.py?)")


def warm_wall_ms(entry: dict) -> float:
    return entry["real_time"] - entry.get("native_compile_ms", 0.0)


def cmake_cache(build_dir: str, key: str) -> str:
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def native_toolchain_present(build_dir: str) -> bool:
    """The conditions under which src/native/jit.cpp can compile kernels:
    built with F90D_NATIVE, not switched off at run time, and the baked (or
    overriding) compiler exists."""
    if cmake_cache(build_dir, "F90D_NATIVE").upper() not in ("ON", "TRUE", "1"):
        return False
    if os.environ.get("F90D_NATIVE") == "0":
        return False
    cxx = (os.environ.get("F90D_NATIVE_CXX")
           or cmake_cache(build_dir, "CMAKE_CXX_COMPILER"))
    return bool(cxx) and shutil.which(cxx) is not None


def gate(name: str, base: dict, cand: dict, toolchain: bool,
         tolerance: float) -> list:
    """Compare one candidate row against its record; returns failures."""
    failures = []
    for c in EXACT_COUNTERS:
        b, v = int(base[c]), int(cand.get(c, -1))
        status = "OK" if b == v else "MISMATCH"
        print(f"[perf_smoke] {c}: baseline {b}, candidate {v} ({status})")
        if b != v:
            failures.append(f"{name}: {c} changed {b} -> {v}")

    native_expected = base.get("native_runs", 0) > 0
    if native_expected and not toolchain:
        print("[perf_smoke] native toolchain unavailable here (plan-"
              "interpreter fallback): skipping native_runs and the wall "
              "gate, traffic and cache counters checked above")
        return failures
    if native_expected:
        b, v = int(base["native_runs"]), int(cand.get("native_runs", -1))
        status = "OK" if b == v else "MISMATCH"
        print(f"[perf_smoke] native_runs: baseline {b}, candidate {v} "
              f"({status})")
        if b != v:
            failures.append(f"{name}: native_runs changed {b} -> {v}")

    base_wall, cand_wall = warm_wall_ms(base), warm_wall_ms(cand)
    limit = base_wall * (1.0 + tolerance)
    status = "OK" if cand_wall <= limit else "REGRESSION"
    print(f"[perf_smoke] warm wall: baseline {base_wall:.1f} ms, "
          f"candidate {cand_wall:.1f} ms, limit {limit:.1f} ms ({status})")
    if cand_wall > limit:
        failures.append(
            f"{name}: warm wall regressed {base_wall:.1f} -> "
            f"{cand_wall:.1f} ms (tolerance +{tolerance:.0%})")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline", default="BENCH_interp.json",
                    help="recorded ladder document to gate against")
    ap.add_argument("--bench", action="append",
                    help="benchmark name to run and compare (repeatable; "
                         "default: the jacobi and Gauss native rows)")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed fractional wall regression (0.5 = +50%%)")
    args = ap.parse_args()
    benches = args.bench or list(DEFAULT_BENCHES)

    with open(args.baseline) as f:
        doc = json.load(f)
    bases = {name: load_entry(doc, name) for name in benches}
    for base in bases.values():
        for c in EXACT_COUNTERS:
            if c not in base:
                raise SystemExit(f"[perf_smoke] baseline lacks '{c}' — "
                                 f"re-record {args.baseline} from this tree")

    binary = os.path.join(args.build_dir, "bench_ablation_exec_plan")
    env = dict(os.environ)
    env.pop("F90D_GE_N", None)  # full size: counters must match the record
    env.pop("F90D_JACOBI_N", None)
    toolchain = native_toolchain_present(args.build_dir)
    failures = []
    for name in benches:
        cmd = [binary, "--benchmark_format=json",
               f"--benchmark_filter={name}"]
        print(f"[perf_smoke] {' '.join(cmd)}", flush=True)
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              check=True)
        text = proc.stdout.decode()
        cand = load_entry(json.loads(text[: text.rfind("}") + 1]), name)
        failures += gate(name, bases[name], cand, toolchain, args.tolerance)

    if failures:
        print("[perf_smoke] FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("[perf_smoke] gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
