#!/usr/bin/env python3
"""Perf-smoke gate: pin warm native rows against the record.

Runs the pinned benchmark rows at full problem size — the warm
native-backend jacobi 256^2 on a 4x4 grid and Gauss 256 on 16 processors
from the exec-plan ladder (BENCH_interp.json), and the native ELL SpMV row
of the irregular ladder (BENCH_irregular.json: gathers, needs enumeration
and executor on kernels, schedules reused, INDIRECT(MAP) on 8 processors)
— and compares each against its committed record:

* Simulated wire traffic (messages and bytes) must match EXACTLY.  It is
  deterministic and machine-independent; a drift of a single message or
  byte is a behaviour change (a comm plan packing a different slab, a
  collective issuing an extra call), never noise.
* The cache counters must match EXACTLY too: `plan_hits` / `plan_misses` /
  `comm_plan_hits` on the ladder rows, `schedules_built` /
  `irregular_hits` on the irregular row.  They count cache lookups and
  inspector runs, which are as deterministic as the traffic.
  `native_runs` is pinned exactly whenever the record has native runs and
  the native toolchain is present.
* Host wall must not regress beyond a noise tolerance.  The JIT compile
  cost is subtracted out on both sides (`native_compile_ms`), so the
  comparison is warm-kernel wall vs warm-kernel wall.  A record made with
  `--repetitions N` is compared like for like: the candidate runs N
  repetitions too, its median-wall repetition is compared, and the exact
  counters are checked on every repetition.  The default tolerance is
  generous because shared runners are noisy; the exact counters are the
  sharp edge of this gate.

When the native toolchain is unavailable (F90D_NATIVE=OFF builds,
containers without a compiler, env F90D_NATIVE=0) the candidate falls back
to the plan interpreter: traffic and cache counters are still compared
exactly, `native_runs` and the wall gate are skipped with a note (the plan
interpreter is the fallback, not a regression).

Usage:
    scripts/check_perf_smoke.py --build-dir build [--record-dir .]
        [--bench NAME ...]
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

LADDER_EXACT = ("messages_sent", "bytes_sent", "plan_hits", "plan_misses",
                "comm_plan_hits")
IRREGULAR_EXACT = ("messages", "bytes", "schedules_built", "irregular_hits")

# Pinned row -> (record document, benchmark binary, exact counters).
PINS = {
    "BM_ExecPlanJacobi/mode:3/p:4/q:4/iterations:1":
        ("BENCH_interp.json", "bench_ablation_exec_plan", LADDER_EXACT),
    "BM_ExecPlanGauss/mode:3/p:16/iterations:1":
        ("BENCH_interp.json", "bench_ablation_exec_plan", LADDER_EXACT),
    "BM_IrregularWorkloadReuse/0/1/1/3/iterations:1":
        ("BENCH_irregular.json", "bench_ablation_schedule_reuse",
         IRREGULAR_EXACT),
}


def load_entry(doc: dict, name: str) -> dict:
    for b in doc.get("benchmarks", []):
        if b.get("name") == name:
            return b
    raise SystemExit(f"[perf_smoke] benchmark '{name}' not in document "
                     f"(re-record the baseline with scripts/run_benchmarks.py?)")


MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def warm_wall_ms(entry: dict) -> float:
    wall = entry["real_time"] * MS_PER_UNIT[entry.get("time_unit", "ns")]
    return wall - entry.get("native_compile_ms", 0.0)


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


def exact_failures(name: str, base: dict, cand: dict, exact: tuple,
                   native: bool, quiet: bool) -> list:
    """Exact-counter mismatches of one candidate repetition."""
    counters = exact + (("native_runs",) if native else ())
    failures = []
    for c in counters:
        b, v = int(base[c]), int(cand.get(c, -1))
        if not quiet:
            status = "OK" if b == v else "MISMATCH"
            print(f"[perf_smoke] {c}: baseline {b}, candidate {v} ({status})")
        if b != v:
            failures.append(f"{name}: {c} changed {b} -> {v}")
    return failures


def gate(name: str, base: dict, reps: list, exact: tuple, toolchain: bool,
         tolerance: float) -> list:
    """Compare the candidate repetitions of one row against its record;
    returns failures."""
    native_expected = base.get("native_runs", 0) > 0
    check_native = native_expected and toolchain
    cand = sorted(reps, key=lambda r: r["real_time"])[(len(reps) - 1) // 2]
    failures = exact_failures(name, base, cand, exact, check_native, False)
    for r in reps:
        if r is not cand:
            failures += exact_failures(name, base, r, exact, check_native,
                                       True)
    failures = list(dict.fromkeys(failures))  # one line per distinct drift
    if native_expected and not toolchain:
        print("[perf_smoke] native toolchain unavailable here (plan-"
              "interpreter fallback): skipping native_runs and the wall "
              "gate, traffic and cache counters checked above")
        return failures

    base_wall, cand_wall = warm_wall_ms(base), warm_wall_ms(cand)
    limit = base_wall * (1.0 + tolerance)
    status = "OK" if cand_wall <= limit else "REGRESSION"
    print(f"[perf_smoke] warm wall (median of {len(reps)}): baseline "
          f"{base_wall:.1f} ms, candidate {cand_wall:.1f} ms, limit "
          f"{limit:.1f} ms ({status})")
    if cand_wall > limit:
        failures.append(
            f"{name}: warm wall regressed {base_wall:.1f} -> "
            f"{cand_wall:.1f} ms (tolerance +{tolerance:.0%})")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--record-dir", default=".",
                    help="directory holding the committed BENCH_*.json")
    ap.add_argument("--bench", action="append", choices=sorted(PINS),
                    help="pinned row to run and compare (repeatable; "
                         "default: every pinned row)")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed fractional wall regression (0.5 = +50%%)")
    args = ap.parse_args()
    benches = args.bench or list(PINS)

    bases = {}
    for name in benches:
        record, _, exact = PINS[name]
        with open(os.path.join(args.record_dir, record)) as f:
            base = load_entry(json.load(f), name)
        for c in exact:
            if c not in base:
                raise SystemExit(f"[perf_smoke] record of {name} lacks "
                                 f"'{c}' — re-record {record} from this tree")
        bases[name] = base

    env = dict(os.environ)
    env.pop("F90D_GE_N", None)  # full size: counters must match the record
    env.pop("F90D_JACOBI_N", None)
    toolchain = native_toolchain_present(args.build_dir)
    failures = []
    for name in benches:
        _, binary, exact = PINS[name]
        base = bases[name]
        repetitions = int(base.get("repetitions", 1))
        cmd = [os.path.join(args.build_dir, binary), "--benchmark_format=json",
               f"--benchmark_filter=^{name}$"]
        if repetitions > 1:
            cmd.append(f"--benchmark_repetitions={repetitions}")
        print(f"[perf_smoke] {' '.join(cmd)}", flush=True)
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              check=True)
        text = proc.stdout.decode()
        doc = json.loads(text[: text.rfind("}") + 1])
        reps = [r for r in doc.get("benchmarks", [])
                if r.get("name") == name
                and r.get("run_type", "iteration") == "iteration"]
        if not reps:
            raise SystemExit(f"[perf_smoke] {binary} produced no '{name}' row")
        failures += gate(name, base, reps, exact, toolchain, args.tolerance)

    if failures:
        print("[perf_smoke] FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("[perf_smoke] gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
