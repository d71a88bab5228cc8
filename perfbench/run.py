#!/usr/bin/env python3
"""Repository benchmark: host time of the simulator on four workloads.

Usage (from the repository root):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --record-reference

The first call builds the simulator libraries and the driver (perfbench.cc)
from source into .bench_build/ with CMake, in Release mode.  The driver runs
the workload for about --seconds and prints JSON lines; this script checks
every cell's simulated digest, derives the metrics declared in
BENCHMARK.json and prints them, one per line with its unit, ending with one
JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A digest that differs from perfbench/reference_digests.json (at the
reference seed), or that differs between repetitions of the same cell (at
any seed), counts the cell as failed; any failure exits non-zero.  Workload
choices, phase splits and the layer-to-metric predictions are documented in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
REFERENCE = BENCH_DIR / "reference_digests.json"
WORKLOADS = ("sweep_clean", "sweep_reused", "colloc_64", "translate_bound")
SWEEPS = ("sweep_clean", "sweep_reused")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Per-layer metrics derived from the machine tracer's per-kind counts.  They
# are reported missing (left out) when the tracer's ring dropped events.
TRACER_METRICS = (
    "daemon.ticks",
    "daemon.us_per_tick",
    "gemini.promote_in_place",
    "gemini.promote_migrate",
    "gemini.booking_assign_ratio",
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def refuse_gemini_environment():
    knobs = sorted(k for k in os.environ if k.startswith("GEMINI_"))
    if knobs:
        fail(f"refusing to run with {', '.join(knobs)} set; the benchmark pins every knob itself")


def build():
    """Configures (once) and builds the driver; output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")


def run_driver(workload, seed, seconds, trace, tiny):
    """Runs the driver; returns (records, returncode)."""
    trace_dir = BUILD_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", str(trace_dir)]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    records = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return records, done.returncode


def load_reference(path):
    with open(path) as f:
        return json.load(f)


def check_digests(workload, seed, records, reference):
    """Returns (attempted, failed, messages) over every digest the run made."""
    cells = [r for r in records if r["type"] == "cell"]
    checks = [r for r in records if r["type"] == "thread_check"]
    expected = {}
    if seed == reference["seed"]:
        expected = reference["workloads"].get(workload, {})
    messages = []
    failed = 0
    first = {}
    for cell in cells:
        want = expected.get(cell["name"])
        if expected and want is None:
            want = "<no reference>"
        if want is None:
            # No reference at this seed: every repetition must agree with
            # the first one, and so must side-by-side copies ("... #2").
            want = first.setdefault(cell["name"].split(" #")[0], cell["digest"])
        if cell["digest"] != want:
            failed += 1
            messages.append(f"digest mismatch: {cell['name']} pass {cell['pass']}: "
                            f"{cell['digest']} != {want}")
    for check in checks:
        # colloc_64: the 1-thread run must reproduce the 2-thread digest.
        for cell in cells:
            if cell["digest"] != check["digest"]:
                failed += 1
                messages.append(f"thread check: {cell['name']} pass {cell['pass']} at 2 threads "
                                f"{cell['digest']} != 1 thread {check['digest']}")
                break
    return len(cells) + len(checks), failed, messages


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def gemini_vs_base(cells):
    """Geomean over workloads of Gemini's simulated throughput / Host-B-VM-B's."""
    by_name = {c["name"]: c["throughput"] for c in cells}
    logs = []
    for name, base in by_name.items():
        workload, _, system = name.partition(" x ")
        gemini = by_name.get(f"{workload} x Gemini")
        if system == "Host-B-VM-B" and gemini and base > 0:
            logs.append(math.log(gemini / base))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def end_to_end(passes, cells, end):
    walls = [p["wall_ms"] / 1000.0 for p in passes]
    setups = [p["setup_ms"] / 1000.0 for p in passes]
    mops = []
    for p in passes:
        ops = sum(c["spec_ops"] for c in cells if c["pass"] == p["pass"])
        exec_s = (p["wall_ms"] - p["setup_ms"]) / 1000.0
        mops.append(ratio(ops, exec_s) / 1e6)
    cell_ms = [c["wall_ms"] for c in cells]
    p90 = statistics.quantiles(cell_ms, n=10)[8] if len(cell_ms) > 1 else cell_ms[0]
    return {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "sim_mops": (median(mops), "Mops/s"),
        "cell_p50_ms": (median(cell_ms), "ms"),
        "cell_p90_ms": (p90, "ms"),
        "peak_rss_mib": (end["peak_rss_kib"] / 1024.0, "MiB"),
    }


def layer_metrics(layers):
    """Per-layer metrics of one traced pass from its summed spans and counters."""
    g = lambda key: layers.get(key, 0.0)
    return {
        "harness.setup_ms": (g("harness.setup_ms"), "ms"),
        "vmem.fragment_ms": (g("vmem.fragment_ms"), "ms"),
        "vmem.buddy_mutations": (g("vmem.setup_mutations"), "count"),
        "vmem.setup_ns_per_mutation": (ratio(g("harness.setup_ms") * 1e6, g("vmem.setup_mutations")), "ns"),
        "os.init_ms": (g("os.init_ms"), "ms"),
        "vmem.init_ns_per_mutation": (ratio(g("os.init_ms") * 1e6, g("vmem.init_mutations")), "ns"),
        "policy.guest_promotions": (g("cell.guest_promotions"), "count"),
        "policy.host_promotions": (g("cell.host_promotions"), "count"),
        "policy.pages_copied": (g("cell.pages_copied"), "count"),
        "policy.demotions": (g("cell.demotions"), "count"),
        "os.shootdowns": (g("cell.shootdowns"), "count"),
        "workload.prefill_ms": (g("workload.prefill_ms"), "ms"),
        "workload.teardown_ms": (g("workload.teardown_ms"), "ms"),
        "gemini.bucket_hits": (g("cell.bucket_hits"), "count"),
        "gemini.bookings_started": (g("cell.bookings_started"), "count"),
        "gemini.bookings_expired": (g("cell.bookings_expired"), "count"),
        "gemini.booking_assign_ratio": (ratio(g("trace.booking_assign"), g("trace.booking_book")), "ratio"),
        "mmu.steady_ms": (g("mmu.steady_ms"), "ms"),
        "mmu.ns_per_access": (ratio(g("mmu.steady_ms") * 1e6, g("mmu.steady_ops")), "ns"),
        "mmu.tlb_hit_ratio": (ratio(g("steady.tlb_hits"), g("steady.tlb_hits") + g("steady.tlb_misses")), "ratio"),
        "mmu.stale_hits": (g("steady.stale_hits"), "count"),
        "mmu.walk_mem_refs": (g("steady.walk_mem_refs"), "count"),
        "mmu.walk_cached_refs": (g("steady.walk_cached_refs"), "count"),
        "mmu.walk_memo_hits": (g("steady.walk_memo_hits"), "count"),
        "mmu.table_mutations": (g("mmu.table_mutations"), "count"),
        "mmu.batch_fastpath_ratio": (ratio(g("steady.batch_fastpath_hits"), g("steady.batched_accesses")), "ratio"),
        "daemon.ticks": (g("trace.daemon_ticks"), "count"),
        "daemon.us_per_tick": (ratio(g("cell.exec_ms") * 1e3, g("trace.daemon_ticks")), "us"),
        "gemini.promote_in_place": (g("trace.promote_in_place"), "count"),
        "gemini.promote_migrate": (g("trace.promote_migrate"), "count"),
        "workload.exec_ms": (g("workload.exec_ms"), "ms"),
        "workload.epochs": (g("workload.epochs"), "count"),
        "workload.us_per_epoch": (ratio(g("workload.exec_ms") * 1e3, g("workload.epochs")), "us"),
        "workload.parallel_ops": (g("workload.parallel_ops"), "count"),
        "workload.serial_ops": (g("workload.serial_ops"), "count"),
        "workload.parallel_op_frac": (ratio(g("workload.parallel_ops"),
                                            g("workload.parallel_ops") + g("workload.serial_ops")), "ratio"),
    }


def per_layer(workload, untraced, untraced_cells, traced):
    per_pass = [layer_metrics(p["layers"]) for p in traced]
    out = {name: (median([m[name][0] for m in per_pass]), unit)
           for name, (_, unit) in per_pass[0].items()}
    if workload == "colloc_64":
        # RunCollocatedMany writes the trace file before it returns, so a
        # traced cell's setup span includes the write; untraced cells give
        # the setup itself.
        sums = [sum(c["setup_ms"] for c in untraced_cells if c["pass"] == p["pass"])
                for p in untraced]
        out["harness.setup_ms"] = (median(sums), "ms")
    base = median([p["wall_ms"] for p in untraced])
    out["trace.overhead_frac"] = (ratio(median([p["wall_ms"] for p in traced]) - base, base), "ratio")
    dropped = max(p["layers"].get("trace.dropped", 0.0) for p in traced)
    missing = []
    if dropped > 0:
        missing = list(TRACER_METRICS)
        for name in missing:
            del out[name]
    return out, missing


def evaluate(workload, seed, seconds, trace, tiny, reference):
    """Runs one workload; returns (result dict, human-readable lines)."""
    records, code = run_driver(workload, seed, seconds, trace, tiny)
    lines = []
    attempted, failed, messages = check_digests(workload, seed, records, reference)
    lines += messages
    ends = [r for r in records if r["type"] == "end"]
    if code != 0 or not ends:
        # The driver aborted (e.g. a SIM_CHECK): the cell it was running failed.
        lines.append(f"driver exited with code {code} before finishing")
        result = {"correct": False, "attempted": attempted + 1, "failed": failed + 1, "metrics": {}}
        return result, lines
    end = ends[0]
    passes = [r for r in records if r["type"] == "pass"]
    cells = [r for r in records if r["type"] == "cell"]
    untraced = [p for p in passes if not p["traced"]]
    untraced_cells = [c for c in cells if not c["traced"]]
    prov = dict(end["provenance"], workload=workload, source=source_id())
    lines.append("provenance: " + json.dumps(prov, sort_keys=True))
    if not prov["optimized"]:
        lines.append("WARNING: unoptimised build; do not compare with optimised numbers")
    lines.append(f"passes: {len(untraced)} untraced, {len(passes) - len(untraced)} traced; "
                 f"cells per run: {len(untraced_cells)}")
    frac = ratio(failed, attempted)
    lines.append(f"cells_failed_frac = {frac:.6g} ratio ({failed} of {attempted})")
    if workload in SWEEPS:
        shape = median([gemini_vs_base([c for c in cells if c["pass"] == p["pass"]]) for p in passes])
        lines.append(f"sim_gemini_vs_base = {shape:.6g} ratio (simulated)")
    if trace:
        metrics, missing = per_layer(workload, untraced, untraced_cells,
                                     [p for p in passes if p["traced"]])
        for name in missing:
            lines.append(f"MISSING {name}: the tracer dropped events")
    else:
        metrics = end_to_end(untraced, untraced_cells, end)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def source_id():
    """The git commit when run from a clone, else a hash of the sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.glob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def benchmark(args):
    reference = load_reference(args.reference)
    result, lines = evaluate(args.workload, args.seed, args.seconds, args.trace, args.tiny, reference)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def record_reference(args):
    """Rewrites reference_digests.json from one pass of each workload."""
    reference = {"seed": args.seed, "workloads": {}}
    for workload in WORKLOADS:
        records, code = run_driver(workload, args.seed, 0.001, 0, False)
        if code != 0:
            fail(f"{workload}: driver exited with code {code}")
        cells = [r for r in records if r["type"] == "cell"]
        reference["workloads"][workload] = {c["name"]: c["digest"] for c in cells}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def self_test(args):
    """Checks the benchmark's own contract at a tiny size."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    reference = {"seed": args.seed, "workloads": {}}
    for workload in WORKLOADS:
        records, code = run_driver(workload, args.seed, 0.001, 1, True)
        if code != 0:
            problems.append(f"{workload}: driver exited with code {code}")
            continue
        reference["workloads"][workload] = {
            c["name"]: c["digest"] for c in records if c["type"] == "cell" and c["pass"] == 0}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = evaluate(workload, args.seed, 0.001, trace, True, reference)
            tag = f"{workload} --trace {trace}"
            if not result["correct"]:
                problems.append(f"{tag}: not correct: {lines[:3]}")
            reported = result["metrics"]
            missing = [l.split()[1] for l in lines if l.startswith("MISSING ")]
            for name, unit in declared[trace].items():
                printed = [l for l in lines if l.startswith(f"{name} = ")]
                if name in missing:
                    continue
                if len(printed) != 1 or not printed[0].endswith(f" {unit}"):
                    problems.append(f"{tag}: {name} not printed once with unit {unit}")
                if reported.get(name, {}).get("unit") != unit:
                    problems.append(f"{tag}: {name} missing from the result or wrong unit")
            extra = set(reported) - set(declared[trace])
            if extra:
                problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
    # A corrupted reference digest must fail the run with a non-zero exit.
    corrupt = json.loads(json.dumps(reference))
    cells = corrupt["workloads"]["translate_bound"]
    first = sorted(cells)[0]
    cells[first] = "0" * 16 if cells[first] != "0" * 16 else "1" * 16
    bad_path = BUILD_DIR / "selftest_corrupt.json"
    bad_path.write_text(json.dumps(corrupt))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", "translate_bound",
           "--seed", str(args.seed), "--seconds", "0.001", "--trace", "0", "--tiny",
           "--reference", str(bad_path)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    last = json.loads(done.stdout.splitlines()[-1]) if done.stdout.strip() else {}
    frac_lines = [l for l in done.stdout.splitlines() if l.startswith("cells_failed_frac = ")]
    if done.returncode == 0 or last.get("failed", 0) == 0 or not frac_lines \
            or float(frac_lines[0].split()[2]) <= 0:
        problems.append("a corrupted reference digest did not fail the run")
    # A GEMINI_* variable in the environment must refuse the run, in this
    # script and in the driver.
    env = dict(os.environ, GEMINI_BATCH="1")
    driver = [str(BINARY), "--workload", "translate_bound", "--seconds", "0.001", "--tiny"]
    for refused in (cmd[:-2], driver):
        done = subprocess.run(refused, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        if done.returncode == 0:
            problems.append(f"GEMINI_BATCH in the environment did not refuse {refused[0]}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's contract at a tiny size")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference_digests.json at --seed (only when a change "
                             "is meant to alter simulated results)")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", default=str(REFERENCE), help=argparse.SUPPRESS)
    args = parser.parse_args()
    refuse_gemini_environment()
    if not (args.self_test or args.record_reference or args.workload):
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test(args)
    if args.record_reference:
        return record_reference(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
