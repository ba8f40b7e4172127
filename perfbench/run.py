#!/usr/bin/env python3
"""End-to-end benchmark of the DPO-AF pipeline (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_t1 --seed 3 --seconds 50 --trace 0

Builds perfbench_worker from the checkout's sources into .bench_build/ on
first use, then, for one workload:

  1. times cold pipeline construction in fresh processes (setup_s is the
     fastest) and, in separate probes, DrivingDomain / tokenizer / model init;
  2. runs about --seconds worth of whole pipeline passes (one with
     --trace 1), one training seed each, every one in a fresh process with
     tracing off; the end-to-end metrics other than setup_s are means over
     the passes;
  3. paper_t1 only: runs the first pass again at 2 threads and requires
     the same RunResult digest (traced with --trace 1, for util.*);
  4. with --trace 1, reruns the first pass with the obs layer on (same
     digest required), prints the per-layer table with self time per span
     and writes a Chrome trace to .bench_build/traces/.

A pass that fails one of its output checks counts as failed. The last line
of stdout is the JSON result: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
WORKER = BUILD / "perfbench_worker"

WORKLOADS = ("paper_t1", "gen64_serve")
# Cold set-up is a few milliseconds, so one sample is mostly noise: time
# many fresh processes (in-process repeats would be warm, the Büchi and
# monitor caches being process-wide) and take the fastest. A vCPU of a
# shared host runs set-up at one speed or ~1.4x slower for tens of seconds
# at a time, so the median of a run's probes jumps between the two; the
# fastest probe is the code's own cost.
SETUP_PROBES = 21
PARTS_PROBES = 5
# Nominal seconds of one untraced pass; a run makes about --seconds worth of
# passes, a count fixed by --seconds alone so that a faster program still
# averages quality over the same training seeds.
PASS_S = 10
# The pipeline's result must not depend on its thread count; at 1 thread
# parallel_for runs inline, so the twin is also where util.* shows dispatch.
TWIN_THREADS = 2
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "spec_sat_pct": "%",
}
LAYER_UNITS = {
    "core.setup_s": "s",
    "core.pretrain_s": "s",
    "core.collect_s": "s",
    "core.rank_s": "s",
    "core.dpo_s": "s",
    "core.eval_s": "s",
    "core.overlap_ratio": "ratio",
    "core.backpressure_waits": "count",
    "core.span_coverage": "ratio",
    "core.collect_eval_share": "ratio",
    "lm.pretrain_epoch_s": "s",
    "lm.gen_tokens": "count",
    "lm.gen_tok_per_s": "1/s",
    "lm.tokenizer_s": "s",
    "nn.model_init_s": "s",
    "tensor.matmul_calls": "count",
    "tensor.matmul_gflop": "GFLOP",
    "tensor.flop_per_call": "FLOP",
    "tensor.gflops": "GFLOP/s",
    "util.parallel_for_calls": "count",
    "util.inline_ratio": "ratio",
    "util.jobs": "count",
    "util.sys_s": "s",
    "dpo.epoch_s": "s",
    "dpo.pairs_per_s": "1/s",
    "dpo.ref_precompute_s": "s",
    "serve.tok_per_s": "1/s",
    "serve.ttft_p50_ms": "ms",
    "serve.ttft_p99_ms": "ms",
    "serve.ttft_samples": "count",
    "serve.queue_p50_ms": "ms",
    "serve.queue_samples": "count",
    "serve.prefix_hit_ratio": "ratio",
    "serve.iterations": "count",
    "glm2fsa.synthesis_s": "s",
    "glm2fsa.aligned_ratio": "ratio",
    "modelcheck.verify_s": "s",
    "modelcheck.checks": "count",
    "modelcheck.check_p50_us": "us",
    "modelcheck.check_p99_us": "us",
    "modelcheck.buchi_hit_ratio": "ratio",
    "driving.feedback_hit_ratio": "ratio",
    "driving.feedback_computed": "count",
    "driving.domain_s": "s",
    "monitor.compilations": "count",
    "monitor.hit_ratio": "ratio",
    "obs.overhead_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the worker; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_worker"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def child_env():
    # Threads and backend are pinned by the workload, never by the caller.
    return {k: v for k, v in os.environ.items() if k not in ("DPOAF_THREADS", "DPOAF_BACKEND")}


def spawn(args):
    """Run the worker once; returns (spawn time, parsed JSON or None)."""
    t_spawn = time.monotonic()
    try:
        p = subprocess.run([str(WORKER)] + args, env=child_env(), capture_output=True,
                           text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: worker {' '.join(args)} timed out")
        return t_spawn, None
    if p.returncode != 0:
        log(f"perfbench: worker {' '.join(args)} exited {p.returncode}: {p.stderr.strip()}")
        return t_spawn, None
    try:
        return t_spawn, json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: worker {' '.join(args)} printed no result")
        return t_spawn, None


def steal_s():
    """Host CPU steal time so far, summed over CPUs (diagnostic only)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Passes:
    """Pipeline passes of one invocation and the checks each must pass."""

    def __init__(self, workload, smoke):
        self.workload = workload
        self.smoke = smoke
        self.attempted = 0
        self.failures = []

    def run(self, label, seed, extra=(), expect_digest=None):
        self.attempted += 1
        args = ["run", "--workload", self.workload, "--seed", str(seed)] + list(extra)
        t_spawn, out = spawn(args + (["--smoke"] if self.smoke else []))
        if out is None:
            self.failures.append(f"{label}: worker failed")
            return None
        out["wall_s"] = out["t_done"] - t_spawn
        problems = list(out["failed_checks"])
        if expect_digest is not None and out["digest"] != expect_digest:
            problems.append(f"digest {out['digest']} != {expect_digest}")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return out


def print_table(title, rows):
    print(f"== {title} ==")
    width = max(len(r[0]) for r in rows)
    for row in rows:
        print("  " + row[0].ljust(width) + "  " + "  ".join(str(c) for c in row[1:]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny variant of the workload (benchmark self-test)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    # Pass i of run seed s trains with pipeline seed s*1000+i, so the same
    # --seed always gives the same passes. A traced run reports only the
    # traced pass; one untraced pass of its seed gives obs.overhead_s.
    n_passes = 1 if args.smoke or args.trace else max(1, int(args.seconds / PASS_S + 0.5))
    seeds = [args.seed * 1000 + i for i in range(n_passes)]
    probe = ["--workload", args.workload, "--seed", str(seeds[0])] + (["--smoke"] if args.smoke else [])
    setup_probes = 3 if args.smoke else SETUP_PROBES
    parts_probes = 1 if args.smoke else PARTS_PROBES
    steal0 = steal_s()

    # Cold set-up probes go in groups before, between and after the passes,
    # so one slow stretch of the host cannot skew all of them. The first
    # probe loads the binary into the page cache and is discarded.
    spawn(["setup"] + probe)
    setup, parts = [], []
    groups = n_passes + 1

    def probe_group(g):
        for _ in range(g, setup_probes, groups):
            setup.append(spawn(["setup"] + probe)[1])
        for _ in range(g, parts_probes, groups):
            parts.append(spawn(["parts"] + probe)[1])

    passes = Passes(args.workload, args.smoke)
    reps = []
    for i, seed in enumerate(seeds):
        probe_group(i)
        out = passes.run(f"pass {i + 1} (seed {seed})", seed)
        if out is not None:
            reps.append(out)
    probe_group(n_passes)
    probe_failures = sum(1 for x in setup + parts if x is None)
    setup = [x for x in setup if x is not None]
    parts = [x for x in parts if x is not None]
    # The parts probe rebuilds the pipeline's model config by hand; the
    # parameter count catches it drifting from the constructor's.
    if len({x["parameters"] for x in setup + parts}) > 1:
        passes.failures.append("parts probe built a different model than the pipeline")
    digest = reps[0]["digest"] if reps else None

    trace_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    twin = None
    if args.workload == "paper_t1":
        twin_args = ["--threads", str(TWIN_THREADS)]
        if args.trace:
            twin_args += ["--trace-json", str(trace_path.with_suffix(f".t{TWIN_THREADS}.json"))]
        twin = passes.run(f"{TWIN_THREADS}-thread twin", seeds[0], twin_args, expect_digest=digest)

    # Traced pass; tracing must not change any computed number.
    traced = None
    if args.trace:
        traced = passes.run("traced pass", seeds[0], ["--trace-json", str(trace_path)],
                            expect_digest=digest)
    steal1 = steal_s()

    if len(reps) < n_passes or not setup or not parts or (args.trace and traced is None):
        for f in passes.failures:
            log(f"FAILED {f}")
        sys.exit("perfbench: a pass or probe did not complete; no result")

    # Passes train different seeds, so their costs differ systematically; a
    # median would jump between seeds, the mean averages over the fixed set.
    e2e = {
        "wall_s": statistics.fmean(r["wall_s"] for r in reps),
        "setup_s": min(x["setup_s"] for x in setup),
        "cpu_s": statistics.fmean(r["user_s"] + r["sys_s"] for r in reps),
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in reps),
        "spec_sat_pct": statistics.fmean(r["spec_sat_pct"] for r in reps),
    }
    first = reps[0]
    print(f"# run: workload={args.workload} seed={args.seed} passes={len(reps)} "
          f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"backend={first['backend']} simd_supported={str(first['simd_supported']).lower()} "
          f"threads={first['threads']} pairs={int(first['pairs'])} digest={first['digest']} "
          f"steal_s={steal1 - steal0:.2f}")
    print("# passes: " + " ".join(f"seed {s}: wall {r['wall_s']:.3f}s "
                                  f"cpu {r['user_s'] + r['sys_s']:.3f}s sat {r['spec_sat_pct']:.2f}%"
                                  for s, r in zip(seeds, reps)))
    print_table(f"{args.workload} end-to-end (mean of {len(reps)} passes; "
                f"setup_s fastest of {len(setup)} cold probes)",
                [(k, f"{v:.6g}", END_TO_END_UNITS[k]) for k, v in e2e.items()])
    stage_rows = [(k, f"{statistics.fmean(r['stage_s'][k] for r in reps):.4f}", "s")
                  for k in first["stage_s"]]
    print_table("stage wall time, untraced (mean)", stage_rows)

    if traced is not None:
        layer = dict(traced["layer"])
        traced_wall = traced["wall_s"]
        stages = ("core.setup_s", "core.pretrain_s", "core.collect_s", "core.rank_s",
                  "core.dpo_s", "core.eval_s")
        layer["core.span_coverage"] = sum(layer[k] for k in stages) / traced_wall
        layer["core.collect_eval_share"] = (layer["core.collect_s"] + layer["core.eval_s"]) / traced_wall
        layer["driving.domain_s"] = min(p["domain_s"] for p in parts)
        layer["lm.tokenizer_s"] = min(p["tokenizer_s"] for p in parts)
        layer["nn.model_init_s"] = min(p["model_init_s"] for p in parts)
        layer["obs.overhead_s"] = traced_wall - reps[0]["wall_s"]
        if twin is not None:
            layer.update((k, v) for k, v in twin["layer"].items() if k.startswith("util."))
        print_table("spans of the traced pass (self = total minus direct children)",
                    [(s["name"], f"n={int(s['count'])}", f"total={s['total_s']:.4f}s",
                      f"self={s['self_s']:.4f}s") for s in traced["spans"]])
        print_table(f"per-layer metrics (traced pass, wall {traced_wall:.3f} s)",
                    [(k, f"{layer[k]:.6g}", LAYER_UNITS[k]) for k in LAYER_UNITS])
        print(f"# chrome trace: {trace_path}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    for f in passes.failures:
        print(f"# FAILED {f}")
    failed = len(passes.failures) + probe_failures
    result = {
        "correct": failed == 0,
        "attempted": passes.attempted + setup_probes + parts_probes,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
