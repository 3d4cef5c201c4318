#!/usr/bin/env python3
"""CEIO simulator benchmark.

    python3 perfbench/run.py --workload kv|multitenant|shardkv --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which links the simulator's
libraries from src/) into .bench_build/perfbench, runs the workload in a
process of its own, checks its outputs and prints every metric by name with
its unit, then one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 makes the separate
traced run and reports the per-layer metrics, writing a Perfetto trace and
a per-layer table under .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "perfbench_sim")
WORKLOADS = ("kv", "multitenant", "shardkv")
SIM_TIMEOUT_S = 170

END_TO_END = (
    ("pkts_per_s", "pkt/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_mpps", "Mpps"),
    ("sim_goodput_gbps", "Gbps"),
    ("sim_p99_us", "us"),
)

# (metric, unit, layer, end-to-end metric it should move, workload with
# the most work / with little or none of it).
PER_LAYER = (
    ("sched.events", "count", "scheduler", "pkts_per_s", "kv / all"),
    ("sched.events_per_pkt", "events/pkt", "scheduler", "pkts_per_s", "kv / all"),
    ("sched.ns_per_event", "ns", "scheduler", "pkts_per_s", "kv / all"),
    ("shard.epochs", "count", "shard coordinator", "pkts_per_s", "shardkv / kv, multitenant"),
    ("shard.us_per_epoch", "us", "shard coordinator", "pkts_per_s", "shardkv / kv, multitenant"),
    ("shard.sync_ns", "ns", "shard coordinator", "pkts_per_s", "shardkv / kv, multitenant"),
    ("shard.speedup", "x", "shard coordinator", "pkts_per_s", "shardkv / kv, multitenant"),
    ("shard.mailbox_spills", "count", "shard coordinator", "pkts_per_s",
     "shardkv / kv, multitenant"),
    ("llc.ddio_writes", "count", "LLC", "sim_p99_us, sim_mpps", "multitenant, kv / shardkv"),
    ("llc.cpu_hits", "count", "LLC", "sim_p99_us, sim_mpps", "kv / shardkv"),
    ("llc.cpu_misses", "count", "LLC", "sim_p99_us, sim_mpps", "multitenant / shardkv"),
    ("llc.premature_evictions", "count", "LLC", "sim_p99_us, sim_mpps",
     "multitenant / shardkv"),
    ("llc.writebacks", "count", "LLC", "sim_p99_us, sim_mpps", "multitenant / shardkv"),
    ("llc.ns_per_op", "ns", "LLC", "pkts_per_s", "multitenant, kv / shardkv"),
    ("dram.requests", "count", "DRAM + MC", "sim_p99_us", "multitenant / shardkv"),
    ("dram.busy_us", "us", "DRAM + MC", "sim_p99_us", "multitenant / shardkv"),
    ("mc.iio_stalls", "count", "DRAM + MC", "sim_p99_us", "multitenant / shardkv"),
    ("cpu.packets", "count", "CPU cores", "sim_mpps", "kv / shardkv"),
    ("cpu.busy_us", "us", "CPU cores", "sim_mpps", "kv / shardkv"),
    ("cpu.mem_stall_us", "us", "CPU cores", "sim_mpps", "kv / shardkv"),
    ("dma.writes", "count", "PCIe + DMA", "sim_goodput_gbps", "multitenant / kv"),
    ("dma.reads", "count", "PCIe + DMA", "sim_goodput_gbps", "multitenant / kv"),
    ("pcie.up_mib", "MiB", "PCIe + DMA", "sim_goodput_gbps", "multitenant / kv"),
    ("pcie.down_mib", "MiB", "PCIe + DMA", "sim_goodput_gbps", "multitenant / kv"),
    ("nic.rx_packets", "count", "NIC + on-NIC memory", "sim_p99_us", "multitenant / kv"),
    ("nicmem.reads", "count", "NIC + on-NIC memory", "sim_p99_us", "multitenant / kv"),
    ("nicmem.writes", "count", "NIC + on-NIC memory", "sim_p99_us", "multitenant / kv"),
    ("nicmem.peak_kib", "KiB", "NIC + on-NIC memory", "sim_p99_us", "multitenant / kv"),
    ("net.pkts_sent", "count", "flow sources + link", "attempted", "all"),
    ("net.pkts_dropped", "count", "flow sources + link", "failed", "all"),
    ("ceio.to_slow", "count", "CEIO datapath", "sim_p99_us, sim_mpps", "kv / shardkv"),
    ("ceio.to_fast", "count", "CEIO datapath", "sim_p99_us, sim_mpps", "kv / shardkv"),
    ("ceio.reclaims", "count", "CEIO datapath", "sim_p99_us, sim_mpps", "kv / shardkv"),
    ("ceio.cca_triggers", "count", "CEIO datapath", "sim_p99_us, sim_mpps", "kv / shardkv"),
    ("ebuf.buffered_pkts", "count", "CEIO datapath", "sim_p99_us, sim_mpps", "kv / shardkv"),
    ("ebuf.drained_pkts", "count", "CEIO datapath", "sim_p99_us, sim_mpps", "kv / shardkv"),
    ("policy.repartitions", "count", "way controller", "sim_p99_us",
     "multitenant / kv, shardkv"),
    ("app.calls", "count", "apps", "pkts_per_s", "kv / multitenant"),
    ("app.ns_per_call", "ns", "apps", "pkts_per_s", "kv / multitenant"),
    ("setup.us_per_flow", "us", "deployment + flow state", "setup_s", "shardkv / kv"),
    ("flow.state_kib", "KiB", "deployment + flow state", "peak_rss_mib", "shardkv / kv"),
)

# Layers a sharded deployment keeps out of reach of the public API: its
# cores and applications live inside the domain slices of ShardedTestbed.
UNREACHABLE = {"shardkv": ("cpu.", "app.")}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("simulator sources (src/) not found next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail_setup("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append([cmake, "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append([cmake, "--build", BUILD, "--target", "perfbench_sim", "-j", jobs])
        for cmd in steps:
            # Build output goes to stderr: stdout carries only the results.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail_setup("build failed: " + " ".join(cmd))


def run_sim(args):
    cmd = [BINARY] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=SIM_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail_setup("perfbench_sim timed out: " + " ".join(args))
    if proc.returncode != 0:
        fail_setup("perfbench_sim exited %d: %s" % (proc.returncode, " ".join(args)))
    return json.loads(proc.stdout)


def end_to_end_metrics(rec):
    subs = rec["subruns"]
    return {
        "pkts_per_s": rec["pkts_per_s_median"],
        "setup_s": rec["setup_s_median"],
        "peak_rss_mib": rec["peak_rss_kib"] / 1024.0,
        "sim_mpps": statistics.median(s["aggregate_mpps"] for s in subs),
        "sim_goodput_gbps": statistics.median(s["aggregate_message_gbps"] for s in subs),
        "sim_p99_us": statistics.median(s["tail_p99_exact_ns"] for s in subs) / 1e3,
    }


def layer_table(workload, rec, values):
    lines = ["per-layer metrics: workload %s, seed %s" % (workload, rec["seed"]),
             "%-24s %16s %-10s %-22s %-22s %s" % ("metric", "value", "unit", "layer",
                                                  "should move", "most / little work")]
    skip = UNREACHABLE.get(workload, ())
    for name, unit, layer, moves, where in PER_LAYER:
        shown = "n/a" if name.startswith(skip) else "%.6g" % values[name]
        lines.append("%-24s %16s %-10s %-22s %-22s %s" % (name, shown, unit, layer, moves, where))
    sizing = rec["probe_sizing"]
    untraced = rec["pkts_per_s_untraced"]
    overhead = 1.0 - rec["pkts_per_s_traced"] / untraced if untraced > 0 else 0.0
    lines += ["",
              "tracing overhead: %.1f%% of pkts_per_s (traced %.0f vs untraced %.0f pkt/s)"
              % (100 * overhead, rec["pkts_per_s_traced"], untraced),
              "probe sizing: " + json.dumps(sizing, sort_keys=True)]
    if skip:
        lines.append("n/a: %s are not reachable through the public API on %s"
                     % (", ".join(p + "*" for p in skip), workload))
    return "\n".join(lines) + "\n"


def append_check_span(trace_file, check_s):
    """Adds the output-check span after the last span of the trace."""
    with open(trace_file) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    end = max((e["ts"] + e.get("dur", 0) for e in events if e.get("ph") == "X"), default=0)
    events.append({"name": "checks", "cat": "perfbench", "ph": "X", "pid": 1, "tid": 1,
                   "ts": end, "dur": check_s * 1e6})
    with open(trace_file, "w") as f:
        json.dump(trace, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="shortened windows and fewer sub-seeds (the benchmark's tests)")
    opt = ap.parse_args()
    if opt.seed < 0:
        fail_setup("--seed must be non-negative")

    build()
    args = ["--workload", opt.workload, "--seed", str(opt.seed),
            "--seconds", repr(opt.seconds), "--trace", str(opt.trace)]
    prefix = os.path.join(TRACES, "%s-seed%d" % (opt.workload, opt.seed))
    if opt.trace:
        os.makedirs(TRACES, exist_ok=True)
        args += ["--trace-out", prefix]
    if opt.short:
        args.append("--short")
    rec = run_sim(args)

    t0 = time.perf_counter()
    failures = checks.check_record(rec)
    check_s = time.perf_counter() - t0
    for msg in failures:
        log("CHECK FAILED: " + msg)

    if opt.trace:
        values = rec["layers"]
        table = layer_table(opt.workload, rec, values)
        with open(prefix + ".layers.txt", "w") as f:
            f.write(table)
        append_check_span(rec["trace_file"], check_s)
        print(table, end="")
        print("trace: %s" % os.path.relpath(rec["trace_file"], ROOT))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        values = end_to_end_metrics(rec)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print("%-18s %16.6f %s" % (name, values[name], unit))
        print("(host times at the reference host speed; uncalibrated %.0f pkt/s, set-up %.6f s)"
              % (rec["pkts_per_s_raw_median"], rec["setup_s_raw_median"]))
    print("packets attempted %d, failed %d; checks %s"
          % (rec["attempted"], rec["failed"], "passed" if not failures else "FAILED"))
    print(json.dumps({"correct": not failures, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
