#!/usr/bin/env python3
"""Run one npfsim benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the simulator's
libraries and the driver (perfbench/npfbench.cc) from source into
$CARGO_TARGET_DIR (default .bench_build); later runs reuse the build.

stdout: the driver's summary line, a `stamp` line (nproc, CPU model,
compiler, build type, source revision, seed), then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A run is incorrect when the driver reports a problem (allocations in a
gated window, a traced run that diverges from the untraced one) or when
its checkpoint digest differs from the one pinned in digests.txt for
this (workload, seed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("eth_memcached_pin", "eth_wss_swap_npf", "ib_kv_openloop",
             "shard_kv_ring")

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "sim_s_per_wall_s": "ratio",
    "peak_rss_mb": "MiB",
    "sim_ops_per_s": "ops/sim-s",
    "sim_p50_us": "sim-us",
    "sim_p99_us": "sim-us",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.schedule_run_ns": "ns",
    "sim.steady_allocs": "count",
    "shard.busy_frac": "ratio",
    "shard.events_max_over_mean": "ratio",
    "shard.cross_msgs": "count",
    "load.site_ns": "ns/op",
    "load.issued": "count",
    "load.shed": "count",
    "load.key_draw_ns": "ns",
    "ib.site_ns": "ns/op",
    "ib.packets": "count",
    "ib.retransmitted": "count",
    "ib.rnr_nacks": "count",
    "ib.send_npfs": "count",
    "net.site_ns": "ns/op",
    "net.link_deliveries": "count",
    "net.fabric_packets": "count",
    "tcp.site_ns": "ns/op",
    "tcp.segments": "count",
    "tcp.retransmits": "count",
    "eth.site_ns": "ns/op",
    "eth.rx_frames": "count",
    "eth.backup_parked": "count",
    "eth.rx_drops": "count",
    "core.site_ns": "ns/op",
    "core.npfs": "count",
    "core.merged_frac": "ratio",
    "core.dma_access_ns": "ns",
    "core.resolve_ns": "ns",
    "iommu.iotlb_hit_frac": "ratio",
    "iommu.iotlb_lookup_ns": "ns",
    "iommu.invalidations": "count",
    "mem.minor_faults": "count",
    "mem.major_faults": "count",
    "mem.evictions": "count",
    "mem.touch_ns": "ns",
    "app.site_ns": "ns/op",
    "app.kv_hit_frac": "ratio",
    "app.kv_get_ns": "ns",
    "attr.queue_us": "sim-us",
    "attr.npf_driver_us": "sim-us",
    "attr.rnr_backoff_us": "sim-us",
    "attr.retransmit_us": "sim-us",
    "trace.explained_frac": "ratio",
    "trace.unlabeled_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(allow_abbrev=False,
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=nonneg_int)
    p.add_argument("--seconds", required=True, type=seconds_int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args(argv)


def nonneg_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError("not a whole number: %r" % text)
    return int(text)


def seconds_int(text):
    v = nonneg_int(text)
    if not 1 <= v <= 3600:
        raise argparse.ArgumentTypeError("out of range 1..3600: %r" % text)
    return v


def build():
    """Configure once, then (re)build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, out, "npfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_build(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build(["cmake", "--build", out, "--target", "npfbench", "-j", jobs])
    return os.path.join(out, "npfbench")


def run_build(cmd):
    # Build chatter goes to stderr: stdout carries only the result.
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=840)
    except subprocess.TimeoutExpired:
        fail("build timed out after 840 s: " + " ".join(cmd))
    if r.returncode != 0:
        fail("build failed: " + " ".join(cmd))


def source_rev():
    """git HEAD when available, else a hash of the sources measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def pinned_digests():
    pins = {}
    with open(os.path.join(HERE, "digests.txt")) as fh:
        for line in fh:
            line = line.split("#", 1)[0].split()
            if line:
                pins[(line[0], int(line[1]))] = line[2]
    return pins


def main(argv):
    args = parse_args(argv)
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    # A traced run takes up to about three times --seconds, plus set-up.
    timeout = 140 + 3 * args.seconds
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % timeout)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("driver failed (exit %d)" % r.returncode)
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])

    correct = bool(res["correct"])
    pin = pinned_digests().get((args.workload, args.seed))
    if pin is None:
        print("digest: no pinned value for (%s, %d)" %
              (args.workload, args.seed))
    elif pin != res["check_digest"]:
        correct = False
        print("FAIL: checkpoint digest %s, pinned %s" %
              (res["check_digest"], pin))

    stamp = dict(res["stamp"])
    stamp["rev"] = source_rev()
    stamp["workload"] = args.workload
    print("stamp " + json.dumps(stamp, sort_keys=True))

    units = PER_LAYER if args.trace == "1" else END_TO_END
    missing = set(units) - set(res["metrics"])
    if missing:
        fail("driver did not report: " + ", ".join(sorted(missing)))
    metrics = {name: {"value": res["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
