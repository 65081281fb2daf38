#!/usr/bin/env python3
"""Self-tests for the npfsim benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (it drives perfbench/run.py with short
windows, about three minutes in all). Checks that

  - every workload emits every declared end-to-end and per-layer
    metric, every metric name matches [A-Za-z0-9_.-]+, and the tables
    in run.py agree with BENCHMARK.json;
  - two runs with one seed give the same digest and two seeds give
    different digests;
  - trace.explained_frac lies in (0, 1];
  - the workloads stress different layers (the contrasts the benchmark
    is built on);
  - malformed command lines exit non-zero without a result.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, seed, trace, seconds=1):
    r = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=run.ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit("run.py failed for %s seed %d" % (workload, seed))
    lines = r.stdout.strip().splitlines()
    summary = next(l for l in lines if l.startswith("workload="))
    fields = dict(kv.split("=", 1) for kv in summary.split())
    return json.loads(lines[-1]), fields["digest"]


def metric(res, name):
    return res["metrics"][name]["value"]


def main():
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
        check([m["name"] for m in spec["end_to_end"]] ==
              list(run.END_TO_END), "run.py end-to-end table = BENCHMARK.json")
        check([m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER),
              "run.py per-layer table = BENCHMARK.json")
        check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
              "run.py workloads = BENCHMARK.json")
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        check(NAME.match(name) is not None, "metric name %r is well formed"
              % name)

    traced = {}
    for w in run.WORKLOADS:
        a, da = bench(w, 1, 0)
        b, db = bench(w, 1, 0)
        c, dc = bench(w, 2, 0)
        t, dt = bench(w, 1, 1)
        traced[w] = t
        check(all(r["correct"] for r in (a, b, c, t)), w + ": runs correct")
        check(set(a["metrics"]) == set(run.END_TO_END),
              w + ": emits every end-to-end metric")
        check(set(t["metrics"]) == set(run.PER_LAYER),
              w + ": emits every per-layer metric")
        check(da == db, w + ": one seed, one digest")
        check(da != dc, w + ": two seeds, two digests")
        check(dt == da, w + ": traced run reproduces the digest")
        sim_keys = ("sim_ops_per_s", "sim_p50_us", "sim_p99_us", "ok_frac")
        check(all(metric(a, k) == metric(b, k) for k in sim_keys),
              w + ": simulated metrics repeat exactly")
        check(all(m["value"] is not None and m["value"] > 0
                  for m in a["metrics"].values()),
              w + ": end-to-end metrics are positive")
        ex = metric(t, "trace.explained_frac")
        check(0 < ex <= 1, w + ": trace.explained_frac in (0, 1] (%.3f)" % ex)

    def v(w, name):
        return metric(traced[w], name)

    check(v("eth_memcached_pin", "core.npfs") == 0,
          "eth_memcached_pin raises no NPF")
    check(v("eth_memcached_pin", "mem.evictions") == 0,
          "eth_memcached_pin evicts nothing")
    check(v("eth_wss_swap_npf", "core.npfs") > 0,
          "eth_wss_swap_npf raises NPFs")
    check(v("eth_wss_swap_npf", "mem.evictions") > 0,
          "eth_wss_swap_npf evicts")
    check(v("ib_kv_openloop", "tcp.segments") == 0,
          "ib_kv_openloop sends no TCP segment")
    check(v("ib_kv_openloop", "ib.send_npfs") > 0,
          "ib_kv_openloop raises send-side NPFs")
    for w in run.WORKLOADS:
        cross = v(w, "shard.cross_msgs")
        check((cross > 0) == (w == "shard_kv_ring"),
              w + ": shard.cross_msgs > 0 only when sharded")

    runpy = os.path.join(run.HERE, "run.py")
    good = ["--workload", "ib_kv_openloop", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    for bad in (good + ["--bogus"], good[:-2] + ["--trace", "2"],
                good[:4] + ["--seconds", "1.5"] + good[6:],
                ["--workload", "nope"] + good[2:], good[:-2]):
        r = subprocess.run([sys.executable, runpy] + bad, cwd=run.ROOT,
                           capture_output=True, text=True)
        check(r.returncode != 0 and not r.stdout.strip(),
              "rejects: " + " ".join(bad))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
