#!/bin/sh
# Full verification: the tier-1 test suite in the normal build and the
# benchmark's pinned digests, then the whole suite again under
# AddressSanitizer + UBSan. Run from the repository root.
# Usage: scripts/check.sh [--fast]
#   --fast   stop after the pinned digests (no sanitizer build)
set -eu

cd "$(dirname "$0")/.."
root=$PWD
asan=$root/build-asan/bench

fast=0
[ "${1:-}" = "--fast" ] && fast=1

jobs=$(nproc 2>/dev/null || echo 4)

# The helpers below write under $smokedir, which tier 3 creates.

# replay_twice <name> <cmd...>: runs <cmd...> twice, from $smokedir/a
# and then from $smokedir/b, with its stdout and stderr in <name>
# there. A failed run, or any difference between the two directories
# (outputs and the files the runs wrote), is fatal.
replay_twice() {
    name=$1 && shift
    for run in a b; do
        mkdir -p "$smokedir/$run"
        (cd "$smokedir/$run" && "$@") > "$smokedir/$run/$name" 2>&1 || {
            echo "FAIL: $name: $* failed:"
            cat "$smokedir/$run/$name"
            exit 1
        }
    done
    diff -r "$smokedir/a" "$smokedir/b" || {
        echo "FAIL: $name is not deterministic"
        exit 1
    }
    echo "$name: bit-identical replay"
}

# check_golden <dir> <file>: the outputs in <dir> must match the
# digests pinned in scripts/<file>.
check_golden() {
    (cd "$1" && sha256sum -c "$root/scripts/$2") || {
        echo "FAIL: an output in $1 diverged from its golden digest. If"
        echo "the divergence is intentional, regenerate scripts/$2."
        exit 1
    }
    echo "$2: bit-identical to goldens"
}

# require_gates <file> <gate...>: prints the gate lines of a gated
# bench's output ("gate <name> <value> <op><bound> ok|FAIL [soft]",
# bench/report.hh) and fails on a malformed gate line, a hard FAIL or
# a named gate that is missing: the rules of parseGateLine().
require_gates() {
    file=$1 && shift
    awk -v want="$*" '$1 == "gate" {
            print
            if (!(NF == 5 || (NF == 6 && $6 == "soft")) ||
                $5 !~ /^(ok|FAIL)$/ ||
                !($4 ~ /^(==|<=|>=)./ || $4 ~ /^[<>][^=]/)) {
                print "FAIL: malformed gate line"
                bad = 1
            } else if ($5 == "FAIL" && NF == 5)
                bad = 1
            seen[$2] = 1
        }
        END {
            n = split(want, w, " ")
            for (i = 1; i <= n; i++)
                if (!(w[i] in seen)) {
                    print "FAIL: missing gate " w[i]
                    bad = 1
                }
            exit bad
        }' "$file" || { echo "FAIL: $file: gates not met"; exit 1; }
}

# run_gated <out> <gates> <cmd...>: runs a gated bench with its stdout
# and stderr in <out>, then require_gates <out> <gates>. Exit 2 means
# only soft timing gates missed, which wall-clock noise at smoke scale
# excuses; any other failure is fatal.
run_gated() {
    out=$1 && gates=$2 && shift 2
    rc=0
    "$@" > "$out" 2>&1 || rc=$?
    if [ "$rc" -eq 2 ]; then
        echo "note: $1 missed a soft timing gate (ok at smoke scale)"
    elif [ "$rc" -ne 0 ]; then
        echo "FAIL: $* exited $rc:"
        cat "$out"
        exit 1
    fi
    require_gates "$out" "$gates"
}

# check_bench_json <file...>: every BENCH file parses as JSON with the
# one top-level key set bench/report.hh writes.
check_bench_json() {
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json, sys
keys = ["bench", "params", "tables", "values", "gates", "status"]
for path in sys.argv[1:]:
    got = list(json.load(open(path)))
    if got != keys:
        sys.exit("FAIL: %s: top-level keys %s, not %s" % (path, got, keys))
    print("%s: one BENCH schema" % path)' "$@"
    else
        echo "note: python3 not found, skipping BENCH schema validation"
    fi
}

echo "== tier 1: build + ctest =="
# Any compiler warning fails the build here. Only this tier asks for
# -Werror; CMakeLists.txt keeps plain -Wall -Wextra, so compilers that
# warn differently still build the tree.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== tier 1b: pinned benchmark digests (perfbench) =="
# perfbench/digests.txt pins every simulated observable of the four
# benchmark workloads per seed. A change that moves one fails here
# rather than in the benchmark run. One measure chunk per run.
if command -v python3 >/dev/null 2>&1; then
    for w in eth_memcached_pin eth_wss_swap_npf ib_kv_openloop \
        shard_kv_ring; do
        for seed in 0 1; do
            last=$(python3 perfbench/run.py --workload "$w" \
                --seed "$seed" --seconds 1 --trace 0 | tail -n 1)
            case $last in
                '{"correct": true,'*)
                    echo "perfbench $w seed $seed: digest matches" ;;
                *)
                    echo "FAIL: perfbench $w seed $seed: $last"
                    exit 1 ;;
            esac
        done
    done
else
    echo "note: python3 not found, skipping the pinned benchmark digests"
fi

if [ "$fast" -eq 1 ]; then
    echo "== skipping sanitizer pass (--fast) =="
    exit 0
fi

echo "== tier 2: ASan/UBSan build + ctest =="
# _GLIBCXX_ASSERTIONS range-checks std::vector indexing (and other
# libstdc++ preconditions) here and in tiers 3, 4 and 9, which drive
# the NP-RDMA, IOTLB-storm and KV paths off this build.
# float-cast-overflow is not part of GCC's -fsanitize=undefined; it
# catches a double converted to an integer type it does not fit.
cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS" \
    >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "== tier 3: fault smoke matrix (chaos_recovery under ASan/UBSan) =="
# Same seed + same plan must replay bit-identically (docs/FAULTS.md);
# run each seed twice under the sanitizers and diff the outputs.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
for seed in 1 2 3; do
    replay_twice "chaos_seed$seed.txt" "$asan/chaos_recovery" \
        --fault-seed="$seed"
done
if cmp -s "$smokedir/a/chaos_seed1.txt" "$smokedir/a/chaos_seed2.txt"; then
    echo "FAIL: seeds 1 and 2 produced identical runs (seed ignored?)"
    exit 1
fi

echo "== tier 4: load smoke (load_sweep under ASan/UBSan) =="
# Two swept rates at small scale; per-seed runs must replay
# bit-identically and different seeds must differ (docs/WORKLOADS.md).
load_args="--clients=2000 --endpoints=8 --rates=20k,60k \
    --workload=keys=zipf:n=5k,theta=0.99;get=0.9 \
    --warmup=200ms --duration=200ms"
for seed in 1 2; do
    replay_twice "load_seed$seed.txt" "$asan/load_sweep" $load_args \
        --seed="$seed"
    grep -q "SLO report" "$smokedir/a/load_seed$seed.txt" || {
        echo "FAIL: load_sweep seed $seed printed no SLO report"
        exit 1
    }
done
if cmp -s "$smokedir/a/load_seed1.txt" "$smokedir/a/load_seed2.txt"; then
    echo "FAIL: load seeds 1 and 2 produced identical runs"
    exit 1
fi
# A million clients over 64 endpoints, short window: the pool keeps
# in-flight state in the client flyweights, so memory grows with
# clients + endpoints, not their product (docs/WORKLOADS.md).
big_args="--clients=1M --endpoints=64 --rates=100k \
    --warmup=10ms --duration=20ms"
replay_twice load1m.txt "$asan/load_sweep" $big_args
grep -q "SLO report" "$smokedir/a/load1m.txt" || {
    echo "FAIL: load_sweep --clients=1M printed no SLO report"
    cat "$smokedir/a/load1m.txt"
    exit 1
}
# The same million clients in open loop over IB, where zero-copy
# replies from cold items raise send-side NPFs: the pool materialises
# a client only when every one it has is busy, so its flyweights
# follow the requests in flight, not the client count.
ib_big_args="--transport=ib --clients=1M --endpoints=64 --rates=100k \
    --workload=keys=zipf:n=50k,theta=0.99;get=0.9 \
    --warmup=10ms --duration=20ms"
# --metrics-out suffixes each swept rate's file: load1m_ib.000.json.
"$asan/load_sweep" $ib_big_args \
    --metrics-out="$smokedir/load1m_ib.json" \
    > "$smokedir/load1m_ib.txt" 2>&1 || {
    echo "FAIL: load_sweep --transport=ib --clients=1M failed:"
    cat "$smokedir/load1m_ib.txt"
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
g = {k: v for k, v in m["gauges"].items() if k.endswith(".materialised")}
npfs = sum(v for k, v in m["counters"].items()
           if k.startswith("core.npf") and k.endswith(".npfs"))
if not g or npfs == 0:
    sys.exit("FAIL: no materialised gauge or no NPFs: %r, npfs=%d" % (g, npfs))
for k, v in sorted(g.items()):
    print("load 1M clients over ib: %s=%d of 1000000 (npfs=%d)"
          % (k, v, npfs))
    if v > 65536:
        sys.exit("FAIL: the pool materialised %d clients" % v)' \
        "$smokedir/load1m_ib.000.json"
else
    echo "note: python3 not found, skipping the materialised-client check"
fi

echo "== tier 5: engine smoke (engine_speed --smoke) =="
# Reduced-scale run of the event-engine microbench: proves the ladder
# engine's determinism replay (hard gate) and emits the JSON artifact.
# The cancel_heavy >= 3x speedup is a soft gate, timing-noise-prone at
# smoke scale.
run_gated "$smokedir/engine.txt" "replay_mismatches cancel_heavy_speedup" \
    ./build/bench/engine_speed --smoke --json="$smokedir/BENCH_engine.json"
check_bench_json "$smokedir/BENCH_engine.json"

echo "== tier 6: observability smoke (obs_overhead + trace validation) =="
# Reduced-scale obs_overhead: the disabled-path gates must cost <2%
# (a soft gate, noise-prone at smoke scale like tier 5's speedup) and
# the armed flight ring and full-trace ring must allocate nothing in
# steady state (hard gates: never noise).
run_gated "$smokedir/obs.txt" \
    "disabled_overhead_pct flight_steady_allocs trace_steady_allocs" \
    ./build/bench/obs_overhead --smoke --json="$smokedir/BENCH_obs.json"
check_bench_json "$smokedir/BENCH_obs.json"

# Attribution + flight recorder + per-iteration outputs end to end: a
# small swept run must print a phase-attribution table and produce
# indexed trace/flight files that parse as Chrome trace JSON. The
# windows must span the 200ms TCP minimum RTO: server-ring drops in
# this config are repaired by the retransmission timer (the paper's
# cold-ring pathology, and what the attribution table shows), so a
# shorter measure window closes before anything completes.
./build/bench/load_sweep --clients=2000 --endpoints=8 --rates=20k,40k \
    "--workload=keys=zipf:n=1k,theta=0.99;get=0.9" \
    --warmup=200ms --duration=200ms --attr \
    --trace="$smokedir/trace.json" --metrics-out="$smokedir/metrics.json" \
    --flight-recorder=4096 --flight-dump="$smokedir/flight.json" \
    > "$smokedir/obs_sweep.txt" 2>&1
grep -q "phase attribution" "$smokedir/obs_sweep.txt" || {
    echo "FAIL: load_sweep --attr printed no phase-attribution table"
    cat "$smokedir/obs_sweep.txt"
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_trace.py \
        "$smokedir/trace.000.json" "$smokedir/trace.001.json" \
        "$smokedir/flight.000.000.json" "$smokedir/flight.001.000.json"
    # Every histogram (NPF phases, per-class response latency)
    # serialises with the one sim::Histogram key set.
    python3 -c 'import json, sys
keys = ["count", "mean", "p50", "p90", "p99", "p99.9", "min", "max"]
for path in sys.argv[1:]:
    hists = json.load(open(path))["metrics"]["histograms"]
    bad = [n for n, h in hists.items() if list(h) != keys]
    if not hists or bad:
        sys.exit("FAIL: %s: histogram key set differs: %s" % (path, bad))
    print("%s: %d histograms, one key set" % (path, len(hists)))' \
        "$smokedir/metrics.000.json" "$smokedir/metrics.001.json"
else
    echo "note: python3 not found, skipping trace and metrics validation"
fi

echo "== tier 7: allocation gate + replay digests (stack_bench) =="
# The stack-wide allocation gate: five end-to-end scenarios must run
# their measure window with exactly zero global operator new calls
# (docs/MEMORY.md), and the two reclaim-squeezed ones must fault in it
# (eth.backup_parked, core.npfs > 0). Every gate is hard: a trip is a
# real regression, never timing noise. STACK_BENCH_TRACE=1 dumps the
# call stacks of window allocations.
stack_gates="stack_steady_allocs[eth_pin] stack_steady_allocs[eth_backup]
    stack_steady_allocs[ib_openloop] stack_steady_allocs[eth_backup_reclaim]
    stack_steady_allocs[ib_npf_reclaim] stack_window_faults[eth_backup_reclaim]
    stack_window_faults[ib_npf_reclaim]"
run_gated "$smokedir/stack.txt" "$stack_gates" ./build/bench/stack_bench \
    --smoke --json="$smokedir/BENCH_stack.json"
check_bench_json "$smokedir/BENCH_stack.json"

# The worlds no paper figure covers: load_sweep over both transports
# and a switched topology, shard_scale's 1- and 4-shard replay digests,
# and stack_bench's per-scenario event and op counts. Pinned in
# scripts/golden_digests_worlds.sha256 from the hand-built worlds that
# src/scenario/ replaced; regenerate only on a deliberate change.
mkdir -p "$smokedir/worlds"
world_args="--clients=2000 --endpoints=8 --rates=20k,60k \
    --workload=keys=zipf:n=5k,theta=0.99;get=0.9 \
    --warmup=200ms --duration=200ms --seed=1"
./build/bench/load_sweep $world_args > "$smokedir/worlds/load_eth.txt" 2>&1
./build/bench/load_sweep $world_args --transport=ib \
    > "$smokedir/worlds/load_ib.txt" 2>&1
./build/bench/load_sweep $world_args --transport=ib \
    --topology=leafspine:hosts=4,leaves=2,spines=1 \
    > "$smokedir/worlds/load_topo.txt" 2>&1
run_gated "$smokedir/worlds/shard.txt" replay_mismatches \
    ./build/bench/shard_scale --clients=64k --rate=60k --warmup=5ms \
    --duration=20ms --no-speed-gate --json="$smokedir/worlds/shard.json"
check_bench_json "$smokedir/worlds/shard.json"
grep -o '"digest": "[0-9a-f]*"' "$smokedir/worlds/shard.json" \
    > "$smokedir/worlds/shard_digests.txt"
# The first three scenarios (9 lines) are pinned since before the
# reclaim-squeeze scenarios existed; those are pinned on their own.
grep -o '"name": "[a-z_]*"\|"events": [0-9]*\|"ops": [0-9]*' \
    "$smokedir/BENCH_stack.json" > "$smokedir/worlds/stack_all.txt"
head -n 9 "$smokedir/worlds/stack_all.txt" \
    > "$smokedir/worlds/stack_counts.txt"
tail -n +10 "$smokedir/worlds/stack_all.txt" \
    > "$smokedir/worlds/stack_reclaim_counts.txt"
check_golden "$smokedir/worlds" golden_digests_worlds.sha256

# Pooling must not change simulation behaviour: the paper-replay
# benches have to reproduce their pre-pooling output bit for bit
# (digests pinned in scripts/golden_digests.sha256; regenerate that
# file only when a bench's output is changed on purpose). Full-scale
# runs, ~3-4 minutes total.
./build/bench/fig04_cold_ring           > "$smokedir/fig04.txt" 2>&1
# tab05 builds a world per configuration, each with multi-GiB frame
# tables that must stay address space in every world, not only the
# first (docs/MEMORY.md). python3 runs it and reads its resident peak:
# ~208 MiB with 8-byte Ptes and Frames, ~257 with the 24- and 16-byte
# ones they replaced, so 240 catches the per-page state growing back.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smokedir/tab05.txt" <<'EOF'
import resource, subprocess, sys
with open(sys.argv[1], "wb") as out:
    rc = subprocess.call(["./build/bench/tab05_memcached_overcommit"],
                         stdout=out, stderr=subprocess.STDOUT)
if rc != 0:
    sys.exit("FAIL: tab05_memcached_overcommit exited %d" % rc)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print("tab05 peak RSS: %.1f MiB (gate 240)" % peak)
if peak > 240:
    sys.exit("FAIL: tab05_memcached_overcommit peaked above 240 MiB")
EOF
else
    echo "note: python3 not found, skipping tab05's resident-peak gate"
    ./build/bench/tab05_memcached_overcommit > "$smokedir/tab05.txt" 2>&1
fi
./build/bench/fig07_dynamic_working_set > "$smokedir/fig07.txt" 2>&1
./build/bench/chaos_recovery            > "$smokedir/chaos.txt" 2>&1
check_golden "$smokedir" golden_digests.sha256

# The testbed rigs of src/scenario/ as their benches and examples drive
# them: the RC pair (abl_read_rnr, quickstart, storage_server) and the
# NIC rig (abl_backup_ring). Each must replay bit-identically and match
# scripts/golden_digests_rigs.sha256, pinned before the hand-built
# copies moved onto the rigs; abl_backup_ring then gates the paper's
# bm_size claim (EXPERIMENTS.md).
for prog in bench/abl_backup_ring bench/abl_read_rnr examples/quickstart \
    examples/storage_server; do
    replay_twice "${prog#*/}.txt" "$root/build/$prog"
done
check_golden "$smokedir/a" golden_digests_rigs.sha256
require_gates "$smokedir/a/abl_backup_ring.txt" \
    "lossless.bm64 lossless.bm256 falling.bm4 falling.bm16 lossy.bm16"

# The allocation gate at full scale. Its report stays in $smokedir:
# the committed BENCH_stack.json is regenerated by running the bench
# directly (README "Bench reports").
run_gated "$smokedir/stack_full.txt" "$stack_gates" \
    ./build/bench/stack_bench --json="$smokedir/BENCH_stack_full.json"
check_bench_json "$smokedir/BENCH_stack_full.json"

echo "== tier 8: fabric smoke + goldens (PFC/ECN/DCQCN, pause storms) =="
# Self-checking fabric benches: fabric_incast asserts that DCQCN
# bounds the steady-state switch queue where PFC alone rides XOFF,
# and that the hot path is allocation-free; fabric_pfc_storm asserts
# that a receiver-side rNPF becomes a pause storm crossing >= 2
# switch hops, losslessly. Smoke scale under ASan/UBSan, run twice:
# must replay bit-identically, then match the pinned goldens.
replay_twice fabric_incast.txt "$asan/fabric_incast" --smoke
replay_twice fabric_storm.txt "$asan/fabric_pfc_storm" --smoke \
    --json=BENCH_fabric.json
require_gates "$smokedir/a/fabric_incast.txt" \
    "fabric_steady_allocs[pfc_only] fabric_steady_allocs[ecn_dcqcn]
    pfc_only.pause_tx pfc_only.cap_dropped ecn_dcqcn.cap_dropped
    ecn_dcqcn.ecn_marked ecn_dcqcn.cnps ecn_dcqcn.steady_queue_mean
    ecn_dcqcn.pause_tx"
storm_gates="warm.rnpfs warm.pause_hops cold_odp.rnpfs cold_odp.host_pauses
    cold_odp.pause_hops cold_odp.sender_pause_rx warm.cap_dropped
    cold_odp.cap_dropped cold_odp.finish_ns"
require_gates "$smokedir/a/fabric_storm.txt" "$storm_gates"
check_bench_json "$smokedir/a/BENCH_fabric.json"
check_golden "$smokedir/a" golden_digests_fabric.sha256

# The pause-storm gates at full scale, reported in $smokedir like
# tier 7's (the committed BENCH_fabric.json is not touched).
run_gated "$smokedir/fabric_storm_full.txt" "$storm_gates" \
    ./build/bench/fabric_pfc_storm --json="$smokedir/BENCH_fabric_full.json"
check_bench_json "$smokedir/BENCH_fabric_full.json"

echo "== tier 9: registration shoot-out (reg_shootout) =="
# Four-discipline shoot-out (docs/REGISTRATION.md): two seeds must
# replay bit-identically under ASan/UBSan, the three pre-existing
# disciplines (copy / pin-down-cache / npf) must match the pinned
# goldens, and the NP-RDMA per-IO map/unmap hot path must run its
# measure window with exactly zero heap allocations. The alloc gate
# runs on the plain build: ASan interposes operator new, so the
# counting overrides never see the traffic there.
for seed in 1 2; do
    replay_twice "reg_seed$seed.txt" "$asan/reg_shootout" --smoke \
        --seed="$seed"
done
if cmp -s "$smokedir/a/reg_seed1.txt" "$smokedir/a/reg_seed2.txt"; then
    echo "FAIL: reg seeds 1 and 2 produced identical runs"
    exit 1
fi
# NP-RDMA must not perturb the copy, pin and npf disciplines.
mkdir -p "$smokedir/reg"
for mode in copy pin npf; do
    "$asan/reg_shootout" --smoke --seed=1 --mode="$mode" \
        > "$smokedir/reg/reg_$mode.txt" 2>&1
done
check_golden "$smokedir/reg" golden_digests_reg.sha256
# Every output a registration discipline shapes, on the plain build:
# the paper's storage, IMB and beff figures, the what-if shoot-out,
# the pin-down cache ablation and the NP-RDMA smoke run. Pinned in
# scripts/golden_digests_reg_figs.sha256; ~25 s, the benches in
# parallel.
mkdir -p "$smokedir/regfigs"
(
    cd "$smokedir/regfigs"
    b=$root/build/bench
    "$b/fig08_storage" > fig08.txt 2>&1 &
    "$b/fig09_imb" > fig09.txt 2>&1 &
    "$b/fig10_whatif" > fig10.txt 2>&1 &
    "$b/tab06_beff" > tab06.txt 2>&1
    "$b/abl_pindown_cache" > abl_pindown.txt 2>&1
    "$b/reg_shootout" --smoke --seed=1 --mode=np-rdma \
        > reg_np-rdma.txt 2>&1
    wait
)
check_golden "$smokedir/regfigs" golden_digests_reg_figs.sha256
# tab06 and fig09 gate the paper's registration claims (EXPERIMENTS.md)
# after their tables.
require_gates "$smokedir/regfigs/tab06.txt" \
    "npf_over_pin.low npf_over_pin.high copy_over_pin"
require_gates "$smokedir/regfigs/fig09.txt" \
    "sendrecv.copy_over_pin_growth sendrecv.npf_over_pin_128k
    bcast.copy_over_pin_growth bcast.npf_over_pin_128k
    alltoall.copy_over_pin_growth alltoall.npf_over_pin_128k"
run_gated "$smokedir/reg/gate.txt" "reg_steady_allocs[np-rdma]" \
    ./build/bench/reg_shootout --seed=1 --mode=np-rdma --alloc-gate

echo "== tier 10: sharded core (TSan + differential + scaling gate) =="
# Debug build so the NDEBUG-gated owner assertions stay live under
# the race detector (docs/SHARDING.md); the lookahead-floor and
# boundary-in-the-past checks abort in every build type. This is also
# the only tier where the owner-assert death tests are compiled in
# (the RelWithDebInfo tiers define NDEBUG).
cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1" >/dev/null
cmake --build build-tsan -j "$jobs" --target shard_test
cmake --build build-tsan -j "$jobs" --target shard_scale
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/shard_test
# Smoke-scale scaling run under TSan: exercises the rings, the
# conservative loop and the record plane with the race detector on.
# The wall-clock speedup gate is meaningless under TSan overhead, so
# only the determinism-replay half is enforced.
run_gated "$smokedir/shard_tsan.txt" replay_mismatches \
    env TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/shard_scale \
    --clients=1M --rate=60k --warmup=5ms --duration=20ms --no-speed-gate \
    --json="$smokedir/BENCH_shard_tsan.json"
check_bench_json "$smokedir/BENCH_shard_tsan.json"

# Full scale on the plain build: enforces replay determinism plus (on
# machines with >= 4 hardware threads, where the bench records it) the
# >=3x speedup gate speedup_vs_1shard. The report stays in $smokedir,
# like tiers 7 and 8's.
run_gated "$smokedir/shard_full.txt" replay_mismatches \
    ./build/bench/shard_scale --json="$smokedir/BENCH_shard_full.json"
check_bench_json "$smokedir/BENCH_shard_full.json"

echo "== all checks passed =="
