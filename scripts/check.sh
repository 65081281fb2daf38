#!/bin/sh
# Full verification: the tier-1 test suite in the normal build, then
# the whole suite again under AddressSanitizer + UBSan. Run from the
# repository root. Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitizer build
set -eu

cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "--fast" ] && fast=1

jobs=$(nproc 2>/dev/null || echo 4)

echo "== tier 1: build + ctest =="
# Any compiler warning fails the build here. Only this tier asks for
# -Werror; CMakeLists.txt keeps plain -Wall -Wextra, so compilers that
# warn differently still build the tree.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

if [ "$fast" -eq 1 ]; then
    echo "== skipping sanitizer pass (--fast) =="
    exit 0
fi

echo "== tier 2: ASan/UBSan build + ctest =="
# _GLIBCXX_ASSERTIONS range-checks std::vector indexing (and other
# libstdc++ preconditions) here and in tiers 3, 4 and 9, which drive
# the NP-RDMA, IOTLB-storm and KV paths off this build.
cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS" \
    >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "== tier 3: fault smoke matrix (chaos_recovery under ASan/UBSan) =="
# Same seed + same plan must replay bit-identically (docs/FAULTS.md);
# run each seed twice under the sanitizers and diff the outputs.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
for seed in 1 2 3; do
    ./build-asan/bench/chaos_recovery --fault-seed="$seed" \
        > "$smokedir/seed$seed.a.txt" 2>&1
    ./build-asan/bench/chaos_recovery --fault-seed="$seed" \
        > "$smokedir/seed$seed.b.txt" 2>&1
    if ! cmp -s "$smokedir/seed$seed.a.txt" "$smokedir/seed$seed.b.txt"; then
        echo "FAIL: chaos_recovery seed $seed is not deterministic:"
        diff "$smokedir/seed$seed.a.txt" "$smokedir/seed$seed.b.txt" || true
        exit 1
    fi
    echo "seed $seed: bit-identical replay"
done
if cmp -s "$smokedir/seed1.a.txt" "$smokedir/seed2.a.txt"; then
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
    ./build-asan/bench/load_sweep $load_args --seed="$seed" \
        > "$smokedir/load$seed.a.txt" 2>&1
    ./build-asan/bench/load_sweep $load_args --seed="$seed" \
        > "$smokedir/load$seed.b.txt" 2>&1
    if ! cmp -s "$smokedir/load$seed.a.txt" "$smokedir/load$seed.b.txt"; then
        echo "FAIL: load_sweep seed $seed is not deterministic:"
        diff "$smokedir/load$seed.a.txt" "$smokedir/load$seed.b.txt" || true
        exit 1
    fi
    grep -q "SLO report" "$smokedir/load$seed.a.txt" || {
        echo "FAIL: load_sweep seed $seed printed no SLO report"
        exit 1
    }
    echo "load seed $seed: bit-identical replay"
done
if cmp -s "$smokedir/load1.a.txt" "$smokedir/load2.a.txt"; then
    echo "FAIL: load seeds 1 and 2 produced identical runs"
    exit 1
fi
# A million clients over 64 endpoints, short window: the pool keeps
# in-flight state in the client flyweights, so memory grows with
# clients + endpoints, not their product (docs/WORKLOADS.md).
big_args="--clients=1M --endpoints=64 --rates=100k \
    --warmup=10ms --duration=20ms"
./build-asan/bench/load_sweep $big_args > "$smokedir/load1m.a.txt" 2>&1
./build-asan/bench/load_sweep $big_args > "$smokedir/load1m.b.txt" 2>&1
if ! cmp -s "$smokedir/load1m.a.txt" "$smokedir/load1m.b.txt"; then
    echo "FAIL: load_sweep --clients=1M is not deterministic:"
    diff "$smokedir/load1m.a.txt" "$smokedir/load1m.b.txt" || true
    exit 1
fi
grep -q "SLO report" "$smokedir/load1m.a.txt" || {
    echo "FAIL: load_sweep --clients=1M printed no SLO report"
    cat "$smokedir/load1m.a.txt"
    exit 1
}
echo "load 1M clients: bit-identical replay"
# The same million clients in open loop over IB, where zero-copy
# replies from cold items raise send-side NPFs: the pool materialises
# a client only when every one it has is busy, so its flyweights
# follow the requests in flight, not the client count.
ib_big_args="--transport=ib --clients=1M --endpoints=64 --rates=100k \
    --workload=keys=zipf:n=50k,theta=0.99;get=0.9 \
    --warmup=10ms --duration=20ms"
# --metrics-out suffixes each swept rate's file: load1m_ib.000.json.
./build-asan/bench/load_sweep $ib_big_args \
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
# engine's determinism replay and emits the JSON artifact. Exit 2 only
# flags a sub-3x cancel_heavy speedup, which is timing-noise-prone at
# smoke scale; exit 1 (determinism mismatch) is always fatal.
if ./build/bench/engine_speed --smoke \
        --json="$smokedir/BENCH_engine.json" \
        > "$smokedir/engine.txt" 2>&1; then
    :
elif [ $? -eq 2 ]; then
    echo "note: cancel_heavy speedup below 3x at smoke scale (ok)"
else
    echo "FAIL: engine_speed smoke run failed:"
    cat "$smokedir/engine.txt"
    exit 1
fi
grep "determinism replay" "$smokedir/engine.txt"
grep -q '"determinism_replay": "ok"' "$smokedir/BENCH_engine.json" || {
    echo "FAIL: BENCH_engine.json missing determinism_replay=ok"
    exit 1
}

echo "== tier 6: observability smoke (obs_overhead + trace validation) =="
# Reduced-scale obs_overhead: the disabled-path gates must cost <2%
# (noise-prone at smoke scale, soft like tier 5's speedup target) and
# the armed flight ring must allocate nothing in steady state (never
# noise, always fatal).
if ./build/bench/obs_overhead --smoke \
        --json="$smokedir/BENCH_obs.json" \
        > "$smokedir/obs.txt" 2>&1; then
    :
elif [ $? -eq 2 ]; then
    echo "note: disabled overhead above 2% at smoke scale (ok)"
else
    echo "FAIL: obs_overhead smoke run failed:"
    cat "$smokedir/obs.txt"
    exit 1
fi
grep "disabled_overhead=" "$smokedir/obs.txt"
grep -q "flight_steady_allocs=0 PASS" "$smokedir/obs.txt" || {
    echo "FAIL: flight recorder allocated in steady state"
    cat "$smokedir/obs.txt"
    exit 1
}

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
# (eth.backup_parked, core.npfs > 0). Any failure is a real
# regression — always fatal, never timing noise.
if ! ./build/bench/stack_bench --smoke \
        --json="$smokedir/BENCH_stack.json" \
        > "$smokedir/stack.txt" 2>&1; then
    echo "FAIL: stack_bench alloc gate tripped:"
    cat "$smokedir/stack.txt"
    echo "hint: rerun with STACK_BENCH_TRACE=1 to get per-site stacks"
    exit 1
fi
grep "stack_steady_allocs\|stack_window_faults" "$smokedir/stack.txt"
grep -q '"allocs_ok": true' "$smokedir/BENCH_stack.json" || {
    echo "FAIL: BENCH_stack.json missing allocs_ok=true"
    exit 1
}

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
./build/bench/shard_scale --clients=64k --rate=60k --warmup=5ms \
    --duration=20ms --no-speed-gate \
    --json="$smokedir/worlds/shard.json" > "$smokedir/worlds/shard.txt" 2>&1
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
if (cd "$smokedir/worlds" \
        && sha256sum -c "$OLDPWD/scripts/golden_digests_worlds.sha256"); then
    echo "world digests: bit-identical to goldens"
else
    echo "FAIL: a world (load_sweep, shard_scale or stack_bench) diverged"
    echo "from its golden. If the divergence is intentional, regenerate"
    echo "scripts/golden_digests_worlds.sha256 from the new outputs."
    exit 1
fi

# Pooling must not change simulation behaviour: the paper-replay
# benches have to reproduce their pre-pooling output bit for bit
# (digests pinned in scripts/golden_digests.sha256; regenerate that
# file only when a bench's output is changed on purpose). Full-scale
# runs, ~3-4 minutes total.
./build/bench/fig04_cold_ring           > "$smokedir/fig04.txt" 2>&1
# tab05 builds a world per configuration, each with multi-GiB frame
# tables that must stay address space in every world, not only the
# first (docs/MEMORY.md). python3 runs it and reads its resident peak.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smokedir/tab05.txt" <<'EOF'
import resource, subprocess, sys
with open(sys.argv[1], "wb") as out:
    rc = subprocess.call(["./build/bench/tab05_memcached_overcommit"],
                         stdout=out, stderr=subprocess.STDOUT)
if rc != 0:
    sys.exit("FAIL: tab05_memcached_overcommit exited %d" % rc)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print("tab05 peak RSS: %.1f MiB (gate 310)" % peak)
if peak > 310:
    sys.exit("FAIL: tab05_memcached_overcommit peaked above 310 MiB")
EOF
else
    echo "note: python3 not found, skipping tab05's resident-peak gate"
    ./build/bench/tab05_memcached_overcommit > "$smokedir/tab05.txt" 2>&1
fi
./build/bench/fig07_dynamic_working_set > "$smokedir/fig07.txt" 2>&1
./build/bench/chaos_recovery            > "$smokedir/chaos.txt" 2>&1
if (cd "$smokedir" && sha256sum -c "$OLDPWD/scripts/golden_digests.sha256"); then
    echo "replay digests: bit-identical to pre-pooling goldens"
else
    echo "FAIL: a replay bench diverged from its pre-pooling golden."
    echo "If the divergence is intentional, regenerate"
    echo "scripts/golden_digests.sha256 from the new outputs."
    exit 1
fi

# Refresh the committed allocation-gate artifact at full scale.
./build/bench/stack_bench --json=BENCH_stack.json \
    > "$smokedir/stack_full.txt" 2>&1 || {
    echo "FAIL: full-scale stack_bench run failed:"
    cat "$smokedir/stack_full.txt"
    exit 1
}
echo "BENCH_stack.json regenerated"

echo "== tier 8: fabric smoke + goldens (PFC/ECN/DCQCN, pause storms) =="
# Self-checking fabric benches: fabric_incast asserts that DCQCN
# bounds the steady-state switch queue where PFC alone rides XOFF,
# and that the hot path is allocation-free; fabric_pfc_storm asserts
# that a receiver-side rNPF becomes a pause storm crossing >= 2
# switch hops, losslessly. Smoke scale under ASan/UBSan, run twice:
# must replay bit-identically, then match the pinned goldens.
mkdir -p "$smokedir/fab1" "$smokedir/fab2"
for d in fab1 fab2; do
    ./build-asan/bench/fabric_incast --smoke \
        > "$smokedir/$d/fabric_incast.txt" 2>&1 || {
        echo "FAIL: fabric_incast self-check failed:"
        cat "$smokedir/$d/fabric_incast.txt"
        exit 1
    }
    ./build-asan/bench/fabric_pfc_storm --smoke \
        --json="$smokedir/$d/BENCH_fabric.json" \
        > "$smokedir/$d/fabric_storm.txt" 2>&1 || {
        echo "FAIL: fabric_pfc_storm self-check failed:"
        cat "$smokedir/$d/fabric_storm.txt"
        exit 1
    }
done
for f in fabric_incast.txt fabric_storm.txt BENCH_fabric.json; do
    if ! cmp -s "$smokedir/fab1/$f" "$smokedir/fab2/$f"; then
        echo "FAIL: fabric smoke is not deterministic: $f"
        diff "$smokedir/fab1/$f" "$smokedir/fab2/$f" || true
        exit 1
    fi
done
echo "fabric smoke: bit-identical replay"
grep "fabric_steady_allocs" "$smokedir/fab1/fabric_incast.txt"
if (cd "$smokedir/fab1" \
        && sha256sum -c "$OLDPWD/scripts/golden_digests_fabric.sha256"); then
    echo "fabric digests: bit-identical to goldens"
else
    echo "FAIL: a fabric bench diverged from its golden digest."
    echo "If the divergence is intentional, regenerate"
    echo "scripts/golden_digests_fabric.sha256 from the new outputs."
    exit 1
fi

# Refresh the committed fabric artifact at full scale.
./build/bench/fabric_pfc_storm --json=BENCH_fabric.json \
    > "$smokedir/fabric_storm_full.txt" 2>&1 || {
    echo "FAIL: full-scale fabric_pfc_storm run failed:"
    cat "$smokedir/fabric_storm_full.txt"
    exit 1
}
echo "BENCH_fabric.json regenerated"

echo "== tier 9: registration shoot-out (reg_shootout) =="
# Four-discipline shoot-out (docs/REGISTRATION.md): two seeds must
# replay bit-identically under ASan/UBSan, the three pre-existing
# disciplines (copy / pin-down-cache / npf) must match the pinned
# goldens, and the NP-RDMA per-IO map/unmap hot path must run its
# measure window with exactly zero heap allocations. The alloc gate
# runs on the plain build: ASan interposes operator new, so the
# counting overrides never see the traffic there.
mkdir -p "$smokedir/reg"
for seed in 1 2; do
    ./build-asan/bench/reg_shootout --smoke --seed="$seed" \
        > "$smokedir/reg/seed$seed.a.txt" 2>&1
    ./build-asan/bench/reg_shootout --smoke --seed="$seed" \
        > "$smokedir/reg/seed$seed.b.txt" 2>&1
    if ! cmp -s "$smokedir/reg/seed$seed.a.txt" \
                "$smokedir/reg/seed$seed.b.txt"; then
        echo "FAIL: reg_shootout seed $seed is not deterministic:"
        diff "$smokedir/reg/seed$seed.a.txt" \
             "$smokedir/reg/seed$seed.b.txt" || true
        exit 1
    fi
    echo "reg seed $seed: bit-identical replay"
done
if cmp -s "$smokedir/reg/seed1.a.txt" "$smokedir/reg/seed2.a.txt"; then
    echo "FAIL: reg seeds 1 and 2 produced identical runs"
    exit 1
fi
for mode in copy pin npf; do
    ./build-asan/bench/reg_shootout --smoke --seed=1 --mode="$mode" \
        > "$smokedir/reg/reg_$mode.txt" 2>&1
done
if (cd "$smokedir/reg" \
        && sha256sum -c "$OLDPWD/scripts/golden_digests_reg.sha256"); then
    echo "reg digests: pre-existing disciplines bit-identical to goldens"
else
    echo "FAIL: a pre-existing registration discipline diverged from"
    echo "its golden digest. NP-RDMA must not perturb copy/pin/npf; if"
    echo "the divergence is intentional, regenerate"
    echo "scripts/golden_digests_reg.sha256 from the new outputs."
    exit 1
fi
if ! ./build/bench/reg_shootout --seed=1 --mode=np-rdma --alloc-gate \
        > "$smokedir/reg/gate.txt" 2>&1; then
    echo "FAIL: NP-RDMA per-IO path allocated in steady state:"
    cat "$smokedir/reg/gate.txt"
    exit 1
fi
grep "reg_steady_allocs" "$smokedir/reg/gate.txt"

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
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/shard_scale \
    --clients=1M --rate=60k --warmup=5ms --duration=20ms \
    --no-speed-gate --json="$smokedir/BENCH_shard_tsan.json"

# Full scale on the plain build: regenerates the committed artifact
# and enforces replay determinism plus (on machines with >= 4
# hardware threads) the >=3x speedup gate.
./build/bench/shard_scale --json=BENCH_shard.json
echo "BENCH_shard.json regenerated"

echo "== all checks passed =="
