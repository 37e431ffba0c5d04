#!/usr/bin/env bash
# Tier-1 CI: build and run the full test suite in three flavors —
#   1. the default optimized build (RelWithDebInfo, -O2),
#   2. an ASan+UBSan build (GENIE_ASAN=ON), and
#   3. a TSan build (GENIE_TSAN=ON) for the parallel host-path tests,
# so miscompiled-fast-path bugs, memory/UB bugs, and data races are all
# caught. The data plane leans on raw spans over the physical-memory arena
# (multi-page DataRun, fused checksum-copy), and the parallel path runs real
# threads over it, which is exactly the code sanitizers are for.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc)

# Flight-recorder dumps from the stress legs land here; on a stress failure
# the dump is the first triage artifact (last N trace events + replay seed).
# Absolute path: ctest and the stress binaries run from different working
# directories, and the recorder opens the path as-is.
FLIGHT_DIR="${GENIE_FLIGHT_DIR:-$PWD/build/flight}"
mkdir -p "$FLIGHT_DIR"
export GENIE_FLIGHT_DIR="$FLIGHT_DIR"

print_flight_dumps() {
  local dumps
  dumps=$(ls "$FLIGHT_DIR"/flight_*.json 2>/dev/null || true)
  if [[ -n "$dumps" ]]; then
    echo "--- flight recorder dumps (replay seed + last trace events) ---"
    ls -l "$FLIGHT_DIR"/flight_*.json
  fi
}

echo "=== tier-1: optimized build ==="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$JOBS"
# The bench_smoke gate (label "bench") runs in this leg. On failure, print
# the metrics snapshot it wrote so the op-count drift is visible in the log.
if ! ctest --test-dir build --output-on-failure -j "$JOBS"; then
  if [[ -f build/tests/bench_smoke_metrics.json ]]; then
    echo "--- bench_smoke metrics snapshot (build/tests/bench_smoke_metrics.json) ---"
    cat build/tests/bench_smoke_metrics.json
  fi
  print_flight_dumps
  exit 1
fi
# The critical-path analyzer's byte-identical-JSON contract is part of the
# trace pipeline's gate: run it by name so a filter change can never silently
# deselect it.
build/tests/obs_critical_path_test \
  --gtest_filter='CriticalPathTest.AnalyzerJsonIsByteIdenticalAcrossRuns:CriticalPathTest.FabricJsonIsByteIdenticalAcrossRuns'
# bench_hostpath's simulated rows (the windowed-ARQ sweep, the crash-heal row
# and the two fabric rows), its critical_path lines and the fabric roll-up
# are deterministic: pin them to the values they reproduce, so a change to
# the two-node rig, the ring-stream driver or the simulated clock fails here.
# The bench's other rows are wall-clock and stay unpinned.
echo "bench_hostpath simulated-output pin"
cat > build/bench_hostpath_pin.txt <<'EOF'
critical_path w=1  (64-datagram stream, us): slot=4928.7 wire=3674.1 prepare=1134.9 dispose=1396.7 offwire_gap=1254.6
critical_path w=4  (64-datagram stream, us): slot=4011.4 wire=3674.1 prepare=1134.9 dispose=1396.7 offwire_gap=337.3
critical_path w=16 (64-datagram stream, us): slot=3782.1 wire=3674.1 prepare=1134.9 dispose=1398.7 offwire_gap=108.0
critical_path w=64 (64-datagram stream, us): slot=3724.8 wire=3674.1 prepare=1134.9 dispose=1399.2 offwire_gap=50.7
fabric multi-tenant roll-up (1000 channels, 8 nodes, 2200 frames switched):
class            tenants      done    fail   retry   crash          MB    p50_us    p99_us    max_us
bulk                 900      1800       0       0       0        7.81   38967.9   65416.4   65416.4
interactive          100       400       0       0       0        0.24   32768.0   44499.2   44499.2
e2e_copy_arq_w1_lossless_60k               12.5          1
e2e_copy_arq_w1_lossy1pct_60k              12.3          8
e2e_copy_arq_w4_lossless_60k               15.3          1
e2e_copy_arq_w4_lossy1pct_60k              15.1          8
e2e_copy_arq_w16_lossless_60k              16.2          1
e2e_copy_arq_w16_lossy1pct_60k             16.1          8
e2e_copy_arq_w64_lossless_60k              16.5          1
e2e_copy_arq_w64_lossy1pct_60k             16.3          8
e2e_arq_crash_heal_60k                     15.3          1
fabric_1000ch_8node_sim                    78.7       2200
fabric_incast_drr_6ch                      16.6        249
EOF
build/bench/bench_hostpath > build/bench_hostpath.txt
if ! grep -E '^(critical_path |fabric multi-tenant|class  |bulk  |interactive  |e2e_copy_arq_w|e2e_arq_crash_heal|fabric_)' \
    build/bench_hostpath.txt | diff -u build/bench_hostpath_pin.txt -; then
  echo "bench_hostpath pin failed: simulated output differs from the pinned values (diff above)"
  exit 1
fi
# Tracing must not change the numbers. bench_table6 builds one Testbed per
# sweep length, all on one trace log: traced, it must print exactly what it
# prints untraced and write a trace that parses as JSON.
echo "bench_table6 traced/untraced identity"
build/bench/bench_table6_primitive_ops > build/table6_untraced.txt
GENIE_TRACE=build/table6_trace.json build/bench/bench_table6_primitive_ops \
  > build/table6_traced.txt
if ! diff -u build/table6_untraced.txt build/table6_traced.txt; then
  echo "bench_table6 trace check failed: tracing changed its output (diff above)"
  exit 1
fi
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' build/table6_trace.json
# The paper reproduction: every paper bench (all of build/bench/ except the
# wall-clock bench_hostpath and bench_micro_ops) and every example prints
# only simulated results, so each one's stdout is pinned by its sha256. Each
# runs without arguments. sweep_cli also runs with pooled and with outboard
# receivers, and with early-demultiplexed receives into buffers 1000 bytes
# into a page (every semantics' prepare, and Table 3's copyout and
# reverse-copyout disposes): schedules no argument-free run covers. A change
# to the cost model, a semantics or the simulated clock fails here, naming
# the runs whose output moved.
echo "paper reproduction pin"
PAPER_PIN=$(cat <<'EOF'
7f6e57f268d8f8a3880cd982cc0af747e626312967cfd2700e9ac7d767ee30ac  bench_ablation_optimizations
ade06a1553def066634919c5559fc74637734a13d074a101d476108f6424278f  bench_ablation_thresholds
dee988c533993a101fa8e6077b650ac62f86afa90cef2893ebad4c31dea72ea8  bench_checksum_integration
4d93dc440b9ed6612a87369e0fd77c3669db18d9aa0a60e436fd3c71cc8b60a5  bench_fig3_latency_early_demux
50c9ee59efb655a5f6829799dc5a6b07f3c0b62ae42f3e5b41b3403153f5db89  bench_fig4_cpu_utilization
7e5602338e40ddeddb9817d9818482cea57253df8f8c354476280ed4d6995252  bench_fig5_short_datagrams
509d83956e427b80e62034a3b8529aceb6b7feac68ada5cb8393ea9caa7349a6  bench_fig6_pooled_aligned
9f24805a00419b2c1441bde446cbbd704be4c5582a93c53822bdca754e2ecd22  bench_fig7_pooled_unaligned
d157a2bbf7b3f31bc80df4ceec17e390cd2a364be6fa930978baa17c1f318c93  bench_link_speed_sweep
e635ffe44c3e2c380cc96458588b63cb1d234fb160ba39e5b7de90b5e82ec9f4  bench_message_throughput
2c3d3e1924fbb59fe9cbcb65fd55321a2ff703814737d8af55ca67c47d3908de  bench_mixed_semantics
2341a70160b7e4b2f58db809343d2856cf4216ac6bc45156ea94d9b677156589  bench_oc12_extrapolation
90c184ab97e387d7724ad3d26f39aeb073024d2f7825a9afb5743a657584dd4d  bench_outboard_prediction
946d5951718c81d3517f9f39f20f427a99d7aced9afedf284e62904be65953b7  bench_sender_managed
2fbac2bf0f9021fb476241ccd4c531fe474b975eff71332e1764c738cc679247  bench_table1_lan_history
520ff7ce1e711d7bfe77e23f21b9fdcdc2d05c754f89db5654f36b03eef4d04c  bench_table6_primitive_ops
2b0a19e1aec91010738c9d0eb82233d61be1a55c084ff1cda09622e80b4a404b  bench_table7_model_vs_actual
fc02f10d97ee82eaad8c04d8090ba8658f0c195789b0bbeb7b88bd399b5a13e6  bench_table8_scaling
52470aa56bf9aa07a65015fa0fb52098f814280e125b6c11c9faec39bc5d0257  file_transfer
d0d553a823a6fd13f492b0193b39d348e510c191e04ab76efc399fea4869191f  media_streaming
a76f4f0deb3a79b74fe3746d10641cd1ecf61878853d04d69f5a2ed9cdf89433  quickstart
b84862a572ca1dd30361475f16fdfb5a515647137009c1d61c39eeb0cd1bf23f  rpc_pingpong
c7947518f830ddca1e5c5b2ed14b5e684d7ba3b6fa2ebc71973d95e9dba5704c  semantics_tour
fa5aa348403896b2c0ba2f6dbe5492b40134fded6802fb12ba3537f9c715ea68  sweep_cli
d59760c02cb386758dfb3990fb0d2acdebef4a82eb8998c02b850abe14c765fa  sweep_cli --semantics=all --offset=1000
015757c9401af0455a3f30b2ef4264004e8337e7d27050101162841eef8fbbe0  sweep_cli --semantics=all --buffering=pooled --offset=1000
ed4dfc36b81a9ae1985a9d07a08e3c9eea7df0f693d0268ea3befdae488e69c0  sweep_cli --semantics=all --buffering=outboard
EOF
)
mkdir -p build/paper_pin
while read -r _ run; do
  read -r -a argv <<< "$run"
  dir=examples
  [[ ${argv[0]} == bench_* ]] && dir=bench
  if ! "build/$dir/${argv[0]}" "${argv[@]:1}" > "build/paper_pin/$run"; then
    echo "paper reproduction pin failed: $run exited nonzero"
    exit 1
  fi
done <<< "$PAPER_PIN"
# Each output file is named after its run (the binary and its arguments), so
# a mismatch prints "<binary> <arguments>: FAILED".
if ! (cd build/paper_pin && sha256sum --check --quiet <<< "$PAPER_PIN"); then
  echo "paper reproduction pin failed: the runs marked FAILED print other output than pinned"
  exit 1
fi

echo "=== tier-1: host-speed benchmark builds and runs ==="
# Nothing else builds perfbench/ (the host-speed benchmark), so a src/ API
# change could break its build or its correctness checks unnoticed. Run its
# arithmetic self-test, then each workload for 1 s untraced and traced;
# run.py exits nonzero on a failed build or a failed correctness check.
# CXXFLAGS reaches the compiler when run.py first configures .bench_build/.
CXXFLAGS=-Werror python3 perfbench/run.py --self-test
for workload in copy_stream_60k remap_sweep; do
  for trace in 0 1; do
    echo "perfbench $workload --trace $trace"
    CXXFLAGS=-Werror python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 1 \
      --trace "$trace"
  done
done

echo "=== tier-1: ASan+UBSan build ==="
cmake -B build-asan -S . -DGENIE_ASAN=ON -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-asan -j "$JOBS"
# Leak checking is off for the unit suite: several sim tests intentionally
# leave detached coroutine tasks pending when the engine is torn down, so
# their frames are reported as leaks even though every test passes. ASan
# (bad accesses) and UBSan stay fully enabled. The soak legs below tear down
# cleanly and run with leak checking on.
# -LE bench: the bench_smoke wall-clock gate only means something at -O2;
# its deterministic layers already ran in the optimized leg.
ASAN_OPTIONS=detect_leaks=0 ctest --test-dir build-asan --output-on-failure -j "$JOBS" -LE bench
ASAN_OPTIONS=detect_leaks=0 build-asan/tests/obs_critical_path_test \
  --gtest_filter='CriticalPathTest.AnalyzerJsonIsByteIdenticalAcrossRuns:CriticalPathTest.FabricJsonIsByteIdenticalAcrossRuns'

echo "=== tier-1: fault-stress replay (ASan) ==="
# Third leg: the fault-injection stress harness under ASan. Three pinned
# seeds gate the build (each under a fixed wall-clock budget), then one fresh
# entropy seed widens coverage a little every run; an entropy failure is
# reported for triage (the seed is the complete repro) but does not fail CI.
# A failing seed leaves a flight-recorder dump in $GENIE_FLIGHT_DIR. This leg
# and the reliable, fabric and crash soaks run with LeakSanitizer on
# (detect_leaks=1): a run that completes but leaks fails like any other.
STRESS_BIN=build-asan/tests/fault_stress_test
STRESS_FILTER='--gtest_filter=FaultStressTest.SeededInterleavingsKeepInvariantsAndBytes'
STRESS_BUDGET=120  # seconds of wall clock per seed
for seed in 1001 1042 1137; do
  echo "fault-stress fixed seed $seed"
  if ! GENIE_FAULT_SEED=$seed ASAN_OPTIONS=detect_leaks=1 \
      timeout "$STRESS_BUDGET" "$STRESS_BIN" "$STRESS_FILTER"; then
    print_flight_dumps
    exit 1
  fi
done
ENTROPY_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "fault-stress entropy seed $ENTROPY_SEED (replay: GENIE_FAULT_SEED=$ENTROPY_SEED $STRESS_BIN $STRESS_FILTER)"
if ! GENIE_FAULT_SEED=$ENTROPY_SEED ASAN_OPTIONS=detect_leaks=1 \
    timeout "$STRESS_BUDGET" "$STRESS_BIN" "$STRESS_FILTER"; then
  echo "NON-FATAL: entropy seed $ENTROPY_SEED failed the fault-stress harness — file for triage."
  print_flight_dumps
fi

echo "=== tier-1: lossy-link soak (-O2 + ASan, windows 1, 2 and 16) ==="
# Fourth leg: the reliable-delivery stress harness (ARQ + semantics fallback
# + transfer watchdogs under link drop/duplicate/reorder faults), run in both
# build flavors at three selective-repeat windows (GENIE_RELIABLE_WINDOW):
# 1 keeps one frame in flight per channel, 2 is the narrowest window that
# pipelines (outputs wait for admission behind an in-flight frame), and 16
# a deep pipeline of SACK-acked frames with per-entry retransmit timers.
# Three pinned seeds gate each (build, window) combination; a failing run
# leaves a flight-recorder dump in $GENIE_FLIGHT_DIR and its path is printed
# below. One entropy seed per window widens coverage under ASan without
# gating.
RELIABLE_FILTER='--gtest_filter=ReliableStressTest.SeededFaultSweepsDeliverExactlyOnce'
for build_dir in build build-asan; do
  for window in 1 2 16; do
    RELIABLE_BIN=$build_dir/tests/reliable_stress_test
    for seed in 7003 7071 7158; do
      echo "reliable-stress $build_dir window=$window fixed seed $seed"
      if ! GENIE_RELIABLE_SEED=$seed GENIE_RELIABLE_WINDOW=$window \
          ASAN_OPTIONS=detect_leaks=1 \
          timeout "$STRESS_BUDGET" "$RELIABLE_BIN" "$RELIABLE_FILTER"; then
        print_flight_dumps
        exit 1
      fi
    done
  done
done
RELIABLE_BIN=build-asan/tests/reliable_stress_test
for window in 1 2 16; do
  ENTROPY_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
  echo "reliable-stress entropy seed $ENTROPY_SEED window=$window (replay: GENIE_RELIABLE_SEED=$ENTROPY_SEED GENIE_RELIABLE_WINDOW=$window $RELIABLE_BIN $RELIABLE_FILTER)"
  if ! GENIE_RELIABLE_SEED=$ENTROPY_SEED GENIE_RELIABLE_WINDOW=$window \
      ASAN_OPTIONS=detect_leaks=1 \
      timeout "$STRESS_BUDGET" "$RELIABLE_BIN" "$RELIABLE_FILTER"; then
    echo "NON-FATAL: entropy seed $ENTROPY_SEED (window=$window) failed the reliable-stress harness — file for triage."
    print_flight_dumps
  fi
done

echo "=== tier-1: multi-tenant fabric soak (-O2 + ASan, windows 1, 2 and 16) ==="
# Fifth leg: the switched-fabric workload soak — mixed closed/open-loop
# tenants over a lossy star/dumbbell fabric with ARQ, golden payloads, and
# quiescent VM invariants. Three pinned seeds gate each (build, window)
# combination; replay any failure with GENIE_FABRIC_SEED=<seed>. One entropy
# seed per window widens coverage under ASan without gating.
FABRIC_FILTER='--gtest_filter=FabricStressTest.LossySoakDeliversExactlyOnceAcrossSeeds'
for build_dir in build build-asan; do
  for window in 1 2 16; do
    FABRIC_BIN=$build_dir/tests/fabric_stress_test
    for seed in 9004 9087 9153; do
      echo "fabric-stress $build_dir window=$window fixed seed $seed"
      if ! GENIE_FABRIC_SEED=$seed GENIE_RELIABLE_WINDOW=$window \
          ASAN_OPTIONS=detect_leaks=1 \
          timeout "$STRESS_BUDGET" "$FABRIC_BIN" "$FABRIC_FILTER"; then
        print_flight_dumps
        exit 1
      fi
    done
  done
done
FABRIC_BIN=build-asan/tests/fabric_stress_test
for window in 1 2 16; do
  ENTROPY_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
  echo "fabric-stress entropy seed $ENTROPY_SEED window=$window (replay: GENIE_FABRIC_SEED=$ENTROPY_SEED GENIE_RELIABLE_WINDOW=$window $FABRIC_BIN $FABRIC_FILTER)"
  if ! GENIE_FABRIC_SEED=$ENTROPY_SEED GENIE_RELIABLE_WINDOW=$window \
      ASAN_OPTIONS=detect_leaks=1 \
      timeout "$STRESS_BUDGET" "$FABRIC_BIN" "$FABRIC_FILTER"; then
    echo "NON-FATAL: entropy seed $ENTROPY_SEED (window=$window) failed the fabric soak — file for triage."
    print_flight_dumps
  fi
done

echo "=== tier-1: concurrency layer under TSan ==="
# Sixth leg: the parallel host-path concurrency tests in a ThreadSanitizer
# build (GENIE_TSAN=ON; mutually exclusive with GENIE_ASAN, so a third build
# tree). Pinned seeds keep the workloads reproducible in distribution; the
# interleavings themselves are the coverage, so the tests are run a few
# times to let the scheduler explore. The differential checksum suite rides
# along because its SIMD kernels run inside the TSan'd threads.
cmake -B build-tsan -S . -DGENIE_TSAN=ON -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-tsan -j "$JOBS" --target \
  pool_shard_test hostpath_mt_stress_test net_checksum_test
for round in 1 2 3; do
  echo "tsan round $round"
  for bin in pool_shard_test hostpath_mt_stress_test; do
    if ! timeout "$STRESS_BUDGET" "build-tsan/tests/$bin"; then
      echo "TSan leg failed: $bin (round $round)"
      exit 1
    fi
  done
done
timeout "$STRESS_BUDGET" build-tsan/tests/net_checksum_test

echo "=== tier-1: crash/partition recovery soak (-O2 + ASan, windows 1, 2 and 16) ==="
# Seventh leg: crash-stop chaos — armed node crash/restart cycles plus fabric
# partition/heal flaps over the multi-tenant workload, gating on exact
# closed-loop accounting (every transfer completes or fails loudly with
# kPeerCrashed/kGiveUp), quiescent VM invariants on every node including
# rebooted ones, and epoch fencing actually firing. Three pinned seeds gate
# each (build, window) combination — 11030 is the seed that first exposed the
# TCOW free-while-wired bug, kept as a regression guard; at window 2 it also
# corrupts payloads if an output that waited for the window across a peer
# reboot is delivered to the rebooted peer. Replay any failure
# with GENIE_CRASH_SEED=<seed>; a failing seed leaves a flight-recorder dump
# in $GENIE_FLIGHT_DIR. One entropy seed per window widens coverage under
# ASan without gating.
CRASH_FILTER='--gtest_filter=CrashRecoveryStressTest.CrashAndPartitionSoakKeepsAccountingExactAcrossSeeds'
for build_dir in build build-asan; do
  for window in 1 2 16; do
    CRASH_BIN=$build_dir/tests/crash_recovery_stress_test
    for seed in 11005 11030 11117; do
      echo "crash-stress $build_dir window=$window fixed seed $seed"
      if ! GENIE_CRASH_SEED=$seed GENIE_RELIABLE_WINDOW=$window \
          ASAN_OPTIONS=detect_leaks=1 \
          timeout "$STRESS_BUDGET" "$CRASH_BIN" "$CRASH_FILTER"; then
        print_flight_dumps
        exit 1
      fi
    done
  done
done
CRASH_BIN=build-asan/tests/crash_recovery_stress_test
for window in 1 2 16; do
  ENTROPY_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
  echo "crash-stress entropy seed $ENTROPY_SEED window=$window (replay: GENIE_CRASH_SEED=$ENTROPY_SEED GENIE_RELIABLE_WINDOW=$window $CRASH_BIN $CRASH_FILTER)"
  if ! GENIE_CRASH_SEED=$ENTROPY_SEED GENIE_RELIABLE_WINDOW=$window \
      ASAN_OPTIONS=detect_leaks=1 \
      timeout "$STRESS_BUDGET" "$CRASH_BIN" "$CRASH_FILTER"; then
    echo "NON-FATAL: entropy seed $ENTROPY_SEED (window=$window) failed the crash-recovery soak — file for triage."
    print_flight_dumps
  fi
done

echo "=== tier-1: telemetry determinism (-O2 + ASan) ==="
# Eighth leg: the continuous-telemetry plane's byte-identity contract. The
# run report (telemetry series summaries, SLO verdicts/alerts, critical path)
# must be byte-for-byte identical across two same-seed runs WITHIN each build
# flavor, and identical BETWEEN -O2 and ASan — any platform-dependent float
# formatting or ordering in the pipeline shows up here as a one-line diff.
# The Perfetto trace (counter tracks interleaved with causal spans) must be
# valid JSON with the counter series present.
REPORT_SEED=0x7e1e
for build_dir in build build-asan; do
  BENCH=$build_dir/bench/bench_hostpath
  echo "telemetry run-report determinism: $build_dir seed $REPORT_SEED"
  # Both runs trace (the report embeds the critical-path section when traced);
  # the second run's trace file is scratch — only its report is compared.
  ASAN_OPTIONS=detect_leaks=0 GENIE_TRACE="$build_dir/telemetry_trace.json" \
    "$BENCH" --report "$REPORT_SEED" > "$build_dir/run_report_a.json"
  ASAN_OPTIONS=detect_leaks=0 GENIE_TRACE="$build_dir/telemetry_trace_b.json" \
    "$BENCH" --report "$REPORT_SEED" > "$build_dir/run_report_b.json"
  if ! diff "$build_dir/run_report_a.json" "$build_dir/run_report_b.json"; then
    echo "telemetry leg failed: same-seed run reports differ in $build_dir"
    exit 1
  fi
done
if ! diff build/run_report_a.json build-asan/run_report_a.json; then
  echo "telemetry leg failed: run report differs between -O2 and ASan builds"
  exit 1
fi
# The report is also pinned by its sha256, so a change that moves the fabric
# workload, the telemetry plane or the critical path fails here even when
# every run agrees with every other. Re-pin only for a change that moves
# simulated results on purpose, and say why.
REPORT_PIN="bdbd0173fd247a57df902d81599673573216bf3a2caac4f8b808774d24077963  build/run_report_a.json"
if ! sha256sum --check --quiet <<< "$REPORT_PIN"; then
  echo "telemetry leg failed: the run report build/run_report_a.json (bench_hostpath --report $REPORT_SEED) differs from its pinned sha256"
  exit 1
fi
python3 - <<'EOF'
import json
report = json.load(open("build/run_report_a.json"))
for key in ("period_ns", "samples_taken", "sources", "slo"):
    assert key in report, f"run report missing {key!r}"
trace = json.load(open("build/telemetry_trace.json"))
events = trace["traceEvents"] if isinstance(trace, dict) else trace
counters = {e["name"] for e in events if e.get("ph") == "C"}
assert len(counters) >= 5, f"expected >=5 counter tracks, got {sorted(counters)}"
print(f"telemetry leg OK: report parses, {len(counters)} counter tracks in trace")
EOF
# The telemetry unit/soak suite by name, so a filter change can never
# silently deselect the partition-flap alert scenario.
build/tests/obs_telemetry_test
ASAN_OPTIONS=detect_leaks=0 build-asan/tests/obs_telemetry_test

echo "CI OK: all suites passed."
