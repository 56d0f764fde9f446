#!/usr/bin/env bash
# The single source of truth for every CI gate. Both CI jobs invoke this
# script, so a local `./scripts/ci_gates.sh all` is byte-for-byte the CI
# run. Stages are selectable by name:
#
#   ./scripts/ci_gates.sh all              # everything (both CI jobs)
#   ./scripts/ci_gates.sh build-test       # the Build & test job
#   ./scripts/ci_gates.sh lint             # the Clippy & rustfmt job
#   ./scripts/ci_gates.sh build test ...   # any stages, in order
#
# Run `./scripts/ci_gates.sh list` for the stage catalogue.
set -euo pipefail
cd "$(dirname "$0")/.."

stage_build() { cargo build --release --workspace; }

stage_test() { cargo test --workspace -q; }

# Runs a command and diffs its stdout against golden/<name>.txt.
golden_diff() {
  local name="$1"
  shift
  if ! "$@" | diff -u "golden/${name}.txt" -; then
    echo "golden: '$*' no longer matches golden/${name}.txt" >&2
    return 1
  fi
}

# The paper-fidelity outputs (Table II/IV, loop budgets, the derived
# figures, the soaks and the multi-channel example) are deterministic, so
# any byte of difference from golden/ is a real behaviour change. To
# accept an intended change, rerun the command into its golden file.
stage_golden() {
  local bin=(cargo run -q --release -p mccp-bench --bin)
  golden_diff table2_throughput "${bin[@]}" table2_throughput
  golden_diff loop_cycles "${bin[@]}" loop_cycles
  golden_diff table4_reconfig "${bin[@]}" table4_reconfig
  golden_diff fig_core_scaling "${bin[@]}" fig_core_scaling
  golden_diff fig_offered_load "${bin[@]}" fig_offered_load
  golden_diff soak_100 "${bin[@]}" soak -- 100
  golden_diff soak_100_functional "${bin[@]}" soak -- 100 --engine functional
  golden_diff multichannel_radio cargo run -q --release --example multichannel_radio
}

stage_cycle_identity() { cargo test -p mccp-core --test cycle_identity -q; }

stage_backend_equivalence() { cargo test -p mccp-sdr --test backend_equivalence -q; }

stage_fault_plane() {
  cargo test -p mccp-core fault -q
  cargo test -p mccp-sdr cluster::tests -q
}

stage_service_churn() { cargo test -p mccp-sdr --test service_churn -q; }

stage_pipeline_equivalence() { cargo test --test pipeline_equivalence -q; }

# bench_service --quick asserts zero SecureVoice sheds below the knee,
# ordered shed rates at 3x, <4 KiB per idle channel, and a leak-free
# churn loop without rewriting BENCH_service.json.
stage_service_smoke() { cargo run --release -p mccp-bench --bin bench_service -- --quick; }

# chaos_soak is deterministic and rewrites BENCH_chaos.json; the stage
# fails when the rerun differs from the checked-in file in any field but
# host_parallelism (left rewritten for `git diff`), else restores it.
stage_chaos_smoke() {
  local committed
  committed="$(mktemp)"
  cp BENCH_chaos.json "$committed"
  cargo run --release -p mccp-bench --bin chaos_soak -- --packets 200
  if ! python3 - "$committed" BENCH_chaos.json <<'PY'
import json, sys

old, new = (json.load(open(path)) for path in sys.argv[1:3])
for doc in (old, new):
    doc.pop("host_parallelism", None)
drift = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
if drift:
    print(f"chaos-smoke: BENCH_chaos.json drifted in {drift}", file=sys.stderr)
    sys.exit(1)
PY
  then
    rm -f "$committed"
    echo "chaos-smoke: rerun BENCH_chaos.json to accept an intended change" >&2
    return 1
  fi
  cp "$committed" BENCH_chaos.json
  rm -f "$committed"
}

# obs_report asserts both contracts and exits non-zero on breach: the
# median on/off wall ratio of 101 interleaved pairs within the 5% budget,
# and records/cycles/retries byte-identical between observe-on and
# observe-off runs.
stage_obs_overhead() { cargo run --release -p mccp-bench --bin obs_report -- --packets 50 --pairs 101; }

stage_kernel_equivalence() {
  cargo test -p mccp-aes --test kernel_equivalence -q
  cargo test -p mccp-aes --test zero_alloc -q
  cargo test -p mccp-core --test alloc_bound -q
}

# Re-measures the batched GHASH/CTR/GCM arms and fails if any lands
# below 80% of its floor_* in BENCH_functional_kernels.json, then gates
# the ratios between kernel arms on this host (batched 512 B GCM >= 4x
# the scalar path; with PCLMULQDQ, batched GHASH >= 8x the serial Shoup
# arm) without rewriting the JSON. bench_snapshot --check replays the
# simulator-speed soak per-tick and fast-forwarded, asserts identical
# records, completion cycles and bytes, and checks both makespans against
# BENCH_sim_speed.json without rewriting it.
stage_perf_smoke() {
  cargo run --release -p mccp-bench --bin bench_cluster -- --quick
  cargo run --release -p mccp-bench --bin bench_kernels -- --quick
  cargo run --release -p mccp-bench --bin bench_snapshot -- --check
}

# bench_reconfig --quick drives a standards-mix shift through the demand
# policy (live CU swaps, Table IV latencies charged exactly, zero drops/
# nonce reuse) and a steady-drain service soak inside a swap window
# (zero Critical sheds), without rewriting BENCH_reconfig.json.
stage_bench_reconfig() { cargo run --release -p mccp-bench --bin bench_reconfig -- --quick; }

# bench_keylife --quick drives live rekeying under load on both engines
# (zero drops, zero nonce reuse, per-epoch oracle match), the handshake
# flash crowd (zero Critical sheds), the cycle-exact handshake/traffic
# overlap, and the key-lifecycle integration tests — without rewriting
# BENCH_keylife.json.
stage_keylife() {
  cargo test --test keylife -q
  cargo run --release -p mccp-bench --bin bench_keylife -- --quick
}

# The adversarial traffic plane: the seeded attack suite on both engines
# (100% typed rejection, zero plaintext, zero crypto-state disturbance),
# the garbage-decrypt proptests, and the exporter key-leak scan.
stage_adversarial() {
  cargo test -p mccp-sdr adversary -q
  cargo test --test security -q
  cargo test --test key_leak -q
}

# Every checked-in BENCH_*.json must parse, declare host_parallelism,
# and keep the fields other gates read (the perf smoke's floor_* values,
# the reconfig gate's loss/shed invariants).
stage_bench_schema() {
  python3 - <<'PY'
import glob, json, sys

failures = []
files = sorted(glob.glob("BENCH_*.json"))
if not files:
    failures.append("no BENCH_*.json files found")
for path in files:
    try:
        with open(path) as f:
            doc = json.load(f)
    except ValueError as e:
        failures.append(f"{path}: invalid JSON ({e})")
        continue
    if "host_parallelism" not in doc:
        failures.append(f"{path}: missing host_parallelism")
    if path == "BENCH_functional_kernels.json":
        for key in (
            "floor_ghash_batched_gb_s",
            "floor_ctr_batched_gb_s",
            "floor_gcm512_batched_packets_per_sec",
        ):
            if key not in doc:
                failures.append(f"{path}: missing {key} (perf smoke reads it)")
        if doc.get("ghash_arm") not in ("clmul", "table"):
            failures.append(f"{path}: ghash_arm must be \"clmul\" or \"table\"")
    if path == "BENCH_reconfig.json":
        mix = doc.get("mix_shift", {})
        svc = doc.get("service_swap_window", {})
        if mix.get("dropped_packets") != 0:
            failures.append(f"{path}: mix_shift.dropped_packets must be 0")
        if mix.get("nonce_reuse") != 0:
            failures.append(f"{path}: mix_shift.nonce_reuse must be 0")
        if not mix.get("swaps", 0) >= 1:
            failures.append(f"{path}: mix_shift.swaps must be >= 1")
        if mix.get("stall_cycles") != mix.get("expected_stall_cycles"):
            failures.append(f"{path}: stall_cycles must equal expected_stall_cycles")
        if svc.get("critical_sheds_during_swaps") != 0:
            failures.append(f"{path}: critical_sheds_during_swaps must be 0")
    if path == "BENCH_keylife.json":
        contract = doc.get("contract", {})
        for key in (
            "zero_dropped_packets",
            "zero_nonce_reuse",
            "zero_critical_sheds_flash_crowd",
            "zero_plaintext_leaks",
            "zero_key_leak_occurrences",
        ):
            if contract.get(key) is not True:
                failures.append(f"{path}: contract.{key} must be true")
        if contract.get("attacks_rejected_pct") != 100:
            failures.append(f"{path}: contract.attacks_rejected_pct must be 100")
        for engine in ("cycle", "functional"):
            rk = doc.get("rekey_under_load", {}).get(engine, {})
            if rk.get("submitted") != rk.get("delivered"):
                failures.append(f"{path}: rekey_under_load.{engine} dropped packets")
            if rk.get("nonce_reuse") != 0:
                failures.append(f"{path}: rekey_under_load.{engine}.nonce_reuse must be 0")
            adv = doc.get("adversarial", {}).get(engine, {})
            if adv.get("attacks") != adv.get("rejected"):
                failures.append(f"{path}: adversarial.{engine} must reject every attack")
            if adv.get("plaintext_leaks") != 0 or adv.get("nonces_burned") != 0:
                failures.append(f"{path}: adversarial.{engine} leaked state")
        if doc.get("handshake_flash_crowd", {}).get("sheds", {}).get("critical") != 0:
            failures.append(f"{path}: flash crowd must shed zero Critical opens")
        if doc.get("key_leak_scan", {}).get("occurrences") != 0:
            failures.append(f"{path}: key_leak_scan.occurrences must be 0")
for f in failures:
    print(f"bench-schema: {f}", file=sys.stderr)
if failures:
    sys.exit(1)
print(f"bench-schema: {len(files)} BENCH files valid")
PY
}

stage_benches_compile() { cargo bench -p mccp-bench --no-run; }

stage_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }

stage_fmt() { cargo fmt --all -- --check; }

# Stage catalogue: name -> function. Order here is the `all` order.
STAGES=(
  build
  test
  golden
  cycle-identity
  backend-equivalence
  fault-plane
  service-churn
  pipeline-equivalence
  service-smoke
  chaos-smoke
  obs-overhead
  kernel-equivalence
  perf-smoke
  bench-reconfig
  keylife
  adversarial
  bench-schema
  benches-compile
  clippy
  fmt
)

BUILD_TEST_STAGES=(
  build test golden cycle-identity backend-equivalence fault-plane service-churn
  pipeline-equivalence service-smoke chaos-smoke obs-overhead
  kernel-equivalence perf-smoke bench-reconfig keylife adversarial
  bench-schema benches-compile
)

LINT_STAGES=(clippy fmt)

run_stage() {
  local name="$1"
  local fn="stage_${name//-/_}"
  if ! declare -F "$fn" >/dev/null; then
    echo "ci_gates: unknown stage '$name' (try: $0 list)" >&2
    exit 2
  fi
  echo "==> ${name}"
  "$fn"
}

main() {
  if [ "$#" -eq 0 ]; then
    echo "usage: $0 all | build-test | lint | list | <stage>..." >&2
    exit 2
  fi
  local selected=()
  for arg in "$@"; do
    case "$arg" in
      all) selected+=("${STAGES[@]}") ;;
      build-test) selected+=("${BUILD_TEST_STAGES[@]}") ;;
      lint) selected+=("${LINT_STAGES[@]}") ;;
      list)
        printf '%s\n' "${STAGES[@]}"
        exit 0
        ;;
      *) selected+=("$arg") ;;
    esac
  done
  for stage in "${selected[@]}"; do
    run_stage "$stage"
  done
  echo "ci_gates: ${#selected[@]} stage(s) passed"
}

main "$@"
