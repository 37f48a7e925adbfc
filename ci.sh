#!/usr/bin/env bash
# CI gate: formatting, lints, build, full test suite, then the
# kernel, verify, chaos, serve and trace smokes. Everything runs offline
# against the vendored dependency stubs. Speed is not gated here: the
# repository benchmark is perfbench (BENCHMARK.json, perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test (workspace)"
cargo test --workspace --offline -q --no-fail-fast

echo "==> benchmark quick mode (perfbench builds on the public dist/tucker/serve calls)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> verify: differential oracles + invariant checkers"
cargo test -q --offline -p ratucker-verify

echo "==> verify: 25-schedule exploration incl. crash-recovery, straggler demotion, budget pressure, rung-1 slabbed TTM + HOSI (fixed seeds)"
cargo test -q --offline -p ratucker-verify --test explore -- \
  p4_recovery_converges_to_identical_state_under_25_schedules \
  p4_straggler_demotion_converges_to_identical_state_under_25_schedules \
  p8_budget_pressure_converges_to_identical_state_under_25_schedules \
  p4_pipelined_ttm_si_bit_identical_under_25_schedules

echo "==> verify: conformance sweep d in {3,4} x P in {1,2,4,8} vs textbook oracles and P = 1"
cargo test -q --offline --test conformance

echo "==> kernel proptests (packed GEMM/SYRK vs naive oracles, 1 vs 4 workers bit-identical)"
cargo test -q --offline --test proptest_kernels

echo "==> narrow TTM, SYRK/Gram, SI contraction and EVD kernels (shape dispatch; bitwise equal to the ascending-k chain; QL converges on decaying spectra)"
cargo test -q --offline -p ratucker-tensor --lib -- \
  kernels::tests::ttm_shapes_take_the_narrow_paths \
  kernels::tests::narrow_gemm_is_bitwise_the_canonical_chain \
  kernels::tests::narrow_tn_gemm_is_bitwise_the_canonical_chain \
  kernels::tests::syrk_nt_k_batched_accumulation_is_bit_identical \
  kernels::tests::results_are_bit_identical_across_worker_counts \
  gram::tests::streamed_gram_is_bitwise_the_per_slab_sum_on_every_mode \
  contract::tests::contract_shapes_take_the_streamed_path \
  contract::tests::streamed_contraction_is_bitwise_the_per_slab_sum_on_every_mode \
  ttm::tests::ttm_right_range_is_bitwise_slice_of_full_ttm_above_pack_threshold
cargo test -q --offline -p ratucker-linalg --lib -- \
  evd::tests::tred2_is_bitwise_the_eispack_loop \
  evd::tests::ql_converges_on_a_fast_decaying_spectrum

echo "==> 2-thread conformance smoke (intra-rank workers on; results must stay bit-identical; 60 s guard)"
PAR_T0=$SECONDS
RATUCKER_THREADS=2 cargo test -q --offline --test conformance -- \
  sthosvd_conforms_to_the_sequential_oracle_on_every_grid \
  ra_hosi_dt_conforms_to_the_sequential_oracle_on_every_grid
PAR_ELAPSED=$((SECONDS - PAR_T0))
if [ "$PAR_ELAPSED" -ge 60 ]; then
  echo "2-thread conformance smoke took ${PAR_ELAPSED}s (>= 60s): the worker pool is stalling" >&2
  exit 1
fi

echo "==> overlap smoke (one collective per rung-0 kernel call; rung-1 TTM slab counts, ladder rung and SI core block bitwise invisible; collective fold order; mid-pipeline drain; 60 s guard)"
OVL_T0=$SECONDS
cargo test -q --offline -p ratucker-dist --lib -- \
  rung_zero_kernels_post_one_collective \
  slab_count_is_bitwise_invisible \
  rung_one_ttm_is_bitwise_rung_zero_on_every_fiber \
  si_contraction_on_the_fiber_block_is_bitwise_the_replicated_core_path
cargo test -q --offline -p ratucker-mpi --lib -- \
  collectives_match_their_documented_sequential_fold_bitwise \
  stray_message_before_allreduce_is_a_size_mismatch
cargo test -q --offline --test conformance -- \
  straggler_demotion_drains_inflight_pipeline_cleanly
cargo test -q --offline --test overlap_prop
OVL_ELAPSED=$((SECONDS - OVL_T0))
if [ "$OVL_ELAPSED" -ge 60 ]; then
  echo "overlap smoke took ${OVL_ELAPSED}s (>= 60s): a split-phase wait is stalling" >&2
  exit 1
fi

echo "==> chaos smoke (single-threaded: fault scenarios share wall-clock budgets)"
cargo test -q --offline --test chaos -- --test-threads=1

echo "==> recovery chaos smoke (online shrink-and-continue + checkpoint fallback; one RA driver, resilience off = plain)"
cargo test -q --offline --test chaos -- --test-threads=1 \
  kill_one_of_eight_mid_sweep_recovers_online_within_1e10 \
  killing_rank_and_buddy_falls_back_to_checkpoint_cleanly \
  sampled_fault_plans_through_the_resilient_solver
cargo test -q --offline -p ratucker --lib -- \
  recover::tests::fault_free_resilient_run_is_bitwise_identical_to_plain \
  recover::tests::resilience_off_returns_the_first_error_unchanged

echo "==> gray-failure smoke (straggler demotion, retry healing, deadline fallback; 60 s guard)"
GRAY_T0=$SECONDS
cargo test -q --offline --test chaos -- --test-threads=1 \
  persistent_straggler_at_p8_is_demoted_online_within_1e10 \
  flaky_link_is_fully_healed_by_retries_bit_identically \
  deadline_expiry_under_dead_slow_rank_falls_back_to_checkpoint
GRAY_ELAPSED=$((SECONDS - GRAY_T0))
if [ "$GRAY_ELAPSED" -ge 60 ]; then
  echo "gray-failure smoke took ${GRAY_ELAPSED}s (>= 60s): a deadline/retry path is stalling" >&2
  exit 1
fi

echo "==> memory-pressure smoke (degradation ladder + checkpoint-floor fallback + rung-0 and rung-1 TTM staging; 60 s guard)"
MEM_T0=$SECONDS
cargo test -q --offline --test chaos -- --test-threads=1 \
  mid_sweep_budget_shrink_engages_ladder_and_converges \
  budget_below_checkpoint_floor_falls_back_cleanly
cargo test -q --offline --test mem_band -- \
  rung_zero_ttm_hwm_is_bounded_by_its_estimate \
  rung_one_ttm_hwm_is_bounded_by_its_estimate_and_below_rung_zero
MEM_ELAPSED=$((SECONDS - MEM_T0))
if [ "$MEM_ELAPSED" -ge 60 ]; then
  echo "memory-pressure smoke took ${MEM_ELAPSED}s (>= 60s): a budget-recovery path is stalling" >&2
  exit 1
fi

echo "==> serve smoke (multi-tenant service: mixed workload on a warm P=4 universe; 60 s guard)"
SERVE_T0=$SECONDS
# loadgen exits non-zero on any failed/lost job or traffic-partition
# violation and prints per-kind latency percentiles on success.
cargo run -q --release --offline -p ratucker-serve --bin loadgen -- \
  --p 4 --tenants 2 --requests 200 --seed 7
SERVE_ELAPSED=$((SECONDS - SERVE_T0))
if [ "$SERVE_ELAPSED" -ge 60 ]; then
  echo "serve smoke took ${SERVE_ELAPSED}s (>= 60s): the service queue or a worker is stalling" >&2
  exit 1
fi

echo "==> serve smoke (served stdio protocol round-trip)"
printf 'compress acme f dims=12x10x8 ranks=3x3x2\nquery acme f off=0,0,0 len=2,2,2\nstatus acme\nshutdown\n' |
  cargo run -q --release --offline -p ratucker-cli --bin served -- --p 4 --mem-budget 1G \
  | tee target/ci-served.log
if grep -q '^err' target/ci-served.log || ! grep -q 'partition_ok=true' target/ci-served.log; then
  echo "served stdio smoke failed (see target/ci-served.log)" >&2
  exit 1
fi

echo "==> trace smoke (span pipeline round-trip + perf-model validation)"
cargo run -q --release --offline -p ratucker-bench --bin tracecheck target/ci-trace.json

echo "==> trace smoke (CLI --trace-out on a small RA-HOSI-DT run)"
TRACE_CFG="$(mktemp)"
cat > "$TRACE_CFG" <<'EOF'
Global dims = 12 10 8
Construction Ranks = 3 3 2
Decomposition Ranks = 4 4 3
Noise = 0.01
Processor grid dims = 1 2 2
Dimension Tree Memoization = true
SVD Method = 2
HOOI-Adapt Threshold = 0.1
HOOI max iters = 3
Print timings = true
EOF
cargo run -q --release --offline -p ratucker-cli --bin hooi -- \
  --parameter-file "$TRACE_CFG" --trace-out target/ci-cli-trace.json --mem-budget 1G
test -s target/ci-cli-trace.json
rm -f "$TRACE_CFG"

echo "ci.sh: all green"
