#!/usr/bin/env bash
# Full pre-merge gate for the CEIO simulator.
#
# Stages (each skips gracefully when its tool is absent):
#   1. static checker       tools/lint/ceio_lint.py over the tree (zero
#                           unsuppressed findings across the convention and
#                           determinism rules), plus its golden-file
#                           self-test (tools/lint/fixtures/)
#   2. release build + test cmake Release with CEIO_WERROR=ON (the
#                           -Wall/-Wextra/-Wshadow net is a gate), ctest
#   3. telemetry identity   same scenarios, hooks compiled out vs compiled
#                           in-but-disabled vs compiled in and recording
#                           (--trace) — reports must be byte-identical
#   4. migration safety     every golden in tools/golden/goldens.txt (fig04,
#                           ceio_sim scenarios for each datapath, governor-off
#                           and --shards 4 variants) diffed byte for byte;
#                           the same `golden`-labelled ctests tier-1 runs
#   5. audited build + test CEIO_AUDIT=ON (invariant sweeps active)
#   6. asan build + test    CEIO_AUDIT=ON + CEIO_SANITIZE=address
#   7. ubsan build + test   CEIO_AUDIT=ON + CEIO_SANITIZE=undefined
#   8. tsan sweep           CEIO_SANITIZE=thread; a multi-axis ceio_sim sweep
#                           at --jobs 4, byte-compared against --jobs 1
#   9. tsan shards          CEIO_SANITIZE=thread; the sharded-kv-short and
#                           governed-kv-short (sim.domains=4) scenarios at
#                           --shards 4, byte-compared against --shards 1
#                           (conservative-lookahead determinism, including
#                           the datapath governor's decisions)
#  10. clang-tidy           over src/ using the .clang-tidy profile
#  11. perf gate            same-machine A/B: bench/perf_core from the
#                           release tree vs perf_core built from the base
#                           commit (HEAD, or HEAD~1 when the tree is clean)
#                           in a temporary git worktree, 5 interleaved runs
#                           each; fails when the median ratio drops >25% on
#                           events_per_sec, llc_ops_per_sec, the three
#                           per-case llc_* keys (hit-heavy / miss-heavy /
#                           premature-evict — the aggregate can hide a
#                           one-pattern regression), flow_lookup_ops_per_sec,
#                           sharded_pkts_per_sec, multitenant_pkts_per_sec
#                           or fig10_governed_pkts_per_sec
#
# Usage: tools/check.sh [--quick]
#   --quick runs stages 1-2 only (lint + release tests).
#
# Build trees live under build-check/<stage> so the gate never disturbs a
# developer's primary build/ tree.
set -u -o pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
CHECK_ROOT="${REPO_ROOT}/build-check"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

failures=()
note() { printf '\n== %s ==\n' "$*"; }
stage_result() {  # stage_result <name> <status>
  if [[ "$2" -ne 0 ]]; then
    failures+=("$1")
    printf -- '-- %s: FAIL\n' "$1"
  else
    printf -- '-- %s: ok\n' "$1"
  fi
}

build_and_test() {  # build_and_test <tree-name> <cmake-args...>
  local tree="${CHECK_ROOT}/$1"
  shift
  cmake -S "${REPO_ROOT}" -B "${tree}" "$@" >/dev/null || return 1
  cmake --build "${tree}" -j "${JOBS}" >/dev/null || return 1
  ctest --test-dir "${tree}" --output-on-failure -j "${JOBS}" | tail -n 3
}

# -- 1: static checker -------------------------------------------------------
# Zero unsuppressed findings over the tree, and every seeded fixture
# violation detected; only a missing python3 skips the stage.
note "lint (tools/lint/ceio_lint.py + golden-file self-test)"
if command -v python3 >/dev/null 2>&1; then
  lint_status=0
  python3 "${REPO_ROOT}/tools/lint/ceio_lint.py" || lint_status=1
  python3 "${REPO_ROOT}/tools/lint/test_ceio_lint.py" || lint_status=1
  stage_result lint "${lint_status}"
else
  echo "python3 not found; skipping"
fi

# -- 2: release build + tests ------------------------------------------------
note "release build + ctest (CEIO_WERROR=ON)"
build_and_test release -DCMAKE_BUILD_TYPE=Release -DCEIO_WERROR=ON
stage_result release $?

if [[ "${QUICK}" -eq 1 ]]; then
  note "quick mode: skipping telemetry/audit/sanitizer/clang-tidy stages"
else
  # -- 3: telemetry bit-identity ---------------------------------------------
  # The telemetry hooks must never perturb simulation results. Run paper
  # scenarios in the stage-2 tree (CEIO_TELEMETRY compiled out in Release),
  # then with the hooks compiled in but left disabled, then compiled in and
  # recording (--trace); any byte of difference in the report is a hook
  # leaking into model behaviour. The trace summary goes to stderr, so the
  # traced report diffs directly.
  note "telemetry bit-identity (compiled out vs compiled in: disabled, tracing)"
  tele_tree="${CHECK_ROOT}/telemetry"
  tele_status=1
  if cmake -S "${REPO_ROOT}" -B "${tele_tree}" -DCMAKE_BUILD_TYPE=Release \
      -DCEIO_TELEMETRY=ON >/dev/null &&
      cmake --build "${tele_tree}" -j "${JOBS}" --target ceio_sim_cli >/dev/null &&
      cmake --build "${CHECK_ROOT}/release" -j "${JOBS}" --target ceio_sim_cli >/dev/null; then
    tele_identity() {  # tele_identity <ceio_sim args...>
      local reference="${tele_tree}/reference.txt"
      "${CHECK_ROOT}/release/tools/ceio_sim" "$@" >"${reference}" || return 1
      if ! diff "${reference}" <("${tele_tree}/tools/ceio_sim" "$@"); then
        echo "hooks compiled in but disabled diverge: $*"
        return 1
      fi
      if ! diff "${reference}" <("${tele_tree}/tools/ceio_sim" "$@" \
          --trace="${tele_tree}/identity" 2>"${tele_tree}/identity.log"); then
        echo "hooks compiled in and tracing diverge: $*"
        return 1
      fi
    }
    tele_status=0
    tele_identity --system=ceio --app=kv --flows=8 --rate-gbps=25 --ms=2 || tele_status=1
    tele_identity --scenario multitenant-short || tele_status=1
    [[ "${tele_status}" -eq 0 ]] && echo "outputs byte-identical (disabled and tracing)"
  fi
  stage_result telemetry-identity "${tele_status}"

  # -- 4: migration safety (committed golden outputs) ------------------------
  # Refactors must not change what the paper binaries print. The golden set
  # lives in tools/golden/goldens.txt (which also says how to regenerate a
  # golden after an intentional model change); the release tree registers
  # each line as a `golden`-labelled ctest. Stage 2's ctest already ran
  # them; this stage reports them on their own.
  note "migration safety (tools/golden/goldens.txt)"
  golden_status=1
  if ctest --test-dir "${CHECK_ROOT}/release" -L golden --output-on-failure \
      -j "${JOBS}" | tail -n 3; then
    golden_status=0
    echo "outputs match committed goldens"
  fi
  stage_result migration-safety "${golden_status}"

  # -- 5: audited build + tests ----------------------------------------------
  note "audited build + ctest (CEIO_AUDIT=ON, CEIO_WERROR=ON)"
  build_and_test audit -DCMAKE_BUILD_TYPE=Release -DCEIO_AUDIT=ON \
    -DCEIO_WERROR=ON
  stage_result audit $?

  # -- 6/7: sanitizers, with auditing on so sweeps run under them ------------
  note "asan build + ctest (CEIO_AUDIT=ON, CEIO_SANITIZE=address)"
  build_and_test asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCEIO_AUDIT=ON \
    -DCEIO_SANITIZE=address
  stage_result asan $?

  note "ubsan build + ctest (CEIO_AUDIT=ON, CEIO_SANITIZE=undefined)"
  build_and_test ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCEIO_AUDIT=ON \
    -DCEIO_SANITIZE=undefined
  stage_result ubsan $?

  # -- 8: tsan sweep ---------------------------------------------------------
  # The sweep runner fans experiments out on a thread pool; run a small
  # multi-axis sweep at --jobs 4 under ThreadSanitizer and require the rows
  # to be byte-identical to the single-threaded expansion. TSan reports make
  # ceio_sim exit non-zero (halt_on_error), failing the stage.
  note "tsan sweep (CEIO_SANITIZE=thread, --jobs 4 vs --jobs 1)"
  tsan_tree="${CHECK_ROOT}/tsan"
  tsan_status=1
  tsan_sweep() {  # tsan_sweep <jobs>
    TSAN_OPTIONS="halt_on_error=1" "${tsan_tree}/tools/ceio_sim" \
      --scenario ceio-kv-short --ms 1 --sweep llc.ddio_ways=2,4 --runs 2 \
      --jobs "$1"
  }
  if cmake -S "${REPO_ROOT}" -B "${tsan_tree}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCEIO_SANITIZE=thread >/dev/null &&
      cmake --build "${tsan_tree}" -j "${JOBS}" --target ceio_sim_cli >/dev/null; then
    if diff <(tsan_sweep 1) <(tsan_sweep 4); then
      echo "sweep rows byte-identical under TSan at --jobs 4"
      tsan_status=0
    else
      echo "parallel sweep diverges or raced under TSan"
    fi
  fi
  stage_result tsan-sweep "${tsan_status}"

  # -- 9: tsan sharded run ---------------------------------------------------
  # The sharded harness advances event domains on worker threads behind
  # epoch barriers; run the sharded scenario at --shards 4 under
  # ThreadSanitizer and require the report to be byte-identical to the
  # --shards 1 expansion (the same determinism contract stage 8 gives the
  # sweep runner's --jobs).
  note "tsan sharded run (sharded-kv-short, --shards 4 vs --shards 1)"
  tsan_shards_status=1
  tsan_sharded() {  # tsan_sharded <shards>
    TSAN_OPTIONS="halt_on_error=1" "${tsan_tree}/tools/ceio_sim" \
      --scenario sharded-kv-short --ms 1 --shards "$1"
  }
  # The governed variant proves the datapath governor's decisions are
  # sharding-invariant: per-domain governors tick on domain-local gauges, so
  # the worker-thread count must not change a single byte.
  tsan_governed() {  # tsan_governed <shards>
    TSAN_OPTIONS="halt_on_error=1" "${tsan_tree}/tools/ceio_sim" \
      --scenario governed-kv-short --ms 1 --set sim.domains=4 --shards "$1"
  }
  if [[ -x "${tsan_tree}/tools/ceio_sim" ]]; then
    if diff <(tsan_sharded 1) <(tsan_sharded 4); then
      echo "sharded report byte-identical under TSan at --shards 4"
      tsan_shards_status=0
    else
      echo "sharded run diverges or raced under TSan"
    fi
    if [[ "${tsan_shards_status}" -eq 0 ]]; then
      if diff <(tsan_governed 1) <(tsan_governed 4); then
        echo "governed sharded report byte-identical under TSan at --shards 4"
      else
        echo "governed sharded run diverges or raced under TSan"
        tsan_shards_status=1
      fi
    fi
  fi
  stage_result tsan-shards "${tsan_shards_status}"

  # -- 10: clang-tidy --------------------------------------------------------
  note "clang-tidy"
  if command -v clang-tidy >/dev/null 2>&1 && command -v run-clang-tidy >/dev/null 2>&1; then
    tidy_tree="${CHECK_ROOT}/tidy"
    cmake -S "${REPO_ROOT}" -B "${tidy_tree}" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
      run-clang-tidy -quiet -p "${tidy_tree}" "${REPO_ROOT}/src/.*" \
        >"${tidy_tree}/clang-tidy.log" 2>&1
    tidy_status=$?
    grep -E "warning:|error:" "${tidy_tree}/clang-tidy.log" | sort -u | head -n 40 || true
    stage_result clang-tidy "${tidy_status}"
  else
    echo "clang-tidy / run-clang-tidy not found; skipping (install LLVM tools to enable)"
  fi

  # -- 11: perf gate ----------------------------------------------------------
  # Wall-clock regression guard over the event core, as a same-machine A/B:
  # perf_core from the release tree against perf_core built from the base
  # commit in a temporary git worktree. The base is HEAD while the tree has
  # uncommitted changes, HEAD~1 once they are committed. Five interleaved
  # runs of each absorb drift and noise; each key is gated on the median of
  # the per-pair ratios (>25% drop fails) and reported with both sides'
  # min..max. BENCH_perf_core.json is a trajectory log, not a threshold.
  note "perf gate (perf_core, same-machine A/B vs the base commit, median of 5)"
  if command -v python3 >/dev/null 2>&1; then
    perf_status=1
    base_rev=HEAD
    if git -C "${REPO_ROOT}" diff --quiet HEAD 2>/dev/null; then base_rev=HEAD~1; fi
    perf_runs="${CHECK_ROOT}/perf-ab"
    base_src="$(mktemp -d)"
    rm -rf "${perf_runs}"
    mkdir -p "${perf_runs}"
    if git -C "${REPO_ROOT}" worktree add --detach "${base_src}" "${base_rev}" >/dev/null 2>&1 &&
        cmake -S "${base_src}" -B "${perf_runs}/base-build" -DCMAKE_BUILD_TYPE=Release \
          >/dev/null &&
        cmake --build "${perf_runs}/base-build" -j "${JOBS}" --target perf_core >/dev/null &&
        cmake --build "${CHECK_ROOT}/release" -j "${JOBS}" --target perf_core >/dev/null; then
      echo "base: $(git -C "${REPO_ROOT}" rev-parse --short "${base_rev}") (${base_rev})"
      perf_ok=1
      for run in 0 1 2 3 4; do
        (cd "${perf_runs}" &&
          "${perf_runs}/base-build/bench/perf_core" "base${run}.json" >/dev/null &&
          "${CHECK_ROOT}/release/bench/perf_core" "fresh${run}.json" >/dev/null) ||
          perf_ok=0
      done
      if [[ "${perf_ok}" -eq 1 ]]; then
        python3 - "${perf_runs}" 5 <<'PYEOF' && perf_status=0
import json, statistics, sys
runs_dir, n = sys.argv[1], int(sys.argv[2])
base = [json.load(open(f"{runs_dir}/base{i}.json")) for i in range(n)]
fresh = [json.load(open(f"{runs_dir}/fresh{i}.json")) for i in range(n)]
ok = True
for key in ("events_per_sec", "llc_ops_per_sec", "llc_hit_heavy_ops_per_sec",
            "llc_miss_heavy_ops_per_sec", "llc_premature_evict_ops_per_sec",
            "flow_lookup_ops_per_sec", "sharded_pkts_per_sec",
            "multitenant_pkts_per_sec", "fig10_governed_pkts_per_sec"):
    if key not in base[0]:
        print(f"  {key}: not in the base build; skipped")
        continue
    b = [float(r[key]) for r in base]
    f = [float(r[key]) for r in fresh]
    ratios = [x / y if y else 1.0 for x, y in zip(f, b)]
    median = statistics.median(ratios)
    print(f"  {key}: base {min(b):.0f}..{max(b):.0f}  fresh {min(f):.0f}..{max(f):.0f}  "
          f"ratio min {min(ratios):.2f} median {median:.2f} max {max(ratios):.2f}")
    if median < 0.75:
        ok = False
sys.exit(0 if ok else 1)
PYEOF
      fi
    fi
    git -C "${REPO_ROOT}" worktree remove --force "${base_src}" >/dev/null 2>&1
    rm -rf "${base_src}"
    git -C "${REPO_ROOT}" worktree prune
    stage_result perf-gate "${perf_status}"
  else
    echo "python3 not found; skipping"
  fi
fi

note "summary"
if [[ "${#failures[@]}" -gt 0 ]]; then
  echo "FAILED stages: ${failures[*]}"
  exit 1
fi
echo "all stages passed"
