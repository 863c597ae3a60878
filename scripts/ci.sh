#!/usr/bin/env bash
# CI entry point: configure, build, and test — plain Release plus an
# ASan/UBSan pass. Usage:
#   scripts/ci.sh            # release + sanitize passes
#   scripts/ci.sh release    # plain build + ctest only
#   scripts/ci.sh sanitize   # ASan/UBSan build + ctest only
#   scripts/ci.sh tsan       # ThreadSanitizer build; full ctest, then the
#                            # concurrent-scheduler pipeline on a generated
#                            # workload under GRAPPLE_CHECKER_PARALLELISM=4,
#                            # once more with GRAPPLE_THREADS=2 join shards
#   scripts/ci.sh bench      # smoke-scale bench sweep + trajectory report
#                            # plus a sample witness report (bench-reports/)
#   scripts/ci.sh recovery   # crash/resume smoke: kill the example pipeline
#                            # at a checkpoint crash point (simulated kill
#                            # -9), resume it, and require byte-identical
#                            # report JSON; plus the full in-tree crash
#                            # sweep (recovery_test), and checks that
#                            # GRAPPLE_CHECKPOINT=on without --work-dir
#                            # exits 2 naming the invalid option and that
#                            # a malformed --fsm spec exits 2 with the
#                            # parser's line-attributed error
#   scripts/ci.sh soak       # recovery soak: repeated kill -9 at every
#                            # registered crash point and escalating
#                            # ordinals against the example pipeline, each
#                            # resumed and byte-compared (nightly)
#   scripts/ci.sh obs        # live-introspection smoke: a scale-0.3 bench
#                            # run with GRAPPLE_STATUSZ on, all five
#                            # endpoints (/healthz /statusz /metricsz
#                            # /tracez /profilez) scraped and validated
#                            # mid-run
#   scripts/ci.sh profile    # sampling-profiler smoke: a profiled run of
#                            # the example pipeline (GRAPPLE_PROFILE=on),
#                            # profile.bin decoded via grapple-prof (table
#                            # + --json round-trip, then --collapsed
#                            # stacks), and the report
#                            # byte-compared against an unprofiled run
#   scripts/ci.sh service    # grappled daemon smoke: ephemeral port, a
#                            # two-tenant burst through grapple-client with
#                            # /statusz + /metricsz scraped mid-run, every
#                            # response byte-compared against a cold
#                            # one-shot analyze_file --json run, no file
#                            # left under the work root by the warm checks,
#                            # then a SIGTERM shutdown that must exit 0 and
#                            # leave no work dirs behind
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
mode="${1:-all}"

# Builds with make's directory-change chatter filtered out. The filter runs
# in a compound command whose `|| true` only absolves grep's "no lines
# matched" exit — under pipefail the pipeline still carries the *build's*
# exit status, so a compile error fails the script (a bare
# `... | grep ... || true` would swallow it).
build_filtered() {
  local build_dir="$1"
  cmake --build "${build_dir}" -j "${jobs}" -- --no-print-directory 2>&1 \
    | { grep -Ev '^(make|gmake)\[' || true; }
}

run_pass() {
  local name="$1"
  shift
  local build_dir="${repo_root}/build-ci-${name}"
  echo "==> [${name}] configure"
  cmake -S "${repo_root}" -B "${build_dir}" "$@" > /dev/null
  echo "==> [${name}] build"
  build_filtered "${build_dir}"
  echo "==> [${name}] test"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
}

# Smoke-scale bench sweep: every bench binary at a tiny GRAPPLE_SCALE, the
# aggregated BENCH_trajectory.json gated against the committed baseline,
# and one decoded-witness JSON report from the example front door — the
# artifacts CI uploads.
run_bench_smoke() {
  local build_dir="${repo_root}/build-ci-release"
  local out_dir="${build_dir}/bench-reports"
  echo "==> [bench] configure + build"
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release > /dev/null
  build_filtered "${build_dir}"
  echo "==> [bench] smoke sweep (GRAPPLE_SCALE=${GRAPPLE_SCALE:-0.1})"
  GRAPPLE_SCALE="${GRAPPLE_SCALE:-0.1}" "${repo_root}/scripts/bench.sh" "${build_dir}" "${out_dir}"
  echo "==> [bench] perf-regression gate"
  # The gate's verdict is recorded, not acted on yet: the self-test and the
  # sample witness below run either way, and the mode exits with it last.
  local gate_status=0
  python3 "${repo_root}/scripts/check_bench.py" \
    --baseline "${repo_root}/bench/BENCH_baseline.json" \
    "${out_dir}/BENCH_trajectory.json" || gate_status=$?
  # The gate must actually gate: an injected 2x regression has to fail,
  # over the whole watch list and over the src_lines gauge alone.
  local only
  for only in "" "gauge:src_lines"; do
    if python3 "${repo_root}/scripts/check_bench.py" \
        --baseline "${repo_root}/bench/BENCH_baseline.json" \
        --inject-regression 2.0 ${only:+--only "${only}"} \
        "${out_dir}/BENCH_trajectory.json" > /dev/null 2>&1; then
      echo "check_bench self-test FAILED: injected regression passed the gate${only:+ (${only})}" >&2
      exit 1
    fi
  done
  echo "==> [bench] gate self-test ok (injected regression rejected)"
  echo "==> [bench] sample witness report"
  GRAPPLE_WITNESS=bugs "${build_dir}/examples/analyze_file" \
    "${repo_root}/examples/testdata/leaky.grap" --json \
    > "${out_dir}/sample_witness_report.json" || true
  test -s "${out_dir}/sample_witness_report.json"
  grep -q '"witness"' "${out_dir}/sample_witness_report.json"
  echo "==> [bench] reports in ${out_dir}"
  if [[ "${gate_status}" -ne 0 ]]; then
    echo "==> [bench] perf-regression gate FAILED (exit ${gate_status})" >&2
    return "${gate_status}"
  fi
}

# One run of the example front door with checkpointing at every pair.
# Args: expected exit code, GRAPPLE_FAULTS spec ('' = none), output JSON
# path, work dir. Reads ${build_dir} from the caller's scope. Echoes the
# actual exit code on stdout so callers can branch on "crashed vs
# completed"; fails when the code matches neither expectation.
recovery_run() {
  local expect="$1" faults="$2" out="$3" work="$4" alt_expect="${5:-}"
  local status=0
  GRAPPLE_FAULTS="${faults}" GRAPPLE_CHECKPOINT_INTERVAL=1 \
    GRAPPLE_CHECKPOINT_SPACING=0 GRAPPLE_WITNESS=bugs \
    "${build_dir}/examples/analyze_file" \
    "${repo_root}/examples/testdata/leaky.grap" --json --work-dir "${work}" \
    > "${out}" 2> /dev/null || status=$?
  if [[ "${status}" -ne "${expect}" && "${status}" != "${alt_expect}" ]]; then
    echo "recovery: expected exit ${expect}${alt_expect:+ or ${alt_expect}}," \
      "got ${status} (faults='${faults}')" >&2
    return 1
  fi
  echo "${status}"
}

# Crash/resume smoke: the in-tree sweep (fork-based recovery_test +
# checkpoint/corruption suites), then the same acceptance criterion
# end-to-end through the CLI: a run killed by a simulated kill -9 right
# after publishing a manifest, resumed with the same arguments, must emit
# byte-identical report JSON (witnesses included).
run_recovery() {
  local build_dir="${repo_root}/build-ci-release"
  echo "==> [recovery] configure + build"
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release > /dev/null
  build_filtered "${build_dir}"
  echo "==> [recovery] in-tree crash sweep and corruption suites"
  ctest --test-dir "${build_dir}" --output-on-failure \
    -R '^(recovery_test|checkpoint_test|partition_corruption_test)$'
  local scratch="${build_dir}/recovery-smoke"
  rm -rf "${scratch}"
  mkdir -p "${scratch}"
  echo "==> [recovery] reference run (uninterrupted)"
  recovery_run 1 "" "${scratch}/ref.json" "${scratch}/work-ref" > /dev/null
  grep -q '"witness"' "${scratch}/ref.json"
  echo "==> [recovery] kill -9 at ckpt_published, then resume"
  recovery_run 137 "crash@ckpt_published#1" "${scratch}/crash.json" \
    "${scratch}/work-crash" > /dev/null
  recovery_run 1 "" "${scratch}/resumed.json" "${scratch}/work-crash" > /dev/null
  cmp "${scratch}/ref.json" "${scratch}/resumed.json"
  echo "==> [recovery] resumed report byte-identical to the uninterrupted run"
  echo "==> [recovery] checkpointing without --work-dir is refused (exit 2)"
  local status=0
  GRAPPLE_CHECKPOINT=on "${build_dir}/examples/analyze_file" \
    "${repo_root}/examples/testdata/leaky.grap" --json \
    > /dev/null 2> "${scratch}/no-work-dir.err" || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "recovery: GRAPPLE_CHECKPOINT=on without --work-dir exited ${status}, want 2" >&2
    return 1
  fi
  grep -q 'robustness.checkpoint_interval' "${scratch}/no-work-dir.err"
  echo "==> [recovery] a malformed FSM spec is refused (exit 2)"
  printf 'fsm bad\ntypes T\nstate A accept initial\nstate B initial\n' \
    > "${scratch}/bad.fsm"
  status=0
  "${build_dir}/examples/analyze_file" "${repo_root}/examples/testdata/leaky.grap" \
    --fsm "${scratch}/bad.fsm" > /dev/null 2> "${scratch}/bad-fsm.err" || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "recovery: a malformed --fsm spec exited ${status}, want 2" >&2
    return 1
  fi
  grep -q 'bad.fsm: line 4: second initial state' "${scratch}/bad-fsm.err"
}

# Recovery soak (nightly): kill -9 at every registered crash point, at
# escalating ordinals per round, resume each victim and byte-compare; one
# double-kill (a crash during the resume itself) closes each round. A
# crash clause whose point fires fewer than <ordinal> times lets the run
# complete — then its own output must already match the reference.
run_soak() {
  local build_dir="${repo_root}/build-ci-release"
  echo "==> [soak] configure + build"
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release > /dev/null
  build_filtered "${build_dir}"
  local scratch="${build_dir}/recovery-soak"
  rm -rf "${scratch}"
  mkdir -p "${scratch}"
  recovery_run 1 "" "${scratch}/ref.json" "${scratch}/work-ref" > /dev/null
  # Keep in sync with fault::AllCrashPoints() (fault_injection.cc); the
  # in-tree sweep already fails if a point is added without coverage.
  local points=(finalize_done run_pair_done ckpt_begin ckpt_temp_written
    ckpt_published ckpt_gc_done run_complete)
  local rounds="${GRAPPLE_SOAK_ROUNDS:-5}"
  local total=0 crashed=0
  for round in $(seq 1 "${rounds}"); do
    local ordinal=$((2 * round - 1))
    for point in "${points[@]}"; do
      local work="${scratch}/work-${point}-${round}"
      local out="${scratch}/out-${point}-${round}.json"
      local code
      code="$(recovery_run 137 "crash@${point}#${ordinal}" "${out}" "${work}" 1)"
      total=$((total + 1))
      if [[ "${code}" -eq 137 ]]; then
        crashed=$((crashed + 1))
        recovery_run 1 "" "${out}" "${work}" > /dev/null
      fi
      cmp "${scratch}/ref.json" "${out}" || {
        echo "soak: divergent report after crash@${point}#${ordinal}" >&2
        return 1
      }
    done
    # Double kill: die during the resume of a crashed run, then finish.
    local work="${scratch}/work-double-${round}"
    recovery_run 137 "crash@ckpt_published#${ordinal}" /dev/null "${work}" > /dev/null
    recovery_run 137 "crash@run_pair_done#1" /dev/null "${work}" 1 > /dev/null
    recovery_run 1 "" "${scratch}/double-${round}.json" "${work}" > /dev/null
    cmp "${scratch}/ref.json" "${scratch}/double-${round}.json"
  done
  echo "==> [soak] ${total} kills attempted, ${crashed} mid-run crashes," \
    "every resume byte-identical"
}

# One HTTP GET against the statusz listener; body on stdout, nonzero exit
# when the listener is down or the response is not 200. python3 stands in
# for curl so the smoke has no dependencies beyond what check_bench needs.
obs_get() {
  python3 - "$1" <<'PY'
import sys
import urllib.request

try:
    with urllib.request.urlopen(sys.argv[1], timeout=2) as response:
        if response.status != 200:
            sys.exit(1)
        sys.stdout.buffer.write(response.read())
except Exception:
    sys.exit(1)
PY
}

# Live-introspection smoke: run the bench at scale 0.3 with GRAPPLE_STATUSZ
# set and scrape all five endpoints over real HTTP *while it runs*, then
# validate every payload. The listener is owned by the analysis session of
# the moment (it stops between sessions), so each scrape round retries
# until a session is up; the round must land before the bench exits.
run_obs_smoke() {
  local build_dir="${repo_root}/build-ci-release"
  echo "==> [obs] configure + build"
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release > /dev/null
  build_filtered "${build_dir}"
  local port="${GRAPPLE_STATUSZ_PORT:-8931}"
  local out_dir="${build_dir}/obs-smoke"
  rm -rf "${out_dir}"
  mkdir -p "${out_dir}"
  echo "==> [obs] scale-0.3 bench run with statusz on 127.0.0.1:${port}"
  GRAPPLE_SCALE=0.3 GRAPPLE_STATUSZ="${port}" GRAPPLE_REPORT_DIR="${out_dir}" \
    "${build_dir}/bench/table3_performance" > "${out_dir}/bench.log" 2>&1 &
  local bench_pid=$!
  local base="http://127.0.0.1:${port}"
  local scraped=0
  for _ in $(seq 1 600); do
    if ! kill -0 "${bench_pid}" 2> /dev/null; then
      break
    fi
    if obs_get "${base}/healthz" > "${out_dir}/healthz.txt" \
        && obs_get "${base}/statusz" > "${out_dir}/statusz.json" \
        && obs_get "${base}/metricsz" > "${out_dir}/metricsz.txt" \
        && obs_get "${base}/tracez" > "${out_dir}/tracez.json" \
        && obs_get "${base}/profilez" > "${out_dir}/profilez.json"; then
      scraped=1
      break
    fi
    sleep 0.1
  done
  wait "${bench_pid}" || {
    echo "obs: bench run failed (see ${out_dir}/bench.log)" >&2
    return 1
  }
  if [[ "${scraped}" -ne 1 ]]; then
    echo "obs: never reached all five endpoints while the bench ran" >&2
    return 1
  fi
  grep -qx 'ok' "${out_dir}/healthz.txt"
  python3 -m json.tool "${out_dir}/statusz.json" > /dev/null
  python3 -m json.tool "${out_dir}/tracez.json" > /dev/null
  python3 -m json.tool "${out_dir}/profilez.json" > /dev/null
  grep -q '^# TYPE grapple_' "${out_dir}/metricsz.txt"
  grep -q '^# HELP grapple_' "${out_dir}/metricsz.txt"
  grep -q '^grapple_' "${out_dir}/metricsz.txt"
  echo "==> [obs] all five endpoints scraped and validated mid-run"
}

# Sampling-profiler smoke: one profiled run of the example pipeline, then
# every consumer of profile.bin exercised — the grapple-prof table and
# --json modes (the JSON must parse), grapple-prof --collapsed (collapsed
# stacks with at least one attributed frame), and finally the acceptance
# criterion that profiling never changes results: the report JSON from the
# profiled run must be byte-identical to an unprofiled one.
run_profile_smoke() {
  local build_dir="${repo_root}/build-ci-release"
  echo "==> [profile] configure + build"
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release > /dev/null
  build_filtered "${build_dir}"
  local out_dir="${build_dir}/profile-smoke"
  rm -rf "${out_dir}"
  mkdir -p "${out_dir}"
  echo "==> [profile] unprofiled reference run"
  GRAPPLE_WITNESS=bugs "${build_dir}/examples/analyze_file" \
    "${repo_root}/examples/testdata/leaky.grap" --json \
    --work-dir "${out_dir}/work-off" > "${out_dir}/ref.json" || true
  test -s "${out_dir}/ref.json"
  echo "==> [profile] profiled run (GRAPPLE_PROFILE=on)"
  GRAPPLE_PROFILE=on GRAPPLE_PROFILE_HZ=500 GRAPPLE_WITNESS=bugs \
    "${build_dir}/examples/analyze_file" \
    "${repo_root}/examples/testdata/leaky.grap" --json \
    --work-dir "${out_dir}/work-on" > "${out_dir}/profiled.json" || true
  test -s "${out_dir}/work-on/profile.bin"
  echo "==> [profile] report byte-identity (profiled vs unprofiled)"
  cmp "${out_dir}/ref.json" "${out_dir}/profiled.json"
  echo "==> [profile] grapple-prof table + JSON round-trip"
  "${build_dir}/tools/grapple-prof" "${out_dir}/work-on/profile.bin" \
    > "${out_dir}/profile.txt"
  grep -q 'samples' "${out_dir}/profile.txt"
  "${build_dir}/tools/grapple-prof" --json "${out_dir}/work-on/profile.bin" \
    > "${out_dir}/profile.json"
  python3 -m json.tool "${out_dir}/profile.json" > /dev/null
  echo "==> [profile] collapsed stacks via grapple-prof --collapsed"
  "${build_dir}/tools/grapple-prof" --collapsed \
    "${out_dir}/work-on/profile.bin" > "${out_dir}/profile.collapsed"
  echo "==> [profile] profiled report identical; decoders agree"
}

# Analysis-service smoke: the full daemon lifecycle over real HTTP.
# grappled starts on an ephemeral port (discovered via --port-file), two
# tenants drive a concurrent burst through grapple-client, /statusz and
# /metricsz are scraped while the burst is in flight, and every /check
# response — cold or warm, either tenant — must be byte-identical to what
# a cold one-shot `analyze_file <subject> --json` prints. Afterwards the
# daemon gets SIGTERM and must exit 0, report warm hits in its final
# /statusz, and leave neither its work root nor its port file behind.
run_service_smoke() {
  local build_dir="${repo_root}/build-ci-release"
  echo "==> [service] configure + build"
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release > /dev/null
  build_filtered "${build_dir}"
  local out_dir="${build_dir}/service-smoke"
  rm -rf "${out_dir}"
  mkdir -p "${out_dir}"
  local subject="${repo_root}/examples/testdata/leaky.grap"
  local client="${build_dir}/tools/grapple-client"

  echo "==> [service] cold one-shot reference (analyze_file --json)"
  # Exit 1 just means "reports found", which is the point of leaky.grap;
  # 2 (usage/parse) and 3 (witness replay) are real failures.
  local ref_rc=0
  "${build_dir}/examples/analyze_file" "${subject}" --json \
    > "${out_dir}/ref.json" 2> /dev/null || ref_rc=$?
  if [[ "${ref_rc}" -gt 1 ]]; then
    echo "service: analyze_file failed with rc=${ref_rc}" >&2
    return 1
  fi
  test -s "${out_dir}/ref.json"

  echo "==> [service] start grappled on an ephemeral port"
  "${build_dir}/tools/grappled" --port 0 --port-file "${out_dir}/port" \
    --slots 2 --workers 4 2> "${out_dir}/grappled.log" &
  local daemon_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    if [[ -s "${out_dir}/port" ]]; then
      port="$(cat "${out_dir}/port")"
      break
    fi
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "service: grappled never published its port" >&2
    cat "${out_dir}/grappled.log" >&2
    return 1
  fi
  local base="http://127.0.0.1:${port}"
  local work_root
  work_root="$(sed -n 's/.*work_root=//p' "${out_dir}/grappled.log" | head -1)"
  test -d "${work_root}"

  echo "==> [service] two-tenant burst on 127.0.0.1:${port}"
  "${client}" --port "${port}" --tenant alpha --fields reports "${subject}" \
    > "${out_dir}/alpha-cold.json"
  "${client}" --port "${port}" --tenant beta --priority batch --fields reports \
    "${subject}" > "${out_dir}/beta-cold.json"
  local burst_pids=()
  local tenant c i
  for tenant in alpha beta; do
    for c in 1 2; do
      (
        for i in 1 2 3; do
          "${client}" --port "${port}" --tenant "${tenant}" --fields reports \
            "${subject}" > "${out_dir}/${tenant}-${c}-${i}.json"
        done
      ) &
      burst_pids+=("$!")
    done
  done
  echo "==> [service] mid-run /statusz + /metricsz scrape"
  obs_get "${base}/statusz" > "${out_dir}/statusz-mid.json"
  obs_get "${base}/metricsz" > "${out_dir}/metricsz-mid.txt"
  local pid
  for pid in "${burst_pids[@]}"; do
    wait "${pid}"
  done
  python3 -m json.tool "${out_dir}/statusz-mid.json" > /dev/null
  grep -q '"service"' "${out_dir}/statusz-mid.json"
  grep -q '^grapple_service_requests_total' "${out_dir}/metricsz-mid.txt"

  echo "==> [service] responses byte-identical to the one-shot run"
  local response
  for response in "${out_dir}"/alpha-*.json "${out_dir}"/beta-*.json; do
    cmp "${out_dir}/ref.json" "${response}"
  done

  echo "==> [service] warm sessions visible in /statusz"
  obs_get "${base}/statusz" > "${out_dir}/statusz-final.json"
  python3 - "${out_dir}/statusz-final.json" <<'PY'
import json
import sys

with open(sys.argv[1], "r", encoding="utf-8") as f:
    sessions = json.load(f)["sources"]["service"]["sessions"]
assert sessions["warm_hits"] > 0, sessions
assert sessions["resident"] == 2, sessions
PY
  "${client}" --port "${port}" --tenant alpha "${subject}" > "${out_dir}/envelope.json"
  grep -q '"warm":true' "${out_dir}/envelope.json"

  echo "==> [service] warm checks left no files under the work root"
  local leftover
  leftover="$(find "${work_root}" -type f)"
  if [[ -n "${leftover}" ]]; then
    echo "service: engine runs left files under ${work_root}:" >&2
    echo "${leftover}" >&2
    return 1
  fi

  echo "==> [service] SIGTERM shutdown"
  kill -TERM "${daemon_pid}"
  wait "${daemon_pid}"
  grep -q 'grappled: bye' "${out_dir}/grappled.log"
  if [[ -e "${work_root}" ]]; then
    echo "service: leaked work dirs under ${work_root}" >&2
    find "${work_root}" >&2
    return 1
  fi
  if [[ -e "${out_dir}/port" ]]; then
    echo "service: leaked port file" >&2
    return 1
  fi
  echo "==> [service] clean shutdown, no leaked work dirs"
}

# ThreadSanitizer pass: the whole suite runs under TSan (the scheduler,
# task-runtime, service, and engine tests all spin up real thread
# contention), then the parallel pipeline is exercised end-to-end on a
# generated workload via the table3 scheduler section, which runs 4
# checkers concurrently.
run_tsan() {
  local build_dir="${repo_root}/build-ci-tsan"
  run_pass tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGRAPPLE_SANITIZE=thread
  echo "==> [tsan] concurrent scheduler pipeline (parallelism=4)"
  mkdir -p "${build_dir}/bench-reports"
  GRAPPLE_SCALE="${GRAPPLE_SCALE:-0.1}" GRAPPLE_CHECKER_PARALLELISM=4 \
    GRAPPLE_REPORT_DIR="${build_dir}/bench-reports" \
    "${build_dir}/bench/table3_performance"
  # Two join shards per engine: the lock-free memo probes and the
  # shard-ordered commit run concurrently end to end, not only in ctest.
  echo "==> [tsan] concurrent scheduler pipeline (parallelism=4, 2 join shards)"
  GRAPPLE_SCALE="${GRAPPLE_SCALE:-0.1}" GRAPPLE_CHECKER_PARALLELISM=4 GRAPPLE_THREADS=2 \
    GRAPPLE_REPORT_DIR="${build_dir}/bench-reports" \
    "${build_dir}/bench/table3_performance"
}

case "${mode}" in
  release)
    run_pass release -DCMAKE_BUILD_TYPE=Release
    ;;
  bench)
    run_bench_smoke
    ;;
  sanitize)
    run_pass sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGRAPPLE_SANITIZE=address,undefined
    ;;
  tsan)
    run_tsan
    ;;
  recovery)
    run_recovery
    ;;
  soak)
    run_soak
    ;;
  obs)
    run_obs_smoke
    ;;
  profile)
    run_profile_smoke
    ;;
  service)
    run_service_smoke
    ;;
  all)
    run_pass release -DCMAKE_BUILD_TYPE=Release
    run_pass sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGRAPPLE_SANITIZE=address,undefined
    ;;
  *)
    echo "usage: scripts/ci.sh [release|sanitize|tsan|bench|recovery|soak|obs|profile|service|all]" >&2
    exit 2
    ;;
esac

echo "==> CI passed (${mode})"
