#!/usr/bin/env bash
# Runs every paper-reproduction bench binary and aggregates their
# machine-readable BENCH_<name>.json reports into one BENCH_trajectory.json,
# stamped with a schema version and the git SHA, so successive runs can be
# diffed over the repo's history.
#
# Usage:
#   scripts/bench.sh [build-dir] [out-dir]
#
#   build-dir  where the bench binaries live (default: build; configured and
#              built on demand when missing)
#   out-dir    where BENCH_*.json and BENCH_trajectory.json land
#              (default: <build-dir>/bench-reports)
#
# GRAPPLE_SCALE scales the synthetic subjects (e.g. GRAPPLE_SCALE=0.1 for a
# CI smoke run); GRAPPLE_WITNESS picks the provenance mode under test;
# GRAPPLE_CHECKER_PARALLELISM sets the concurrent-checker count used by the
# scheduler speedup section of table3 (default 4).
#
# Besides the bench binaries' reports, the sweep writes BENCH_code_size.json:
# the gauge src_lines, the line count of src/**/*.{cc,h}.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_dir="${2:-${build_dir}/bench-reports}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

benches=(table1_subjects table2_bugs table3_performance fig9_breakdown
  table4_caching table5_encoding service_bench)

if [[ ! -x "${build_dir}/bench/${benches[0]}" ]]; then
  echo "==> configuring and building benches in ${build_dir}"
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "${build_dir}" -j "${jobs}" --target "${benches[@]}" > /dev/null
fi

mkdir -p "${out_dir}"
export GRAPPLE_REPORT_DIR="${out_dir}"
export GRAPPLE_CHECKER_PARALLELISM="${GRAPPLE_CHECKER_PARALLELISM:-4}"

for bench in "${benches[@]}"; do
  echo "==> ${bench} (GRAPPLE_SCALE=${GRAPPLE_SCALE:-1})"
  "${build_dir}/bench/${bench}"
done

src_lines="$(find "${repo_root}/src" \( -name '*.cc' -o -name '*.h' \) -print0 |
  xargs -0 cat | wc -l | tr -d ' ')"
echo "==> code_size: src_lines=${src_lines}"
code_size_format='{"schema":"grapple.bench_report.v1","bench":"code_size","subjects":[{"subject":"src",'
code_size_format+='"phases":[{"name":"lines","metrics":{"counters":{},"gauges":{"src_lines":%s},'
code_size_format+='"histograms":{}}}]}]}\n'
# shellcheck disable=SC2059  # the format is the fixed template above
printf "${code_size_format}" "${src_lines}" > "${out_dir}/BENCH_code_size.json"
benches+=(code_size)

# Validate every report before embedding it: the trajectory file is built
# by concatenation, so one malformed BENCH_<name>.json would poison the
# whole artifact and only surface later (in check_bench or a dashboard).
# Fail loudly here instead, naming the offending file.
for bench in "${benches[@]}"; do
  report="${out_dir}/BENCH_${bench}.json"
  if [[ ! -f "${report}" ]]; then
    echo "missing bench report: ${report}" >&2
    exit 1
  fi
  if ! python3 -m json.tool "${report}" > /dev/null 2>&1; then
    echo "malformed bench report: ${report}" >&2
    exit 1
  fi
done

# Aggregate: each BENCH_<name>.json was validated above, so the trajectory
# file just embeds them as array elements.
git_sha="$(git -C "${repo_root}" rev-parse HEAD 2>/dev/null || echo unknown)"
trajectory="${out_dir}/BENCH_trajectory.json"
{
  printf '{"schema":"grapple.bench_trajectory.v1","schema_version":1,'
  printf '"git_sha":"%s","scale":%s,"checker_parallelism":%s,"benches":[' \
    "${git_sha}" "${GRAPPLE_SCALE:-1}" "${GRAPPLE_CHECKER_PARALLELISM}"
  first=1
  for bench in "${benches[@]}"; do
    report="${out_dir}/BENCH_${bench}.json"
    if [[ "${first}" -eq 0 ]]; then printf ','; fi
    first=0
    cat "${report}"
  done
  printf ']}\n'
} > "${trajectory}"

if ! python3 -m json.tool "${trajectory}" > /dev/null 2>&1; then
  echo "malformed bench report: ${trajectory}" >&2
  exit 1
fi

echo "==> wrote ${trajectory} ($(wc -c < "${trajectory}") bytes, sha ${git_sha})"
