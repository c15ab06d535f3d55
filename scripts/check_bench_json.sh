#!/usr/bin/env bash
# Schema check for the benchmark records: fails if a BENCH_*.json file is
# missing, empty, brace-unbalanced, or lacks the keys its consumers rely on.
#
# Usage: scripts/check_bench_json.sh <hotpath|service> <path>
set -euo pipefail

kind="${1:?usage: check_bench_json.sh <hotpath|service> <path>}"
path="${2:?usage: check_bench_json.sh <hotpath|service> <path>}"

case "$kind" in
  hotpath)
    keys=(
      '"bench": "hotpath"'
      '"mode":'
      'slice_union_microbench'
      'windowed_ms'
      'materializing_ms'
      'groupagg_q1_style'
      'fused_ms'
      'unfused_ms'
      'tpch_morsel_wall_time'
    )
    ;;
  service)
    keys=(
      '"bench": "service"'
      '"mode":'
      'client_churn'
      'throughput_qps'
      'result_cache_hits'
      'staged_departure'
      'mean_response_ms'
      'mean_admit_dop'
      '"overload"'
      '"shed"'
      '"timed_out"'
      'p99_response_ms'
      '"chaos"'
      'faults_injected'
      '"shared_scan"'
      'morsels_shared'
      'partials_reused'
    )
    ;;
  *)
    echo "check_bench_json.sh: unknown bench kind '$kind'" >&2
    exit 2
    ;;
esac

[ -s "$path" ] || { echo "FAIL: $path is missing or empty" >&2; exit 1; }

status=0
for key in "${keys[@]}"; do
  if ! grep -qF "$key" "$path"; then
    echo "FAIL: $path is missing required key: $key" >&2
    status=1
  fi
done

# Balanced braces/brackets: cheap well-formedness without a JSON parser.
opens=$(grep -o '{' "$path" | wc -l)
closes=$(grep -o '}' "$path" | wc -l)
if [ "$opens" -ne "$closes" ]; then
  echo "FAIL: $path has unbalanced braces ({: $opens, }: $closes)" >&2
  status=1
fi
opens=$(grep -o '\[' "$path" | wc -l)
closes=$(grep -o '\]' "$path" | wc -l)
if [ "$opens" -ne "$closes" ]; then
  echo "FAIL: $path has unbalanced brackets ([: $opens, ]: $closes)" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "OK: $path conforms to the $kind schema"
fi
exit "$status"
