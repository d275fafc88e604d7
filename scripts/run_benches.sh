#!/usr/bin/env bash
# Builds the Release tree, runs every claim bench (C1-C13 plus the
# extensions) with --json, and aggregates the per-bench reports into
# bench-out/BENCH_PR.json. Exits nonzero if any bench reports MISMATCH
# (a bench that crashes or fails to produce a report also fails the run,
# as does a failing bench_kernels).
#
# Usage: scripts/run_benches.sh [build-dir] [out-dir] [--baseline [file]]
#                               [--only <bench,bench,...>] [--jobs <n>]
#                               [--batch <n>] [--quantized]
#                               [--latency] [--profile] [--util-floor <f>]
#                               [--overlap-grid <n>]
#
#   --baseline [file]  After the run, gate the aggregate report against
#                      the committed baseline (default
#                      bench-out/BENCH_BASELINE.json) with bench_diff;
#                      metric drift beyond tolerance fails the script.
#   --only a,b,c       Run only the named benches. The aggregate then
#                      covers a subset, so the baseline gate runs in
#                      --subset mode (missing benches don't fail).
#   --jobs <n>         Worker lanes for each claim bench's Monte-Carlo
#                      pool (forwarded as the bench's --jobs). Results
#                      are thread-count independent; only wall time
#                      changes. Default: the bench's own default
#                      (hardware_concurrency).
#   --batch <n>        Forward --batch <n> to every bench: benches with a
#                      trial-batched runner (C4, C7) push n trials in
#                      SIMD lockstep per Monte-Carlo group — bitwise
#                      identical results, lower wall time. Benches
#                      without a batched path ignore the flag.
#   --quantized        Forward --quantized (only meaningful with
#                      --batch): C4/C7 re-run every sweep cell on the
#                      int16 Viterbi/min-sum decoders from a paired seed
#                      and report quantized_per_delta_max — gate it with
#                      --baseline bench-out/BENCH_BASELINE_BATCH.json.
#   --latency          Forward --latency to every bench: simulator
#                      benches add frame-lifecycle books (delay
#                      percentiles, time series, invariant audit) to
#                      their reports.
#   --profile          Forward --profile to every bench: each writes its
#                      span flamegraph as collapsed stacks to
#                      <out>/<bench>.folded and a "spans" section into
#                      its report.
#   --util-floor <f>   Pool-utilization floor for the summary table
#                      (default 0.10): a bench that ran pool tasks but
#                      kept the lanes busy less than this fraction of
#                      lanes x wall gets a WARN line (informational; the
#                      exit code is unaffected).
#   --overlap-grid <n> Building-grid side for the bench_city_overlap
#                      pseudo-bench (the bench_city binary run with
#                      --overlap <n>; default 32 = the full 102,400-node
#                      bordered city). CI smoke passes a small grid; the
#                      resulting EXT-CITY-OVERLAP-SMOKE report is not
#                      pinned by the baseline.
#
# After the per-bench runs the script prints a summary table (verdict,
# jobs, wall seconds, pool utilization, lane imbalance per bench) and a
# kernel-share table (seconds inside each hot kernel per wall second,
# from the kernel_share.* metrics).
#
# Independent of the verdicts, any bench whose report shows a nonzero
# "sink_dropped" (a trace sink lost events, so trace-derived metrics are
# skewed) or a nonzero "lifecycle_breaches" metric (the invariant
# auditor caught a conservation violation) is counted as a MISMATCH.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

BENCHES=(
  bench_c1_generations
  bench_c2_processing_gain
  bench_c3_cck
  bench_c4_ofdm
  bench_c5_mimo_rate
  bench_c6_mimo_range
  bench_c7_ldpc
  bench_c8_beamforming
  bench_c9_mesh
  bench_c10_coop
  bench_c11_papr
  bench_c12_power
  bench_c13_psm
  bench_rate_adaptation
  bench_hidden_terminal
  bench_ablations
  bench_abstraction
  bench_multibss
  bench_city
  bench_city_overlap
)

# Pseudo-benches share a binary with a sibling; map name -> binary.
bin_of() {
  case "$1" in
    bench_city_overlap) echo bench_city ;;
    *) echo "$1" ;;
  esac
}

BUILD=""
OUT=""
BASELINE=""
ONLY=""
JOBS=""
BATCH=""
QUANTIZED=""
LATENCY=""
PROFILE=""
UTIL_FLOOR="0.10"
OVERLAP_GRID="32"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --baseline)
      BASELINE="__default__"
      if [[ $# -gt 1 && "${2#-}" == "$2" && "$2" == *.json ]]; then
        BASELINE="$2"
        shift
      fi
      ;;
    --only)
      [[ $# -gt 1 ]] || { echo "--only needs a bench list" >&2; exit 2; }
      ONLY="$2"
      shift
      ;;
    --jobs)
      [[ $# -gt 1 ]] || { echo "--jobs needs a count" >&2; exit 2; }
      JOBS="$2"
      shift
      ;;
    --batch)
      [[ $# -gt 1 ]] || { echo "--batch needs a lane count" >&2; exit 2; }
      BATCH="$2"
      shift
      ;;
    --quantized)
      QUANTIZED=1
      ;;
    --latency)
      LATENCY=1
      ;;
    --profile)
      PROFILE=1
      ;;
    --util-floor)
      [[ $# -gt 1 ]] || { echo "--util-floor needs a value" >&2; exit 2; }
      UTIL_FLOOR="$2"
      shift
      ;;
    --overlap-grid)
      [[ $# -gt 1 ]] || { echo "--overlap-grid needs a size" >&2; exit 2; }
      OVERLAP_GRID="$2"
      shift
      ;;
    -*)
      echo "unknown flag: $1" >&2
      exit 2
      ;;
    *)
      if [[ -z "$BUILD" ]]; then BUILD="$1"
      elif [[ -z "$OUT" ]]; then OUT="$1"
      else echo "unexpected argument: $1" >&2; exit 2
      fi
      ;;
  esac
  shift
done
BUILD="${BUILD:-$ROOT/build-bench}"
OUT="${OUT:-$ROOT/bench-out}"
[[ "$BASELINE" == "__default__" ]] && BASELINE="$ROOT/bench-out/BENCH_BASELINE.json"

if [[ -n "$ONLY" ]]; then
  IFS=',' read -r -a selected <<< "$ONLY"
  for b in "${selected[@]}"; do
    case " ${BENCHES[*]} " in
      *" $b "*) ;;
      *) echo "unknown bench: $b" >&2; exit 2 ;;
    esac
  done
  BENCHES=("${selected[@]}")
fi

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release || exit 1
targets=()
for b in "${BENCHES[@]}"; do
  t="$(bin_of "$b")"
  case " ${targets[*]-} " in
    *" $t "*) ;;
    *) targets+=("$t") ;;
  esac
done
cmake --build "$BUILD" -j "$(nproc)" --target "${targets[@]}" bench_kernels \
  bench_diff || exit 1

mkdir -p "$OUT"
failures=0
mismatches=0
summary_rows=()
kernel_rows=()

# First match of a numeric JSON field in $1's report (empty if absent).
json_field() {
  grep -o "\"$2\":[0-9.eE+-]*" "$1" | head -1 | cut -d: -f2
}

for bench in "${BENCHES[@]}"; do
  json="$OUT/$bench.json"
  log="$OUT/$bench.log"
  # Delete the previous run's report first: a crashing bench must not
  # pass the size check below on stale output.
  rm -f "$json"
  echo "== $bench"
  bench_args=(--json "$json")
  [[ -n "$JOBS" ]] && bench_args+=(--jobs "$JOBS")
  [[ -n "$BATCH" ]] && bench_args+=(--batch "$BATCH")
  [[ -n "$QUANTIZED" ]] && bench_args+=(--quantized)
  [[ -n "$LATENCY" ]] && bench_args+=(--latency)
  [[ -n "$PROFILE" ]] && bench_args+=(--profile "$OUT/$bench.folded")
  [[ "$bench" == bench_city_overlap ]] && bench_args+=(--overlap "$OVERLAP_GRID")
  start_s=$(date +%s.%N)
  "$BUILD/bench/$(bin_of "$bench")" "${bench_args[@]}" > "$log" 2>&1
  status=$?
  wall_s=$(echo "$(date +%s.%N) $start_s" | awk '{printf "%.2f", $1 - $2}')
  if [[ ! -s "$json" ]]; then
    echo "   FAILED: no report written (exit $status); see $log"
    failures=$((failures + 1))
    summary_rows+=("$(printf '%-26s %-9s' "$bench" FAILED)")
    continue
  fi
  if grep -q '"verdict":"MISMATCH"' "$json"; then
    verdict=MISMATCH
    echo "   MISMATCH (exit $status, ${wall_s}s)"
    mismatches=$((mismatches + 1))
  elif grep -q '"sink_dropped":[1-9]' "$json"; then
    verdict=MISMATCH
    echo "   MISMATCH: trace sink dropped events (exit $status, ${wall_s}s)"
    mismatches=$((mismatches + 1))
  elif grep -Eq '"lifecycle_breaches":(0*[1-9]|[0-9]*\.[0-9]*[1-9])' "$json"; then
    verdict=MISMATCH
    echo "   MISMATCH: invariant auditor breach (exit $status, ${wall_s}s)"
    mismatches=$((mismatches + 1))
  else
    verdict=ok
    echo "   ok (exit $status, ${wall_s}s)"
  fi
  # Summary-table vitals from the report ("par" is present whenever the
  # bench ran with --json; tasks==0 means the pool never engaged).
  jobs=$(json_field "$json" jobs)
  util=$(json_field "$json" utilization)
  imb=$(json_field "$json" imbalance)
  tasks=$(json_field "$json" tasks)
  warn=""
  if [[ -n "$util" && -n "$tasks" && "$tasks" -gt 0 ]]; then
    util=$(awk -v u="$util" 'BEGIN{printf "%.3f", u}')
    imb=$(awk -v i="$imb" 'BEGIN{printf "%.2f", i}')
    if awk -v u="$util" -v f="$UTIL_FLOOR" 'BEGIN{exit !(u < f)}'; then
      warn="WARN util<$UTIL_FLOOR"
      echo "   WARN: pool utilization $util below floor $UTIL_FLOOR"
    fi
  else
    util="-"
    imb="-"
  fi
  if [[ "$bench" == bench_city_overlap ]]; then
    # Border-exchange vitals: routed messages are deterministic; epoch
    # utilization/imbalance and the speedup are wall-clock ("info").
    b_msgs=$(json_field "$json" border_messages)
    b_util=$(json_field "$json" epoch_utilization)
    b_imb=$(json_field "$json" epoch_imbalance)
    b_speedup=$(json_field "$json" speedup_8v1)
    b_par=$(json_field "$json" epoch_parallelism)
    echo "   border: ${b_msgs:-?} msgs," \
         "epoch util $(awk -v u="${b_util:-0}" 'BEGIN{printf "%.2f", u}')," \
         "imbalance $(awk -v i="${b_imb:-0}" 'BEGIN{printf "%.2f", i}')," \
         "speedup $(awk -v s="${b_speedup:-0}" 'BEGIN{printf "%.2f", s}')x," \
         "schedule parallelism" \
         "$(awk -v p="${b_par:-0}" 'BEGIN{printf "%.1f", p}')x"
  fi
  summary_rows+=("$(printf '%-26s %-9s %5s %9s %6s %6s  %s' \
      "$bench" "$verdict" "${jobs:--}" "$wall_s" "$util" "$imb" "$warn")")
  shares=$(grep -o '"kernel_share\.[a-z_]*":[0-9.eE+-]*' "$json" |
           sed 's/"kernel_share\.//; s/":/=/' |
           awk '{printf "%s ", $0}')
  [[ -n "$shares" ]] && kernel_rows+=("$(printf '%-26s %s' "$bench" "$shares")")
done

# Kernel microbenchmarks via google-benchmark's native JSON reporter.
echo "== bench_kernels"
rm -f "$OUT/bench_kernels.json"
if ! "$BUILD/bench/bench_kernels" \
    --benchmark_out="$OUT/bench_kernels.json" \
    --benchmark_out_format=json > "$OUT/bench_kernels.log" 2>&1; then
  echo "   FAILED (see $OUT/bench_kernels.log)"
  failures=$((failures + 1))
fi

# Aggregate: one JSON array of the per-bench report objects.
agg="$OUT/BENCH_PR.json"
{
  echo '{"schema":"holtwlan-bench-aggregate-v1","reports":['
  first=1
  for bench in "${BENCHES[@]}"; do
    json="$OUT/$bench.json"
    [[ -s "$json" ]] || continue
    [[ $first -eq 1 ]] || echo ','
    first=0
    cat "$json"
  done
  echo ']}'
} > "$agg"

echo
echo "aggregate report: $agg"

echo
echo "== summary"
printf '%-26s %-9s %5s %9s %6s %6s\n' bench verdict jobs wall_s util imbal
for row in "${summary_rows[@]}"; do echo "$row"; done
if [[ ${#kernel_rows[@]} -gt 0 ]]; then
  echo
  echo "== kernel share (kernel seconds per wall second, summed over lanes)"
  for row in "${kernel_rows[@]}"; do echo "$row"; done
fi

if [[ -n "$BASELINE" ]]; then
  echo "== bench_diff against $BASELINE"
  if [[ ! -s "$BASELINE" ]]; then
    echo "   FAILED: baseline not found"
    failures=$((failures + 1))
  else
    diff_args=("$agg" "$BASELINE")
    [[ -n "$ONLY" ]] && diff_args+=(--subset)
    if ! "$BUILD/bench/bench_diff" "${diff_args[@]}"; then
      echo "   REGRESSION vs baseline"
      failures=$((failures + 1))
    fi
  fi
fi

if [[ $failures -gt 0 || $mismatches -gt 0 ]]; then
  echo "RESULT: $mismatches mismatch(es), $failures failure(s)"
  exit 1
fi
echo "RESULT: all benches reproduced"
