#!/usr/bin/env bash
# One-shot pre-merge gate: build, unit tests, static analysis, clang-tidy.
#
#   scripts/run_checks.sh [build-dir]
#
# Runs, in order:
#   1. configure + build with -DHIGNN_WERROR=ON, so a warning fails the
#      gate (exports compile_commands.json)
#   2. the full ctest suite (unit, tsan-labelled, asan-labelled — in this
#      plain build they run without sanitizer runtimes; use
#      scripts/run_tsan.sh / run_asan.sh for the instrumented versions)
#   3. the kernels + tsan labels again with HIGNN_SIMD=off (the scalar
#      fallback must stay bit-identical to the vector paths), then the
#      exhaustive tanh sweep: all 2^32 inputs through the scalar and vector
#      simd::Tanh, which must agree bit for bit (it also reports any
#      difference from the host libm's std::tanh)
#   4. the `lint` label: hignn_lint fixture tests + whole-tree scan
#   5. the `serve` label plus three end-to-end smokes: the client-verb
#      round trip (the `stats` reply and the --metrics-out dump parsed as
#      the registry's JSON when python3 is present), a retrieval-index
#      leg (beamed-vs-exact topk parity, four concurrent clients, a
#      truncated store rejected on reload with the previous generation
#      still serving), and a chaos leg
#      (HIGNN_FAULT_INJECT-failed reload, wire reload, SIGHUP hot-swap,
#      bitwise score stability throughout)
#   6. a crash-and-resume smoke (DESIGN.md §8): a 3-level `hignn fit`
#      killed by HIGNN_FAULT_INJECT inside level 3 (exit 86) and resumed
#      by a fresh process must write the same model bytes and `hignn info`
#      as an uninterrupted run; then an introspection smoke (DESIGN.md
#      §17): a traced daemon scraped
#      over the `metrics` verb (Prometheus exposition format validated by
#      a pinned parser when python3 is present), its shutdown event log
#      analyzed by hignn_obs (per-phase percentiles + dominant-phase
#      attribution of slow exemplars), and the observation-only contract
#      re-proved over the wire against an --obs-off daemon
#   7. the linker-backed dead-code gate (scripts/run_deadcode.sh, in
#      <build-dir>-deadcode): every global hignn:: function is linked by a
#      shipped binary or listed with a reason in scripts/deadcode_allow.txt
#   8. the benchmark smoke: hignn_bench/run.py --smoke builds hignn_bench
#      from its own CMake project and runs every workload at toy size,
#      untraced and traced, checking every metric and correctness check
#   9. clang-tidy over src/ via compile_commands.json, when clang-tidy is
#      installed (skipped with a notice otherwise, so the gate stays green
#      in minimal containers)
#  10. a Clang -Wthread-safety -Werror build of the hignn library, when
#      clang++ is installed — the compiler-checked half of the concurrency
#      contract (HIGNN_GUARDED_BY / HIGNN_REQUIRES annotations); skipped
#      with a notice under GCC-only toolchains, where hignn_lint's
#      lock-discipline and guard-annotation rules still gate the basics
#
# Exits non-zero on the first failing stage.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure + build (-Werror)"
cmake -B "$BUILD_DIR" -S . -DHIGNN_WERROR=ON >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== unit tests"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== scalar-path parity (HIGNN_SIMD=off kernels + threading + serving)"
# The SIMD dispatch knob must leave every result bit-identical: rerun the
# kernel-parity, determinism and serving suites (whose one-user parity
# tests run the match-dot kernel) with the vector paths disabled.
HIGNN_SIMD=off ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$(nproc)" -L "kernels|tsan|serve"

echo "== tanh sweep (all 2^32 inputs, scalar vs vector simd::Tanh)"
"$BUILD_DIR/tools/hignn_tanh_sweep"

echo "== static analysis (hignn_lint)"
ctest --test-dir "$BUILD_DIR" -L lint --output-on-failure -j "$(nproc)"

echo "== serving tests"
ctest --test-dir "$BUILD_DIR" -L serve --output-on-failure

echo "== hignn_serve smoke (export-store -> daemon -> client verbs)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$BUILD_DIR/tools/hignn" export-store --preset tiny --users 120 --items 60 \
  --steps 30 --out "$SMOKE_DIR/store.hgnnstore"
"$BUILD_DIR/tools/hignn_serve" serve --store "$SMOKE_DIR/store.hgnnstore" \
  --port 0 --port-file "$SMOKE_DIR/port" --threads 4 \
  --metrics-out "$SMOKE_DIR/metrics.json" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE_DIR/port" ] && break
  sleep 0.1
done
PORT="$(cat "$SMOKE_DIR/port")"
"$BUILD_DIR/tools/hignn_serve" health --port "$PORT"
"$BUILD_DIR/tools/hignn_serve" score --port "$PORT" --user 3 --item 7
"$BUILD_DIR/tools/hignn_serve" topk --port "$PORT" --user 3 --k 5
"$BUILD_DIR/tools/hignn_serve" stats --port "$PORT" \
  | tee "$SMOKE_DIR/stats.json"
if command -v python3 >/dev/null 2>&1; then
  # stats = {"daemon": {...}, "registry": <MetricsRegistry::DumpJson()>},
  # and the registry already counts the score and topk requests above.
  python3 - "$SMOKE_DIR/stats.json" <<'PY'
import json, sys
stats = json.load(open(sys.argv[1]))
assert sorted(stats) == ["daemon", "registry"], sorted(stats)
registry = stats["registry"]
for key in ("counters", "gauges", "histograms", "series"):
    assert key in registry, "missing section: " + key
for verb in ("score", "topk"):
    assert registry["counters"]["serve.requests." + verb] >= 1, verb
print("stats OK: daemon %s" % stats["daemon"])
PY
else
  echo "python3 not installed; skipping stats JSON validation"
fi

echo "== retrieval-index smoke (beamed vs exact, concurrency, corruption)"
# Beamed (server default --topk-beam) vs exact (--beam -1): at this scale
# the beam never prunes, so the answers must match byte for byte.
TOPK_BEAMED="$("$BUILD_DIR/tools/hignn_serve" topk --port "$PORT" \
  --user 3 --k 5)"
TOPK_EXACT="$("$BUILD_DIR/tools/hignn_serve" topk --port "$PORT" \
  --user 3 --k 5 --beam -1)"
[ "$TOPK_BEAMED" = "$TOPK_EXACT" ]
# Request-level parallelism: four clients at once, one per handler thread,
# each byte-identical to the serial answer.
printf '%s\n' "$TOPK_BEAMED" > "$SMOKE_DIR/topk_serial"
CLIENT_PIDS=()
for c in 1 2 3 4; do
  "$BUILD_DIR/tools/hignn_serve" topk --port "$PORT" --user 3 --k 5 \
    > "$SMOKE_DIR/topk_client_$c" &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do wait "$pid"; done
for c in 1 2 3 4; do
  cmp "$SMOKE_DIR/topk_serial" "$SMOKE_DIR/topk_client_$c"
done
# The index sections obey the store-corruption contract: a truncated
# store is rejected at open (IOError), so the reload fails and the
# previous generation keeps serving.
head -c "$(( $(wc -c < "$SMOKE_DIR/store.hgnnstore") - 64 ))" \
  "$SMOKE_DIR/store.hgnnstore" > "$SMOKE_DIR/store_truncated.hgnnstore"
if "$BUILD_DIR/tools/hignn_serve" reload --port "$PORT" \
    --store "$SMOKE_DIR/store_truncated.hgnnstore"; then
  echo "expected reload of truncated index store to fail" >&2
  exit 1
fi
HEALTH="$("$BUILD_DIR/tools/hignn_serve" health --port "$PORT")"
[ "$HEALTH" = "ok generation=1" ]
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
test -s "$SMOKE_DIR/metrics.json"
if command -v python3 >/dev/null 2>&1; then
  # --metrics-out writes the registry's JSON, as `hignn fit` does.
  python3 - "$SMOKE_DIR/metrics.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
for key in ("counters", "gauges", "histograms", "series"):
    assert key in metrics, "missing section: " + key
print("metrics.json OK: %d counters" % len(metrics["counters"]))
PY
else
  echo "python3 not installed; skipping metrics.json validation"
fi

echo "== serving chaos smoke (fault-injected reload + SIGHUP hot-swap)"
# serve.store.open is one-shot at hit 2: the initial open (hit 1) passes,
# the first reload (hit 2) fails and must leave generation 1 serving, and
# every open after that succeeds.
HIGNN_FAULT_INJECT="serve.store.open=fail@2" \
  "$BUILD_DIR/tools/hignn_serve" serve --store "$SMOKE_DIR/store.hgnnstore" \
  --port 0 --port-file "$SMOKE_DIR/chaos_port" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE_DIR/chaos_port" ] && break
  sleep 0.1
done
PORT="$(cat "$SMOKE_DIR/chaos_port")"
HEALTH="$("$BUILD_DIR/tools/hignn_serve" health --port "$PORT" \
  --retries 3 --backoff-ms 10)"
[ "$HEALTH" = "ok generation=1" ]
SCORE_BEFORE="$("$BUILD_DIR/tools/hignn_serve" score --port "$PORT" \
  --user 3 --item 7 --retries 3 --backoff-ms 10)"
if "$BUILD_DIR/tools/hignn_serve" reload --port "$PORT"; then
  echo "expected fault-injected reload to fail" >&2
  exit 1
fi
HEALTH="$("$BUILD_DIR/tools/hignn_serve" health --port "$PORT")"
[ "$HEALTH" = "ok generation=1" ]
RELOAD="$("$BUILD_DIR/tools/hignn_serve" reload --port "$PORT")"
[ "$RELOAD" = "reloaded generation=2" ]
# SIGHUP re-opens the current store path with zero downtime.
kill -HUP "$SERVE_PID"
for _ in $(seq 1 100); do
  HEALTH="$("$BUILD_DIR/tools/hignn_serve" health --port "$PORT")"
  [ "$HEALTH" = "ok generation=3" ] && break
  sleep 0.1
done
[ "$HEALTH" = "ok generation=3" ]
SCORE_AFTER="$("$BUILD_DIR/tools/hignn_serve" score --port "$PORT" \
  --user 3 --item 7)"
# Bitwise score stability across a failed reload, a wire reload, and a
# SIGHUP reload of the same store.
[ "$SCORE_BEFORE" = "$SCORE_AFTER" ]
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"

echo "== telemetry smoke (fit --metrics-out/--trace-out, --obs-off parity)"
"$BUILD_DIR/tools/hignn" gen-data --preset tiny --users 80 --items 40 \
  --out "$SMOKE_DIR/clicks.tsv"
"$BUILD_DIR/tools/hignn" fit --graph "$SMOKE_DIR/clicks.tsv" --levels 2 \
  --dim 8 --steps 40 --out "$SMOKE_DIR/model.hgnn" \
  --metrics-out "$SMOKE_DIR/train_metrics.json" \
  --trace-out "$SMOKE_DIR/train_trace.json"
"$BUILD_DIR/tools/hignn" fit --graph "$SMOKE_DIR/clicks.tsv" --levels 2 \
  --dim 8 --steps 40 --out "$SMOKE_DIR/model_obs_off.hgnn" --obs-off
# Telemetry is observation-only: the model must be bitwise identical
# with collection on and off.
cmp "$SMOKE_DIR/model.hgnn" "$SMOKE_DIR/model_obs_off.hgnn"
test -s "$SMOKE_DIR/train_metrics.json"
test -s "$SMOKE_DIR/train_trace.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/train_metrics.json" "$SMOKE_DIR/train_trace.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
for key in ("counters", "gauges", "histograms", "series"):
    assert key in metrics, "missing section: " + key
assert metrics["counters"].get("train.steps", 0) > 0, metrics["counters"]
trace = json.load(open(sys.argv[2]))
events = trace["traceEvents"]
assert any(e["name"] == "fit" for e in events), "missing fit span"
assert any(e["name"] == "fit.step" for e in events), "missing fit.step span"
print("telemetry artifacts OK: %d trace events" % len(events))
PY
else
  echo "python3 not installed; skipping telemetry JSON validation"
fi

echo "== crash-and-resume smoke (kill a fit inside level 3, resume it)"
"$BUILD_DIR/tools/hignn" gen-data --preset tiny --out "$SMOKE_DIR/resume.tsv"
RESUME_FIT=(fit --graph "$SMOKE_DIR/resume.tsv" --levels 3 --dim 8 --steps 30
  --checkpoint-every 10)
"$BUILD_DIR/tools/hignn" "${RESUME_FIT[@]}" \
  --checkpoint-dir "$SMOKE_DIR/ckpt_a" --out "$SMOKE_DIR/resume_a.hgnn"
# Saves run boundary(1), mid(10), mid(20) per level, then boundary(4).
# Each save probes checkpoint.saved twice, a crash probe and then a fail
# check, so hit 17 is the crash probe of save 9: level 3's step-20 save,
# after its file is durable but before LATEST moves past level 3 step 10.
FIT_EXIT=0
HIGNN_FAULT_INJECT="checkpoint.saved=crash@17" "$BUILD_DIR/tools/hignn" \
  "${RESUME_FIT[@]}" --checkpoint-dir "$SMOKE_DIR/ckpt_b" \
  --out "$SMOKE_DIR/resume_b.hgnn" || FIT_EXIT=$?
[ "$FIT_EXIT" -eq 86 ]
test ! -e "$SMOKE_DIR/resume_b.hgnn"
# A fresh process resumes inside level 3, replaying two coarsenings.
"$BUILD_DIR/tools/hignn" "${RESUME_FIT[@]}" \
  --checkpoint-dir "$SMOKE_DIR/ckpt_b" --out "$SMOKE_DIR/resume_b.hgnn" \
  --resume --verbose 2> "$SMOKE_DIR/resume.log"
grep -q 'resume: checkpoint seq 7 -> level 3 step 10' "$SMOKE_DIR/resume.log"
cmp "$SMOKE_DIR/resume_a.hgnn" "$SMOKE_DIR/resume_b.hgnn"
diff <("$BUILD_DIR/tools/hignn" info --model "$SMOKE_DIR/resume_a.hgnn") \
  <("$BUILD_DIR/tools/hignn" info --model "$SMOKE_DIR/resume_b.hgnn")

echo "== introspection smoke (Prometheus scrape + event log -> hignn_obs)"
# A traced daemon: --slow-us 1 makes every request a slow exemplar, and
# the structured event log lands in events.jsonl at shutdown.
"$BUILD_DIR/tools/hignn_serve" serve --store "$SMOKE_DIR/store.hgnnstore" \
  --port 0 --port-file "$SMOKE_DIR/obs_port" \
  --events-out "$SMOKE_DIR/events.jsonl" --slow-us 1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE_DIR/obs_port" ] && break
  sleep 0.1
done
PORT="$(cat "$SMOKE_DIR/obs_port")"
SCORE_TRACED="$("$BUILD_DIR/tools/hignn_serve" score --port "$PORT" \
  --user 3 --item 7 --request-id-seed 42)"
TOPK_TRACED="$("$BUILD_DIR/tools/hignn_serve" topk --port "$PORT" \
  --user 3 --k 5 --request-id-seed 42)"
# Live Prometheus scrape of the server's shared registry over the wire.
"$BUILD_DIR/tools/hignn_serve" metrics --port "$PORT" \
  > "$SMOKE_DIR/metrics.prom"
grep -q '^# TYPE hignn_serve_requests_score counter$' "$SMOKE_DIR/metrics.prom"
grep -q 'hignn_serve_latency_us_bucket{le="+Inf"}' "$SMOKE_DIR/metrics.prom"
if command -v python3 >/dev/null 2>&1; then
  # Pinned exposition-format parser: every line must be a TYPE comment or
  # a sample, histogram buckets must be cumulative, +Inf == _count.
  python3 - "$SMOKE_DIR/metrics.prom" <<'PY'
import re, sys
typed, samples = {}, []
for line in open(sys.argv[1]).read().splitlines():
    if not line:
        continue
    if line.startswith("#"):
        m = re.fullmatch(
            r"# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)",
            line)
        assert m, "bad comment line: %r" % line
        typed[m.group(1)] = m.group(2)
    else:
        m = re.fullmatch(
            r'([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (\S+)', line)
        assert m, "bad sample line: %r" % line
        samples.append((m.group(1), m.group(2), float(m.group(3))))
assert typed and all(n.startswith("hignn_") for n in typed), typed
for name, kind in sorted(typed.items()):
    if kind != "histogram":
        continue
    buckets = [v for n, _, v in samples if n == name + "_bucket"]
    assert buckets and buckets == sorted(buckets), (name, buckets)
    inf = [v for n, lbl, v in samples
           if n == name + "_bucket" and lbl == '{le="+Inf"}']
    count = [v for n, _, v in samples if n == name + "_count"]
    assert inf == count, (name, inf, count)
hists = sum(1 for k in typed.values() if k == "histogram")
print("prometheus exposition OK: %d series, %d histograms"
      % (len(typed), hists))
PY
else
  echo "python3 not installed; skipping exposition-format validation"
fi
# The live trace-dump verb serves the same event log without a restart.
"$BUILD_DIR/tools/hignn_serve" trace-dump --port "$PORT" \
  > "$SMOKE_DIR/trace_dump.jsonl"
grep -q '"request_id"' "$SMOKE_DIR/trace_dump.jsonl"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
test -s "$SMOKE_DIR/events.jsonl"
grep -q '"slow": true' "$SMOKE_DIR/events.jsonl"
"$BUILD_DIR/tools/hignn_obs" analyze --events "$SMOKE_DIR/events.jsonl" \
  > "$SMOKE_DIR/obs_report.txt"
cat "$SMOKE_DIR/obs_report.txt"
grep -q 'phase latency percentiles' "$SMOKE_DIR/obs_report.txt"
grep -q 'dominant=' "$SMOKE_DIR/obs_report.txt"
# Observation-only, re-proved over the wire: an --obs-off daemon serving
# the same store answers byte-identical score and topk lines.
"$BUILD_DIR/tools/hignn_serve" serve --store "$SMOKE_DIR/store.hgnnstore" \
  --port 0 --port-file "$SMOKE_DIR/obs_off_port" --obs-off &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE_DIR/obs_off_port" ] && break
  sleep 0.1
done
PORT="$(cat "$SMOKE_DIR/obs_off_port")"
SCORE_OFF="$("$BUILD_DIR/tools/hignn_serve" score --port "$PORT" \
  --user 3 --item 7)"
TOPK_OFF="$("$BUILD_DIR/tools/hignn_serve" topk --port "$PORT" \
  --user 3 --k 5)"
[ "$SCORE_TRACED" = "$SCORE_OFF" ]
[ "$TOPK_TRACED" = "$TOPK_OFF" ]
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"

echo "== dead-code gate (gc-sections link vs scripts/deadcode_allow.txt)"
scripts/run_deadcode.sh "$BUILD_DIR-deadcode"

echo "== hignn_bench smoke (every workload at toy size)"
if command -v python3 >/dev/null 2>&1; then
  python3 hignn_bench/run.py --smoke
else
  echo "python3 not installed; skipping the hignn_bench smoke"
fi

echo "== clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  mapfile -t TIDY_SOURCES < <(git ls-files 'src/*.cc' 'tools/*.cc')
  clang-tidy -p "$BUILD_DIR" --quiet "${TIDY_SOURCES[@]}"
else
  echo "clang-tidy not installed; skipping (configs in .clang-tidy)"
fi

echo "== clang -Wthread-safety (concurrency contract)"
if command -v clang++ >/dev/null 2>&1; then
  # Separate tree: the thread-safety analysis only exists in Clang, and
  # -Werror turns every unguarded access to a HIGNN_GUARDED_BY field into
  # a build break. Also runs the compile-fail smoke proving the
  # annotations are live (tests/tsa_compile_fail.cc must NOT compile).
  cmake -B "$BUILD_DIR-tsa" -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DHIGNN_WERROR=ON >/dev/null
  cmake --build "$BUILD_DIR-tsa" --target hignn -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR-tsa" -R 'lint.tsa_compile_fail' \
    --output-on-failure
else
  echo "clang++ not installed; skipping (hignn_lint still enforces" \
    "lock-discipline and guard-annotation)"
fi

echo "== all checks passed"
