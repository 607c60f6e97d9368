#!/usr/bin/env bash
#
# Tier-1 verification plus the hot-path perf bench. Run from anywhere;
# everything happens in the repo root. This is what CI runs, and what
# every PR should pass locally:
#
#   1. configure + build (Release, warnings-as-errors on every target)
#   2. ctest unit suite
#   3. bench_perf_hotpath with a small --measure. Events/sec is
#      gated against the parent revision, built here from a `git
#      archive` export (as scripts/ab.sh does) and run in alternating
#      order with this tree, 3 pairs: a config whose median falls
#      below 0.85x of the parent's median fails the run. The parent
#      is HEAD when the working tree has changes, else HEAD^. Pass
#      --allow-perf-regression (or set ALLOW_PERF_REGRESSION=1) for
#      intentional perf changes; it skips the parent build. The
#      host-independent work counters (events/miss, calendar
#      ops/miss, touched words/access) of each single-threaded config
#      must stay within 2% of the committed BENCH_hotpath.json,
#      waiver or not.
#   4. sharded-kernel determinism cross-check: the Figure-7 multicast
#      config is run with --threads 1 and --threads 4 and every
#      deterministic figure statistic must match bit-for-bit -- first
#      on the paper's 16-node machine, then on a 64-node hierarchical
#      4-hub machine (the configs/fig6_scaling.conf shape), where the
#      snooping config is cross-checked the same way.
#   5. sweep-driver crash-tolerance smoke (scripts/sweep_smoke.sh):
#      a seeded fault-injection sweep must terminate with the expected
#      failed rows, and resuming it must produce an aggregate table
#      byte-identical to a fault-free sweep.
#   6. coherence-oracle legs: all four bench configs shadowed by the
#      runtime oracle must stay violation-free; an injected protocol
#      mutation must die with exit 77 and a repro bundle whose bounded
#      replay (--stop-at) reproduces the byte-identical violation
#      line. The perf-guarded runs above stay oracle-off, so the
#      events/sec bar keeps holding the oracle's zero-overhead claim.
#   7. docs hygiene (scripts/docs_check.sh): markdown links resolve
#      and every src/ subsystem appears in the docs index.
#
# Bench JSONs are validated (python3, else jq, else a warning) before
# any regression grep reads them, so a truncated or interrupted file
# fails loudly instead of feeding the guards nonsense.
#
# BENCH_hotpath.json is only rewritten at the very end, after *every*
# guard has passed (or been explicitly waived), so a failed run can
# never clobber the committed baseline with the numbers that failed.
#
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW_PERF_REGRESSION="${ALLOW_PERF_REGRESSION:-0}"
for arg in "$@"; do
    case "$arg" in
      --allow-perf-regression) ALLOW_PERF_REGRESSION=1 ;;
      *) echo "check.sh: unknown option '$arg'" >&2; exit 2 ;;
    esac
done

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B build -S .
cmake --build build -j"$JOBS"

# --no-tests=error: a missing GTest only warns at configure time; an
# empty test set must fail loudly here, not report green.
ctest --test-dir build --output-on-failure --no-tests=error -j"$JOBS"

# Walk-counter invariants of the staged access pipeline, asserted
# explicitly (they also run inside ctest; this names them in the CI
# log): the L1-hit path touches zero simulated-L2 words, a repeat hit
# through the L0 filter walks neither plane, and an absorbed repeat
# touches zero packed-array words at all.
# Guard the guard: gtest exits 0 when a filter matches zero tests, so
# require the exact test count or fail loudly.
WALK_OUT=$(./build/test_access_pipeline --gtest_filter='AccessPipeline.L1HitPathTouchesZeroL2Words:AccessPipeline.RepeatHitWalksNothing:AccessPipeline.AbsorbedRepeatTouchesZeroPackedWords')
if ! grep -q "3 tests from 1 test suite ran" <<< "$WALK_OUT"; then
    echo "check.sh: walk-counter invariant tests did not run (filter" \
         "out of sync with test_access_pipeline?)" >&2
    exit 1
fi
echo "walk-counter invariants: L1-hit/L0/absorbed paths OK"

# Coherence-oracle legs (see header item 6). Quick runs: the oracle's
# value here is the invariants, not the throughput.
ORACLE_JSON=build/BENCH_hotpath_oracle.json
./build/bench_perf_hotpath --measure 20000 --warmup 5000 --oracle \
    --out "$ORACLE_JSON" > /dev/null
echo "oracle: all 4 configs violation-free"

MUT_LOG=build/oracle_mutation.log
rc=0
./build/bench_perf_hotpath --measure 20000 --warmup 5000 \
    --mutate drop-inval --config multicast-owner-group \
    > /dev/null 2> "$MUT_LOG" || rc=$?
if [[ "$rc" -ne 77 ]]; then
    echo "check.sh: mutated run exited $rc, expected 77 (violation)" >&2
    cat "$MUT_LOG" >&2
    exit 1
fi
VIOLATION=$(grep -m1 '^DSP-VIOLATION ' "$MUT_LOG" || true)
STOP_AT=$(grep -m1 -o '"stop_at":[0-9]*' "$MUT_LOG" | cut -d: -f2)
if [[ -z "$VIOLATION" || -z "$STOP_AT" ]]; then
    echo "check.sh: mutated run printed no violation / repro bundle" >&2
    cat "$MUT_LOG" >&2
    exit 1
fi
REPLAY_LOG=build/oracle_replay.log
rc=0
./build/bench_perf_hotpath --measure 20000 --warmup 5000 \
    --mutate drop-inval --stop-at "$STOP_AT" \
    --config multicast-owner-group > /dev/null 2> "$REPLAY_LOG" \
    || rc=$?
if [[ "$rc" -ne 77 ]]; then
    echo "check.sh: bounded replay exited $rc, expected 77" >&2
    cat "$REPLAY_LOG" >&2
    exit 1
fi
REPLAYED=$(grep -m1 '^DSP-VIOLATION ' "$REPLAY_LOG" || true)
if [[ "$VIOLATION" != "$REPLAYED" ]]; then
    echo "check.sh: bounded replay diverged from the full run:" >&2
    echo "  full run: $VIOLATION" >&2
    echo "  replay:   $REPLAYED" >&2
    exit 1
fi
echo "oracle: drop-inval caught (exit 77); bounded replay identical"

# Small measured run: enough events for stable work counters, quick
# enough for CI (a few seconds). --repeat 3 reports the median of
# three per config with its min and max (each repetition is also
# checked to be bit-identical by the bench itself). This run is the
# trajectory BENCH_hotpath.json records and the input of the work
# gates below.
BASELINE=BENCH_hotpath.json
FRESH=build/BENCH_hotpath_fresh.json
./build/bench_perf_hotpath --measure 200000 --warmup 20000 \
    --repeat 3 --out "$FRESH"

# Guard the guards: everything below greps the bench JSON as raw
# text, so a malformed, truncated, or interrupted file could feed the
# regression checks nonsense that happens to pass. Require the file
# to parse and every guarded field to exist and be finite first.
validate_bench_json() {
    local file="$1"
    if command -v python3 > /dev/null 2>&1; then
        python3 - "$file" <<'PYEOF'
import json, math, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("interrupted"):
    sys.exit("bench JSON is marked interrupted (partial results)")
configs = doc.get("configs")
if not configs:
    sys.exit("bench JSON has no configs")
for c in configs:
    if c.get("partial"):
        sys.exit("config %r is marked partial" % c.get("name"))
    for field in ("events_per_sec", "barriers_per_window",
                  "l0_hit_rate", "events", "misses",
                  "calendar_ops_per_miss", "touched_words_per_access"):
        v = c.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            sys.exit("config %r field %r is %r -- missing or not a "
                     "finite number" % (c.get("name"), field, v))
PYEOF
    elif command -v jq > /dev/null 2>&1; then
        jq -e '
            ((.interrupted // false) | not)
            and (.configs | length > 0)
            and ([.configs[] | (.partial // false) | not] | all)
            and ([.configs[] | .events_per_sec, .barriers_per_window,
                  .l0_hit_rate, .events, .misses,
                  .calendar_ops_per_miss, .touched_words_per_access]
                 | all(type == "number" and (isinfinite | not)
                       and (isnan | not)))' "$file" > /dev/null
    else
        echo "check.sh: warning: neither python3 nor jq found --" \
             "skipping JSON validation of $file" >&2
        return 0
    fi || {
        echo "check.sh: $file failed JSON validation -- refusing to" \
             "run regression greps over it" >&2
        exit 1
    }
}
validate_bench_json "$FRESH"

# Single-barrier window invariant: the parallel config must cross the
# barrier about once per window (the old kernel crossed twice; quiet
# -window batching may dip slightly below 1.0).
BPW=$(awk -F: '
    /"name"/   { gsub(/[ ",]/, "", $2); name = $2 }
    /"barriers_per_window"/ && name == "multicast-owner-group-par" {
        gsub(/[ ,]/, "", $2); print $2; exit
    }' "$FRESH")
if ! awk -v b="$BPW" 'BEGIN { exit !(b > 0.5 && b <= 1.05) }'; then
    echo "check.sh: barriers_per_window=$BPW on the par config --" \
         "expected ~1.0 (single-crossing windows)" >&2
    exit 1
fi
echo "barriers_per_window: $BPW (par config)"

# L0 block-result filter sanity: every config must report a non-zero
# hit rate (the filter silently disabling itself would erase the
# repeat-hit fast path without failing anything else).
L0MIN=$(awk -F: '
    /"l0_hit_rate"/ { gsub(/[ ,]/, "", $2); if (min == "" || $2 < min) min = $2 }
    END { print (min == "" ? "missing" : min) }' "$FRESH")
if ! awk -v r="$L0MIN" 'BEGIN { exit !(r > 0 && r < 1) }'; then
    echo "check.sh: l0_hit_rate=$L0MIN -- the L0 filter is not" \
         "filtering (expected a rate in (0,1) on every config)" >&2
    exit 1
fi
echo "l0_hit_rate: >= $L0MIN on all configs"

# Per-config events/sec guard against the parent revision, measured
# here and now: a committed number from another moment (or host)
# mostly measures host load. The parent is exported with `git
# archive` and built in a scratch tree; the two benches then run in
# alternating order, 3 pairs, so slow drift of the host lands on both
# sides alike, and each config's median events/sec must stay at or
# above 0.85x of the parent's median.
# perf_base_rev: the revision this tree's change sits on -- HEAD when
# the working tree differs from it, else HEAD's parent.
perf_base_rev() {
    git rev-parse --is-inside-work-tree > /dev/null 2>&1 || return 1
    if [[ -n "$(git status --porcelain)" ]]; then
        git rev-parse --verify --quiet 'HEAD^{commit}'
    else
        git rev-parse --verify --quiet 'HEAD^^{commit}'
    fi
}
extract_evps() {
    awk -F: '
        /"name"/   { gsub(/[ ",]/, "", $2); name = $2 }
        /"events_per_sec"/ && name != "" {
            gsub(/[ ,]/, "", $2); print name, $2; name = ""
        }' "$1"
}
PERF_PAIRS=3
if [[ "$ALLOW_PERF_REGRESSION" == "1" ]]; then
    echo "perf guard: waived (--allow-perf-regression); parent A/B" \
         "not run"
elif ! BASE_SHA="$(perf_base_rev)"; then
    echo "check.sh: cannot resolve the parent revision for the" \
         "events/sec A/B (not a git checkout, or a shallow clone);" \
         "rerun with --allow-perf-regression to skip it" >&2
    exit 1
else
    PERF_WORK="$(mktemp -d "${TMPDIR:-/tmp}/dsp_check.XXXXXX")"
    trap 'rm -rf "$PERF_WORK"' EXIT
    mkdir "$PERF_WORK/src"
    git archive "$BASE_SHA" | tar -x -C "$PERF_WORK/src"
    echo "perf guard: building parent ${BASE_SHA:0:12} in $PERF_WORK"
    cmake -B "$PERF_WORK/build" -S "$PERF_WORK/src" \
        -DCMAKE_BUILD_TYPE=Release > /dev/null
    cmake --build "$PERF_WORK/build" --target bench_perf_hotpath \
        -j"$JOBS" > /dev/null
    for ((i = 0; i < PERF_PAIRS; i++)); do
        if ((i % 2 == 0)); then sides="parent change"
        else sides="change parent"; fi
        for side in $sides; do
            bin=./build/bench_perf_hotpath
            [[ "$side" == parent ]] && \
                bin="$PERF_WORK/build/bench_perf_hotpath"
            out="$PERF_WORK/$side.$i.json"
            "$bin" --measure 200000 --warmup 20000 --out "$out" \
                > /dev/null
            validate_bench_json "$out"
        done
    done
    if ! for side in parent change; do
            for ((i = 0; i < PERF_PAIRS; i++)); do
                extract_evps "$PERF_WORK/$side.$i.json" | \
                    sed "s/^/$side /"
            done
        done | awk -v pairs="$PERF_PAIRS" '
        # median of the n values v[1..n] (n small): insertion sort
        function median(v, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
                    t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
                }
            return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
        }
        { vals[$1, $2, ++n[$1, $2]] = $3; names[$2] = 1 }
        END {
            status = 0; compared = 0
            for (name in names) {
                if (n["parent", name] != pairs ||
                    n["change", name] != pairs) {
                    printf "perf guard: %s missing from a run\n", name
                    status = 1
                    continue
                }
                for (s = 0; s < 2; s++) {
                    side = s ? "change" : "parent"
                    for (i = 1; i <= pairs; i++)
                        tmp[i] = vals[side, name, i]
                    med[side] = median(tmp, pairs)
                }
                ++compared
                ratio = med["parent"] > 0 ? med["change"] / med["parent"] : 0
                printf "perf guard: %-32s %12.0f -> %12.0f ev/s " \
                       "(%.2fx, medians of %d alternating pairs)\n", \
                       name, med["parent"], med["change"], ratio, pairs
                if (ratio < 0.85) {
                    printf "perf guard: FAIL %s regressed >15%% vs " \
                           "the parent\n", name
                    status = 1
                }
            }
            if (compared == 0) {
                print "perf guard: no config compared"
                status = 1
            }
            exit status
        }'; then
        echo "check.sh: events/sec regression vs the parent revision" \
             "${BASE_SHA:0:12} (rerun with --allow-perf-regression if" \
             "intentional)" >&2
        exit 1
    fi
fi

# Work-counter gates. Events per miss, calendar ops per miss and
# touched words per access of each single-threaded config count the
# simulator's own work: they repeat exactly run to run and do not
# depend on the host. Each must stay within 2% of the committed
# baseline, in either direction, and the gate holds even under
# --allow-perf-regression: a change that moves the work re-baselines
# BENCH_hotpath.json on purpose, with the new counters in its diff.
extract_work() {
    awk -F: '
        /"name"/ { gsub(/[ ",]/, "", $2); name = $2 }
        name != "" && /"(threads|events|misses|calendar_ops_per_miss|touched_words_per_access)"/ {
            key = $1; gsub(/[ "]/, "", key); gsub(/[ ,]/, "", $2)
            v[name, key] = $2; names[name] = 1
        }
        END {
            for (n in names) {
                if (v[n, "threads"] != 1) continue
                if (v[n, "misses"] > 0)
                    printf "%s events_per_miss %.6f\n", n,
                           v[n, "events"] / v[n, "misses"]
                printf "%s calendar_ops_per_miss %s\n", n,
                       v[n, "calendar_ops_per_miss"]
                printf "%s touched_words_per_access %s\n", n,
                       v[n, "touched_words_per_access"]
            }
        }' "$1"
}
WORK_GATES=9  # 3 single-threaded configs x 3 counters
if ! { extract_work "$BASELINE"; echo "--"; extract_work "$FRESH"; } \
    | awk -v want="$WORK_GATES" '
    $1 == "--"  { fresh_section = 1; next }
    !fresh_section { base[$1 " " $2] = $3; next }
    { fresh[$1 " " $2] = $3 }
    END {
        status = 0; compared = 0
        for (k in fresh) {
            if (!(k in base)) continue
            ++compared
            b = base[k]; f = fresh[k]
            ok = b == 0 ? f == 0 : (f / b >= 0.98 && f / b <= 1.02)
            printf "work gate: %-56s %10.4f -> %10.4f %s\n", k, b, f, \
                   ok ? "ok" : "FAIL (outside +-2%)"
            if (!ok) status = 1
        }
        if (compared != want) {
            printf "work gate: compared %d of %d counters -- baseline " \
                   "or fresh bench JSON lacks a single-threaded config\n", \
                   compared, want
            status = 1
        }
        exit status
    }'; then
    echo "check.sh: work counters outside +-2% of (or missing" \
         "from) committed BENCH_hotpath.json -- a work change must" \
         "re-baseline it on purpose (not waivable with" \
         "--allow-perf-regression)" >&2
    exit 1
fi

# calendar_ops_per_miss also pins the chain-fusion win on the sharded
# config: a >15% rise vs the committed baseline on a multicast config
# means fusion quietly stopped firing. The comparison is skipped when
# the baseline predates the field. It is a host performance counter,
# deliberately absent from the determinism extraction below (it is
# partition-dependent by design).
extract_field() {
    awk -F: -v field="$2" '
        /"name"/ { gsub(/[ ",]/, "", $2); name = $2 }
        $0 ~ "\"" field "\"" && name != "" {
            gsub(/[ ,]/, "", $2); print name, $2
        }' "$1"
}
if [[ -f "$BASELINE" ]] && grep -q '"calendar_ops_per_miss"' "$BASELINE"
then
    if ! { extract_field "$BASELINE" calendar_ops_per_miss; echo "--"
           extract_field "$FRESH" calendar_ops_per_miss; } | awk -v \
        enforce="$([[ "$ALLOW_PERF_REGRESSION" == "1" ]] || echo 1)" '
        $1 == "--"  { fresh_section = 1; next }
        !fresh_section { base[$1] = $2; next }
        { fresh[$1] = $2 }
        END {
            status = 0
            for (name in fresh) {
                if (name !~ /^multicast/) continue
                if (!(name in base) || base[name] <= 0) continue
                ratio = fresh[name] / base[name]
                printf "calendar guard: %-32s %8.3f -> %8.3f " \
                       "ops/miss (%.2fx)\n", \
                       name, base[name], fresh[name], ratio
                if (ratio > 1.15 && enforce == "1") {
                    printf "calendar guard: FAIL %s " \
                           "calendar_ops_per_miss rose >15%%\n", name
                    status = 1
                }
            }
            exit status
        }'; then
        echo "check.sh: calendar_ops_per_miss regression vs committed" \
             "BENCH_hotpath.json -- chain fusion lost ground (rerun" \
             "with --allow-perf-regression if intentional)" >&2
        exit 1
    fi
else
    echo "check.sh: baseline lacks calendar_ops_per_miss -- skipping" \
         "the chain-fusion guard (first run after the field landed)"
fi

# Sharded-kernel determinism cross-checks: a K-shard run must emit
# bit-identical figure statistics to the single-threaded run -- here
# with the two placement extremes (K=1, and K=4 with a dedicated hub
# shard), so both the single-barrier windows and the hub-shard
# partition are covered. Wall clock and events/sec may differ;
# everything else may not.
extract_det() {
    awk -F: '
        /"events"|"misses"|"retries"|"traffic_bytes"|"avg_miss_latency_ns"|"sim_runtime_ms"|"l0_hit_rate"|"touched_words_per_access"/ {
            gsub(/[ ",]/, "", $1); gsub(/[ ,]/, "", $2)
            print $1, $2
        }' "$1"
}
DET_FIELDS=8
# det_cross_check LABEL PREFIX CONFIG [bench args...]: run CONFIG with
# --threads 1 and with --threads 4 --hub-shard (an explicit --threads
# shards whichever config --config selects) and diff the figures.
det_cross_check() {
    local label="$1" one="$2_t1.json" four="$2_t4.json" config="$3"
    shift 3
    ./build/bench_perf_hotpath --config "$config" "$@" --threads 1 \
        --out "$one" > /dev/null
    ./build/bench_perf_hotpath --config "$config" "$@" --threads 4 \
        --hub-shard --out "$four" > /dev/null
    validate_bench_json "$one"
    validate_bench_json "$four"
    # Guard the guard: if the JSON field names ever drift, the
    # extraction would compare two empty streams and "pass" while
    # checking nothing; and a run that silently stayed on one shard
    # would compare K=1 with itself.
    local f n
    for f in "$one" "$four"; do
        n="$(extract_det "$f" | wc -l)"
        if [[ "$n" -ne "$DET_FIELDS" ]]; then
            echo "check.sh: determinism extraction found" \
                 "$n/$DET_FIELDS stat fields in $f -- extractor out" \
                 "of sync with the bench JSON" >&2
            exit 1
        fi
    done
    if ! grep -q '"threads": 4,' "$four"; then
        echo "check.sh: $label: the --threads 4 run did not run on" \
             "4 shards (see $four)" >&2
        exit 1
    fi
    if ! diff <(extract_det "$one") <(extract_det "$four"); then
        echo "check.sh: DETERMINISM FAILURE -- $label: --threads 4" \
             "diverged from --threads 1 (see diff above)" >&2
        exit 1
    fi
    echo "determinism: $label, --threads 1 == --threads 4"
}
det_cross_check "16-node multicast-owner-group-par" build/BENCH_det \
    multicast-owner-group-par --measure 100000 --warmup 10000

# 64-node scaling smoke: the same determinism contract on a larger
# hierarchical machine -- 64 nodes in 4 clusters of 16 behind
# switches, 4 address-interleaved ordering hubs (the committed
# configs/fig6_scaling.conf shape, docs/machine_topology.md). This
# exercises the parameterized topology, multi-hub ordering, and the
# 64-node txn-id/oracle-buffer regressions end to end in CI without
# paying for a full scaling sweep. Twice: under multicast, and under
# broadcast snooping, where most of every fan-out's 63 deliveries are
# passive and each shard's deliveries ride one uncapped fused chain.
det_cross_check "64-node 4-hub hierarchical multicast" \
    build/BENCH_det64 multicast-owner-group-par \
    --nodes 64 --hubs 4 --cluster 16 --switch-ns 15 \
    --measure 20000 --warmup 5000
det_cross_check "64-node 4-hub hierarchical snooping" \
    build/BENCH_dets64 snooping \
    --nodes 64 --hubs 4 --cluster 16 --switch-ns 15 \
    --measure 20000 --warmup 5000

# Refuse to install a fresh baseline that lost configs (e.g. a bench
# crash after a partial write): the perf guard would silently stop
# guarding whatever is missing.
for config in snooping multicast-owner-group \
              multicast-owner-group-detailed multicast-owner-group-par
do
    if ! grep -q "\"name\": \"$config\"" "$FRESH"; then
        echo "check.sh: fresh bench JSON is missing config" \
             "'$config'; not touching $BASELINE" >&2
        exit 1
    fi
done

# Sweep-driver crash-tolerance smoke: seeded fault injection must
# fail the expected jobs, and a resumed sweep must reproduce the
# fault-free aggregate table byte-for-byte.
SWEEP_BIN=./build/bench_sweep scripts/sweep_smoke.sh

# Checkpoint/restore smoke (scripts/checkpoint_smoke.sh): a run
# SIGKILLed mid-flight resumes from its newest snapshot with
# byte-identical figure stats; a violation replays from the repro
# bundle's nearest checkpoint re-raising the identical DSP-VIOLATION
# line; the committed configs/nightly.conf sweep survives kill+resume
# with a byte-identical aggregate table.
scripts/checkpoint_smoke.sh

# The checkpoint tests again under AddressSanitizer: restore rebuilds
# every in-flight event through the component pools, exactly where a
# stale pointer or double-release would hide. A dedicated build tree
# keeps the instrumented objects out of the Release build. Skipped
# (with a warning) only if the toolchain lacks libasan.
if echo 'int main(){}' | g++ -fsanitize=address -x c++ - \
        -o build/asan_probe 2> /dev/null; then
    rm -f build/asan_probe
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address" > /dev/null
    cmake --build build-asan --target test_checkpoint -j"$JOBS"
    ASAN_OUT=$(./build-asan/test_checkpoint \
        --gtest_filter='CheckpointFile.*:CheckpointReader.*:Checkpoint.FlatRestoreBitEquivalentAcrossShardCounts')
    if ! grep -q "8 tests from 3 test suites ran" <<< "$ASAN_OUT"; then
        echo "check.sh: ASan checkpoint tests did not run (filter out" \
             "of sync with test_checkpoint?)" >&2
        exit 1
    fi
    echo "checkpoint tests clean under AddressSanitizer"
else
    echo "check.sh: warning: g++ lacks -fsanitize=address --" \
         "skipping the ASan checkpoint leg" >&2
fi

# Docs hygiene: markdown links resolve, and every src/ subsystem is
# mentioned in the docs index.
scripts/docs_check.sh

# Every guard passed (or was explicitly waived): only now does the
# fresh run become the committed perf trajectory.
cp "$FRESH" "$BASELINE"

echo "check.sh: build + tests + hotpath bench + determinism +" \
     "sweep-resume OK"
