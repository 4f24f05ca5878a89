#!/usr/bin/env bash
# Full CI gate: release build, tests, lints, formatting.
#
# The build is hermetic (no registry access); --offline keeps cargo from
# trying the network. SEGSCOPE_THREADS caps the experiment engine's
# worker count if the CI host is oversubscribed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> perfbench tests (the benchmark's use of the workspace API)"
# perfbench is a workspace of its own that builds the crates by path; its
# tests fail here, not at the next benchmark run, when a workspace API it
# calls changes.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> examples (release, seeded)"
for example in covert_channel kaslr_break keystroke_monitor quickstart \
               segscope_timer spectral_enhance spectre_leak website_fingerprint; do
    echo "--> $example"
    cargo run --release --offline --example "$example" >/dev/null
done

echo "==> segscope CLI (release): list + per-scenario run smoke"
cargo build --release --offline --bin segscope
SEGSCOPE="target/release/segscope"
"$SEGSCOPE" list >/dev/null
for name in $("$SEGSCOPE" list --names); do
    echo "--> segscope run $name"
    # Repetition scenarios take --trials 2; structured ones (trial count
    # fixed by the config) ignore it and run their quick() defaults.
    "$SEGSCOPE" run "$name" --trials 2 >/dev/null
done

echo "==> enclave scenarios + countermeasure smoke (release)"
# The enclave studies under each armed defense, plus the no-op warning
# path for a scenario whose config carries no machine.
"$SEGSCOPE" run aexcount --seed 0xAE0 --trials 2 >/dev/null
"$SEGSCOPE" run heckler --seed 0x4EC --trials 2 >/dev/null
for defense in none quanshield padding; do
    "$SEGSCOPE" run aexcount --seed 0xAE0 --trials 2 --defense "$defense" >/dev/null
    "$SEGSCOPE" run heckler --seed 0x4EC --trials 2 --defense "$defense" >/dev/null
done
"$SEGSCOPE" describe heckler > target/ci.describe.txt
grep -q "defenses: none, quanshield, padding" target/ci.describe.txt || {
    echo "segscope describe does not list the defense axis" >&2
    exit 1
}

echo "==> segscope CLI golden report diff (covert)"
"$SEGSCOPE" run covert --seed 0xC07E --trials 2 --threads 2 \
    --report target/covert.report.json >/dev/null
if [[ "${SEGSCOPE_BLESS:-0}" == "1" ]]; then
    cp target/covert.report.json tests/golden/covert.report.json
    echo "blessed tests/golden/covert.report.json"
elif ! cmp -s target/covert.report.json tests/golden/covert.report.json; then
    echo "segscope run covert report drifted from tests/golden/covert.report.json;" >&2
    echo "if intentional: SEGSCOPE_BLESS=1 scripts/ci.sh (or cp target/covert.report.json tests/golden/)" >&2
    exit 1
fi

echo "==> segscope serve-bench smoke + golden verdict diff"
# The streaming-serving smoke: batched and sequential serving must
# agree on the verdict FNV (the binary hard-errors on divergence), and
# the whole report — verdict hashes included — must match the
# checked-in golden byte for byte.
"$SEGSCOPE" serve-bench --out target/serve.report.json >/dev/null
if [[ "${SEGSCOPE_BLESS:-0}" == "1" ]]; then
    cp target/serve.report.json tests/golden/serve.report.json
    echo "blessed tests/golden/serve.report.json"
elif ! cmp -s target/serve.report.json tests/golden/serve.report.json; then
    echo "segscope serve-bench report drifted from tests/golden/serve.report.json;" >&2
    echo "if intentional: SEGSCOPE_BLESS=1 scripts/ci.sh (or cp target/serve.report.json tests/golden/)" >&2
    exit 1
fi

echo "==> nnet lane-engine bit parity (release)"
# Lane-batched training must stay bit-identical to per-example BPTT at
# release optimization too, where the SoA kernels vectorize.
cargo test -q --offline --release -p nnet --test lane_parity

echo "==> segscope_trace example (release) + golden trace diff"
SEGSCOPE_TRACE=target/keystroke.trace.json \
    cargo run --release --offline --example segscope_trace >/dev/null
if ! cmp -s target/keystroke.trace.json tests/golden/keystroke.trace.json; then
    echo "segscope_trace output drifted from tests/golden/keystroke.trace.json;" >&2
    echo "if intentional: cp target/keystroke.trace.json tests/golden/keystroke.trace.json" >&2
    exit 1
fi

echo "==> golden determinism gate (no SEGSCOPE_BLESS)"
# Re-assert every checked-in golden byte-identical with blessing
# explicitly disabled, so a blessed CI run can never mask drift.
SEGSCOPE_BLESS=0 cargo test -q --offline --test golden_trace
SEGSCOPE_BLESS=0 cargo test -q --offline --test golden_reports
SEGSCOPE_BLESS=0 "$SEGSCOPE" run covert --seed 0xC07E --trials 2 --threads 2 \
    --report target/covert.report.determinism.json >/dev/null
cmp target/covert.report.determinism.json tests/golden/covert.report.json
SEGSCOPE_BLESS=0 SEGSCOPE_TRACE=target/keystroke.trace.determinism.json \
    cargo run --release --offline --example segscope_trace >/dev/null
cmp target/keystroke.trace.determinism.json tests/golden/keystroke.trace.json
SEGSCOPE_BLESS=0 "$SEGSCOPE" serve-bench \
    --out target/serve.report.determinism.json >/dev/null
cmp target/serve.report.determinism.json tests/golden/serve.report.json

echo "==> segscope campaign smoke: sweep, kill, resume, report"
# A 2-scenario x 2-preset grid: run it whole, then kill a second copy
# mid-run, resume it at a different shard count, and require the two
# report files byte-identical. Also gates the report JSON schema.
CAMP_SPEC='{"name":"ci-smoke","seed":193,
  "scenarios":[{"scenario":"kaslr","params":null},{"scenario":"covert","params":null}],
  "presets":["lenovo_yangtian","amazon_t2_large"],
  "faults":[{"name":"none","plan":null},
            {"name":"delivery_storm","plan":{"drop_prob":0.15,"duplicate_prob":0.08,
             "duplicate_delay":50000000,"coalesce_window":800000000,"handler_jitter_std":0,
             "freq_step_clamp_khz":null,"smt_burst_prob":0,"smt_burst_factor":1,"smt_burst_ops":0}}],
  "replicates":1,"trials":null}'
rm -rf target/ci-campaign target/ci-campaign-killed
echo "$CAMP_SPEC" > target/ci-campaign.spec.json
"$SEGSCOPE" campaign run --spec target/ci-campaign.spec.json --trials 2 \
    --out target/ci-campaign --shards 2 >/dev/null
"$SEGSCOPE" campaign status --out target/ci-campaign > target/ci.camp-status.txt
grep -q "8/8 cells complete" target/ci.camp-status.txt || {
    echo "campaign status does not report completion" >&2
    exit 1
}
"$SEGSCOPE" campaign run --spec target/ci-campaign.spec.json --trials 2 \
    --out target/ci-campaign-killed --shards 3 --stop-after-waves 1 >/dev/null
if "$SEGSCOPE" campaign report --out target/ci-campaign-killed >/dev/null 2>&1; then
    echo "campaign report accepted an incomplete manifest" >&2
    exit 1
fi
"$SEGSCOPE" campaign resume --out target/ci-campaign-killed --shards 8 >/dev/null
cmp target/ci-campaign/report.json target/ci-campaign-killed/report.json || {
    echo "killed+resumed campaign report differs from the uninterrupted one" >&2
    exit 1
}
# The merged report must carry the schema campaign consumers read.
for key in name seed spec_digest cells totals fault_log matrix cell_results \
           scenario preset fault replicate report ground_truth_deliveries \
           delivery_faults timing_faults; do
    if ! grep -q "\"$key\"" target/ci-campaign/report.json; then
        echo "target/ci-campaign/report.json missing key \"$key\"" >&2
        exit 1
    fi
done

echo "==> segscope campaign: damaged manifests are typed errors"
# A truncated manifest, and one with a completed entry for a cell past
# the grid, must make resume and report fail with an `error:` line and
# exit 1 — not load, and not panic (exit 101).
for damage in truncated out_of_range; do
    dir="target/ci-campaign-$damage"
    rm -rf "$dir"
    cp -r target/ci-campaign-killed "$dir"
    if [[ "$damage" == truncated ]]; then
        truncate -s 100 "$dir/manifest.json"
    else
        # Completed cells serialize as [cell, [result]] pairs.
        sed -i 's/"completed":\[/"completed":[[99,[]],/' "$dir/manifest.json"
        grep -q '"completed":\[\[99,' "$dir/manifest.json"
    fi
    for cmd in resume report; do
        status=0
        "$SEGSCOPE" campaign "$cmd" --out "$dir" >/dev/null 2>target/ci.damaged.err \
            || status=$?
        if [[ "$status" -ne 1 ]] || ! grep -q "^error: .*manifest.json" target/ci.damaged.err; then
            echo "campaign $cmd on a $damage manifest exited $status:" >&2
            cat target/ci.damaged.err >&2
            exit 1
        fi
    done
done

echo "==> segscope campaign defense matrix: spec, run, report schema"
# The enclave attack x defense matrix end to end at low trial count:
# emit the spec via --defense-matrix, run it sharded, and require the
# merged report to carry the defense axis and per-row accuracy.
rm -rf target/ci-matrix
"$SEGSCOPE" campaign spec --defense-matrix --seed 0xDEF1 \
    --out target/ci-matrix.spec.json >/dev/null
grep -q '"defenses"' target/ci-matrix.spec.json || {
    echo "defense-matrix spec missing the defenses axis" >&2
    exit 1
}
"$SEGSCOPE" campaign run --spec target/ci-matrix.spec.json --trials 2 \
    --out target/ci-matrix --shards 3 >/dev/null
for key in defense mean_accuracy accuracy_cells quanshield padding; do
    if ! grep -q "\"$key\"" target/ci-matrix/report.json; then
        echo "target/ci-matrix/report.json missing key \"$key\"" >&2
        exit 1
    fi
done

echo "==> snapshot fuzz gate (release, random pause points)"
# The restore-exactness proptests at release optimization: presets ×
# fault plans × random pause points through a full JSON cycle, plus the
# record/replay/bisect suite in the umbrella crate.
cargo test -q --offline --release --test snapshot_roundtrip
cargo test -q --offline --release --lib -p segscope-repro replay

echo "==> segscope snapshot/replay round trip + recording schema"
"$SEGSCOPE" snapshot --machine lenovo_savior --seed 0x51AB --spans 32 \
    --every 8 --out target/ci.rec.json >/dev/null
"$SEGSCOPE" replay --in target/ci.rec.json --from 40 >/dev/null
# The serialized recording must carry the schema replay consumers read:
# the spec, the event stream, and the snapshot ladder down to the
# machine image's RNG position and fabric state.
for key in spec events snapshots final_digest machine seed spans \
           event_index digest snapshot rng_state now fabric; do
    if ! grep -q "\"$key\"" target/ci.rec.json; then
        echo "target/ci.rec.json missing key \"$key\"" >&2
        exit 1
    fi
done
# And the bisector must localize a single injected fault. Capture to a
# file first: grep -q on a pipe exits at the first match and the closed
# pipe kills the still-printing binary with EPIPE.
"$SEGSCOPE" bisect --machine lenovo_savior --seed 9 --spans 24 \
    --inject-b 40000:gpu > target/ci.bisect.txt
grep -q "first divergence at event" target/ci.bisect.txt || {
    echo "segscope bisect failed to localize an injected fault" >&2
    exit 1
}

if [[ "${SEGSCOPE_OBS_FULL:-0}" == "1" ]]; then
    echo "==> obs 16M-event stress pass (SEGSCOPE_OBS_FULL=1)"
    cargo test -q --offline -p obs --release -- --include-ignored
fi

if [[ "${SEGSCOPE_CONFORMANCE_FULL:-0}" == "1" ]]; then
    echo "==> full conformance sweep (SEGSCOPE_CONFORMANCE_FULL=1)"
    cargo test -q --offline -p conformance --release -- --include-ignored
fi

echo "==> cargo doc -D warnings"
# The compat/ stand-ins mirror third-party doc text we don't own; the
# gate covers every crate we write.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps \
    --exclude rand --exclude serde --exclude serde_derive \
    --exclude serde_json --exclude proptest >/dev/null

echo "==> cargo clippy -D warnings"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> bench_perf (quick) + BENCH_perf.json schema"
# Last, so a failing perf gate cannot hide a correctness check. The
# harness writes the report before it checks its identity checks and
# gates, and exits non-zero if any failed; the schema is checked either
# way, then that exit status stands. Absolute path: cargo bench runs
# the harness with the package dir as cwd.
perf_status=0
SEGSCOPE_BENCH_JSON="$PWD/target/BENCH_perf.json" \
    cargo bench -q --offline -p segscope-bench --bench bench_perf >/dev/null \
    || perf_status=$?
for key in host cpu cores full_scale arms name unit work timings path threads \
           wall_s per_s values identical identity gates cmp bar measured armed pass; do
    if ! grep -q "\"$key\"" target/BENCH_perf.json; then
        echo "target/BENCH_perf.json missing key \"$key\"" >&2
        exit 1
    fi
done
if [[ "$perf_status" -ne 0 ]]; then
    echo "bench_perf failed a gate; see target/BENCH_perf.json" >&2
    exit "$perf_status"
fi

echo "CI OK"
