#!/usr/bin/env sh
# Regenerates the committed CI baselines: the trace baseline
# (ci/trace_baseline.jsonl), the results baseline (ci/results_baseline/)
# and the lint baseline (ci/lint_baseline/analyze_corpus.json).
#
# The engine-smoke job traces a batch at these exact parameters and
# diffs it against the committed file, gating on zero sim-ms drift:
# simulated costs are deterministic by construction, so any drift means
# repair trajectories changed. It also re-runs the results batches below
# and diffs their outputs byte for byte against ci/results_baseline/, so
# a change to `passed`/`acceptable`, to a baseline system, or to the
# learned knowledge store fails even when no sim-ms moved. A warm
# rustbrain run that starts from the freshly written store pins retrieval
# over a non-empty knowledge base the same way. The lint-smoke job
# compares `analyze --corpus --json` with the lint baseline. After an
# *intentional* trajectory or result change (new rules, new model
# behaviour, pipeline reshaping), run this script and commit the
# refreshed baselines alongside the change that caused it.
#
# Wall-clock fields in the trace baseline are machine-specific and
# ignored by the gate; only span counts and simulated milliseconds are
# compared.
set -eu
cd "$(dirname "$0")/.."
cargo build --release
./target/release/rustbrain batch --jobs 2 --per-class 2 \
    --trace-out ci/trace_baseline.jsonl >/dev/null
echo "wrote ci/trace_baseline.jsonl"
mkdir -p ci/results_baseline
for system in rustbrain llm-only rust-assistant; do
    if [ "$system" = rustbrain ]; then
        set -- --kb-out ci/results_baseline/kb_rustbrain.rbkb
    else
        set --
    fi
    ./target/release/rustbrain batch --jobs 2 --per-class 2 --seed 7 \
        --system "$system" \
        --results-out "ci/results_baseline/results_$system.json" "$@" >/dev/null
done
./target/release/rustbrain batch --jobs 2 --per-class 2 --seed 7 \
    --system rustbrain --kb-in ci/results_baseline/kb_rustbrain.rbkb \
    --results-out ci/results_baseline/results_rustbrain_warm.json \
    --kb-out ci/results_baseline/kb_rustbrain_warm.rbkb >/dev/null
echo "wrote ci/results_baseline/"
mkdir -p ci/lint_baseline
./target/release/rustbrain analyze --corpus --json --seed 7 --per-class 20 \
    > ci/lint_baseline/analyze_corpus.json
echo "wrote ci/lint_baseline/analyze_corpus.json"
