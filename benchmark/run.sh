#!/usr/bin/env bash
# Builds tetribench (release, offline) and runs it. Arguments go to
# `tetribench run`; with none, every workload runs untraced and then traced
# and the results land in benchmark/out/result.json.
#
#   benchmark/run.sh --smoke     same shapes at about 1/20 size, for CI
#   benchmark/run.sh --workload rc80_replan_exact --seed 7
set -euo pipefail
cd "$(dirname "$0")"
exec cargo run --release --offline --quiet -- run "$@"
