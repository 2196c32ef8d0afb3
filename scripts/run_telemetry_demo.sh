#!/usr/bin/env sh
# Kernel-telemetry demo: BFS + PageRank on an RMAT graph with the burble
# stream on (SuiteSparse GxB_BURBLE-style), then a Chrome trace written to
# /tmp/repro_trace.json (open in chrome://tracing or ui.perfetto.dev).
#
# The burble shows one line per operation as it runs — each mxv/vxm line
# names the push/pull direction per BFS level with the frontier density
# behind the switch, each mxm line its SpGEMM method — plus early exits
# and zombie/pending assembly, and the trace holds the same events on a
# timeline.
#
# Usage:  scripts/run_telemetry_demo.sh [--scale N] [-o trace.json]
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} exec python scripts/export_trace.py \
    --demo -o "${TRACE_OUT:-/tmp/repro_trace.json}" "$@"
