#!/usr/bin/env sh
# Run the fault-injection / transactional-guarantee suite.
#
# The resilience tests live in tests/resilience and carry the `resilience`
# pytest marker (applied automatically by their conftest).  They inject
# faults at every registered point (see repro.graphblas.faults.POINTS)
# into the Table-I operations and the LAGraph algorithm suite, then prove
# that the failed call raised once (nothing replays it), that operands are
# bit-identical and still validate, and that the same call outside the
# fault matches the dense reference oracle.
#
# Usage:  scripts/run_resilience.sh [extra pytest args]
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} exec python -m pytest -m resilience tests/resilience -q "$@"
