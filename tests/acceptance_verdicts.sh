#!/usr/bin/env bash
# Acceptance verdicts: each of the nine criteria of tests/test_acceptance.py
# must print its PASS line exactly once.
#
#   tests/acceptance_verdicts.sh
#
# Runs from the repository root with `python`, which must have pytest.
set -e
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$(PYTHONPATH=src python -m pytest tests/test_acceptance.py -q -s)
echo "$out"
passes=$(printf '%s\n' "$out" | grep -oE '\[acceptance\] criterion [0-9]+ \([^)]*\): PASS')
test "$(printf '%s\n' "$passes" | grep -c .)" -eq 9
test "$(printf '%s\n' "$passes" | grep -oE 'criterion [0-9]+' | sort -u | wc -l)" -eq 9
