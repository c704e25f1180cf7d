#!/usr/bin/env bash
# Console smoke: every subcommand once through the ropefreq command line.
# The command is $ROPEFREQ, the installed entry point by default:
#
#   tests/console_smoke.sh
#   ROPEFREQ="python -m ropefreq" PYTHONPATH=src tests/console_smoke.sh
#
# `python` must import the same ropefreq. Outputs go to a new directory
# under $TMPDIR. Each check is its own command: under bash -e a failure
# before the last command of an && list does not stop the script.
#
# The steps' stderr goes to stderr.log there, shown when the script ends.
# A step that prints "Exception ignored" (a ResourceWarning from a file
# left to the garbage collector, under PYTHONWARNINGS=error) fails the
# script, though the step itself exits 0.
set -e
trap 'echo "console_smoke.sh: line $LINENO failed" >&2' ERR
ROPEFREQ=${ROPEFREQ:-ropefreq}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
demo="$root/configs/copying_demo.json"
cd "$(mktemp -d)"
# By its full path: a step may fail while the script is in a subdirectory.
log=$PWD/stderr.log
exec 3>&2 2> "$log"
trap 'rc=$?; cat "$log" >&3
if grep -q "Exception ignored" "$log"; then
  echo "console_smoke.sh: a step printed \"Exception ignored\"" >&3; rc=1
fi
exit $rc' EXIT
# Writes config $1 to $2 with output.attention set to $3, after merging
# in the JSON object $4 when it is given.
with_attention() {
  python - "$@" <<'EOF'
import json, pathlib, sys
config = json.loads(pathlib.Path(sys.argv[1]).read_text())
config.update(json.loads(sys.argv[4]) if len(sys.argv) > 4 else {})
config["output"]["attention"] = sys.argv[3]
pathlib.Path(sys.argv[2]).write_text(json.dumps(config))
EOF
}
$ROPEFREQ decay-curve --delta-max 8 --out curve.csv --quiet
# Every row of a longer curve, laid out by array arithmetic or
# written by %, is "%d,%s,%.17g" of its own parsed fields.
$ROPEFREQ decay-curve --delta-max 20000 --include-full --out full.csv --quiet
python - <<'EOF'
import pathlib
lines = pathlib.Path("full.csv").read_text().split("\n")
assert lines[0] == "delta,band,mean_similarity" and lines[-1] == ""
assert len(lines) == 2 + 4 * 20001, len(lines)
for line in lines[1:-1]:
    d, label, v = line.split(",")
    assert line == "%d,%s,%.17g" % (int(d), label, float(v)), line
EOF
# The entry point streams the curve in chunks that each hold one row
# budget of curve, an int64 delta and an f64 per series: 8,192 deltas
# for three bands, 6,553 with "full". The next chunk is computed on a
# worker thread; the CSV is byte for byte the whole curve rendered at
# once by ropefreq._csvrows. 20,001 deltas with "full" are four chunks.
# 8,192, 8,193 and 16,384 deltas are at a three-band chunk's edges, and
# 6,553, 6,554 and 13,107 at a chunk's edges with "full"; 16,385 and
# 32,768 were the edges of the fixed 16,384-delta chunks before them.
whole() {
  python - "$@" <<'EOF'
import sys
from ropefreq import _csvrows, bands
from ropefreq.rope import RotaryConfig
assert (bands._chunk_deltas(3), bands._chunk_deltas(4)) == (8192, 6553)
c = RotaryConfig.single_axis(128, 10000.0, "x")
p = bands.make_even_partition(c, 3)
curve = bands.decay_curve(range(int(sys.argv[1]) + 1), p, c, include_full=len(sys.argv) > 2)
sys.stdout.write(_csvrows.HEADER)
_csvrows.write_rows(curve, sys.stdout)
EOF
}
whole 20000 --include-full > library.csv
cmp full.csv library.csv
for m in 8191 8192 16383 16384 32767; do
  $ROPEFREQ decay-curve --delta-max $m --out edge$m.csv --quiet
  whole $m > library$m.csv
  cmp edge$m.csv library$m.csv
done
for m in 6552 6553 13106; do
  $ROPEFREQ decay-curve --delta-max $m --include-full --out fulledge$m.csv --quiet
  whole $m --include-full > libraryfull$m.csv
  cmp fulledge$m.csv libraryfull$m.csv
done
$ROPEFREQ schedule --s-hf 0.3 --s-lf 1.2 --out schedule.csv --quiet
$ROPEFREQ bands --dim 8 --bands 2 --out bands.json --quiet
$ROPEFREQ shared-attn "$demo" --quiet > report.json
# A normalized config normalizes to itself.
$ROPEFREQ shared-attn "$demo" --emit-config once.json --quiet
$ROPEFREQ shared-attn once.json --emit-config twice.json --quiet
cmp once.json twice.json
# So does one that sets every sharing key, in every mode, with a ramp,
# band masks and per-entry steps.
$ROPEFREQ shared-attn "$root/tests/fixtures/emit_config/every_sharing_key.config.json" \
  --emit-config every_once.json --quiet
$ROPEFREQ shared-attn every_once.json --emit-config every_twice.json --quiet
cmp every_once.json every_twice.json
# Run with output.attention, its report, <f4 matrices and sidecars are
# byte for byte the frozen ones in tests/fixtures/shared_attn.
with_attention "$root/tests/fixtures/emit_config/every_sharing_key.config.json" every_attn.json attn.f4
mkdir every && cd every
$ROPEFREQ shared-attn ../every_attn.json --out every_sharing_key.report.json --quiet
test "$(ls | wc -l)" -eq 11
for f in "$root"/tests/fixtures/shared_attn/*; do cmp "$f" "$(basename "$f")"; done
cd ..
# --seed is a shared-attn flag; anywhere else it is a usage error.
rc=0; $ROPEFREQ decay-curve --seed 1 --out x.csv || rc=$?
test "$rc" -eq 2; test ! -e x.csv
# A --delta-max whose curve would not fit its budget exits 3 before
# building anything, and writes nothing.
rc=0; $ROPEFREQ decay-curve --delta-max 1000000000000 --out big.csv --quiet || rc=$?
test "$rc" -eq 3; test ! -e big.csv
# The demo with output.attention: each streamed matrix holds
# exactly 4*rows*cols bytes, the shape taken from its sidecar.
with_attention "$demo" attn_demo.json attn.f4
$ROPEFREQ shared-attn attn_demo.json --out attn_report.json --quiet
for m in attn.entry0.f4 attn.entry1.f4; do
  python -c 'import json, os, pathlib, sys; r, c = json.loads(pathlib.Path(sys.argv[1] + ".json").read_text())["shape"]; sys.exit(os.path.getsize(sys.argv[1]) != 4 * r * c)' "$m"
done
# Rows are streamed a chunk at a time. Read as <f4, every row is a
# softmax row summing to 1 within 1e-5, and its largest weight is on
# the query's own key (queries and keys share features), so a chunk
# written twice, out of place or not at all fails even when the
# byte count is right.
for m in attn.entry0.f4 attn.entry1.f4; do
  python - "$m" <<'EOF'
import json, pathlib, sys
import numpy as np
rows, cols = json.loads(pathlib.Path(sys.argv[1] + ".json").read_text())["shape"]
matrix = np.fromfile(sys.argv[1], dtype="<f4").reshape(rows, cols)
assert np.abs(matrix.sum(axis=1, dtype=np.float64) - 1).max() <= 1e-5, sys.argv[1]
assert (matrix.argmax(axis=1) == np.arange(rows)).all(), sys.argv[1]
EOF
done
# The layouts agree end to end: each sidecar's shape is its two
# layouts' lengths and its report entry's [n_queries, n_keys], and
# entry0's key layout is the one the report lists.
python - <<'EOF'
import json, pathlib
def load(path):
    return json.loads(pathlib.Path(path).read_text())
report = load("attn_report.json")
for i, entry in enumerate(report["entries"]):
    meta = load(f"attn.entry{i}.f4.json")
    layouts = [len(meta["query_layout"]), len(meta["key_layout"])]
    assert meta["shape"] == layouts == [entry["n_queries"], entry["n_keys"]], entry["label"]
assert load("attn.entry0.f4.json")["key_layout"] == report["key_layout"]
# The layouts are rendered from row templates: the report and each
# sidecar must be byte for byte the encoder's own text, which a
# comparison of parsed values would not see.
for path in ["attn_report.json"] + [f"attn.entry{i}.f4.json" for i in range(len(report["entries"]))]:
    text = pathlib.Path(path).read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path
EOF
# The command line starts OpenBLAS on one thread, whatever
# OPENBLAS_NUM_THREADS says, and restores the variable once NumPy is
# loaded, so these runs no longer vary the count BLAS starts with. The
# variable must still move no byte of the report, the matrices or the
# sidecars.
for t in 1 2; do
  mkdir blas$t && cd blas$t
  OPENBLAS_NUM_THREADS=$t $ROPEFREQ shared-attn ../attn_demo.json --out report.json --quiet
  cd ..
done
test "$(ls blas1 | wc -l)" -eq 5
for f in blas1/*; do cmp "$f" "blas2/$(basename "$f")"; done
# Nor does setting it at all: the demo's report with
# OPENBLAS_NUM_THREADS=2 is the report with the variable unset.
OPENBLAS_NUM_THREADS=2 $ROPEFREQ shared-attn "$demo" --out blas_two.json --quiet
env -u OPENBLAS_NUM_THREADS $ROPEFREQ shared-attn "$demo" --out blas_unset.json --quiet
cmp blas_two.json blas_unset.json
# Nor do the CPU count and the variable together: on one CPU the
# evaluator makes the same one-thread products that it shares with a
# worker thread on two. At 16x16 with four heads and plain sharing at
# s = 100, positional_mass moved in its last bit between one and two BLAS
# threads while BLAS kept its own count (the in-process cases of
# tests/test_block_workers.py still start BLAS on two threads). Each
# run's affinity is set by a wrapper on its own process, which then
# becomes the command; without OpenBLAS's entry points BLAS is not
# pinned, and the case is skipped.
on_cpus() {
  python -c '
import os, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: int(sys.argv[1])])
os.execvp(sys.argv[2], sys.argv[2:])' "$@"
}
if python -c 'import sys; from ropefreq.diagnostics import _openblas; sys.exit(_openblas() is None)'; then
  with_attention "$demo" heads4.json heads4.f4 \
    '{"grid": {"width": 16, "height": 16}, "heads": 4, "attribution_bands": null, "sweep": [{"mode": "plain", "s": 100.0}]}'
  for cpus in 1 2; do
    for t in 1 2; do
      mkdir heads4_$cpus$t && cd heads4_$cpus$t
      OPENBLAS_NUM_THREADS=$t on_cpus "$cpus" $ROPEFREQ shared-attn ../heads4.json --out report.json --quiet
      cd ..
    done
  done
  test "$(ls heads4_11 | wc -l)" -eq 3
  for d in heads4_12 heads4_21 heads4_22; do
    for f in heads4_11/*; do cmp "$f" "$d/$(basename "$f")"; done
  done
fi
# Band groups run two at a time, the worker taking every second one. The
# 40x40 three-band demo has 25 groups of 64 image rows, so the caller runs
# the last one alone; its report is the same on one CPU and on two.
python - "$demo" <<'EOF'
import json, pathlib, sys
demo = json.loads(pathlib.Path(sys.argv[1]).read_text())
pathlib.Path("bands40.json").write_text(json.dumps({**demo, "grid": {"width": 40, "height": 40}}))
EOF
for cpus in 1 2; do
  on_cpus "$cpus" $ROPEFREQ shared-attn bands40.json --out "bands40_$cpus.json" --quiet
done
cmp bands40_1.json bands40_2.json
# Two heads and no attribution bands: each streamed matrix holds exactly
# 4*rows*cols bytes, and read as <f4 every row sums to 1 within 1e-5.
with_attention "$demo" heads2_demo.json heads2.f4 '{"heads": 2, "attribution_bands": null}'
$ROPEFREQ shared-attn heads2_demo.json --out heads2_report.json --quiet
for m in heads2.entry0.f4 heads2.entry1.f4; do
  python - "$m" <<'EOF'
import json, os, pathlib, sys
import numpy as np
rows, cols = json.loads(pathlib.Path(sys.argv[1] + ".json").read_text())["shape"]
assert os.path.getsize(sys.argv[1]) == 4 * rows * cols, sys.argv[1]
matrix = np.fromfile(sys.argv[1], dtype="<f4").reshape(rows, cols)
assert np.abs(matrix.sum(axis=1, dtype=np.float64) - 1).max() <= 1e-5, sys.argv[1]
EOF
done
# Past a bound, --emit-config exits 3 and writes nothing: a grid with
# more keys than one evaluation block holds a logits row of, and a
# scale too large for a float.
python - "$demo" <<'EOF'
import json, pathlib, sys
demo = json.loads(pathlib.Path(sys.argv[1]).read_text())
pathlib.Path("huge_grid.json").write_text(json.dumps({**demo, "grid": {"width": 3000000, "height": 3000000}}))
pathlib.Path("huge_s.json").write_text(json.dumps({**demo, "sharing": {"mode": "plain", "s": 10**400}}))
EOF
for c in huge_grid huge_s; do
  rc=0; $ROPEFREQ shared-attn "$c.json" --emit-config "$c.emitted.json" --quiet || rc=$?
  test "$rc" -eq 3; test ! -e "$c.emitted.json"
done
# A dim whose f64 row passes the 256 KiB row budget, above 32,768, exits
# 3 with one error: line and writes nothing, from --dim as from
# rotary.dim under --emit-config; 32,768 itself is accepted.
python - "$demo" <<'EOF'
import json, pathlib, sys
demo = json.loads(pathlib.Path(sys.argv[1]).read_text())
pathlib.Path("wide_dim.json").write_text(json.dumps({**demo, "rotary": {"dim": 4000000}}))
EOF
mkdir wide && cd wide
for argv in "bands --dim 32770 --out bands.json" "shared-attn ../wide_dim.json --emit-config emitted.json"; do
  rc=0; $ROPEFREQ $argv --quiet 2> ../wide.err || rc=$?
  test "$rc" -eq 3; test "$(wc -l < ../wide.err)" -eq 1; grep -q '^error: ' ../wide.err
  test -z "$(ls -A)"
done
cd ..
$ROPEFREQ bands --dim 32768 --out wide_bands.json --quiet
# An infinite --rope-base, and a sharing key its mode does not read (an
# offset in plain mode), exit 3 with one error: line and write nothing.
python - "$demo" <<'EOF'
import json, pathlib, sys
demo = json.loads(pathlib.Path(sys.argv[1]).read_text())
sharing = {"mode": "plain", "s": 1.0, "offset": [1, 2]}
pathlib.Path("unread_key.json").write_text(json.dumps({**demo, "sharing": sharing}))
EOF
mkdir refused && cd refused
for argv in "bands --rope-base inf --out bands.json" \
    "decay-curve --rope-base inf --delta-max 3 --out curve.csv" \
    "shared-attn ../unread_key.json --emit-config emitted.json"; do
  rc=0; $ROPEFREQ $argv --quiet 2> ../refused.err || rc=$?
  test "$rc" -eq 3; test "$(wc -l < ../refused.err)" -eq 1; grep -q '^error: ' ../refused.err
  test -z "$(ls -A)"
done
cd ..
# A band mask whose finite scale times the finite sharing scale overflows
# a float: --emit-config and the run each exit 3, print one error: line
# and no traceback, and write nothing.
python - "$demo" <<'EOF'
import json, pathlib, sys
demo = json.loads(pathlib.Path(sys.argv[1]).read_text())
mask = {"start": 0, "stop": 4, "mode": "scale", "scale": 1e200}
sharing = {"mode": "plain", "s": 1e200, "band_mask": mask}
config = {**demo, "grid": {"width": 4, "height": 4}, "sharing": sharing, "sweep": None}
pathlib.Path("overflow.json").write_text(json.dumps(config))
EOF
mkdir overflow && cd overflow
for flags in "--emit-config emitted.json" "--out report.json"; do
  rc=0; $ROPEFREQ shared-attn ../overflow.json $flags --quiet 2> ../overflow.err || rc=$?
  test "$rc" -eq 3; test "$(wc -l < ../overflow.err)" -eq 1; grep -q '^error: ' ../overflow.err
  test -z "$(ls -A)"
done
cd ..
# A config file nested past the recursion limit, or with a key given
# twice, exits 3 with one error: line, under --emit-config too, and
# writes nothing.
python -c 'print("[" * 100000)' > deep.json
python - "$demo" <<'EOF'
import pathlib, sys
text = pathlib.Path(sys.argv[1]).read_text()
assert text.count('"seed": 10') == 1
pathlib.Path("repeated.json").write_text(text.replace('"seed": 10', '"seed": 10, "seed": 12'))
EOF
mkdir bad && cd bad
for c in deep repeated; do
  for flags in "--emit-config emitted.json" "--out report.json"; do
    rc=0; $ROPEFREQ shared-attn "../$c.json" $flags --quiet 2> ../bad.err || rc=$?
    test "$rc" -eq 3; test "$(wc -l < ../bad.err)" -eq 1; grep -q '^error: ' ../bad.err
    test -z "$(ls -A)"
  done
done
cd ..
# An empty --out (or --emit-config) is a usage error that writes nothing.
mkdir empty && cd empty
for argv in "decay-curve --out" "schedule --s-hf 0.3 --s-lf 1.2 --out" "bands --out" \
    "shared-attn $demo --out" "shared-attn $demo --emit-config"; do
  rc=0; $ROPEFREQ $argv "" || rc=$?
  test "$rc" -eq 2; test -z "$(ls -A)"
done
cd ..
# An output that is a FIFO exits 4 with one error: line, is still a FIFO,
# and nothing is written beside it.
mkdir fifo && cd fifo
mkfifo out
for argv in "decay-curve --delta-max 3 --out" "schedule --s-hf 0.3 --s-lf 1.2 --out" \
    "bands --out" "shared-attn $demo --out" "shared-attn $demo --emit-config"; do
  rc=0; $ROPEFREQ $argv out --quiet 2> ../fifo.err || rc=$?
  test "$rc" -eq 4; test "$(wc -l < ../fifo.err)" -eq 1; grep -q '^error: ' ../fifo.err
  test -p out; test "$(ls -A)" = out
done
cd ..
# The demo with a third, saturated sweep entry exits 0, and only that
# entry's notes hold the saturation note.
python - "$demo" <<'EOF'
import json, pathlib, sys
demo = json.loads(pathlib.Path(sys.argv[1]).read_text())
demo["sweep"].append({"mode": "plain", "s": 1e200})
pathlib.Path("saturated.json").write_text(json.dumps(demo))
EOF
$ROPEFREQ shared-attn saturated.json --out saturated_report.json --quiet
python - <<'EOF'
import json, pathlib
report = json.loads(pathlib.Path("saturated_report.json").read_text())
notes = [entry["notes"] for entry in report["entries"]]
assert len(notes) == 3 and notes[:2] == [[], []], notes
assert len(notes[2]) == 1 and notes[2][0].startswith("softmax saturated: "), notes
EOF
