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
set -e
trap 'echo "console_smoke.sh: line $LINENO failed" >&2' ERR
ROPEFREQ=${ROPEFREQ:-ropefreq}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
demo="$root/configs/copying_demo.json"
cd "$(mktemp -d)"
$ROPEFREQ decay-curve --delta-max 8 --out curve.csv --quiet
# Every row of a longer curve, laid out by array arithmetic or
# written by %, is "%d,%s,%.17g" of its own parsed fields.
$ROPEFREQ decay-curve --delta-max 20000 --include-full --out full.csv --quiet
python - <<'EOF'
lines = open("full.csv").read().split("\n")
assert lines[0] == "delta,band,mean_similarity" and lines[-1] == ""
assert len(lines) == 2 + 4 * 20001, len(lines)
for line in lines[1:-1]:
    d, label, v = line.split(",")
    assert line == "%d,%s,%.17g" % (int(d), label, float(v)), line
EOF
# The entry point streams the curve in chunks, the next one computed
# on a worker thread; its CSV is byte for byte the library's CSV of
# the whole curve at once.
python -c 'import sys; from ropefreq.bands import decay_curve, decay_curve_to_csv, make_even_partition; from ropefreq.rope import RotaryConfig; c = RotaryConfig.single_axis(128, 10000.0, "x"); decay_curve_to_csv(decay_curve(range(20001), make_even_partition(c, 3, "x"), c, include_full=True), sys.stdout)' > library.csv
cmp full.csv library.csv
$ROPEFREQ schedule --s-hf 0.3 --s-lf 1.2 --out schedule.csv --quiet
$ROPEFREQ bands --dim 8 --bands 2 --out bands.json --quiet
$ROPEFREQ shared-attn "$demo" --quiet > report.json
# A normalized config normalizes to itself.
$ROPEFREQ shared-attn "$demo" --emit-config once.json --quiet
$ROPEFREQ shared-attn once.json --emit-config twice.json --quiet
cmp once.json twice.json
# --seed is a shared-attn flag; anywhere else it is a usage error.
rc=0; $ROPEFREQ decay-curve --seed 1 --out x.csv || rc=$?
test "$rc" -eq 2; test ! -e x.csv
# A --delta-max whose curve would not fit its budget exits 3 before
# building anything, and writes nothing.
rc=0; $ROPEFREQ decay-curve --delta-max 1000000000000 --out big.csv --quiet || rc=$?
test "$rc" -eq 3; test ! -e big.csv
# The demo with output.attention: each streamed matrix holds
# exactly 4*rows*cols bytes, the shape taken from its sidecar.
python -c 'import json, sys; c = json.load(open(sys.argv[1])); c["output"]["attention"] = "attn.f4"; json.dump(c, open("attn_demo.json", "w"))' "$demo"
$ROPEFREQ shared-attn attn_demo.json --out attn_report.json --quiet
for m in attn.entry0.f4 attn.entry1.f4; do
  python -c 'import json, os, sys; r, c = json.load(open(sys.argv[1] + ".json"))["shape"]; sys.exit(os.path.getsize(sys.argv[1]) != 4 * r * c)' "$m"
done
# Rows are streamed a chunk at a time. Read as <f4, every row is a
# softmax row summing to 1 within 1e-5, and its largest weight is on
# the query's own key (queries and keys share features), so a chunk
# written twice, out of place or not at all fails even when the
# byte count is right.
for m in attn.entry0.f4 attn.entry1.f4; do
  python - "$m" <<'EOF'
import json, sys
import numpy as np
rows, cols = json.load(open(sys.argv[1] + ".json"))["shape"]
matrix = np.fromfile(sys.argv[1], dtype="<f4").reshape(rows, cols)
assert np.abs(matrix.sum(axis=1, dtype=np.float64) - 1).max() <= 1e-5, sys.argv[1]
assert (matrix.argmax(axis=1) == np.arange(rows)).all(), sys.argv[1]
EOF
done
# The layouts agree end to end: each sidecar's shape is its two
# layouts' lengths and its report entry's [n_queries, n_keys], and
# entry0's key layout is the one the report lists.
python - <<'EOF'
import json
report = json.load(open("attn_report.json"))
for i, entry in enumerate(report["entries"]):
    meta = json.load(open(f"attn.entry{i}.f4.json"))
    layouts = [len(meta["query_layout"]), len(meta["key_layout"])]
    assert meta["shape"] == layouts == [entry["n_queries"], entry["n_keys"]], entry["label"]
assert json.load(open("attn.entry0.f4.json"))["key_layout"] == report["key_layout"]
# The layouts are rendered from row templates: the report and each
# sidecar must be byte for byte the encoder's own text, which a
# comparison of parsed values would not see.
for path in ["attn_report.json"] + [f"attn.entry{i}.f4.json" for i in range(len(report["entries"]))]:
    text = open(path).read()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path
EOF
# Two heads and no attribution bands: each streamed matrix holds exactly
# 4*rows*cols bytes, and read as <f4 every row sums to 1 within 1e-5.
python -c 'import json, sys; c = json.load(open(sys.argv[1])); c.update(heads=2, attribution_bands=None); c["output"]["attention"] = "heads2.f4"; json.dump(c, open("heads2_demo.json", "w"))' "$demo"
$ROPEFREQ shared-attn heads2_demo.json --out heads2_report.json --quiet
for m in heads2.entry0.f4 heads2.entry1.f4; do
  python - "$m" <<'EOF'
import json, os, sys
import numpy as np
rows, cols = json.load(open(sys.argv[1] + ".json"))["shape"]
assert os.path.getsize(sys.argv[1]) == 4 * rows * cols, sys.argv[1]
matrix = np.fromfile(sys.argv[1], dtype="<f4").reshape(rows, cols)
assert np.abs(matrix.sum(axis=1, dtype=np.float64) - 1).max() <= 1e-5, sys.argv[1]
EOF
done
# Past a bound, --emit-config exits 3 and writes nothing: a grid with
# more keys than one evaluation block holds a logits row of, and a
# scale too large for a float.
python - "$demo" <<'EOF'
import json, sys
demo = json.load(open(sys.argv[1]))
json.dump({**demo, "grid": {"width": 3000000, "height": 3000000}}, open("huge_grid.json", "w"))
json.dump({**demo, "sharing": {"mode": "plain", "s": 10**400}}, open("huge_s.json", "w"))
EOF
for c in huge_grid huge_s; do
  rc=0; $ROPEFREQ shared-attn "$c.json" --emit-config "$c.emitted.json" --quiet || rc=$?
  test "$rc" -eq 3; test ! -e "$c.emitted.json"
done
# An empty --out (or --emit-config) is a usage error that writes nothing.
mkdir empty && cd empty
for argv in "decay-curve --out" "schedule --s-hf 0.3 --s-lf 1.2 --out" "bands --out" \
    "shared-attn $demo --out" "shared-attn $demo --emit-config"; do
  rc=0; $ROPEFREQ $argv "" || rc=$?
  test "$rc" -eq 2; test -z "$(ls -A)"
done
