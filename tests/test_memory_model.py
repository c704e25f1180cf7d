"""A ``shared-attn`` run's traced peak against a model of what it holds.

The model counts what a run must hold at its peak: the scene's positions
and correspondence, one key stack ``k`` (the scene's and the text's
features are drawn straight into its rows), the work buffer the evaluation
computes in and, when matrices are streamed, one ``<f4`` write chunk. The
work buffer holds one block's logits buffers, which share the rows of
logits one budget holds. With attribution bands it holds two band panels
as well, in a pass of their own after the logits blocks, over two groups
of image-query rows at a time; a group is as high as a one-head block, so
both panels fit where the block was and add nothing.
Everything else must fit in 1 MiB beside them: the folds' per-query
arrays and the report and, held before the work buffer exists and in its
place, the scene builders' and AdaIN's 256 KiB blocks of rows and the
rotation's four 256 KiB budgets.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from ropefreq.cli import ExperimentConfig, _all_or_nothing, run_experiment
from ropefreq.diagnostics import _BLOCK_BYTES, _row_bytes
from ropefreq.rope import _ROWS_BYTES, _block_height


def demo_config(grid: int, heads: int, bands, attention) -> ExperimentConfig:
    raw = json.loads((Path(__file__).parents[1] / "configs" / "copying_demo.json").read_text())
    raw["grid"] = {"width": grid, "height": grid}
    raw["heads"] = heads
    raw["attribution_bands"] = bands
    raw["output"] = {"report": None, "attention": attention}
    return ExperimentConfig.from_json_dict(raw)


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """Run a small config once, so the modules a first run imports are not counted."""
    out = tmp_path_factory.mktemp("warm")
    with _all_or_nothing() as stage:
        run_experiment(demo_config(8, 1, 3, str(out / "a.f4")), stage)


def model(grid: int, dim: int, text: int, heads: int, streamed: bool) -> tuple[int, int]:
    """``(held, bound)`` in bytes for a run whose entries all share reference keys.

    ``held`` is the scene's positions and ``k``, which a run holds at its peak;
    ``bound`` adds the work buffer, the write chunk when ``streamed`` and 1 MiB.
    """
    n = grid * grid
    # Target and reference positions, the correspondence and the text
    # positions; the features are rows of k.
    scene = 8 * (2 * n * 2 + n + text * 2)
    n_queries, n_keys = n + text, 2 * n + text
    k = 8 * n_keys * dim
    # A block's buffers share the rows of logits the budget holds, at most
    # 64: of one buffer with one head, of two with two and of three with more.
    budget_rows = min(64, _block_height(_row_bytes(n_keys, heads), _BLOCK_BYTES), n_queries)
    work = min(heads, 3) * budget_rows * n_keys
    held = scene + k
    return held, held + 8 * work + (_ROWS_BYTES if streamed else 0) + 2**20


# Matrices are streamed at 16x16 and 48x48 only: a 64x64 run writes two
# matrices of 134 MB each, where a 48x48 one writes 43 MB each. At 32x32
# the blocks' 64-row cap, not the budget, sets their height and the groups'.
@pytest.mark.parametrize(
    "grid, streamed",
    [(16, False), (16, True), (32, False), (48, False), (48, True), (64, False)],
    ids=["16-report", "16-matrices", "32-report", "48-report", "48-matrices", "64-report"],
)
@pytest.mark.parametrize(
    "heads, bands", [(1, 3), (1, None), (2, None)], ids=["3-band", "1-head", "2-head"]
)
def test_run_peak_is_within_the_memory_model(grid, heads, bands, streamed, tmp_path, warm):
    cfg = demo_config(grid, heads, bands, str(tmp_path / "a.f4") if streamed else None)
    assert all(params.mode != "none" for _, params, _ in cfg.entries)
    held, bound = model(grid, cfg.rotary.dim, cfg.normalized["text_tokens"], heads, streamed)
    tracemalloc.start()
    try:
        with _all_or_nothing() as stage:
            result = run_experiment(cfg, stage)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Keep none of the matrices past the case.
    for path in tmp_path.glob("a.*"):
        path.unlink()
    assert (result["entries"][0]["band_attribution"] is None) == (bands is None)
    assert held < peak < bound
