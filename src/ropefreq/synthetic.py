"""Deterministic generators for token grids with planted correspondences.

Features are isotropic unit vectors; a "semantic match" between a target and
a reference token simply means high cosine similarity by construction. A
planted scene permutes the target's feature vectors onto a reference grid
(optionally with noise), so every target token has exactly one
semantically-matching reference token at a known, generally different, grid
position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import _ROWS_BYTES, TokenSet, grid_positions
from .errors import ConfigurationError

__all__ = ["PlantedScene", "make_grid", "make_text", "plant_scene"]


def _check_scene(
    width: int, height: int, dim: int, style_strength: float = 0.0,
    kind: str = "identity", noise_level: float = 0.0, shift: int = 0,
) -> None:
    """Raise :class:`ConfigurationError` unless the scene builders accept these parameters."""
    if width <= 0 or height <= 0 or dim <= 0:
        raise ConfigurationError(f"grid dimensions must be positive, got {width}x{height}, dim={dim}")
    if not 0.0 <= style_strength < 1.0:
        raise ConfigurationError(f"style_strength must lie in [0, 1), got {style_strength}")
    if noise_level < 0:
        raise ConfigurationError(f"noise_level must be nonnegative, got {noise_level}")
    if kind not in ("identity", "shuffle", "shift"):
        raise ConfigurationError(f"kind must be identity, shuffle or shift, got {kind!r}")
    n = width * height
    if kind == "shift" and not -n < shift < n:
        raise ConfigurationError(f"shift must satisfy |shift| < {n}, got {shift}")


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """``x /= np.linalg.norm(x, axis=1, keepdims=True)`` bit for bit, a block of rows at a time."""
    step = max(1, _ROWS_BYTES // (8 * x.shape[1]))
    for lo in range(0, len(x), step):
        block = x[lo : lo + step]
        block /= np.sqrt(np.add.reduce(block * block, axis=1, keepdims=True))
    return x


def make_grid(
    width: int, height: int, dim: int, seed: int, style_strength: float = 0.0
) -> TokenSet:
    """Image token set over a width-by-height grid with unit-norm features.

    With ``style_strength = 0`` the rows are independent isotropic unit
    vectors. A positive value mixes every row with one shared unit direction
    (weight ``style_strength``, residual weight ``sqrt(1 - style_strength**2)``
    before renormalization), so distinct tokens have expected cosine
    similarity about ``style_strength**2``. That models the globally
    correlated statistics of real feature maps, which is the regime where
    positionally aligned keys can outcompete semantic matches.
    """
    _check_scene(width, height, dim, style_strength)
    rng = np.random.default_rng(seed)
    if style_strength > 0.0:
        style = rng.standard_normal(dim)
        style /= np.linalg.norm(style)
    feats = _normalize_rows(rng.standard_normal((width * height, dim)))
    if style_strength > 0.0:
        feats *= np.sqrt(1.0 - style_strength**2)
        feats += style_strength * style
        _normalize_rows(feats)
    return TokenSet(
        features=feats,
        positions=grid_positions(width, height),
        modality="image",
        grid_shape=(width, height),
    )


def make_text(n_tokens: int, dim: int, seed: int) -> TokenSet:
    """Text token set: unit-norm features, every position (0, 0)."""
    if n_tokens < 0 or dim <= 0:
        raise ConfigurationError(f"invalid text set size {n_tokens}, dim={dim}")
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n_tokens, dim))
    _normalize_rows(feats)
    return TokenSet(
        features=feats,
        positions=np.zeros((n_tokens, 2), dtype=np.int64),
        modality="text",
    )


@dataclass(frozen=True)
class PlantedScene:
    """Target/reference grid pair with a known semantic correspondence.

    ``correspondence[i]`` is the reference index whose feature was built from
    target token ``i``: ``reference[correspondence[i]] ~= target[i]`` up to
    the planted noise.
    """

    target: TokenSet
    reference: TokenSet
    correspondence: np.ndarray
    noise_level: float
    seed: int

    def __post_init__(self) -> None:
        corr = np.asarray(self.correspondence, dtype=np.int64)
        n = self.target.n_tokens
        if sorted(corr.tolist()) != list(range(n)):
            raise ConfigurationError("correspondence must be a permutation of token indices")
        object.__setattr__(self, "correspondence", corr)


def plant_scene(
    base: TokenSet,
    kind: str = "shuffle",
    noise_level: float = 0.1,
    seed: int = 0,
    shift: int = 0,
) -> PlantedScene:
    """Build a reference grid by permuting ``base``'s features.

    ``kind`` selects the correspondence: "identity", "shuffle" (seeded random
    permutation), or "shift" (``correspondence[i] = (i + shift) mod n``, with
    ``|shift| < n``). Isotropic gaussian noise whose vector norm is about
    ``noise_level`` (per-component std ``noise_level/sqrt(dim)``) is added
    before renormalization, so matched pairs keep cosine similarity around
    ``1/sqrt(1 + noise_level**2)``. With zero noise the permuted features are
    copied bit-exactly.
    """
    if base.modality != "image" or base.grid_shape is None:
        raise ConfigurationError("plant_scene needs an image token set with a grid shape")
    _check_scene(*base.grid_shape, base.dim, kind=kind, noise_level=noise_level, shift=shift)
    n = base.n_tokens
    rng = np.random.default_rng(seed)
    if kind == "identity":
        corr = np.arange(n, dtype=np.int64)
    elif kind == "shuffle":
        corr = rng.permutation(n).astype(np.int64)
    else:
        corr = (np.arange(n, dtype=np.int64) + shift) % n

    ref_feats = np.empty_like(base.features)
    if noise_level == 0:
        ref_feats[corr] = base.features
    else:
        # A block of noisy rows at a time: the generator draws the same values in blocks.
        sigma, step = noise_level / np.sqrt(base.dim), max(1, _ROWS_BYTES // (8 * base.dim))
        for lo in range(0, n, step):
            noisy = rng.standard_normal((min(step, n - lo), base.dim))
            noisy *= sigma
            noisy += base.features[lo : lo + step]
            ref_feats[corr[lo : lo + step]] = _normalize_rows(noisy)
    reference = TokenSet(
        features=ref_feats,
        positions=base.positions.copy(),
        modality="image",
        grid_shape=base.grid_shape,
    )
    return PlantedScene(
        target=base,
        reference=reference,
        correspondence=corr,
        noise_level=noise_level,
        seed=seed,
    )
