"""Rotary embeddings, frequency-band analysis, and shared-attention experiments.

The public names are those each module lists in its ``__all__``.
"""

from . import attention, bands, diagnostics, errors, rope, synthetic
from .attention import *  # noqa: F403
from .bands import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .errors import *  # noqa: F403
from .rope import *  # noqa: F403
from .synthetic import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (attention, bands, diagnostics, errors, rope, synthetic)
    for name in module.__all__
)
