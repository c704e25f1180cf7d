"""Rotary embeddings, frequency-band analysis, and shared-attention experiments.

The public names are those each module lists in its ``__all__``. The
modules are loaded on first use of a name (PEP 562), so ``import ropefreq``
alone imports no NumPy, and ``ropefreq.cli`` can start NumPy's OpenBLAS
itself (see there).
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("attention", "bands", "diagnostics", "errors", "rope", "synthetic")


def _load() -> None:
    """Bind each module's public names here, and ``__all__`` to their sorted union."""
    modules = [importlib.import_module(f"{__name__}.{name}") for name in _MODULES]
    names = {name: getattr(module, name) for module in modules for name in module.__all__}
    globals().update(names, __all__=sorted(names))


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if "__all__" not in globals():
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
