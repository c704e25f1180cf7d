"""The README's library map lists exactly each module's public names."""

import importlib
import pkgutil
import re
from pathlib import Path

import ropefreq

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def top_level(cell: str) -> str:
    """``cell`` without its parenthesized remarks (nested ones included)."""
    kept, depth = [], 0
    for ch in cell:
        depth += ch == "("
        if depth == 0:
            kept.append(ch)
        depth -= ch == ")" and depth > 0
    return "".join(kept)


def test_library_map_lists_each_module_all():
    section = README.split("## Library map", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = re.fullmatch(r"\| `(ropefreq\.\w+)` \| (.*) \|", line)
        if match:
            rows[match[1]] = re.findall(r"`(\w+)`", top_level(match[2]))
    modules = [m.name for m in pkgutil.iter_modules(ropefreq.__path__) if m.name != "__main__"]
    assert sorted(rows) == sorted(f"ropefreq.{name}" for name in modules)
    for module, names in rows.items():
        assert sorted(names) == sorted(importlib.import_module(module).__all__), module
