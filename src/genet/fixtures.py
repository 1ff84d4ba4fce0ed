"""Locate the packaged use-case fixtures (theory XMLs and scenarios)."""

from pathlib import Path

_ROOT = Path(__file__).parent / "data" / "fixtures"


def theory_path(name: str) -> Path:
    """Path to a shipped theory document, e.g. ``trainco-dct``."""
    return _ROOT / "theories" / f"{name}.xml"


def scenario_path(name: str) -> Path:
    """Path to a shipped scenario document, e.g. ``trolley``."""
    return _ROOT / "scenarios" / f"{name}.scenario.json"
