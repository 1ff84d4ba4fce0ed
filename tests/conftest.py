from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from genet.bases import load_registry
from genet.fixtures import scenario_path, theory_path
from genet.scenario import load_scenario
from genet.xmlio import parse_theory

THEORY_NAMES = [
    "trainco-dct", "trainco-utilitarianism", "trainco-egoism", "trainco-kantianism",
    "mia-egoism", "mia-utilitarianism", "mia-kantianism", "mia-dct",
    "doe-utilitarianism", "doe-egoism", "doe-dct", "doe-kantianism",
]
VERBATIM_THEORIES = ["trainco-dct", "mia-egoism", "mia-kantianism",
                     "doe-utilitarianism"]
SCENARIO_NAMES = ["trolley", "mia", "marijuana"]

CASE_THEORIES = {
    "trolley": ["trainco-utilitarianism", "trainco-egoism", "trainco-dct",
                "trainco-kantianism"],
    "mia": ["mia-utilitarianism", "mia-egoism", "mia-dct", "mia-kantianism"],
    "marijuana": ["doe-utilitarianism", "doe-egoism", "doe-dct",
                  "doe-kantianism"],
}


@pytest.fixture(scope="session")
def registry():
    return load_registry()


def theory_bytes(name: str) -> bytes:
    return theory_path(name).read_bytes()


def scenario_bytes(name: str) -> bytes:
    return scenario_path(name).read_bytes()


@pytest.fixture(scope="session")
def theories():
    return {name: parse_theory(theory_bytes(name)) for name in THEORY_NAMES}


@pytest.fixture(scope="session")
def scenarios():
    return {name: load_scenario(scenario_bytes(name)) for name in SCENARIO_NAMES}


def load_synth():
    """The benchmark's generator of synthetic theory and scenario documents."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "synth.py"
    spec = importlib.util.spec_from_file_location("genet_bench_synth", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks itself up in sys.modules
    return module
