"""The Python blocks of README.md run as written, so the documented entry
points and error codes cannot go stale."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import genet
import genet.bases, genet.model, genet.scenario, genet.xmlio
from genet.bases import load_registry

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_template_example_is_the_shipped_kantianism(tmp_path):
    """The documented template format cannot drift from the loader."""
    section = README.read_text("utf-8").split("\n## Base template JSON format\n")[1]
    example = re.search(r"^```json\n(.*?)^```$", section.split("\n## ")[0],
                        flags=re.MULTILINE | re.DOTALL)[1]
    shipped = Path(genet.__file__).parent / "data" / "bases" / "Kantianism.json"
    assert json.loads(example) == json.loads(shipped.read_text("utf-8"))
    (tmp_path / "Kantianism.json").write_text(example, "utf-8")
    assert (load_registry(tmp_path).get("Kantianism")
            == load_registry(shipped.parent).get("Kantianism"))


def test_finding_codes_table_lists_every_code():
    """A code constant added without a row, or a row without one, fails."""
    section = README.read_text("utf-8").split("\n## Finding codes\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, flags=re.MULTILINE)
    # Each code's owner is the module that defines it: model, last, overrides the
    # modules that import from it.
    owners = {name: module.__name__.removeprefix("genet.")
              for module in (genet.scenario, genet.bases, genet.xmlio, genet.model)
              for name, value in vars(module).items() if value == name != "AGENT"}
    assert sorted(rows) == sorted(owners.items())
