"""The README's Python example runs as printed and its comments hold, its
library table names the package's modules, and its config block names the
config fields with their defaults."""

import dataclasses
import json
import re
from pathlib import Path

from diffpareto.experiment import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_example_runs_and_its_claims_hold(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    converged, iterations = lines[0].split()
    assert converged == "True" and int(iterations) > 0
    assert lines[1] == "True"  # Assumption 3 holds
    assert abs(float(lines[2])) <= 1e-12  # the limit bias is about zero


def test_readme_library_table_names_exactly_the_modules():
    documented = re.findall(
        r"^\| `diffpareto\.(\w+)` +\|", README.read_text(encoding="utf-8"), re.M
    )
    modules = {path.stem for path in (ROOT / "src" / "diffpareto").glob("*.py")} - {"__init__"}
    assert sorted(documented) == sorted(modules)


def test_readme_config_block_names_exactly_the_fields_with_their_defaults():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    doc = json.loads(re.sub(r"//[^\n]*", "", blocks[0]))
    fields = dataclasses.fields(ExperimentConfig)
    assert list(doc) == [f.name for f in fields]
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    assert {name: doc[name] for name in defaults} == defaults
    ExperimentConfig(**doc)
