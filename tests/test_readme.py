"""The README's Python example runs as printed and its comments hold, its
library table names the package's modules, its config block names the
config fields with their defaults, and every name it gives in the package
exists."""

import dataclasses
import importlib
import json
import re
from pathlib import Path

from diffpareto.bias import Scenario
from diffpareto.diffusion import FixedPointResult
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


def package_modules() -> set[str]:
    return {path.stem for path in (ROOT / "src" / "diffpareto").glob("*.py")} - {"__init__"}


def test_readme_library_table_names_exactly_the_modules():
    documented = re.findall(
        r"^\| `diffpareto\.(\w+)` +\|", README.read_text(encoding="utf-8"), re.M
    )
    assert sorted(documented) == sorted(package_modules())


def test_readme_dotted_names_resolve():
    # every backticked dotted name that starts with a package module, Scenario
    # or FixedPointResult, such as `tail.passes` or `Scenario.limit_floor()`,
    # names what the package has; a dataclass field resolves by its name
    roots = {name: importlib.import_module(f"diffpareto.{name}") for name in package_modules()}
    roots.update(Scenario=Scenario, FixedPointResult=FixedPointResult)
    text = README.read_text(encoding="utf-8")
    checked, missing = [], []
    for dotted in re.findall(r"`(?:diffpareto\.)?(\w+(?:\.\w+)+)(?:\([^`]*\))?`", text):
        root, *path = dotted.split(".")
        if root not in roots:
            continue
        target = roots[root]
        for name in path:
            if name in getattr(target, "__dataclass_fields__", {}):
                break
            if not hasattr(target, name):
                missing.append(dotted)
                break
            target = getattr(target, name)
        checked.append(dotted)
    assert missing == []
    assert len(checked) >= 5


def test_readme_config_block_names_exactly_the_fields_with_their_defaults():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    doc = json.loads(re.sub(r"//[^\n]*", "", blocks[0]))
    fields = dataclasses.fields(ExperimentConfig)
    assert list(doc) == [f.name for f in fields]
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    assert {name: doc[name] for name in defaults} == defaults
    ExperimentConfig(**doc)
