"""numpy is the package's only numerical dependency: every module imports
numpy, the standard library or the package itself, and nothing else."""

import ast
import sys
from pathlib import Path

import pytest

import diffpareto

ALLOWED = {"numpy"} | set(sys.stdlib_module_names)
MODULES = sorted(Path(diffpareto.__file__).parent.glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """The absolute imports of ``source`` outside ALLOWED, by full name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_the_check_finds_a_foreign_import_in_any_form():
    source = "import scipy.linalg\nfrom scipy import sparse\nif True:\n    import numba as nb\n"
    assert foreign_imports(source) == ["scipy.linalg", "scipy", "numba"]
    assert foreign_imports("import numpy as np\nimport math\nfrom .tail import passes\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
