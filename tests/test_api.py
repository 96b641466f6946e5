import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starfree"

# the oracle that the signless-radius tests compare the LAPACK radius against
NO_CALLER_NEEDED = {"signless_laplacian_spectrum"}


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_every_export_has_a_caller():
    # perfbench/tracer.py names its entry points as strings, deleted ones too
    sources = [path for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
               if path.name not in ("__init__.py", "tracer.py")]
    lines = [line for path in sources for line in path.read_text().splitlines()]
    uncalled = []
    for name in _exports():
        used = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(used.search(line) and not definition.match(line) for line in lines):
            uncalled.append(name)
    assert sorted(uncalled) == sorted(NO_CALLER_NEEDED)
