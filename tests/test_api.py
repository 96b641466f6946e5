import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starfree"


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _used_names(source: str) -> set[str]:
    """Names that the code loads, bare or as an attribute; docstrings,
    comments and definitions do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_mentions_are_not_uses():
    source = (
        '"""spectral_radius, named in a docstring."""\n'
        "# least_eigenvalue, named in a comment\n"
        "def perron_vector(g):\n"
        '    """adjacency_spectra, named in a function docstring."""\n'
        "    return spectra.adjacency_spectrum(g), edge_count(g)\n"
    )
    wanted = {"spectral_radius", "least_eigenvalue", "perron_vector",
              "adjacency_spectra", "adjacency_spectrum", "edge_count"}
    assert _used_names(source) & wanted == {"adjacency_spectrum", "edge_count"}


def test_every_export_has_a_caller():
    # perfbench/tracer.py names its entry points as strings, deleted ones too
    sources = [path for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
               if path.name not in ("__init__.py", "tracer.py")]
    used = set().union(*(_used_names(path.read_text()) for path in sources))
    assert [name for name in _exports() if name not in used] == []
