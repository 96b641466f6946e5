import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starfree"


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


def _public_definitions() -> list[str]:
    """The top-level functions and classes of the package whose names do not
    start with an underscore, as ``module.name``."""
    return [f"{path.stem}.{node.name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _callers() -> set[str]:
    # perfbench/tracer.py names its entry points as strings, deleted ones too
    sources = [path for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
               if path.name not in ("__init__.py", "tracer.py")]
    return set().union(*(_used_names(path.read_text()) for path in sources))


def _imported_names(source: str) -> list[str]:
    """The names that the module's import statements bind, ``__future__``
    features aside; ``import a.b`` binds ``a``."""
    return [alias.asname or alias.name.split(".")[0]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def test_imports_are_read_from_code():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .graphs import Graph, edges as graph_edges\n"
    )
    assert _imported_names(source) == ["np", "os", "Graph", "graph_edges"]


def test_every_import_is_used():
    # each public name has one import path, its own module: a name that a
    # module imports only to pass it on would be a second one
    unused = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _imported_names(path.read_text())
              if name not in _used_names(path.read_text())]
    assert unused == []


def test_every_public_definition_has_a_caller():
    used = _callers()
    assert [name for name in _public_definitions() if name.split(".")[1] not in used] == []


def _assigned_names(source: str) -> list[str]:
    """The names that the module's top-level assignments bind, private ones
    too; dunder names such as ``__version__`` are left out, since tools read
    them."""
    return [target.id
            for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in ast.walk(node)
            if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
            and not (target.id.startswith("__") and target.id.endswith("__"))]


def test_assignments_are_read_from_code():
    source = (
        '__version__ = "0.1.0"\n'
        "LIMIT = 9\n"
        "_table: dict = {}\n"
        "_table[LIMIT] = 1\n"
        "first, (second, _third) = 1, (2, 3)\n"
        "def f():\n"
        "    inner = 1\n"
    )
    assert _assigned_names(source) == ["LIMIT", "_table", "first", "second", "_third"]


def test_every_module_level_name_has_a_reader():
    used = _callers()
    assert [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in _assigned_names(path.read_text()) if name not in used] == []


#: numpy attributes that numpy 1.24, the oldest numpy that pyproject.toml
#: allows, does not have: the numpy 2.0-2.2 additions, and ``exceptions``
#: and ``dtypes`` from 1.25.  ``bool`` was removed in 1.24 and is back in 2.0.
NUMPY_AFTER_1_24 = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "bool", "concat",
    "cumulative_prod", "cumulative_sum", "dtypes", "exceptions", "isdtype", "long",
    "matrix_transpose", "matvec", "permute_dims", "pow", "strings", "trapezoid", "ulong",
    "unique_all", "unique_counts", "unique_inverse", "unique_values", "unstack", "vecdot",
    "vecmat",
}


def _numpy_names(source: str) -> set[str]:
    """The names that the code reads off ``np`` or ``numpy``, or imports
    from numpy; docstrings and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names.update(alias.name for alias in node.names)
    return names


def test_numpy_names_are_read_from_code():
    source = (
        '"""np.concat, named in a docstring."""\n'
        "# np.unstack, named in a comment\n"
        "from numpy import vecdot\n"
        "x = np.bitwise_count(a).sum() + numpy.pow(2, 3) + a.astype(int)\n"
    )
    assert _numpy_names(source) & NUMPY_AFTER_1_24 == {"vecdot", "bitwise_count", "pow"}


def test_no_numpy_newer_than_the_floor():
    # CI runs the oldest allowed numpy too; a name it lacks fails only there
    found = [f"{path.name}: np.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in sorted(_numpy_names(path.read_text()) & NUMPY_AFTER_1_24)]
    assert found == []
