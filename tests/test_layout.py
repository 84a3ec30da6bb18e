"""Layout rules of the package that no single module's tests can see.

Code that only the tests use belongs in ``tests/``: every top-level function
and class in ``src/fewvar`` must be named by some other code in
``src/fewvar``, as a name, an attribute or an import.  Docstrings and
comments do not count, and neither does a name inside its own definition.
The package has one product loop: ``mon_mul`` is named only inside
``algebra.multiply_out``.  numpy is a test-only dependency: no module of the
package imports it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fewvar"

# name -> why it stays in the package without a caller there yet
ALLOWED_UNREFERENCED = {
    "depth4_upper_bound": "ROADMAP item 6: the lower-bound command will call it",
    "approx_check": "ROADMAP item 7: the sharp closed form's remainder bound",
}


def referenced_names(node):
    """Every name, attribute and imported name under ``node``, counted."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def test_every_top_level_definition_is_referenced_in_src():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere += referenced_names(tree)
    unreferenced = []
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            defined.add(node.name)
            own = referenced_names(node)[node.name]
            if everywhere[node.name] <= own \
                    and node.name not in ALLOWED_UNREFERENCED:
                unreferenced.append(f"{module}:{node.name}")
    assert unreferenced == []
    assert set(ALLOWED_UNREFERENCED) <= defined


def test_only_multiply_out_multiplies_monomials():
    """One product loop: ``mon_mul`` is named in the package only inside
    ``algebra.multiply_out``, so every product of polynomials goes through
    it."""
    users = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if referenced_names(node)["mon_mul"]:
                name = getattr(node, "name", type(node).__name__)
                users.append(f"{path.stem}.{name}")
    assert users == ["algebra.multiply_out"]


def test_no_module_imports_numpy():
    """The seeded streams are drawn in the standard library (``fewvar.rng``),
    so no module imports numpy, at top level or inside a function."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.append(f"{path.stem}:{node.lineno}")
    assert importers == []
