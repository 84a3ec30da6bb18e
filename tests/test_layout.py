"""Layout rules of the package that no single module's tests can see.

Code that only the tests use belongs in ``tests/``: every top-level function
and class in ``src/fewvar`` must be named by some other code in
``src/fewvar``, as a name or an attribute.  Docstrings and comments do not
count, and neither does a name inside its own definition.  An import from
the package counts only where the importing module uses the name or lists
it in ``__all__``, so a stale import keeps no dead function alive; every
other import from the package is listed with a reason.
Likewise every field of a record or value class is read as an attribute
in the package.
The package has one product loop: ``mon_mul`` is named only inside
``algebra.multiply_out``; and one circuit evaluator: the compiled
``integer_form`` is read only by ``circuit.eval_circuit``; and one graph
construction: ``univariate_graph`` is named only by the NW column table and
the design's set accessor.  numpy is a test-only dependency: no module of
the package imports it; nor does any import ``dataclasses``, which compiles
methods when the CLI starts.  Each private constructor, which skips the public
constructor's checks, is called only by the builders listed for it, whose
inputs are already checked.
"""

import pytest

import ast
import importlib
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fewvar"

# name -> why it stays in the package without a caller there yet
ALLOWED_UNREFERENCED = {
    "depth4_upper_bound": "ROADMAP item 6: the lower-bound command will call it",
    "approx_check": "ROADMAP item 7: the sharp closed form's remainder bound",
}


# module.name -> why the module imports a name from the package it does not use
ALLOWED_UNUSED_IMPORTS = {
    "measure.derivative_poly": "perfbench/spans.py times derivatives by "
                               "patching this name, and "
                               "test_tracer_restores_every_function installs "
                               "that patch; ROADMAP item 8 drops the span",
}


def referenced_names(node):
    """Every name and attribute under ``node``, counted."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def package_imports(module, tree):
    """``(module.bound_name, imported_name, used)`` for each name ``module``
    imports from the package, by a relative import or one from ``fewvar``;
    ``used`` when the module names it or lists it in ``__all__``."""
    names = Counter(sub.id for sub in ast.walk(tree)
                    if isinstance(sub, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fewvar"):
            for alias in node.names:
                bound = alias.asname or alias.name
                yield f"{module}.{bound}", alias.name, bool(names[bound])


def test_every_package_import_is_used():
    """A name imported from the package that the module never uses is a
    stale import, which would keep a dead definition referenced."""
    unused = [bound for path in sorted(SRC.glob("*.py"))
              for bound, _, used in package_imports(path.stem,
                                                    ast.parse(path.read_text()))
              if not used]
    assert sorted(unused) == sorted(ALLOWED_UNUSED_IMPORTS)


def test_every_top_level_definition_is_referenced_in_src():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    everywhere = Counter()
    for module, tree in trees.items():
        everywhere += referenced_names(tree)
        for bound, name, used in package_imports(Path(module).stem, tree):
            if used or bound in ALLOWED_UNUSED_IMPORTS:
                everywhere[name] += 1
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


# record or value field -> why it stays though nothing in the package reads it
ALLOWED_UNREAD_FIELDS = {
    "Blackbox.notes": "perfbench/spans.py names the box's span by it",
}


def class_fields():
    """``Class.field`` for each name in the ``_fields`` of each class the
    package defines: a ``typing.NamedTuple`` record's fields, or the
    fields that a class built on ``algebra.Value`` compares by.  The
    package modules are imported, all but ``__init__`` and ``__main__``,
    which define no class."""
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"fewvar.{path.stem}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield from (f"{name}.{f}" for f in getattr(obj, "_fields", ()))


def test_every_record_field_is_read_in_src():
    """A field that nothing reads is a report line or a setting that
    nothing uses: every field of a record or value class in the package
    is read as an attribute somewhere in the package, matched by name
    alone, or is listed with a reason."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    read = {sub.attr for tree in trees for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    fields = list(class_fields())
    unread = [f for f in fields if f.split(".")[1] not in read
              and f not in ALLOWED_UNREAD_FIELDS]
    assert unread == []
    assert set(ALLOWED_UNREAD_FIELDS) <= set(fields)


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


def test_only_eval_circuit_reads_the_compiled_circuit():
    """One circuit evaluator: ``integer_form`` is named in the package only
    where ``FewVarCircuit`` defines it and inside ``circuit.eval_circuit``,
    so every evaluation of a circuit at a point goes through it."""
    users, definitions = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = f"{path.stem}.{getattr(node, 'name', type(node).__name__)}"
            if referenced_names(node)["integer_form"]:
                users.append(name)
            definitions += [name for sub in ast.walk(node)
                            if isinstance(sub, ast.FunctionDef)
                            and sub.name == "integer_form"]
    assert users == ["circuit.eval_circuit"]
    assert definitions == ["circuit.FewVarCircuit"]


# private constructor -> the functions and methods that may call it
PRIVATE_CONSTRUCTOR_CALLERS = {
    "_poly": [
        "algebra.SparsePolynomial.__post_init__",
        "algebra.SparsePolynomial.__add__",
        "algebra.SparsePolynomial.__neg__",
        "algebra.SparsePolynomial.__mul__",
        "algebra.SparsePolynomial.scale",
        "algebra.hom_component",
        "algebra.translate_poly",
        "algebra.derivative_poly",
        "algebra.substitute",
        "algebra.scale_all_vars",
        "algebra.coeffs_in_var",
        "algebra.parse_poly_lines",
        "circuit.expand_circuit",
        "circuit._substitute_factor",
        "circuit.derivative_circuit",
        "circuit.homogenize",
    ],
    "_factor": [
        "circuit._substitute_factor",
        "circuit.derivative_circuit",
        "circuit.hom_component_circuit",
        "circuit.translate_circuit",
        "circuit.normalize_constants",
    ],
    "_circuit": [
        "circuit.FewVarCircuit.__init__",
        "circuit._rewrite",
        "circuit._interpolate",
        "circuit.coeff_circuits",
        "circuit.derivative_circuit",
        "circuit.hom_component_circuit",
        "circuit.parse_circuit",
        "circuit.random_circuit",
    ],
}


def code_units(path):
    """Each top-level function, each method of a top-level class, and each
    other statement of a module or class body, by qualified name; imports
    are left out, since they call nothing."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                name = sub.name if isinstance(sub, ast.FunctionDef) \
                    else type(sub).__name__
                yield f"{path.stem}.{node.name}.{name}", sub
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            yield f"{path.stem}.{getattr(node, 'name', type(node).__name__)}", node


@pytest.mark.parametrize("constructor", sorted(PRIVATE_CONSTRUCTOR_CALLERS))
def test_only_listed_builders_call_a_private_constructor(constructor):
    """A private constructor only normalizes, so only builders whose inputs
    are already checked call it; any other caller goes through the public
    constructor and its checks."""
    users = [name for path in sorted(SRC.glob("*.py"))
             for name, node in code_units(path)
             if referenced_names(node)[constructor]]
    assert sorted(users) == sorted(PRIVATE_CONSTRUCTOR_CALLERS[constructor])


def test_only_the_column_table_and_the_design_build_graphs():
    """One graph construction: ``univariate_graph`` is named in the package
    only by ``NWInstance.columns`` and the design's set accessor, so the NW
    family and the hitting set's design read the same graphs."""
    users = [name for path in sorted(SRC.glob("*.py"))
             for name, node in code_units(path)
             if referenced_names(node)["univariate_graph"]]
    assert users == ["nw.NWInstance.columns", "pit.Design.__getitem__"]


def importers(top):
    """``module:line`` of each import of ``top`` or its submodules in the
    package, at top level or inside a function."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == top for m in modules):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_module_imports_numpy():
    """The seeded streams are drawn in the standard library (``fewvar.rng``),
    so no module imports numpy, at top level or inside a function."""
    assert importers("numpy") == []


def test_no_module_imports_dataclasses():
    """``dataclasses`` compiles each class's methods when the module loads
    and imports ``inspect``, a fixed cost of every CLI run; the package's
    records are ``typing.NamedTuple``s and its other classes are plain."""
    assert importers("dataclasses") == []
