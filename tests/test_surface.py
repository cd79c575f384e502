"""Every public top-level function or class of the package is in use: some
other definition of ``src/whardy`` refers to it in code (a docstring does
not count), or ``bench/*.py`` does, by identifier or by a traced
``"module.name"`` string, or it is the ``cli.cmd_<name>`` handler of a row
of ``cli.COMMANDS``. The library entries kept for studies are named
below, each with its reason, so helpers that only tests call do not grow
back."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT_FOR_STUDIES = {
    "hardy.a_chain": "the chain form of the Hardy criterion, an oracle for chain studies",
    "hardy.a_tree_min": "the tree constant of one weight minimised over theta, outside a sweep",
    "treecover.build_cube_chain": "the chain covering of a partitioned cube, the paper's example",
    "treecover.synthetic_tree": "trees without geometry, for chain and tree Hardy studies",
    "dimension.covering_number": "covering and packing counts of one target at one radius",
    "dimension.inverse_reciprocal_set": "the {0} u {1/k} set that calibrates dimension estimates",
    "whitney.decomposition_from_json": "reads whitney.json back, for `report` to aggregate",
    "geometry.domain_to_json": "writes a domain, the pair of domain_from_json",
    "geometry.domain_from_json": "reads a domain back, for `report` to aggregate",
    "fields.load_grid": "reads a dumped grid back, for `report` to aggregate",
}


def docstring_nodes(tree):
    """The string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def module_aliases(tree):
    """Names a file binds to modules of the package."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in (None, "whardy")
            for alias in node.names}


def identifiers(node, modules):
    """Names read in ``node``: bare names, and attributes of a module alias
    (``geometry.make_domain``; not a field such as ``report.a_tree_min``)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in modules):
            out.add(n.attr)
    return out


def package_surface():
    """(the public top-level definitions as 'module.name', the names that
    some top-level statement other than their own definition reads)."""
    defs, uses = set(), set()
    for path in sorted((ROOT / "src" / "whardy").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = module_aliases(tree)
        for stmt in tree.body:
            names = identifiers(stmt, modules)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    defs.add(f"{path.stem}.{stmt.name}")
                names.discard(stmt.name)  # recursion is not a use
            uses |= names
    return defs, uses


def bench_references():
    """Identifiers and 'module.name' strings in the benchmark's code."""
    out = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        docs = docstring_nodes(tree)
        out |= identifiers(tree, module_aliases(tree))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docs):
                out |= set(re.findall(r"\b\w+\.(\w+)\b", node.value))
    return out


def dispatched_handlers():
    """The handlers ``cli.build_parser`` looks up by name: cmd_<name> for
    each subcommand <name> of ``cli.COMMANDS``, ``-`` read as ``_``."""
    from whardy import cli
    return {f"cmd_{name.replace('-', '_')}" for name in cli.COMMANDS}


def test_every_public_definition_is_used():
    defs, uses = package_surface()
    used = uses | bench_references() | dispatched_handlers()
    unused = sorted(key for key in defs if key.split(".")[1] not in used)
    assert unused == sorted(KEPT_FOR_STUDIES), sorted(set(unused) ^ set(KEPT_FOR_STUDIES))


def test_docstrings_do_not_count_as_use():
    tree = ast.parse('def f():\n    """Calls g."""\n    return 1\n\n\ndef g():\n    pass\n')
    assert "g" not in identifiers(tree.body[0], set())
    assert len(docstring_nodes(tree)) == 1


def test_fields_and_foreign_attributes_do_not_count_as_use():
    tree = ast.parse("from . import hardy\nx = rep.a_tree_min + hardy.a_tree\n")
    assert identifiers(tree, module_aliases(tree)) == {"rep", "hardy", "a_tree"}
