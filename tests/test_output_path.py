"""Every text artifact is written by ``cli``: no other module of
``src/whardy`` opens a file for writing or calls ``write_text``, except the
binary dumpers below, which the benchmark times by name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BINARY_DUMPERS = {"decomp.dump_decomposition", "fields.dump_grid"}


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` is ``open`` in a writing mode, or ``.write_text`` /
    ``.write_bytes``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("write_text", "write_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    # a mode that is not a literal may write, so it counts
    return not isinstance(mode, ast.Constant) or bool(set("wax+") & set(mode.value))


def writers(tree, module: str) -> set:
    """'module.function' of every top-level function or method that writes."""
    out = set()
    for stmt in tree.body:
        defs = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for node in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Call) and _writes(n) for n in ast.walk(node)):
                out.add(f"{module}.{node.name}")
    return out


def test_only_cli_writes_files():
    found = set()
    for path in sorted((ROOT / "src" / "whardy").glob("*.py")):
        if path.stem != "cli":
            found |= writers(ast.parse(path.read_text()), path.stem)
    assert found == BINARY_DUMPERS, sorted(found ^ BINARY_DUMPERS)


def test_writers_sees_every_writing_call():
    tree = ast.parse(
        "def a(p):\n    open(p, 'w')\n"
        "def b(p):\n    open(p, mode='ab')\n"
        "def c(p):\n    p.write_text('x')\n"
        "class K:\n    def d(self, p):\n        open(p, 'r+')\n"
        "def e(p):\n    open(p)\n"
        "def f(p):\n    open(p, 'rb')\n"
        "def g(p):\n    p.read_text()\n"
    )
    assert writers(tree, "m") == {"m.a", "m.b", "m.c", "m.d"}
