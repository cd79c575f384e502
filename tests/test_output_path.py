"""Only ``cli`` touches files: every other module of ``src/whardy`` returns
values, and calls no ``open`` and no ``read_*`` or ``write_*`` method."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _file_io(call: ast.Call) -> bool:
    """Whether ``call`` is ``open`` (a function or a method), or a method
    such as ``read_text`` or ``write_bytes``."""
    func = call.func
    name = (func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else "")
    return name == "open" or name.startswith(("read_", "write_"))


def file_users(tree, module: str) -> set:
    """'module.function' of every top-level function or method that calls
    file I/O, and 'module:line' of every other top-level statement that does."""
    out = set()
    for stmt in tree.body:
        defs = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for node in defs:
            if any(isinstance(n, ast.Call) and _file_io(n) for n in ast.walk(node)):
                named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                out.add(f"{module}.{node.name}" if named else f"{module}:{node.lineno}")
    return out


def test_only_cli_touches_files():
    found = set()
    for path in sorted((ROOT / "src" / "whardy").glob("*.py")):
        if path.stem != "cli":
            found |= file_users(ast.parse(path.read_text()), path.stem)
    assert not found, sorted(found)


def test_file_users_sees_every_file_call():
    tree = ast.parse(
        "def a(p):\n    open(p, 'w')\n"
        "def b(p):\n    open(p)\n"
        "def c(p):\n    p.write_text('x')\n"
        "class K:\n    def d(self, p):\n        p.read_bytes()\n"
        "def e(p):\n    p.open('rb')\n"
        "def f(data):\n    return data.split(b'x'), data.reader\n"
        "TEXT = open('x').read()\n"
    )
    assert file_users(tree, "m") == {"m.a", "m.b", "m.c", "m.d", "m.e", "m:14"}
