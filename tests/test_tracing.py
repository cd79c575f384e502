"""The benchmark's per-layer metrics name program functions by string; a
renamed or privatised function would read 0 without an error, so every
name the tracer matches must resolve to a function it wraps."""

import importlib
import inspect
import re
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """bench/tracing.py as a module, from its source text (writes no bytecode)."""
    mod = types.ModuleType("bench_tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def traced_functions(layers):
    """The names ``Tracer.install`` wraps: 'layer.attr' for each public
    function defined in whardy.<layer>."""
    out = set()
    for layer in layers:
        mod = importlib.import_module(f"whardy.{layer}")
        out |= {f"{layer}.{attr}" for attr, fn in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__}
    return out


def test_traced_names_resolve_to_public_functions():
    tracing = load_tracing()
    traced = traced_functions(tracing.LAYERS)
    inclusive = {name for names in tracing.INCLUSIVE.values() if names for name in names}
    assert inclusive and inclusive <= traced, sorted(inclusive - traced)
    hook = inspect.getsource(tracing._count_hook)
    exact = re.findall(r'name == "([\w.]+)"', hook)
    assert len(exact) == hook.count("name ==")
    assert exact and set(exact) <= traced, sorted(set(exact) - traced)
    for prefix, suffix in re.findall(r'name\.startswith\("([\w.]+)"\) and '
                                     r'name\.endswith\("(\w+)"\)', hook):
        assert any(n.startswith(prefix) and n.endswith(suffix) for n in traced), (prefix, suffix)


def test_every_subcommand_has_a_traced_handler():
    """cli runs subcommand <name> through the public cli.cmd_<name>, and the
    benchmark reports cli.<name>_s for each but report: a subcommand added
    without a traced handler would read 0."""
    from whardy import cli
    names = {name.replace("-", "_") for name in cli.COMMANDS}
    assert names - {"report"} == set(load_tracing().SUBCOMMANDS)
    for name in names:
        fn = getattr(cli, f"cmd_{name}", None)
        assert inspect.isfunction(fn) and fn.__module__ == cli.__name__, name
