"""Span tracing of whardy's public functions, installed from outside the program.

``Tracer.install`` wraps every public function of each pipeline module and
rebinds every module-level name that refers to one, so calls through
``from .x import f`` bindings are traced too. A span is (name, start, end,
parent span index); spans and counters stay in memory until ``write_spans``.
``layer_metrics`` turns the spans and counters of one traced pass into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("geometry", "whitney", "treecover", "hardy", "dimension", "fields",
          "decomp", "inequalities", "divergence", "cli")

# cli.cmd_<name> -> cli.<name>_s, in the order they are reported
SUBCOMMANDS = ("whitney", "tree", "hardy", "decompose", "divergence", "dimension",
               "fefferman_stein", "korn", "poincare", "frac_poincare")

# (metric, unit, better), in report order; times are seconds per traced pass
PER_LAYER = [
    ("geometry.s", "s", "lower"),
    ("geometry.points", "count", "lower"),
    ("geometry.boxes", "count", "lower"),
    ("whitney.decompose_s", "s", "lower"),
    ("whitney.box_dist_s", "s", "lower"),
    ("whitney.cubes_tested", "count", "lower"),
    ("whitney.cubes", "count", "lower"),
    ("whitney.accept_ratio", "ratio", "higher"),
    ("whitney.builds", "count", "lower"),
    ("whitney.json_s", "s", "lower"),
    ("whitney.self_s", "s", "lower"),
    ("treecover.build_s", "s", "lower"),
    ("treecover.builds", "count", "lower"),
    ("treecover.nodes", "count", "lower"),
    ("treecover.stats_s", "s", "lower"),
    ("treecover.json_s", "s", "lower"),
    ("treecover.shrunk_boxes", "count", "lower"),
    ("treecover.self_s", "s", "lower"),
    ("hardy.a_tree_s", "s", "lower"),
    ("hardy.a_tree_calls", "count", "lower"),
    ("hardy.node_evals", "count", "lower"),
    ("hardy.sweep_s", "s", "lower"),
    ("hardy.self_s", "s", "lower"),
    ("decomp.grid_s", "s", "lower"),
    ("decomp.assign_s", "s", "lower"),
    ("decomp.decompose_s", "s", "lower"),
    ("decomp.ratio_s", "s", "lower"),
    ("decomp.dump_s", "s", "lower"),
    ("decomp.nodes", "count", "lower"),
    ("decomp.self_s", "s", "lower"),
    ("divergence.local_solve_s", "s", "lower"),
    ("divergence.local_solves", "count", "lower"),
    ("divergence.patch_cells", "count", "lower"),
    ("divergence.assembly_s", "s", "lower"),
    ("divergence.builds_per_solve", "builds/call", "lower"),
    ("divergence.self_s", "s", "lower"),
    ("fields.grid_s", "s", "lower"),
    ("fields.grids", "count", "lower"),
    ("fields.cells", "count", "lower"),
    ("fields.quadrature_s", "s", "lower"),
    ("fields.gradient_s", "s", "lower"),
    ("fields.dump_s", "s", "lower"),
    ("fields.self_s", "s", "lower"),
    ("dimension.box_s", "s", "lower"),
    ("dimension.assouad_s", "s", "lower"),
    ("dimension.points", "count", "lower"),
    ("dimension.self_s", "s", "lower"),
    ("inequalities.sharp_maximal_s", "s", "lower"),
    ("inequalities.fractional_s", "s", "lower"),
    ("inequalities.korn_s", "s", "lower"),
    ("inequalities.poincare_s", "s", "lower"),
    ("inequalities.reports", "count", "lower"),
    ("inequalities.self_s", "s", "lower"),
    *[(f"cli.{name}_s", "s", "lower") for name in SUBCOMMANDS],
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# metric -> traced function names whose outermost spans it sums
INCLUSIVE = {
    "geometry.s": None,  # every geometry span: geometry calls no other layer
    "whitney.decompose_s": ("whitney.whitney_decompose",),
    "whitney.box_dist_s": ("whitney.boxes_boundary_dist_sq",),
    "whitney.json_s": ("whitney.decomposition_to_json",),
    "treecover.build_s": ("treecover.build_tree",),
    "treecover.stats_s": ("treecover.shadow_stats", "treecover.verify_shadow_lemma"),
    "treecover.json_s": ("treecover.tree_to_json",),
    "hardy.a_tree_s": ("hardy.a_tree",),
    "hardy.sweep_s": ("hardy.beta_sweep",),
    "decomp.grid_s": ("decomp.decomposition_grid",),
    "decomp.assign_s": ("decomp.assign_cells",),
    "decomp.decompose_s": ("decomp.c_decompose",),
    "decomp.ratio_s": ("decomp.decomposition_ratio",),
    "decomp.dump_s": ("decomp.dump_decomposition",),
    "divergence.local_solve_s": ("divergence.local_div_solve",),
    "fields.grid_s": ("fields.make_grid",),
    "fields.quadrature_s": ("fields.weighted_lp_norm", "fields.weighted_integral",
                            "fields.weighted_mean_zero"),
    "fields.gradient_s": ("fields.gradient",),
    "fields.dump_s": ("fields.dump_grid",),
    "dimension.box_s": ("dimension.box_dimension",),
    "dimension.assouad_s": ("dimension.assouad_dimension",),
    "inequalities.sharp_maximal_s": ("inequalities.sharp_maximal",),
    "inequalities.fractional_s": ("inequalities.fractional_poincare_ratio",),
    "inequalities.korn_s": ("inequalities.korn_ratio",),
    "inequalities.poincare_s": ("inequalities.improved_poincare_ratio",),
    **{f"cli.{name}_s": (f"cli.cmd_{name}",) for name in SUBCOMMANDS},
}


def shrunk_box_count(tree) -> int:
    """Transfer boxes whose extent differs from the analytic face box.

    The face box is half the shared face along it and 1/16 of the face
    across it: 16 x 2 face-length units in the (finest side)/32 lattice.
    """
    dec = tree.decomposition
    if dec is None or tree.boxes32 is None:
        return 0
    L = int(dec.levels.max())
    lo, hi = dec.spans(L)
    shrunk = 0
    for t, box in enumerate(tree.boxes32):
        p = int(tree.parent[t])
        if box is None or p < 0:
            continue
        face = [min(int(hi[t][k]), int(hi[p][k])) - max(int(lo[t][k]), int(lo[p][k]))
                for k in range(2)]
        length = max(face)
        ext = sorted(box[1][k] - box[0][k] for k in range(2))
        if ext != [2 * length, 16 * length]:
            shrunk += 1
    return shrunk


def _count_hook(name, args, result, counts):
    if name == "whitney.whitney_decompose":
        counts["whitney.builds"] += 1
        counts["whitney.cubes"] += len(result)
    elif name == "whitney.boxes_boundary_dist_sq":
        counts["whitney.cubes_tested"] += len(args[1])
    elif name == "treecover.build_tree":
        counts["treecover.builds"] += 1
        counts["treecover.nodes"] += len(result)
        counts["treecover.shrunk_boxes"] += shrunk_box_count(result)
    elif name == "hardy.a_tree":
        counts["hardy.a_tree_calls"] += 1
        counts["hardy.node_evals"] += len(args[0])
    elif name == "decomp.c_decompose":
        counts["decomp.nodes"] += len(args[0])
    elif name == "divergence.local_div_solve":
        counts["divergence.local_solves"] += 1
        counts["divergence.patch_cells"] += len(args[0])
    elif name == "fields.make_grid":
        counts["fields.grids"] += 1
        counts["fields.cells"] += result.dims[0] * result.dims[1]
    elif name == "geometry.boundary_distances":
        counts["geometry.points"] += len(result)
    elif name == "geometry.boxes_inside_domain":
        counts["geometry.boxes"] += len(result)
    elif name == "dimension.boundary_target":
        counts["dimension.points"] += len(result.points)
    elif name.startswith("inequalities.") and name.endswith("_ratio"):
        counts["inequalities.reports"] += 1


class Tracer:
    """Records spans of whardy's public functions while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._rebound: list = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            _count_hook(name, args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"whardy.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._rebound.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def write_spans(path, tracers) -> None:
    """Write the spans of every traced pass, one JSON object per line."""
    with open(path, "w") as fh:
        for k, tracer in enumerate(tracers):
            for i, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(json.dumps({"pass": k, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the time its child spans cover.

    Children of one span run one after another (single thread), so their
    durations add without overlap.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost(spans, names) -> float:
    """Summed duration of spans named in ``names`` with no ancestor in ``names``."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        anc = parent
        while anc >= 0 and spans[anc][0] not in names:
            anc = spans[anc][3]
        if anc < 0:
            total += end - start
    return total


def layer_metrics(spans, counts) -> dict:
    """Per-layer figures of one traced pass (spans and counts of that pass only)."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    layer_of = [name.split(".", 1)[0] for name, _, _, _ in spans]
    own = self_times(spans)
    for layer, t in zip(layer_of, own):
        key = "geometry.s" if layer == "geometry" else f"{layer}.self_s"
        out[key] += t
    for metric, names in INCLUSIVE.items():
        if names is not None:
            out[metric] = _outermost(spans, set(names))
    out["divergence.assembly_s"] = sum(
        t for (name, *_), t in zip(spans, own) if name == "divergence.solve_divergence")
    for key in ("whitney.cubes_tested", "whitney.cubes", "whitney.builds",
                "treecover.builds", "treecover.nodes", "treecover.shrunk_boxes",
                "hardy.a_tree_calls", "hardy.node_evals", "decomp.nodes",
                "divergence.local_solves", "divergence.patch_cells", "fields.grids",
                "fields.cells", "geometry.points", "geometry.boxes", "dimension.points",
                "inequalities.reports"):
        out[key] = counts[key]
    if counts["whitney.cubes_tested"]:
        out["whitney.accept_ratio"] = counts["whitney.cubes"] / counts["whitney.cubes_tested"]
    # tree builds made while a divergence subcommand runs, per such call
    div_calls = [i for i, s in enumerate(spans) if s[0] == "cli.cmd_divergence"]
    if div_calls:
        inside = set(div_calls)
        builds = 0
        for name, _, _, parent in spans:
            if name != "treecover.build_tree":
                continue
            anc = parent
            while anc >= 0 and anc not in inside:
                anc = spans[anc][3]
            builds += anc >= 0
        out["divergence.builds_per_solve"] = builds / len(div_calls)
    return out
