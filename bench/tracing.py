"""Span tracing of gproximity from outside the package.

``install`` wraps the public functions of the package modules, plus
``EdgeScanner.blocks`` and ``CyclicMap.__call__``, in place: every module
namespace (and module-level dict) that holds the original function object
gets the wrapper, so calls through re-exported names are seen too.
``uninstall`` puts the originals back.  A name that the package no longer
has is reported as absent and its metrics read 0.

Each span records name, start, end and parent span id.  A span's self time
is its duration minus the part its child spans cover; a layer's self time
is the sum over its spans, the layer being the span name up to the first
dot.  The high-frequency leaves (map calls and ``contains_edge``) are
timed and counted but not stored one by one.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

SPAN, LEAF, GEN, PEAK = "span", "leaf", "gen", "peak"

LAYERS = ("cli", "instances", "metric", "graph", "maps", "scan",
          "operators", "solver", "analysis")

BUILDERS = ("interval_example", "ellipse_example", "segments_example",
            "affine_segments_pair", "random_instance", "contraction_instance",
            "reflection_instance", "identity_pair_instance")

OPERATORS = ("min_contraction_factor", "is_edge_nonexpansive", "is_g_contraction",
             "validate_cyclic", "validate_pair", "pair_preserves_edges",
             "is_crr_2map", "crr_params_feasible", "is_crr_moh")

SOLVERS = ("find_proximity_point", "picard_orbit", "epsilon_fixed_point",
           "two_map_parallel", "two_map_alternating", "crr_iteration_bound",
           "is_gt_minimizing")

ANALYSIS = ("enumerate_proximity_set", "enumerate_pair_set", "pair_diameter",
            "proximity_diameter", "minimizer_report", "contraction_diam_bound",
            "two_map_diam_bound")

# (span name, module, attribute path, mode)
SPEC = (
    [("cli.main", "gproximity.cli", "main", SPAN)]
    + [(f"instances.{f}", "gproximity.instances", f, SPAN)
       for f in ("loads", "dumps", "load_instance", "save_instance")]
    + [(f"instances.build.{f}", "gproximity.instances", f, SPAN) for f in BUILDERS]
    + [("metric.validate_metric", "gproximity.metric", "validate_metric", PEAK)]
    + [(f"metric.{f}", "gproximity.metric", f, SPAN)
       for f in ("validate_sets", "pair_distance", "set_diameter")]
    + [("graph.validate_graph", "gproximity.graph", "validate_graph", SPAN),
       ("graph.preserves_edges", "gproximity.graph", "preserves_edges", SPAN),
       ("graph.contains_edge", "gproximity.graph", "contains_edge", LEAF),
       ("maps.CyclicMap.__call__", "gproximity.maps", "CyclicMap.__call__", LEAF),
       ("scan.EdgeScanner.__init__", "gproximity._scan", "EdgeScanner.__init__", SPAN),
       ("scan.EdgeScanner.blocks", "gproximity._scan", "EdgeScanner.blocks", GEN)]
    + [(f"scan.{f}", "gproximity._scan", f, SPAN)
       for f in ("fold_max", "cross_dists", "elem_dists", "point_array")]
    + [(f"operators.{f}", "gproximity.operators", f, SPAN) for f in OPERATORS]
    + [(f"solver.{f}", "gproximity.solver", f, SPAN) for f in SOLVERS]
    + [(f"analysis.{f}", "gproximity.analysis", f, SPAN) for f in ANALYSIS]
)


class Tracer:
    """In-memory spans with online self-time accounting."""

    def __init__(self):
        self.spans = []                 # (id, name, start, end, parent id)
        self.stack = []                 # [name, start, child seconds, id]
        self.next_id = 0
        self.self_s = defaultdict(float)  # layer -> seconds
        self.incl_s = defaultdict(float)  # name -> seconds, outermost calls
        self.calls = Counter()
        self.depth = Counter()
        self.counts = Counter()
        self.peak_mb = defaultdict(float)
        self.leaves = {}                # name -> [seconds, calls]

    def close(self):
        """Fold the leaf timings into the layer totals."""
        for name, (seconds, calls) in self.leaves.items():
            self.self_s[name.split(".", 1)[0]] += seconds
            self.incl_s[name] += seconds
            self.calls[name] += calls
        self.leaves = {}

    def enter(self, name):
        sid = self.next_id
        self.next_id += 1
        self.calls[name] += 1
        self.depth[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0, sid])

    def exit(self):
        end = time.perf_counter()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        self.self_s[name.split(".", 1)[0]] += dur - child
        self.depth[name] -= 1
        if not self.depth[name]:
            self.incl_s[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        parent = self.stack[-1][3] if self.stack else None
        self.spans.append((sid, name, start, end, parent))


def _hook(tr, name, args, result):
    """Counters read off arguments and results at the layer boundary."""
    if name == "instances.loads" and args and isinstance(args[0], str):
        tr.counts["loads.bytes"] += len(args[0].encode("utf-8"))
    elif name.startswith("solver."):
        if hasattr(result, "iterations"):
            tr.counts["solver.iterations"] += int(result.iterations)
        elif name == "solver.picard_orbit" and hasattr(result, "residuals"):
            tr.counts["solver.iterations"] += len(result.residuals)
    elif name.startswith("analysis.enumerate_") and hasattr(result, "members"):
        tr.counts["analysis.members"] += len(result.members)


def _wrap(tr, name, fn, mode):
    if mode == GEN:
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tr.counts["scan.scans"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    tr.enter(name)
                    try:
                        blk = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tr.exit()
                    tr.counts["scan.edges"] += int(blk[2].size)
                    yield blk
            finally:
                inner.close()
        return gen_wrapper

    if mode == PEAK:
        @functools.wraps(fn)
        def peak_wrapper(*args, **kwargs):
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tr.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.exit()
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                tr.peak_mb[name] = max(tr.peak_mb[name], peak)
                if not tracing:
                    tracemalloc.stop()
        return peak_wrapper

    if mode == LEAF:
        acc = tr.leaves[name] = [0.0, 0]
        stack = tr.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def leaf_wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[0] += dt
                acc[1] += 1
                if stack:
                    stack[-1][2] += dt
        return leaf_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.exit()
        _hook(tr, name, args, result)
        return result
    return wrapper


class Installation:
    """The wrappers put in place for one tracer, and how to undo them."""

    def __init__(self):
        self.undo = []      # (setter, container, key, original)
        self.absent = []


def install(tr: Tracer) -> Installation:
    inst = Installation()
    mods = [m for k, m in list(sys.modules.items())
            if m is not None and (k == "gproximity" or k.startswith("gproximity."))]
    for name, modname, path, mode in SPEC:
        mod = sys.modules.get(modname)
        owner = mod
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            inst.absent.append(name)
            continue
        wrapped = _wrap(tr, name, orig, mode)
        if parents:  # a method: patch the class
            inst.undo.append((setattr, owner, attr, orig))
            setattr(owner, attr, wrapped)
            continue
        for m in mods:
            space = vars(m)
            for key, value in list(space.items()):
                if value is orig:
                    inst.undo.append((setattr, m, key, orig))
                    setattr(m, key, wrapped)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dval in list(value.items()):
                        if dval is orig:
                            inst.undo.append((dict.__setitem__, value, dkey, orig))
                            value[dkey] = wrapped
    return inst


def uninstall(inst: Installation):
    for setter, container, key, orig in reversed(inst.undo):
        setter(container, key, orig)
    inst.undo.clear()


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass (seconds, counts, rates)."""
    tr.close()
    incl, calls, cnt = tr.incl_s, tr.calls, tr.counts
    m = {f"{layer}.self_s": tr.self_s[layer] for layer in LAYERS}
    loads_s = incl["instances.loads"]
    m["instances.loads.s"] = loads_s
    m["instances.loads.mb_per_s"] = cnt["loads.bytes"] / 1e6 / loads_s if loads_s else 0.0
    m["instances.dumps.s"] = incl["instances.dumps"]
    m["instances.build.s"] = sum(incl[f"instances.build.{f}"] for f in BUILDERS)
    for f in ("validate_metric", "pair_distance", "set_diameter"):
        m[f"metric.{f}.s"] = incl[f"metric.{f}"]
    m["metric.validate_metric.peak_mb"] = tr.peak_mb["metric.validate_metric"]
    m["graph.preserves_edges.s"] = incl["graph.preserves_edges"]
    m["graph.validate_graph.s"] = incl["graph.validate_graph"]
    m["graph.contains_edge.calls"] = calls["graph.contains_edge"]
    m["maps.map_calls"] = calls["maps.CyclicMap.__call__"]
    blocks_s = incl["scan.EdgeScanner.blocks"]
    m["scan.blocks.calls"] = cnt["scan.scans"]
    m["scan.edges"] = cnt["scan.edges"]
    m["scan.edges_per_s"] = cnt["scan.edges"] / blocks_s if blocks_s else 0.0
    for f in OPERATORS:
        if f != "validate_pair":
            m[f"operators.{f}.s"] = incl[f"operators.{f}"]
    m["operators.min_contraction_factor.calls"] = calls["operators.min_contraction_factor"]
    m["operators.crr_params_feasible.calls"] = calls["operators.crr_params_feasible"]
    m["solver.iterations"] = cnt["solver.iterations"]
    for f in ("enumerate_proximity_set", "enumerate_pair_set", "pair_diameter",
              "proximity_diameter"):
        m[f"analysis.{f}.s"] = incl[f"analysis.{f}"]
    m["analysis.members"] = cnt["analysis.members"]
    return m
