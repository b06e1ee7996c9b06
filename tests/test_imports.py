"""Every name a module of the package imports is used in that module, and
every name the benchmark's tracer wraps exists: an import left behind or a
traced name renamed by a change is a failure here, not a silent cost."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import gproximity as gp
from gproximity import _scan

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gproximity"
BENCH = ROOT / "bench"


def imported_names(tree):
    """(name, line) of each name an import binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads, annotations included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_an_unused_import_is_found():
    tree = ast.parse("from .graph import explicit_graph, adjacency\nimport numpy as np\n"
                     "from __future__ import annotations\nadjacency(np)\n")
    assert [n for n, _ in imported_names(tree) if n not in used_names(tree)] == ["explicit_graph"]


def load_tracing():
    """The benchmark's span tracer, loaded by path."""
    spec = importlib.util.spec_from_file_location("tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    """Every (module, attribute path) the benchmark's span tracer wraps names
    a package object, but the one the package deleted on purpose: a rename
    fails here instead of reading 0 in a traced span.  Reads ``SPEC`` without
    installing the tracer."""
    unresolved = set()
    for name, module, path, _mode in load_tracing().SPEC:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            unresolved.add(name)
    assert unresolved == {"graph.preserves_edges"}


def symmetric_pass():
    inst = gp.interval_example(0.5)
    n = len(inst.points)
    assert inst.engine.symmetric
    return lambda: _scan.fold_max(inst.engine, 0.5), n * (n + 1) // 2


def listed_pass():
    inst = gp.random_instance(3, 6, 6, graph_rule="random:0.5")
    pts = inst.points
    listed = sum(gp.contains_edge(inst.graph, x, y) for x in pts for y in pts)
    return lambda: _scan.fold_max(inst.engine, 0.5), listed


def pair_pass():
    inst = gp.identity_pair_instance(2, n=7)
    return lambda: gp.enumerate_pair_set(inst, 1.0), len(inst.sets.a) * len(inst.sets.b)


@pytest.mark.parametrize("make", [symmetric_pass, listed_pass, pair_pass],
                         ids=("symmetric", "listed", "pair"))
def test_traced_edge_count_is_one_pass(make, monkeypatch):
    """The tracer's ``scan.edges`` reads the length of entry 2 of each block
    ``EdgeScanner.blocks`` yields: over one pass it is the number of edges
    visited, n(n+1)/2 for a symmetric complete scan of one row per block, the
    listed edges of an explicit graph and |A| |B| for a pair scan."""
    tracing = load_tracing()
    tr = tracing.Tracer()
    blocks = tracing._wrap(tr, "scan.EdgeScanner.blocks", _scan.EdgeScanner.blocks, tracing.GEN)
    monkeypatch.setattr(_scan, "_BLOCK_ELEMS", 1)
    run, edges = make()
    monkeypatch.setattr(_scan.EdgeScanner, "blocks", blocks)
    run()
    assert (tr.counts["scan.scans"], tr.counts["scan.edges"]) == (1, edges)
