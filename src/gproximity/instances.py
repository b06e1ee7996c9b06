"""Worked-example instances, seeded random instances, and instance files.

Tabulated instances serialize losslessly (lower triangle of the matrix,
index sets, map tables, edge lists).  Coordinate instances serialize as the
builder name plus its parameters and are rebuilt on load.  See
docs/instance_format.md for the file grammar, which ``_reader`` checks
before ``build`` makes the instance.
"""
from __future__ import annotations

import math
from operator import index

import numpy as np

from ._reader import (BUILDER_ARGS, FORMAT_HEADER, MAP_TABLES, Coordinate, _Reader,
                      index_error, read, read_file)
from .errors import ParseError, SpecError
from .graph import COMPLETE, DIAGONAL, EXPLICIT, DirectedGraph, complete_graph, diagonal_graph
from .maps import CyclicMap, Instance, MapPair
from .metric import DEFAULT_TOL, CoordinateSpace, SubsetPair, TabulatedSpace, euclidean


#: Most samples a coordinate builder lays out along its grid: far above
#: every grid in use (the largest, ellipse_example(0.002), has 1,501 x 1,501
#: candidates), so that a tiny step fails before anything is allocated.
_MAX_SAMPLES = 10 ** 7


def _grid_steps(step: float, length: float, axes: int = 1) -> float:
    """length / step, once step > 0, the length holds at least one step and
    a grid of length / step + 1 samples along each of ``axes`` axes holds at
    most _MAX_SAMPLES of them."""
    if not step > 0:
        raise SpecError("grid step must be positive")
    steps = length / step
    if not steps >= 1:
        raise SpecError(f"grid step {step!r} exceeds the length {length!r}")
    if not steps + 1 <= _MAX_SAMPLES ** (1 / axes):
        raise SpecError(f"grid step {step!r} lays out more than {_MAX_SAMPLES} samples")
    return steps


def _check_divides(step: float, length: float, what: str) -> int:
    k = round(_grid_steps(step, length))
    if k < 1 or abs(k * step - length) > DEFAULT_TOL:
        raise SpecError(f"grid step {step!r} does not divide {what} evenly")
    return k


def interval_example(grid_step: float = 0.01) -> Instance:
    """A = [-3, -1], B = [1, 3] with the halving map between them."""
    k = _check_divides(grid_step, 2.0, "the interval length 2")
    a = tuple((float(x),) for x in np.linspace(-3.0, -1.0, k + 1))
    b = tuple((float(x),) for x in np.linspace(1.0, 3.0, k + 1))

    def t(p):
        (x,) = p
        if x < 0:
            return ((1.0 - x) / 2.0,)
        return ((-1.0 - x) / 2.0,)

    sets = SubsetPair(
        a, b,
        a_contains=lambda p: -3.0 - DEFAULT_TOL <= p[0] <= -1.0 + DEFAULT_TOL,
        b_contains=lambda p: 1.0 - DEFAULT_TOL <= p[0] <= 3.0 + DEFAULT_TOL,
    )
    fmap = CyclicMap("interval-halving", fn=t)
    return Instance("interval", CoordinateSpace(1), sets, complete_graph(),
                    cyclic_map=fmap, params=(("builder", "interval"), ("grid_step", grid_step)))


def ellipse_example(grid_step: float = 0.1) -> Instance:
    """Two overlapping elliptical discs in the plane, mirrored by x -> -x."""
    k = int(math.ceil(_grid_steps(grid_step, 3.0, axes=2) / 2))  # = ceil(1.5 / grid_step)
    axis = [i * grid_step for i in range(-k, k + 1)]

    def in_a(p):
        x, y = p
        return (x - y) ** 2 + y * y <= 1.0 + DEFAULT_TOL

    def in_b(p):
        x, y = p
        return (x + y) ** 2 + y * y <= 1.0 + DEFAULT_TOL

    a = tuple((x, y) for x in axis for y in axis if in_a((x, y)))
    b = tuple((x, y) for x in axis for y in axis if in_b((x, y)))

    def t(p):
        x, y = p
        return (-x, y)

    sets = SubsetPair(a, b, a_contains=in_a, b_contains=in_b)
    fmap = CyclicMap("mirror-x", fn=t)
    return Instance("ellipse", CoordinateSpace(2), sets, complete_graph(),
                    cyclic_map=fmap, params=(("builder", "ellipse"), ("grid_step", grid_step)))


def _segment_grids(grid_step: float):
    """A and B: the unit segments [0, 1] x {0} and [0, 1] x {1}."""
    m = _check_divides(grid_step, 1.0, "the unit interval")
    if m % 2 != 0:
        raise SpecError(f"grid step {grid_step!r} must place x = 1/2 on the grid")
    xs = np.linspace(0.0, 1.0, m + 1)
    a = tuple((float(x), 0.0) for x in xs)
    b = tuple((float(x), 1.0) for x in xs)

    def on_segment(height):
        return lambda p: (abs(p[1] - height) <= DEFAULT_TOL
                          and -DEFAULT_TOL <= p[0] <= 1.0 + DEFAULT_TOL)

    return SubsetPair(a, b, a_contains=on_segment(0.0), b_contains=on_segment(1.0))


def segments_example(grid_step: float = 0.01) -> Instance:
    """Unit segments at heights 0 and 1 with constant maps to their midpoints."""
    sets = _segment_grids(grid_step)
    t = CyclicMap("const-upper-mid", fn=lambda p: (0.5, 1.0))
    s = CyclicMap("const-lower-mid", fn=lambda p: (0.5, 0.0))
    return Instance("segments", CoordinateSpace(2), sets, complete_graph(),
                    map_pair=MapPair(t, s),
                    params=(("builder", "segments"), ("grid_step", grid_step)))


def affine_segments_pair(factor: float, shift: float = 0.0,
                         grid_step: float = 0.01) -> Instance:
    """Two-map instance on the parallel lines y = 0 and y = 1.

    T and S apply the same horizontal affine contraction and swap the
    lines, so d(Tp, Sq) <= factor * d(p, q) + (1 - factor) * d(A, B) holds
    exactly; built for the alternating scheme.
    """
    if not (0.0 <= factor < 1.0):
        raise SpecError("factor must lie in [0, 1)")
    if not math.isfinite(shift):
        raise SpecError(f"shift must be finite, got {shift!r}")
    sets = _segment_grids(grid_step)
    t = CyclicMap("affine-up", fn=lambda p: (factor * p[0] + shift, 1.0))
    s = CyclicMap("affine-down", fn=lambda p: (factor * p[0] + shift, 0.0))
    return Instance("affine-segments", CoordinateSpace(2), sets, complete_graph(),
                    map_pair=MapPair(t, s),
                    params=(("builder", "affine-segments"), ("factor", factor),
                            ("shift", shift), ("grid_step", grid_step)))


def _tabulated_from_coords(coords: np.ndarray) -> TabulatedSpace:
    ct = np.ascontiguousarray(coords.T)
    return TabulatedSpace(euclidean(ct, ct, cross=True))


def _graph_from_rule(rule: str, n: int, rng) -> DirectedGraph:
    if rule == "complete":
        return complete_graph()
    if rule == "diagonal":
        return diagonal_graph()
    if rule.startswith("random:"):
        p = float(rule.split(":", 1)[1])
        i, j = np.nonzero(np.eye(n, dtype=bool) | (rng.random((n, n)) < p))
        return DirectedGraph(EXPLICIT, pairs=(i.tolist(), j.tolist()))
    raise SpecError(f"unknown graph rule {rule!r}")


def _nearest_in(coords: np.ndarray, sources, targets) -> dict:
    d = euclidean(np.ascontiguousarray(coords[list(sources)].T),
                  np.ascontiguousarray(coords[list(targets)].T), cross=True)
    picks = d.argmin(axis=1)
    tlist = list(targets)
    return {s: tlist[int(p)] for s, p in zip(sources, picks)}


def random_instance(seed: int, n_a: int, n_b: int, map_rule: str = "nearest",
                    graph_rule: str = "complete") -> Instance:
    """Seeded tabulated instance from two uniform point clouds in the unit square.

    The metric is the Euclidean distance of the sampled points, so the
    metric axioms hold by construction.  Map rules: ``nearest`` (each point
    goes to the closest point of the other set) and ``affine:<f>`` (each
    point is pulled toward the other set's centroid by factor f, then
    snapped to the closest sample there).
    """
    if n_a < 1 or n_b < 1:
        raise SpecError("both subsets need at least one point")
    rng = np.random.default_rng(seed)
    pa = rng.uniform((0.0, 0.0), (1.0, 1.0), size=(n_a, 2))
    pb = rng.uniform((0.0, 0.0), (1.0, 1.0), size=(n_b, 2))
    coords = np.vstack([pa, pb])
    n = n_a + n_b
    a_idx = tuple(range(n_a))
    b_idx = tuple(range(n_a, n))
    if map_rule == "nearest":
        table = {}
        table.update(_nearest_in(coords, a_idx, b_idx))
        table.update(_nearest_in(coords, b_idx, a_idx))
    elif map_rule.startswith("affine:"):
        factor = float(map_rule.split(":", 1)[1])
        ca = coords[list(a_idx)].mean(axis=0)
        cb = coords[list(b_idx)].mean(axis=0)
        table = {}
        for src, c_src, c_dst, dst in ((a_idx, ca, cb, b_idx), (b_idx, cb, ca, a_idx)):
            targets = coords[list(dst)]
            for i in src:
                goal = c_dst + factor * (coords[i] - c_src)
                table[i] = dst[int(np.argmin(np.linalg.norm(targets - goal, axis=1)))]
    else:
        raise SpecError(f"unknown map rule {map_rule!r}")
    graph = _graph_from_rule(graph_rule, n, rng)
    fmap = CyclicMap(f"rule-{map_rule}", table=tuple(table[i] for i in range(n)))
    sets = SubsetPair(a_idx, b_idx)
    return Instance(f"random-{seed}", _tabulated_from_coords(coords), sets, graph,
                    cyclic_map=fmap)


def contraction_instance(seed: int, rays: int = 5, depth: int = 4,
                         factor: float = 0.4) -> Instance:
    """Seeded tabulated instance carrying an exact uniform contraction.

    Points sit on concentric rings around a random hub at radii r*factor^j;
    the map pushes each ring inward one level and collapses the deepest
    ring onto the hub.  With equal ring radii and factor < 1/2 every edge
    of the complete graph contracts (worst ratio factor / (1 - factor)).
    A and B both equal the whole cloud, so d(A, B) = 0.
    """
    if not (0.0 < factor < 0.5):
        raise SpecError("factor must lie in (0, 1/2) for ring-wise contraction")
    if rays < 2 or depth < 1:
        raise SpecError("need at least two rays and one level")
    rng = np.random.default_rng(seed)
    hub = rng.uniform(0.0, 10.0, size=2)
    r = float(rng.uniform(0.5, 1.5))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=rays)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = [hub]
    for level in range(depth + 1):
        ring = hub + (r * factor ** level) * dirs
        pts.extend(ring)
    coords = np.asarray(pts)
    n = coords.shape[0]

    def idx(level, ray):
        return 1 + level * rays + ray

    table = [0] * n
    for level in range(depth + 1):
        for ray in range(rays):
            table[idx(level, ray)] = idx(level + 1, ray) if level < depth else 0
    everything = tuple(range(n))
    sets = SubsetPair(everything, everything)
    fmap = CyclicMap("ring-contraction", table=tuple(table))
    return Instance(f"contraction-{seed}", _tabulated_from_coords(coords), sets,
                    complete_graph(), cyclic_map=fmap)


def reflection_instance(seed: int, n: int = 20, gap: float = 1.0) -> Instance:
    """Seeded tabulated instance whose map is an exact point reflection.

    B is the mirror image of A through a center beyond the gap; the map
    swaps mirror partners, so every edge is mapped isometrically and the
    map is edge-nonexpansive with d(A, B) > 0.
    """
    if n < 1 or gap < 0:
        raise SpecError("need n >= 1 and a nonnegative gap")
    rng = np.random.default_rng(seed)
    pa = rng.uniform((0.0, 0.0), (1.0, 1.0), size=(n, 2))
    center = np.asarray([1.0 + gap / 2.0, 0.5])
    pb = 2.0 * center - pa
    coords = np.vstack([pa, pb])
    table = tuple(list(range(n, 2 * n)) + list(range(n)))
    sets = SubsetPair(tuple(range(n)), tuple(range(n, 2 * n)))
    fmap = CyclicMap("point-reflection", table=table)
    return Instance(f"reflection-{seed}", _tabulated_from_coords(coords), sets,
                    complete_graph(), cyclic_map=fmap)


def identity_pair_instance(seed: int, n: int = 20) -> Instance:
    """Seeded two-map instance with A = B and T = S = identity.

    The only maps satisfying d(x, Tx) + d(Sy, y) <= k d(x, y) with k < 1
    at coincident arguments fix those points, so identity pairs on a
    shared cloud are the canonical family for that hypothesis.
    """
    if n < 2:
        raise SpecError("need at least two points")
    rng = np.random.default_rng(seed)
    coords = rng.uniform((0.0, 0.0), (1.0, 1.0), size=(n, 2))
    everything = tuple(range(n))
    ident = CyclicMap("identity", table=everything)
    sets = SubsetPair(everything, everything)
    return Instance(f"identity-pair-{seed}", _tabulated_from_coords(coords), sets,
                    complete_graph(), map_pair=MapPair(ident, ident))


_BUILDERS = {
    "interval": interval_example,
    "ellipse": ellipse_example,
    "segments": segments_example,
    "affine-segments": affine_segments_pair,
}

def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _is_index(end, n: int) -> bool:
    """True iff ``end`` is an integer index in 0..n-1: an int, a bool or a
    numpy integer."""
    try:
        return 0 <= index(end) < n
    except TypeError:
        return False


def _end_indices(ends, n: int) -> list:
    """An explicit graph's ``ends`` as plain ints; the first end that is not
    an integer index in 0..n-1 raises SpecError naming it."""
    try:
        out = list(map(index, ends))
        if not out or (min(out) >= 0 and max(out) < n):
            return out
    except TypeError:
        pass
    bad = next(end for end in ends if not _is_index(end, n))
    raise SpecError(f"edge end {bad!r} is not a point index in 0..{n - 1}")


def _edge_lines(pairs, n: int) -> list:
    """The ``graph: edges`` line and one ``edge:`` line per distinct listed
    (x, y), in sorted order: the key x * n + y orders pairs of indices in
    0..n-1 as the (x, y) tuples would."""
    i, j = (_end_indices(ends, n) for ends in pairs)
    keys = sorted({x * n + y for x, y in zip(i, j)})
    heads = [f"edge: {x} " for x in range(n)]
    names = list(map(str, range(n)))
    return [f"graph: edges {len(keys)}"] + [heads[k // n] + names[k % n] for k in keys]


def dumps(inst: Instance) -> str:
    """Serialize an instance to the structured text format; one that a file
    cannot state raises SpecError (``docs/instance_format.md``)."""
    if inst.tol != DEFAULT_TOL:
        raise SpecError(f"instance {inst.name!r} has tol {inst.tol!r}; a file states none "
                        f"and loads at DEFAULT_TOL ({DEFAULT_TOL!r})")
    if _Reader(f"name: {inst.name}").next("name") != inst.name:
        raise SpecError(f"instance name {inst.name!r} does not read back from a name: line, "
                        "which is one line with its blanks stripped")
    lines = [FORMAT_HEADER, f"name: {inst.name}"]
    if isinstance(inst.space, CoordinateSpace):
        params = dict(inst.params)
        builder = params.pop("builder", None)
        if builder not in _BUILDERS:
            raise SpecError(f"coordinate instance {inst.name!r} has no registered builder")
        if inst.name != builder or sorted(params) != sorted(BUILDER_ARGS[builder]):
            raise SpecError(f"coordinate instance {inst.name!r} with arguments {tuple(params)} "
                            f"would load as {builder!r} with arguments {BUILDER_ARGS[builder]}")
        if inst.graph.rule != COMPLETE:
            raise SpecError(f"coordinate instance {inst.name!r} has a {inst.graph.rule} graph; "
                            "its builder makes the complete one")
        lines.append("kind: coordinate")
        lines.append(f"builder: {builder}")
        for key, value in params.items():
            lines.append(f"arg: {key}={_fmt(value)}")
        return "\n".join(lines) + "\n"
    n, d = inst.space.n, inst.space.dist
    maps = ((inst.map_pair.t, inst.map_pair.s) if inst.map_pair is not None
            else (inst.cyclic_map,) if inst.cyclic_map is not None else ())
    word = next(w for w, keys in MAP_TABLES.items() if len(keys) == len(maps))
    tables = {key: f.table for key, f in zip(MAP_TABLES[word], maps)}
    if None in tables.values():
        raise SpecError(f"tabulated instance {inst.name!r}: a map without a table has no file form")
    for what, idx, count, unique in (("A", inst.sets.a, None, True),
                                     ("B", inst.sets.b, None, True),
                                     *((key, t, n, False) for key, t in tables.items())):
        if message := index_error(idx, n, what, count, unique):
            raise SpecError(f"tabulated instance {inst.name!r}: {message}")
    if not np.array_equal(d, d.T) or d.diagonal().any():
        raise SpecError(f"tabulated instance {inst.name!r} has a distance matrix that is not "
                        "exactly symmetric with a zero diagonal; a file keeps its strict "
                        "lower triangle")
    lines.append("kind: tabulated")
    lines.append(f"n: {n}")
    lines.append("A: " + " ".join(str(i) for i in inst.sets.a))
    lines.append("B: " + " ".join(str(i) for i in inst.sets.b))
    g = inst.graph
    if g.rule in (COMPLETE, DIAGONAL):
        lines.append(f"graph: {g.rule}")
    else:
        lines.extend(_edge_lines(g.pairs, n))
    lines.append(f"map: {word}")
    lines.extend(f"{key}: " + " ".join(map(str, t)) for key, t in tables.items())
    lines.append("dist:")
    lines.extend("row: " + " ".join(map(repr, d[i, :i].tolist())) for i in range(1, n))
    return "\n".join(lines) + "\n"


def build(spec) -> Instance:
    """The instance that a checked file (``_reader.read``) describes; a
    builder that rejects the file's arguments is a ParseError on its
    ``builder:`` line."""
    if isinstance(spec, Coordinate):
        try:
            return _BUILDERS[spec.builder](**spec.kwargs)
        except (SpecError, TypeError) as exc:
            raise ParseError(f"builder {spec.builder!r} rejects its arguments: {exc}",
                             line=spec.line) from exc
    maps = [CyclicMap(key, table=table) for key, table in spec.tables.items()]
    fmap = maps[0] if len(maps) == 1 else None
    pair = MapPair(*maps) if len(maps) == 2 else None
    dist = np.zeros((spec.n, spec.n))
    for i, values in enumerate(spec.rows, 1):
        dist[i, :i] = values
        dist[:i, i] = dist[i, :i]
    return Instance(spec.name, TabulatedSpace(dist), SubsetPair(spec.a, spec.b),
                    DirectedGraph(spec.graph, pairs=spec.edges), cyclic_map=fmap, map_pair=pair)


def loads(text: str) -> Instance:
    """Parse the structured text format back into an instance: the whole
    text is checked before the instance is built."""
    return build(read(text))


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(inst))


def load_instance(path) -> Instance:
    return build(read_file(path))
