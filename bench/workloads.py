"""The two benchmark workloads.

``setup(gp, seed, work)`` writes a workload's instance files into ``work``
and returns its ``Plan``: the CLI operations with their oracle checks, and
the instances of its in-process library family.  Everything seeded derives
from ``seed``; the malformed files are fixed text.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as orc
from library import LibItem, tab_model


@dataclass
class Op:
    """One CLI call: ``gproximity <argv>`` run in the work directory."""

    argv: list
    check: object = None     # callable(code, stdout) -> list of problems
    malformed: bool = False  # must fail closed: exit 2, one error line

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    ops: list
    library: list
    files: dict = field(default_factory=dict)  # name -> bytes written


def _write(plan: Plan, work: Path, name: str, text: str):
    (work / name).write_text(text, encoding="utf-8")
    plan.files[name] = len(text.encode("utf-8"))


def _report_check(label, body):
    """Wrap an oracle body(ck, rep, code) into an op check."""
    def check(code, stdout):
        ck = orc.Checker(label)
        rep = orc.parse_report(stdout)
        status = orc.exit_status(rep)
        ck.expect(status == str(code), f"exit code {code} but exit-status {status!r}")
        body(ck, rep, code)
        return ck.problems
    return check


def _tab_op(label, argv, model, body):
    def full(ck, rep, _code):
        head = rep[""]
        orc.header(ck, head, argv[0], "single-map", model.n)
        body(ck, head)
    return Op(argv, _report_check(label, full))


# ------------------------------------------------------------ large-inputs

ELLIPSE_STEP = 0.03
INTERVAL_STEP = 2e-3
SEGMENTS_STEP = 2e-3
RAYS, DEPTH, FACTOR = 48, 4, 0.4
LIB_RAYS, LIB_CLOUDS = 32, 4
EDGE_P = 0.375


def ring_cloud(rng, rays=RAYS, depth=DEPTH, factor=FACTOR):
    """Rings of radius factor^l around a hub, one point per ray and level.

    Point l*rays + j sits on ray j at level l; the hub is the last point.
    The map moves each point one level inward and the deepest ring onto the
    hub, so every pair contracts by at most factor / (1 - factor).
    """
    hub = rng.uniform(0.0, 10.0, size=2)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=rays)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    coords = np.concatenate([hub + factor ** lvl * dirs for lvl in range(depth + 1)] + [hub[None]])
    n = coords.shape[0]
    table = np.append(np.arange(rays, n - 1), np.full(rays + 1, n - 1))
    return coords, table


def closed_edges(rng, table, p, start):
    """Random edges plus the diagonal and (start, T start), closed under
    (x, y) -> (Tx, Ty) so that the map preserves them."""
    n = table.size
    edges = rng.random((n, n)) < p
    edges[np.arange(n), np.arange(n)] = True
    edges[start, table[start]] = True
    while True:
        ii, jj = np.nonzero(edges)
        grown = edges.copy()
        grown[table[ii], table[jj]] = True
        if grown.sum() == edges.sum():
            return edges
        edges = grown


def dense_ops(ell):
    """Fine-grid coordinate examples: the edge scan, CRR full scans and
    analysis loops."""
    def ell_head(ck, rep, command):
        orc.header(ck, rep[""], command, "single-map", len(ell))

    def classify(ck, rep, _code):
        ell_head(ck, rep, "classify")
        orc.check_ellipse_classify(ck, rep[""], ell)

    def enumerate_(ck, rep, _code):
        ell_head(ck, rep, "enumerate")
        ck.value(rep[""], "epsilon", "0.1")
        orc.check_ellipse_enumerate(ck, rep[""], ell, 0.1)

    return [
        Op(["classify", "ellipse.gpx"], _report_check("classify ellipse", classify)),
        Op(["enumerate", "ellipse.gpx", "--epsilon", "0.1"],
           _report_check("enumerate ellipse", enumerate_)),
        Op(["demo", "interval", "--grid-step", repr(INTERVAL_STEP)],
           _report_check("demo interval", lambda ck, rep, _c:
                         orc.check_interval_demo(ck, rep, INTERVAL_STEP))),
        Op(["demo", "segments", "--grid-step", repr(SEGMENTS_STEP)],
           _report_check("demo segments", lambda ck, rep, _c:
                         orc.check_segments_demo(ck, rep, SEGMENTS_STEP))),
    ]


def sparse_data(rng, rays):
    """A seeded ring cloud with a closed random edge list: the distance
    matrix, the map table, the edge matrix and an instance builder."""
    coords, table = ring_cloud(rng, rays=rays)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(-1))
    edges = closed_edges(rng, table, EDGE_P, 0)
    everything = tuple(range(table.size))
    pairs = list(zip(*(v.tolist() for v in np.nonzero(edges))))
    table_t = tuple(table.tolist())

    def build(gp, name):
        return gp.Instance(name, gp.TabulatedSpace(dist),
                           gp.SubsetPair(everything, everything), gp.explicit_graph(pairs),
                           cyclic_map=gp.CyclicMap("table", table=table_t))

    return dist, table, edges, build


def setup_large(gp, seed: int, work: Path) -> Plan:
    rng = np.random.default_rng(seed)
    plan = Plan([], [])
    _write(plan, work, "ellipse.gpx", gp.dumps(gp.ellipse_example(ELLIPSE_STEP)))
    lib_seed = int(rng.integers(2 ** 31))

    # One tabulated file with a long explicit edge list: per-call parsing,
    # the n^3 triangle check and Python-level edge loops.
    dist, table, edges, build_sparse = sparse_data(rng, RAYS)
    everything = tuple(range(table.size))
    m = orc.TabModel(dist, table, everything, everything, edges)
    _write(plan, work, "sparse.gpx", gp.dumps(build_sparse(gp, f"sparse-{seed}")))
    plan.ops = dense_ops(orc.ellipse_points(ELLIPSE_STEP)) + [
        _tab_op("validate sparse", ["validate", "sparse.gpx"], m,
                lambda ck, h: orc.validation_block(ck, h)),
        _tab_op("classify sparse", ["classify", "sparse.gpx", "--alpha", "0.9"], m,
                lambda ck, h: orc.check_tab_classify(ck, h, m, alpha=0.9, crr_expected=True)),
        _tab_op("solve sparse", ["solve", "sparse.gpx", "--epsilon", "0.2"], m,
                lambda ck, h: orc.check_tab_solve(ck, h, m, 0, 0.2, bound_expected=True)),
        _tab_op("enumerate sparse", ["enumerate", "sparse.gpx", "--epsilon", "0.2"], m,
                lambda ck, h: orc.check_tab_enumerate(ck, h, m, 0.2)),
    ]
    j = int(rng.integers(251))
    x1, y1 = (round(0.004 * j, 10), 0.0), (round(1.0 - 0.004 * j, 10), 1.0)
    plan.library = [
        LibItem(family=True,
                build=lambda gp: gp.contraction_instance(lib_seed, rays=200, depth=4,
                                                         factor=0.4)),
        LibItem(kind="pair", affine=(0.5, 0.1), alternating=(0.5, x1, y1),
                build=lambda gp: gp.affine_segments_pair(0.5, 0.1, 0.004)),
    ]
    # Smaller clouds of the same kind, so that the library time is spread
    # over several instances and several points of the round.
    for i in range(LIB_CLOUDS):
        build = sparse_data(rng, LIB_RAYS)[-1]
        plan.library.append(LibItem(solve_eps=0.2,
                                    build=lambda gp, b=build, i=i: b(gp, f"cloud-{seed}-{i}")))
    return plan


# ------------------------------------------------------------ small-batch

MALFORMED = {
    # builder arguments are passed through unchecked
    "bogus.gpx": ("gproximity-instance v1\nname: bogus-arg\nkind: coordinate\n"
                  "builder: interval\narg: bogus=1\n"),
    # index 5 is outside 0..n-1
    "oob.gpx": ("gproximity-instance v1\nname: out-of-range\nkind: tabulated\nn: 2\n"
                "A: 0\nB: 5\ngraph: complete\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n"),
    # a non-finite distance
    "nan.gpx": ("gproximity-instance v1\nname: nan-distance\nkind: tabulated\nn: 2\n"
                "A: 0\nB: 1\ngraph: complete\nmap: table\ntable: 1 0\ndist:\nrow: nan\n"),
}


def _family(base):
    """The contraction family of acceptance criterion 04, reseeded."""
    return [LibItem(family=True,
                    build=lambda gp, i=i: gp.contraction_instance(
                        base + i, rays=3 + i % 4, depth=2 + i % 3,
                        factor=0.2 + 0.025 * (i % 10)))
            for i in range(100)]


def setup_small(gp, seed: int, work: Path) -> Plan:
    rng = np.random.default_rng(seed)
    plan = Plan([], [])
    s_con, s_rand, s_refl, base = (int(v) for v in rng.integers(2 ** 31, size=4))
    base %= 2 ** 30
    con = gp.contraction_instance(s_con, rays=5, depth=3, factor=0.3)
    rand = gp.random_instance(s_rand, 12, 12, graph_rule="random:0.6")
    refl = gp.reflection_instance(s_refl, n=12)
    for name, inst in (("contraction.gpx", con), ("random.gpx", rand),
                       ("reflection.gpx", refl)):
        _write(plan, work, name, gp.dumps(inst))
    for name, text in MALFORMED.items():
        _write(plan, work, name, text)
    mc, mr, mf = tab_model(con), tab_model(rand), tab_model(refl)
    start = int(rng.integers(1, 6))  # a point of the outer ring

    plan.ops = [
        _tab_op("validate contraction", ["validate", "contraction.gpx"], mc,
                lambda ck, h: orc.validation_block(ck, h)),
        _tab_op("classify contraction", ["classify", "contraction.gpx", "--alpha", "0.9"], mc,
                lambda ck, h: orc.check_tab_classify(ck, h, mc, alpha=0.9, crr_expected=True)),
        _tab_op("solve contraction",
                ["solve", "contraction.gpx", f"--start={start}", "--epsilon", "0.05"], mc,
                lambda ck, h: orc.check_tab_solve(ck, h, mc, start, 0.05, bound_expected=True)),
        _tab_op("enumerate contraction", ["enumerate", "contraction.gpx", "--epsilon", "0.1"], mc,
                lambda ck, h: orc.check_tab_enumerate(ck, h, mc, 0.1)),
        _tab_op("classify random", ["classify", "random.gpx"], mr,
                lambda ck, h: orc.check_tab_classify(ck, h, mr)),
        _tab_op("enumerate random", ["enumerate", "random.gpx", "--epsilon", "0.2"], mr,
                lambda ck, h: orc.check_tab_enumerate(ck, h, mr, 0.2)),
        _tab_op("solve reflection", ["solve", "reflection.gpx", "--epsilon", "0.3"], mf,
                lambda ck, h: orc.check_tab_solve(ck, h, mf, 0, 0.3)),
        Op(["demo", "interval"],
           _report_check("demo interval", lambda ck, rep, _c: orc.check_interval_demo(ck, rep, 0.01))),
        Op(["demo", "ellipse"],
           _report_check("demo ellipse", lambda ck, rep, _c: orc.check_ellipse_demo(ck, rep, 0.1))),
        Op(["classify", "bogus.gpx"], malformed=True),
        Op(["classify", "oob.gpx"], malformed=True),
        Op(["validate", "nan.gpx"], malformed=True),
    ]

    lib = _family(base)
    for i in range(10):
        lib.append(LibItem(crr_grid=0.05,
                           build=lambda gp, i=i: gp.reflection_instance(base + 200 + i,
                                                                        n=10 + i % 6)))
        lib.append(LibItem(crr_grid=0.05,
                           build=lambda gp, i=i: gp.random_instance(
                               base + 300 + i, 5 + i, 5 + (3 * i) % 10,
                               graph_rule="random:0.5")))
        lib.append(LibItem(kind="pair",
                           build=lambda gp, i=i: gp.identity_pair_instance(base + 400 + i,
                                                                           n=12 + i % 9)))
        factor = 0.05 + 0.04 * i
        shift = min(0.02 * i, 1.0 - factor)
        j = int(rng.integers(21))
        x1, y1 = (round(0.05 * j, 10), 0.0), (round(1.0 - 0.05 * j, 10), 1.0)
        lib.append(LibItem(kind="pair", affine=(factor, shift),
                           alternating=(factor, x1, y1),
                           build=lambda gp, f=factor, s=shift: gp.affine_segments_pair(f, s, 0.05)))
    plan.library = lib
    return plan


WORKLOADS = {
    "large-inputs": setup_large,
    "small-batch": setup_small,
}
