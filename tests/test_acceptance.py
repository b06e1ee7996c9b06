"""End-to-end acceptance checks.

Each test prints exactly one ``criterion NN <name>: PASS`` or ``FAIL`` line
(run pytest with -s to see them).  Tolerances are pinned: absolute slack
1e-9 on distance inequalities, one grid step on grid-derived quantities.
"""
import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

import gproximity as gp

TAU = 1e-9


def report(num, name, violations, context=""):
    ok = not violations
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} {context}: first failures {violations[:3]}"


def run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "gproximity"] + argv,
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def fine_interval():
    return dataclasses.replace(gp.interval_example(1e-3), tol=TAU)


@pytest.fixture(scope="module")
def contraction_suite():
    out = []
    for seed in range(100):
        rays = 3 + seed % 4
        depth = 2 + seed % 3
        factor = 0.2 + 0.025 * (seed % 10)
        inst = gp.contraction_instance(seed, rays=rays, depth=depth, factor=factor)
        exact = dataclasses.replace(inst, tol=0.0)
        params = gp.crr_params_feasible(exact, 0.05)
        out.append((dataclasses.replace(inst, tol=TAU), exact, params))
    return out


def test_criterion_01_interval_exact_set(fine_interval):
    bad = []
    inst = fine_interval
    ps = gp.enumerate_proximity_set(inst, 0.0)
    if ps.members != ((-1.0,), (1.0,)):
        bad.append(("members", ps.members[:4]))
    if abs(inst.d_ab - 2.0) > TAU:
        bad.append(("pair_distance", inst.d_ab))
    if abs(gp.proximity_diameter(inst, ps) - 2.0) > TAU:
        bad.append(("diameter", gp.proximity_diameter(inst, ps)))
    code, out = run_cli(["demo", "interval", "--grid-step", "1e-3"])
    if code != 0:
        bad.append(("demo-exit", code))
    for needle in ("member: (-1.0)", "member: (1.0)", "set-size: 2",
                   "d(A,B): 2.0", "set-diameter: 2.0"):
        if needle not in out:
            bad.append(("demo-line", needle))
    report(1, "interval exact reproduction", bad)


def test_criterion_02_interval_epsilon_030(fine_interval):
    inst = fine_interval
    step = dict(gp.interval_example(1e-3).params)["grid_step"]  # a replaced one has no params
    members = set(gp.enumerate_proximity_set(inst, 0.3).members)

    def in_band(x, slack):
        # closed form: displacement (1 - 3x)/2 <= 2.3 on the A side and
        # symmetrically (1 + 3x)/2 <= 2.3 on the B side, so the set is
        # [-1.2, -1] on A and [1, 1.2] on B, up to the given slack
        return (-1.2 - slack <= x <= -1.0 + slack
                or 1.0 - slack <= x <= 1.2 + slack)

    bad = []
    for p in inst.points:
        if p in members and not in_band(p[0], step):
            bad.append(("spurious", p))
        if in_band(p[0], -step) and p not in members:
            bad.append(("missing", p))
    report(2, "interval set at epsilon 0.3", bad)


def test_criterion_03_segments_pair_set():
    inst = dataclasses.replace(gp.segments_example(0.01), tol=TAU)
    n = len(inst.sets.a)
    bad = []
    for eps in (1e-6, 0.01, 0.5):
        pps = gp.enumerate_pair_set(inst, eps)
        if len(pps.members) != n * n:
            bad.append(("coverage", eps, len(pps.members)))
        diam = gp.pair_diameter(inst, pps)
        if abs(diam - math.sqrt(2.0)) > 2e-2:
            bad.append(("diameter", eps, diam))
    report(3, "segments pair coverage and diameter", bad)


def test_criterion_04_crr_residual_decay(contraction_suite):
    bad = []
    certified = 0
    for _inst, exact, params in contraction_suite:
        if params is None or not gp.is_crr_moh(exact, params):
            continue
        certified += 1
        k = params.k
        for x0 in exact.points:
            trace = gp.picard_orbit(exact, x0, 12)
            r0 = trace.residuals[0]
            for n, r in enumerate(trace.residuals):
                if r > k ** n * r0 + TAU:
                    bad.append((exact.name, x0, n, r))
    if certified < 100:
        bad.append(("too-few-certified", certified))
    report(4, "geometric residual decay", bad, f"{certified} certified")


def test_criterion_05_apriori_bound_dominates(contraction_suite):
    bad = []
    for inst, _exact, params in contraction_suite:
        if params is None:
            continue
        k = params.k
        for x0 in inst.points[1:6]:
            d0 = inst.space.distance(x0, inst.cyclic_map(x0))
            for eps in (0.01, 0.1):
                res = gp.find_proximity_point(inst, x0, gp.SolveConfig(eps, 500))
                if not res.found:
                    bad.append((inst.name, x0, eps, res.status))
                    continue
                bound = gp.crr_iteration_bound(d0, k, inst.d_ab, eps, TAU)
                if res.iterations > bound:
                    bad.append((inst.name, x0, eps, res.iterations, bound))
    report(5, "stopping iteration within a-priori bound", bad)


def test_criterion_06_one_map_diameter_bound(contraction_suite):
    bad = []
    for inst, _exact, _params in contraction_suite:
        est = gp.min_contraction_factor(inst)
        if not est.contractive:
            bad.append((inst.name, "not contractive"))
            continue
        alpha = est.alpha_min
        for eps in (0.01, 0.1, 1.0):
            ps = gp.enumerate_proximity_set(inst, eps)
            if not ps.members:
                bad.append((inst.name, eps, "empty"))
                continue
            diam = gp.proximity_diameter(inst, ps)
            bound = gp.contraction_diam_bound(alpha, eps, inst.d_ab)
            if diam > bound + TAU:
                bad.append((inst.name, eps, diam, bound))
    report(6, "one-map diameter bound", bad)


def test_criterion_07_two_map_diameter_bound():
    bad = []
    k = 0.5
    for seed in range(100):
        inst = dataclasses.replace(gp.identity_pair_instance(seed, n=12 + seed % 9), tol=TAU)
        t, s = inst.map_pair.t, inst.map_pair.s
        hypothesis_ok = all(
            inst.space.distance(x, t(x)) + inst.space.distance(s(y), y)
            <= k * inst.space.distance(x, y)
            for x in inst.sets.a for y in inst.sets.b)
        if not hypothesis_ok:
            continue
        for eps in (0.01, 0.1, 1.0):
            pps = gp.enumerate_pair_set(inst, eps)
            if not pps.members:
                continue
            diam = gp.pair_diameter(inst, pps)
            bound = gp.two_map_diam_bound(k, eps, inst.d_ab)
            if diam > bound + TAU:
                bad.append((inst.name, eps, diam, bound))
    report(7, "two-map diameter bound", bad)


def _oracle_single_set(inst, eps):
    """Independent double-loop membership check."""
    f = inst.cyclic_map
    dab = min(inst.space.distance(x, y)
              for x in inst.sets.a for y in inst.sets.b)
    out = []
    for z in inst.points:
        fz = f(z)
        if not gp.contains_edge(inst.graph, z, fz):
            continue
        if inst.space.distance(z, fz) <= dab + eps + TAU:
            out.append(z)
    return out


def _oracle_pair_set(inst, eps):
    t, s = inst.map_pair.t, inst.map_pair.s
    dab = min(inst.space.distance(x, y)
              for x in inst.sets.a for y in inst.sets.b)
    out = []
    for x in inst.sets.a:
        for y in inst.sets.b:
            if not gp.contains_edge(inst.graph, x, y):
                continue
            if inst.space.distance(t(x), s(y)) <= dab + eps + TAU:
                out.append((x, y))
    return out


def test_criterion_08_oracle_equivalence():
    bad = []
    graph_rules = ["complete", "random:0.5", "random:0.8"]
    for seed in range(100):
        n_a = 5 + seed % 16
        n_b = 5 + (seed * 7) % 16
        rule = graph_rules[seed % 3]
        inst = dataclasses.replace(gp.random_instance(seed, n_a, n_b, graph_rule=rule), tol=TAU)
        eps = 0.25 + 0.005 * seed
        res = gp.find_proximity_point(inst, 0, gp.SolveConfig(eps, 200))
        if res.found and res.witness not in _oracle_single_set(inst, eps):
            bad.append((seed, "witness", res.witness))
        # pair variant: both maps use the same cyclic table
        pair_inst = gp.Instance(inst.name, inst.space, inst.sets, inst.graph,
                                map_pair=gp.MapPair(inst.cyclic_map,
                                                    inst.cyclic_map), tol=TAU)
        got = list(gp.enumerate_pair_set(pair_inst, eps).members)
        if got != _oracle_pair_set(pair_inst, eps):
            bad.append((seed, "pair-set"))
    report(8, "solver and enumeration match brute-force oracles", bad)


def test_criterion_09_monotonicity():
    ladder = [0.0, 0.01, 0.1, 1.0]
    suite = [gp.interval_example(0.01), gp.ellipse_example(0.1),
             gp.reflection_instance(0)]
    suite += [gp.contraction_instance(s) for s in range(5)]
    suite += [gp.random_instance(s, 10, 10) for s in range(5)]
    pair_suite = [gp.segments_example(0.05)]
    pair_suite += [gp.identity_pair_instance(s) for s in range(5)]
    suite = [dataclasses.replace(inst, tol=TAU) for inst in suite]
    pair_suite = [dataclasses.replace(inst, tol=TAU) for inst in pair_suite]
    bad = []
    for inst in suite:
        sets = [set(gp.enumerate_proximity_set(inst, e).members)
                for e in ladder]
        for small, large, e in zip(sets, sets[1:], ladder):
            if not small <= large:
                bad.append((inst.name, e))
    for inst in pair_suite:
        sets = [set(gp.enumerate_pair_set(inst, e).members)
                for e in ladder]
        for small, large, e in zip(sets, sets[1:], ladder):
            if not small <= large:
                bad.append((inst.name, e))
    report(9, "proximity sets monotone in epsilon", bad)


def test_criterion_10_minimizer_nonexpansive():
    bad = []
    for seed in range(50):
        inst = dataclasses.replace(gp.reflection_instance(seed, n=10 + seed % 15), tol=TAU)
        if not gp.is_edge_nonexpansive(inst):
            bad.append((seed, "not nonexpansive"))
            continue
        rep = gp.minimizer_report(inst)
        if rep.residual < -TAU:
            bad.append((seed, "negative residual", rep.residual))
        members = gp.enumerate_proximity_set(inst, max(rep.residual, 0.0) + TAU).members
        if not members:
            bad.append((seed, "empty set at minimizer level"))
    report(10, "minimizer residual and nonempty level set", bad)


def test_criterion_11_alternating_bound():
    bad = []
    runs = []
    seg = dataclasses.replace(gp.segments_example(0.01), tol=TAU)
    runs.append((seg, (0.0, 0.0), (1.0, 1.0), 0.0))
    for i in range(20):
        factor = 0.05 + 0.04 * i
        shift = 0.02 * i
        if shift > 1.0 - factor:
            shift = 1.0 - factor
        inst = dataclasses.replace(gp.affine_segments_pair(factor, shift, 0.02), tol=TAU)
        x1 = (round(0.02 * (i % 40), 10), 0.0)
        y1 = (round(1.0 - 0.02 * (i % 40), 10), 1.0)
        runs.append((inst, x1, y1, factor))
    for inst, x1, y1, alpha in runs:
        cfg = gp.SolveConfig(1e-3, 400)
        res = gp.two_map_alternating(inst, x1, y1, alpha, 1.0 - alpha, cfg)
        if not res.found:
            bad.append((inst.name, alpha, res.status))
            continue
        dab = inst.d_ab
        d0 = inst.space.distance(x1, y1)
        for n, r in enumerate(res.trace.residuals):
            bound = alpha ** n * d0 + (1.0 - alpha ** n) * dab
            if r + dab > bound + TAU:
                bad.append((inst.name, alpha, n, r + dab, bound))
    report(11, "alternating scheme geometric bound", bad)


def test_criterion_12_determinism(tmp_path):
    path = tmp_path / "seeded.gpx"
    gp.save_instance(gp.random_instance(21, 12, 12, graph_rule="random:0.6"),
                     path)
    commands = [
        ["classify", str(path)],
        ["solve", str(path), "--epsilon", "0.3"],
        ["enumerate", str(path), "--epsilon", "0.2"],
        ["demo", "interval"],
        ["demo", "segments", "--grid-step", "0.02"],
    ]
    bad = []
    for argv in commands:
        first = run_cli(argv)
        second = run_cli(argv)
        if first != second:
            bad.append(argv)
    report(12, "seeded commands byte-identical", bad)
