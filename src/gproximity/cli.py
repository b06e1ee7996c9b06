"""Command-line front end.

Reports are plain ``key: value`` lines on stdout with a stable grammar, so
identical invocations produce byte-identical output; timing goes to stderr.
Exit codes: 0 success, 1 domain or negative result, 2 usage/parse errors.

The options and the whole instance file are checked before numpy or any
numeric module is imported: each command imports the modules it needs once
its input is accepted, so a rejected input costs a process only the
interpreter, argparse and the file reader.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from typing import TYPE_CHECKING

from ._constants import DEFAULT_TOL, MAX_CRR_CANDIDATES, STRICT, VACUOUS, crr_grid_fits
from ._reader import read_file
from .errors import (ClassificationError, DomainError, GproximityError,
                     HypothesisError, OrbitError, ParseError)

if TYPE_CHECKING:
    from .maps import Instance
    from .solver import SolveConfig, SolveResult

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

_CRR_GRID = 0.05  # the constants search of classify and demo
_BOUND_CRR_GRID = 0.1  # the constants behind the a-priori iteration bound


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _fmt_point(p) -> str:
    if isinstance(p, tuple):
        return "(" + ", ".join(repr(float(c)) for c in p) + ")"
    return str(p)


def _fmt_pair(pair) -> str:
    return _fmt_point(pair[0]) + " | " + _fmt_point(pair[1])


def _fmt_edge(edge) -> str:
    return _fmt_point(edge[0]) + " -> " + _fmt_point(edge[1])


class Report:
    def __init__(self):
        self.lines = []

    def add(self, key, value):
        self.lines.append(f"{key}: {value}")

    def section(self, name):
        self.lines.append(f"[{name}]")

    def finish(self, code: int) -> int:
        """Close the report with its exit status, print it and return the code."""
        self.add("exit-status", code)
        sys.stdout.write("\n".join(self.lines) + "\n")
        return code


def _load(args) -> Instance:
    """The instance file, read and checked whole, then built at ``--tol``."""
    try:
        spec = read_file(args.instance)
        from .instances import build
        inst = build(spec)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    from dataclasses import replace
    return replace(inst, tol=args.tol)


def _parse_start(inst: Instance, text: str):
    from .metric import TabulatedSpace
    try:
        if isinstance(inst.space, TabulatedSpace):
            index = int(text)
            if not 0 <= index < inst.space.n:
                raise ValueError(f"index outside 0..{inst.space.n - 1}")
            return index
        coords = tuple(float(tok) for tok in text.split(","))
        if len(coords) != inst.space.dimension:
            raise ValueError(f"expected {inst.space.dimension} coordinates")
        if not all(map(math.isfinite, coords)):
            raise ValueError("coordinates must be finite")
        return coords
    except ValueError as exc:
        print(f"error: bad start point {text!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _report(inst: Instance, args) -> Report:
    rep = Report()
    rep.add("command", args.command)
    rep.add("instance", inst.name)
    rep.add("kind", inst.kind)
    rep.add("points", len(inst.points))
    rep.add("tolerance", _fmt(inst.tol))
    return rep


def _validation_block(rep: Report, inst: Instance) -> bool:
    from .graph import validate_graph
    from .metric import validate_metric, validate_sets
    from .operators import validate_cyclic, validate_pair
    reports = [("metric", validate_metric(inst.space, inst.tol)),
               ("sets", validate_sets(inst.space, inst.sets)),
               ("graph", validate_graph(inst.graph, inst.points))]
    if inst.map_pair is not None:
        reports.append(("cyclic", validate_pair(inst)))
    elif inst.cyclic_map is not None:
        reports.append(("cyclic", validate_cyclic(inst)))
    ok = True
    for label, report in reports:
        rep.add(f"{label}-valid", _fmt(report.ok))
        for v in report.violations:
            rep.add(f"{label}-violation", str(v))
            ok = False
        if report.omitted:
            rep.add(f"{label}-violations-omitted", report.omitted)
    return ok


def cmd_validate(args) -> int:
    inst = _load(args)
    rep = _report(inst, args)
    ok = _validation_block(rep, inst)
    return rep.finish(EXIT_OK if ok else EXIT_NEGATIVE)


def _classify_block(rep: Report, inst: Instance, args) -> int:
    from .operators import (crr_params_feasible, is_edge_nonexpansive, is_g_contraction,
                            min_contraction_factor, pair_preserves_edges)
    rep.add("d(A,B)", _fmt(inst.d_ab))
    if inst.map_pair is not None:
        ok, edge = pair_preserves_edges(inst)
        rep.add("pair-preserves-edges", _fmt(ok))
        if not ok:
            rep.add("violating-edge", _fmt_edge(edge))
        return EXIT_OK if ok else EXIT_NEGATIVE
    try:
        est = min_contraction_factor(inst)
    except ClassificationError as exc:
        rep.add("classification-error", str(exc))
        return EXIT_NEGATIVE
    if est.contractive:
        rep.add("contraction-factor", _fmt(est.alpha_min))
    else:
        rep.add("contraction-factor", "not-contractive")
        rep.add("worst-ratio", _fmt(est.alpha_min))
    if est.worst_edge is not None:
        rep.add("worst-edge", _fmt_edge(est.worst_edge))
    nonexp = is_edge_nonexpansive(inst)
    rep.add("nonexpansive", _fmt(nonexp.ok))
    if args.alpha is not None:
        chk = is_g_contraction(inst, args.alpha)
        rep.add(f"g-contraction({_fmt(args.alpha)})", _fmt(chk.ok))
        if not chk.ok:
            rep.add("contraction-worst-edge", _fmt_edge(chk.worst_edge))
    params = crr_params_feasible(inst, args.crr_grid)
    if params is None:
        rep.add("crr-params", "none")
    else:
        rep.add("crr-params",
                f"alpha={_fmt(params.alpha)} beta={_fmt(params.beta)} gamma={_fmt(params.gamma)}")
        rep.add("crr-rate-k", _fmt(params.k))
    return EXIT_OK


def cmd_classify(args) -> int:
    inst = _load(args)
    rep = _report(inst, args)
    return rep.finish(_classify_block(rep, inst, args))


def cmd_solve(args) -> int:
    if args.mode == "alternating" and (args.alpha is None or args.gamma is None):
        print("error: alternating mode needs --alpha and --gamma", file=sys.stderr)
        return EXIT_USAGE
    inst = _load(args)
    from .solver import (SolveConfig, find_proximity_point, two_map_alternating,
                         two_map_parallel)
    rep = _report(inst, args)
    rep.add("mode", args.mode)
    rep.add("epsilon", _fmt(args.epsilon))
    cfg = SolveConfig(args.epsilon, args.max_iter)
    try:
        x0 = _parse_start(inst, args.start) if args.start is not None else inst.sets.a[0]
        if args.mode == "single":
            rep.add("start", _fmt_point(x0))
            result = find_proximity_point(inst, x0, cfg)
            _solve_report(rep, inst, result, cfg)
        else:
            y0 = _parse_start(inst, args.start_b) if args.start_b is not None else inst.sets.b[0]
            rep.add("start", _fmt_point(x0))
            rep.add("start-b", _fmt_point(y0))
            if args.mode == "parallel":
                result = two_map_parallel(inst, x0, y0, cfg)
            else:
                result = two_map_alternating(inst, x0, y0, args.alpha, args.gamma, cfg)
            _trace_report(rep, result, _fmt_pair)
            for n, b in enumerate(result.bounds or ()):  # the alternating scheme's
                rep.add("gap-bound", f"{n} {_fmt(b)}")
    except (DomainError, OrbitError, HypothesisError) as exc:
        rep.add("error", str(exc))
        return rep.finish(EXIT_NEGATIVE)
    return rep.finish(EXIT_OK if result.found else EXIT_NEGATIVE)


_STEP_PREVIEW = 12


def _trace_report(rep: Report, result: SolveResult, fmt):
    rep.add("status", result.status)
    rep.add("iterations", result.iterations)
    res = result.trace.residuals
    for n, r in enumerate(res[:_STEP_PREVIEW]):
        rep.add("step", f"{n} {fmt(result.trace.points[n])} residual={_fmt(r)}")
    if len(res) > _STEP_PREVIEW:
        rep.add("steps-truncated", len(res) - _STEP_PREVIEW)
    if result.witness is not None:
        rep.add("witness", fmt(result.witness))


def _solve_report(rep: Report, inst: Instance, result: SolveResult, cfg: SolveConfig):
    from .operators import crr_params_feasible
    from .solver import crr_iteration_bound
    _trace_report(rep, result, _fmt_point)
    # the a-priori bound needs CRR constants, which need edge preservation
    if result.found and inst.engine.preserved[0]:
        params = crr_params_feasible(inst, _BOUND_CRR_GRID)
        if params is not None:
            d0 = result.trace.residuals[0] + inst.d_ab
            bound = crr_iteration_bound(d0, params.k, inst.d_ab, cfg.epsilon, inst.tol)
            rep.add("crr-iteration-bound", bound)


_MEMBER_PREVIEW = 20


def _members_report(rep: Report, s, fmt) -> int:
    size = s.positions.shape[-1]
    rep.add("set-size", size)
    for m in s.decode(s.positions[..., :_MEMBER_PREVIEW]):  # only the printed members
        rep.add("member", fmt(m))
    if size > _MEMBER_PREVIEW:
        rep.add("members-truncated", size - _MEMBER_PREVIEW)
    return size


def _enumerate_block(rep: Report, inst: Instance, epsilon: float, mode: str) -> int:
    from .analysis import (contraction_diam_bound, enumerate_pair_set,
                           enumerate_proximity_set, pair_diameter, proximity_diameter)
    from .operators import min_contraction_factor
    rep.add("epsilon", _fmt(epsilon))
    dab = inst.d_ab
    rep.add("d(A,B)", _fmt(dab))
    if inst.map_pair is not None:
        pset = enumerate_pair_set(inst, epsilon)
        size = _members_report(rep, pset, _fmt_pair)
        if size:
            rep.add("pair-diameter", _fmt(pair_diameter(inst, pset)))
        return size
    ps = enumerate_proximity_set(inst, epsilon, mode=mode)
    rep.add("mode", mode)
    size = _members_report(rep, ps, _fmt_point)
    if size:
        rep.add("set-diameter", _fmt(proximity_diameter(inst, ps)))
        try:
            est = min_contraction_factor(inst, verdict_only=True)
        except ClassificationError:
            est = None
        if est is not None:
            bound = contraction_diam_bound(est.alpha_min, epsilon, dab)
            rep.add("contraction-diam-bound", _fmt(bound))
    return size


def cmd_enumerate(args) -> int:
    inst = _load(args)
    rep = _report(inst, args)
    size = _enumerate_block(rep, inst, args.epsilon, args.mode)
    return rep.finish(EXIT_NEGATIVE if (args.require_nonempty and size == 0) else EXIT_OK)


def cmd_demo(args) -> int:
    if args.name not in ("interval", "ellipse", "segments"):
        print(f"error: unknown demo {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    from dataclasses import replace

    from .instances import _BUILDERS
    from .solver import SolveConfig, find_proximity_point, two_map_alternating, two_map_parallel
    builder = _BUILDERS[args.name]
    try:
        inst = builder() if args.grid_step is None else builder(args.grid_step)
        step = dict(inst.params)["grid_step"]
        inst = replace(inst, tol=args.tol)
    except GproximityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rep = _report(inst, args)
    rep.add("grid-step", _fmt(step))
    rep.section("validate")
    ok = _validation_block(rep, inst)
    rep.section("classify")
    _classify_block(rep, inst, args)
    cfg = SolveConfig(0.3, 200)
    if args.name != "segments":
        rep.section("solve")
        # ellipse: reflection across the y-axis, only minor-axis points make progress
        start = (-3.0,) if args.name == "interval" else (0.0, 0.0)
        rep.add("start", _fmt_point(start))
        rep.add("epsilon", _fmt(0.3))
        result = find_proximity_point(inst, start, cfg)
        _solve_report(rep, inst, result, cfg)
        if args.name == "interval":
            rep.section("enumerate-exact")
            _enumerate_block(rep, inst, 0.0, STRICT)
        rep.section("enumerate")
        _enumerate_block(rep, inst, 0.3 if args.name == "interval" else 0.01, STRICT)
    else:
        rep.section("solve-parallel")
        x0, y0 = inst.sets.a[0], inst.sets.b[-1]
        rep.add("start", _fmt_point(x0))
        rep.add("start-b", _fmt_point(y0))
        pcfg = SolveConfig(0.01, 50)
        result = two_map_parallel(inst, x0, y0, pcfg)
        _trace_report(rep, result, _fmt_pair)
        rep.section("solve-alternating")
        result = two_map_alternating(inst, (0.0, 0.0), (1.0, 1.0), 0.0, 1.0, pcfg)
        _trace_report(rep, result, _fmt_pair)
        rep.section("enumerate")
        _enumerate_block(rep, inst, 0.01, STRICT)
    return rep.finish(EXIT_OK if ok else EXIT_NEGATIVE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one ``error:`` line, as every usage error
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _number(kind, test=None, domain=None):
    """An argparse ``type=`` for a finite ``kind`` value inside ``domain``
    (checked by ``test``); a rejected value is one usage error naming the
    option."""
    def convert(text):
        value = kind(text)
        if not -math.inf < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number, got {value!r}")
        if test is not None and not test(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {value!r}")
        return value
    convert.__name__ = kind.__name__  # argparse's "invalid float value" names it
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gproximity",
        description="Approximate best proximity pairs on graph-endowed metric spaces")
    parser.add_argument("--tol", type=_number(float, lambda v: v >= 0, "nonnegative"),
                        default=DEFAULT_TOL, help="absolute comparison slack (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check metric, graph and cyclicity axioms")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="classify the map against the operator classes")
    p.add_argument("instance")
    p.add_argument("--alpha", type=_number(float, lambda v: 0 < v < 1, "in (0, 1)"),
                   default=None, help="also test the contraction condition at this factor")
    grid_domain = f"positive, with at most {MAX_CRR_CANDIDATES} grid candidates"
    p.add_argument("--crr-grid", type=_number(float, crr_grid_fits, grid_domain),
                   default=_CRR_GRID, help="grid resolution for the constants search")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="run an iteration scheme")
    p.add_argument("instance")
    p.add_argument("--mode", choices=["single", "parallel", "alternating"],
                   default="single")
    p.add_argument("--start", default=None,
                   help="start point: index, or comma-separated coordinates")
    p.add_argument("--start-b", default=None, help="second start point for pair modes")
    p.add_argument("--epsilon", type=_number(float, lambda v: v > 0, "positive"),
                   default=0.1)
    p.add_argument("--max-iter", type=_number(int, lambda v: v >= 1, "at least 1"),
                   default=1000)
    p.add_argument("--alpha", type=_number(float), default=None)
    p.add_argument("--gamma", type=_number(float), default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("enumerate", help="brute-force the approximate proximity set")
    p.add_argument("instance")
    p.add_argument("--epsilon", type=_number(float, lambda v: v >= 0, "nonnegative"),
                   default=0.1)
    p.add_argument("--mode", choices=[STRICT, VACUOUS], default=STRICT)
    p.add_argument("--require-nonempty", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("demo", help="reproduce a worked example end to end")
    p.add_argument("name")
    p.add_argument("--grid-step", type=_number(float), default=None)  # builders check the rest
    p.set_defaults(func=cmd_demo, alpha=None, crr_grid=_CRR_GRID)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except GproximityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_NEGATIVE
    print(f"elapsed-seconds: {time.perf_counter() - started:.3f}", file=sys.stderr)
    return code
