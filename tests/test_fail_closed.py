"""Fail closed: malformed instance files and argument values end in exit 0, 1
or 2 with no exception escaping, and exit 2 carries exactly one ``error:``
line."""
import contextlib
import dataclasses
import io
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gproximity as gp
from gproximity.cli import main
from gproximity.errors import DomainError, GproximityError, ParseError, SpecError

NAN = float("nan")

#: Small seeded tabulated instances: complete and explicit graphs, one map
#: and a map pair.
BASES = (gp.dumps(gp.random_instance(1, 3, 3)),
         gp.dumps(gp.random_instance(2, 2, 3, graph_rule="random:0.5")),
         gp.dumps(gp.contraction_instance(3, rays=2, depth=1)),
         gp.dumps(gp.identity_pair_instance(4, n=3)))
TOKENS = ("-1", "nan", "inf", "1e309", "n", "")
VALUES = ("nan", "inf", "-1", "0")

#: argv builders (single-map file, pair file, value): one per float option,
#: --max-iter and --start.
ARG_CASES = (
    lambda f, p, v: [f"--tol={v}", "validate", f],
    lambda f, p, v: [f"--tol={v}", "classify", f],
    lambda f, p, v: ["classify", f, f"--alpha={v}"],
    lambda f, p, v: ["classify", f, f"--crr-grid={v}"],
    lambda f, p, v: ["solve", f, f"--epsilon={v}"],
    lambda f, p, v: ["solve", f, f"--max-iter={v}"],
    lambda f, p, v: ["enumerate", f, f"--epsilon={v}"],
    lambda f, p, v: ["solve", p, "--mode=alternating", "--alpha=0.5", f"--gamma={v}"],
    lambda f, p, v: ["solve", p, "--mode=alternating", f"--alpha={v}", "--gamma=0.5"],
    lambda f, p, v: ["demo", "interval", f"--grid-step={v}"],
    lambda f, p, v: ["solve", f, f"--start={v}"],
    lambda f, p, v: ["solve", p, "--mode=parallel", f"--start-b={v}"],
)


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def error_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith("error:")]


def assert_fails_closed(argv):
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert len(error_lines(out + err)) == 1, (argv, out, err)


@st.composite
def mutated_files(draw):
    """A dumps text with one line dropped or duplicated, or one of its
    tokens replaced."""
    lines = draw(st.sampled_from(BASES)).splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("drop", "duplicate", "token")))
    if how == "drop":
        del lines[k]
    elif how == "duplicate":
        lines.insert(k, lines[k])
    else:
        tokens = lines[k].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fail-closed")
    single, pair = root / "single.gpx", root / "pair.gpx"
    single.write_text(BASES[2], encoding="utf-8")
    pair.write_text(BASES[3], encoding="utf-8")
    return root, str(single), str(pair)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(st.just("file"), mutated_files(),
              st.sampled_from(("validate", "classify", "solve", "enumerate"))),
    st.tuples(st.just("args"), st.sampled_from(ARG_CASES), st.sampled_from(VALUES))))
def test_cli_fails_closed(files, case):
    root, single, pair = files
    kind, first, second = case
    if kind == "file":
        path = root / "mutated.gpx"
        path.write_text(first, encoding="utf-8")
        assert_fails_closed([second, str(path)])
    else:
        assert_fails_closed(first(single, pair, second))


@pytest.mark.parametrize("command", ["validate", "classify", "solve", "enumerate"])
def test_huge_point_count_is_a_short_file(tmp_path, command):
    """A header claiming 10^9 points ends, like any short file, at its last
    line, before any n x n matrix is built."""
    path = tmp_path / "huge.gpx"
    path.write_text("gproximity-instance v1\nname: huge\nkind: tabulated\nn: 1000000000\n"
                    "A: 0\nB: 1\ngraph: complete\nmap: none\ndist:\nrow: 1.0\n",
                    encoding="utf-8")
    code, out, err = run_main([command, str(path)])
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: line 11: unexpected end of file"]


@pytest.mark.parametrize("name", ["interval", "ellipse", "segments"])
def test_tiny_grid_step_is_one_error_line(name):
    """The builder refuses a grid too fine to lay out before allocating it."""
    code, out, err = run_main(["demo", name, "--grid-step", "1e-300"])
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: grid step 1e-300 lays out more than 10000000 samples"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option, argv", [
    ("--tol", ["validate", "{single}"]),
    ("--alpha", ["classify", "{single}"]),
    ("--crr-grid", ["classify", "{single}"]),
    ("--epsilon", ["solve", "{single}"]),
    ("--epsilon", ["enumerate", "{single}"]),
    ("--gamma", ["solve", "{pair}", "--mode=alternating", "--alpha=0.5"]),
    ("--grid-step", ["demo", "interval"]),
])
def test_non_finite_float_option_is_usage_error(files, option, argv, value):
    _root, single, pair = files
    argv = [a.format(single=single, pair=pair) for a in argv] + [f"{option}={value}"]
    if option == "--tol":
        argv.insert(0, argv.pop())
    code, out, err = run_main(argv)
    errors = error_lines(err)
    assert code == 2
    assert len(errors) == 1 and option in errors[0]
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("option, argv", [
    ("--crr-grid", ["classify", "{single}", "--crr-grid=0"]),
    ("--crr-grid", ["classify", "{single}", "--crr-grid=-1"]),
    ("--alpha", ["classify", "{single}", "--alpha=0"]),
    ("--alpha", ["classify", "{single}", "--alpha=1.5"]),
    ("--epsilon", ["solve", "{single}", "--epsilon=-1"]),
    ("--epsilon", ["solve", "{single}", "--epsilon=0"]),
    ("--epsilon", ["enumerate", "{single}", "--epsilon=-1"]),
    ("--max-iter", ["solve", "{single}", "--max-iter=0"]),
    ("--max-iter", ["solve", "{single}", "--max-iter=-3"]),
    ("--tol", ["--tol=-1", "validate", "{single}"]),
    ("--tol", ["--tol=-1", "classify", "{single}"]),
])
def test_out_of_domain_option_is_usage_error(files, option, argv):
    _root, single, _pair = files
    code, out, err = run_main([a.format(single=single) for a in argv])
    errors = error_lines(err)
    assert code == 2
    assert len(errors) == 1 and option in errors[0]
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "{single}", "--epsilon=0"],
    ["solve", "{single}", "--max-iter=1"],
    ["--tol=0", "classify", "{single}", "--alpha=0.5"],
    ["solve", "{pair}", "--mode=alternating", "--alpha=0", "--gamma=1"],
])
def test_domain_edges_stay_accepted(files, argv):
    _root, single, pair = files
    code, _out, err = run_main([a.format(single=single, pair=pair) for a in argv])
    assert code in (0, 1) and not error_lines(err)


@pytest.mark.parametrize("call", [
    lambda: gp.crr_params_feasible(gp.contraction_instance(3), NAN),
    lambda: gp.crr_params_feasible(gp.contraction_instance(3), math.inf),
    lambda: gp.SolveConfig(NAN),
    lambda: gp.enumerate_proximity_set(gp.contraction_instance(3), NAN),
    lambda: gp.enumerate_pair_set(gp.identity_pair_instance(4, n=3), NAN),
    lambda: gp.validate_metric(gp.contraction_instance(3).space, NAN),
    lambda: gp.interval_example(NAN),
    lambda: gp.ellipse_example(NAN),
    lambda: gp.segments_example(NAN),
    lambda: gp.CrrParams(NAN, 0.0, 0.0),
    lambda: gp.CrrParams(0.0, 0.0, NAN),
])
def test_library_guards_reject_nan(call):
    with pytest.raises(GproximityError):
        call()


def coordinate_file(builder, args):
    return (f"gproximity-instance v1\nname: x\nkind: coordinate\nbuilder: {builder}\n"
            + "".join(f"arg: {a}\n" for a in args))


#: Builder arguments at the extremes: (builder, file args, the builder's
#: message, demo argv and its message, or None).  A step longer than the
#: grid's length leaves no step to lay out; the demo refuses a non-finite
#: step before any builder runs, and has no affine-segments example.
EXTREME_ARGS = [
    ("ellipse", ["grid_step=inf"], "grid step inf exceeds the length 3.0",
     (["demo", "ellipse", "--grid-step=inf"],
      "argument --grid-step: must be a finite number, got inf")),
    ("ellipse", ["grid_step=1e200"], "grid step 1e+200 exceeds the length 3.0",
     (["demo", "ellipse", "--grid-step=1e200"], "grid step 1e+200 exceeds the length 3.0")),
    ("interval", ["grid_step=1e200"], "grid step 1e+200 exceeds the length 2.0",
     (["demo", "interval", "--grid-step=1e200"], "grid step 1e+200 exceeds the length 2.0")),
    ("segments", ["grid_step=1e200"], "grid step 1e+200 exceeds the length 1.0",
     (["demo", "segments", "--grid-step=1e200"], "grid step 1e+200 exceeds the length 1.0")),
    ("affine-segments", ["factor=0.5", "shift=inf"], "shift must be finite, got inf", None),
    ("affine-segments", ["factor=0.5", "shift=nan"], "shift must be finite, got nan", None),
]


def usage_errors(argv):
    """The ``error:`` lines of a CLI call that must end in exit 2, without
    a report or a traceback, within a second."""
    started = time.perf_counter()
    code, out, err = run_main(argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == "" and "Traceback" not in err
    return error_lines(err)


@pytest.mark.parametrize("builder, args, message, demo", EXTREME_ARGS)
def test_extreme_builder_argument_is_one_error_line(tmp_path, builder, args, message, demo):
    path = tmp_path / "extreme.gpx"
    path.write_text(coordinate_file(builder, args), encoding="utf-8")
    assert usage_errors(["validate", str(path)]) == [
        f"error: line 4: builder {builder!r} rejects its arguments: {message}"]
    if demo is not None:
        argv, demo_message = demo
        assert usage_errors(argv) == [f"error: {demo_message}"]


def test_extreme_shift_is_refused_by_the_library():
    for shift in (math.inf, -math.inf, NAN):
        with pytest.raises(SpecError, match="shift must be finite"):
            gp.affine_segments_pair(0.5, shift)


@pytest.mark.parametrize("step", ["5e-324", "1e-3", "0.0044"])
def test_too_fine_crr_grid_is_one_error_line(files, step):
    """A constants grid of more than a million candidates is refused before
    any is laid out, by the CLI and the library alike."""
    _root, single, _pair = files
    assert usage_errors(["classify", single, "--crr-grid", step]) == [
        "error: argument --crr-grid: must be positive, with at most 1000000 grid candidates, "
        f"got {float(step)!r}"]
    started = time.perf_counter()
    with pytest.raises(DomainError, match="with at most 1000000 grid candidates"):
        gp.crr_params_feasible(gp.contraction_instance(3), float(step))
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("step", ["0.01", "0.0045"])
def test_fine_crr_grid_stays_accepted(files, step):
    _root, single, _pair = files
    code, out, err = run_main(["classify", single, "--crr-grid", step])
    assert code in (0, 1) and not error_lines(err) and "crr-params: " in out


def dumps_replaced(base, **changes):
    return lambda: gp.dumps(dataclasses.replace(base, **changes))


#: Instances a file cannot state, by the change that makes them: the
#: seeded 8-point random-7 (random_instance(7, 4, 4)) and interval.
RANDOM_7 = gp.random_instance(7, 4, 4)
INTERVAL = gp.interval_example(0.5)
UNWRITABLE = [
    (dumps_replaced(RANDOM_7, cyclic_map=gp.CyclicMap("f", fn=lambda p: p)), SpecError,
     "tabulated instance 'random-7': a map without a table has no file form"),
    (dumps_replaced(RANDOM_7, cyclic_map=gp.CyclicMap("f", table=(0,) * 7 + (9,))), SpecError,
     "tabulated instance 'random-7': table index 9 outside 0..7"),
    (dumps_replaced(RANDOM_7, cyclic_map=gp.CyclicMap("f", table=(0, 1))), SpecError,
     "tabulated instance 'random-7': table needs 8 entries, got 2"),
    (dumps_replaced(RANDOM_7, map_pair=gp.MapPair(gp.CyclicMap("t", table=(4,) * 8),
                                                 gp.CyclicMap("s", table=(-1,) * 8))),
     SpecError, "tabulated instance 'random-7': table-s index -1 outside 0..7"),
    (dumps_replaced(RANDOM_7, sets=gp.SubsetPair((0, 9), (4, 5, 6, 7))), SpecError,
     "tabulated instance 'random-7': A index 9 outside 0..7"),
] + [
    (dumps_replaced(RANDOM_7, sets=gp.SubsetPair((0, 1), (4, entry))), SpecError,
     f"tabulated instance 'random-7': B index {entry!r} is not of type int")
    for entry in (0.5, True, np.int64(3))
] + [
    (dumps_replaced(RANDOM_7, name=name), SpecError,
     f"instance name {name!r} does not read back from a name: line, "
     "which is one line with its blanks stripped")
    for name in (" padded ", "two\nlines", "x\r", 7)
] + [
    (dumps_replaced(INTERVAL, name="foo"), SpecError,
     "coordinate instance 'foo' with arguments ('grid_step',) would load as 'interval' "
     "with arguments ('grid_step',)"),
    (dumps_replaced(INTERVAL, params=INTERVAL.params + (("bogus", 1),)), SpecError,
     "coordinate instance 'interval' with arguments ('grid_step', 'bogus') would load as "
     "'interval' with arguments ('grid_step',)"),
    (dumps_replaced(gp.affine_segments_pair(0.5, 0.25), params=(("builder", "affine-segments"),
                                                               ("factor", 0.5))),
     SpecError, "coordinate instance 'affine-segments' with arguments ('factor',) would load "
     "as 'affine-segments' with arguments ('factor', 'shift', 'grid_step')"),
]


#: A file whose table is one entry short (n = 2).
SHORT_TABLE = ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
               "graph: complete\nmap: table\ntable: 1\ndist:\nrow: 1.0\n")


@pytest.mark.parametrize("call, error, message", [
    (lambda: gp.enumerate_proximity_set(gp.contraction_instance(3), 0.1, mode="loose"),
     DomainError, "unknown mode 'loose'"),
    (lambda: gp.DirectedGraph("ring"), DomainError, "unknown graph rule 'ring'"),
    (lambda: gp.DirectedGraph(gp.EXPLICIT), DomainError, "explicit graph needs an edge set"),
    (lambda: gp.DirectedGraph("custom"), DomainError, "unknown graph rule 'custom'"),
    (lambda: gp.random_instance(1, 0, 3), SpecError, "both subsets need at least one point"),
    (lambda: gp.contraction_instance(1, rays=1), SpecError,
     "need at least two rays and one level"),
    (lambda: gp.reflection_instance(1, gap=-1.0), SpecError,
     "need n >= 1 and a nonnegative gap"),
    (lambda: gp.identity_pair_instance(1, n=1), SpecError, "need at least two points"),
    (lambda: gp.dumps(dataclasses.replace(gp.interval_example(0.5), params=())), SpecError,
     "coordinate instance 'interval' has no registered builder"),
    (lambda: gp.loads(SHORT_TABLE), ParseError, "line 9: table needs 2 entries, got 1"),
    (lambda: gp.CyclicMap("t"), DomainError, "a map needs exactly one of table / fn"),
    (lambda: gp.contraction_instance(3).require_pair(), DomainError,
     "instance 'contraction-3' has no map pair"),
    (lambda: gp.SubsetPair((), (1,)), DomainError, "subsets A and B must be nonempty"),
    (lambda: gp.crr_iteration_bound(1.0, 0.5, 0.0, 0.0), DomainError,
     "epsilon must be positive"),
    (lambda: gp.crr_iteration_bound(0.5, 0.5, 1.0, 0.1), DomainError,
     "starting displacement below d(A,B)"),
    (lambda: gp.is_gt_minimizing(gp.contraction_instance(3), None, 0, 0.1), DomainError,
     "window must be at least 1"),
    (lambda: gp.epsilon_fixed_point(gp.contraction_instance(3), 0, 0, gp.SolveConfig(0.1)),
     DomainError, "power must be at least 1"),
    (lambda: gp.two_map_alternating(gp.identity_pair_instance(4, n=3), 0, 0, 1.5, -0.5,
                                    gp.SolveConfig(0.1)),
     DomainError, "alpha must lie in [0, 1)"),
    (lambda: gp.SolveConfig(0.1, max_iter=NAN), DomainError, "max_iter must be an integer, got nan"),
    (lambda: gp.SolveConfig(0.1, max_iter=2.5), DomainError, "max_iter must be an integer, got 2.5"),
    (lambda: gp.picard_orbit(gp.contraction_instance(3), 0, NAN), DomainError,
     "orbit length must be an integer, got nan"),
    (lambda: gp.picard_orbit(gp.contraction_instance(3), 0, 2.5), DomainError,
     "orbit length must be an integer, got 2.5"),
    (lambda: gp.epsilon_fixed_point(gp.contraction_instance(3), 0, NAN, gp.SolveConfig(0.1)),
     DomainError, "power must be an integer, got nan"),
    (lambda: gp.is_gt_minimizing(gp.contraction_instance(3), None, NAN, 0.1), DomainError,
     "window must be an integer, got nan"),
] + UNWRITABLE)
def test_library_raise_names_its_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("args", [
    (NAN, 0.5, 0.0, 0.1), (1.0, 0.5, NAN, 0.1), (1.0, 0.5, 0.0, NAN),
    (math.inf, 0.5, 0.0, 0.1), (1.0, 0.5, 0.0, 0.1, NAN), (1.0, 0.5, 0.0, 0.1, -1.0),
])
def test_crr_iteration_bound_rejects_non_finite(args):
    """d0, d(A,B), epsilon and tol: a NaN or an infinity, or a negative tol,
    is a DomainError, not a ValueError from the logarithms or a bound."""
    with pytest.raises(DomainError):
        gp.crr_iteration_bound(*args)


def test_short_table_is_one_error_line(tmp_path):
    path = tmp_path / "short.gpx"
    path.write_text(SHORT_TABLE, encoding="utf-8")
    code, out, err = run_main(["validate", str(path)])
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: line 9: table needs 2 entries, got 1"]


NOT_UTF8 = b"gproximity-instance v1\nname: x\xff\n"


@pytest.mark.parametrize("command", ["validate", "classify", "solve", "enumerate"])
def test_file_that_is_not_utf8_is_one_error_line(tmp_path, command):
    """An undecodable byte is a parse error on its line, not a
    UnicodeDecodeError; the library's load_instance raises the same."""
    path = tmp_path / "latin.gpx"
    path.write_bytes(NOT_UTF8)
    message = "line 2: not UTF-8 text: invalid start byte at byte 30"
    assert usage_errors([command, str(path)]) == [f"error: {message}"]
    with pytest.raises(ParseError, match=message):
        gp.load_instance(path)


#: One CLI call in a fresh interpreter; prints its exit code and the
#: package's and numpy's modules loaded by then.
REJECT_PROCESS = """
import sys
from gproximity.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m for m in sys.modules if m == "numpy" or m.startswith("gproximity")))
"""

#: Modules a rejected input may load: none of them imports numpy.
READER_MODULES = ["gproximity", "gproximity._constants", "gproximity._reader",
                  "gproximity.cli", "gproximity.errors"]

#: Rejected inputs: the file's text (None: no file) and the argv before its path.
REJECTED = {
    "oob": ("gproximity-instance v1\nname: oob\nkind: tabulated\nn: 2\nA: 0\nB: 5\n"
            "graph: complete\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n", ["classify"]),
    "nan": ("gproximity-instance v1\nname: nan\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
            "graph: complete\nmap: table\ntable: 1 0\ndist:\nrow: nan\n", ["validate"]),
    "builder-arg": (coordinate_file("interval", ["bogus=1"]), ["classify"]),
    "not-utf8": (NOT_UTF8, ["validate"]),
    "missing": (None, ["solve"]),
    "tol-nan": (BASES[0], ["--tol", "nan", "classify"]),
    "alternating-without-constants": (BASES[3], ["solve", "--mode=alternating"]),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_imports_no_numpy(tmp_path, case):
    """A rejected file or option ends in exit 2 and one error: line, before
    numpy or any numeric module of the package is imported."""
    text, argv = REJECTED[case]
    path = tmp_path / f"{case}.gpx"
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = subprocess.run([sys.executable, "-c", REJECT_PROCESS, *argv, str(path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2", *READER_MODULES]
    assert len(error_lines(out.stderr)) == 1 and "Traceback" not in out.stderr


def test_package_import_defers_the_api():
    """``import gproximity`` loads no numpy; the first public name loads
    every module of the API, as the eager import did."""
    probe = ("import sys, gproximity as gp\n"
             "print('numpy' in sys.modules)\n"
             "gp.loads\n"
             "print(all(f'gproximity.{m}' in sys.modules for m in gp._API), 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True", "True"]
