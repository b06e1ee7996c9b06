"""Command-line reports: exit codes, grammar, determinism."""
import os
import subprocess
import sys

import numpy as np
import pytest

import gproximity as gp
from gproximity import cli
from gproximity.cli import main


@pytest.fixture()
def saved_instance(tmp_path):
    path = tmp_path / "inst.gpx"
    gp.save_instance(gp.random_instance(7, 10, 10), path)
    return str(path)


@pytest.fixture()
def contraction_file(tmp_path):
    path = tmp_path / "ring.gpx"
    gp.save_instance(gp.contraction_instance(3), path)
    return str(path)


BROKEN = """gproximity-instance v1
name: broken
kind: tabulated
n: 3
A: 0
B: 1 2
graph: edges 1
edge: 0 1
map: table
table: 1 0 1
dist:
row: 1.0
row: 5.0 1.0
"""

MAPLESS = """gproximity-instance v1
name: bare
kind: tabulated
n: 2
A: 0
B: 1
graph: complete
map: none
dist:
row: 1.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def keys(out):
    return [line.split(":", 1)[0] for line in out.splitlines()]


class TestValidate:
    def test_clean_instance(self, capsys, saved_instance):
        code, out = run(capsys, "validate", saved_instance)
        assert code == 0
        assert "metric-valid: true" in out
        assert "cyclic-valid: true" in out

    def test_violations_listed(self, capsys, tmp_path):
        # d(0,2) = 5 breaks the triangle inequality, the edge list lacks the
        # diagonal, and the map sends B-point 2 to B-point 1
        code, out = run(capsys, "validate", write(tmp_path, "broken.gpx", BROKEN))
        assert code == 1
        lines = out.splitlines()
        assert [ln for ln in lines if ln.startswith("metric-violation: ")] == [
            "metric-violation: triangle at (0, 1, 2): d(0,2) = 5.0 > d(0,1) + d(1,2) = 2.0",
            "metric-violation: triangle at (2, 1, 0): d(2,0) = 5.0 > d(2,1) + d(1,0) = 2.0"]
        assert [ln for ln in lines if ln.startswith("graph-violation: ")] == [
            f"graph-violation: diagonal at ({p},): diagonal incomplete at {p}" for p in range(3)]
        assert [ln for ln in lines if ln.startswith("cyclic-violation: ")] == [
            "cyclic-violation: cyclic at (2,): image 1 of B-point is not in A"]
        assert "exit-status: 1" in lines

    def test_violations_past_the_first_thousand_are_counted(self, capsys, tmp_path):
        """A symmetric table of random distances breaks the triangle
        inequality thousands of times: 1,000 lines name the first, and one
        ``metric-violations-omitted`` line counts the rest."""
        rng = np.random.default_rng(3)
        d = np.triu(rng.uniform(0.0, 1.0, size=(30, 30)), k=1)
        d += d.T
        inst = gp.Instance("noisy", gp.TabulatedSpace(d),
                           gp.SubsetPair(tuple(range(15)), tuple(range(15, 30))), gp.complete_graph())
        path = tmp_path / "noisy.gpx"
        gp.save_instance(inst, path)
        triangles = np.count_nonzero(d[:, None, :] - (d[:, :, None] + d[None, :, :]) > gp.DEFAULT_TOL)
        code, out = run(capsys, "validate", str(path))
        lines = out.splitlines()
        assert code == 1 and triangles > 1000
        assert sum(ln.startswith("metric-violation: triangle ") for ln in lines) == 1000
        assert lines[lines.index("metric-valid: false") + 1001] == (
            f"metric-violations-omitted: {triangles - 1000}")

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["validate", str(tmp_path / "nope.gpx")])
        assert err.value.code == 2


class TestClassify:
    def test_contraction_report(self, capsys, contraction_file):
        code, out = run(capsys, "classify", contraction_file)
        assert code == 0
        assert "contraction-factor: 0." in out
        assert "nonexpansive: true" in out
        assert "crr-params: alpha=" in out

    def test_alpha_probe(self, capsys, contraction_file):
        code, out = run(capsys, "classify", contraction_file, "--alpha", "0.9")
        assert "g-contraction(0.9): true" in out

    def test_pair_breaking_edge_preservation(self, capsys, tmp_path):
        # the A x B edge (0, 2) goes to (T0, T2) = (3, 0), which is no edge
        text = ("gproximity-instance v1\nname: unpreserved\nkind: tabulated\nn: 4\n"
                "A: 0 1\nB: 2 3\ngraph: edges 1\nedge: 0 2\nmap: pair\n"
                "table-t: 3 2 0 1\ntable-s: 2 2 0 0\ndist:\nrow: 1.0\nrow: 2.0 1.0\n"
                "row: 3.0 2.0 1.0\n")
        code, out = run(capsys, "classify", write(tmp_path, "pair.gpx", text))
        assert code == 1
        assert out.splitlines()[-3:] == ["pair-preserves-edges: false",
                                          "violating-edge: 0 -> 2", "exit-status: 1"]


class TestSolve:
    def test_single_mode(self, capsys, contraction_file):
        code, out = run(capsys, "--tol", "1e-9", "solve", contraction_file,
                        "--start", "1", "--epsilon", "0.05")
        assert code == 0
        assert "status: found" in out
        assert "witness:" in out
        assert "crr-iteration-bound:" in out

    def test_exhaustion_is_negative_exit(self, capsys, tmp_path):
        path = tmp_path / "refl.gpx"
        gp.save_instance(gp.reflection_instance(1), path)
        code, out = run(capsys, "solve", str(path), "--epsilon", "1e-6",
                        "--max-iter", "5")
        assert code == 1
        assert "status: exhausted" in out

    def test_long_trace_is_truncated(self, capsys, tmp_path):
        path = tmp_path / "interval.gpx"
        gp.save_instance(gp.interval_example(0.5), path)
        code, out = run(capsys, "solve", str(path), "--start=-3", "--epsilon", "1e-6",
                        "--max-iter", "20")
        lines = out.splitlines()
        assert code == 1 and "status: exhausted" in lines
        assert [ln for ln in lines if ln.startswith("step: ")][-1].startswith("step: 11 ")
        assert "steps-truncated: 9" in lines  # 21 residuals, 12 shown

    def test_witness_kept_when_edges_are_not_preserved(self, capsys, tmp_path):
        # the map breaks edge preservation, so there is no CRR bound, but the
        # found witness is still reported
        path = tmp_path / "rand.gpx"
        gp.save_instance(gp.random_instance(0, 12, 12, graph_rule="random:0.6"), path)
        code, out = run(capsys, "solve", str(path), "--epsilon", "0.3")
        assert code == 0
        assert "status: found" in out
        assert "witness: 0" in out
        assert "crr-iteration-bound" not in out

    @pytest.mark.parametrize("start", ["-1", "26", "99"])
    def test_start_index_outside_points_is_usage_error(self, capsys, contraction_file, start):
        with pytest.raises(SystemExit) as err:
            main(["solve", contraction_file, f"--start={start}", "--epsilon", "0.05"])
        captured = capsys.readouterr()
        errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
        assert err.value.code == 2
        assert len(errors) == 1 and errors[0].startswith("error: bad start point")
        assert captured.out == ""

    @pytest.mark.parametrize("builder, argv", [
        (lambda: gp.interval_example(0.5), ["--start=nan"]),
        (lambda: gp.interval_example(0.5), ["--start=inf"]),
        (lambda: gp.interval_example(0.5), ["--start=-inf"]),
        (lambda: gp.ellipse_example(0.5), ["--start=0,nan"]),
        (lambda: gp.segments_example(0.25), ["--mode=parallel", "--start-b=0,inf"]),
        (lambda: gp.segments_example(0.25), ["--mode=parallel", "--start=nan,1"]),
    ])
    def test_non_finite_start_is_usage_error(self, capsys, tmp_path, builder, argv):
        path = tmp_path / "coords.gpx"
        gp.save_instance(builder(), path)
        with pytest.raises(SystemExit) as err:
            main(["solve", str(path), *argv])
        captured = capsys.readouterr()
        errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
        assert err.value.code == 2
        assert len(errors) == 1 and errors[0].startswith("error: bad start point")
        assert captured.out == ""

    def test_start_coordinates(self, capsys, tmp_path):
        path = tmp_path / "ellipse.gpx"
        gp.save_instance(gp.ellipse_example(0.5), path)
        code, out = run(capsys, "solve", str(path), "--start", "0,0.5")
        assert code == 0
        lines = out.splitlines()
        assert "start: (0.0, 0.5)" in lines
        assert "status: found" in lines and "witness: (0.0, 0.5)" in lines
        with pytest.raises(SystemExit) as err:
            main(["solve", str(path), "--start", "0,0.5,1"])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        assert [ln for ln in captured.err.splitlines() if ln.startswith("error:")] == [
            "error: bad start point '0,0.5,1': expected 2 coordinates"]

    def test_alternating_needs_constants(self, capsys, tmp_path):
        path = tmp_path / "seg.gpx"
        gp.save_instance(gp.segments_example(0.25), path)
        code = main(["solve", str(path), "--mode", "alternating"])
        assert code == 2


class TestEnumerate:
    def test_members_listed(self, capsys, saved_instance):
        code, out = run(capsys, "enumerate", saved_instance, "--epsilon", "1")
        assert code == 0
        assert "set-size:" in out

    def test_require_nonempty(self, capsys, tmp_path):
        # line points 0, 10 (A) and 4, 6 (B): every displacement is 6 while
        # d(A,B) = 4, so the exact proximity set is empty
        import numpy as np

        coords = np.array([0.0, 10.0, 4.0, 6.0])
        inst = gp.Instance(
            "hollow", gp.TabulatedSpace(np.abs(coords[:, None] - coords[None, :])),
            gp.SubsetPair(a=(0, 1), b=(2, 3)), gp.complete_graph(),
            cyclic_map=gp.CyclicMap("swap-far", table=(3, 2, 1, 0)))
        path = tmp_path / "hollow.gpx"
        gp.save_instance(inst, path)
        code, out = run(capsys, "enumerate", str(path), "--epsilon", "0",
                        "--require-nonempty")
        assert code == 1
        assert "set-size: 0" in out


class TestMaplessFile:
    """A ``map: none`` file validates, but every command that needs the map
    ends in one ``error:`` line with exit 1."""

    def test_validate(self, capsys, tmp_path):
        code, out = run(capsys, "validate", write(tmp_path, "bare.gpx", MAPLESS))
        assert code == 0
        assert out.splitlines()[:3] == ["command: validate", "instance: bare", "kind: none"]
        assert "cyclic-valid" not in out and "exit-status: 0" in out

    @pytest.mark.parametrize("command", ["classify", "enumerate"])
    def test_map_commands_fail(self, capsys, tmp_path, command):
        code = main([command, write(tmp_path, "bare.gpx", MAPLESS)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert [ln for ln in captured.err.splitlines() if ln.startswith("error:")] == [
            "error: instance 'bare' has no single cyclic map"]

    def test_solve_reports_error(self, capsys, tmp_path):
        code, out = run(capsys, "solve", write(tmp_path, "bare.gpx", MAPLESS))
        assert code == 1
        assert out.splitlines()[-2:] == ["error: instance 'bare' has no single cyclic map",
                                         "exit-status: 1"]


#: T sends (1.0, 0.0) to (1.4, 1.0), beyond the end of B = [0, 1] x {1}.
SHIFTED = ("gproximity-instance v1\nname: shifted\nkind: coordinate\n"
           "builder: affine-segments\narg: factor=0.5\narg: shift=0.9\narg: grid_step=0.25\n")


def sections(out):
    """Report lines as {section: {key: first value}}; "" before any section."""
    found, current = {"": {}}, ""
    for line in out.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
            found[current] = {}
        else:
            key, value = line.split(": ", 1)
            found[current].setdefault(key, value)
    return found


def members(out):
    return [line for line in out.splitlines() if line.startswith("member: ")]


class TestTwoMapFile:
    """Pair files and the segments demo against the library's own results."""

    @pytest.fixture()
    def pair_file(self, tmp_path):
        path = tmp_path / "pair.gpx"
        gp.save_instance(gp.identity_pair_instance(5, n=6), path)
        return gp.load_instance(path), str(path)

    def test_validate(self, capsys, pair_file):
        inst, path = pair_file
        code, out = run(capsys, "validate", path)
        head = sections(out)[""]
        assert code == 0 and head["kind"] == "two-map"
        assert head["cyclic-valid"] == cli._fmt(gp.validate_pair(inst).ok) == "true"

    def test_segment_images_beyond_the_end_are_flagged(self, capsys, tmp_path):
        inst = gp.loads(SHIFTED)
        code, out = run(capsys, "validate", write(tmp_path, "shifted.gpx", SHIFTED))
        flagged = [ln for ln in out.splitlines() if ln.startswith("cyclic-violation: ")]
        assert code == 1 and sections(out)[""]["cyclic-valid"] == "false"
        assert len(flagged) == len(gp.validate_pair(inst).violations) == 8
        assert ("cyclic-violation: cyclic at ((1.0, 0.0),): T-image (1.4, 1.0) "
                "of A-point is not in B") in flagged

    def test_enumerate(self, capsys, pair_file):
        inst, path = pair_file
        code, out = run(capsys, "enumerate", path, "--epsilon", "0.2")
        pset = gp.enumerate_pair_set(inst, 0.2)
        head = sections(out)[""]
        assert code == 0 and 0 < len(pset.members) < 36
        assert head["set-size"] == str(len(pset.members))
        assert members(out) == [f"member: {cli._fmt_pair(m)}" for m in pset.members[:20]]
        assert head["pair-diameter"] == cli._fmt(gp.pair_diameter(inst, pset))
        assert "mode" not in head

    def test_enumerate_without_edge_preservation(self, capsys, tmp_path):
        """No contraction factor exists, so no diameter bound is reported."""
        path = write(tmp_path, "broken.gpx", BROKEN)
        inst = gp.load_instance(path)
        with pytest.raises(gp.ClassificationError):
            gp.min_contraction_factor(inst)
        code, out = run(capsys, "enumerate", path)
        ps = gp.enumerate_proximity_set(inst, 0.1)
        head = sections(out)[""]
        assert code == 0 and members(out) == ["member: 0"] == \
            [f"member: {m}" for m in ps.members]
        assert head["set-diameter"] == cli._fmt(gp.proximity_diameter(inst, ps))
        assert "contraction-diam-bound" not in head

    def test_demo_segments(self, capsys):
        code, out = run(capsys, "demo", "segments", "--grid-step", "0.25")
        inst = gp.segments_example(0.25)
        cfg = gp.SolveConfig(0.01, 50)
        found = sections(out)
        assert code == 0 and found["validate"]["cyclic-valid"] == "true"
        assert found["classify"]["pair-preserves-edges"] == "true"
        for name, result in (
                ("solve-parallel",
                 gp.two_map_parallel(inst, inst.sets.a[0], inst.sets.b[-1], cfg)),
                ("solve-alternating",
                 gp.two_map_alternating(inst, (0.0, 0.0), (1.0, 1.0), 0.0, 1.0, cfg))):
            assert found[name]["status"] == result.status == gp.FOUND
            assert found[name]["iterations"] == str(result.iterations)
            assert found[name]["witness"] == cli._fmt_pair(result.witness)
        pset = gp.enumerate_pair_set(inst, 0.01)
        assert found["enumerate"]["set-size"] == str(len(pset.members)) == "25"
        assert found["enumerate"]["pair-diameter"] == cli._fmt(gp.pair_diameter(inst, pset))


class TestDemo:
    def test_interval_exact_set(self, capsys):
        code, out = run(capsys, "demo", "interval", "--grid-step", "0.1")
        assert code == 0
        assert "member: (-1.0)" in out
        assert "member: (1.0)" in out
        assert "set-diameter: 2.0" in out

    def test_unknown_demo(self, capsys):
        assert main(["demo", "torus"]) == 2


MALFORMED = {
    "bogus": ("gproximity-instance v1\nname: bogus-arg\nkind: coordinate\n"
              "builder: interval\narg: bogus=1\n"),
    "out-of-range": ("gproximity-instance v1\nname: out-of-range\nkind: tabulated\nn: 2\n"
                     "A: 0\nB: 5\ngraph: complete\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n"),
    "nan": ("gproximity-instance v1\nname: nan-distance\nkind: tabulated\nn: 2\n"
            "A: 0\nB: 1\ngraph: complete\nmap: table\ntable: 1 0\ndist:\nrow: nan\n"),
}


@pytest.mark.parametrize("command", ["validate", "classify", "solve", "enumerate"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_is_one_error_line(tmp_path, name, command):
    path = tmp_path / f"{name}.gpx"
    path.write_text(MALFORMED[name], encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "gproximity", command, str(path)],
                          capture_output=True, text=True, check=False)
    errors = [ln for ln in (proc.stdout + proc.stderr).splitlines() if ln.startswith("error:")]
    assert proc.returncode == 2
    assert len(errors) == 1 and errors[0].startswith("error: line ")
    assert "Traceback" not in proc.stderr


class TestDeterminism:
    def _capture(self, argv):
        proc = subprocess.run([sys.executable, "-m", "gproximity"] + argv,
                              capture_output=True, text=True, check=False)
        return proc.stdout

    def test_repeat_runs_byte_identical(self, saved_instance):
        argv = ["classify", saved_instance]
        assert self._capture(argv) == self._capture(argv)

    def test_timing_goes_to_stderr(self, saved_instance):
        proc = subprocess.run([sys.executable, "-m", "gproximity",
                               "validate", saved_instance],
                              capture_output=True, text=True, check=False)
        assert "elapsed-seconds" in proc.stderr
        assert "elapsed-seconds" not in proc.stdout


@pytest.mark.parametrize("argv", [["validate"], ["classify", "--alpha", "0.9"],
                                  ["solve", "--epsilon", "0.2"],
                                  ["enumerate", "--epsilon", "0.2"]])
def test_listed_graph_file_is_read_as_index_arrays(tmp_path, capsys, monkeypatch, argv):
    """No command on a file with an edge list collects its edges into a set
    of tuples; the report is the one of the same graph given as a set."""
    inst = gp.random_instance(11, 9, 9, graph_rule="random:0.6")
    path = tmp_path / "listed.gpx"
    gp.save_instance(inst, path)
    command, *options = argv
    code, out = run(capsys, command, str(path), *options)

    def built(graph):
        raise AssertionError("the edge set was built")

    with monkeypatch.context() as mp:
        mp.setattr(gp.DirectedGraph, "edges", property(built))
        assert run(capsys, command, str(path), *options) == (code, out)


def test_in_process_main_freezes_nothing(capsys, contraction_file):
    """Only the process entry point, ``python -m gproximity``, freezes the
    heap before exit: ``cli.main`` leaves a caller's collector alone."""
    import gc
    from pathlib import Path

    before = gc.get_freeze_count()
    run(capsys, "classify", contraction_file)
    assert gc.get_freeze_count() == before
    package = Path(cli.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if "gc.freeze" in p.read_text(encoding="utf-8")] == ["__main__.py"]


def test_installed_script_is_the_process_entry(monkeypatch):
    """The ``gproximity`` script of ``pyproject.toml`` resolves to the entry
    of ``python -m gproximity``: the report, then the freeze, then the exit."""
    import importlib
    from pathlib import Path

    import gproximity.__main__ as entry

    tomllib = pytest.importorskip("tomllib")
    project = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(project.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = target["gproximity"].partition(":")
    script = getattr(importlib.import_module(module), name)
    assert script is entry.run
    calls = []
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    monkeypatch.setattr(entry.os, "environ", environ)
    monkeypatch.setattr(entry, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(entry.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as stop:
        script()
    assert (calls, stop.value.code) == (["main", "freeze"], 3)
    assert environ["OPENBLAS_NUM_THREADS"] == "1"


#: Runs the process entry on its argv and, at exit, prints the process's
#: thread count and the BLAS thread setting it ran with.
ENTRY_PROCESS = """\
import atexit, os

def report():
    with open("/proc/self/status") as fh:
        threads = next(ln.split()[1] for ln in fh if ln.startswith("Threads:"))
    print(threads, os.environ["OPENBLAS_NUM_THREADS"])

atexit.register(report)
from gproximity.__main__ import run
run()
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("preset", [None, "2"])
def test_entry_starts_no_blas_worker(contraction_file, preset):
    """A command-line process ends with its main thread alone: numpy's
    OpenBLAS starts no worker beside it, unless the user's own
    ``OPENBLAS_NUM_THREADS`` asks for one, which is kept."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", ENTRY_PROCESS, "classify", contraction_file],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    threads, setting = proc.stdout.splitlines()[-1].split()
    assert setting == (preset or "1")
    if preset is None:
        assert threads == "1"
