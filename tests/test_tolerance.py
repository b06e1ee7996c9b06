"""One tolerance per instance: ``Instance.tol`` is the slack of every check,
scan and scheme on the instance, checked once where it is set, and
``--tol`` reaches all of them."""
import dataclasses
import inspect
import math

import pytest

import gproximity as gp
from gproximity import analysis, graph, instances, maps, metric, operators, solver
from gproximity.cli import main

#: x = (0, 1, 1, 0.3, 0.3 + 1e-7) with d = |xi - xj| (a pseudometric):
#: points 1 and 2 coincide and the map sends them to points 3 and 4, 1e-7
#: apart, so the zero-length edge (1, 2) has an image distance inside a
#: slack of 1e-6 and outside the default 1e-9.
X = (0.0, 1.0, 1.0, 0.3, 0.3 + 1e-7)
PSEUDO = ("gproximity-instance v1\nname: pseudo\nkind: tabulated\nn: 5\n"
          "A: 0 1 2 3 4\nB: 0 1 2 3 4\ngraph: complete\nmap: table\ntable: 0 3 4 0 0\n"
          "dist:\n" + "".join("row: " + " ".join(repr(abs(X[i] - X[j])) for j in range(i)) + "\n"
                              for i in range(1, len(X))))


def classify(capsys, tmp_path, *tol):
    path = tmp_path / "pseudo.gpx"
    path.write_text(PSEUDO, encoding="utf-8")
    code = main([*tol, "classify", str(path), "--alpha", "0.5"])
    return code, dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())


def test_slack_reaches_the_zero_length_edge_test(capsys, tmp_path):
    """At --tol 1e-6 the certificate and the alpha check take the same
    slack: a factor below 0.5 and a 0.5-contraction, not the contradicting
    ``not-contractive`` beside ``g-contraction(0.5): true``."""
    code, rep = classify(capsys, tmp_path, "--tol", "1e-6")
    assert code == 0 and rep["tolerance"] == "1e-06"
    assert float(rep["contraction-factor"]) <= 0.5
    assert rep["g-contraction(0.5)"] == "true"


def test_default_slack_keeps_the_zero_length_edge(capsys, tmp_path):
    code, rep = classify(capsys, tmp_path)
    assert code == 0 and rep["tolerance"] == "1e-09"
    assert rep["contraction-factor"] == "not-contractive" and rep["worst-ratio"] == "inf"
    assert rep["worst-edge"] == "1 -> 2" and rep["g-contraction(0.5)"] == "false"


def test_library_checks_agree_at_the_instance_slack():
    inst = gp.loads(PSEUDO)
    assert not gp.min_contraction_factor(inst).contractive
    assert not gp.is_g_contraction(inst, 0.5)
    loose = dataclasses.replace(inst, tol=1e-6)
    assert gp.min_contraction_factor(loose).contractive
    assert gp.is_g_contraction(loose, 0.5)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_instance_rejects_a_bad_tolerance(tol):
    base = gp.contraction_instance(3)
    with pytest.raises(gp.DomainError) as info:
        gp.Instance(base.name, base.space, base.sets, base.graph, base.cyclic_map, tol=tol)
    assert str(info.value) == f"tolerance must be finite and nonnegative, got {tol!r}"
    with pytest.raises(gp.DomainError):
        dataclasses.replace(base, tol=tol)


def test_a_new_tolerance_builds_a_new_engine():
    inst = gp.contraction_instance(3)
    engine = inst.engine
    exact = dataclasses.replace(inst, tol=0.0)
    assert (inst.tol, engine.tol) == (gp.DEFAULT_TOL, gp.DEFAULT_TOL)
    assert exact.engine is not engine and exact.engine.tol == 0.0 and inst.engine is engine


def test_files_carry_no_tolerance():
    """A file loads at DEFAULT_TOL, so ``dumps`` refuses any other tol, of a
    tabulated or a coordinate instance, rather than write one that loads at
    another slack."""
    inst = gp.loads(PSEUDO)
    assert inst.tol == gp.DEFAULT_TOL
    assert gp.dumps(dataclasses.replace(inst, tol=gp.DEFAULT_TOL)) == gp.dumps(inst)
    for other, tol in ((inst, 1e-6), (gp.random_instance(7, 10, 10), 0.5),
                       (gp.interval_example(0.5), 0.0)):
        with pytest.raises(gp.SpecError, match=rf"has tol {tol!r}; a file states none"):
            gp.dumps(dataclasses.replace(other, tol=tol))


def instance_functions():
    """The public functions of the package modules with a parameter
    annotated ``Instance``."""
    for mod in (analysis, graph, instances, maps, metric, operators, solver):
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            params = inspect.signature(fn).parameters.values()
            if any(p.annotation in ("Instance", gp.Instance) for p in params):
                yield fn


def test_no_instance_function_takes_its_own_tolerance():
    """The slack is the instance's: a function of an instance that took a
    ``tol`` too would make a second, disagreeing setting."""
    fns = list(instance_functions())
    names = {fn.__name__ for fn in fns}
    assert {"is_g_contraction", "is_edge_nonexpansive", "is_crr_moh", "crr_params_feasible",
            "is_crr_2map", "enumerate_proximity_set", "enumerate_pair_set",
            "minimizer_report", "find_proximity_point", "two_map_alternating"} <= names
    assert [fn.__name__ for fn in fns if "tol" in inspect.signature(fn).parameters] == []
    assert "tol" not in {f.name for f in dataclasses.fields(gp.SolveConfig)}
