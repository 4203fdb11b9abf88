"""The public names: every `__all__` entry exists, and the names the benchmark's
tracer and probes reach (perfbench/tracer.py, perfbench/probes.py) still
work, so removing one fails here and not only in a traced benchmark run."""
import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowbox
import flowbox.cli  # noqa: F401 (loads every module the tracer patches)
from flowbox.dynsys import VectorField
from flowbox.varfit import GridField, save_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_in_all_resolves():
    modules = [flowbox] + [importlib.import_module(f"flowbox.{m.name}")
                           for m in pkgutil.iter_modules(flowbox.__path__)]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


# the public functions that integrate, each adding its work into a passed RunStats
INTEGRATING = ("flow_batch", "flow", "trace_orbit", "find_crossings_batch",
               "check_nonrecurrent", "check_nonrecurrent_batch", "evaluate_grid",
               "kef_residuals", "orbit_eigen_check")


def test_integrating_calls_take_stats_and_only_find_crossings_takes_a_horizon():
    # the horizon is set in IntegratorConfig; find_crossings keeps its
    # keyword for one-point callers (perfbench/probes.py)
    params = {}
    for info in pkgutil.iter_modules(flowbox.__path__):
        module = importlib.import_module(f"flowbox.{info.name}")
        for name in module.__all__:
            if inspect.isfunction(getattr(module, name)):
                params[name] = inspect.signature(getattr(module, name)).parameters
    for name in INTEGRATING:
        assert params[name]["stats"].default is None, name
    assert [name for name, p in params.items() if "horizon" in p] == ["find_crossings"]


def test_import_flowbox_loads_no_submodule_and_no_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import flowbox\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('flowbox.', 'numpy'))))\n"
        # the integrator's tables are literals: no command pulls in SciPy
        "import flowbox.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        # nor does any command load what only varfit or verify-all runs
        "print(sorted({'flowbox.varfit', 'flowbox.refsol'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-3:] == ["[]", "[]", "[]"]


def test_star_import_binds_every_name_in_all():
    scope = {}
    exec("from flowbox import *", scope)
    assert set(flowbox.__all__) <= set(scope)


def test_package_dir_and_unknown_names():
    assert "__all__" in dir(flowbox)
    assert set(flowbox.__all__) <= set(dir(flowbox))
    with pytest.raises(AttributeError, match="no_such_name"):
        flowbox.no_such_name  # noqa: B018


def test_each_reexport_is_its_submodules_public_object():
    exported = [name for names in flowbox._EXPORTS.values() for name in names]
    assert sorted(["__version__", *exported]) == sorted(flowbox.__all__)
    for module_name, names in flowbox._EXPORTS.items():
        module = importlib.import_module(f"flowbox.{module_name}")
        for name in names:
            assert name in module.__all__, (module_name, name)
            assert getattr(flowbox, name) is getattr(module, name), (module_name, name)


def _load(monkeypatch, name):
    """perfbench/<name>.py as a module, importing it without writing bytecode
    into perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer):
    """Every attribute the tracer may replace, with its current value."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "flowbox" or name.startswith("flowbox.")]
    owners += [VectorField]
    owners += [getattr(flowbox.expressions, n) for n in tracer.AST_NODES]
    return {(id(o), key): value for o in owners for key, value in list(vars(o).items())}


def test_benchmark_tracer_patches_its_sites_and_restores_every_binding(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    before = _bindings(tracer)
    traced = tracer.Tracer()
    traced.install()
    try:
        patched = {(owner.__name__, attr) for owner, attr, _ in traced.patched}
    finally:
        traced.restore()
    for module, attr, _ in tracer.SPAN_SITES + tracer.COUNTER_SITES:
        assert (module, attr) in patched
    assert ("VectorField", "eval") in patched
    assert not traced.patched
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_benchmark_probes_run(monkeypatch, tmp_path):
    probes = _load(monkeypatch, "probes")
    original = VectorField.eval
    got = probes.run_probe({"kind": "crossings", "system": "hyperbolic-b",
                            "surface": "line-b", "points": [[0.5, 2.0]]})
    assert VectorField.eval is original
    assert set(got) == {"odeint.sweep_rhs", "odeint.refine_rhs",
                        "odeint.sweep_ms", "odeint.refine_ms"}
    assert all(np.isfinite(v) for v in got.values())
    box = np.array([[4.0, 6.0], [1.0, 3.0]])
    mesh = GridField(box=box, values=np.zeros((2, 5, 5))).mesh()
    save_grid(GridField(box=box, values=mesh), tmp_path / "fit_y.csv")
    got = probes.run_probe({"kind": "loss", "system": "linear-ar",
                            "out_dir": str(tmp_path)})
    assert set(got) == {"varfit.loss_ms", "varfit.loss_gradient_ms"}
    assert all(np.isfinite(v) and v >= 0 for v in got.values())
