"""The public names: every `__all__` entry exists, and the names the benchmark's
tracer and probes reach (perfbench/tracer.py, perfbench/probes.py) still
work, so removing one fails here and not only in a traced benchmark run."""
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np

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
