"""Flowbox coordinates, Koopman eigenfunctions, and unit-velocity
measurements for smooth finite-dimensional vector fields.

Two constructions are provided and cross-checked against closed forms:
orbit tracing back to a non-recurrent surface (`chart`) and a variational
fit of the coordinate functions on a grid (`varfit`).

The public names below resolve on first use (PEP 562): `import flowbox`
loads no submodule, and `flowbox.<name>` imports the one that defines it.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dynsys": ("OutOfDomainError", "VectorField", "builtin", "builtin_names",
               "parse_system", "system_from_json"),
    "expressions": ("DomainError", "ExpressionError", "parse_expression"),
    "odeint": ("DEFAULT_CONFIG", "Crossings", "DomainExit", "IntegrationError",
               "IntegratorConfig", "Orbit", "RunStats", "StepLimitExceeded",
               "find_crossings", "find_crossings_batch", "flow", "trace_orbit"),
    "chart": ("AmbiguousChart", "Chart", "ChartError", "NonRecurrenceReport",
              "NotInOmega", "OffPatch", "Surface", "TransversalityError",
              "build_chart", "builtin_surface", "builtin_surface_names",
              "check_nonrecurrent", "check_nonrecurrent_batch", "check_transversal",
              "circle_surface", "evaluate_grid", "flowbox", "line_surface",
              "point_surface", "surface_from_json"),
    "kef": ("KoopmanEigenfunction", "MinimalSet", "kpde_residual",
            "minimal_set", "orbit_eigen_check"),
    "varfit": ("FitConfig", "FitResult", "GridField", "fit", "load_grid", "loss",
               "loss_gradient", "rotate_to_flowbox", "save_grid"),
    "refsol": ("ReferenceEigenfunction", "ReferenceSolution",
               "evaluate_reference_flowbox", "reference", "reference_ids"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    # Resolved on every access and never stored in globals(): a name bound
    # here would keep whatever the submodule held at first access, such as a
    # benchmark tracer's wrapper that is later restored.  A name outside the
    # table raises AttributeError, so `from . import chart` falls through to
    # importing the submodule.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__():
    return sorted({*globals(), *_OWNER})
