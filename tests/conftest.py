import numpy as np
import pytest

from flowbox.dynsys import builtin
from flowbox.odeint import IntegratorConfig
from flowbox.varfit import FitConfig, fit


@pytest.fixture(scope="session")
def tight_cfg():
    """Integrator accuracy high enough that 1e-5 finite differences of
    chart values stay trustworthy."""
    return IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)


class _ArFits:
    """linear-ar fitted on a 64x64 grid with FitConfig(seed=0), one fit per
    box per session: fits are deterministic (acceptance 9), so a test that
    needs a box already fitted reads the stored result."""

    def __init__(self):
        self._fits = {}

    def store(self, box, result):
        self._fits[np.asarray(box, dtype=float).tobytes()] = result

    def __call__(self, box):
        key = np.asarray(box, dtype=float).tobytes()
        if key not in self._fits:
            self._fits[key] = fit(builtin("linear-ar"), box, (64, 64), FitConfig(seed=0))
        return self._fits[key]


@pytest.fixture(scope="session")
def ar_fits():
    """The session's _ArFits: acceptance 7 stores the two fits it computes
    and times, and the varfit diagnostic tests read them."""
    return _ArFits()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20260818))
