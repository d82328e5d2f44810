import numpy as np
import pytest

from triwave import models as md
from triwave import oracle as oc


def _solve(model, n_levels=None, **overrides):
    x_min, x_max, h, k = md.default_grid(model, n_levels)
    x_min = overrides.get("x_min", x_min)
    h = overrides.get("h", h)
    return oc.grid_solve(model, x_min, x_max, h, k)


@pytest.fixture(scope="session")
def ho_oracle():
    """Harmonic oscillator on its default grid, both parities interleaved."""
    return _solve(md.HarmonicOscillator(a=1.0), n_levels=4)


@pytest.fixture(scope="session")
def ho_oracle_coarse():
    """The default harmonic-oscillator domain at twice the default step."""
    return _solve(md.HarmonicOscillator(a=1.0), n_levels=4,
                  h=2.0 * md.default_grid(md.HarmonicOscillator(a=1.0), 4)[2])


@pytest.fixture(scope="session")
def oscinv_b075_oracle():
    return _solve(md.OscillatorInverseSquare(a=1.0, b=0.75), n_levels=3)


@pytest.fixture(scope="session")
def oscinv_b075_oracle_halfcut():
    model = md.OscillatorInverseSquare(a=1.0, b=0.75)
    x_min, x_max, h, k = md.default_grid(model, 3)
    return oc.grid_solve(model, x_min / 2.0, x_max, h, k)


@pytest.fixture(scope="session")
def oscinv_b2_oracle():
    return _solve(md.OscillatorInverseSquare(a=1.0, b=2.0), n_levels=3)


@pytest.fixture(scope="session")
def morse_a3_oracle():
    return _solve(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0))


@pytest.fixture(scope="session")
def morse_a3_oracle_extra():
    """Same Morse well but with one extra state, to expose the continuum edge."""
    model = md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0)
    x_min, x_max, h, k = md.default_grid(model)
    return oc.grid_solve(model, x_min, x_max, h, k + 1, check_boundaries="none")


@pytest.fixture(scope="session")
def morse_a12_oracle():
    return _solve(md.GeneralizedMorse(A=-2.4, B=1.0, mu_scale=2.0))


@pytest.fixture(scope="session")
def rosen_morse_oracle():
    return _solve(md.RosenMorse(A=1.0, B=-2.0))


@pytest.fixture()
def rng():
    # fresh per test so draws do not depend on collection order
    return np.random.default_rng(20240817)
