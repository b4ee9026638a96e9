import numpy as np
import pytest

from benj.errors import ParameterError
from benj.model import ModelParams, symbol_l


def test_symbol_values():
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1)
    assert symbol_l(p, 4.0) == pytest.approx(16.0 - 4.0)  # |4|^(2m) - |4|^(2r)
    assert symbol_l(p, 2.0) == pytest.approx(4.0 - 2.0)
    assert symbol_l(p, 0.0) == 0.0  # both powers vanish for r > 0


def test_symbol_r_zero_convention():
    p = ModelParams(m=2, r=0.0, gamma=3.0, delta=1.0, q=1)
    assert symbol_l(p, 0.0) == pytest.approx(-3.0)  # |0|^0 := 1


def test_symbol_vectorized_and_even():
    p = ModelParams(m=1, r=0.5, gamma=0.7, delta=2.0, q=2)
    kappa = np.linspace(-9.0, 9.0, 37)
    vals = symbol_l(p, kappa)
    assert np.allclose(vals, symbol_l(p, -kappa))


def test_symbol_kdv_reduction():
    p = ModelParams(m=1, r=0.5, gamma=0.0, delta=1.7, q=1)
    kappa = np.linspace(-5, 5, 41)
    assert np.allclose(symbol_l(p, kappa), 1.7 * kappa**2)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(m=0), "m must"),
        (dict(r=1.0), "r must"),
        (dict(r=-0.1), "r must"),
        (dict(gamma=-1.0), "gamma must"),
        (dict(delta=0.0), "delta must"),
        (dict(q=0), "q must"),
        (dict(domain_scale=0.0), "domain_scale must"),
    ],
)
def test_params_validation(kwargs, fragment):
    base = dict(m=1, r=0.5, gamma=1.0, delta=1.0, q=1, domain_scale=1.0)
    base.update(kwargs)
    with pytest.raises(ParameterError, match=fragment):
        ModelParams(**base)
