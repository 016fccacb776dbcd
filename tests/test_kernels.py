"""The Cauchy kernel of the SNE-style losses and its unnormalized companion."""

import numpy as np
import pytest

from cne import CneError, cauchy, cauchy_unnormalized


def test_cauchy_values():
    assert cauchy(0.0) == 1.0
    assert cauchy(1.0) == 0.5
    assert cauchy(4.0) == pytest.approx(0.2, abs=1e-15)


def test_cauchy_rejects_negative():
    with pytest.raises(CneError):
        cauchy(-1.0)


def test_cauchy_strictly_decreasing():
    d = np.linspace(0.0, 100.0, 1000)
    v = cauchy(d)
    assert (np.diff(v) < 0).all()


def test_cauchy_unnormalized_values():
    assert cauchy_unnormalized(1.0) == 1.0
    assert cauchy_unnormalized(4.0) == 0.25


def test_cauchy_unnormalized_rejects_zero():
    with pytest.raises(CneError):
        cauchy_unnormalized(0.0)


def test_unnormalized_identity_1000_points():
    # phi_tilde / (phi_tilde + 1) == phi to machine precision across 12
    # orders of magnitude of squared distance.
    rng = np.random.default_rng(7)
    d_sq = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=1000))
    phi_t = cauchy_unnormalized(d_sq)
    lhs = phi_t / (phi_t + 1.0)
    rhs = cauchy(d_sq)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * rhs)


def test_cauchy_derivative_finite_difference():
    # d/d(d_sq) of 1/(d_sq+1) is -1/(d_sq+1)^2.
    rng = np.random.default_rng(2)
    for d_sq in rng.uniform(0.1, 50.0, size=50):
        h = 1e-6 * max(1.0, d_sq)
        numeric = (cauchy(d_sq + h) - cauchy(d_sq - h)) / (2.0 * h)
        analytic = -1.0 / (d_sq + 1.0) ** 2
        assert abs(numeric - analytic) < 1e-6 * abs(analytic)
