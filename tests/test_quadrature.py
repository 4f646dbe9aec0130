"""Gauss-Laguerre rules against closed forms, moments, and a dense eigensolver."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from planeharm.basis import SpinIndex, calL, calZ
from planeharm.errors import DomainError
from planeharm.quadrature import (
    QuadratureRule,
    default_n_phi,
    gauss_laguerre,
    halfline_inner,
    plane_inner,
)


def test_one_point_rules_are_closed_form():
    r = gauss_laguerre(1, 0)
    assert r.nodes[0] == pytest.approx(1.0, abs=1e-15)
    assert r.weights[0] == pytest.approx(1.0, abs=1e-15)
    r = gauss_laguerre(1, 2)
    assert r.nodes[0] == pytest.approx(3.0, abs=1e-14)
    assert r.weights[0] == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("alpha", [0, 2, 5])
def test_two_point_nodes_are_closed_form(alpha):
    # Eigenvalues of [[a+1, sqrt(a+1)], [sqrt(a+1), a+3]] are a+2 -+ sqrt(a+2).
    r = gauss_laguerre(2, alpha)
    s = math.sqrt(alpha + 2.0)
    assert r.nodes == pytest.approx([alpha + 2 - s, alpha + 2 + s], rel=1e-14)


def test_first_moment_exact_at_order_two():
    r = gauss_laguerre(2, 0)
    assert r.integrate(r.nodes) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3, 5])
def test_weights_sum_to_gamma(alpha):
    for order in (1, 2, 7, 23, 40):
        r = gauss_laguerre(order, alpha)
        assert r.weights.sum() == pytest.approx(math.gamma(alpha + 1), rel=1e-13)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3, 5])
def test_moments_match_gamma(alpha):
    for order in (1, 2, 5, 10, 20, 40):
        r = gauss_laguerre(order, alpha)
        for k in range(2 * order):
            got = r.integrate(r.nodes**k)
            exact = math.gamma(k + alpha + 1)
            assert abs(got - exact) <= 1e-12 * exact


@pytest.mark.parametrize("alpha", [0, 2, 5])
def test_nodes_interlace_between_consecutive_orders(alpha):
    for order in range(1, 30):
        inner = gauss_laguerre(order, alpha).nodes
        outer = gauss_laguerre(order + 1, alpha).nodes
        assert np.all(outer[:-1] < inner) and np.all(inner < outer[1:])


@pytest.mark.parametrize("alpha", [0, 3])
def test_agrees_with_dense_eigensolver(alpha):
    order = 25
    r = gauss_laguerre(order, alpha)
    k = np.arange(order)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    jac = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    evals, evecs = np.linalg.eigh(jac)
    assert r.nodes == pytest.approx(evals, rel=1e-12, abs=1e-12)
    assert r.weights == pytest.approx(
        math.gamma(alpha + 1) * evecs[0] ** 2, rel=1e-10, abs=1e-13
    )


def test_lifted_weights_integrate_bare_exponential():
    r = gauss_laguerre(6, 0)
    assert np.dot(r.lifted_weights(), np.exp(-r.nodes)) == pytest.approx(
        1.0, rel=1e-13
    )


def test_rule_validation():
    with pytest.raises(DomainError):
        gauss_laguerre(0, 0)
    with pytest.raises(DomainError):
        gauss_laguerre(3, -1)
    with pytest.raises(DomainError):
        gauss_laguerre(3, 1.5)
    with pytest.raises(DomainError):
        QuadratureRule(2, 0, np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        QuadratureRule(2, 0, np.array([1.0, 2.0]), np.array([0.5, -0.5]))


@pytest.mark.parametrize("order, alpha", [(187, 0), (199, 10), (237, 40), (400, 0)])
def test_weights_underflowing_double_precision_raise(order, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"order={order}, alpha={alpha}.*underflow"):
            gauss_laguerre(order, alpha)


def test_largest_alpha_zero_rule_in_double_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = gauss_laguerre(186, 0)
    assert abs(r.weights.sum() - 1.0) < 1e-13


# ------------------------------------------------------- inner products


def test_halfline_inner_normalizes_radial_functions():
    one = SpinIndex.from_jm(1, 0)
    assert halfline_inner(
        lambda y: calL(one, y), lambda y: calL(one, y), m=0, j_cap=1
    ) == pytest.approx(1.0, abs=1e-13)

    two = SpinIndex.from_jm(2, 0)
    three = SpinIndex.from_jm(3, 0)
    assert abs(
        halfline_inner(lambda y: calL(two, y), lambda y: calL(three, y), m=0, j_cap=3)
    ) <= 1e-13

    h = SpinIndex.from_jm(Fraction(1, 2), Fraction(1, 2))
    assert halfline_inner(
        lambda y: calL(h, y),
        lambda y: calL(h, y),
        m=Fraction(1, 2),
        j_cap=Fraction(1, 2),
    ) == pytest.approx(1.0, abs=1e-13)


def test_halfline_inner_domain():
    with pytest.raises(DomainError):
        halfline_inner(lambda y: y, lambda y: y, m=2, j_cap=1)
    with pytest.raises(DomainError):
        halfline_inner(lambda y: y, lambda y: y, m=0.3, j_cap=1)


def test_default_n_phi_covers_band_limit():
    # Products within a sector carry angular frequencies up to 2 j_max.
    assert default_n_phi(0) == 1
    assert default_n_phi(1) == 5
    assert default_n_phi(Fraction(3, 2)) == 7
    assert default_n_phi(6) == 25


def test_plane_inner_orthonormality_examples():
    z10 = SpinIndex.from_jm(1, 0)
    z21 = SpinIndex.from_jm(2, 1)
    z2m1 = SpinIndex.from_jm(2, -1)
    z31 = SpinIndex.from_jm(3, 1)

    def harm(s):
        return lambda y, phi: calZ(s, (y, phi))

    assert plane_inner(harm(z10), harm(z10), j_cap=1) == pytest.approx(
        1.0, abs=1e-13
    )
    assert abs(plane_inner(harm(z21), harm(z2m1), j_cap=2)) <= 1e-13
    assert abs(plane_inner(harm(z21), harm(z31), j_cap=3)) <= 1e-13


def test_plane_inner_reduces_to_halfline_at_equal_m():
    f = SpinIndex.from_jm(3, 1)
    g = SpinIndex.from_jm(5, 1)
    for a, b in ((f, f), (f, g)):
        radial = halfline_inner(
            lambda y: calL(a, y), lambda y: calL(b, y), m=1, j_cap=5
        )
        plane = plane_inner(
            lambda y, phi: calZ(a, (y, phi)),
            lambda y, phi: calZ(b, (y, phi)),
            j_cap=5,
        )
        assert abs(plane - radial) <= 1e-13
