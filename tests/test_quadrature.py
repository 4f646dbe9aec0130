"""Gauss-Laguerre rules against closed forms, moments, and a dense eigensolver."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from planeharm.basis import SpinIndex, calL, calZ, sector_labels
from planeharm import quadrature
from planeharm.errors import DomainError
from planeharm.quadrature import (
    QuadratureRule,
    default_n_phi,
    gauss_laguerre,
    halfline_inner,
    plane_inner,
)
from planeharm.verify import run_suite


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


def _rule_oracle(order, alpha, starts):
    """Nodes and lifted weights of the order-N rule near each start, in mpmath.

    Runs the plain L_N^(a) recurrence at 50 digits, polishes each start by
    Newton with x L_N' = N L_N - (N + a) L_(N-1), and returns the node and
    w e^x x^(-a) with w = Gamma(N + a + 1) / (N! x L_N'(x)^2).
    """
    def laguerre_and_slope(x):
        prev, cur = mpmath.mpf(0), mpmath.mpf(1)
        for k in range(order):
            prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
        return cur, (order * cur - (order + alpha) * prev) / x

    nodes, lifted = [], []
    with mpmath.workdps(50):
        scale = mpmath.gamma(order + alpha + 1) / mpmath.factorial(order)
        for start in starts:
            x = mpmath.mpf(float(start))
            for _ in range(3):
                value, slope = laguerre_and_slope(x)
                x -= value / slope
            _, slope = laguerre_and_slope(x)
            nodes.append(float(x))
            lifted.append(float(scale / (x * slope**2) * mpmath.exp(x) * x ** (-alpha)))
    return np.array(nodes), np.array(lifted)


@pytest.mark.parametrize("order, alpha, stride", [(40, 5, 1), (120, 0, 1), (150, 16, 7), (186, 0, 9)])
def test_high_order_rules_match_mpmath(order, alpha, stride):
    r = gauss_laguerre(order, alpha)
    pick = np.unique(np.r_[np.arange(0, order, stride), order - 1])
    nodes, lifted = _rule_oracle(order, alpha, r.nodes[pick])
    assert np.max(np.abs(r.nodes[pick] / nodes - 1)) <= 1e-12
    assert np.max(np.abs(r.lifted_weights()[pick] / lifted - 1)) <= 1e-12


def test_largest_alpha_zero_rule_in_double_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = gauss_laguerre(186, 0)
    assert abs(r.weights.sum() - 1.0) < 1e-13


# ---------------------------------------------------------------- memo


def test_repeated_call_returns_the_same_rule():
    assert gauss_laguerre(7, 2) is gauss_laguerre(7, 2)
    assert gauss_laguerre(7, 2) is not gauss_laguerre(7, 3)


def test_rules_compare_and_hash_by_identity():
    nodes, weights = np.array([1.0, 3.0]), np.array([0.5, 0.5])
    rule = QuadratureRule(2, 0, nodes, weights)
    assert rule == rule
    assert rule != QuadratureRule(2, 0, nodes.copy(), weights.copy())
    assert hash(rule) == hash(rule)
    assert len({rule, gauss_laguerre(3, 0), gauss_laguerre(3, 0)}) == 2


def test_shared_rule_arrays_are_read_only():
    r = gauss_laguerre(5, 1)
    with pytest.raises(ValueError):
        r.nodes[0] = 1.0
    with pytest.raises(ValueError):
        r.weights *= 2.0
    assert r.weights.sum() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("order, alpha", [(0, 0), (3, 1.5), (187, 0)])
def test_errors_repeat_and_are_not_cached(order, alpha):
    for _ in range(2):
        with pytest.raises(DomainError):
            gauss_laguerre(order, alpha)


@pytest.mark.parametrize("bad", [8.0, True, "3"])
def test_non_integral_arguments_rejected(bad):
    with pytest.raises(DomainError):
        gauss_laguerre(bad, 0)
    with pytest.raises(DomainError):
        gauss_laguerre(3, bad)


def test_numpy_integer_arguments_give_int_fields():
    r = gauss_laguerre(np.int64(5), np.int64(2))
    assert type(r.order) is int and type(r.alpha) is int
    assert r is gauss_laguerre(5, 2)


def test_verify_run_builds_each_distinct_rule_once(monkeypatch):
    monkeypatch.setattr(quadrature, "_RULES", {})
    built = []
    build = quadrature._build_rules

    def spy(requests):
        built.extend((order, alpha) for alpha, orders in requests.items() for order in orders)
        return build(requests)

    monkeypatch.setattr(quadrature, "_build_rules", spy)
    run_suite("all", 8)
    assert len(built) == len(set(built)) == len(quadrature._RULES) == 248


def _orders_at_j_max_64(alpha):
    """Orders 1..40 and those run_suite("all", 64) asks for at alpha: one per
    label of its column, and the radial-orthonormality rule."""
    return sorted({*range(1, 41), *range(2, (128 - alpha) // 2 + 3), math.ceil(64 - alpha / 2) + 2})


def _assert_same_rule(got, want):
    assert got is not want
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.lifted_weights(), want.lifted_weights())


_COLUMN_REQUESTS = [{alpha: _orders_at_j_max_64(alpha)} for alpha in (0, 1, 5, 16, 63, 127)] + [
    # The column of 2|m| = 242 at j_max 128: the kernel stream of a rule
    # starts plain up to order 7 and log-scaled from order 8.
    {242: list(range(2, 10))}
]


@pytest.mark.parametrize(
    "requests",
    # The last is one request of every alpha above: each alpha's Jacobi
    # matrix built once, and one stacked eigensolve per order across them.
    _COLUMN_REQUESTS + [{k: v for request in _COLUMN_REQUESTS for k, v in request.items()}],
    ids=["0", "1", "5", "16", "63", "127", "242", "all-alphas"],
)
def test_batch_build_equals_one_order_builds(monkeypatch, requests):
    monkeypatch.setattr(quadrature, "_RULES", {})
    with np.errstate(over="ignore"):  # raw weights overflow from alpha 171
        batch = quadrature._rules(requests)
        assert list(batch) == list(requests)
        assert len(quadrature._RULES) == sum(map(len, requests.values()))
        for alpha, orders in requests.items():
            assert [rule.order for rule in batch[alpha]] == orders
            assert all(gauss_laguerre(n, alpha) is rule for n, rule in zip(orders, batch[alpha]))
        for alpha, orders in requests.items():
            for order, rule in zip(orders, batch[alpha]):
                quadrature._RULES.clear()
                _assert_same_rule(rule, gauss_laguerre(order, alpha))


def test_an_underflowing_order_does_not_stop_its_batch(monkeypatch):
    monkeypatch.setattr(quadrature, "_RULES", {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="order=187, alpha=0.*underflow"):
            quadrature._rules({0: [185, 186, 187]})
    batch = dict(quadrature._RULES)
    assert sorted(batch) == [(185, 0), (186, 0)]
    for _ in range(2):
        with pytest.raises(DomainError, match="order=187, alpha=0.*underflow"):
            gauss_laguerre(187, 0)
        assert (187, 0) not in quadrature._RULES
    for key, rule in batch.items():
        quadrature._RULES.clear()
        _assert_same_rule(rule, gauss_laguerre(*key))


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


@pytest.mark.parametrize("j_max", [-1, Fraction(-1, 2)])
def test_default_n_phi_rejects_a_negative_band_limit(j_max):
    with pytest.raises(DomainError, match="nonnegative"):
        default_n_phi(j_max)


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


def test_plane_inner_samples_each_function_once_on_the_grid():
    calls = {"F": [], "G": []}

    def counted(name, s):
        def f(y, phi):
            calls[name].append((np.shape(y), np.shape(phi)))
            return calZ(s, (y, phi))
        return f

    s = SpinIndex.from_jm(2, 1)
    assert plane_inner(counted("F", s), counted("G", s), j_cap=2) == pytest.approx(1.0, abs=1e-13)
    assert calls == {"F": [((1, 4), (9, 1))], "G": [((1, 4), (9, 1))]}


def test_plane_inner_rejects_a_result_off_the_grid():
    one = lambda y, phi: np.ones_like(y)
    with pytest.raises(DomainError, match=r"\(3,\).*\(9, 4\)"):
        plane_inner(one, lambda y, phi: np.ones(3), j_cap=2)


def test_halfline_inner_rejects_a_result_off_the_nodes():
    with pytest.raises(DomainError, match=r"\(4,\).*\(3,\)"):
        halfline_inner(lambda y: np.ones(4), lambda y: y, m=0, j_cap=1)


def _big_grid(y, phi):
    return np.full(np.broadcast_shapes(np.shape(y), np.shape(phi)), 1e200)


def _one_nan_grid(y, phi):
    values = np.array(calZ(SpinIndex(2, 0), (y, phi)))
    values[0, 0] = np.nan
    return values


def _one_nan_nodes(y):
    values = calL(SpinIndex(2, 0), y)
    values[0] = np.nan
    return values


@pytest.mark.parametrize(
    "call, cause",
    [
        (lambda: plane_inner(_big_grid, _big_grid, 1), "leaves the double range"),
        (lambda: halfline_inner(lambda y: 1e200 + 0 * y, lambda y: 1e200 + 0 * y, 0, 1),
         "leaves the double range"),
        (lambda: plane_inner(_one_nan_grid, _big_grid, 1), "not finite"),
        (lambda: halfline_inner(_one_nan_nodes, lambda y: y, 0, 1), "not finite"),
    ],
    ids=["plane-overflow", "halfline-overflow", "plane-nan", "halfline-nan"],
)
def test_inner_products_that_are_not_finite_are_domain_errors(call, cause):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=cause):
            call()


@pytest.mark.parametrize("sector, j_cap", [("int", 3), ("half", Fraction(5, 2))])
def test_pair_cores_equal_the_inner_products_bit_for_bit(sector, j_cap):
    # Every pair of labels on plane_inner's grid, and every pair of one m on
    # halfline_inner's rule, summed over stacks at once.
    labels = sector_labels(sector, j_cap)
    phis, x, w = quadrature._plane_grid(Fraction(j_cap), None, None)
    grids = np.array([calZ(s, (x[None, :], phis[:, None])) for s in labels])
    planar = quadrature._plane_sums(grids[:, None], grids[None, :], w, "pairs")
    want = np.array([
        [plane_inner(lambda y, phi: calZ(a, (y, phi)), lambda y, phi: calZ(b, (y, phi)), j_cap)
         for b in labels]
        for a in labels
    ])
    assert np.array_equal(planar.view(float), want.view(float))
    for two_m in {s.two_m for s in labels}:
        group = [s for s in labels if s.two_m == two_m]
        rule = quadrature._halfline_rule(Fraction(two_m, 2), Fraction(j_cap))
        rows = np.array([calL(s, rule.nodes) for s in group])
        w = rule.lifted_weights()
        radial = quadrature._halfline_sums(rows[:, None], rows[None, :], w, "pairs")
        want = np.array([
            [halfline_inner(lambda y: calL(a, y), lambda y: calL(b, y), Fraction(two_m, 2), j_cap)
             for b in group]
            for a in group
        ])
        assert np.array_equal(radial, want)
