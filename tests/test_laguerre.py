"""Laguerre evaluation against the exact rational oracle.

Grid convention throughout: n <= 12, |alpha| <= 6, y in {0.1, 1, 5, 20}.
Pure relative comparisons are restricted to points where they are
well-conditioned; near structural roots (alpha < 0, tiny values through
total cancellation) the guarded metric |diff|/max(1, |ref|) is used and the
claim is upgraded to an exact rational identity instead.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeharm.errors import DomainError
from planeharm.exact import ExactPolynomial, binomial_general
from planeharm.laguerre import (
    COMPOSED_RELATIONS,
    FIRST_ORDER_RELATIONS,
    LaguerreIndex,
    laguerre_deriv,
    laguerre_eval,
    laguerre_reflect,
    recurrence_check,
    recurrence_residual,
)

YGRID = (0.1, 1.0, 5.0, 20.0)
NGRID = range(0, 13)
AGRID = range(-6, 7)


def grid_points():
    for n in NGRID:
        for a in AGRID:
            for y in YGRID:
                yield n, a, y


def exact_value(n, a, y):
    return ExactPolynomial.laguerre(n, a)(Fraction(y))


# ---------------------------------------------------------------- oracle


def test_point_values():
    assert laguerre_eval(0, 3, 7.0) == 1.0
    assert laguerre_eval(1, 2, 1.0) == 2.0
    assert laguerre_eval(1, -1, 0.5) == -0.5
    # L_2(y) = 1 - 2y + y^2/2
    assert laguerre_eval(2, 0, 2.0) == pytest.approx(-1.0, abs=1e-15)


def test_binomial_general_is_the_falling_factorial():
    for top in range(-20, 20):
        for k in range(15):
            falling = math.prod(Fraction(top - i, i + 1) for i in range(k))
            got = binomial_general(top, k)
            assert isinstance(got, Fraction) and got == falling, (top, k)
        assert binomial_general(top, -1) == 0


def test_value_at_zero_is_binomial():
    for n in NGRID:
        for a in AGRID:
            expect = float(binomial_general(n + a, n))
            assert laguerre_eval(n, a, 0.0) == pytest.approx(expect, rel=1e-13)


def test_recurrence_matches_oracle_guarded():
    for n, a, y in grid_points():
        ref = float(exact_value(n, a, y))
        got = laguerre_eval(n, a, y)
        assert abs(got - ref) / max(1.0, abs(ref)) <= 1e-12


def test_recurrence_matches_oracle_relative_nonnegative_alpha():
    for n, a, y in grid_points():
        if a < 0:
            continue
        ref = float(exact_value(n, a, y))
        got = laguerre_eval(n, a, y)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_recurrence_equals_series_exactly():
    """The degree recurrence in rational arithmetic IS the series polynomial."""

    def rec(n, a, y):
        if n == 0:
            return Fraction(1)
        prev, cur = Fraction(1), Fraction(a + 1) - y
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1 + a - y) * cur - (k + a) * prev) / (k + 1)
        return cur

    for n, a, y in grid_points():
        assert rec(n, a, Fraction(y)) == exact_value(n, a, y)


def test_negative_degree_rejected():
    with pytest.raises(DomainError):
        laguerre_eval(-1, 0, 1.0)
    with pytest.raises(DomainError):
        LaguerreIndex(-2, 0)


def test_vectorized_matches_scalar():
    import numpy as np

    y = np.array(YGRID)
    v = laguerre_eval(5, -3, y)
    assert v.shape == y.shape
    for i, yy in enumerate(YGRID):
        assert v[i] == laguerre_eval(5, -3, yy)


# ------------------------------------------------------------ reflection


def test_reflection_matches_direct_evaluation():
    for n, a, y in grid_points():
        if a > 0 or -a > n:
            continue
        direct = laguerre_eval(n, a, y)
        refl = laguerre_reflect(n, a, y)
        assert abs(direct - refl) / max(1.0, abs(refl)) <= 1e-12


def test_reflection_is_exact_polynomial_identity():
    for n in NGRID:
        for a in AGRID:
            if a > 0 or -a > n:
                continue
            k = -a
            pref = Fraction(math.factorial(n - k), math.factorial(n))
            rhs = pref * ExactPolynomial.laguerre(n - k, k)
            for _ in range(k):
                rhs = rhs.shift_up()
            sign = Fraction(-1) ** k
            assert sign * rhs == ExactPolynomial.laguerre(n, a)


def test_reflection_point_value():
    # L_2^(-2)(y) = y^2/2, exactly representable.
    assert laguerre_reflect(2, -2, 1.0) == 0.5
    assert laguerre_eval(2, -2, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_reflection_domain():
    with pytest.raises(DomainError):
        laguerre_reflect(2, 1, 1.0)
    with pytest.raises(DomainError):
        laguerre_reflect(2, -3, 1.0)


# ------------------------------------------------------------ derivatives


def test_derivative_point_values():
    # d/dy L_1^(a) = -1 for every a; second derivative of L_2 is 1.
    assert laguerre_deriv(1, 4, 0.3) == -1.0
    assert laguerre_deriv(2, 0, 2.0, order=2) == 1.0
    assert laguerre_deriv(1, 0, 5.0, order=2) == 0.0


def test_derivative_order_beyond_degree_vanishes():
    assert laguerre_deriv(3, 2, 1.7, order=4) == 0.0
    assert laguerre_deriv(0, -2, 0.2) == 0.0


def test_derivative_matches_finite_differences():
    h = 1e-6
    for n, a, y in grid_points():

        def central(step):
            return (laguerre_eval(n, a, y + step) - laguerre_eval(n, a, y - step)) / (
                2.0 * step
            )

        fd = (4.0 * central(h / 2) - central(h)) / 3.0
        scale = max(
            1.0, abs(laguerre_eval(n, a, y - h)), abs(laguerre_eval(n, a, y + h))
        )
        assert abs(fd - laguerre_deriv(n, a, y)) <= 1e-6 * scale


def test_derivative_matches_exact_derivative():
    for n in NGRID:
        for a in AGRID:
            dP = ExactPolynomial.laguerre(n, a).derivative()
            for y in YGRID:
                ref = float(dP(Fraction(y)))
                got = laguerre_deriv(n, a, y)
                assert abs(got - ref) / max(1.0, abs(ref)) <= 1e-12


# ---------------------------------------------------- first-order relations


def _relation_sides_exact(relation, n, a):
    """(LHS, RHS) of a relation as exact polynomials in y."""
    P = ExactPolynomial.laguerre(n, a)
    dP = P.derivative()
    zero = ExactPolynomial.zero()
    if relation == "raise-n":
        lhs = dP.shift_up() + (n + 1 + a) * P - P.shift_up()
        rhs = (n + 1) * ExactPolynomial.laguerre(n + 1, a)
    elif relation == "lower-n":
        lhs = -1 * dP.shift_up() + n * P
        rhs = (n + a) * (ExactPolynomial.laguerre(n - 1, a) if n else zero)
    elif relation == "raise-alpha":
        lhs = -1 * dP + P
        rhs = ExactPolynomial.laguerre(n, a + 1)
    elif relation == "lower-alpha":
        lhs = dP.shift_up() + a * P
        rhs = (n + a) * ExactPolynomial.laguerre(n, a - 1)
    elif relation == "lower-n-raise-alpha2":
        lhs = (a + 1) * dP + n * P
        rhs = -1 * (
            ExactPolynomial.laguerre(n - 1, a + 2).shift_up() if n else zero
        )
    elif relation == "raise-n-lower-alpha2":
        lhs = (a - 1) * dP.shift_up() - (n + a) * P.shift_up() + a * (a - 1) * P
        rhs = (n + 1) * (n + a) * ExactPolynomial.laguerre(n + 1, a - 2)
    else:
        raise AssertionError(relation)
    return lhs, rhs


@pytest.mark.parametrize("relation", FIRST_ORDER_RELATIONS)
def test_first_order_relation_exact(relation):
    for n in NGRID:
        for a in AGRID:
            lhs, rhs = _relation_sides_exact(relation, n, a)
            assert lhs == rhs


@pytest.mark.parametrize("relation", FIRST_ORDER_RELATIONS)
def test_first_order_relation_numeric(relation):
    for n, a, y in grid_points():
        chk = recurrence_check(relation, n, a, y)
        assert chk.residual / max(chk.scale, 1.0) <= 1e-10
        if chk.scale >= 1.0:
            assert chk.residual <= 1e-10 * chk.scale


def test_boundary_case_lower_n_at_degree_zero():
    # Both sides vanish: LHS = -y*0 + 0, RHS hits the degree -1 convention.
    chk = recurrence_check("lower-n", 0, 2, 3.0)
    assert chk.lhs == 0.0 and chk.rhs == 0.0


def test_first_relation_point():
    assert recurrence_residual("raise-n", 1, 0, 0.7) <= 1e-14


# ------------------------------------------------------ composed relations


@pytest.mark.parametrize("relation", COMPOSED_RELATIONS)
def test_corrected_composed_relation_exact(relation):
    for n in NGRID:
        for a in AGRID:
            lhs, rhs = _relation_sides_exact(relation, n, a)
            assert lhs == rhs


@pytest.mark.parametrize("relation", COMPOSED_RELATIONS)
def test_corrected_composed_relation_numeric(relation):
    for n, a, y in grid_points():
        chk = recurrence_check(relation, n, a, y, form="corrected")
        assert chk.residual / max(chk.scale, 1.0) <= 1e-10


def test_printed_composed_relations_fail():
    """The as-printed composed forms are not identities.

    At (n=1, alpha=0, y=1) the first printed form gives LHS = -1, RHS = 0;
    the corrected form is exact at the same point.
    """
    chk = recurrence_check("lower-n-raise-alpha2", 1, 0, 1.0, form="printed")
    assert chk.lhs == -1.0 and chk.rhs == 0.0
    assert chk.residual == 1.0
    assert recurrence_residual("lower-n-raise-alpha2", 1, 0, 1.0, form="corrected") == 0.0

    fails = 0
    total = 0
    for n in NGRID:
        for a in AGRID:
            if a == -1:
                continue
            total += 1
            if any(
                recurrence_check(
                    "lower-n-raise-alpha2", n, a, y, form="printed"
                ).relative_residual
                > 1e-6
                for y in YGRID
            ):
                fails += 1
    assert fails > total // 2

    chk2 = recurrence_check("raise-n-lower-alpha2", 1, 0, 1.0, form="printed")
    assert chk2.residual > 0.1


def test_printed_form_divides_by_zero_at_alpha_minus_one():
    with pytest.raises(DomainError):
        recurrence_check("lower-n-raise-alpha2", 2, -1, 1.0, form="printed")
    with pytest.raises(DomainError):
        recurrence_check("lower-n-raise-alpha2", 2, np.arange(-2, 2)[:, None], YGRID, "printed")


def test_unknown_relation_rejected():
    with pytest.raises(DomainError):
        recurrence_residual("raise-q", 1, 0, 1.0)


@pytest.mark.parametrize("relation", FIRST_ORDER_RELATIONS + COMPOSED_RELATIONS)
def test_unknown_form_rejected(relation):
    with pytest.raises(DomainError, match="unknown form 'bogus'"):
        recurrence_check(relation, 2, 0, 1.0, form="bogus")
    for form in ("printed", "corrected"):
        recurrence_check(relation, 2, 0, 1.0, form=form)


def test_index_arguments_take_numpy_integers():
    i64 = np.int64
    assert laguerre_eval(i64(3), i64(1), 1.0) == laguerre_eval(3, 1, 1.0)
    assert laguerre_deriv(i64(3), 1, 1.0, i64(2)) == laguerre_deriv(3, 1, 1.0, 2)
    assert laguerre_reflect(i64(3), i64(-1), 1.0) == laguerre_reflect(3, -1, 1.0)
    check = recurrence_check("raise-n", i64(3), i64(1), 1.0)
    assert check == recurrence_check("raise-n", 3, 1, 1.0)
    index = LaguerreIndex(np.int32(2), i64(-1))
    assert index == LaguerreIndex(2, -1) and type(index.n) is type(index.alpha) is int


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: laguerre_eval(True, 0, 1.0),
        lambda: laguerre_eval(1, False, 1.0),
        lambda: laguerre_eval(2.0, 0, 1.0),
        lambda: laguerre_eval(np.array([True, False]), 0, 1.0),
        lambda: laguerre_eval(np.array([1.0, 2.0]), 0, 1.0),
        lambda: laguerre_deriv(2, 0, 1.0, True),
        lambda: laguerre_deriv(2, 0, 1.0, 1.0),
        lambda: laguerre_deriv(True, 0, 1.0),
        lambda: laguerre_reflect(True, 0, 1.0),
        lambda: laguerre_reflect(2, np.array([False]), 1.0),
        lambda: recurrence_check("raise-n", True, 0, 1.0),
        lambda: LaguerreIndex(True, 0),
        lambda: LaguerreIndex(1, False),
    ],
)
def test_bool_and_non_integer_indices_rejected(evaluate):
    with pytest.raises(DomainError):
        evaluate()


def test_negative_degree_in_an_array_rejected():
    with pytest.raises(DomainError, match="n=-2"):
        laguerre_eval(np.array([3, -2, 0]), 0, 1.0)


# --------------------------------------------------------------- property


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 12),
    a=st.integers(-6, 6),
    y=st.floats(0.01, 40.0, allow_nan=False),
)
def test_eval_tracks_oracle_everywhere(n, a, y):
    ref = float(exact_value(n, a, y))
    assert abs(laguerre_eval(n, a, y) - ref) <= 1e-10 * max(1.0, abs(ref))


@settings(max_examples=60, deadline=None)
@given(
    relation=st.sampled_from(FIRST_ORDER_RELATIONS),
    n=st.integers(0, 10),
    a=st.integers(-5, 5),
    y=st.floats(0.05, 30.0, allow_nan=False),
)
def test_first_order_relations_hold_at_random_points(relation, n, a, y):
    chk = recurrence_check(relation, n, a, y)
    assert chk.relative_residual <= 1e-10


# ------------------------------------------------------- arrays and scalars

# The verify grid plus a wider one: larger degrees, superscripts and points.
WIDE_N = sorted(set(NGRID) | {17, 24})
WIDE_A = np.arange(-6, 13)
WIDE_Y = np.array(YGRID + (0.0, 1e-3, 0.37, 2.5, 11.0, 33.0, 60.0))
VARIANTS = [(r, "corrected") for r in FIRST_ORDER_RELATIONS] + [
    (r, f) for r in COMPOSED_RELATIONS for f in ("printed", "corrected")
]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def scalar_grid(fn, alphas, ys):
    return np.array([[fn(int(a), float(y)) for y in ys] for a in alphas])


@pytest.mark.parametrize("n", WIDE_N)
def test_array_eval_and_deriv_equal_scalar_loop(n):
    grid = WIDE_A[:, None], WIDE_Y[None, :]
    assert same_bits(
        laguerre_eval(n, *grid), scalar_grid(lambda a, y: laguerre_eval(n, a, y), WIDE_A, WIDE_Y)
    )
    for order in (1, 2):
        assert same_bits(
            laguerre_deriv(n, *grid, order=order),
            scalar_grid(lambda a, y: laguerre_deriv(n, a, y, order), WIDE_A, WIDE_Y),
        )


@pytest.mark.parametrize("relation, form", VARIANTS)
def test_array_recurrence_check_equals_scalar_checks(relation, form):
    alphas = WIDE_A
    if (relation, form) == ("lower-n-raise-alpha2", "printed"):
        alphas = alphas[alphas != -1]
    for n in WIDE_N:
        grid = recurrence_check(relation, n, alphas[:, None], WIDE_Y, form)
        points = [[recurrence_check(relation, n, int(a), float(y), form) for y in WIDE_Y]
                  for a in alphas]
        assert (grid.relation, grid.form) == (points[0][0].relation, points[0][0].form)
        for field in ("lhs", "rhs", "scale", "residual", "relative_residual"):
            expected = [[getattr(c, field) for c in row] for row in points]
            assert all(isinstance(v, float) for row in expected for v in row)
            assert same_bits(getattr(grid, field), expected), (n, field)


# The verify grid as axes that broadcast to (n, alpha, y).
N_AXIS = np.array(NGRID)[:, None, None]
A_AXIS = np.array(AGRID)[:, None]
Y_AXIS = np.array(YGRID)


def scalar_grid3(fn, alphas=AGRID):
    return np.array([[[fn(n, a, y) for y in YGRID] for a in alphas] for n in NGRID])


def test_degree_array_eval_and_deriv_equal_scalar_calls():
    assert same_bits(laguerre_eval(N_AXIS, A_AXIS, Y_AXIS), scalar_grid3(laguerre_eval))
    # Orders up to 2 include order > n at n = 0 and 1.
    for order in (0, 1, 2):
        assert same_bits(
            laguerre_deriv(N_AXIS, A_AXIS, Y_AXIS, order),
            scalar_grid3(lambda n, a, y: laguerre_deriv(n, a, y, order)),
        ), order


def test_degree_array_reflect_equals_scalar_calls():
    pairs = np.array([(n, a) for n in NGRID for a in AGRID if -n <= a <= 0])
    got = laguerre_reflect(pairs[:, :1], pairs[:, 1:], Y_AXIS)
    expected = [[laguerre_reflect(int(n), int(a), y) for y in YGRID] for n, a in pairs]
    assert same_bits(got, expected)


ALL_FORMS = VARIANTS + [(r, "printed") for r in FIRST_ORDER_RELATIONS]


@pytest.mark.parametrize("relation, form", ALL_FORMS)
def test_degree_array_recurrence_check_equals_scalar_checks(relation, form):
    alphas = [a for a in AGRID if (relation, form, a) != ("lower-n-raise-alpha2", "printed", -1)]
    grid = recurrence_check(relation, N_AXIS, np.array(alphas)[:, None], Y_AXIS, form)
    points = scalar_grid3(lambda n, a, y: recurrence_check(relation, n, a, y, form), alphas)
    assert grid.form == points.flat[0].form
    for field in ("lhs", "rhs", "scale", "residual", "relative_residual"):
        expected = np.vectorize(lambda c: getattr(c, field))(points)
        assert same_bits(getattr(grid, field), expected), field


@pytest.mark.parametrize("form", ("printed", "corrected"))
def test_three_term_lhs_equals_fsum(form):
    for n in WIDE_N:
        for a in WIDE_A:
            a = int(a)
            for y in WIDE_Y:
                y = float(y)
                L, dL = laguerre_eval(n, a, y), laguerre_deriv(n, a, y)
                shift = n + 1.5 * a if form == "printed" else n + a
                terms = [y * (a - 1) * dL, -y * shift * L, a * (a - 1) * L]
                chk = recurrence_check("raise-n-lower-alpha2", n, a, y, form)
                assert chk.lhs == math.fsum(terms), (n, a, y)


@pytest.mark.parametrize("alpha", [np.array([0.0, 1.0]), np.array([True, False])])
def test_non_integer_alpha_array_rejected(alpha):
    for evaluate in (
        lambda: laguerre_eval(2, alpha, 1.0),
        lambda: laguerre_deriv(2, alpha, 1.0),
        lambda: recurrence_check("raise-n", 2, alpha, 1.0),
    ):
        with pytest.raises(DomainError):
            evaluate()


# ------------------------------------------------------------ double range


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_value_outside_double_range_raises_naming_the_point():
    with pytest.raises(DomainError, match=r"n=600, alpha=0\).*y=2000\.0"):
        laguerre_eval(600, 0, 2000.0)
    with pytest.raises(DomainError, match=r"alpha=3\).*y=2000\.0"):
        laguerre_eval(600, np.array([[3], [0]]), np.array([1.0, 2000.0]))
    with pytest.raises(DomainError, match=r"y=2000\.0"):
        laguerre_deriv(601, 0, [1.0, 2000.0])
    with pytest.raises(DomainError, match=r"laguerre_reflect\(n=200, alpha=-150\)"):
        laguerre_reflect(200, -150, 1e5)
    # L_300(1500) is finite, but y (alpha - 1) L' is not.
    with pytest.raises(DomainError, match=r"recurrence_check\(n=300, alpha=0\).*y=1500\.0"):
        recurrence_check("raise-n-lower-alpha2", 300, 0, 1500.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degree_array_outside_double_range_names_the_first_bad_point():
    # L_600^(3) and L_600^(0) overflow at y = 2000; the degree-10 values do not.
    n = np.array([[10], [600], [600]])
    with pytest.raises(DomainError, match=r"laguerre_eval\(n=600, alpha=3\).*y=2000\.0"):
        laguerre_eval(n, np.array([[0], [3], [0]]), np.array([1.0, 2000.0]))
    with pytest.raises(DomainError, match=r"laguerre_deriv\(n=601, alpha=0\).*y=2000\.0"):
        laguerre_deriv(np.array([1, 601]), 0, 2000.0)
    with pytest.raises(DomainError, match=r"recurrence_check\(n=300, alpha=0\).*y=1500\.0"):
        recurrence_check("raise-n-lower-alpha2", np.array([2, 300]), 0, 1500.0)
    assert np.isfinite(laguerre_eval(n[:1], 0, np.array([1.0, 2000.0]))).all()


def test_laguerre_suite_makes_few_evaluator_calls(monkeypatch):
    from planeharm import laguerre, verify

    calls = []
    for name in ("laguerre_eval", "laguerre_deriv", "laguerre_reflect", "recurrence_check"):

        def counted(*args, _name=name, _original=getattr(laguerre, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(laguerre, name, counted)
        monkeypatch.setattr(verify, name, counted)
    assert verify.run_suite("laguerre", 8).overall_pass
    assert 0 < calls.count("laguerre_eval") and len(calls) <= 50


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_y_raises(bad):
    for evaluate in (
        lambda: laguerre_eval(0, 1, bad),
        lambda: laguerre_eval(3, 1, [0.5, bad]),
        lambda: laguerre_deriv(0, 1, bad),
        lambda: laguerre_reflect(2, -1, bad),
    ):
        with pytest.raises(DomainError, match="y is not finite"):
            evaluate()
