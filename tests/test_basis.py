"""Radial functions, plane harmonics, labels, and the radial equation."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from planeharm.basis import (
    PlanePoint,
    SpinIndex,
    calL,
    calL_deriv,
    calZ,
    ode_residual,
    require_same_sector,
    sector_labels,
)
from planeharm.errors import DomainError, SectorMixingError
from planeharm.quadrature import gauss_laguerre, halfline_inner

YS = np.linspace(0.1, 30.0, 40)


# ------------------------------------------------------------------ labels


def test_spin_index_validation():
    SpinIndex(3, -1)
    with pytest.raises(DomainError):
        SpinIndex(2, 1)  # parity mismatch
    with pytest.raises(DomainError):
        SpinIndex(2, 4)  # |m| > j
    with pytest.raises(DomainError):
        SpinIndex(-2, 0)
    with pytest.raises(DomainError):
        SpinIndex(2.0, 0.0)


def test_spin_index_accessors():
    s = SpinIndex.from_jm(Fraction(3, 2), Fraction(-1, 2))
    assert (s.two_j, s.two_m) == (3, -1)
    assert s.j == Fraction(3, 2) and s.m == Fraction(-1, 2)
    assert s.sector == "half"
    assert SpinIndex.from_jm(2, -1).sector == "int"
    with pytest.raises(DomainError):
        SpinIndex.from_jm(0.75, 0.25)


def test_plane_point_domain():
    PlanePoint(0.0, math.pi)
    with pytest.raises(DomainError):
        PlanePoint(-0.1, 0.0)
    with pytest.raises(DomainError):
        PlanePoint(1.0, 3.5)


def test_sector_labels_counts_and_order():
    ints = sector_labels("int", 2)
    assert len(ints) == 9  # (2j+1) over j = 0, 1, 2
    assert ints[0] == SpinIndex(0, 0)
    assert ints[-1] == SpinIndex(4, 4)
    halves = sector_labels("half", Fraction(3, 2))
    assert len(halves) == 6
    assert halves[0] == SpinIndex(1, -1)
    with pytest.raises(DomainError):
        sector_labels("both", 2)


@pytest.mark.parametrize(
    "sector, j_max",
    [("int", 0.3), ("half", 1.2), ("int", -2), ("int", "x"), ("half", None), ("int", True)],
)
def test_sector_labels_rejects_a_j_max_that_is_no_nonnegative_half_integer(sector, j_max):
    with pytest.raises(DomainError):
        sector_labels(sector, j_max)


def test_sector_mixing_guard():
    require_same_sector(SpinIndex(2, 0), SpinIndex(4, 2))
    with pytest.raises(SectorMixingError):
        require_same_sector(SpinIndex(2, 0), SpinIndex(3, 1))


# ---------------------------------------------------------- radial values


def test_radial_point_values():
    # j = m = 1/2: +/- sqrt(y) e^(-y/2), sign set by the half-odd positive m.
    assert calL(SpinIndex(1, -1), 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert calL(SpinIndex(1, 1), 1.0) == pytest.approx(-math.exp(-0.5), rel=1e-14)
    # j = 1, m = 1: y e^(-y/2)/sqrt(2).
    assert calL(SpinIndex(2, 2), 2.0) == pytest.approx(
        2.0 * math.exp(-1.0) / math.sqrt(2.0), rel=1e-14
    )
    # j = 1, m = 0 at the Laguerre root y = 1.
    assert calL(SpinIndex(2, 0), 1.0) == 0.0


def test_radial_values_at_origin():
    assert calL(SpinIndex(0, 0), 0.0) == 1.0
    assert calL(SpinIndex(6, 0), 0.0) == 1.0
    assert calL(SpinIndex(3, 1), 0.0) == 0.0
    with pytest.raises(DomainError):
        calL(SpinIndex(2, 0), -1.0)


def test_radial_vectorized():
    s = SpinIndex(5, 3)
    v = calL(s, YS)
    assert v.shape == YS.shape
    assert v[7] == calL(s, float(YS[7]))


def test_sign_flip_under_m_reflection():
    for two_j in range(0, 13):
        for two_m in range(-two_j, two_j + 1, 2):
            plus = calL(SpinIndex(two_j, two_m), YS)
            minus = calL(SpinIndex(two_j, -two_m), YS)
            assert np.max(np.abs(plus - (-1.0) ** two_m * minus)) <= 1e-12


def test_unsigned_m_reflection_fails_for_half_integer_m():
    s = SpinIndex(1, 1)
    r = SpinIndex(1, -1)
    gap = np.max(np.abs(calL(s, YS) - calL(r, YS)))
    assert gap > 0.5  # equality without the (-1)^(2m) sign is wrong


def test_radial_orthonormality_fixed_m():
    for two_m in (-3, -1, 0, 2, 4):
        sector = [tj for tj in range(abs(two_m), 13, 2)]
        for tj1 in sector:
            for tj2 in sector:
                s1, s2 = SpinIndex(tj1, two_m), SpinIndex(tj2, two_m)
                val = halfline_inner(
                    lambda y: calL(s1, y),
                    lambda y: calL(s2, y),
                    m=Fraction(two_m, 2),
                    j_cap=Fraction(max(tj1, tj2), 2),
                )
                expect = 1.0 if tj1 == tj2 else 0.0
                assert val == pytest.approx(expect, abs=1e-12)


def calL_mpmath(two_j, two_m, y):
    """calL from mpmath's Laguerre polynomial, summed at 60 digits."""
    a = abs(two_m)
    k = (two_j - a) // 2
    sign = -1 if (two_m > 0 and two_m % 2) else 1
    with mpmath.workdps(60):
        y = mpmath.mpf(y)
        pref = mpmath.sqrt(mpmath.factorial(k) / mpmath.factorial(k + a))
        val = pref * y ** (mpmath.mpf(a) / 2) * mpmath.exp(-y / 2) * mpmath.laguerre(k, a, y)
        return sign * float(val)


@pytest.mark.parametrize(
    "two_j, two_m, y, approx",
    [(300, 300, 300.0, 1.517450e-01), (600, 0, 1000.0, -3.753353e-02),
     (400, -100, 700.0, -5.053569e-02)],
)
def test_high_j_against_mpmath(two_j, two_m, y, approx):
    want = calL_mpmath(two_j, two_m, y)
    assert want == pytest.approx(approx, rel=1e-6)
    assert calL(SpinIndex(two_j, two_m), y) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("two_j, two_m, y", [(800, 0, 1500.0), (600, 0, 2400.0)])
def test_high_j_past_the_start_underflow(two_j, two_m, y):
    # e^(-y/2) underflows here; the value is either right or a DomainError.
    want = calL_mpmath(two_j, two_m, y)
    try:
        got = calL(SpinIndex(two_j, two_m), y)
    except DomainError:
        return
    assert math.isfinite(got) and got != 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_radial_rejects_non_finite_y():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            calL(SpinIndex(2, 0), bad)


# ----------------------------------------------------------- derivatives


def test_derivative_against_finite_differences():
    for two_j in range(0, 11):
        for two_m in range(-two_j, two_j + 1, 2):
            s = SpinIndex(two_j, two_m)
            for y in (0.3, 1.0, 4.0, 9.0):
                h = 1e-6
                fd1 = (calL(s, y + h) - calL(s, y - h)) / (2.0 * h)
                assert abs(fd1 - calL_deriv(s, y, 1)) <= 1e-8
                h = 1e-4
                fd2 = (calL(s, y + h) - 2.0 * calL(s, y) + calL(s, y - h)) / h**2
                assert abs(fd2 - calL_deriv(s, y, 2)) <= 1e-6


def test_derivative_domain():
    s = SpinIndex(2, 2)
    assert calL_deriv(s, 1.0, 0) == calL(s, 1.0)
    with pytest.raises(DomainError):
        calL_deriv(s, 0.0, 1)
    with pytest.raises(DomainError):
        calL_deriv(s, 1.0, 3)


def test_derivative_past_the_double_range_is_a_domain_error():
    # At |m| = 1/2 the second derivative grows like y^(-3/2)/4 as y -> 0.
    s = SpinIndex(1, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"two_j=1, two_m=-1, order=2.*y = 1e-300"):
            calL_deriv(s, 1e-300, 2)
        with pytest.raises(DomainError, match=r"y = 1e-300"):
            calL_deriv(s, np.array([1.0, 1e-300]), 2)
        assert calL_deriv(s, 1e-200, 2) == pytest.approx(-0.25e300, rel=1e-12)
        assert calL_deriv(s, 1e-300, 1) == pytest.approx(0.5e150, rel=1e-12)


def _deriv_poly(poly, b):
    """R such that d/dy [y^b e^(-y/2) P(y)] = y^(b-1) e^(-y/2) R(y).

    Polynomials are lists of exact coefficients, lowest degree first.
    """
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] += (b + i) * c
        out[i + 1] -= c / 2
    return out


def calL_deriv_exact(two_j, two_m, ys, order):
    """calL_deriv from the exact Laguerre series at each y of ``ys``.

    The polynomial part is differentiated and evaluated in exact rationals
    at the exact binary value of y; only the final prefactor
    sqrt(k!/(k+a)!) y^(a/2 - order) e^(-y/2) is formed in mpmath.
    """
    a = abs(two_m)
    k = (two_j - a) // 2
    sign = -1 if (two_m > 0 and two_m % 2) else 1
    b = Fraction(a, 2)
    poly = [
        Fraction((-1) ** i * math.comb(k + a, k - i), math.factorial(i))
        for i in range(k + 1)
    ]
    for d in range(order):
        poly = _deriv_poly(poly, b - d)
    out = []
    with mpmath.workdps(40):
        for y in ys:
            yq = Fraction(y)
            acc = Fraction(0)
            for c in reversed(poly):
                acc = acc * yq + c
            ym = mpmath.mpf(y)
            pref = mpmath.sqrt(mpmath.factorial(k) / mpmath.factorial(k + a))
            val = pref * ym ** (b - order) * mpmath.exp(-ym / 2)
            val *= mpmath.mpf(acc.numerator) / acc.denominator
            out.append(sign * float(val))
    return np.array(out)


def _deriv_error(two_j, two_m, ys, order):
    """|calL_deriv - exact| at each y, and the exact value and next derivative."""
    want = calL_deriv_exact(two_j, two_m, ys, order)
    got = np.asarray(calL_deriv(SpinIndex(two_j, two_m), np.array(ys), order))
    assert np.all(np.isfinite(got))
    return np.abs(got - want), np.maximum(np.abs(want), np.abs(got)), calL_deriv_exact(
        two_j, two_m, ys, order + 1
    )


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "two_j, two_m, y",
    [(300, 300, 300.0), (600, 0, 2400.0), (600, 0, 1000.0), (400, -100, 700.0)],
)
def test_derivative_high_j_against_exact_series(two_j, two_m, y, order):
    # At (300, 300, 300) the first derivative is an exact 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err, size, _ = _deriv_error(two_j, two_m, [y], order)
    assert err[0] <= 1e-12 * size[0]


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_against_exact_series_up_to_2j_40(order):
    # Near a zero of the derivative a plain relative bound asks for more than
    # any evaluation in doubles gives (the recurrence's rounding is relative
    # to the function's envelope, not to its value there); the bound also
    # admits y |next derivative|, the change a relative shift of y by the
    # same 1e-12 would make.  The worst measured ratio is about 1e-14.
    ys = np.array([1e-4, 1e-2, 0.3, 3.0, 30.0])
    for two_j in range(0, 41):
        for two_m in range(-two_j, two_j + 1, 2):
            err, size, nxt = _deriv_error(two_j, two_m, ys, order)
            assert np.all(err <= 1e-12 * np.maximum(size, ys * np.abs(nxt)))


# ------------------------------------------------------- radial equation


def test_radial_equation_all_labels():
    """[y d2 + d - m^2/y - y/4 + j + 1/2] calL vanishes at quadrature nodes."""
    for two_j in range(0, 17):
        for two_m in range(-two_j, two_j + 1, 2):
            s = SpinIndex(two_j, two_m)
            nodes = gauss_laguerre(
                int(math.ceil((two_j - abs(two_m)) / 2)) + 2, abs(two_m)
            ).nodes
            res = ode_residual(s, nodes)
            f = calL(s, nodes)
            ddf = calL_deriv(s, nodes, 2)
            scale = np.maximum(1.0, np.maximum(np.abs(f), np.abs(nodes * ddf)))
            assert np.max(np.abs(res) / scale) <= 1e-9


def test_radial_equation_domain():
    with pytest.raises(DomainError):
        ode_residual(SpinIndex(2, 0), 0.0)


# --------------------------------------------------------- plane harmonics


def test_plane_harmonic_values():
    got = calZ(SpinIndex(1, -1), (1.0, math.pi))
    assert got == pytest.approx(-1j * math.exp(-0.5), abs=1e-15)
    assert calZ(SpinIndex(2, 0), PlanePoint(1.0, 2.0)) == pytest.approx(0.0, abs=1e-15)
    # m = 0 harmonics are real and phi-independent.
    s = SpinIndex(4, 0)
    assert calZ(s, (2.0, 1.3)) == pytest.approx(calL(s, 2.0))


def test_plane_harmonic_periodicity_by_sector():
    y = 1.7
    whole = SpinIndex(4, 2)
    assert calZ(whole, (y, math.pi)) == pytest.approx(
        calZ(whole, (y, -math.pi)), rel=1e-14
    )
    half = SpinIndex(3, 1)
    assert calZ(half, (y, math.pi)) == pytest.approx(
        -calZ(half, (y, -math.pi)), rel=1e-14
    )


def test_plane_harmonic_vectorized_in_y():
    s = SpinIndex(3, -1)
    v = calZ(s, (YS, 0.4))
    assert v.shape == YS.shape
    assert v[3] == calZ(s, (float(YS[3]), 0.4))
