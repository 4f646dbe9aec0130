"""Normal-ordering engine: rewrite rules, operator builders, closure residuals.

The hand-derived commutators below were worked out independently on paper
and act as goldens for the engine; the two closure residuals are frozen in
the errata catalog and must reproduce byte for byte.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeharm import errata
from planeharm.algebra import (
    DEFAULT_RULES,
    OperatorExpr,
    QQi,
    RewriteRuleSet,
    anticommutator,
    build_operator,
    commutator,
    critical_pairs,
    normal_form,
    reduce_word,
    verify_e_correction,
)
from planeharm.errors import DomainError, ReductionLimitError


def sym(name, two_dm=0):
    return OperatorExpr.symbol(name, two_dm)


def word_expr(*letters):
    expr = OperatorExpr.scalar(1)
    for letter in letters:
        expr = expr * sym(letter)
    return expr


def coeffs(expr):
    """Map (a, b, d, p, q, two_dm) -> coefficient as a complex-free Fraction."""
    out = {}
    for mono, c in expr.terms.items():
        assert c.im == 0, f"unexpected imaginary coefficient in {expr.serialize()}"
        out[tuple(mono)] = c.re
    return out


class TestQQi:
    def test_arithmetic(self):
        a = QQi(Fraction(1, 2), Fraction(3, 4))
        b = QQi(2)
        assert a + b == QQi(Fraction(5, 2), Fraction(3, 4))
        assert a - b == QQi(Fraction(-3, 2), Fraction(3, 4))
        assert a * b == QQi(1, Fraction(3, 2))
        assert -a == QQi(Fraction(-1, 2), Fraction(-3, 4))
        assert a * QQi(0, 1) == QQi(Fraction(-3, 4), Fraction(1, 2))

    def test_str_forms(self):
        assert str(QQi(Fraction(3, 2))) == "3/2"
        assert str(QQi(0, 1)) == "i"
        assert str(QQi(0, -1)) == "-i"
        assert str(QQi(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4i"

    def test_floats_rejected(self):
        with pytest.raises(DomainError):
            QQi(0.5)

    def test_complex_conversion_and_zero(self):
        assert complex(QQi(Fraction(1, 2), Fraction(3, 4))) == 0.5 + 0.75j
        assert QQi(0).is_zero()
        assert not QQi(0, 1).is_zero()

    def test_hashable(self):
        assert len({QQi(1), QQi(1, 0), QQi(0, 1)}) == 2


class TestRewriting:
    def test_d_past_y(self):
        # [d/dy, y] = 1
        assert coeffs(word_expr("D", "Y")) == {
            (1, 0, 1, 0, 0, 0): 1,
            (0, 0, 0, 0, 0, 0): 1,
        }

    def test_d_past_yinv(self):
        # [d/dy, 1/y] = -1/y^2
        assert coeffs(word_expr("D", "Yi")) == {
            (0, 1, 1, 0, 0, 0): 1,
            (0, 2, 0, 0, 0, 0): -1,
        }

    def test_m_past_d(self):
        assert coeffs(word_expr("M", "D")) == {
            (0, 0, 1, 1, 0, 0): 1,
            (0, 0, 1, 0, 0, 0): -1,
        }

    def test_y_yinv_cancel(self):
        assert coeffs(word_expr("Y", "Yi", "M")) == {(0, 0, 0, 1, 0, 0): 1}
        assert coeffs(word_expr("Yi", "Y")) == {(0, 0, 0, 0, 0, 0): 1}

    def test_j_commutes(self):
        for letter in ("Y", "Yi", "D", "M"):
            assert commutator(sym("J"), sym(letter)).is_zero()

    def test_m_past_y_half_steps(self):
        # M y = y M + y/2 and M / y = (1/y) M - (1/2) / y
        assert coeffs(word_expr("M", "Y")) == {
            (1, 0, 0, 1, 0, 0): 1,
            (1, 0, 0, 0, 0, 0): Fraction(1, 2),
        }
        assert coeffs(word_expr("M", "Yi")) == {
            (0, 1, 0, 1, 0, 0): 1,
            (0, 1, 0, 0, 0, 0): Fraction(-1, 2),
        }

    def test_reduce_word_output(self):
        assert reduce_word(("D", "Y"), DEFAULT_RULES) == {
            (): Fraction(1),
            ("Y", "D"): Fraction(1),
        }

    def test_reduction_cap(self):
        with pytest.raises(ReductionLimitError):
            reduce_word(("M", "M", "D", "D", "Y", "Y"), DEFAULT_RULES, max_steps=2)

    def test_rule_coverage_enforced(self):
        with pytest.raises(DomainError):
            RewriteRuleSet(tuple(DEFAULT_RULES.rules[:-1]))

    def test_duplicate_rules_rejected(self):
        with pytest.raises(DomainError):
            RewriteRuleSet(tuple(DEFAULT_RULES.rules) + (DEFAULT_RULES.rules[0],))


class TestExpressions:
    def test_linear_combinations(self):
        d = sym("D")
        assert (2 * d - d).serialize() == "1 Y^0 Yinv^0 D^1 M^0 J^0"
        assert (d - d).is_zero()
        assert (d - d).serialize() == "0"

    def test_scalar_coefficients(self):
        half = Fraction(1, 2) * sym("M")
        assert coeffs(half) == {(0, 0, 0, 1, 0, 0): Fraction(1, 2)}
        imag = QQi(0, 1) * sym("M")
        ((mono, c),) = imag.terms.items()
        assert (c.re, c.im) == (0, 1)

    def test_eq_and_hash_order_independent(self):
        assert sym("D") + sym("Y") == sym("Y") + sym("D")
        assert hash(sym("D") + sym("Y")) == hash(sym("Y") + sym("D"))

    def test_phase_tags_accumulate(self):
        jp = build_operator("J+")
        assert {m.two_dm for m in jp.terms} == {2}
        assert {m.two_dm for m in (jp * jp).terms} == {4}
        assert jp.serialize().splitlines()[0].endswith("dm=1")

    def test_max_derivative_order(self):
        assert build_operator("E").max_derivative_order() == 2
        assert build_operator("K3").max_derivative_order() == 0

    def test_cancelled_terms_are_not_stored(self):
        d, y = sym("D"), sym("Y")
        # -D Y + Y D = -1: the Y D terms cancel inside the product.
        product = (d + y) * (d - y)
        assert coeffs(product) == {
            (0, 0, 2, 0, 0, 0): 1,
            (2, 0, 0, 0, 0, 0): -1,
            (0, 0, 0, 0, 0, 0): -1,
        }
        assert coeffs(product + y * y + 1) == {(0, 0, 2, 0, 0, 0): 1}
        assert coeffs(normal_form(product - d * d)) == coeffs(-(y * y) - 1)

    def test_normal_form_is_identity_on_canonical(self):
        kp = build_operator("K+")
        assert normal_form(kp) == kp


class TestOperators:
    def test_k3_is_m(self):
        assert build_operator("K3").serialize() == "1 Y^0 Yinv^0 D^0 M^1 J^0"

    def test_kplus_canonical_form(self):
        # K+ = -2DM - D + 2(1/y)M^2 + (1/y)M - J - 1/2
        assert coeffs(build_operator("K+")) == {
            (0, 0, 1, 1, 0, 0): -2,
            (0, 0, 1, 0, 0, 0): -1,
            (0, 1, 0, 2, 0, 0): 2,
            (0, 1, 0, 1, 0, 0): 1,
            (0, 0, 0, 0, 1, 0): -1,
            (0, 0, 0, 0, 0, 0): Fraction(-1, 2),
        }

    def test_kminus_canonical_form(self):
        assert coeffs(build_operator("K-")) == {
            (0, 0, 1, 1, 0, 0): 2,
            (0, 0, 1, 0, 0, 0): -1,
            (0, 1, 0, 2, 0, 0): 2,
            (0, 1, 0, 1, 0, 0): -1,
            (0, 0, 0, 0, 1, 0): -1,
            (0, 0, 0, 0, 0, 0): Fraction(-1, 2),
        }

    def test_e_canonical_form(self):
        # E = y d^2 + d - (1/y)M^2 - y/4 + J + 1/2
        assert coeffs(build_operator("E")) == {
            (1, 0, 2, 0, 0, 0): 1,
            (0, 0, 1, 0, 0, 0): 1,
            (0, 1, 0, 2, 0, 0): -1,
            (1, 0, 0, 0, 0, 0): Fraction(-1, 4),
            (0, 0, 0, 0, 1, 0): 1,
            (0, 0, 0, 0, 0, 0): Fraction(1, 2),
        }

    def test_j_ladders_are_tagged_k_ladders(self):
        for k_name, j_name, tag in (("K+", "J+", 2), ("K-", "J-", -2)):
            k_terms = coeffs(build_operator(k_name))
            j_terms = coeffs(build_operator(j_name))
            assert j_terms == {
                key[:5] + (tag,): value for key, value in k_terms.items()
            }

    def test_unknown_operator(self):
        with pytest.raises(DomainError):
            build_operator("K*")


class TestHandDerivedGoldens:
    def test_m_bracket_kplus(self):
        # [M, K+] = 2DM + D - (1/y)M^2 - (1/2)(1/y)M, derived by hand
        got = coeffs(commutator(sym("M"), build_operator("K+")))
        assert got == {
            (0, 0, 1, 1, 0, 0): 2,
            (0, 0, 1, 0, 0, 0): 1,
            (0, 1, 0, 2, 0, 0): -1,
            (0, 1, 0, 1, 0, 0): Fraction(-1, 2),
        }

    def test_ladder_bracket(self):
        # [K+, K-] = -4D^2 - 12(1/y)DM^2 + 8(1/y)DM + 2(1/y)D
        #            + 8(1/y^2)M^3 - 2(1/y^2)M^2 - 3(1/y^2)M
        got = coeffs(commutator(build_operator("K+"), build_operator("K-")))
        assert got == {
            (0, 0, 2, 0, 0, 0): -4,
            (0, 1, 1, 2, 0, 0): -12,
            (0, 1, 1, 1, 0, 0): 8,
            (0, 1, 1, 0, 0, 0): 2,
            (0, 2, 0, 3, 0, 0): 8,
            (0, 2, 0, 2, 0, 0): -2,
            (0, 2, 0, 1, 0, 0): -3,
        }

    def test_j_bracket_vanishes(self):
        for name in ("K+", "K-", "K3", "E"):
            assert commutator(OperatorExpr.symbol("J"), build_operator(name)).is_zero()


class TestClosureResiduals:
    def test_bracket_residual_coefficients(self):
        # [K+,K-] - 2M - (1/y)M E, hand-checked term by term
        report = verify_e_correction()
        got = coeffs(report.residual_bracket)
        assert got == {
            (0, 0, 2, 1, 0, 0): -1,
            (0, 0, 2, 0, 0, 0): Fraction(-5, 2),
            (0, 1, 1, 2, 0, 0): -12,
            (0, 1, 1, 1, 0, 0): 7,
            (0, 1, 1, 0, 0, 0): 3,
            (0, 2, 0, 3, 0, 0): 9,
            (0, 2, 0, 2, 0, 0): Fraction(-5, 2),
            (0, 2, 0, 1, 0, 0): -3,
            (0, 1, 0, 1, 0, 0): Fraction(-1, 2),
            (0, 1, 0, 1, 1, 0): -1,
            (0, 0, 0, 1, 0, 0): Fraction(-7, 4),
            (0, 0, 0, 0, 0, 0): Fraction(1, 8),
        }

    def test_residuals_match_frozen_serializations(self):
        report = verify_e_correction()
        assert not report.bracket_confirmed
        assert not report.casimir_confirmed
        bracket_pin = errata.get("closure-bracket-residual").frozen[0][1]
        casimir_pin = errata.get("closure-casimir-residual").frozen[0][1]
        assert report.residual_bracket.serialize() == bracket_pin
        assert report.residual_casimir.serialize() == casimir_pin
        assert len(report.residual_bracket.terms) == 12
        assert len(report.residual_casimir.terms) == 17

    def test_residuals_stable_across_runs(self):
        first = verify_e_correction()
        second = verify_e_correction()
        assert first.residual_bracket.serialize() == second.residual_bracket.serialize()
        assert first.residual_casimir.serialize() == second.residual_casimir.serialize()

    def test_anticommutator_symmetry(self):
        kp, km = build_operator("K+"), build_operator("K-")
        assert anticommutator(kp, km) == anticommutator(km, kp)


class TestCriticalPairs:
    def test_exactly_two_non_joinable_overlaps(self):
        pairs = critical_pairs()
        assert len(pairs) == 15
        bad = {cp.word: (cp.left_first - cp.right_first) for cp in pairs if not cp.joinable}
        assert set(bad) == {("M", "D", "Y"), ("M", "D", "Yi")}
        assert coeffs(bad[("M", "D", "Y")]) == {(0, 0, 0, 0, 0, 0): Fraction(-1, 2)}
        assert coeffs(bad[("M", "D", "Yi")]) == {(0, 2, 0, 0, 0, 0): Fraction(1, 2)}

    def test_leftmost_strategy_resolves_ambiguity(self):
        # The non-confluent overlaps still have a deterministic value under
        # the engine's leftmost-redex strategy.
        once = word_expr("M", "D", "Y")
        again = word_expr("M", "D", "Y")
        assert once.serialize() == again.serialize()


LETTERS = ("Y", "Yi", "D", "M", "J")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(LETTERS), min_size=1, max_size=6),
    st.lists(st.sampled_from(LETTERS), min_size=1, max_size=6),
)
def test_normal_form_idempotent_and_mul_deterministic(word_a, word_b):
    ea = word_expr(*word_a)
    eb = word_expr(*word_b)
    product = ea * eb
    assert normal_form(product) == product
    assert (ea * eb).serialize() == product.serialize()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=5))
def test_serialization_sorted_by_degree(word):
    expr = word_expr(*word)
    lines = expr.serialize().splitlines()
    if lines == ["0"]:
        return
    degrees = []
    for line in lines:
        exponents = [int(part.split("^")[1]) for part in line.split() if "^" in part]
        degrees.append(sum(exponents))
    assert degrees == sorted(degrees, reverse=True)
