"""Operator actions on the basis: ladders, su(2) relations, hermiticity.

The key subtlety exercised here is label tracking: composed first-order
actions read their coefficients at the shifted (j, m) label.  Substituting
eigenvalues into the formal normal-ordered words instead gives genuinely
different (wrong) values, and one test documents that gap on purpose.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeharm.actions import (
    annihilation_residual,
    apply_ladder,
    apply_to_basis,
    casimir_residual,
    hermiticity_gap,
    k3_ladder_residual,
    ladder_coefficient,
    ladder_form,
    ladder_residual,
    pair_action,
    su2_commutator_residual,
)
from planeharm.algebra import build_operator, commutator
from planeharm import actions, basis, quadrature, transform, verify
from planeharm.basis import SpinIndex, calL, calL_deriv, ode_residual, sector_labels
from planeharm.verify import run_suite
from planeharm.errors import DomainError

YGRID = np.array([0.2, 1.0, 3.7, 11.0])


def all_labels(j_max):
    labels = list(sector_labels("int", j_max))
    labels += sector_labels("half", j_max)
    return labels


class TestApplyToBasis:
    def test_lowering_the_bottom_half_spin(self):
        # K- calL_{1/2}^{1/2} = +sqrt(y) e^{-y/2}, exactly representable
        got = apply_to_basis(build_operator("K-"), SpinIndex(1, 1), (YGRID, 0.0))
        expected = np.sqrt(YGRID) * np.exp(-YGRID / 2.0)
        assert np.max(np.abs(got - expected)) == 0.0

    def test_untagged_operator_keeps_the_sector_phase(self):
        phi = 0.9
        got = apply_to_basis(build_operator("K-"), SpinIndex(1, 1), (YGRID, phi))
        expected = np.sqrt(YGRID) * np.exp(-YGRID / 2.0) * np.exp(0.5j * phi)
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_tagged_ladder_shifts_the_phase(self):
        phi = 0.9
        got = apply_to_basis(build_operator("J-"), SpinIndex(1, 1), (YGRID, phi))
        expected = np.sqrt(YGRID) * np.exp(-YGRID / 2.0) * np.exp(-0.5j * phi)
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_k3_reads_the_label(self):
        for s in (SpinIndex(4, 2), SpinIndex(3, -1)):
            got = apply_to_basis(build_operator("K3"), s, (YGRID, 0.0))
            assert np.max(np.abs(got - 0.5 * s.two_m * calL(s, YGRID))) < 1e-15

    def test_high_derivative_rejected(self):
        e = build_operator("E")
        with pytest.raises(DomainError):
            apply_to_basis(e * e, SpinIndex(2, 0), (YGRID, 0.0))

    def test_inverse_power_at_origin_rejected(self):
        with pytest.raises(DomainError):
            apply_to_basis(build_operator("K+"), SpinIndex(2, 0), (np.array([0.0, 1.0]), 0.0))

    def test_negative_y_rejected(self):
        with pytest.raises(DomainError):
            apply_to_basis(build_operator("K3"), SpinIndex(2, 0), (np.array([-1.0]), 0.0))

    def test_scalar_point_returns_scalar(self):
        val = apply_to_basis(build_operator("K3"), SpinIndex(2, 2), (1.0, 0.3))
        assert isinstance(val, complex)


class TestOneKernelPass:
    """Each entry point reads calL and its derivatives off one radial jet."""

    @staticmethod
    def count_kernel_calls(monkeypatch, modules=(basis,)):
        calls = []
        kernel = basis._radial_rows

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        for module in modules:
            monkeypatch.setattr(module, "_radial_rows", counted)
        return calls

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda s, y: calL(s, y),
            lambda s, y: calL_deriv(s, y, 2),
            lambda s, y: ode_residual(s, y),
            lambda s, y: apply_ladder("K+", s, y),
            lambda s, y: pair_action("K-", "K+", s, y),
            lambda s, y: apply_to_basis(build_operator("E"), s, (y, 0.4)),
        ],
        ids=["calL", "calL_deriv-2", "ode_residual", "apply_ladder", "pair_action", "apply_E"],
    )
    def test_one_kernel_call_per_label(self, monkeypatch, evaluate):
        calls = self.count_kernel_calls(monkeypatch)
        evaluate(SpinIndex(5, 1), YGRID)  # an interior label: both ladders act
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "evaluate, expected",
        [
            (lambda s: su2_commutator_residual(s), 1),
            (lambda s: casimir_residual(s), 1),
            (lambda s: k3_ladder_residual(s, "+"), 1),
            (lambda s: k3_ladder_residual(s, "-"), 1),
            # Its own jet, plus calL of the shifted target label.
            (lambda s: ladder_residual(s, "+"), 2),
            (lambda s: ladder_residual(s, "-"), 2),
        ],
        ids=["su2", "casimir", "k3-up", "k3-down", "ladder-up", "ladder-down"],
    )
    def test_one_jet_per_residual(self, monkeypatch, evaluate, expected):
        calls = self.count_kernel_calls(monkeypatch)
        evaluate(SpinIndex(5, 1))  # an interior label: both ladders act
        assert len(calls) == expected

    def test_hermiticity_gap_one_jet_per_span_label(self, monkeypatch):
        calls = self.count_kernel_calls(monkeypatch)
        hermiticity_gap(1, 6, seed=0)  # f: j = 1/2 .. 11/2 at m = 1/2; g: 3/2 .. 11/2
        assert len(calls) == 1  # one stream for both spans over their shared nodes

    def test_verify_suite_kernel_calls(self, monkeypatch):
        # One kernel call per entry point made 10,618 here, one jet per
        # entry point 7,160, one jet per residual 4,144; one stream per |m|
        # column and check 1,453; building the rules of one alpha together
        # 847; one rule batch per column and one stream per column for
        # basis.symmetry-sign 633; one table and one stacked projection per
        # sector for basis.plane-gram, one table per sector and one stream
        # per |m| for quadrature.plane-vs-halfline, and one stream for every
        # span of algebra.hermiticity makes 243; analyze's stored projection
        # plans, read by 5 of the 11 projections, make 238; synthesize
        # reading the rows of those plans on their own grids makes 230; one
        # column sweep per run for every label check and the closure shadow,
        # and one plane table per sector for both plane-grid checks, 160.
        calls = self.count_kernel_calls(monkeypatch, (basis, quadrature, transform, verify))
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(transform, "_PLANS", {})
        run_suite("all", 8, 1)
        assert len(calls) <= 160


class TestLadderForms:
    def test_coefficients_at_a_label(self):
        s = SpinIndex(4, 2)
        op = ladder_form("K+", s)
        assert op.a_coeff == -3.0
        assert op.beta == 3.0
        assert op.gamma == -2.5
        assert op.two_dm == 2

    def test_ladder_coefficient_values(self):
        assert ladder_coefficient("K+", SpinIndex(4, 2)) == pytest.approx(2.0)
        assert ladder_coefficient("K-", SpinIndex(4, 2)) == pytest.approx(
            math.sqrt((2 + 1) * (2 - 1 + 1))
        )
        assert ladder_coefficient("K+", SpinIndex(4, 4)) == 0.0

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            ladder_form("K*", SpinIndex(2, 0))

    def test_apply_ladder_matches_neighbor(self):
        s = SpinIndex(6, 2)
        got = apply_ladder("K+", s, YGRID)
        expected = ladder_coefficient("K+", s) * calL(SpinIndex(6, 4), YGRID)
        assert np.max(np.abs(got - expected)) < 1e-12


class TestLadderSweep:
    def test_ladder_residuals_j_up_to_8(self):
        worst = 0.0
        for s in all_labels(8):
            for direction in ("+", "-"):
                worst = max(worst, ladder_residual(s, direction))
        assert worst <= 1e-9

    def test_single_label_examples(self):
        assert ladder_residual(SpinIndex(1, 1), "-") <= 1e-9
        assert ladder_residual(SpinIndex(6, 0), "+") <= 1e-9

    def test_annihilation_at_edges(self):
        worst = 0.0
        for s in all_labels(8):
            if abs(s.two_m) == s.two_j:
                worst = max(worst, annihilation_residual(s))
        assert worst <= 1e-9

    def test_annihilation_requires_edge_label(self):
        with pytest.raises(DomainError):
            annihilation_residual(SpinIndex(4, 0))


class TestSu2Relations:
    def test_bracket_equals_2m(self):
        worst = max(su2_commutator_residual(s) for s in all_labels(8))
        assert worst <= 1e-8

    def test_k3_brackets(self):
        worst = 0.0
        for s in all_labels(8):
            for direction in ("+", "-"):
                worst = max(worst, k3_ladder_residual(s, direction))
        assert worst <= 1e-8

    def test_casimir_sweep(self):
        worst = max(casimir_residual(s) for s in all_labels(8))
        assert worst <= 1e-8

    def test_casimir_value_at_half_spin(self):
        # (K3^2 + {K+,K-}/2) calL = 0.75 calL at j = 1/2, essentially exact
        s = SpinIndex(1, 1)
        f = calL(s, YGRID)
        lhs = 0.25 * f + 0.5 * (
            pair_action("K+", "K-", s, YGRID) + pair_action("K-", "K+", s, YGRID)
        )
        assert np.max(np.abs(lhs - 0.75 * f)) < 1e-14

    def test_hermiticity_across_sectors(self):
        worst = 0.0
        for two_m in range(-4, 4):
            worst = max(worst, hermiticity_gap(two_m, 6, seed=0))
        assert worst <= 1e-10

    def test_hermiticity_empty_span_rejected(self):
        with pytest.raises(DomainError):
            hermiticity_gap(12, 2, seed=0)


class TestFormalVersusPointwise:
    def test_naive_substitution_into_the_bracket_fails(self):
        # Substituting eigenvalues into the normal-ordered [K+, K-] ignores
        # the label shifts, and the result visibly disagrees with 2m*calL.
        # The label-tracked composition (pair_action) is the correct reading.
        s = SpinIndex(4, 2)
        y = YGRID
        naive = apply_to_basis(
            commutator(build_operator("K+"), build_operator("K-")), s, (y, 0.0)
        )
        exact = 2.0 * 1.0 * calL(s, y)
        assert np.max(np.abs(naive - exact)) > 1.0
        tracked = pair_action("K+", "K-", s, y) - pair_action("K-", "K+", s, y)
        assert np.max(np.abs(tracked - exact)) < 1e-12

    def test_pair_action_direction_argument(self):
        with pytest.raises(DomainError):
            pair_action("K+", "K?", SpinIndex(2, 0), YGRID)


@st.composite
def labels_and_points(draw):
    two_j = draw(st.integers(0, 24))
    two_m = draw(st.sampled_from(range(-two_j, two_j + 1, 2)))
    exponents = draw(st.lists(st.floats(-300.0, 3.0), min_size=1, max_size=4))
    y = np.clip(10.0 ** np.array(exponents), 1e-300, 1e3)
    return SpinIndex(two_j, two_m), y


class TestTypedAtEveryY:
    """Every action that takes y is finite there or raises DomainError."""

    @staticmethod
    def finite_or_domain_error(evaluate):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                value = evaluate()
            except DomainError:
                return
        assert np.all(np.isfinite(value))

    @settings(max_examples=150, deadline=None)
    @given(labels_and_points())
    def test_actions_and_residuals(self, case):
        s, y = case
        for name in ("K+", "K-"):
            self.finite_or_domain_error(lambda: apply_ladder(name, s, y))
            for inner in ("K+", "K-"):
                self.finite_or_domain_error(lambda: pair_action(name, inner, s, y))
        for name in ("E", "K+", "K-", "K3", "J+", "J-"):
            expr = build_operator(name)
            self.finite_or_domain_error(lambda: apply_to_basis(expr, s, (y, 0.3)))
        self.finite_or_domain_error(lambda: su2_commutator_residual(s, y))
        self.finite_or_domain_error(lambda: casimir_residual(s, y))
        for direction in ("+", "-"):
            self.finite_or_domain_error(lambda: k3_ladder_residual(s, direction, y))

    def test_pair_action_names_the_first_bad_point(self):
        with pytest.raises(DomainError, match=r"K\+ K- at two_j=2, two_m=0 .* y = 1e-300"):
            pair_action("K+", "K-", SpinIndex(2, 0), [1e-300, 1.0])
        with pytest.raises(DomainError, match="two_j=4, two_m=2"):
            pair_action("K+", "K-", SpinIndex(4, 2), [1e-300, 1.0])

    def test_a_column_core_names_the_label_that_leaves_the_range(self):
        # At y = 1e-160, y**2 underflows and K- K+ leaves the double range.
        # (2, 2) has the same node, but K+ takes it past the multiplet's
        # edge, so its pair action is 0 and it is not the one reported.
        labels = [SpinIndex(2, 2), SpinIndex(4, 2), SpinIndex(6, 2)]
        nodes = [np.array([1e-160, 1.0]), np.array([0.5, 1e-160, 2.0]), np.array([1e-160])]
        col = basis._radial_column(labels, nodes, 2)
        message = r"K- K\+ at two_j=4, two_m=2 leaves the double range at y = 1e-160"
        with pytest.raises(DomainError, match=message):
            actions._pair_on_jet("K-", "K+", col)
        with pytest.raises(DomainError, match=message):
            pair_action("K-", "K+", SpinIndex(4, 2), nodes[1])
        assert np.all(pair_action("K-", "K+", SpinIndex(2, 2), nodes[0]) == 0.0)
