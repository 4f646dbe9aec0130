"""Verification harness: suites, reports, tolerance overrides."""

import json
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from planeharm import actions, basis, errata, laguerre, verify
from planeharm.actions import (
    annihilation_residual,
    casimir_residual,
    k3_ladder_residual,
    ladder_residual,
    su2_commutator_residual,
)
from planeharm.basis import calL, ode_residual
from planeharm.errors import DomainError
from planeharm.verify import DEFAULT_TOLERANCES, SUITES, run_suite

ERRATUM_IDS = {
    "laguerre.composed-recurrences",
    "basis.symmetry-sign",
    "algebra.closure-residuals",
}


@pytest.fixture(scope="module")
def full_report():
    return run_suite("all", j_max=8, seed=0)


def test_every_check_passes_at_default_depth(full_report):
    failed = [c.id for c in full_report.checks if not c.passed]
    assert failed == []
    assert full_report.overall_pass


def test_all_suite_covers_every_registered_check(full_report):
    assert [c.id for c in full_report.checks] == sorted(SUITES["all"])
    assert set(SUITES["all"]) == set(DEFAULT_TOLERANCES)


def test_checks_sorted_by_id(full_report):
    ids = [c.id for c in full_report.checks]
    assert ids == sorted(ids)


def test_named_suites_partition_the_checks():
    named = [s for s in SUITES if s != "all"]
    assert sorted(named) == ["algebra", "basis", "laguerre", "quadrature", "transform"]
    pooled = sorted(cid for s in named for cid in SUITES[s])
    assert pooled == sorted(SUITES["all"])
    for suite in named:
        assert all(cid.startswith(suite + ".") for cid in SUITES[suite])


def test_single_suite_run_matches_registry():
    report = run_suite("quadrature", j_max=3)
    assert report.suite == "quadrature"
    assert [c.id for c in report.checks] == sorted(SUITES["quadrature"])
    assert report.overall_pass


def test_residuals_strictly_under_threshold(full_report):
    for c in full_report.checks:
        assert c.residual <= c.threshold, c.id
        assert c.threshold == DEFAULT_TOLERANCES[c.id]


def test_erratum_flag_marks_exactly_the_documented_checks(full_report):
    flagged = {c.id for c in full_report.checks if c.erratum}
    assert flagged == ERRATUM_IDS


def test_erratum_flag_comes_from_the_errata_catalog(full_report):
    flagged = {c.id for c in full_report.checks if c.erratum}
    assert flagged == {e.check_id for e in errata.ERRATA}


def test_trivial_depth_passes(full_report):
    report = run_suite("all", j_max=0, seed=0)
    assert report.overall_pass
    assert report.j_max == Fraction(0)
    # The sign audit has no half-integer labels to probe at this depth and
    # must say so rather than fail.
    sign = next(c for c in report.checks if c.id == "basis.symmetry-sign")
    assert sign.passed and sign.note


def test_half_integer_j_max_accepted():
    report = run_suite("basis", j_max=Fraction(3, 2))
    assert report.j_max == Fraction(3, 2)
    assert report.overall_pass


def test_tolerance_override_can_force_failure():
    report = run_suite("laguerre", j_max=2, tolerances={"laguerre.oracle": 1e-300})
    assert not report.overall_pass
    oracle = next(c for c in report.checks if c.id == "laguerre.oracle")
    assert not oracle.passed
    assert oracle.threshold == 1e-300
    others = [c for c in report.checks if c.id != "laguerre.oracle"]
    assert all(c.passed for c in others)


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("spectral")


def test_unknown_tolerance_id_rejected():
    with pytest.raises(DomainError):
        run_suite("laguerre", j_max=1, tolerances={"laguerre.oracel": 1e-6})


def test_negative_j_max_rejected():
    with pytest.raises(DomainError):
        run_suite("laguerre", j_max=-1)


@pytest.mark.parametrize("j_max", ["x", None, "1/0", True])
def test_j_max_that_is_no_half_integer_rejected(j_max):
    with pytest.raises(DomainError):
        run_suite("laguerre", j_max=j_max)


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
def test_seed_that_is_no_nonnegative_integer_rejected(seed):
    with pytest.raises(DomainError, match="seed"):
        run_suite("transform", j_max=1, seed=seed)


def test_json_shape(full_report):
    doc = json.loads(full_report.to_json())
    assert set(doc) == {"suite", "j_max", "seed", "overall", "checks"}
    assert doc["suite"] == "all"
    assert doc["j_max"] == "8"
    assert doc["seed"] == 0
    assert doc["overall"] == "pass"
    for entry in doc["checks"]:
        assert set(entry) == {
            "id",
            "identity",
            "max_residual",
            "threshold",
            "passed",
            "erratum",
            "note",
        }
        assert entry["passed"] is True


def test_text_rendering(full_report):
    text = full_report.render_text()
    lines = text.splitlines()
    assert lines[-1] == "overall: pass"
    assert sum(line.startswith("PASS") for line in lines) == len(full_report.checks)
    assert not any(line.startswith("FAIL") for line in lines)
    assert sum("[erratum]" in line for line in lines) == len(ERRATUM_IDS)


def test_runs_are_deterministic(full_report):
    again = run_suite("all", j_max=8, seed=0)
    assert again.to_json() == full_report.to_json()


def test_seed_recorded():
    report = run_suite("transform", j_max=2, seed=42)
    assert report.seed == 42
    assert report.overall_pass


def test_radial_orthonormality_catches_one_scaled_row(full_report, monkeypatch):
    # Intact, the Gram matrices are the identity to roundoff.
    intact = {c.id: c for c in full_report.checks}["basis.radial-orthonormality"]
    assert intact.residual <= 1e-15
    # Scale calL_3^(+-1) (2|m| = 2, step k = 2) by 1 + 1e-6 inside the check only.
    kernel = verify._radial_rows

    def scaled(abs2ms, two_j_max, y):
        for k, rows in enumerate(kernel(abs2ms, two_j_max, y)):
            yield rows * (1 + 1e-6) if (abs2ms, k) == ([2], 2) else rows

    monkeypatch.setattr(verify, "_radial_rows", scaled)
    checks = {c.id: c for c in run_suite("basis", 8).checks}
    assert not checks["basis.radial-orthonormality"].passed
    assert checks["basis.radial-orthonormality"].residual > 1e-6
    assert all(c.passed for cid, c in checks.items() if cid != "basis.radial-orthonormality")


def test_laguerre_suite_evaluates_whole_grids(monkeypatch):
    # One laguerre_eval call per (relation, n, form) on the (alpha, y) grid,
    # not one per point: 467 calls, where a point at a time makes 21,574.
    calls = []
    evaluate = laguerre.laguerre_eval

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    for module in (laguerre, verify):
        monkeypatch.setattr(module, "laguerre_eval", counted)
    assert run_suite("laguerre", 8, 0).overall_pass
    assert len(calls) <= 1000


def test_column_sweep_equals_the_per_label_helpers():
    # The label checks read every jet off one kernel stream per |m| column,
    # at the concatenated nodes of its labels.  Each label's jet, ladder
    # targets and residuals must equal the per-label helpers bit for bit.
    seen = []
    for s, y, jet, targets in verify._columns(16):
        seen.append(s)
        assert np.array_equal(y, actions._default_nodes(s))
        for got, want in zip(jet, basis._radial_jet(s, y, 2)):
            assert np.array_equal(got, want)
        assert np.array_equal(basis._ode_on_jet(s, y, jet), ode_residual(s, y))
        for d, two_dm in (("+", 2), ("-", -2)):
            target = actions._shifted_label(s, two_dm)
            if target is None:
                assert targets[d] is None
            else:
                assert np.array_equal(targets[d], calL(target, y))
            assert actions._ladder_defect(s, d, y, jet, targets[d]) == ladder_residual(s, d)
            assert actions._k3_defect(s, d, y, jet) == k3_ladder_residual(s, d)
        assert actions._su2_defect(s, y, jet) == su2_commutator_residual(s)
        assert actions._casimir_defect(s, y, jet) == casimir_residual(s)
    assert sorted(seen, key=astuple) == sorted(verify._sector_sweep(16), key=astuple)
    edges = []
    for s, y, jet, targets in verify._columns(16, edges=True):
        edges.append(s)
        d = "+" if s.two_m == s.two_j else "-"
        assert actions._ladder_defect(s, d, y, jet, targets[d]) == annihilation_residual(s)
    assert sorted(edges, key=astuple) == sorted(
        (s for s in seen if abs(s.two_m) == s.two_j), key=astuple
    )
