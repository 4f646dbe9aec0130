"""Verification harness: suites, reports, tolerance overrides."""

import json
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from planeharm import actions, basis, errata, laguerre, quadrature, rotation, transform, verify
from planeharm.actions import (
    annihilation_residual,
    casimir_residual,
    k3_ladder_residual,
    ladder_residual,
    pair_action,
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
    with pytest.raises(DomainError, match="seed"):
        transform.random_block("int", 1, seed=seed)


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
    # at the concatenated nodes of its labels, and every residual off one
    # column core.  Each label's jet, ladder targets, actions and residuals
    # must equal the one-label helpers bit for bit, edge labels included.
    for j_max in (Fraction(16), Fraction(33, 2)):
        seen = []
        for col in verify._columns(j_max):
            ends = [*col.starts[1:], col.y.size]
            ode = basis._ode_on_jet(col)
            pairs = {
                (outer, inner): actions._pair_on_jet(outer, inner, col)
                for outer in ("K+", "K-")
                for inner in ("K+", "K-")
            }
            ladder = {d: actions._ladder_defect(col, d) for d in "+-"}
            k3 = {d: actions._k3_defect(col, d) for d in "+-"}
            su2, casimir = actions._su2_defect(col), actions._casimir_defect(col)
            for i, span in enumerate(map(slice, col.starts, ends)):
                s, y = col.label(i), col.y[span]
                seen.append(s)
                assert np.array_equal(y, actions._default_nodes(s))
                for got, want in zip(col.jet, basis._label_column(s, y, 2).jet):
                    assert np.array_equal(got[span], want)
                assert np.array_equal(ode[span], ode_residual(s, y))
                for (outer, inner), values in pairs.items():
                    assert np.array_equal(values[span], pair_action(outer, inner, s, y))
                for d, two_dm in (("+", 2), ("-", -2)):
                    target = actions._shifted_label(s, two_dm)
                    want = np.zeros_like(y) if target is None else calL(target, y)
                    assert np.array_equal(col.targets[d][span], want)
                    assert ladder[d][i] == ladder_residual(s, d)
                    assert k3[d][i] == k3_ladder_residual(s, d)
                assert su2[i] == su2_commutator_residual(s)
                assert casimir[i] == casimir_residual(s)
                if abs(s.two_m) == s.two_j:
                    d = "+" if s.two_m == s.two_j else "-"
                    assert ladder[d][i] == annihilation_residual(s)
        assert sorted(seen, key=astuple) == sorted(verify._sector_sweep(j_max), key=astuple)
        # algebra.annihilation sweeps the edge labels alone, with its own core.
        edges, edge_worst = [], 0.0
        for col in verify._columns(j_max, edges=True):
            ends = [*col.starts[1:], col.y.size]
            annihilation = actions._annihilation_defect(col)
            for i, span in enumerate(map(slice, col.starts, ends)):
                s = col.label(i)
                edges.append(s)
                assert np.array_equal(col.y[span], actions._default_nodes(s))
                d = "+" if s.two_m == s.two_j else "-"
                assert annihilation[i] == annihilation_residual(s)
                assert actions._ladder_defect(col, d)[i] == annihilation_residual(s)
                edge_worst = max(edge_worst, annihilation_residual(s))
        assert sorted(edges, key=astuple) == sorted(
            (s for s in seen if abs(s.two_m) == s.two_j), key=astuple
        )
        assert verify._worst(verify._check_annihilation(j_max, 0)) == edge_worst


@pytest.mark.parametrize(
    "check_id, bound",
    [("basis.plane-gram", 4), ("quadrature.plane-vs-halfline", 15), ("algebra.hermiticity", 2)],
)
def test_plane_grid_and_hermiticity_checks_make_few_kernel_streams(check_id, bound, monkeypatch):
    # The streams of the check itself: a first run builds the rules it reads.
    check = verify._CHECKS[check_id][2]
    verify._worst(check(Fraction(8), 1))
    calls = []
    kernel = basis._radial_rows
    for module in (basis, quadrature, transform, verify):
        monkeypatch.setattr(module, "_radial_rows", lambda *a: calls.append(a) or kernel(*a))
    verify._worst(check(Fraction(8), 1))
    assert 0 < len(calls) <= bound


def test_hermiticity_spans_of_every_m_equal_one_m_at_a_time():
    two_ms = range(-12, 11)
    for seed in (0, 3):
        gaps = actions._hermiticity_gaps(two_ms, 6, seed)
        assert gaps == [actions.hermiticity_gap(two_m, 6, seed=seed) for two_m in two_ms]


def test_rotation_unitarity_takes_the_eigendata_once_per_j(monkeypatch):
    calls = []
    columns = rotation._jx_columns
    monkeypatch.setattr(rotation, "_jx_columns", lambda two_j: calls.append(two_j) or columns(two_j))
    monkeypatch.setattr(rotation, "_EIGENDATA", {})
    verify._worst(verify._CHECKS["transform.rotation-unitarity"][2](Fraction(8), 0))
    assert calls == list(range(17))


def test_rotation_group_law_builds_the_eigendata_once_per_j(monkeypatch):
    # Every pair of specs rotates the block twice and makes one reference
    # call per multiplet, but the 7 int and 6 half multiplets at j_max 8
    # build their eigendata once each.
    calls = []
    columns = rotation._jx_columns
    monkeypatch.setattr(rotation, "_jx_columns", lambda two_j: calls.append(two_j) or columns(two_j))
    monkeypatch.setattr(rotation, "_EIGENDATA", {})
    assert verify._worst(verify._CHECKS["transform.rotation-group-law"][2](Fraction(8), 0)) < 1e-14
    assert len(calls) == len(set(calls)) == 13


def test_plane_gram_fails_on_a_gram_entry_that_is_not_finite(monkeypatch):
    # A NaN past the first Gram entry must reach the residual, not drop out of a max.
    table = basis._plane_table

    def broken(*args):
        out = table(*args)
        out[3, 0, 0] = np.nan
        return out

    monkeypatch.setattr(verify, "_plane_table", broken)
    (check,) = [c for c in run_suite("basis", j_max=2).checks if c.id == "basis.plane-gram"]
    assert np.isnan(check.residual) and not check.passed


def test_worst_is_the_largest_magnitude_and_keeps_a_nan():
    assert verify._worst([]) == 0.0
    assert verify._worst([np.array([]), np.empty((0, 3))]) == 0.0
    assert verify._worst([-3, np.array([1.0, -2.5]), 0.5]) == 3.0
    for gaps in ([1.0, np.nan], [np.array([1.0, 2.0]), np.array([0.5, np.nan, 0.1])], [[np.nan]]):
        assert np.isnan(verify._worst(gaps))
    assert np.isnan(verify._worst([np.inf, np.nan]))
    assert verify._worst([np.array([np.inf, 1.0])]) == np.inf
    # A complex gap's magnitude is Python's abs, bit for bit.
    z = np.random.default_rng(0).standard_normal((1000, 2)).view(complex)[:, 0] * 1e-15
    assert all(verify._worst([c]) == abs(c) for c in z.tolist())
    assert verify._worst([z]) == max(map(abs, z.tolist()))


def _nan_past_the_first_gaps(fn):
    # fn, with the last entry of its output NaN on the third |m| column
    # (2|m| = 2) of a sweep, or on the third multiplet (2j = 2).
    def spoiled(first, *rest):
        out = fn(first, *rest)
        if (first if isinstance(first, int) else abs(first.label(0).two_m)) == 2:
            out = np.array(out, copy=True)
            out.flat[-1] = np.nan
        return out

    return spoiled


@pytest.mark.parametrize(
    "check_id, module, name",
    [
        ("basis.ode", verify, "_ode_on_jet"),
        ("algebra.ladder", actions, "_ladder_defect"),
        ("algebra.annihilation", actions, "_annihilation_defect"),
        ("algebra.su2-on-basis", actions, "_su2_defect"),
        ("algebra.casimir", actions, "_casimir_defect"),
        ("transform.rotation-unitarity", verify, "_rotation_matrices"),
    ],
)
def test_a_nan_gap_fails_its_check(check_id, module, name, monkeypatch):
    monkeypatch.setattr(module, name, _nan_past_the_first_gaps(getattr(module, name)))
    (check,) = [c for c in run_suite(check_id.partition(".")[0], 2).checks if c.id == check_id]
    assert np.isnan(check.residual) and not check.passed


def test_a_nan_residual_is_null_in_json_and_nan_in_text(full_report, monkeypatch):
    monkeypatch.setattr(actions, "_ladder_defect", _nan_past_the_first_gaps(actions._ladder_defect))
    report = run_suite("algebra", 2)
    doc = json.loads(report.to_json(), parse_constant=lambda c: pytest.fail(f"bare {c} in JSON"))
    (entry,) = [c for c in doc["checks"] if c["id"] == "algebra.ladder"]
    assert entry["max_residual"] is None and entry["passed"] is False
    assert all(c["max_residual"] is not None for c in doc["checks"] if c is not entry)
    assert any(
        line.startswith("FAIL  algebra.ladder") and " max       nan " in line
        for line in report.render_text().splitlines()
    )
    # A finite residual is written as before; a tolerance from --tol can be infinite too.
    for check, entry in zip(full_report.checks, json.loads(full_report.to_json())["checks"]):
        assert entry["max_residual"] == check.residual
    entry = verify.CheckResult("id", "identity", np.inf, np.inf, False).to_dict()
    assert entry["max_residual"] is None and entry["threshold"] is None
