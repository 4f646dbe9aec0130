"""Coefficient blocks, analyze/synthesize, rotations, and their invariants.

Rotation content is validated against hand-derived closed forms at spins
1/2 and 1 and against Wigner's explicit d-matrix sum up to j = 10, so the
eigendecomposition route and the coefficient transport in rotate() are
checked independently of each other.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from planeharm import rotation
from planeharm.basis import PlanePoint, SpinIndex, _plane_table, calZ, sector_labels
from planeharm.errors import DomainError, SchemaError, UnitarityError
from planeharm.quadrature import _plane_grid, plane_inner
from planeharm.rotation import (
    RotationSpec,
    expm,
    j3_matrix,
    jy_matrix,
    ladder_matrix,
    rotation_matrix,
)
from planeharm import transform
from planeharm.transform import (
    _RADIAL_FIRST_ANGLES,
    CoefficientBlock,
    _max_gap,
    analyze,
    as_function,
    parseval_gap,
    random_block,
    rotate,
    synthesize,
)


def block_gap(a: CoefficientBlock, b: CoefficientBlock) -> float:
    labels = a.labels()
    return max(
        abs(a.get(s.two_j, s.two_m) - b.get(s.two_j, s.two_m)) for s in labels
    )


def d_half(b: float) -> np.ndarray:
    c, s = math.cos(b / 2.0), math.sin(b / 2.0)
    return np.array([[c, s], [-s, c]])


def d_one(b: float) -> np.ndarray:
    c, s = math.cos(b), math.sin(b)
    r2 = math.sqrt(2.0)
    return np.array(
        [
            [(1 + c) / 2, s / r2, (1 - c) / 2],
            [-s / r2, c, s / r2],
            [(1 - c) / 2, -s / r2, (1 + c) / 2],
        ]
    )


def d_wigner(two_j: int, b: float) -> np.ndarray:
    """Wigner's explicit small-d sum, rows m' and columns m ascending.

    d_{m'm}(b) = sum_s (-1)^(m'-m+s) sqrt((j+m')!(j-m')!(j+m)!(j-m)!)
    / ((j+m-s)! s! (m'-m+s)! (j-m'-s)!) cos(b/2)^(2j+m-m'-2s) sin(b/2)^(m'-m+2s),
    with the factorial ratios taken in exact integers.
    """
    f = math.factorial
    c, s_ = math.cos(b / 2.0), math.sin(b / 2.0)
    out = np.zeros((two_j + 1, two_j + 1))
    for row in range(two_j + 1):  # row = j + m'
        for col in range(two_j + 1):  # col = j + m
            num = f(row) * f(two_j - row) * f(col) * f(two_j - col)
            total = 0.0
            for k in range(max(0, col - row), min(col, two_j - row) + 1):
                den = f(col - k) * f(k) * f(row - col + k) * f(two_j - row - k)
                sign = -1.0 if (row - col + k) % 2 else 1.0
                total += (
                    sign
                    * math.sqrt(Fraction(num, den * den))
                    * c ** (two_j + col - row - 2 * k)
                    * s_ ** (row - col + 2 * k)
                )
            out[row, col] = total
    return out


class TestRotationSpec:
    def test_accepts_finite_reals(self):
        spec = RotationSpec(0, -7.5, 100.0)
        assert (spec.a, spec.b, spec.c) == (0.0, -7.5, 100.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            RotationSpec(math.nan, 0.0, 0.0)
        with pytest.raises(DomainError):
            RotationSpec(0.0, math.inf, 0.0)

    def test_rejects_non_real(self):
        with pytest.raises(DomainError):
            RotationSpec("0", 0.0, 0.0)

    def test_accepts_numpy_and_fraction_reals_as_floats(self):
        spec = RotationSpec(np.float32(0.5), np.int64(1), Fraction(1, 4))
        assert (spec.a, spec.b, spec.c) == (0.5, 1.0, 0.25)
        assert all(type(x) is float for x in (spec.a, spec.b, spec.c))
        assert spec == RotationSpec(0.5, 1.0, 0.25)

    @pytest.mark.parametrize("bad", [True, np.bool_(False), 1j, np.float32("nan"), np.float64("-inf"), 10**400])
    def test_rejects_bools_complex_and_non_finite(self, bad):
        with pytest.raises(DomainError):
            RotationSpec(0.0, bad, 0.0)


class TestGenerators:
    def test_ladder_entries_spin_one(self):
        plus = ladder_matrix(2, "+")
        r2 = math.sqrt(2.0)
        assert plus[1, 0] == pytest.approx(r2)
        assert plus[2, 1] == pytest.approx(r2)
        assert np.count_nonzero(plus) == 2
        minus = ladder_matrix(2, "-")
        assert np.allclose(minus, plus.T)

    def test_ladder_entries_are_the_exact_square_roots(self):
        for two_j in range(12):
            j = two_j / 2.0
            plus, minus = ladder_matrix(two_j, "+"), ladder_matrix(two_j, "-")
            for i in range(two_j):
                m = -j + i
                assert plus[i + 1, i] == math.sqrt((j - m) * (j + m + 1.0))
                assert minus[i, i + 1] == math.sqrt((j + m + 1.0) * (j - m))
            assert np.count_nonzero(plus) == np.count_nonzero(minus) == two_j
            assert minus.flags.c_contiguous

    def test_j3_ascending(self):
        assert np.allclose(np.diag(j3_matrix(3)), [-1.5, -0.5, 0.5, 1.5])

    def test_jy_hermitian(self):
        for two_j in (1, 2, 5):
            jy = jy_matrix(two_j)
            assert np.allclose(jy, jy.conj().T)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            ladder_matrix(-1, "+")
        with pytest.raises(DomainError):
            ladder_matrix(2, "x")

    @pytest.mark.parametrize("two_j", [np.int64(3), np.int32(4), np.uint8(2)])
    def test_numpy_integer_two_j_is_accepted(self, two_j, monkeypatch):
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        spec = RotationSpec(0.3, -1.1, 2.0)
        for build, args in ((ladder_matrix, ("+",)), (ladder_matrix, ("-",)), (j3_matrix, ()), (jy_matrix, ())):
            assert np.array_equal(build(two_j, *args), build(int(two_j), *args))
        assert np.array_equal(rotation_matrix(two_j, spec), rotation_matrix(int(two_j), spec))
        assert [type(key) for key in rotation._EIGENDATA] == [int]

    @pytest.mark.parametrize("bad", [True, 2.0, np.float64(2.0), "2", -1, np.int64(-3)])
    def test_two_j_must_be_a_nonnegative_integer(self, bad):
        for call in (lambda: ladder_matrix(bad, "+"), lambda: j3_matrix(bad), lambda: jy_matrix(bad),
                     lambda: rotation_matrix(bad, RotationSpec(0, 0, 0))):
            with pytest.raises(DomainError):
                call()


class TestExpm:
    def test_against_eigendecomposition(self):
        for two_j in (1, 4, 9):
            jy = jy_matrix(two_j)
            w, v = np.linalg.eigh(jy)
            for b in (0.7, -4.1, 20.0):
                ref = v @ np.diag(np.exp(-1j * b * w)) @ v.conj().T
                assert np.max(np.abs(expm(-1j * b * jy) - ref)) < 1e-13

    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            expm(np.zeros((2, 3)))


class TestRotationMatrix:
    def test_spin_half_closed_form(self):
        for b in (0.0, 0.3, 1.7, -2.2, 5.0):
            u = rotation_matrix(1, RotationSpec(0.0, b, 0.0))
            assert np.max(np.abs(u - d_half(b))) < 1e-14

    def test_spin_one_closed_form(self):
        for b in (0.3, 1.7, -2.2):
            u = rotation_matrix(2, RotationSpec(0.0, b, 0.0))
            assert np.max(np.abs(u - d_one(b))) < 1e-14

    def test_axis_rotation_is_diagonal_phase(self):
        a = 1.3
        u = rotation_matrix(3, RotationSpec(a, 0.0, 0.0))
        ms = np.array([-1.5, -0.5, 0.5, 1.5])
        assert np.max(np.abs(u - np.diag(np.exp(-1j * a * ms)))) < 1e-14

    def test_euler_order_is_z_y_z(self):
        a, b, c = 0.4, 1.1, -0.8
        u = rotation_matrix(2, RotationSpec(a, b, c))
        ms = np.array([-1.0, 0.0, 1.0])
        composed = np.diag(np.exp(-1j * a * ms)) @ d_one(b) @ np.diag(np.exp(-1j * c * ms))
        assert np.max(np.abs(u - composed)) < 1e-14

    def test_matches_wigner_sum(self):
        # Past 2j = 20 the float Wigner sum itself loses digits.
        for two_j in range(0, 21):
            for b in (0.3, 1.7, -2.2, 2.9, 5.0):
                u = rotation_matrix(two_j, RotationSpec(0.0, b, 0.0))
                assert np.max(np.abs(u - d_wigner(two_j, b))) < 1e-13

    def test_double_cover_signs(self):
        full_turn = RotationSpec(0.0, 2.0 * math.pi, 0.0)
        for two_j in range(0, 8):
            u = rotation_matrix(two_j, full_turn)
            sign = -1.0 if two_j % 2 else 1.0
            assert np.max(np.abs(u - sign * np.eye(two_j + 1))) < 1e-13

    def test_trivial_block(self):
        u = rotation_matrix(0, RotationSpec(1.0, 2.0, 3.0))
        assert u.shape == (1, 1)
        assert abs(u[0, 0] - 1.0) < 1e-15

    def test_unitary_for_random_angles(self):
        rng = np.random.default_rng(7)
        for two_j in range(0, 10):
            a, b, c = rng.uniform(-7, 7, size=3)
            u = rotation_matrix(two_j, RotationSpec(a, b, c))
            defect = np.max(np.abs(u.conj().T @ u - np.eye(two_j + 1)))
            assert defect < 1e-12


REAL_JX_COLUMNS = rotation._jx_columns
DELTAS = [10.0**-k for k in range(16, 8, -1)]


def perturbed_columns(kind: str, delta: float):
    """rotation._jx_columns with each half's stored mu > 0 eigenvectors
    spoiled by delta, the same way on every call, so that every spoil
    reaches both the gate and the assembled matrix.

    "scale" stretches the largest-mu column by 1 + delta, "noise" adds delta
    times a fixed normal draw, and "givens" turns the two largest-mu columns
    by the angle delta (when both have mu > 0), which keeps the unfolded
    halves orthonormal.  "mirror" adds delta times an eigenvector of a
    mu < 0 to the largest-mu column; it stays orthogonal to the stored
    columns, so only the unfolded halves show the defect.
    """

    def spoil(u, positive, mirror):
        u = u.copy()
        if kind == "mirror":
            u[:, -1] += delta * mirror
        elif kind == "scale":
            u[:, -1] *= 1.0 + delta
        elif kind == "noise":
            u[:, positive] += delta * np.random.default_rng(0).standard_normal((len(u), positive.sum()))
        elif positive.sum() >= 2:
            c, s = math.cos(delta), math.sin(delta)
            u[:, -2:] = u[:, -2:] @ np.array([[c, -s], [s, c]])
        return u

    def jx_columns(two_j):
        m = np.arange(two_j + 1) - two_j / 2.0
        mus = [mu[mu >= 0] for mu in (m[two_j % 2 :: 2], m[1 - two_j % 2 :: 2])]
        columns = REAL_JX_COLUMNS(two_j)
        # The eigenvector of -mu is that of mu with every other row negated (see rotation._unfold).
        mirrors = [(-1.0) ** np.arange(len(u)) * columns[p ^ (two_j % 2)][:, -1] for p, u in enumerate(columns)]
        return [spoil(u, mu > 0, mirror) for u, mu, mirror in zip(columns, mus, mirrors)]

    return jx_columns


def top_multiplet(two_j: int, seed: int) -> CoefficientBlock:
    gen = np.random.default_rng(seed)
    values = gen.standard_normal(two_j + 1) + 1j * gen.standard_normal(two_j + 1)
    sector = "half" if two_j % 2 else "int"
    labels = range(-two_j, two_j + 1, 2)
    return CoefficientBlock(sector, Fraction(two_j, 2), {(two_j, m): x for m, x in zip(labels, values)})


class TestRotationGate:
    """The gate reads the eigenvectors of the Jx halves, not U* U."""

    @pytest.mark.parametrize("kind", ["scale", "noise", "givens", "mirror"])
    def test_raises_or_returns_a_unitary(self, kind, monkeypatch):
        angles = np.random.default_rng(4).uniform(-7.0, 7.0, size=(20, 3))
        unspoiled = {two_j: [rotation_matrix(two_j, RotationSpec(*abc)) for abc in angles] for two_j in (6, 9, 40)}
        for delta in DELTAS:
            monkeypatch.setattr(rotation, "_jx_columns", perturbed_columns(kind, delta))
            monkeypatch.setattr(rotation, "_EIGENDATA", {})
            for two_j in (6, 9, 40):
                raised = 0
                for (a, b, c), ref in zip(angles, unspoiled[two_j]):
                    try:
                        u = rotation_matrix(two_j, RotationSpec(a, b, c))
                    except UnitarityError as exc:
                        assert f"two_j={two_j}" in str(exc) and "1e-12" in str(exc)
                        raised += 1
                        continue
                    assert np.max(np.abs(u.conj().T @ u - np.eye(two_j + 1))) <= 1e-12
                    # The spoil reaches the matrix the gate passed.
                    if delta >= 1e-13:
                        assert not np.array_equal(u, ref), (kind, two_j, delta)
                # The gate does not depend on the angles.
                assert raised in (0, len(angles))
                if kind == "givens":
                    assert not raised, (two_j, delta)
                elif delta >= 1e-11:
                    assert raised, (kind, two_j, delta)

    @pytest.mark.parametrize("kind", ["scale", "noise", "givens", "mirror"])
    def test_rotate_raises_where_rotation_matrix_raises(self, kind, monkeypatch):
        spec = RotationSpec(0.4, -1.3, 2.2)
        for delta in DELTAS:
            monkeypatch.setattr(rotation, "_jx_columns", perturbed_columns(kind, delta))
            monkeypatch.setattr(rotation, "_EIGENDATA", {})
            for two_j in (6, 9, 40):
                block = top_multiplet(two_j, seed=two_j)
                try:
                    u = rotation_matrix(two_j, spec)
                except UnitarityError:
                    with pytest.raises(UnitarityError):
                        rotate(block, spec)
                    continue
                vec = np.array([block.get(two_j, m) for m in range(-two_j, two_j + 1, 2)])
                got = rotate(block, spec)
                assert [got.get(two_j, m) for m in range(-two_j, two_j + 1, 2)] == list(u @ vec)


class TestRotationHalves:
    def test_half_eigenvalues_are_exact_ascending_and_of_their_parity(self):
        for two_j in range(0, 301):
            (mu_s, u_s), (mu_a, u_a) = rotation._jx_halves(two_j)
            j = two_j / 2.0
            m = np.arange(two_j + 1) - j
            assert np.array_equal(mu_s, m[(j - m) % 2 == 0]), two_j
            assert np.array_equal(mu_a, m[(j - m) % 2 == 1]), two_j
            assert np.all(np.diff(mu_s) > 0) and np.all(np.diff(mu_a) > 0)
            assert u_s.shape == (mu_s.size, mu_s.size) and u_a.shape == (mu_a.size, mu_a.size)

    @pytest.mark.parametrize("two_js", [range(0, 301), [1024, 1025, 2049]], ids=["to-300", "large"])
    def test_recurrence_matches_dense_eigh(self, two_js):
        # The oracle is LAPACK's eigh of the full Jx, against the halves
        # unfolded column by column; the large blocks overflow without the
        # recurrence's rescale.
        for two_j in two_js:
            n = two_j + 1
            h, odd = divmod(n, 2)
            halves = rotation._jx_halves(two_j)
            assert all(np.all(np.isfinite(u)) for _, u in halves), two_j
            full = np.zeros((n, n))
            for sign, (mu, u) in zip((1.0, -1.0), halves):
                cols = np.rint(mu + two_j / 2.0).astype(int)
                full[:h, cols] = u[:h] / math.sqrt(2.0)
                full[n - h :, cols] = sign * u[:h][::-1] / math.sqrt(2.0)
                if odd and sign > 0:
                    full[h, cols] = u[h]
            w, v = np.linalg.eigh((ladder_matrix(two_j, "+") + ladder_matrix(two_j, "-")) / 2.0)
            assert np.array_equal(np.rint(2.0 * w), 2.0 * np.arange(n) - two_j)
            cos = np.abs(np.einsum("ij,ij->j", full, v))
            assert np.max(1.0 - cos) <= 1e-13, two_j
            u = rotation_matrix(two_j, RotationSpec(0.9, -2.3, 1.7))
            assert np.all(np.isfinite(u))

    @pytest.mark.parametrize("sector, j_max", [("int", 128), ("half", Fraction(257, 2))])
    def test_rotate_at_scale(self, sector, j_max):
        # The oracle is the complex eigendecomposition of Jy, as in the
        # benchmark's top-multiplet check, not the folded halves of Jx.
        a, b, c = 0.9, -2.3, 1.7
        block = random_block(sector, j_max, seed=21)
        two_j = block.two_j_max
        ms = np.arange(two_j + 1) - two_j / 2.0
        w, v = np.linalg.eigh(jy_matrix(two_j))
        u = np.exp(-1j * a * ms)[:, None] * ((v * np.exp(-1j * b * w)) @ v.conj().T) * np.exp(-1j * c * ms)
        labels = range(-two_j, two_j + 1, 2)
        want = u @ np.array([block.get(two_j, m) for m in labels])
        rotated = rotate(block, RotationSpec(a, b, c))
        got = np.array([rotated.get(two_j, m) for m in labels])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        back = rotate(rotated, RotationSpec(-c, -b, -a))
        assert block_gap(back, block) <= 1e-12

    def test_matrices_of_one_j_share_its_eigendata(self, monkeypatch):
        # One eigendata build per j, across repeated rotation_matrix and
        # _rotation_matrices calls.
        specs = [RotationSpec(0.3, -1.2, 2.5), RotationSpec(0, 0, 0), RotationSpec(-4, 5.5, 0.1)]
        calls = []
        columns = rotation._jx_columns
        monkeypatch.setattr(rotation, "_jx_columns", lambda t: calls.append(t) or columns(t))
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        for _ in range(2):
            for two_j in (0, 1, 2, 7, 30):
                for u, spec in zip(rotation._rotation_matrices(two_j, specs), specs):
                    assert np.array_equal(u, rotation_matrix(two_j, spec))
        assert calls == [0, 1, 2, 7, 30]


def full_recurrence_halves(two_j: int):
    """The parity halves of Jx from the inward recurrence over every mu,
    with no mirror: the oracle for the stored mu >= 0 columns."""
    n = two_j + 1
    h, odd = divmod(n, 2)
    rows = h + odd
    k = np.arange(1.0, rows)
    beta = np.sqrt(k * (n - k)) / 2.0
    mu = np.arange(n) - two_j / 2.0
    a, c = mu / beta[:, None], np.append(0.0, beta[:-1] / beta[1:])
    growth = (0.5 * two_j / beta + c).tolist()
    v = np.empty((rows, n))
    v[0] = 1.0
    top = 1.0
    for i in range(rows - 1):
        row = np.multiply(a[i], v[i], out=v[i + 1])
        if i:
            row -= c[i] * v[i - 1]
        top *= growth[i]
        if top > 2.0**256:
            shift = np.maximum(np.frexp(np.maximum(np.abs(v[i]), np.abs(row)))[1], 0)
            v[: i + 2] = np.ldexp(v[: i + 2], -shift)
            top = 1.0
    v[h:] *= math.sqrt(0.5)
    halves = []
    for cols, size in ((slice(two_j % 2, None, 2), rows), (slice(1 - two_j % 2, None, 2), h)):
        u = v[:size, cols]
        halves.append((mu[cols], u / np.linalg.norm(u, axis=0)))
    return halves


class TestRotationEigendata:
    """Each two_j's Jx eigendata is built and gated once per process."""

    @pytest.mark.parametrize("two_js", [range(0, 301), [1024, 1025, 2049]], ids=["to-300", "large"])
    def test_stored_halves_are_the_full_recurrence_bit_for_bit(self, two_js, monkeypatch):
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        for two_j in two_js:
            want = full_recurrence_halves(two_j)
            # Built, then (up to the cap) unfolded from the store.
            for _ in range(2):
                for (mu, u), (mu_ref, u_ref) in zip(rotation._eigendata(two_j), want):
                    assert mu.tobytes() == mu_ref.tobytes(), two_j
                    assert u.shape == u_ref.shape and u.tobytes() == u_ref.tobytes(), two_j
            if two_j <= rotation._STORE_TWO_J_MAX:
                # About n^2 / 4 doubles per spin: the mu >= 0 columns of each half.
                assert sum(u.size for u in rotation._EIGENDATA[two_j]) <= (two_j + 2) ** 2 // 4
            else:
                assert two_j not in rotation._EIGENDATA

    def test_the_store_keeps_spins_up_to_its_cap_only(self, monkeypatch):
        calls = []
        columns = rotation._jx_columns
        monkeypatch.setattr(rotation, "_jx_columns", lambda t: calls.append(t) or columns(t))
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        cap = rotation._STORE_TWO_J_MAX
        spec = RotationSpec(0.9, -2.3, 1.7)
        for _ in range(2):
            for two_j in (cap - 1, cap, cap + 1, cap + 2):
                rotation_matrix(two_j, spec)
        assert calls == [cap - 1, cap, cap + 1, cap + 2, cap + 1, cap + 2]
        assert sorted(rotation._EIGENDATA) == [cap - 1, cap]
        # Both sectors stored in full take 2 (2j+1)^2 bytes a spin, 11.8 MB in all.
        full = {two_j: rotation._jx_columns(two_j) for two_j in range(cap + 1)}
        assert sum(u.nbytes for cols in full.values() for u in cols) < 11.9e6

    def test_stored_arrays_are_read_only(self, monkeypatch):
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        for two_j in (0, 1, 6, 9, 40):
            rotation_matrix(two_j, RotationSpec(0.1, 0.2, 0.3))
            for u in rotation._EIGENDATA[two_j]:
                assert not u.flags.writeable
                with pytest.raises(ValueError):
                    u[...] = 0.0

    def test_a_two_j_that_fails_the_gate_raises_on_every_call_and_is_not_stored(self, monkeypatch):
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        calls = []
        spoiled = perturbed_columns("scale", 1e-6)
        with monkeypatch.context() as patch:
            patch.setattr(rotation, "_jx_columns", lambda two_j: calls.append(two_j) or spoiled(two_j))
            for _ in range(3):
                with pytest.raises(UnitarityError):
                    rotation_matrix(9, RotationSpec(0.4, -1.3, 2.2))
                with pytest.raises(UnitarityError):
                    rotate(top_multiplet(9, seed=9), RotationSpec(0.4, -1.3, 2.2))
            assert calls == [9] * 6
            assert 9 not in rotation._EIGENDATA
        u = rotation_matrix(9, RotationSpec(0.4, -1.3, 2.2))
        assert 9 in rotation._EIGENDATA
        assert np.max(np.abs(u.conj().T @ u - np.eye(10))) <= 1e-12

    @pytest.mark.parametrize("sector, j_max", [("int", 24), ("half", Fraction(47, 2))])
    def test_rotate_is_the_same_from_an_empty_store_and_a_full_one(self, sector, j_max, monkeypatch):
        block = random_block(sector, j_max, seed=5)
        spec = RotationSpec(0.9, -2.3, 1.7)
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        cold = rotate(block, spec)
        assert len(rotation._EIGENDATA) == int(2 * j_max) // 2 + 1
        warm = rotate(block, spec)
        assert cold._values.tobytes() == warm._values.tobytes()
        assert cold.to_json() == warm.to_json()


class TestCoefficientBlock:
    def test_basic_accessors(self):
        block = CoefficientBlock("int", 2, {(4, 2): 1 + 2j, (0, 0): 3.0})
        assert block.sector == "int"
        assert block.j_max == Fraction(2)
        assert block.two_j_max == 4
        assert block.get(4, 2) == 1 + 2j
        assert block.get(2, 0) == 0j
        assert [s.two_j for s in block.labels()] == [0, 2, 2, 2, 4, 4, 4, 4, 4]

    def test_zero_coefficients_dropped(self):
        sparse = CoefficientBlock("int", 1, {(2, 0): 1.0})
        dense = CoefficientBlock("int", 1, {(2, 0): 1.0, (0, 0): 0.0, (2, 2): 0j})
        assert sparse == dense
        assert hash(sparse) == hash(dense)
        assert dense.items() == [((2, 0), (1 + 0j))]
        negative = CoefficientBlock("int", 1, {(0, 0): -0.0, (2, 2): complex(0, -0.0)})
        assert negative == CoefficientBlock("int", 1)
        assert hash(negative) == hash(CoefficientBlock("int", 1))

    @pytest.mark.parametrize(
        "two_j, two_m",
        [(1, 1), (3, -1), (2, 4), (4, -6), (2, 1), (4, 3), (6, 0), (8, 2)],
    )
    def test_get_outside_the_labels_is_zero(self, two_j, two_m):
        # Other sector, |m| > j, wrong parity of m, above j_max.
        block = random_block("int", 2, seed=3)
        assert block.get(two_j, two_m) == 0j

    def test_norms(self):
        block = CoefficientBlock("half", Fraction(3, 2), {(1, 1): 3.0, (3, -1): 4j})
        assert block.norm_sq() == pytest.approx(25.0)
        per_j = block.per_j_norm_sq()
        assert per_j == {1: pytest.approx(9.0), 3: pytest.approx(16.0)}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norms_past_the_double_range_name_the_multiplet(self):
        block = CoefficientBlock("int", 1, {(0, 0): 1e200})
        with pytest.raises(DomainError, match=r"^norm_sq leaves .* at the j = 0 multiplet$"):
            block.norm_sq()
        with pytest.raises(DomainError, match=r"^per_j_norm_sq leaves .* at the j = 0 multiplet$"):
            block.per_j_norm_sq()
        # Every multiplet in range, but not their sum.
        block = CoefficientBlock("int", 2, {(2, 0): 1e154, (4, 2): 1.3e154j})
        assert block.per_j_norm_sq() == {0: 0.0, 2: 1e154**2, 4: 1.3e154**2}
        with pytest.raises(DomainError, match=r"at the j = 2 multiplet$"):
            block.norm_sq()
        # Near the top of the range, still finite.
        block = CoefficientBlock("half", Fraction(3, 2), {(1, 1): 1e154, (3, -1): 0.5e154})
        assert block.norm_sq() == pytest.approx(1.25e308, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            CoefficientBlock("integer", 2)
        with pytest.raises(DomainError):
            CoefficientBlock("int", -1)
        with pytest.raises(DomainError, match="half-integer"):
            CoefficientBlock("int", True)
        with pytest.raises(DomainError):
            CoefficientBlock("int", 2, {(1, 1): 1.0})  # half label in int sector
        with pytest.raises(DomainError):
            CoefficientBlock("int", 2, {(6, 0): 1.0})  # beyond j_max
        with pytest.raises(DomainError):
            CoefficientBlock("int", 2, {(2, 1): 1.0})  # parity mismatch
        with pytest.raises(DomainError):
            CoefficientBlock("int", 2, {"x": 1.0})

    @pytest.mark.parametrize("sector, j_max", [("int", 3), ("half", Fraction(5, 2)), ("half", 0)])
    def test_max_gap_is_the_largest_per_label_difference(self, sector, j_max):
        a, b = random_block(sector, j_max, seed=1), random_block(sector, j_max, seed=2)
        per_label = [abs(a.get(s.two_j, s.two_m) - b.get(s.two_j, s.two_m)) for s in a.labels()]
        assert _max_gap(a, b) == max(per_label, default=0.0)
        assert _max_gap(a, a) == 0.0

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(DomainError):
            CoefficientBlock("int", 1, {(0, 0): math.nan})
        with pytest.raises(DomainError):
            CoefficientBlock("int", 1, {(2, 0): complex(1.0, math.inf)})


class TestBlockJson:
    def test_roundtrip(self):
        block = random_block("half", Fraction(7, 2), seed=5)
        assert CoefficientBlock.from_json(block.to_json()) == block
        doc = block.to_dict()
        assert doc["sector"] == "half"
        assert doc["j_max"] == "7/2"
        assert all(set(e) == {"two_j", "two_m", "re", "im"} for e in doc["coeffs"])

    def test_integer_j_max_renders_plain(self):
        assert CoefficientBlock("int", 6).to_dict()["j_max"] == "6"

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.pop("sector"), "sector"),
            (lambda d: d.update(sector="odd"), "sector"),
            (lambda d: d.update(j_max=3), "j_max"),
            (lambda d: d.update(j_max="1/3"), "j_max"),
            (lambda d: d.update(extra=1), "extra"),
            (lambda d: d.update(coeffs={}), "coeffs"),
            (lambda d: d["coeffs"][0].pop("re"), "coeffs[0].re"),
            (lambda d: d["coeffs"][0].update(re="x"), "coeffs[0].re"),
            (lambda d: d["coeffs"][0].update(re=math.inf), "coeffs[0].re"),
            (lambda d: d["coeffs"][0].update(re=10**400), "coeffs[0].re"),
            (lambda d: d["coeffs"][0].update(im=-(10**5000)), "coeffs[0].im"),
            (lambda d: d["coeffs"][0].update(two_j=1.5), "coeffs[0].two_j"),
            (lambda d: d["coeffs"][0].update(junk=0), "coeffs[0].junk"),
        ],
    )
    def test_schema_errors_name_the_field(self, mutate, field):
        doc = CoefficientBlock("int", 2, {(2, 0): 1.0}).to_dict()
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            CoefficientBlock.from_dict(doc)
        assert str(err.value).startswith(field)

    def test_duplicate_label_rejected(self):
        doc = {
            "sector": "int",
            "j_max": "2",
            "coeffs": [
                {"two_j": 2, "two_m": 0, "re": 1.0, "im": 0.0},
                {"two_j": 2, "two_m": 0, "re": 2.0, "im": 0.0},
            ],
        }
        with pytest.raises(SchemaError):
            CoefficientBlock.from_dict(doc)

    def test_wrong_sector_label_rejected(self):
        doc = {
            "sector": "int",
            "j_max": "2",
            "coeffs": [{"two_j": 1, "two_m": 1, "re": 1.0, "im": 0.0}],
        }
        with pytest.raises(SchemaError):
            CoefficientBlock.from_dict(doc)

    def test_invalid_json_text(self):
        with pytest.raises(SchemaError):
            CoefficientBlock.from_json("{not json")
        with pytest.raises(SchemaError):
            CoefficientBlock.from_json("[1, 2]")
        with pytest.raises(SchemaError):  # past the interpreter's integer digit limit
            CoefficientBlock.from_json("[" + "1" * 5000 + "]")


class TestAnalyze:
    def test_single_harmonic_projects_to_unit(self):
        f = lambda y, phi: calZ(SpinIndex(4, 2), (y, phi))
        block = analyze(f, "int", 3)
        assert abs(block.get(4, 2) - 1.0) <= 1e-10
        others = [abs(v) for (key, v) in block.items() if key != (4, 2)]
        assert max(others, default=0.0) <= 1e-10

    def test_zero_function_gives_zero_block(self):
        block = analyze(lambda y, phi: np.zeros_like(y), "int", 2)
        assert block.norm_sq() == 0.0
        assert block.items() == []

    def test_two_term_combination(self):
        r5 = math.sqrt(5.0)
        f = lambda y, phi: (
            calZ(SpinIndex(2, 0), (y, phi)) + 2j * calZ(SpinIndex(6, 4), (y, phi))
        ) / r5
        block = analyze(f, "int", 4)
        assert abs(block.get(2, 0) - 1 / r5) <= 1e-12
        assert abs(block.get(6, 4) - 2j / r5) <= 1e-12

    def test_bad_sector(self):
        with pytest.raises(DomainError):
            analyze(lambda y, phi: y, "both", 2)

    @pytest.mark.parametrize("j_max", ["x", None, "1/0", math.inf])
    def test_j_max_that_does_not_parse(self, j_max):
        with pytest.raises(DomainError, match="half-integer"):
            analyze(lambda y, phi: y, "int", j_max)

    def test_samples_f_once_on_the_grid(self):
        calls = []

        def f(y, phi):
            calls.append((np.shape(y), np.shape(phi)))
            return calZ(SpinIndex(3, -1), (y, phi))

        block = analyze(f, "half", Fraction(5, 2))
        assert calls == [((1, 5), (11, 1))]
        assert abs(block.get(3, -1) - 1.0) <= 1e-12

    def test_non_finite_result_is_a_domain_error_naming_the_label(self):
        with pytest.raises(DomainError, match=r"label \(0, 0\) must be finite"):
            analyze(lambda y, phi: np.nan, "int", 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sums_past_the_double_range_are_a_domain_error(self):
        with pytest.raises(DomainError, match=r"label \(0, 0\) must be finite"):
            analyze(lambda y, phi: 1e308 * np.ones_like(y * phi), "int", 4)

    def test_result_off_the_grid_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"\(3,\).*\(9, 4\)"):
            analyze(lambda y, phi: np.ones(3), "int", 2)

    def test_high_j_block_is_finite_and_exact(self):
        # A plain callable: as_function at this size costs far more than analyze.
        top, low = SpinIndex(300, 40), SpinIndex(12, -4)
        f = lambda y, phi: calZ(top, (y, phi)) + 0.5j * calZ(low, (y, phi))
        block = analyze(f, "int", 150)
        values = dict(block.items())
        assert all(np.isfinite(v) for v in values.values())
        assert abs(block.get(300, 40) - 1.0) <= 1e-12
        assert abs(block.get(12, -4) - 0.5j) <= 1e-12
        others = [abs(v) for key, v in values.items() if key not in ((300, 40), (12, -4))]
        assert max(others) <= 1e-12
        assert all(type(a) is int and type(b) is int for a, b in values)

    @pytest.mark.parametrize("j_max", [Fraction(k, 2) for k in range(1, 13)])
    def test_stacked_projection_equals_analyze_per_function(self, j_max):
        # The Gram matrix of each sector, from one table and one stacked
        # projection, against one analyze call per label, bit for bit.
        phis, x, w = _plane_grid(j_max, None, None)
        grid = (x[None, :], phis[:, None])
        for sector in ("int", "half"):
            labels = sector_labels(sector, j_max)
            table = _plane_table(sector, j_max, x, phis)
            harmonics = np.array([calZ(s, grid) for s in labels])
            assert np.array_equal(table.view(float), harmonics.view(float))
            gram = transform._project(table, sector, int(2 * j_max), phis, x, w) + 0.0
            per_label = np.array([
                analyze(lambda y, phi, s=s: calZ(s, (y, phi)), sector, j_max)._values
                for s in labels
            ])
            assert np.array_equal(gram.view(float), per_label.view(float))



def count_plan_streams(monkeypatch):
    """The arguments of every radial-row stream transform starts."""
    calls = []
    kernel = transform._radial_rows

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(transform, "_radial_rows", counted)
    return calls


def plan_arrays(plan):
    angular, signs, rows, source = plan
    return (angular, signs, source, *rows)


class TestAnalyzePlan:
    """analyze's per-process store of default-grid projection plans."""

    @pytest.mark.parametrize(
        "sector, j_max",
        [("int", 20), ("half", Fraction(39, 2)), ("int", Fraction(7, 2)), ("half", 4)],
    )
    def test_same_bytes_from_an_empty_store_a_full_one_and_none(self, sector, j_max, monkeypatch):
        f = as_function(random_block(sector, j_max, seed=17))
        phis, x, w = _plane_grid(Fraction(j_max), None, None)
        table = _plane_table(sector, Fraction(j_max), x, phis)

        def outputs(empty):
            calls = (
                lambda: analyze(f, sector, j_max)._values,
                lambda: np.float64(parseval_gap(f, sector, j_max)),
                lambda: transform._project(table, sector, int(2 * j_max), phis, x, w),
            )
            out = []
            for call in calls:
                if empty:
                    monkeypatch.setattr(transform, "_PLANS", {})
                out.append(call().tobytes())
            return out

        cold = outputs(empty=True)
        assert len(transform._PLANS) == 1
        assert outputs(empty=False) == cold
        monkeypatch.setattr(transform, "_PLAN_TWO_J_MAX", -1)  # every grid streams
        assert outputs(empty=True) == cold
        assert transform._PLANS == {}

    def test_a_second_default_grid_analyze_makes_no_radial_stream(self, monkeypatch):
        monkeypatch.setattr(transform, "_PLANS", {})
        calls = count_plan_streams(monkeypatch)
        f = lambda y, phi: calZ(SpinIndex(5, 3), (y, phi))
        first = analyze(f, "half", Fraction(7, 2))
        assert len(calls) == 1
        second = analyze(f, "half", Fraction(7, 2))
        assert len(calls) == 1
        assert second == first

    def test_non_finite_samples_raise_the_same_error_cold_and_warm(self, monkeypatch):
        monkeypatch.setattr(transform, "_PLANS", {})
        for _ in range(2):
            with pytest.raises(DomainError, match=r"label \(0, 0\) must be finite"):
                analyze(lambda y, phi: np.nan, "int", 2)
            assert len(transform._PLANS) == 1

    @pytest.mark.parametrize(
        "sector, j_max, grid",
        [
            ("int", 4, {"n_phi": 20}),
            ("int", 4, {"n_radial": 9}),
            ("half", Fraction(7, 2), {"n_phi": 11, "n_radial": 3}),
            ("int", 33, {}),  # two_j_max 66, past the cap
            ("half", Fraction(65, 2), {}),
        ],
    )
    def test_explicit_or_oversize_grids_are_never_stored_or_read(
        self, sector, j_max, grid, monkeypatch
    ):
        f = lambda y, phi: calZ(SpinIndex(3, 1) if sector == "half" else SpinIndex(4, 2), (y, phi))
        monkeypatch.setattr(transform, "_PLANS", {})
        analyze(f, sector, j_max)
        default = dict(transform._PLANS)
        calls = count_plan_streams(monkeypatch)
        blocks = [analyze(f, sector, j_max, **grid) for _ in range(3)]
        assert len(calls) == 3
        assert transform._PLANS == default
        monkeypatch.setattr(transform, "_PLANS", {})
        assert all(block == analyze(f, sector, j_max, **grid) for block in blocks)
        assert transform._PLANS == {}

    def test_stored_arrays_are_read_only(self, monkeypatch):
        monkeypatch.setattr(transform, "_PLANS", {})
        for sector, j_max in (("int", 0), ("int", 3), ("half", Fraction(5, 2)), ("half", 6)):
            analyze(lambda y, phi: np.exp(-y) + 0 * phi, sector, j_max)
        assert len(transform._PLANS) == 4
        for plan in transform._PLANS.values():
            assert isinstance(plan[2], tuple)
            for array in plan_arrays(plan):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0

    def test_the_store_keeps_default_grids_up_to_its_cap_only(self, monkeypatch):
        monkeypatch.setattr(transform, "_PLANS", {})
        calls = count_plan_streams(monkeypatch)
        cap = transform._PLAN_TWO_J_MAX
        f = lambda y, phi: np.exp(-y) + 0 * phi
        for _ in range(2):
            for two_j_max in (cap - 1, cap, cap + 1, cap + 2):
                analyze(f, "int", Fraction(two_j_max, 2))
        assert [args[1] for args in calls] == [cap - 1, cap, cap + 1, cap + 2, cap + 1, cap + 2]
        assert sorted(key[:2] for key in transform._PLANS) == [("int", cap - 1), ("int", cap)]
        # Every default grid up to the cap, in both sectors: at most 11.5 MB,
        # and 5.8 MB for the grids of each sector's own j_max.
        sizes = {}
        for sector in ("int", "half"):
            for two_j_max in range(cap + 1):
                phis, x, _ = _plane_grid(Fraction(two_j_max, 2), None, None)
                plan = transform._plan(sector, two_j_max, phis, x)
                sizes[sector, two_j_max] = sum(a.nbytes for a in plan_arrays(plan))
        assert len(transform._PLANS) == 2 * (cap + 1)
        assert sum(sizes.values()) < 11.5e6
        own = [size for (sector, t), size in sizes.items() if (sector == "half") == (t % 2 == 1)]
        assert sum(own) < 5.85e6

SYNTH_BLOCKS = [
    random_block("int", 6, seed=11),
    random_block("half", Fraction(11, 2), seed=12),
    # sparse: the top stored label sits below j_max
    CoefficientBlock("int", 6, {(0, 0): 0.5, (2, -2): 1j, (4, 2): -2.0, (6, -6): 0.25}),
    # half sector at integer j_max: the top label is j = 7/2
    CoefficientBlock("half", 4, {
        (s.two_j, s.two_m): complex(s.two_j, -s.two_m)
        for s in sector_labels("half", 4)
    }),
]
SYNTH_IDS = ["int-6", "half-11/2", "sparse-int-6", "half-at-integer-4"]


class TestSynthesize:
    def test_unit_ground_block(self):
        block = CoefficientBlock("int", 0, {(0, 0): 1.0})
        y = np.array([0.0, 0.3, 2.0, 7.5])
        got = synthesize(block, (y, 0.7))
        assert np.max(np.abs(got - np.exp(-y / 2.0))) == 0.0

    def test_empty_block_is_zero(self):
        block = CoefficientBlock("int", 2)
        assert synthesize(block, (1.0, 0.0)) == 0j
        assert np.all(synthesize(block, (np.array([0.0, 1.0]), 0.5)) == 0)

    def test_plane_point_input(self):
        block = CoefficientBlock("half", Fraction(1, 2), {(1, -1): 2.0})
        p = PlanePoint(1.3, 0.4)
        assert synthesize(block, p) == pytest.approx(
            2.0 * calZ(SpinIndex(1, -1), (1.3, 0.4))
        )

    @pytest.mark.parametrize("block", SYNTH_BLOCKS, ids=SYNTH_IDS)
    def test_matches_the_per_label_sum(self, block):
        def direct(y, phi):
            return sum(
                c * calZ(SpinIndex(two_j, two_m), (y, phi))
                for (two_j, two_m), c in block.items()
            )

        y = np.array([0.0, 0.3, 1.7, 5.0, 12.5, 30.0])
        for phi in (-math.pi, -1.1, 0.0, 0.7, 3.0):
            want = direct(y, phi)
            got = synthesize(block, (y, phi))
            assert got.shape == y.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        point = synthesize(block, (2.5, 0.4))
        assert type(point) is complex
        assert abs(point - direct(2.5, 0.4)) <= 1e-13 * abs(direct(2.5, 0.4))
        assert synthesize(block, PlanePoint(2.5, 0.4)) == point
        with pytest.raises(DomainError):
            synthesize(block, (np.array([1.0, -0.5]), 0.0))

    @pytest.mark.parametrize("block", SYNTH_BLOCKS, ids=SYNTH_IDS)
    def test_grid_matches_the_per_angle_loop(self, block):
        y = np.array([0.0, 0.3, 1.7, 5.0, 12.5, 30.0])
        # Enough angles that the coefficient fold is built a few steps at a time.
        phis = np.linspace(-math.pi, math.pi, 300)
        want = np.stack([synthesize(block, (y, float(p))) for p in phis])
        scale = np.max(np.abs(want))
        by_angle = synthesize(block, (y[None, :], phis[:, None]))
        assert by_angle.shape == (300, 6)
        assert np.max(np.abs(by_angle - want)) <= 1e-13 * scale
        by_radius = synthesize(block, (y[:, None], phis[None, :]))
        assert by_radius.shape == (6, 300)
        assert np.max(np.abs(by_radius - want.T)) <= 1e-13 * scale
        # phi alone as an array: the radial point is shared by every angle.
        assert synthesize(block, (y[1], phis)).shape == (300,)
        assert np.max(np.abs(synthesize(block, (y[1], phis)) - want[:, 1])) <= 1e-13 * scale

    @pytest.mark.parametrize("sector, j_max", [("int", 32), ("half", Fraction(63, 2))])
    def test_both_paths_match_the_per_angle_loop(self, sector, j_max, monkeypatch):
        # One angle always takes the per-step matmul; the radial-first sum
        # takes over at _RADIAL_FIRST_ANGLES, chosen from the angles alone.
        radial_first = []
        sum_by_m = transform._sum_by_m

        def spy(*args):
            radial_first.append(True)
            return sum_by_m(*args)

        monkeypatch.setattr(transform, "_sum_by_m", spy)
        block = random_block(sector, j_max, seed=21)
        y = np.concatenate([[0.0], np.geomspace(1e-3, 150.0, 40)])
        for n_phi in (1, 2, _RADIAL_FIRST_ANGLES - 1, _RADIAL_FIRST_ANGLES, 257):
            phis = np.linspace(-math.pi, math.pi, n_phi, endpoint=False)
            radial_first.clear()
            want = np.stack([synthesize(block, (y, float(p))) for p in phis])
            assert not radial_first
            got = synthesize(block, (y[None, :], phis[:, None]))
            assert radial_first == [True] * (n_phi >= _RADIAL_FIRST_ANGLES)
            assert got.shape == (n_phi, y.size)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n_phi

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, np.array([0.3, -math.inf])])
    def test_non_finite_phi_is_a_domain_error_naming_it(self, phi):
        bad = float(np.asarray(phi).reshape(-1)[-1])
        block = random_block("int", 3, seed=2)
        with pytest.raises(DomainError, match=rf"phi={bad}$"):
            synthesize(block, (1.0, phi))
        with pytest.raises(DomainError, match=rf"phi={bad}$"):
            synthesize(block, (np.array([0.5, 1.0])[:, None], phi))

    def test_y_and_phi_must_form_a_grid(self):
        block = random_block("int", 2, seed=1)
        y = np.array([0.5, 1.0, 2.0])
        with pytest.raises(DomainError, match=r"\(3,\).*\(3,\)"):
            synthesize(block, (y, np.array([0.1, 0.2, 0.3])))
        with pytest.raises(DomainError):
            synthesize(block, (y[:, None], np.zeros((3, 2))))

    def test_roundtrip_random_blocks(self):
        # ("half", 4): the sector, not the parity of 2 j_max, sets the m ladder.
        for sector, j_max, seed in (
            ("int", 6, 3),
            ("half", Fraction(11, 2), 4),
            ("half", 4, 5),
            ("int", 64, 6),
            ("half", Fraction(127, 2), 7),
        ):
            block = random_block(sector, j_max, seed=seed)
            back = analyze(as_function(block), sector, j_max)
            assert block_gap(back, block) <= 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sector, j_max", [("int", 128), ("half", Fraction(255, 2))])
    def test_roundtrip_at_scale(self, sector, j_max):
        block = random_block(sector, j_max, seed=8)
        back = analyze(as_function(block), sector, j_max)
        assert block_gap(back, block) <= 1e-11


class TestParseval:
    def test_band_limited_gap_vanishes(self):
        block = random_block("int", 3, seed=9)
        assert parseval_gap(as_function(block), "int", 3) <= 1e-10

    def test_truncation_shows_up_as_unit_gap(self):
        f = lambda y, phi: calZ(SpinIndex(8, 4), (y, phi))
        assert abs(parseval_gap(f, "int", 3) - 1.0) <= 1e-10
        assert parseval_gap(f, "int", 4) <= 1e-10

    def test_zero_function(self):
        assert parseval_gap(lambda y, phi: np.zeros_like(y), "int", 2) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norm_past_the_double_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"label \(0, 0\) must be finite"):
            parseval_gap(lambda y, phi: 1e308 * np.ones_like(y * phi), "int", 4)
        # Finite coefficients, but |f|^2 overflows.
        with pytest.raises(DomainError, match="norm of f leaves the double range"):
            parseval_gap(lambda y, phi: 1e200 * np.ones_like(y * phi), "int", 4)

    def test_samples_f_once_on_the_grid(self):
        block = random_block("int", 3, seed=9)
        calls = []

        def f(y, phi):
            calls.append((np.shape(y), np.shape(phi)))
            return synthesize(block, (y, phi))

        assert parseval_gap(f, "int", 3) <= 1e-10
        assert calls == [((1, 5), (13, 1))]


GRID_USERS = {
    "analyze": lambda f, **grid: analyze(f, "int", 2, **grid),
    "plane_inner": lambda f, **grid: plane_inner(f, f, 2, **grid),
    "parseval_gap": lambda f, **grid: parseval_gap(f, "int", 2, **grid),
}


@pytest.mark.parametrize("user", sorted(GRID_USERS))
@pytest.mark.parametrize("name", ["n_phi", "n_radial"])
@pytest.mark.parametrize("bad", [2.5, 9.0, True, "9", 0, -3])
def test_grid_sizes_must_be_integers_of_at_least_one(user, name, bad):
    f = as_function(CoefficientBlock("int", 2, {(4, 2): 1.0}))
    with pytest.raises(DomainError, match=name):
        GRID_USERS[user](f, **{name: bad})


def test_numpy_integer_grid_sizes_are_accepted():
    f = as_function(random_block("int", 2, seed=1))
    assert analyze(f, "int", 2, n_phi=np.int64(9), n_radial=np.int32(4)) == analyze(f, "int", 2)


class TestRotate:
    def test_identity_angles(self):
        block = random_block("int", 4, seed=2)
        assert block_gap(rotate(block, RotationSpec(0.0, 0.0, 0.0)), block) == 0.0

    def test_full_turn_negates_half_sector(self):
        block = CoefficientBlock("half", Fraction(1, 2), {(1, 1): 1.0, (1, -1): 0.5j})
        turned = rotate(block, RotationSpec(0.0, 2.0 * math.pi, 0.0))
        assert abs(turned.get(1, 1) + 1.0) < 1e-13
        assert abs(turned.get(1, -1) + 0.5j) < 1e-13

    def test_full_turn_fixes_int_sector(self):
        block = random_block("int", 3, seed=11)
        turned = rotate(block, RotationSpec(0.0, 2.0 * math.pi, 0.0))
        assert block_gap(turned, block) < 1e-12

    def test_spin_one_against_closed_form(self):
        # Independent of rotation_matrix: transport a pure j=1 multiplet
        # with the hand-derived Wigner matrix including the z phases.
        a, b, c = 0.7, 1.9, -1.2
        coeffs = np.array([0.3 - 1j, -0.8, 2.2 + 0.4j])
        block = CoefficientBlock(
            "int", 1, {(2, -2): coeffs[0], (2, 0): coeffs[1], (2, 2): coeffs[2]}
        )
        ms = np.array([-1.0, 0.0, 1.0])
        u = np.diag(np.exp(-1j * a * ms)) @ d_one(b) @ np.diag(np.exp(-1j * c * ms))
        expected = u @ coeffs
        rotated = rotate(block, RotationSpec(a, b, c))
        got = np.array([rotated.get(2, -2), rotated.get(2, 0), rotated.get(2, 2)])
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_per_j_norms_invariant(self):
        block = random_block("half", Fraction(9, 2), seed=6)
        rotated = rotate(block, RotationSpec(0.4, -1.1, 2.3))
        before, after = block.per_j_norm_sq(), rotated.per_j_norm_sq()
        assert max(abs(before[k] - after[k]) for k in before) <= 1e-10

    def test_group_law(self):
        block = random_block("int", 5, seed=8)
        s1 = RotationSpec(0.3, 1.1, -0.7)
        s2 = RotationSpec(-2.0, 0.5, 0.9)
        twice = rotate(rotate(block, s1), s2)
        composed = {}
        for two_j in range(0, block.two_j_max + 1, 2):
            u = rotation_matrix(two_j, s2) @ rotation_matrix(two_j, s1)
            vec = np.array([block.get(two_j, -two_j + 2 * i) for i in range(two_j + 1)])
            for i, value in enumerate(u @ vec):
                composed[(two_j, -two_j + 2 * i)] = value
        reference = CoefficientBlock("int", block.j_max, composed)
        assert block_gap(twice, reference) <= 1e-8

    def test_equivariance_with_analyze(self):
        spec = RotationSpec(0.9, -0.6, 1.4)
        for sector, j_max, seed in (("int", 3, 13), ("half", Fraction(5, 2), 14)):
            block = random_block(sector, j_max, seed=seed)
            lhs = analyze(as_function(rotate(block, spec)), sector, j_max)
            rhs = rotate(analyze(as_function(block), sector, j_max), spec)
            assert block_gap(lhs, rhs) <= 1e-7

    def test_spec_type_enforced(self):
        with pytest.raises(DomainError):
            rotate(random_block("int", 1, seed=0), (0.0, 0.0, 0.0))


class TestRandomBlock:
    def test_deterministic_for_seed(self):
        assert random_block("int", 3, seed=5) == random_block("int", 3, seed=5)
        assert random_block("int", 3, seed=5) != random_block("int", 3, seed=6)

    def test_covers_every_label(self):
        block = random_block("half", Fraction(3, 2), seed=0)
        assert len(block.items()) == len(block.labels()) == 6

    @pytest.mark.parametrize(
        "sector, j_max, seed",
        [("int", 6, 11), ("half", Fraction(11, 2), 12), ("half", Fraction(5, 2), np.int64(7))],
    )
    def test_matches_one_draw_per_label(self, sector, j_max, seed):
        rng = np.random.default_rng(seed)
        expected = {}
        for label in sector_labels(sector, j_max):
            re, im = rng.standard_normal(2)
            expected[(label.two_j, label.two_m)] = complex(re, im)
        assert random_block(sector, j_max, seed=seed) == CoefficientBlock(sector, j_max, expected)


def _public_uses(block):
    """Call every public method of a block and scribble on whatever it returns."""
    for label in block.labels():
        block.get(label.two_j, label.two_m)
    items = block.items()
    items[0] = ((0, 0), 99.0)
    items.clear()
    per_j = block.per_j_norm_sq()
    for key in per_j:
        per_j[key] = -1.0
    doc = block.to_dict()
    doc["coeffs"][0]["re"] = 99.0
    doc["coeffs"].clear()
    block.norm_sq(), block.to_json(), repr(block), hash(block)
    for name in ("sector", "j_max", "two_j_max"):
        with pytest.raises(AttributeError):
            setattr(block, name, 0)
    with pytest.raises(AttributeError):
        block.extra = 0


@pytest.mark.parametrize(
    "make",
    [
        lambda b: analyze(as_function(b), b.sector, b.j_max),
        lambda b: rotate(b, RotationSpec(0.4, -1.1, 2.3)),
    ],
    ids=["analyze", "rotate"],
)
@pytest.mark.parametrize("sector, j_max", [("int", 3), ("half", Fraction(5, 2))])
def test_returned_blocks_cannot_be_changed_through_public_methods(make, sector, j_max):
    block = make(random_block(sector, j_max, seed=21))
    copy = CoefficientBlock(block.sector, block.j_max, dict(block.items()))
    before = hash(block)
    _public_uses(block)
    assert block == copy
    assert hash(block) == before == hash(copy)
