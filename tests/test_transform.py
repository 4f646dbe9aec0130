"""Coefficient blocks, analyze/synthesize, rotations, and their invariants.

Rotation content is validated against hand-derived closed forms at spins
1/2 and 1 and against Wigner's explicit d-matrix sum up to j = 10, so the
eigendecomposition route and the coefficient transport in rotate() are
checked independently of each other.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from planeharm import basis, rotation
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


def eigh_rotation(two_j: int, a: float, b: float, c: float) -> np.ndarray:
    """exp(-ia J3) exp(-ib Jy) exp(-ic J3) through LAPACK's eigh of the
    Hermitian Jy, sharing nothing with the Jx recurrence or the fold."""
    ms = np.arange(two_j + 1) - two_j / 2.0
    w, v = np.linalg.eigh(jy_matrix(two_j))
    return np.exp(-1j * a * ms)[:, None] * ((v * np.exp(-1j * b * w)) @ v.conj().T) * np.exp(-1j * c * ms)


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

    @pytest.mark.parametrize(
        "two_js", [range(0, 25), range(127, 130), range(258, 262)], ids=["to-24", "127-129", "258-261"]
    )
    def test_matches_eigh_of_jy_cold_and_warm(self, two_js, monkeypatch):
        # The first call of each 2j starts from an empty store; later calls
        # read the stored eigendata up to _STORE_TWO_J_MAX and rebuild it past.
        rng = np.random.default_rng(29)
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        for two_j in two_js:
            angles = rng.uniform(-7.0, 7.0, size=(3, 3))
            cold = rotation_matrix(two_j, RotationSpec(*angles[0]))
            assert (two_j in rotation._EIGENDATA) == (two_j <= rotation._STORE_TWO_J_MAX)
            for a, b, c in angles:
                got = rotation_matrix(two_j, RotationSpec(a, b, c))
                assert np.max(np.abs(got - eigh_rotation(two_j, a, b, c))) <= 1e-13, two_j
            assert rotation_matrix(two_j, RotationSpec(*angles[0])).tobytes() == cold.tobytes()

    def test_zero_angles_give_the_identity_exactly(self):
        for two_j in range(0, 301):
            assert np.array_equal(rotation_matrix(two_j, RotationSpec(0, 0, 0)), np.eye(two_j + 1)), two_j

    @staticmethod
    def d_matrices_cold_and_warm(monkeypatch):
        """(two_j, d(b)) for 2j in 0..40, 127-129 and 258-261 at seeded b,
        first from an empty store, then from the store those calls filled."""
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        two_js = [*range(0, 41), *range(127, 130), *range(258, 262)]
        angles = np.random.default_rng(31).uniform(-7.0, 7.0, size=len(two_js))
        for _ in range(2):
            for two_j, b in zip(two_js, angles):
                yield two_j, rotation_matrix(two_j, RotationSpec(0.0, b, 0.0))

    def test_d_is_exactly_real_cold_and_warm(self, monkeypatch):
        # The parity mask keeps only the parts that P turns real, and P's
        # entries 1, -i, -1, i multiply exactly.
        for two_j, d in self.d_matrices_cold_and_warm(monkeypatch):
            assert not d.imag.any(), two_j

    def test_d_is_exactly_mirror_symmetric_cold_and_warm(self, monkeypatch):
        # d[n-1-k, n-1-l] = (-1)^(k-l) d[k, l] holds exactly: the bottom rows
        # and the right half of the middle row are copies.
        for two_j, d in self.d_matrices_cold_and_warm(monkeypatch):
            k = np.arange(two_j + 1)
            sign = (-1.0) ** (k[:, None] - k)
            assert np.array_equal(d[::-1, ::-1], sign * d), two_j


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


def unfolded(two_j: int, halves) -> np.ndarray:
    """The Jx eigenvector matrix V, columns of ascending mu, from its parity
    halves: row k < n // 2 of each is the entry on (e_k +- e_(n-1-k)) / sqrt(2),
    and the symmetric half's last row, when n = 2j + 1 is odd, on e_(n // 2)."""
    n = two_j + 1
    h, odd = divmod(n, 2)
    full = np.zeros((n, n))
    for sign, (mu, u) in zip((1.0, -1.0), halves):
        cols = np.rint(mu + two_j / 2.0).astype(int)
        full[:h, cols] = u[:h] / math.sqrt(2.0)
        full[n - h :, cols] = sign * u[:h][::-1] / math.sqrt(2.0)
        if odd and sign > 0:
            full[h, cols] = u[h]
    return full


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
            halves = rotation._jx_halves(two_j)
            assert all(np.all(np.isfinite(u)) for _, u in halves), two_j
            full = unfolded(two_j, halves)
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
        labels = range(-two_j, two_j + 1, 2)
        want = eigh_rotation(two_j, a, b, c) @ np.array([block.get(two_j, m) for m in labels])
        rotated = rotate(block, RotationSpec(a, b, c))
        got = np.array([rotated.get(two_j, m) for m in labels])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        back = rotate(rotated, RotationSpec(-c, -b, -a))
        assert block_gap(back, block) <= 1e-12

    def test_d_of_a_right_angle_is_the_unfolded_eigenvector_matrix(self):
        # d^j(pi/2) = exp(-i pi/2 Jy) is V, the Jx eigenvectors of ascending
        # mu, with no phase per column.
        for two_j in [*range(80), 128, 255, 256]:
            d = rotation_matrix(two_j, RotationSpec(0.0, math.pi / 2, 0.0))
            assert np.max(np.abs(d - unfolded(two_j, rotation._eigendata(two_j)))) <= 5e-15, two_j

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

    def test_each_stored_entry_is_one_array_of_both_column_blocks(self, monkeypatch):
        monkeypatch.setattr(rotation, "_EIGENDATA", {})
        for two_j in [*range(0, 41), 127, 128, 129, 258, 259]:
            rotation_matrix(two_j, RotationSpec(0.1, 0.2, 0.3))
            store = rotation._EIGENDATA[two_j]
            assert isinstance(store, np.ndarray) and store.dtype == np.float64
            assert store.flags.c_contiguous and not store.flags.writeable
            n = two_j + 1
            assert store.shape == (n - n // 2, n - n // 2)
            # (2j+2)^2 // 4 doubles for integer j, (2j+1)^2 / 4 for half-integer j.
            assert store.size == (two_j + 2 - two_j % 2) ** 2 // 4
            symmetric, antisymmetric = rotation._jx_columns(two_j)
            width = symmetric.shape[1]
            assert store[:, :width].tobytes() == symmetric.tobytes(), two_j
            assert store[: n // 2, width:].tobytes() == antisymmetric.tobytes(), two_j
            # The antisymmetric block's pad row, when n is odd, is exact zeros.
            assert np.array_equal(store[n // 2 :, width:], np.zeros((n % 2, store.shape[1] - width))), two_j

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



def count_streams(monkeypatch):
    """The arguments of every radial-row stream transform starts."""
    calls = []
    kernel = transform._radial_rows

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(transform, "_radial_rows", counted)
    return calls


def count_exp(monkeypatch):
    """The shape of every np.exp argument."""
    calls = []
    exp = np.exp

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    return calls


def count_gathers(monkeypatch):
    """The top of every gather index transform builds."""
    calls = []
    gather = transform._gather

    def counted(top):
        calls.append(top)
        return gather(top)

    monkeypatch.setattr(transform, "_gather", counted)
    return calls


def empty_store(monkeypatch):
    monkeypatch.setattr(transform, "_STORE", transform._Store())
    return transform._STORE


def kept(kind):
    """The tops of the store's entries of kind ("angles", "gather" or "rows") that hold arrays."""
    return [key[1] for key, (_, arrays) in transform._STORE.items() if key[0] == kind and arrays]


def snapshot(store):
    """store's keys, counts and array identities, in order, and its byte count."""
    return [(key, counted, id(arrays)) for key, (counted, arrays) in store.items()], store.nbytes


def never():
    raise AssertionError("built")


RADII = np.random.default_rng(40).integers(1, 60 * 1024, 256) / 1024.0
ANGLE_PATHS = pytest.mark.parametrize("n_phi", [1, _RADIAL_FIRST_ANGLES], ids=["one-angle", "many-angle"])


def at_angles(y, n_phi, seed=0):
    """The grid of the radii y at n_phi random angles."""
    return y[None, :], np.random.default_rng(seed).uniform(-math.pi, math.pi, n_phi)[:, None]
KEY_BYTES = 256  # what the store counts for a key beside its points


class TestStore:
    """transform's one per-process store of angular matrices, gather
    indices and radial rows."""

    ONE = 8 + KEY_BYTES  # what a key of one point counts

    @staticmethod
    def key(i):
        return "rows", i, bytes(8)

    def test_least_recently_used_entries_go_first(self, monkeypatch):
        store = empty_store(monkeypatch)
        monkeypatch.setattr(transform, "_STORE_BYTES", 3 * (800 + self.ONE))
        held = [store.request(self.key(i), 800, lambda: (np.zeros(100),), True) for i in range(3)]
        assert store.request(self.key(0), 800, never, True) is held[0]
        store.request(self.key(3), 800, lambda: (np.zeros(100),), True)
        assert list(store) == [self.key(2), self.key(0), self.key(3)]
        assert store.nbytes == transform._STORE_BYTES

    def test_keys_held_without_arrays_count_against_the_budget(self, monkeypatch):
        store = empty_store(monkeypatch)
        monkeypatch.setattr(transform, "_STORE_BYTES", 3 * self.ONE)
        for i in range(4):
            assert store.request(self.key(i), 8, never, False) is None
        assert list(store.items()) == [(self.key(i), (self.ONE, None)) for i in (1, 2, 3)]
        assert store.nbytes == 3 * self.ONE
        # A second request keeps the arrays, and the least recently used key
        # makes room for them.
        arrays = store.request(self.key(2), 8, lambda: (np.zeros(1),), False)
        assert list(store.items()) == [(self.key(3), (self.ONE, None)), (self.key(2), (self.ONE + 8, arrays))]
        assert store.nbytes == 2 * self.ONE + 8

    def test_an_entry_over_the_budget_is_never_kept_and_leaves_the_store_as_it_was(
        self, monkeypatch
    ):
        store = empty_store(monkeypatch)
        store.request(self.key(0), 8, lambda: (np.zeros(1),), True)
        store.request(self.key(1), 8, never, False)
        before = snapshot(store)
        fits = transform._STORE_BYTES - self.ONE
        for keep_first in (True, False, False):
            assert store.request(self.key(2), fits + 1, never, keep_first) is None
            assert snapshot(store) == before
        assert store.request(self.key(2), fits, lambda: (np.zeros(fits // 8),), True)
        assert list(store) == [self.key(2)] and store.nbytes == transform._STORE_BYTES

    def test_clear_empties_the_store_and_its_byte_count(self, monkeypatch):
        store = empty_store(monkeypatch)
        for i in range(3):
            store.request(self.key(i), 800, lambda: (np.zeros(100),), True)
        store.clear()
        assert list(store) == [] and store.nbytes == 0
        # A request for the whole budget then finds nothing left to evict.
        fits = transform._STORE_BYTES - self.ONE
        arrays = store.request(self.key(3), fits, lambda: (np.zeros(fits // 8),), True)
        assert list(store) == [self.key(3)] and store[self.key(3)][1] is arrays
        assert store.nbytes == transform._STORE_BYTES

    @pytest.mark.parametrize(
        "sector, j_max",
        # int j_max 33 and half 65/2 are the smallest grids past int j_max 32
        [("int", 20), ("half", Fraction(39, 2)), ("half", 4), ("int", 33), ("half", Fraction(65, 2))],
    )
    def test_a_default_grid_roundtrip_streams_once_cold_and_never_warm(
        self, sector, j_max, monkeypatch
    ):
        # synthesize reads the rows analyze kept for its grid, and
        # e^(i|m|phi) from its angular matrix.
        block = random_block(sector, j_max, seed=5)
        empty_store(monkeypatch)
        calls = count_streams(monkeypatch)
        cold = analyze(as_function(block), sector, j_max)
        assert len(calls) == 1
        exps = count_exp(monkeypatch)
        warm = analyze(as_function(block), sector, j_max)
        assert len(calls) == 1 and exps == []
        monkeypatch.setattr(transform, "_STORE_BYTES", -1)  # nothing is kept
        streamed = analyze(as_function(block), sector, j_max)
        assert len(calls) == 3 and exps
        assert cold._values.tobytes() == warm._values.tobytes() == streamed._values.tobytes()

    @pytest.mark.parametrize("sector, j_max", [("int", 20), ("half", Fraction(39, 2))])
    def test_a_default_grid_synthesize_reads_analyzes_entries_and_adds_none(
        self, sector, j_max, monkeypatch
    ):
        # Its inner synthesize too reads analyze's gather index and builds none.
        block = random_block(sector, j_max, seed=51)
        phis, x, _ = _plane_grid(Fraction(j_max), None, None)
        store = empty_store(monkeypatch)
        calls = count_streams(monkeypatch)
        gathers = count_gathers(monkeypatch)
        analyze(as_function(block), sector, j_max)
        held = sorted(snapshot(store)[0]), store.nbytes
        assert len(calls) == 1 and len(store) == 3
        assert gathers == [block.two_j_max]
        for _ in range(2):
            synthesize(block, (x[None, :], phis[:, None]))
            synthesize(block, (x[:, None], phis[None, :]))
        assert len(calls) == 1 and len(gathers) == 1
        assert (sorted(snapshot(store)[0]), store.nbytes) == held

    @pytest.mark.parametrize(
        "sector, j_max",
        [("int", 20), ("half", Fraction(39, 2)), ("int", Fraction(7, 2)), ("half", 4)],
    )
    def test_analyze_gives_the_same_bytes_from_an_empty_store_a_full_one_and_none(
        self, sector, j_max, monkeypatch
    ):
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
                    empty_store(monkeypatch)
                out.append(call().tobytes())
            return out

        cold = outputs(empty=True)
        assert len(kept("angles")) == len(kept("rows")) == 1
        assert outputs(empty=False) == cold
        monkeypatch.setattr(transform, "_STORE_BYTES", -1)
        assert outputs(empty=True) == cold
        assert transform._STORE == {}

    @pytest.mark.parametrize(
        "block",
        [
            random_block("int", 20, seed=6),
            # sparse: the top multiplet, j = 18, lies below two_j_max
            CoefficientBlock("int", 20, {(0, 0): 0.5, (10, -4): 1j, (36, 36): -2.0}),
            # half sector at integer j_max: the top multiplet is j = 7/2,
            # analyze's ladder top on the grid of j_max 4
            random_block("half", 4, seed=7),
            random_block("half", Fraction(39, 2), seed=8),
            random_block("int", 64, seed=9),  # rows at 256 radii pass the budget
        ],
        ids=["dense-int-20", "sparse-int-20", "half-at-integer-4", "dense-half-39/2", "int-64"],
    )
    def test_synthesize_gives_the_same_bytes_from_an_empty_store_a_full_one_and_none(
        self, block, monkeypatch
    ):
        phis, x, _ = _plane_grid(block.j_max, None, None)
        many = np.linspace(-3.0, 3.0, _RADIAL_FIRST_ANGLES)
        points = {
            "grid": (x[None, :], phis[:, None]),
            "transposed": (x[:, None], phis[None, :]),
            "nodes-one-ulp-off": (np.nextafter(x, np.inf)[None, :], phis[:, None]),
            "angles-one-ulp-off": (x[None, :], np.nextafter(phis, np.inf)[:, None]),
            "one-angle": (RADII, 0.3),
            "many-angle": (RADII[None, :], many[:, None]),
        }
        # Only a block whose top is analyze's ladder top reads its rows, at
        # the grid's nodes and any angles.
        top = max(two_j for (two_j, _), _ in block.items())
        reads = top == transform._ladder_top(block.sector, block.two_j_max)
        at_nodes = ("grid", "transposed", "angles-one-ulp-off")

        def outputs():
            return {name: synthesize(block, point).tobytes() for name, point in points.items()}

        empty_store(monkeypatch)
        empty = outputs()
        calls = count_streams(monkeypatch)
        for name, point in points.items():
            empty_store(monkeypatch)
            analyze(lambda y, phi: np.exp(-y) + 0 * phi, block.sector, block.j_max)
            calls.clear()
            assert synthesize(block, point).tobytes() == empty[name], name
            assert len(calls) == (0 if reads and name in at_nodes else 1), name
        for _ in range(2):  # second requests keep, then later ones read
            assert outputs() == empty
        monkeypatch.setattr(transform, "_STORE_BYTES", -1)
        empty_store(monkeypatch)
        assert outputs() == empty
        assert transform._STORE == {}

    @ANGLE_PATHS
    def test_sixteen_calls_at_the_same_radii_stream_twice(self, n_phi, monkeypatch):
        block = random_block("int", 32, seed=41)
        points = [at_angles(RADII, n_phi, seed) for seed in range(16)]
        empty_store(monkeypatch)
        calls = count_streams(monkeypatch)
        warm = [synthesize(block, point) for point in points]
        assert len(calls) == 2 and kept("rows") == [64]
        monkeypatch.setattr(transform, "_STORE_BYTES", -1)
        for point, out in zip(points, warm):
            assert synthesize(block, point).tobytes() == out.tobytes()
        assert len(calls) == 18

    @ANGLE_PATHS
    @pytest.mark.parametrize(
        "sector, j_max", [("int", 20), ("half", Fraction(39, 2)), ("int", 32), ("int", 64)]
    )
    def test_synthesize_at_repeated_radii_gives_the_same_bytes_cold_keeping_warm_and_with_none(
        self, sector, j_max, n_phi, monkeypatch
    ):
        block = random_block(sector, j_max, seed=42)
        point = at_angles(np.geomspace(1e-3, 4.0 * j_max + 10.0, 60), n_phi)
        empty_store(monkeypatch)
        calls = count_streams(monkeypatch)
        empty = synthesize(block, point).tobytes()
        assert kept("rows") == []
        keeping = synthesize(block, point).tobytes()
        assert kept("rows") == [block.two_j_max]
        full = synthesize(block, point).tobytes()
        assert len(calls) == 2
        monkeypatch.setattr(transform, "_STORE_BYTES", -1)  # nothing is kept
        empty_store(monkeypatch)
        none = [synthesize(block, point).tobytes() for _ in range(2)]
        assert transform._STORE == {} and len(calls) == 4
        assert empty == keeping == full == none[0] == none[1]

    def test_fresh_radii_never_keep_rows(self, monkeypatch):
        store = empty_store(monkeypatch)
        calls = count_streams(monkeypatch)
        block = random_block("int", 32, seed=44)
        for seed in range(4):
            y = np.random.default_rng(seed).uniform(0.01, 60.0, 256)
            synthesize(block, (y, 0.3))
            assert store["rows", 64, y.tobytes()] == (y.nbytes + KEY_BYTES, None)
        assert len(calls) == 4 and kept("rows") == []

    def test_radii_that_alternate_keep_both_rows_on_their_second_request(self, monkeypatch):
        # Their keys are held between the calls, so neither is a first
        # request the second time round.
        empty_store(monkeypatch)
        calls = count_streams(monkeypatch)
        block = random_block("int", 32, seed=44)
        outs = [synthesize(block, (y, 0.3)).tobytes() for y in [RADII, RADII[:100]] * 3]
        assert len(calls) == 4 and kept("rows") == [64, 64]
        assert outs[0::2] == [outs[0]] * 3 and outs[1::2] == [outs[1]] * 3

    def test_a_one_angle_synthesize_keeps_its_angles_on_the_second_request(self, monkeypatch):
        empty_store(monkeypatch)
        block = random_block("half", Fraction(63, 2), seed=46)
        exps = count_exp(monkeypatch)
        outs = []
        for angle_plans in ([], [63], [63]):
            exps.clear()
            outs.append(synthesize(block, (RADII, 0.3)).tobytes())
            assert kept("angles") == angle_plans
        assert exps == []  # the third call computes no phase and runs no recurrence
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize(
        "other",
        [
            lambda y: (random_block("int", 32, seed=43), np.append(y[:-1], np.nextafter(y[-1], 0))),
            # sparse: the top multiplet, j = 20, lies below j_max
            lambda y: (CoefficientBlock("int", 32, {(0, 0): 0.5, (40, 2): 1j}), y),
            lambda y: (random_block("half", Fraction(63, 2), seed=44), y),
        ],
        ids=["y-one-ulp-off", "sparse-lower-top", "other-sector"],
    )
    @ANGLE_PATHS
    def test_other_radii_or_another_top_stream(self, other, n_phi, monkeypatch):
        block, y = other(RADII)
        empty_store(monkeypatch)
        for _ in range(2):
            synthesize(random_block("int", 32, seed=43), (RADII, 0.3))
        calls = count_streams(monkeypatch)
        out = synthesize(block, at_angles(y, n_phi)).tobytes()
        assert len(calls) == 1 and kept("rows") == [64]
        empty_store(monkeypatch)
        assert synthesize(block, at_angles(y, n_phi)).tobytes() == out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, -0.5])
    def test_rejected_radii_raise_the_same_error_cold_and_warm_and_leave_the_store_as_it_was(
        self, bad, monkeypatch
    ):
        block = random_block("int", 32, seed=47)
        y = RADII.copy()
        y[7] = bad
        store = empty_store(monkeypatch)
        with pytest.raises(DomainError, match="finite y >= 0") as cold:
            synthesize(block, (y, 0.3))
        assert snapshot(store) == ([], 0)
        # Warm: keys held without arrays, then with them.
        for _ in range(2):
            synthesize(block, (RADII, 0.3))
            held = snapshot(store)
            for _ in range(2):
                with pytest.raises(DomainError) as warm:
                    synthesize(block, (y, 0.3))
                assert str(warm.value) == str(cold.value)
                assert snapshot(store) == held

    def test_a_synthesize_at_fresh_radii_checks_them_once(self, monkeypatch):
        checked = []
        y_bounds = basis._y_bounds

        def counted(y):
            checked.append(y.size)
            return y_bounds(y)

        monkeypatch.setattr(basis, "_y_bounds", counted)
        monkeypatch.setattr(transform, "_y_bounds", counted)
        block = random_block("int", 32, seed=48)
        empty_store(monkeypatch)
        # Cold, kept on the second request, read on the third, and with
        # nothing kept: each miss checks the radii once, and a read does not.
        for count in (1, 1, 0):
            checked.clear()
            synthesize(block, (RADII, 0.3))
            assert checked == [RADII.size] * count
        monkeypatch.setattr(transform, "_STORE_BYTES", -1)
        checked.clear()
        synthesize(block, (RADII[:100], 0.3))
        assert checked == [100]
        y = RADII.copy()
        y[7] = math.nan
        with pytest.raises(DomainError) as error:
            synthesize(block, (y, 0.3))
        assert str(error.value) == "radial functions need finite y >= 0, got y[7] = nan"

    @ANGLE_PATHS
    def test_a_sparse_block_below_its_j_max_gives_the_same_bytes_cold_and_warm(
        self, n_phi, monkeypatch
    ):
        # Its top multiplet, j = 3, lies below j_max 6: the coefficients go
        # through the gather index of top 6, built where nothing is kept.
        block = SYNTH_BLOCKS[SYNTH_IDS.index("sparse-int-6")]
        point = at_angles(RADII, n_phi)
        empty_store(monkeypatch)
        gathers = count_gathers(monkeypatch)
        outs = [synthesize(block, point).tobytes() for _ in range(3)]
        assert gathers == [6] and kept("gather") == [6]
        monkeypatch.setattr(transform, "_STORE_BYTES", -1)
        empty_store(monkeypatch)
        outs.append(synthesize(block, point).tobytes())
        assert gathers == [6, 6] and outs == [outs[0]] * 4

    def test_non_finite_samples_raise_the_same_error_cold_and_warm(self, monkeypatch):
        empty_store(monkeypatch)
        for _ in range(2):
            with pytest.raises(DomainError, match=r"label \(0, 0\) must be finite"):
                analyze(lambda y, phi: np.nan, "int", 2)
            assert kept("angles") == kept("rows") == [4]

    @pytest.mark.parametrize("top", range(42))
    def test_the_gather_index_maps_each_label_to_its_own_entry_and_back(self, top):
        # Label (j, m) reads entry (sign of m, j - |m|, |m|) of the sums, the
        # sign 1 for m < 0 only, where synthesize scatters its coefficient.
        sector = "int" if top % 2 == 0 else "half"
        source = transform._gather(top)
        n_m = top // 2 + 1
        labels = sector_labels(sector, Fraction(top, 2))
        assert source.tolist() == [
            (s.two_m < 0) * n_m * n_m + (s.two_j - abs(s.two_m)) // 2 * n_m + abs(s.two_m) // 2
            for s in labels
        ]
        assert len(set(source.tolist())) == len(labels)
        values = random_block(sector, Fraction(top, 2), seed=top)._values
        scattered = np.zeros(2 * n_m * n_m, dtype=complex)
        scattered[source] = values
        assert scattered.take(source).tobytes() == values.tobytes()

    @pytest.mark.parametrize("top", range(42))
    def test_each_few_angle_row_reads_its_own_labels(self, top):
        # Row i of step k is label (j, +-|m|) with 2|m| the i-th of the
        # ladder and 2j the (k + i)-th; m = 0 reads the zero pad slot for its
        # -|m| side.
        ladder = transform._sector_ladder("int" if top % 2 == 0 else "half", top)
        source, labels, rungs = transform._ladder(top)
        n_m = len(ladder)
        rows = [(k, i) for k in range(n_m) for i in range(n_m - k)]
        assert rungs.tolist() == [i for _, i in rows]
        assert labels[0].tolist() == [
            transform._index(ladder[k + i], ladder[i]) for k, i in rows
        ]
        assert labels[1].tolist() == [
            transform._index(ladder[k + i], -ladder[i]) if ladder[i] else source.size
            for k, i in rows
        ]

    @pytest.mark.parametrize("top", [-1, 0, 1, 2, 7, 40, 63, 64, 129, 256])
    def test_the_gather_entry_counts_every_array_it_holds(self, top, monkeypatch):
        # _kept's size for it is written by hand, so an array _ladder adds
        # must be counted there too.
        store = empty_store(monkeypatch)
        arrays = transform._kept("gather", top, np.empty(0), True)
        counted, held = store["gather", top, b""]
        assert held is arrays
        assert counted - KEY_BYTES == sum(array.nbytes for array in transform._ladder(top))
        assert counted - KEY_BYTES == sum(array.nbytes for array in arrays)

    def test_kept_arrays_are_read_only(self, monkeypatch):
        store = empty_store(monkeypatch)
        for sector, j_max in (("int", 0), ("half", Fraction(5, 2)), ("half", 6)):
            analyze(lambda y, phi: np.exp(-y) + 0 * phi, sector, j_max)
        for _ in range(2):
            synthesize(random_block("int", 3, seed=46), (RADII, 0.3))
        # Three analyze grids keep three entries each; synthesize keeps its
        # rows, angles and gather index for top 6.
        assert len(store) == 12 and all(arrays for _, arrays in store.values())
        for _, arrays in store.values():
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0

    @pytest.mark.parametrize(
        "sector, j_max, grid",
        [
            ("int", 4, {"n_phi": 20}),
            ("int", 4, {"n_radial": 9}),
            ("int", 4, {"n_phi": 11, "n_radial": 3}),
            ("half", Fraction(7, 2), {"n_phi": 11, "n_radial": 3}),
            ("half", 4, {"n_radial": 5}),
        ],
    )
    def test_analyze_keeps_an_explicit_grid_on_the_first_request(
        self, sector, j_max, grid, monkeypatch
    ):
        # Its angular matrix is built once, before f is sampled, and not
        # again to project or on a later call.
        built = []
        angular = transform._angular

        def spy(*args):
            built.append(args[0])
            return angular(*args)

        monkeypatch.setattr(transform, "_angular", spy)
        empty_store(monkeypatch)
        calls = count_streams(monkeypatch)
        label = SpinIndex(3, 1) if sector == "half" else SpinIndex(4, 2)
        f = lambda y, phi: calZ(label, (y, phi))
        first = analyze(f, sector, j_max, **grid)
        parseval_gap(f, sector, j_max, **grid)
        assert analyze(f, sector, j_max, **grid) == first
        assert built == [transform._ladder_top(sector, int(2 * j_max))] and len(calls) == 1

    def test_the_store_never_holds_more_than_its_budget(self, monkeypatch):
        # Each entry counts what its arrays and key hold; the int j_max 64
        # grid's entries, 1.7 MB, push out the least recently used ones.
        store = empty_store(monkeypatch)
        for j_max in (8, 32, 20, 64, 20):
            analyze(lambda y, phi: np.exp(-y) + 0 * phi, "int", j_max)
            for _ in range(2):
                synthesize(random_block("int", 32, seed=j_max), (RADII, 0.1 * j_max))
            assert store.nbytes <= transform._STORE_BYTES
            assert store.nbytes == sum(counted for counted, _ in store.values())
            for key, (counted, arrays) in store.items():
                held = sum(array.nbytes for array in arrays or ()) + len(key[2])
                assert counted == held + KEY_BYTES, key
        # The int j_max 8, 32 and 64 grids are gone; one angle costs little.
        assert kept("rows") == [40, 64] and kept("angles") == [64, 40, 64]

    def test_an_int_128_roundtrip_streams_without_keeping_its_rows(self, monkeypatch):
        # Its rows, 8.7 MB, and its angular matrix, 2.1 MB, each pass the
        # budget alone; only the gather index, 0.13 MB, is kept.
        store = empty_store(monkeypatch)
        calls = count_streams(monkeypatch)
        block = random_block("int", 128, seed=8)
        for _ in range(2):
            analyze(as_function(block), "int", 128)
        assert len(calls) == 4 and [key[:2] for key in store] == [("gather", 256)]


def row_stream(sector, two_j_max, size):
    """A stored plan's rows, or a live stream's: the per-m radial rows at size points."""
    x = np.geomspace(1e-3, 4.0 * two_j_max + 10.0, size)
    return lambda: transform._radial_rows(transform._sector_ladder(sector, two_j_max), two_j_max, x)


ROW_STREAMS = {
    "int-20": row_stream("int", 40, 22),  # analyze's default grid sizes
    "half-39/2": row_stream("half", 39, 22),
    "int-64": row_stream("int", 128, 66),  # early steps alone exceed the budget
    "half-5/2-one-point": row_stream("half", 5, 1),
    "int-3-no-points": row_stream("int", 6, 0),
}


class TestRowBlocks:
    """_row_blocks: the radial rows packed a block of consecutive steps at a time."""

    @pytest.mark.parametrize("name", sorted(ROW_STREAMS))
    @pytest.mark.parametrize("stored", [True, False], ids=["tuple", "generator"])
    def test_blocks_take_every_step_once_in_order_padded_with_exact_zeros(self, name, stored):
        steps = list(ROW_STREAMS[name]())
        stream = tuple(steps) if stored else ROW_STREAMS[name]()
        size = steps[0].shape[1]
        k = 0
        for start, block in transform._row_blocks(stream, len(steps), size):
            assert start == k
            assert block.shape[0] == len(steps[k]) and block.shape[2] == size
            for t in range(block.shape[1]):
                rows = steps[k + t]
                assert block[: len(rows), t].tobytes() == rows.tobytes()
                pad = block[len(rows) :, t]
                assert pad.tobytes() == np.zeros_like(pad).tobytes()
            k += block.shape[1]
        assert k == len(steps)

    @pytest.mark.parametrize("name", sorted(ROW_STREAMS))
    @pytest.mark.parametrize("budget", [1, 100, transform._FOLD_ENTRIES, 2**16])
    def test_no_block_exceeds_the_budget_unless_one_step_does(self, name, budget, monkeypatch):
        monkeypatch.setattr(transform, "_FOLD_ENTRIES", budget)
        steps = tuple(ROW_STREAMS[name]())
        blocks = list(transform._row_blocks(steps, len(steps), steps[0].shape[1]))
        assert sum(block.shape[1] for _, block in blocks) == len(steps)
        for _, block in blocks:
            assert block.size <= budget or block.shape[1] == 1
        if budget == 1:
            assert len(blocks) == len(steps)

    @pytest.mark.parametrize("sector, j_max", [("int", 64), ("half", Fraction(129, 2))])
    def test_a_streamed_roundtrip_of_several_blocks_each_way(self, sector, j_max, monkeypatch):
        # With nothing kept both halves stream, and each contracts its rows
        # in several blocks: synthesize's many-angle sum, then the projection.
        monkeypatch.setattr(transform, "_STORE_BYTES", -1)
        counts = []
        row_blocks = transform._row_blocks

        def counted(*args):
            counts.append(0)
            for item in row_blocks(*args):
                counts[-1] += 1
                yield item

        monkeypatch.setattr(transform, "_row_blocks", counted)
        block = random_block(sector, j_max, seed=10)
        back = analyze(as_function(block), sector, j_max)
        assert len(counts) == 2 and min(counts) > 1
        assert block_gap(back, block) <= 1e-11

    @pytest.mark.parametrize(
        "sector, j_max", [("int", 20), ("half", Fraction(39, 2)), ("int", 40), ("half", 4)]
    )
    def test_one_step_per_block_gives_the_same_coefficients(self, sector, j_max, monkeypatch):
        block = random_block(sector, j_max, seed=12)
        blocked = analyze(as_function(block), sector, j_max)
        monkeypatch.setattr(transform, "_FOLD_ENTRIES", 1)
        monkeypatch.setattr(transform, "_STORE", transform._Store())
        stepwise = analyze(as_function(block), sector, j_max)
        assert _max_gap(stepwise, blocked) <= 1e-13



def count_layouts(monkeypatch):
    """The row count of every radial stream laid out in one array."""
    calls = []
    laid_out = transform._laid_out

    def counted(stream, rows, size):
        calls.append(rows)
        return laid_out(stream, rows, size)

    monkeypatch.setattr(transform, "_laid_out", counted)
    return calls


def traced_peak(call):
    """call()'s result and the peak of the memory traced while it runs."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def per_label_sum(block, point):
    """The expansion at point as a sum of c_jm calZ_j^m over the labels."""
    return sum(c * calZ(SpinIndex(two_j, two_m), point) for (two_j, two_m), c in block.items())


def force_path(monkeypatch, path):
    """Make synthesize take the few-angle or the many-angle sum at any angle count."""
    monkeypatch.setattr(transform, "_RADIAL_FIRST_ANGLES", 10**9 if path == "few" else 0)


class TestFewAngleSum:
    """synthesize below _RADIAL_FIRST_ANGLES: one real product per block of steps."""

    @pytest.mark.parametrize(
        "j_max, radii, n_phi, one_block",
        [(32, 256, 1, True), (32, 256, 16, True), (128, 300, 4, False)],
        ids=["int-32-one-angle", "int-32-16-angles", "int-128-streamed-steps"],
    )
    def test_cold_warm_and_streamed_give_the_same_bytes(
        self, j_max, radii, n_phi, one_block, monkeypatch
    ):
        # int j_max 32's rows at 256 radii fit the store and make one block;
        # int j_max 128's at 300 radii pass it, so they stream, a step a block.
        block = random_block("int", j_max, seed=60)
        y = np.random.default_rng(61).uniform(0.01, 4.0 * j_max + 10.0, radii)
        point = at_angles(y, n_phi, seed=62)
        empty_store(monkeypatch)
        calls = count_streams(monkeypatch)
        layouts = count_layouts(monkeypatch)
        cold, keeping, warm = (synthesize(block, point).tobytes() for _ in range(3))
        assert kept("rows") == ([2 * j_max] if one_block else [])
        assert len(calls) == (2 if one_block else 3)
        monkeypatch.setattr(transform, "_STORE_BYTES", -1)  # nothing is kept
        empty_store(monkeypatch)
        streamed = synthesize(block, point).tobytes()
        assert transform._STORE == {} and len(calls) == (3 if one_block else 4)
        # Cold, keeping and streamed rows are laid out in one block, or
        # never: a step a block reads the stream's own arrays.
        rows = (j_max + 1) * (j_max + 2) // 2
        assert layouts == ([rows] * 3 if one_block else [])
        assert cold == keeping == warm == streamed

    @pytest.mark.parametrize("by_step", [False, True], ids=["one-block", "a-step-a-block"])
    @pytest.mark.parametrize("n_phi", [1, 5, _RADIAL_FIRST_ANGLES - 1])
    @pytest.mark.parametrize("sector, j_max", [("int", 20), ("half", Fraction(39, 2))])
    def test_matches_the_per_label_sum(self, sector, j_max, n_phi, by_step, monkeypatch):
        if by_step:  # no block holds more than one step
            monkeypatch.setattr(transform, "_BLOCK_BYTES", 0)
        block = random_block(sector, j_max, seed=63)
        y = np.concatenate([[0.0], np.geomspace(1e-3, 4.0 * j_max + 10.0, 39)])
        point = at_angles(y, n_phi, seed=64)
        empty_store(monkeypatch)
        layouts = count_layouts(monkeypatch)
        got = synthesize(block, point)
        n_m = block.two_j_max // 2 + 1
        assert layouts == ([] if by_step else [n_m * (n_m + 1) // 2])
        want = per_label_sum(block, point)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_phi", [_RADIAL_FIRST_ANGLES - 1, _RADIAL_FIRST_ANGLES])
    @pytest.mark.parametrize(
        "sector, j_max, radii", [("int", 32, 256), ("half", Fraction(63, 2), 40), ("int", 64, 300)]
    )
    def test_matches_the_many_angle_sum(self, sector, j_max, radii, n_phi, monkeypatch):
        block = random_block(sector, j_max, seed=65)
        y = np.random.default_rng(66).uniform(0.01, 4.0 * j_max + 10.0, radii)
        point = at_angles(y, n_phi, seed=67)
        force_path(monkeypatch, "few")
        few = synthesize(block, point)
        force_path(monkeypatch, "many")
        many = synthesize(block, point)
        assert np.max(np.abs(few - many)) <= 1e-13 * np.max(np.abs(many))

    def test_a_streamed_call_holds_at_most_a_block_of_rows_and_one_of_coefficients(
        self, monkeypatch
    ):
        # int j_max 128's rows at 300 radii, 20 MB, pass the budget tenfold.
        block = random_block("int", 128, seed=68)
        gen = np.random.default_rng(69)
        phis = gen.uniform(-math.pi, math.pi, 4)[:, None]
        empty_store(monkeypatch)
        synthesize(block, (gen.uniform(0.01, 500.0, 300)[None, :], phis))
        y = gen.uniform(0.01, 500.0, 300)[None, :]
        out, peak = traced_peak(lambda: synthesize(block, (y, phis)))
        assert kept("rows") == []
        # A block of rows and one of folded coefficients hold at most
        # _BLOCK_BYTES each.
        assert peak <= 2 * transform._BLOCK_BYTES + out.nbytes

    @pytest.mark.parametrize("n_phi", [1, 16])
    def test_a_one_block_call_at_fresh_radii_holds_its_rows_beside_the_recurrence(
        self, n_phi, monkeypatch
    ):
        # int j_max 32's 561 rows at 256 radii are one block.  At radii the
        # store does not hold they are laid out from the stream, whose own
        # arrays are alive meanwhile; the folded coefficients come after.
        block = random_block("int", 32, seed=70)
        gen = np.random.default_rng(71)
        phis = gen.uniform(-math.pi, math.pi, n_phi)[:, None]
        empty_store(monkeypatch)
        synthesize(block, (gen.uniform(0.01, 140.0, 256)[None, :], phis))
        y = gen.uniform(0.01, 140.0, 256)
        _, recurrence = traced_peak(
            lambda: [None for _ in transform._radial_rows(range(0, 65, 2), 64, y)]
        )
        out, peak = traced_peak(lambda: synthesize(block, (y[None, :], phis)))
        assert kept("rows") == []
        rows, n_m = 561, 33
        folded = 8 * 2 * n_phi * rows
        # Besides those, the call holds a few arrays of O(labels + P): the
        # coefficients scattered by sign of m, the index of the block's
        # nonzero entries, and copies of y.
        small = 16 * 2 * n_m * n_m + 8 * block._values.size + 4 * y.nbytes
        assert peak <= 8 * rows * y.size + folded + recurrence + small + out.nbytes


def without(block, drop):
    """block with every label for which drop(two_j, two_m) holds set to zero."""
    keep = {key: c for key, c in block.items() if not drop(*key)}
    return CoefficientBlock(block.sector, block.j_max, keep)


# Blocks whose last nonzero label lies short of the block's end, with the
# top multiplet, as 2j, that synthesize must find from it (None: all zero).
TOP_BLOCKS = {
    "top-multiplet-zero": (without(random_block("int", 20, seed=80), lambda j, m: j == 40), 38),
    "only-(0,0)": (CoefficientBlock("int", 20, {(0, 0): 0.5 - 0.25j}), 0),
    "only-top-m=-j": (CoefficientBlock("int", 20, {(40, -40): 1.5 + 0.5j}), 40),
    "half-top-m=+j-zero": (
        without(random_block("half", Fraction(39, 2), seed=81), lambda j, m: j == m == 39),
        39,
    ),
    "all-zero": (CoefficientBlock("int", 20), None),
}


class TestTopMultiplet:
    """synthesize finds the top multiplet from the end of the block."""

    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 200, 1089])
    def test_the_last_nonzero_entry_is_found_from_the_end(self, size):
        for last in [None, *range(size)]:
            values = np.zeros(size, dtype=complex)
            values[: size if last is None else last : 7] = 1j
            if last is not None:
                values[last] = 2.0
            want = np.flatnonzero(values)
            assert transform._last_nonzero(values) == (want[-1] if want.size else -1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("by_step", [False, True], ids=["one-block", "a-step-a-block"])
    @pytest.mark.parametrize("n_phi", [1, 5, _RADIAL_FIRST_ANGLES - 1])
    @pytest.mark.parametrize("name", sorted(TOP_BLOCKS))
    def test_matches_the_per_label_sum(self, name, n_phi, by_step, monkeypatch):
        if by_step:  # no block holds more than one step
            monkeypatch.setattr(transform, "_BLOCK_BYTES", 0)
        block, top = TOP_BLOCKS[name]
        y = np.concatenate([[0.0], np.geomspace(1e-3, 90.0, 39)])
        point = at_angles(y, n_phi, seed=82)
        empty_store(monkeypatch)
        got = synthesize(block, point)
        assert kept("gather") == ([] if top is None else [top])
        want = per_label_sum(block, point)
        assert got.shape == (n_phi, y.size)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        with pytest.raises(DomainError, match=r"got y\[1\] = -0.5"):
            synthesize(block, (np.array([1.0, -0.5]), point[1]))


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, -math.inf])
    def test_a_zero_block_rejects_the_radii_a_nonzero_block_rejects(self, bad):
        y = np.array([0.5, 2.0, bad, -3.0])
        for block in [CoefficientBlock("int", 2), random_block("int", 2, seed=1)]:
            with pytest.raises(DomainError) as error:
                synthesize(block, (y, 0.3))
            assert str(error.value) == f"radial functions need finite y >= 0, got y[2] = {bad}"

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

    @pytest.mark.parametrize(
        "point, message",
        [
            ((1 + 1j, 0.0), "y must be real, got complex"),
            ((np.array([1.0 + 0j]), 0.0), "y must be real, got ndarray"),
            (([1.0, "a"], 0.0), "y must be real, got list"),
            ((1.0, "x"), "phi must be real, got str 'x'"),
            ((1.0, 1j), "phi must be real, got complex"),
            (1.0, "a PlanePoint or a .y, phi. pair, got float 1.0"),
            ((1.0,), r"a PlanePoint or a .y, phi. pair, got tuple \(1.0,\)"),
            (None, "a PlanePoint or a .y, phi. pair, got NoneType None"),
            ((0.5, 1.0, 2.0), "a PlanePoint or a .y, phi. pair, got tuple"),
        ],
    )
    def test_a_point_that_is_no_real_pair_is_a_domain_error(self, point, message):
        block = random_block("int", 3, seed=2)
        with pytest.raises(DomainError, match=message):
            synthesize(block, point)

    def test_real_points_of_any_numeric_type_keep_their_values(self):
        block = random_block("half", Fraction(7, 2), seed=3)
        want = synthesize(block, (2.5, 0.5))
        for point in [
            (np.float64(2.5), np.float32(0.5)),
            (Fraction(5, 2), 0.5),
            (np.array(2.5), [0.5]),
            PlanePoint(np.float64(2.5), Fraction(1, 2)),
        ]:
            got = synthesize(block, point)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), point

    def test_y_and_phi_must_form_a_grid(self):
        block = random_block("int", 2, seed=1)
        y = np.array([0.5, 1.0, 2.0])
        with pytest.raises(DomainError, match=r"\(3,\).*\(3,\)"):
            synthesize(block, (y, np.array([0.1, 0.2, 0.3])))
        with pytest.raises(DomainError):
            synthesize(block, (y[:, None], np.zeros((3, 2))))

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 1, 3)])
    def test_a_scalar_y_or_phi_gives_the_others_shape(self, shape):
        block = random_block("half", Fraction(9, 2), seed=4)
        one = (1,) * len(shape)
        y = np.linspace(0.0, 9.0, math.prod(shape)).reshape(shape)
        phi = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
        for scalar, same in [((y, 0.7), (y, np.full(one, 0.7))), ((2.5, phi), (np.full(one, 2.5), phi))]:
            got, want = synthesize(block, scalar), synthesize(block, same)
            assert got.shape == want.shape == shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "block", [random_block("int", 4, seed=1), CoefficientBlock("int", 4)], ids=["dense", "zero"]
    )
    @pytest.mark.parametrize("y_shape", [(3, 1), (0, 1)])
    def test_no_angles_give_an_empty_grid(self, block, y_shape):
        got = synthesize(block, (np.ones(y_shape), np.zeros((1, 0))))
        assert got.shape == (y_shape[0], 0) and got.dtype == complex

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

    @pytest.mark.parametrize("sector, j_max", [("int", 12), ("half", Fraction(23, 2))], ids=["int-12", "half-23/2"])
    def test_zero_multiplets_make_no_matrix(self, sector, j_max, monkeypatch):
        spec = RotationSpec(0.9, -2.3, 1.7)
        block = random_block(sector, j_max, seed=3)
        values = block._values.copy()
        ladder = range(block.two_j_max % 2, block.two_j_max + 1, 2)
        parts = {two_j: slice(two_j * two_j // 4, two_j * two_j // 4 + two_j + 1) for two_j in ladder}
        zero = set(ladder[::3]) | {ladder[-1]}
        for two_j in zero:
            values[parts[two_j]] = 0.0
        values[parts[ladder[1]]][1:] = 0.0  # zero but for its first entry
        block = object.__new__(CoefficientBlock)._finish(sector, block.two_j_max, values)
        # The per-multiplet loop this must match, byte for byte.
        want = np.zeros_like(values)
        for two_j, part in parts.items():
            if np.any(values[part]):
                want[part] = rotation_matrix(two_j, spec) @ values[part]
        calls = []
        counted = lambda two_j, s: calls.append(two_j) or rotation_matrix(two_j, s)  # noqa: E731
        monkeypatch.setattr(transform, "rotation_matrix", counted)
        got = rotate(block, spec)
        assert calls == [two_j for two_j in ladder if two_j not in zero]
        assert got._values.tobytes() == want.tobytes()


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
