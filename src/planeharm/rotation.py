"""Rotation matrices for the spin-j blocks.

Each half-integer j carries a (2j+1)-dimensional representation spanned by
the azimuthal labels m = -j, ..., j.  This module builds the generator
matrices in that basis (ascending m) and assembles the z-y-z rotation

    D(a, b, c) = exp(-i a J3) exp(-i b Jy) exp(-i c J3)

from diagonal phases and the eigenbasis of the real symmetric tridiagonal
Jx = (J+ + J-)/2, which a diagonal phase turns into Jy (Feng, Wang, Yang &
Jin, Phys. Rev. E 92, 043307, 2015).  The eigenvectors of Jx solve a
three-term recurrence in m; they are Krawtchouk polynomials, the entries of
d^j(pi/2) (Koornwinder, SIAM J. Math. Anal. 13, 1982).  The recurrence runs
inward from the edge m = -j for the exact eigenvalues mu >= 0 at once, with
power-of-two rescaling against overflow, so a multiplet costs O(j^2) rather
than a dense eigensolve; the eigenvector of -mu is that of mu with every
other row negated, which is exact.  Jx commutes with the reversal m -> -m,
so each eigenvector is reversal-symmetric or reversal-antisymmetric, and
the recurrence only has to reach the middle row.  Folded back together,
the two parity halves give the top rows of the matrix, and the bottom rows
are their mirror.  Since the eigenvector of -mu is that of mu with every
other row negated, and expm1(-i b (-mu)) is the conjugate of
expm1(-i b mu), those top rows come from one real matrix product over the
stored mu >= 0 columns alone: the real eigenvectors times their complex
weighted transpose read as interleaved real and imaginary parts, after
which a parity mask zeroes the real or imaginary part of every other
entry.  The eigenvectors are never unfolded or cast to complex, and the
mask leaves d^j(b) = D(0, b, 0) exactly real.

Unitarity is checked, never repaired, and the check reads the computed
eigenvectors rather than the product.  With W = P V, Lambda =
diag(expm1(-i b m)) and E = V^T V - I, the identity |1 + Lambda_k| = 1
gives U* U - I = D_c* W Lambda* E Lambda W* D_c in exact arithmetic on the
computed V, so max|U* U - I| <= 4 ||E||_2 (1 + ||E||_2) <= 4 r (1 + r) for
every angle, where r is the largest row sum of |E| over both halves.  A bound above 1e-12
raises rather than being silently re-orthogonalized.

The eigenvectors and their gate depend on j alone, so the eigendata of each
2j up to 259 is built and gated once per process and kept as one read-only
array of the mu >= 0 columns of both halves side by side: (2j+2)^2 // 4
doubles per spin, 1.5 MB for both sectors up to 2j = 129 and at most
11.9 MB in all.  A larger 2j is built and gated on every call, as a
one-shot rotation would be, so the store stays bounded however large a
block is rotated.  A 2j that fails the gate is not kept, so it raises on
every call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnitarityError, _as_int

__all__ = [
    "RotationSpec",
    "ladder_matrix",
    "j3_matrix",
    "jy_matrix",
    "expm",
    "rotation_matrix",
]

_UNITARITY_TOL = 1e-12
# Recurrence columns are scaled down past this, so their squares sum without overflow.
_RESCALE_ABOVE = 2.0**256
# The gated eigendata of every two_j up to _STORE_TWO_J_MAX built in this
# process (see _gated_columns): at most 11.9 MB for both sectors together.  The
# cap reaches int j_max 128 and half j_max 257/2; past it the build is about
# a third of a call, and storing every spin of an int j_max 512 block would
# take about 360 MB.
_STORE_TWO_J_MAX = 259
_EIGENDATA: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class RotationSpec:
    """Euler angles (a, b, c) of a rotation in z-y-z order, radians.

    Any finite real number is accepted (numpy scalars included, bool not)
    and stored as a float; the angles are not reduced modulo 2*pi because
    the half-integer blocks distinguish a full turn from the identity.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise DomainError(f"angle {name} must be a real number, got {value!r}")
            try:
                angle = float(value)
            except OverflowError:
                angle = math.inf
            if not math.isfinite(angle):
                raise DomainError(f"angle {name} must be finite, got {value!r}")
            object.__setattr__(self, name, angle)


def _check_two_j(two_j) -> int:
    """two_j as a Python int (numpy integers included, bool not), or DomainError."""
    two_j = _as_int("two_j", two_j)
    if two_j < 0:
        raise DomainError(f"two_j must be nonnegative, got {two_j}")
    return two_j


def ladder_matrix(two_j: int, direction: str) -> np.ndarray:
    """Matrix of J+ or J- on the spin-j block, basis ordered by ascending m.

    Row/column index i corresponds to m = -j + i.  The raising operator
    sends column m to row m+1 with entry sqrt((j-m)(j+m+1)); lowering
    sends column m to row m-1 with entry sqrt((j+m)(j-m+1)).
    """
    two_j = _check_two_j(two_j)
    if direction not in ("+", "-"):
        raise DomainError(f"direction must be '+' or '-', got {direction!r}")
    j = two_j / 2.0
    m = np.arange(two_j) - j  # every m but the top one
    raising = np.diag(np.sqrt((j - m) * (j + m + 1.0)), -1)
    return raising if direction == "+" else raising.T.copy()


def j3_matrix(two_j: int) -> np.ndarray:
    """Diagonal matrix of J3 on the spin-j block, ascending m."""
    two_j = _check_two_j(two_j)
    j = two_j / 2.0
    return np.diag([-j + i for i in range(two_j + 1)])


def jy_matrix(two_j: int) -> np.ndarray:
    """Matrix of Jy = (J+ - J-) / (2i) on the spin-j block, ascending m."""
    plus = ladder_matrix(two_j, "+")
    minus = ladder_matrix(two_j, "-")
    return (plus - minus) / 2j


def expm(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a truncated series.

    The input is halved until its 1-norm is at most 1/2, the series is
    summed until terms fall below machine precision relative to the
    partial sum, and the result is squared back up.  rotation_matrix does
    not use it.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expm needs a square matrix, got shape {a.shape}")
    norm = float(np.linalg.norm(a, 1)) if a.size else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.5))))
        a = a / (2.0**squarings)
    dim = a.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 64):
        term = term @ a / k
        result = result + term
        if np.linalg.norm(term, 1) <= np.finfo(float).eps * np.linalg.norm(result, 1):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def _jx_columns(two_j: int):
    """The mu >= 0 columns of the two parity halves of Jx (see _jx_halves),
    as the two column blocks of one array (_blocks).

    Row i = m + j of Jx v = mu v reads
    beta_(i-1) v_(i-1) + beta_i v_(i+1) = mu v_i with
    beta_i = sqrt((i+1)(n-1-i)) / 2, so each column follows from v_0 = 1 at
    the edge m = -j.  Inward from the edge the eigenvector is the dominant
    solution, so the recurrence is stable; it runs for every mu >= 0 at once
    and stops at the middle row, which is all the fold needs.  Columns grow
    by up to about 2^j.  A cheap bound on the last two rows is carried
    along, and once it passes 2^256 every column is scaled by the power of
    two that brings those rows below 1, which is exact.  The columns run in
    the order the store keeps them (_column_mu), so each folded column is
    normalized in place and the recurrence's array is the store's.
    """
    n = two_j + 1
    h, odd = divmod(n, 2)
    rows = h + odd  # v_0 .. v_(h-1), and the middle v_h when n is odd
    k = np.arange(1.0, rows)
    beta = np.sqrt(k * (n - k)) / 2.0  # beta[i] couples rows i and i+1
    mu = np.concatenate(_column_mu(two_j))
    # v_(i+1) = a[i] v_i - c[i] v_(i-1)
    a, c = mu / beta[:, None], np.append(0.0, beta[:-1] / beta[1:])
    # |v_(i+1)| <= growth[i] max(|v_i|, |v_(i-1)|), and every growth[i] >= 1.
    growth = (0.5 * two_j / beta + c).tolist()
    v = np.empty((rows, n - h))
    v[0] = 1.0
    top = 1.0  # bounds the last two rows
    # The loop is bound by per-call overhead, so rows and factors are indexed once.
    vr, ar, cl, tmp = list(v), list(a), c.tolist(), np.empty(n - h)
    for i in range(rows - 1):
        row = np.multiply(ar[i], vr[i], out=vr[i + 1])
        if i:
            row -= np.multiply(cl[i], vr[i - 1], out=tmp)
        top *= growth[i]
        if top > _RESCALE_ABOVE:
            # Bring the last two rows of every column below 1.
            shift = np.maximum(np.frexp(np.maximum(np.abs(v[i]), np.abs(row)))[1], 0)
            v[: i + 2] = np.ldexp(v[: i + 2], -shift)
            top = 1.0
    v[h:] *= math.sqrt(0.5)  # folded, the rows k < h read sqrt(2) v_k and the middle v_h
    columns = _blocks(two_j, v)
    v[h:, columns[0].shape[1] :] = 0.0  # the antisymmetric block's pad row
    for u in columns:
        u /= np.linalg.norm(u, axis=0)
    return columns


def _column_mu(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """The mu >= 0 of the symmetric half (j - mu even), then of the
    antisymmetric half (j - mu odd), each ascending: the order of the
    stored columns."""
    stop = two_j / 2.0 + 1.0
    return np.arange(two_j % 4 / 2.0, stop, 2.0), np.arange((two_j + 2) % 4 / 2.0, stop, 2.0)


def _blocks(two_j: int, store: np.ndarray) -> list[np.ndarray]:
    """Views of the two column blocks of a stored (n + 1) // 2 square array,
    n = 2j+1: the symmetric half's mu >= 0 columns, then the antisymmetric
    half's, which lack the middle row; when n is odd, that row of the
    array is the antisymmetric block's pad row of zeros."""
    width = two_j // 4 + 1  # the symmetric mu >= 0: j, j - 2, ..., down to 0, 1/2 or 1
    return [store[:, :width], store[: (two_j + 1) // 2, width:]]


def _side_by_side(two_j: int, columns) -> np.ndarray:
    """The stored array whose _blocks are columns: the array _jx_columns
    returns views of, or else a new one they are copied into."""
    store = columns[0].base
    shape = ((two_j + 2) // 2,) * 2
    if (
        store is None
        or store.shape != shape
        or any(u.__array_interface__ != b.__array_interface__ for u, b in zip(columns, _blocks(two_j, store)))
    ):
        store = np.zeros(shape)
        for b, u in zip(_blocks(two_j, store), columns):
            b[...] = u
    return store


def _unfold(two_j: int, columns) -> list[tuple[np.ndarray, np.ndarray]]:
    """Both parity halves of Jx, as _jx_halves gives them, from the mu >= 0
    columns of each (_jx_columns).

    Negating mu negates every other step of the recurrence, so the
    eigenvector of -mu is that of mu with row i signed (-1)^i, folded or
    not, which is exact.  For integer j it has the parity of mu, so it comes
    from the same half; for half-integer j it comes from the other half.
    """
    m = np.arange(two_j + 1) - two_j / 2.0
    halves = []
    for p, u in enumerate(columns):
        mu = m[(two_j + p) % 2 :: 2]
        neg = len(mu) - u.shape[1]
        half = np.empty((len(u), len(mu)))
        half[:, neg:] = u
        half[:, :neg] = columns[p ^ (two_j % 2)][:, : -neg - 1 : -1]  # the neg largest mu, descending
        # 0 - x rather than -x: an entry the recurrence cancels to 0.0 is +0.0 for either sign of mu.
        np.subtract(0.0, half[1::2, :neg], out=half[1::2, :neg])
        halves.append((mu, half))
    return halves


def _jx_halves(two_j: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The two parity halves of Jx as (exact eigenvalues, eigenvectors).

    The eigenvectors are folded onto (e_k + e_(n-1-k)) / sqrt(2) and
    (e_k - e_(n-1-k)) / sqrt(2), k < n // 2 ascending, with n = 2j+1 and the
    middle e_(n//2) appended to the symmetric half when n is odd.  The
    eigenvector for mu has the parity (-1)^(j - mu) under m -> -m, so the
    symmetric half holds the mu with j - mu even and the antisymmetric half
    those with j - mu odd, each in ascending order.  The recurrence
    (_jx_columns) runs for mu >= 0 only, and the mu < 0 columns are their
    exact mirrors (_unfold).
    """
    return _unfold(two_j, _jx_columns(two_j))


def _eigendata(two_j: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """_jx_halves(two_j), unfolded from the gated columns (_gated_columns)."""
    return _unfold(two_j, _blocks(two_j, _gated_columns(two_j)))


def _gated_columns(two_j: int) -> np.ndarray:
    """The mu >= 0 columns of both halves of Jx, side by side (_blocks),
    passed through the unitarity gate.

    The gate reads the halves they unfold to (_unfold), whose columns are
    the eigenvectors the assembly uses.  For two_j up to _STORE_TWO_J_MAX
    the array is kept in _EIGENDATA, read-only, once the gate passes:
    (2j+2)^2 // 4 doubles per spin.  The recurrence writes straight into it
    (_jx_columns), so the build makes no copy.  A two_j whose eigenvectors
    fail the gate is not stored, so it raises UnitarityError on every call.
    """
    store = _EIGENDATA.get(two_j)
    if store is not None:
        return store
    columns = _jx_columns(two_j)
    r = max(np.abs(u.T @ u - np.eye(len(u))).sum(axis=1).max(initial=0.0) for _, u in _unfold(two_j, columns))
    bound = 4.0 * r * (1.0 + r)
    if bound > _UNITARITY_TOL:
        raise UnitarityError(
            f"rotation matrix for two_j={two_j}: eigenvector defect bounds "
            f"max|U* U - I| by {bound:.3e} > {_UNITARITY_TOL:g}"
        )
    store = _side_by_side(two_j, columns)
    if two_j <= _STORE_TWO_J_MAX:
        store.flags.writeable = False
        _EIGENDATA[two_j] = store
    return store


def rotation_matrix(two_j: int, spec: RotationSpec) -> np.ndarray:
    """Unitary of the rotation spec on the spin-j block, ascending m.

    Computed as diag(e^(-i a m)) [I + P V diag(expm1(-i b m)) V^T P*]
    diag(e^(-i c m)), where V diagonalizes the real symmetric Jx, whose
    eigenvalues are exactly m = -j..j, and P = diag(e^(-i pi m/2)) turns Jx
    into Jy.  V is taken from the two parity halves of Jx (_jx_halves), and
    V diag(expm1) V^T comes from one real matrix product over their stored
    mu >= 0 columns alone, with a parity mask (_assemble), so
    rotation_matrix(two_j, RotationSpec(0, b, 0)) is exactly real.  The
    expm1 form keeps the identity rotation exact.  Raises UnitarityError
    if the eigenvectors' defect r (largest row sum of |u^T u - I| over both
    halves) gives a bound 4 r (1 + r) on max|U* U - I| above 1e-12, a bound
    that holds for every angle (see the module docstring).  For two_j up to
    259, the columns and their gate are built on the first call in the
    process and kept at (2j+2)^2 // 4 doubles, and later calls only
    assemble; a larger two_j builds them on every call.  two_j may be any
    integer (numpy integers included, bool not).
    """
    two_j = _check_two_j(two_j)
    if not isinstance(spec, RotationSpec):
        raise DomainError(f"spec must be a RotationSpec, got {spec!r}")
    return _rotation_matrices(two_j, [spec])[0]


def _rotation_matrices(two_j: int, specs) -> list[np.ndarray]:
    """rotation_matrix(two_j, spec) for each of specs, valid arguments."""
    store = _gated_columns(two_j)
    return [_assemble(two_j, store, spec) for spec in specs]


def _assemble(two_j: int, store: np.ndarray, spec: RotationSpec) -> np.ndarray:
    """The unitary of spec from the gated columns C of _jx_columns(two_j).

    The eigenvector of -mu is S = diag((-1)^k) times that of mu, and
    f(-mu) = conj f(mu) for f = expm1(-i b mu).  So the quarter blocks of
    the fold, (G_s +- G_a) / 2, are (X +- S conj(X) S) / 2 for
    X = C diag(f) C^T and X = C diag(sigma f) C^T, sigma = -1 on the
    antisymmetric columns: each entry is Re X or i Im X.  At output entry
    (k, l) it is the real part when k + l is even, in both blocks.  So one
    real product, C times [f C^T | sigma f C^T reversed] read as interleaved
    real and imaginary parts, writes both blocks side by side into the top
    rows of the output, and zeroing the other part of every entry completes
    the fold.  P turns the kept parts real, and its entries 1, -i, -1, i
    multiply exactly, so the d-matrix is exactly real.  The middle row, when
    2j+1 is odd, is copied to the middle column and mirrored, and the bottom
    rows are the top rows mirrored, so d[n-1-k, n-1-l] = (-1)^(k-l) d[k, l]
    exactly.  The sqrt(2) of the middle row and column rides on the phases.
    """
    n = two_j + 1
    h, odd = divmod(n, 2)
    rows = h + odd
    mu_s, mu_a = _column_mu(two_j)
    f = np.expm1(-1j * spec.b * np.concatenate((mu_s, mu_a)))
    w = np.empty((len(f), n), dtype=complex)
    np.multiply(f[:, None], store.T, out=w[:, :rows])
    np.negative(f[len(mu_s) :], out=f[len(mu_s) :])
    np.multiply(f[:, None], store[:h][::-1].T, out=w[:, rows:])
    out = np.empty((n, n), dtype=complex)
    top = out[:rows].view(float)
    np.matmul(store, w.view(float), out=top)
    # Float column q holds the real (q even) or imaginary part of column q // 2.
    for k, q in ((0, 1), (0, 2), (1, 0), (1, 3)):
        top[k::2, q::4] = 0.0
    if odd:
        out[h, h + 1 :] = out[h, :h][::-1]
        out[:h, h] = out[h, :h]
    out[n - h :] = out[:h][::-1, ::-1]  # the fold is symmetric under m -> -m on both sides
    # P up to a constant phase that cancels against P*: its entries 1, -i, -1, i
    # multiply exactly, so P adds no rounding to D_a and D_c.
    m = np.arange(n) - two_j / 2.0
    p = np.array([1.0, -1j, -1.0, 1j])[np.arange(n) % 4]
    left, right = np.exp(-1j * spec.a * m), np.exp(-1j * spec.c * m)
    row_phase, column_phase = left * p, right * p.conj()
    if odd:
        row_phase[h] *= math.sqrt(2.0)
        column_phase[h] *= math.sqrt(2.0)
    out *= row_phase[:, None]
    out *= column_phase
    out.flat[:: n + 1] += left * right
    return out
