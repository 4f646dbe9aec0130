"""Analysis, synthesis, and rotation of plane-harmonic expansions.

A band-limited function on the half-plane lives in one sector (integer or
half-integer j) and is described by a CoefficientBlock: a label j_max plus
one complex coefficient per plane harmonic with j <= j_max, in one dense
array with label (two_j, two_m) at two_j*two_j // 4 + (two_j + two_m) // 2,
so each j-multiplet is a contiguous slice.  analyze
projects a callable onto that basis with the sector quadrature, synthesize
evaluates the expansion at points, and rotate conjugates the block by the
per-j rotation unitaries.  parseval_gap measures how much of a function's
norm the block misses.

analyze and synthesize take their radial functions from basis's per-m
recurrence, which yields calL_{|m|+k}^m for every m of the sector at once,
one k at a time, and keeps large labels finite.  Both work on a grid of
n_phi angles times P radial points, the layout of fast spherical transforms
(Schaeffer, G3 14, 2013): an equispaced sum over angle times a Gauss rule
in y.  analyze calls f once on the whole (phi, y) grid, projects the samples
onto e^(-+i|m|phi) with one matrix product, contracts the rows of a block
of consecutive steps (_row_blocks) with both signs' weighted projections
at once, one batched real matrix product per |m|, and places all the sums
in the block at the end, in O(j_max^2 P + j_max n_phi P) time.  Its
projection, _project, takes a stack of sample grids and gives each the
coefficients analyze would, so many functions share one run of the
recurrence.  What it derives from the grid alone is its plan: the angular
matrix of its angles, the s_m column and gather index of its ladder, and
the radial rows of every step at its nodes.

analyze and synthesize keep such arrays, read-only, in one per-process
least-recently-used store (_STORE) of 2 MiB at most (_STORE_BYTES), keyed
on what they derive from: ("angles", top, angle bytes), ("gather", top,
b"") and ("rows", top, point bytes), top being the ladder's last 2|m|.
The one ("gather", top) entry maps labels both ways: analyze gathers each
label's coefficient from its step sums through it, and synthesize
scatters each coefficient through it to the same (sign of m, step, |m|)
entry; both keep it on the first request.  Beside that index it holds the
step-major one by which rows are laid out, which depends on the number of
|m| alone.  A "rows" entry is one C-contiguous (sum n_k, P) array, the
n_m - k rows of step k after those of the steps before it.  analyze keeps
what its grid needs on the first request, before it samples f, so a round
trip analyze(as_function(b)) whose entries fit runs the recurrence once
cold and not at all warm: synthesize reads those rows, and e^(i|m|phi)
from the angular matrix.  synthesize keeps rows and angles only on the
second request for a key while that key is held, so points that never
repeat keep no arrays.  An entry that alone passes the budget, such as the
rows or the angular matrix of the int j_max 128 default grid, is never
kept.  Every output is the streamed one bit for bit.  synthesize picks one
of two sums from n_phi alone.
With few angles, each row's coefficients, with e^(+-i m phi) and the sign
s_m folded in through the step-major index, form a real (2 n_phi, rows)
matrix, and one matrix product per block of steps adds the block to every
angle, in O(j_max^2 n_phi P) time.  The blocks are cut from (n_m, P, n_phi)
alone: all steps at once where their rows and their folded coefficients
each fit in _BLOCK_BYTES (2 MiB), so rows the store keeps make one product
at up to P / 2 angles, and one step a block, read from the stream's own
arrays, where they do not.  With many angles (_RADIAL_FIRST_ANGLES), the
rows, times their coefficients, go a block of steps at a time into one
radial sum R_(+-|m|)(y) per m, one batched real product per |m| and block,
and one (n_phi x |m|) @ (|m| x P) product per sign of m gives the grid at
the end, in O(j_max^2 P + j_max n_phi P) time.  A block of rows there holds
at most _FOLD_ENTRIES entries, or one step if that step alone holds more.
So besides the block's own O(j_max^2) coefficients and the store's 2 MiB,
memory stays O(n_phi P + j_max (n_phi + P)) on the many-angle path; the
few-angle path holds at most one block of rows and one of folded
coefficients, each at most _BLOCK_BYTES, or one step's rows and their
coefficients.  Rows that are not kept are laid out in their block while the
recurrence's own O(j_max P) arrays are alive beside it, and the folded
coefficients are made after that.

Blocks serialize to a flat JSON document::

    {
      "sector": "int" | "half",
      "j_max": "<fraction>",
      "coeffs": [{"two_j": int, "two_m": int, "re": float, "im": float}, ...]
    }

with j_max written as a fraction in lowest terms ("6", "7/2").
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from collections.abc import Mapping
from typing import Callable

import numpy as np

from .basis import _as_cap, _as_half_integer, _finite_phi, _point_parts, _real_array, _y_bounds

# calL is bound here only for perfbench/selftest.py, which checks that
# tracing leaves transform.calL and basis.calL the same object.
from .basis import SpinIndex, _radial_rows, _sign, calL, sector_labels  # noqa: F401
from .errors import DomainError, SchemaError, _as_int
from .quadrature import _plane_grid, _sample_grid
from .rotation import RotationSpec, rotation_matrix

__all__ = [
    "CoefficientBlock",
    "analyze",
    "synthesize",
    "as_function",
    "rotate",
    "parseval_gap",
    "random_block",
]

_SECTORS = ("int", "half")


def _sector_of_two_j(two_j: int) -> str:
    return "int" if two_j % 2 == 0 else "half"


def _index(two_j, two_m):
    """Position of label (two_j, two_m), ints or arrays, in a block's array."""
    return two_j * two_j // 4 + (two_j + two_m) // 2


def _block_size(sector: str, j_max) -> tuple[int, int]:
    """two_j_max and the number of labels of a valid (sector, j_max), else DomainError."""
    if sector not in _SECTORS:
        raise DomainError(f"sector must be 'int' or 'half', got {sector!r}")
    two_j_max = int(2 * _as_cap("j_max", j_max))
    top = _ladder_top(sector, two_j_max)
    return two_j_max, _index(top, top) + 1


def _ladder_top(sector: str, two_j_max: int) -> int:
    """The last 2|m| of a sector up to two_j_max: -1 if there is none."""
    return two_j_max if _sector_of_two_j(two_j_max) == sector else two_j_max - 1


def _past_range(what: str, two_j: int) -> DomainError:
    return DomainError(f"{what} leaves the double range at the j = {Fraction(two_j, 2)} multiplet")


class CoefficientBlock:
    """Immutable map from sector labels (j, m) with j <= j_max to coefficients.

    Keys are (two_j, two_m) pairs of ints; each must be a valid label of the
    stated sector.  Missing labels count as zero, so sparse and dense blocks
    with the same nonzero entries compare equal.  Storage is one read-only
    array in the order of labels(): (two_j, two_m) at two_j*two_j // 4 +
    (two_j + two_m) // 2, each j-multiplet a contiguous slice.
    """

    __slots__ = ("_sector", "_two_j_max", "_values")

    def __init__(self, sector: str, j_max, coeffs: Mapping | None = None):
        two_j_max, size = _block_size(sector, j_max)
        values = np.zeros(size, dtype=complex)
        for key, value in (coeffs or {}).items():
            try:
                two_j, two_m = key
            except (TypeError, ValueError):
                raise DomainError(f"coefficient key must be a (two_j, two_m) pair, got {key!r}")
            s = SpinIndex(int(two_j), int(two_m))
            if _sector_of_two_j(s.two_j) != sector or s.two_j > two_j_max:
                raise DomainError(f"label {key} is not in sector {sector!r} up to j_max {j_max}")
            values[_index(s.two_j, s.two_m)] = complex(value)
        self._finish(sector, two_j_max, values)

    def _finish(self, sector: str, two_j_max: int, values: np.ndarray) -> "CoefficientBlock":
        """Store values, one per label: finite or DomainError, -0.0 as 0.0, read-only."""
        self._sector, self._two_j_max = sector, two_j_max
        if not np.isfinite(values).all():
            s = self.labels()[np.flatnonzero(~np.isfinite(values))[0]]
            raise DomainError(f"coefficient at label {(s.two_j, s.two_m)} must be finite")
        values += 0.0
        values.flags.writeable = False
        self._values = values
        return self

    @property
    def sector(self) -> str:
        return self._sector

    @property
    def j_max(self) -> Fraction:
        return Fraction(self._two_j_max, 2)

    @property
    def two_j_max(self) -> int:
        return self._two_j_max

    def labels(self) -> list[SpinIndex]:
        """All labels of the sector up to j_max, sorted by (j, m)."""
        return sector_labels(self._sector, self.j_max)

    def get(self, two_j: int, two_m: int) -> complex:
        """The coefficient of (two_j, two_m); 0j for a pair that is not a label here."""
        in_sector = two_j % 2 == two_m % 2 == (self._sector == "half")
        if in_sector and abs(two_m) <= two_j <= self._two_j_max:
            return complex(self._values[int(_index(two_j, two_m))])
        return 0j

    def items(self) -> list[tuple[tuple[int, int], complex]]:
        """Stored nonzero coefficients, sorted by (two_j, two_m)."""
        ladder = _sector_ladder(self._sector, self._two_j_max)
        keys = ((two_j, two_m) for two_j in ladder for two_m in range(-two_j, two_j + 1, 2))
        return [(key, c) for key, c in zip(keys, self._values.tolist()) if c]

    def norm_sq(self) -> float:
        """Sum of |c|^2 over the block.

        A sum past the double range raises DomainError naming the multiplet
        where the running energy leaves it.
        """
        with np.errstate(over="ignore"):
            total = float(np.sum(np.abs(self._values) ** 2))
        if not math.isfinite(total):
            running = 0.0
            for two_j, energy in self._multiplet_energies().items():
                running += energy
                if not math.isfinite(running):
                    break
            raise _past_range("norm_sq", two_j)
        return total

    def per_j_norm_sq(self) -> dict[int, float]:
        """Map two_j -> sum of |c|^2 over that j's multiplet (zeros included).

        A multiplet whose energy leaves the double range raises DomainError
        naming it.
        """
        energies = self._multiplet_energies()
        for two_j, energy in energies.items():
            if not math.isfinite(energy):
                raise _past_range("per_j_norm_sq", two_j)
        return energies

    def _multiplet_energies(self) -> dict[int, float]:
        """per_j_norm_sq without its range check: inf where a multiplet overflows."""
        ladder = _sector_ladder(self._sector, self._two_j_max)
        with np.errstate(over="ignore"):
            abs2 = np.abs(self._values) ** 2
            return {t: float(np.sum(abs2[_index(t, -t) : _index(t, t) + 1])) for t in ladder}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientBlock):
            return NotImplemented
        return (
            self._sector == other._sector
            and self._two_j_max == other._two_j_max
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self):
        return hash((self._sector, self._two_j_max, self._values.tobytes()))

    def __repr__(self) -> str:
        return (
            f"CoefficientBlock(sector={self._sector!r}, j_max={self.j_max}, "
            f"{np.count_nonzero(self._values)} nonzero)"
        )

    def to_dict(self) -> dict:
        return {
            "sector": self._sector,
            "j_max": str(self.j_max),
            "coeffs": [
                {"two_j": two_j, "two_m": two_m, "re": c.real, "im": c.imag}
                for (two_j, two_m), c in self.items()
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, obj) -> "CoefficientBlock":
        if not isinstance(obj, dict):
            raise SchemaError(f"document: expected an object, got {type(obj).__name__}")
        for field in ("sector", "j_max", "coeffs"):
            if field not in obj:
                raise SchemaError(f"{field}: missing required field")
        extra = set(obj) - {"sector", "j_max", "coeffs"}
        if extra:
            raise SchemaError(f"{sorted(extra)[0]}: unexpected field")
        sector = obj["sector"]
        if sector not in _SECTORS:
            raise SchemaError(f"sector: expected 'int' or 'half', got {sector!r}")
        j_max_raw = obj["j_max"]
        if not isinstance(j_max_raw, str):
            raise SchemaError(f"j_max: expected a fraction string, got {j_max_raw!r}")
        try:
            j_max = _as_half_integer(j_max_raw)
        except DomainError:
            raise SchemaError(f"j_max: expected a half-integer fraction, got {j_max_raw!r}")
        if j_max < 0:
            raise SchemaError(f"j_max: must be nonnegative, got {j_max_raw!r}")
        entries = obj["coeffs"]
        if not isinstance(entries, list):
            raise SchemaError(f"coeffs: expected a list, got {type(entries).__name__}")
        two_j_max, size = _block_size(sector, j_max)
        values = np.zeros(size, dtype=complex)
        seen = set()
        for pos, entry in enumerate(entries):
            where = f"coeffs[{pos}]"
            if not isinstance(entry, dict):
                raise SchemaError(f"{where}: expected an object, got {type(entry).__name__}")
            for field in ("two_j", "two_m", "re", "im"):
                if field not in entry:
                    raise SchemaError(f"{where}.{field}: missing required field")
            extra = set(entry) - {"two_j", "two_m", "re", "im"}
            if extra:
                raise SchemaError(f"{where}.{sorted(extra)[0]}: unexpected field")
            for field in ("two_j", "two_m"):
                if not isinstance(entry[field], int) or isinstance(entry[field], bool):
                    raise SchemaError(f"{where}.{field}: expected an int, got {entry[field]!r}")
            for field in ("re", "im"):
                value = entry[field]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise SchemaError(f"{where}.{field}: expected a number, got {value!r}")
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an int past the double range
                    finite, value = False, f"an int of {value.bit_length()} bits"
                if not finite:
                    raise SchemaError(f"{where}.{field}: expected a finite number, got {value}")
            two_j, two_m = key = (entry["two_j"], entry["two_m"])
            if key in seen:
                raise SchemaError(f"{where}: duplicate label {key}")
            seen.add(key)
            if abs(two_m) > two_j or (two_j - two_m) % 2:
                raise SchemaError(f"{where}: label {key} needs |m| <= j and j - m an integer")
            if _sector_of_two_j(two_j) != sector:
                raise SchemaError(f"{where}: label {key} does not belong to the {sector!r} sector")
            if two_j > two_j_max:
                raise SchemaError(f"{where}: label {key} exceeds j_max={j_max}")
            values[_index(two_j, two_m)] = complex(entry["re"], entry["im"])
        return object.__new__(cls)._finish(sector, two_j_max, values)

    @classmethod
    def from_json(cls, text: str) -> "CoefficientBlock":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"document: invalid JSON ({exc.msg} at char {exc.pos})")
        except ValueError as exc:  # an integer literal past the interpreter's digit limit
            raise SchemaError(f"document: {exc}")
        return cls.from_dict(obj)


def _max_gap(a: CoefficientBlock, b: CoefficientBlock) -> float:
    """max |a - b| over the labels of two blocks of one sector and j_max; 0.0 if none.

    Python's abs on purpose: np.abs of a complex can differ from it in the last bit.
    """
    return max(map(abs, (a._values - b._values).tolist()), default=0.0)


def _sector_ladder(sector: str, two_j_max: int) -> list[int]:
    """The 2|m| values of a sector up to two_j_max, ascending."""
    return list(range(0 if sector == "int" else 1, two_j_max + 1, 2))


def analyze(
    f: Callable,
    sector: str,
    j_max,
    n_phi: int | None = None,
    n_radial: int | None = None,
) -> CoefficientBlock:
    """Project f onto the plane harmonics of one sector up to j_max.

    f is called once, as f(y, phi) with y of shape (1, n_radial) and phi of
    shape (n_phi, 1), and its result must broadcast to (n_phi, n_radial);
    otherwise DomainError names both shapes.  n_phi and n_radial must be
    integers >= 1.  The projection is an equispaced angular average against
    e^(-i m phi) per m, one matrix product over the samples, followed by a
    radial Gauss-Laguerre sum against each row of the per-m radial
    recurrence; the grid is plane_inner's, so coefficients of a
    band-limited f of the sector are exact to roundoff.  What the grid
    alone gives is kept in transform's store before f is called, where it
    fits, for later calls and for synthesize inside f; the coefficients
    are the streamed ones bit for bit.  A coefficient that is not finite,
    from samples that are not or from sums past the double range, raises
    DomainError naming its label.
    """
    return _analyze(f, sector, j_max, n_phi, n_radial)[0]


def _analyze(f, sector, j_max, n_phi, n_radial):
    """analyze's block, with the samples and lifted radial weights it used."""
    two_j_max = _block_size(sector, j_max)[0]
    phis, x, w = _plane_grid(Fraction(two_j_max, 2), n_phi, n_radial)
    # The plan first: its kept rows and phases are there for f, if f
    # synthesizes on this grid.
    plan = _plan(sector, two_j_max, phis, x)
    samples = _sample_grid(f, x, phis)
    values = _project(samples[None], sector, two_j_max, phis, x, w, plan)[0]
    return object.__new__(CoefficientBlock)._finish(sector, two_j_max, values), samples, w


def _project(samples, sector: str, two_j_max: int, phis, x, w, plan=None) -> np.ndarray:
    """The coefficient arrays, in block order, of a stack of sample grids.

    samples has shape (B, n_phi, n_radial), on the grid of _plane_grid
    (phis, x, w) at band limit two_j_max / 2; the result has shape
    (B, labels).  analyze is the case B = 1, and each of B functions gets
    the coefficients analyze gives it, bit for bit: every product and sum
    below acts on each function's samples alone.  What depends on the grid
    alone is plan, or _plan's if plan is None; kept or built, it holds the
    same bytes.
    The blocks of rows (_row_blocks) do not depend on B, so neither do the
    products.  Samples past the double range leave coefficients that are
    not finite.  The bytes of the result hold at one BLAS thread count
    only: from about int j_max 32 on, the angular and batched products are
    large enough for a threaded BLAS to split them, and their last bits then
    depend on how many threads it uses.
    """
    angular, signs, source, rows = plan or _plan(sector, two_j_max, phis, x)
    count, n_m = len(samples), len(signs)
    with np.errstate(over="ignore", invalid="ignore"):
        # Angular projections onto m = +|m| and m = -|m|, each times the
        # weights, indexed by (sign of m, function, |m|, point) like
        # synthesize's by_sign; the +|m| side also carries the sign s_m of
        # its radial function.
        proj = w * (angular @ samples) / phis.size
        proj[0] *= signs
        # One real matrix per |m|, its rows the real parts, then the
        # imaginary parts, of every (function, sign) projection: indexed by
        # (|m|, part, point), so a block of steps is one batched product.
        proj = proj.swapaxes(0, 1).reshape(2 * count, n_m, x.size)
        proj = np.concatenate([proj.real, proj.imag]).swapaxes(0, 1)
        sums = np.zeros((n_m, 4 * count, n_m))  # (|m|, part, step)
        for k, block in _row_blocks(rows, n_m, x.size):
            n, s = block.shape[:2]
            sums[:n, :, k : k + s] = proj[:n] @ block.swapaxes(1, 2)
        # (function and sign, step, |m|), as the gather index reads it.
        sums = (sums[:, : 2 * count] + 1j * sums[:, 2 * count :]).transpose(1, 2, 0)
    return sums.reshape(count, 2 * n_m * n_m).take(source, axis=1)


def _plan(sector: str, two_j_max: int, phis, x) -> tuple:
    """What _project derives from the grid (phis, x) alone, kept on the
    first request where it fits (see _kept): (angular, signs, source, rows)."""
    top = _ladder_top(sector, two_j_max)
    (angular,) = _kept("angles", top, phis, True) or (_angular(top, phis),)
    signs, source, _ = _kept("gather", top, phis[:0], True) or _ladder(top)
    return angular, signs, source, _kept("rows", top, x, True)[1]


def _angular(top: int, phis) -> np.ndarray:
    """e^(-+i|m|phi) of the ladder up to top at the angles phis, indexed by
    (sign of m, 1, |m|, angle)."""
    abs2m = np.arange(top % 2, top + 1, 2)
    return np.exp(0.5j * np.array([-1, 1])[:, None, None, None] * abs2m[:, None] * phis)


def _gather(top: int) -> tuple:
    """(signs, source): the s_m column of the ladder up to top, and the
    gather index that places entry (sign, j - |m|, |m|) of the step sums at
    label (j, +-|m|)."""
    abs2m = np.arange(top % 2, top + 1, 2)
    n_m = len(abs2m)
    signs = np.full((n_m, 1), _sign(top))  # every |m| of a sector has one s_m
    # Label (j, m) of the q-th multiplet, 2j = abs2m[q] and 2|m| = abs2m[i],
    # reads entry (sign of m, q - i, i) of each function's sums, m = 0 on the
    # + side, gathered at once: indexing the stack with one index array on
    # one axis keeps analyze's one function as fast as a 1-D block.
    q = np.repeat(np.arange(n_m), abs2m + 1)
    two_m = 2 * (np.arange(q.size) - (abs2m * abs2m // 4)[q]) - abs2m[q]
    i = (np.abs(two_m) - top % 2) // 2
    return signs, (two_m < 0) * (n_m * n_m) + q * n_m - i * (n_m - 1)


def _ladder(top: int) -> tuple:
    """What the ladder up to top alone gives: _gather's (signs, source), and
    the step-major index entry that _kept lays rows out by: row i of step k
    (k + i < n_m) is entry[k n_m - k (k - 1) / 2 + i] = k n_m + i of the
    (step, |m|) sums."""
    n_m = top // 2 + 1
    return *_gather(top), np.flatnonzero(np.add.outer(np.arange(n_m), np.arange(n_m)) < n_m)


def _kept(kind: str, top: int, points, keep_first: bool):
    """The store's arrays of one kind for the ladder up to top (see
    _Store.request): "angles", (angular,) at the angles points, or None;
    "gather", _ladder's (signs, source, entry), which take no points, or
    None; "rows", (laid, steps), the radial rows of every step at the radii
    points, n_m, n_m - 1, ..., 1 rows a step: steps are the kept views that
    tile laid, one (sum n_k, P) array in step order, or laid is None and
    steps a fresh stream."""
    n_m, check = top // 2 + 1, None
    if kind == "angles":
        size, build = 32 * n_m * points.size, lambda: (_angular(top, points),)
    elif kind == "gather":
        size = 8 * (n_m + _index(top, top) + 1 + n_m * (n_m + 1) // 2)
        build = lambda: _ladder(top)
    else:
        # A miss rejects bad radii before the store changes, and its stream
        # starts from the bounds that check took.
        bounds = []
        stream = lambda: _radial_rows(range(top % 2, top + 1, 2), top, points, *bounds)
        rows = n_m * (n_m + 1) // 2
        size, build = 8 * rows * points.size, lambda: _laid_out(stream(), rows, points.size)[1]
        check = lambda: bounds.append(_y_bounds(points))
    kept = _STORE.request((kind, top, points.tobytes()), size, build, keep_first, check)
    if kind != "rows":
        return kept
    if kept is None:
        return None, stream()
    return (kept[0].base if kept else None), kept  # an empty ladder has no steps


def _laid_out(stream, rows: int, size: int) -> tuple:
    """The steps of a radial stream, rows rows in all, end to end in one new
    (rows, size) array, filled a step at a time: (array, its step views)."""
    out = np.empty((rows, size))
    steps, start = [], 0
    for step in stream:
        steps.append(out[start : start + len(step)])
        steps[-1][...] = step
        start += len(step)
    return out, tuple(steps)


# The bytes the store holds at most, counting each entry's arrays and key.
_STORE_BYTES = 2**21


class _Store(Mapping):
    """Read-only arrays that analyze and synthesize derive from points
    alone, by key, least recently used first: key -> (counted bytes, arrays
    or None while key is held without them).  Only request and clear change
    it, so nbytes is always the sum of the counted bytes."""

    def __init__(self):
        self._entries = {}
        self.nbytes = 0

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0

    def request(self, key: tuple, size: int, build: Callable, keep_first: bool, check=None):
        """key's kept arrays, or None for the caller to build or stream its own.

        A miss runs check(), if given, then keeps build()'s arrays (size
        bytes), read-only, if keep_first or if key is held without arrays (a
        second request), and holds key alone if not; the least recently used
        entries go until the store is within _STORE_BYTES.  Arrays that with
        their key pass that alone are never kept nor their key held.
        """
        # A key counts its points and 256 bytes for itself: its tuple, bytes
        # object and dict slot measured about 210 bytes with one point.
        key_bytes = len(key[-1]) + 256
        if size + key_bytes > _STORE_BYTES:
            return None
        entries = self._entries
        held = entries.get(key)
        if held is not None and held[1] is not None:
            entries[key] = entries.pop(key)
            return held[1]
        if check is not None:
            check()
        arrays = None
        if keep_first or held is not None:
            arrays = build()
            for array in arrays:
                array.flags.writeable = False
        if held is not None:
            self.nbytes -= entries.pop(key)[0]
        counted = key_bytes + (0 if arrays is None else size)
        while self.nbytes + counted > _STORE_BYTES:
            self.nbytes -= entries.pop(next(iter(entries)))[0]
        entries[key] = counted, arrays
        self.nbytes += counted
        return arrays


_STORE = _Store()


# Entries of a block of radial rows (|m| x step x point) that analyze and the
# many-angle sum build at once, or of the coefficients (row x angle) that the
# few-angle sum folds at once when it takes one step at a time, so a grid of
# many points never holds a whole (|m|, steps, P) tensor.
_FOLD_ENTRIES = 2**12


def _row_blocks(stream, steps: int, size: int):
    """The rows of a steps-step radial stream over size points, a block of
    consecutive steps at a time.

    stream yields step k's (n_k, size) rows, n_k not increasing, as
    _radial_rows does or the store keeps them.  Yields (k, block): block
    has shape (n_k, s, size) and holds steps k .. k + s - 1, block[i, t]
    being row i of step k + t, or exact zeros past that step's last row.  A
    block holds at most _FOLD_ENTRIES entries, or one step if that step
    alone holds more, and the blocks take every step once, in order.
    """
    stream = iter(stream)
    k = 0
    for first in stream:
        n = len(first)
        s = min(steps - k, max(1, _FOLD_ENTRIES // max(1, n * size)))
        block = np.zeros((n, s, size))
        block[:, 0] = first
        for t, rows in zip(range(1, s), stream):
            block[: len(rows), t] = rows
        yield k, block
        k += s


# The bytes a block of rows, or of the coefficients folded onto them, holds at
# most in the few-angle sum: the store's budget as the module loads, so that
# no output depends on what the store may keep.  Rows the store can keep are
# one block wherever there are at least twice as many radii as angles.
_BLOCK_BYTES = _STORE_BYTES

# From this many angles on, synthesize sums each m's radial series first and
# takes its angular products once at the end; below it, every block of steps
# reaches every angle through one folded matrix product (_sum_by_rows).  Timed
# call by call on one BLAS thread at int j_max 8 to 128, the few-angle sum is
# the faster up to 40-80 angles or more at 100-300 radii, but from j_max 20 on
# only below 8 to 40 angles at 10-30 radii, whether the rows stream or are kept.
# No one count suits every grid; 48 keeps a default-grid round trip, at 79-81
# angles, on the many-angle sum.
_RADIAL_FIRST_ANGLES = 48


def synthesize(block: CoefficientBlock, point):
    """Evaluate the expansion sum of c_jm calZ_j^m at a point or a grid.

    ``point`` is a PlanePoint or a (y, phi) pair of real scalars or arrays
    that broadcast as a grid: on every axis one of them has size 1, so y of
    shape (P, 1) with phi of shape (1, A) gives a (P, A) result.  Anything
    else, complex or non-numeric values included, raises DomainError, and
    so does a phi that is not finite or, whatever the block, a y that is
    not finite and >= 0.  The result has the broadcast shape, and a scalar
    pair gives a complex.

    The per-m radial recurrence runs once over y's own points, or not at
    all where the store holds their rows up to the top multiplet: kept by
    analyze on its grid, or by an earlier call at the same points and top
    whose key was held (see _Store.request).  e^(i|m|phi) comes from the
    store's angular matrix in the same way.  The coefficients go to their
    (sign of m, step, |m|) entries through the store's ("gather", top)
    index, the one analyze reads them back through, kept on the first
    request for a top.  Every output is the streamed one bit for bit.  No
    angles, or an empty block, give zeros of the broadcast
    shape.  The number of angles n_phi picks how the steps are summed.  With
    few angles each row's coefficients, with e^(+-i m phi) and the sign s_m
    folded in, form a real (2 n_phi, rows) matrix, and a block of steps adds
    one (2 n_phi x rows) @ (rows x P) product: O(j_max^2 n_phi P) in all.
    The blocks depend on (top multiplet, P, n_phi) alone, so kept and
    streamed rows are summed alike: every step at once where the rows and
    their folded coefficients each fit in 2 MiB, as those of an int j_max 32
    block at 256 radii do, and one step a block where they do not.  With
    many angles the rows, times their coefficients, go a block of steps at
    a time into the radial sums R_(+-|m|)(y) of each m, and two
    (n_phi x |m|) @ (|m| x P) products, one per sign of m, give the grid at
    the end: O(j_max^2 P + j_max n_phi P) in all.

    The bytes of the result hold at one BLAS thread count only.  Under 1
    and 2 OpenBLAS threads they agreed at int j_max 20, 24, 32 and 64 and
    half 129/2 on analyze's default grid and at 256 radii with one angle,
    and at 256 radii with 4, 16 or 47 angles at all of those but int j_max
    32, whose one (2 n_phi x 561) @ (561 x 256) product a threaded BLAS
    splits.  A change to _BLOCK_BYTES or _RADIAL_FIRST_ANGLES moves that
    boundary.
    """
    y, phi = _point_parts(point)
    y_arr = _real_array("y", y)
    phi_arr = _finite_phi(phi)
    ndim = max(y_arr.ndim, phi_arr.ndim)
    y_shape = (1,) * (ndim - y_arr.ndim) + y_arr.shape
    phi_shape = (1,) * (ndim - phi_arr.ndim) + phi_arr.shape
    if any(a != 1 and b != 1 for a, b in zip(y_shape, phi_shape)):
        raise DomainError(
            f"y of shape {y_arr.shape} and phi of shape {phi_arr.shape} do not form "
            "a grid: on every axis one of them must have size 1"
        )
    flat, phis = y_arr.reshape(-1), phi_arr.reshape(-1)
    nonzero = np.flatnonzero(block._values) if phis.size else ()
    if len(nonzero):
        # The recurrence stops at the top multiplet with a nonzero entry: the
        # sector's last 2j whose first label, at 2j * 2j // 4, is not past it.
        top = _ladder_top(block.sector, math.isqrt(4 * int(nonzero[-1]) + 3))
        # Kept rows are this recurrence on these points, and a kept
        # angular[1] is this phase, as 0.5j * 1 is exactly 0.5j.  The rows
        # come first: a miss checks the points before the store changes.
        laid, steps = _kept("rows", top, flat, False)
        angles = _kept("angles", top, phis, False)
        signs, source, entry = _kept("gather", top, phis[:0], True) or _ladder(top)
        # by_sign[0] holds the coefficients of e^(+i|m|phi), m = 0 included,
        # by_sign[1] those of e^(-i|m|phi); indexed by (step, |m|), each
        # coefficient at the entry that analyze's gather reads it from.
        n_m = len(signs)
        by_sign = np.zeros(2 * n_m * n_m, dtype=complex)
        by_sign[source] = block._values[: source.size]
        by_sign = by_sign.reshape(2, n_m, n_m)
        by_sign[0] *= _sign(top)  # every m > 0 of a sector has this s_m
        if angles is None:
            phase = np.exp(0.5j * np.arange(top % 2, top + 1, 2)[:, None] * phis)
        else:
            phase = angles[0][1, 0]
        if phis.size < _RADIAL_FIRST_ANGLES:
            out = _sum_by_rows(by_sign, phase, entry, laid, steps, flat.size)
        else:
            out = _sum_by_m(by_sign, phase.T, steps, flat.size)
    else:
        _y_bounds(flat)  # the points the nonzero path would reject
        out = np.zeros((phis.size, flat.size), dtype=complex)
    # (angle, point) -> the broadcast shape: interleave phi's axes with y's,
    # then merge each pair, one of which has size 1.
    out = out.reshape(phi_shape + y_shape)
    out = out.transpose([i for t in range(ndim) for i in (t, ndim + t)])
    out = out.reshape(np.broadcast_shapes(y_shape, phi_shape))
    return out if out.ndim else complex(out)


def _sum_by_rows(by_sign, phase, entry, laid, steps, size):
    """The (n_phi, size) grid from one real product per block of steps:
    (2 n_phi x rows of the block) @ (rows of the block x size).

    phase is e^(i|m|phi), (|m|, angle); entry is _ladder's step-major index,
    and (laid, steps) the rows as _kept gives them.  Each
    row's coefficients, with e^(+-i|m|phi) and s_m folded in, are the real
    and imaginary parts of every angle in turn.  The blocks are cut from
    (n_m, size, n_phi) alone, so kept and streamed rows give the same bytes:
    all steps, if their rows and their folded coefficients each fit in
    _BLOCK_BYTES, and one step each if not.  A single block reads streamed
    rows from one array they are laid out in; a step reads the stream's own.
    """
    n_m, n_phi = phase.shape
    total, coeffs = len(entry), by_sign.reshape(2, -1)
    group = max(1, _FOLD_ENTRIES // n_phi)  # rows whose temporaries stay small

    def folded(start, stop):  # rows start .. stop - 1, as (2 n_phi, rows)
        both = np.empty((stop - start, n_phi), dtype=complex)
        for first in range(start, stop, group):
            part = entry[first : min(stop, first + group)]
            turn = phase.take(part % n_m, axis=0)
            plus, minus = coeffs.take(part, axis=1)[..., None]
            out = both[first - start : first - start + len(part)]
            np.multiply(plus, turn, out=out)
            out += minus * np.conjugate(turn, out=turn)
        return both.view(float).T

    if 8 * total * max(size, 2 * n_phi) <= _BLOCK_BYTES:
        if laid is None:
            laid, _ = _laid_out(steps, total, size)
        acc = folded(0, total) @ laid
    else:
        # One product per step, over the stream's own rows: no copy.
        acc = np.zeros((2 * n_phi, size))
        start = stop = 0
        for step in steps:
            if start + len(step) > stop:
                first, stop = start, min(total, start + max(len(step), group))
                coeff = folded(first, stop)
            acc += coeff[:, start - first : start - first + len(step)] @ step
            start += len(step)
    return acc[0::2] + 1j * acc[1::2]


def _sum_by_m(by_sign, phase, stream, size):
    """The (n_phi, size) grid from each m's radial sum over the row stream,
    a block of steps at a time, then one matrix product per sign of m."""
    # Real and imaginary parts apart, so each block is one real product per
    # |m|: (|m|, sign of m and re/im, step) @ (|m|, step, point).
    steps, n_m = by_sign.shape[1:]
    coeffs = np.stack([by_sign.real, by_sign.imag], axis=1).reshape(4, steps, n_m)
    coeffs = np.ascontiguousarray(coeffs.transpose(2, 0, 1))
    radial = np.zeros((n_m, 4, size))
    for k, block in _row_blocks(stream, steps, size):
        n, s = block.shape[:2]
        radial[:n] += coeffs[:n, :, k : k + s] @ block
    sums = radial[:, 0::2] + 1j * radial[:, 1::2]  # (|m|, sign of m, point)
    return phase @ sums[:, 0] + phase.conj() @ sums[:, 1]


def as_function(block: CoefficientBlock) -> Callable:
    """The expansion as a callable f(y, phi) suitable for analyze.

    It calls synthesize, so y and phi may be scalars or arrays that broadcast
    as a grid.  analyze's single (1, n_radial) x (n_phi, 1) call costs one run
    of the radial recurrence, or none where analyze has kept its grid's rows
    before it calls f.
    """
    return lambda y, phi: synthesize(block, (y, phi))


def rotate(block: CoefficientBlock, spec: RotationSpec) -> CoefficientBlock:
    """Apply a rotation to a block, one unitary per j-multiplet.

    Within each j the coefficients transform by the z-y-z rotation matrix
    in the ascending-m basis; different j never mix.  A multiplet that is
    all zero stays zero, and its matrix is not built.
    """
    if not isinstance(spec, RotationSpec):
        raise DomainError(f"spec must be a RotationSpec, got {spec!r}")
    values = np.zeros_like(block._values)
    ladder = _sector_ladder(block.sector, block.two_j_max)
    starts = [_index(two_j, -two_j) for two_j in ladder]
    # The multiplets tile the block in ladder order, so one pass finds the nonzero ones.
    nonzero = np.logical_or.reduceat(block._values != 0, starts).tolist()
    for two_j, start, live in zip(ladder, starts, nonzero):
        if live:
            part = slice(start, start + two_j + 1)
            values[part] = rotation_matrix(two_j, spec) @ block._values[part]
    return object.__new__(CoefficientBlock)._finish(block.sector, block.two_j_max, values)


def parseval_gap(
    f: Callable,
    sector: str,
    j_max,
    n_phi: int | None = None,
    n_radial: int | None = None,
) -> float:
    """Absolute difference between |f|^2 and the captured coefficient energy.

    Both the norm integral and the projections use the quadrature sized for
    j_max, so f should be a finite harmonic combination the rule can
    integrate (components above j_max then show up as gap, as intended).
    f follows analyze's contract and is called once: the projections and
    the norm both come from the same samples.  Samples whose projections or
    norm leave the double range raise DomainError.
    """
    block, samples, w = _analyze(f, sector, j_max, n_phi, n_radial)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.sum((samples.real**2 + samples.imag**2) @ w)) / len(samples)
    if not math.isfinite(norm):
        raise DomainError(
            f"parseval_gap(sector={sector!r}, j_max={j_max}): the norm of f leaves the double range"
        )
    return abs(norm - block.norm_sq())


def random_block(sector: str, j_max, seed: int = 0) -> CoefficientBlock:
    """Dense block with standard complex normal coefficients, seeded.

    seed must be a nonnegative integer (numpy integers included, bool not),
    else DomainError.
    """
    two_j_max, size = _block_size(sector, j_max)
    seed = _as_int("seed", seed)
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    # The same draws, in label order, as one standard_normal(2) per label.
    values = np.random.default_rng(seed).standard_normal((size, 2)).view(complex)[:, 0]
    return object.__new__(CoefficientBlock)._finish(sector, two_j_max, values)
