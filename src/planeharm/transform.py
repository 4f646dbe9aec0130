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
recurrence.  What the projection derives from the grid alone (the angular
matrix, the s_m column, the radial rows of every step and the gather
index) is its plan.  The plan of the default grid of each (sector,
two_j_max) with two_j_max <= 64 is built once per process and kept
read-only, keyed on the sector, two_j_max and the bytes of the grid's
angles and nodes: at most 0.3 MB a grid, 5.8 MB for the grids of each
sector's own j_max and 11.5 MB for every (sector, two_j_max) up to the
cap.  A grid of other sizes or a larger two_j_max builds the small parts
once per call and streams its rows.  synthesize runs the recurrence once
over its P radial points, unless those points and angles are a stored grid
and its top multiplet is that plan's two_j_max: then it reads the plan's
rows and its e^(i|m|phi) matrix, the same computations on the same inputs.
analyze takes its plan before it samples f, so a default-grid round trip
analyze(as_function(b)) up to the cap runs the recurrence once cold and
not at all warm.  Off a stored grid, synthesize remembers the top
multiplet and the bytes of its last points in a one-entry store, and the
second call in a row at them keeps its rows there, read-only, when rows
and key hold at most 2^18 entries (2 MiB): later calls at the same radii
and top, at any angles and coefficients, read them instead of running the
recurrence again.  Points that never repeat, or larger rows, stream and
are never kept.  synthesize picks one of two sums from n_phi alone.
With few angles, at each step the coefficients with e^(+-i m phi) and the
sign s_m folded in form a real (2 n_phi, |m|) matrix, and one matrix
product adds the step to every angle, in O(j_max^2 n_phi P)
time; the fold is built a few steps at a time, never as a whole
(steps, n_phi, |m|) tensor.  With many angles (_RADIAL_FIRST_ANGLES), the
rows, times their coefficients, go a block of steps at a time into one
radial sum R_(+-|m|)(y) per m, one batched real product per |m| and block,
and one (n_phi x |m|) @ (|m| x P) product per sign of m gives the grid at
the end, in O(j_max^2 P + j_max n_phi P) time.  A block of rows holds at
most _FOLD_ENTRIES entries, or one step if that step alone holds more, so
memory stays O(n_phi P + j_max (n_phi + P)) on both paths, besides the
2 MiB at most of synthesize's kept rows.

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
from typing import Callable, Mapping

import numpy as np

from .basis import _as_cap, _as_half_integer, _finite_phi, _point_parts, _real_array, _y_bounds

# calL is bound here only for perfbench/selftest.py, which checks that
# tracing leaves transform.calL and basis.calL the same object.
from .basis import SpinIndex, _radial_rows, _sign, calL, sector_labels  # noqa: F401
from .errors import DomainError, SchemaError, _as_int
from .quadrature import _grid_sizes, _plane_grid, _sample_grid
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
    return two_j_max, _label_count(sector, two_j_max)


def _label_count(sector: str, two_j_max: int) -> int:
    """The number of labels of a sector with two_j <= two_j_max."""
    top = two_j_max if _sector_of_two_j(two_j_max) == sector else two_j_max - 1
    return _index(top, top) + 1


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
    band-limited f of the sector are exact to roundoff.  A coefficient that
    is not finite, from samples that are not or from sums past the double
    range, raises DomainError naming its label.
    """
    return _analyze(f, sector, j_max, n_phi, n_radial)[0]


def _analyze(f, sector, j_max, n_phi, n_radial):
    """analyze's block, with the samples and lifted radial weights it used."""
    two_j_max = _block_size(sector, j_max)[0]
    phis, x, w = _plane_grid(Fraction(two_j_max, 2), n_phi, n_radial)
    # The plan first: a stored one is there for f, if f synthesizes on this grid.
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
    alone is plan, or _plan's if plan is None: stored for a default grid up
    to _PLAN_TWO_J_MAX and built per call otherwise; the contraction is the
    same either way, so a stored plan leaves every coefficient as it was.
    The blocks of rows (_row_blocks) do not depend on B, so neither do the
    products.  Samples past the double range leave coefficients that are
    not finite.  The bytes of the result hold at one BLAS thread count
    only: from about int j_max 32 on, the angular and batched products are
    large enough for a threaded BLAS to split them, and their last bits then
    depend on how many threads it uses.
    """
    angular, signs, rows, source = plan or _plan(sector, two_j_max, phis, x)
    count, n_m = len(samples), len(signs)
    if rows is None:
        rows = _radial_rows(_sector_ladder(sector, two_j_max), two_j_max, x)
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


# The projection plan of analyze's default grid at each (sector, two_j_max)
# up to _PLAN_TWO_J_MAX built in this process (see _plan), keyed on the grid
# it was built from: 0.19 MB for the int j_max 20 and half j_max 39/2 grids,
# 5.8 MB for the grids of each sector's own j_max up to int j_max 32 and
# half j_max 63/2, and 11.5 MB at most.  Any other grid streams its radial
# rows on every call, so the store stays bounded.
_PLAN_TWO_J_MAX = 64
_PLANS: dict[tuple, tuple] = {}


def _plan(sector: str, two_j_max: int, phis, x) -> tuple:
    """What _project derives from the grid (phis, x) alone.

    (angular, signs, rows, source): the e^(-+i|m|phi) matrix indexed by
    (sign of m, 1, |m|, angle), the s_m column, the radial rows of every
    step of the per-m recurrence at x, and the gather index that places
    entry (sign, j - |m|, |m|) of the step sums at label (j, +-|m|).  The
    plan of a grid of the default sizes (analyze's default grid) with
    two_j_max <= _PLAN_TWO_J_MAX is built once per process, kept read-only
    and keyed on every input it is built from; any other grid gets rows
    None, for _project to stream them.  synthesize reads the rows of a
    stored plan under the same key, for a block whose top multiplet is
    two_j_max on that grid.
    """
    key = _plan_key(sector, two_j_max, phis, x)
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    ladder = _sector_ladder(sector, two_j_max)
    n_m, abs2m = len(ladder), np.array(ladder, dtype=int)
    angular = np.exp(0.5j * np.array([-1, 1])[:, None, None, None] * abs2m[:, None] * phis)
    signs = np.array([_sign(v) for v in ladder])[:, None]
    # Label (j, +-|m|) reads entry (sign, j - |m|, |m|) of each function's
    # sums, gathered at once: indexing the stack with one index array on one
    # axis keeps analyze's one function as fast as a 1-D block.
    two_j = abs2m + 2 * np.arange(n_m)[:, None]
    keep = two_j <= two_j_max
    entry = np.arange(n_m * n_m).reshape(n_m, n_m)[keep]
    two_j, abs2m = two_j[keep], np.broadcast_to(abs2m, keep.shape)[keep]
    source = np.empty(_label_count(sector, two_j_max), dtype=np.intp)
    # m = 0 is written twice, the +|m| projection last.
    source[_index(two_j, -abs2m)] = entry + n_m * n_m
    source[_index(two_j, abs2m)] = entry
    rows = None
    if two_j_max <= _PLAN_TWO_J_MAX and (phis.size, x.size) == _grid_sizes(Fraction(two_j_max, 2)):
        rows = tuple(_radial_rows(ladder, two_j_max, x))
        for array in (angular, signs, source, *rows):
            array.flags.writeable = False
        _PLANS[key] = angular, signs, rows, source
    return angular, signs, rows, source


def _plan_key(sector: str, two_j_max: int, phis, x) -> tuple:
    """The _PLANS key of a grid: every input its plan is built from."""
    return sector, two_j_max, phis.tobytes(), x.tobytes()


# Entries of the coefficient fold (step x angle x |m|) or of a block of
# radial rows (|m| x step x point) built at once, so a grid of many angles
# or points never holds a whole (steps, n_phi, |m|) or (|m|, steps, P)
# tensor.
_FOLD_ENTRIES = 2**12


def _row_blocks(stream, steps: int, size: int):
    """The rows of a steps-step radial stream over size points, a block of
    consecutive steps at a time.

    stream yields step k's (n_k, size) rows, n_k not increasing, as
    _radial_rows does or a stored plan holds them.  Yields (k, block): block
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

# From this many angles on, synthesize sums each m's radial series first and
# takes its angular products once at the end; below it, every step reaches
# every angle through one folded matrix product.  Timed on one BLAS thread
# at j_max 8 to 128 with 10 to 300 radii, the two paths break even at 32 to
# 56 angles, and at 48 neither is more than 12 % slower than the other.
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
    all where they and the angles form a grid whose rows and phases
    analyze has stored (see _plan), or where the last two calls off such a
    grid had y's points and top multiplet and kept their rows (see
    _synthesis_rows); every output is the streamed one bit for bit.  No
    angles, or an empty block, give zeros of the broadcast shape.  The
    number of angles n_phi picks how the steps are summed.  With few
    angles the coefficients of step k, with e^(+-i m phi) and the sign s_m
    folded in, form a real (2 n_phi, n_k) matrix, and the step adds one
    (2 n_phi x n_k) @ (n_k x P) product: O(j_max^2 n_phi P) in all.  With
    many angles the rows, times their coefficients, go a block of steps at
    a time into the radial sums R_(+-|m|)(y) of each m, and two
    (n_phi x |m|) @ (|m| x P) products, one per sign of m, give the grid at
    the end: O(j_max^2 P + j_max n_phi P) in all.
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
    if phis.size and np.any(block._values):
        # The recurrence stops at the top multiplet with a nonzero entry.
        ladder = np.array(_sector_ladder(block.sector, block.two_j_max))
        ladder = ladder[_index(ladder, -ladder) <= np.flatnonzero(block._values)[-1]]
        top = int(ladder[-1])
        # by_sign[0] holds the coefficients of e^(+i|m|phi), m = 0 included,
        # by_sign[1] those of e^(-i|m|phi); indexed by (step, |m|).
        two_j = ladder + 2 * np.arange(len(ladder))[:, None]
        keep = np.stack([two_j <= top, (two_j <= top) & (ladder > 0)])
        slots = np.where(keep, [_index(two_j, ladder), _index(two_j, -ladder)], 0)
        by_sign = keep * block._values[slots]
        by_sign[0] *= _sign(top)  # every m > 0 of a sector has this s_m
        # On analyze's default grid its stored plan holds these very rows and
        # phases: the same recurrence on the same ladder, top and points, and
        # its angular[1] is this product, as 0.5j * 1 is exactly 0.5j.
        plan = _PLANS.get(_plan_key(block.sector, top, phis, flat))
        if plan is None:
            phase = np.exp(0.5j * ladder[:, None] * phis)
            stream = _synthesis_rows(ladder, top, flat)
        else:
            phase, stream = plan[0][1, 0], plan[2]
        if phis.size < _RADIAL_FIRST_ANGLES:
            out = _sum_by_step(by_sign, phase.T, stream, flat.size)
        else:
            out = _sum_by_m(by_sign, phase.T, stream, flat.size)
    else:
        _y_bounds(flat)  # the points the nonzero path would reject
        out = np.zeros((phis.size, flat.size), dtype=complex)
    # (angle, point) -> the broadcast shape: interleave phi's axes with y's,
    # then merge each pair, one of which has size 1.
    out = out.reshape(phi_shape + y_shape)
    out = out.transpose([i for t in range(ndim) for i in (t, ndim + t)])
    out = out.reshape(np.broadcast_shapes(y_shape, phi_shape))
    return out if out.ndim else complex(out)


# synthesize's kept radial rows (see _synthesis_rows): one entry whose rows
# and key hold at most _KEPT_ROW_ENTRIES float64 entries (2 MiB) in all, so
# the store stays bounded.
_KEPT_ROW_ENTRIES = 2**18
_ROWS: dict[tuple, tuple | None] = {}


def _synthesis_rows(ladder, top: int, flat):
    """The per-m radial rows of ladder up to top at the points flat.

    Rows and key past _KEPT_ROW_ENTRIES entries in all just stream.  Else
    the store _ROWS is keyed on every input the rows are built from: top,
    which fixes the sector and the ladder, and the bytes of flat.  On a hit
    it gives the kept read-only rows.  On a miss it streams a fresh run of
    the recurrence, each step summed as it comes, and once the stream is
    consumed its key becomes the one entry, holding the rows, read-only,
    if the key was there already: the rows are kept by the second call in
    a row at the same points.  Keeping rows costs a call about a tenth of
    its time (each step is new memory, not the last one's), so points that
    never repeat pay for their key only.  Points the recurrence rejects
    raise its DomainError and leave the store as it was.
    """
    entries = flat.size * (1 + int(np.sum((top - ladder) // 2 + 1)))
    if entries > _KEPT_ROW_ENTRIES:
        return _radial_rows(ladder.tolist(), top, flat)
    key = top, flat.tobytes()
    rows = _ROWS.get(key)
    if rows is None:
        rows = _entered(key, _radial_rows(ladder.tolist(), top, flat), keep=key in _ROWS)
    return rows


def _entered(key, stream, keep: bool):
    """Yield stream's rows, read-only if keep; once it is consumed, make key
    _ROWS's one entry, holding the rows if keep."""
    rows = []
    for array in stream:
        if keep:
            array.flags.writeable = False
            rows.append(array)
        yield array
    _ROWS.clear()
    _ROWS[key] = tuple(rows) if keep else None


def _sum_by_step(by_sign, phase, stream, size):
    """The (n_phi, size) grid, each step of the row stream added to every angle
    by one matrix product."""
    acc = np.zeros((2 * len(phase), size))  # real parts, then imaginary parts
    phase_conj = phase.conj()
    chunk = max(1, _FOLD_ENTRIES // phase.size)
    for k, rows in enumerate(stream):
        n = len(rows)
        if k % chunk == 0:
            part = by_sign[:, k : k + chunk, None, :n]
            folded = part[0] * phase[:, :n] + part[1] * phase_conj[:, :n]
            folded = np.concatenate([folded.real, folded.imag], axis=1)
        acc += folded[k % chunk, :, :n] @ rows
    return acc[: len(phase)] + 1j * acc[len(phase) :]


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
    of the radial recurrence, or none on a default grid up to the cap, whose
    plan analyze has stored before it calls f.
    """
    return lambda y, phi: synthesize(block, (y, phi))


def rotate(block: CoefficientBlock, spec: RotationSpec) -> CoefficientBlock:
    """Apply a rotation to a block, one unitary per j-multiplet.

    Within each j the coefficients transform by the z-y-z rotation matrix
    in the ascending-m basis; different j never mix.
    """
    if not isinstance(spec, RotationSpec):
        raise DomainError(f"spec must be a RotationSpec, got {spec!r}")
    values = np.zeros_like(block._values)
    for two_j in _sector_ladder(block.sector, block.two_j_max):
        part = slice(_index(two_j, -two_j), _index(two_j, two_j) + 1)
        if np.any(block._values[part]):
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
