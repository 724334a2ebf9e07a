"""Cayley tables for the named finite group families.

Every table lives on {0..n-1} with the identity at index 0.  Permutation
groups index their elements in lexicographic order of the permutation
tuples, which puts the identity first automatically, and their tables are
the ``perm_composition`` of those tuples.  Direct products use
mixed-radix indexing with the first factor most significant; the same
pair formula, read lazily, is ``PairTable``, the table of a large product.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import PreconditionError, SizeCapExceeded, table_dtype

__all__ = [
    "GroupSpec",
    "parse_group_spec",
    "group_table",
    "cyclic_table",
    "dihedral_table",
    "symmetric_table",
    "alternating_table",
    "perm_composition",
    "direct_product_table",
    "PairTable",
]

_COMPOSITION_LIMIT = 1 << 24   # sweeps compose at most 864,000 entries (A5at: 120 x 120 x 60)


def cyclic_table(n: int) -> np.ndarray:
    if n < 1:
        raise PreconditionError("cyclic group needs n >= 1")
    a = np.arange(n)
    return ((a[:, None] + a[None, :]) % n).astype(table_dtype(n))


def dihedral_table(n: int) -> np.ndarray:
    """Dihedral group of order 2n: element i + n*j is r^i s^j."""
    if n < 1:
        raise PreconditionError("dihedral group needs n >= 1")
    size = 2 * n
    t = np.zeros((size, size), dtype=table_dtype(size))
    for i1, j1, i2, j2 in itertools.product(range(n), (0, 1), range(n), (0, 1)):
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        t[i1 + n * j1, i2 + n * j2] = i + n * ((j1 + j2) % 2)
    return t


def perm_composition(perms: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Composition table of a closed set of permutations, given as a list
    or as the rows of one array: entry [i, j] = index of perms[i] after
    perms[j].  Each row is read as one opaque key; the composed keys are
    looked up by one sort and one ``searchsorted``.  Raises
    PreconditionError when the set is not closed, and SizeCapExceeded
    before any gather when the k*k*n composed entries pass the limit."""
    stacked = np.ascontiguousarray(perms)
    k, n = stacked.shape
    if k * k * n > _COMPOSITION_LIMIT:
        raise SizeCapExceeded(f"composing {k} permutations of {n} points needs "
                              f"{k * k * n} entries, above the limit {_COMPOSITION_LIMIT}")
    row = np.dtype((np.void, n * stacked.itemsize))
    keys = stacked.view(row).ravel()
    composed = stacked[:, stacked].reshape(k * k, n).view(row).ravel()   # row i*k + j is p_i[p_j]
    order = np.argsort(keys)
    index = order[np.minimum(np.searchsorted(keys[order], composed), k - 1)]
    if not np.array_equal(keys[index], composed):
        raise PreconditionError("permutations are not closed under composition")
    return index.reshape(k, k)


def symmetric_table(n: int) -> np.ndarray:
    if not 1 <= n <= 5:
        raise PreconditionError("symmetric group supported for 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    return perm_composition(perms).astype(table_dtype(len(perms)))


def _is_even(p: tuple[int, ...]) -> bool:
    inversions = sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])
    return inversions % 2 == 0


def alternating_table(n: int) -> np.ndarray:
    if not 1 <= n <= 5:
        raise PreconditionError("alternating group supported for 1 <= n <= 5")
    perms = sorted(p for p in itertools.permutations(range(n)) if _is_even(p))
    return perm_composition(perms).astype(table_dtype(len(perms)))


def _pair_table(left, right, dt) -> np.ndarray:
    """The ``(n1*n2, n1*n2)`` table with entry [a1*n2 + a2, b1*n2 + b2]
    equal to left[a1, a2, b1] * n2 + right[a2, b2], in dtype ``dt``.

    ``left`` has shape ``(n1, n2, n1)``, or is ``(n1, n1)``, read as
    left[a1, b1], when it does not depend on a2; ``right`` is ``(n2, n2)``.
    Each is an array or a ``PairTable``.  The sum is one broadcast add into
    a C-ordered ``(n1, n2, n1, n2)`` array, whose reshape labels the pair
    (a1, a2) as a1*n2 + a2.  The caller picks a ``dt`` that holds every entry.
    Stacks of B factors, brace b's rows of left and right from b*n1 and
    b*n2, give the B tables as one ``(B*n1*n2, n1*n2)`` stack.
    """
    n1, n2, B = left.shape[-1], right.shape[1], right.shape[0] // right.shape[1]
    out = np.empty((B, n1, n2, n1, n2), dt)
    np.add((np.asarray(left, dt) * n2).reshape(B, n1, -1, n1, 1),
           np.asarray(right, dt).reshape(B, 1, n2, 1, n2), out=out)
    return out.reshape(B * n1 * n2, n1 * n2)


class PairTable:
    """The table ``_pair_table(left, right, dt)``, read-only and never
    stored: each read computes the entries it gathers.

    ``t[x, y]`` splits each label into its pair, x = a1*n2 + a2 and
    y = b1*n2 + b2 (``divmod(x, n2)``), and returns
    left[a1, a2, b1] * n2 + right[a2, b2] (left[a1, b1] for a 2-D left) in
    dtype ``dt``, entry [x, y] of ``_pair_table``.  Left and right are kept
    as given, so a ``PairTable`` factor stays lazy.  A negative label
    splits into a1 < 0, so it wraps as a dense index does, and a label
    past the end hits an ``IndexError``.

    On a stack (``_pair_table``), row x of brace b = x // (n1*n2) splits
    into a1, which counts b's rows of left, and a2, whose row of right is
    b*n2 + a2; a stack of one is the square table.

    The index forms are the ones the kernels use: a pair of ints;
    ``t[rows]``; ``t[a0:a1]``; ``t[:, S]``; ``t[S, :]``; ``t[:, g]``; and
    integer arrays that broadcast, ``np.ix_`` and ``[:, None]`` included.
    Each has numpy's result shape.  Any other form raises ``TypeError``.
    ``np.asarray(t)`` builds the dense table, for readers of the whole of it.
    """

    __slots__ = ("_left", "_right", "dtype", "shape")
    ndim = 2

    def __init__(self, left, right, dt):
        self._left, self._right, self.dtype = left, right, np.dtype(dt)
        self.shape = (left.shape[0] * right.shape[1], left.shape[-1] * right.shape[1])

    def __array__(self, dtype=None, copy=None):
        table = _pair_table(self._left, self._right, self.dtype)
        return table if dtype is None else table.astype(dtype, copy=False)

    def _labels(self, index, size: int) -> tuple[np.ndarray, bool]:
        """The labels ``index`` selects on an axis of ``size``, and whether it is a slice."""
        if isinstance(index, slice):
            return np.arange(*index.indices(size)), True
        if isinstance(index, (int, np.integer)) and not isinstance(index, bool):
            return np.asarray(index), False
        if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
            return index, False
        raise TypeError(f"PairTable cannot be indexed by {type(index).__name__}")

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            key = (key, slice(None))
        if len(key) != 2:
            raise TypeError("PairTable takes one or two indices")
        (x, x_slice), (y, y_slice) = map(self._labels, key, self.shape)
        if x_slice:                          # a slice's axis comes first
            x = x.reshape(x.shape + (1,) * y.ndim)
        elif y_slice:                        # and last after an array
            x = x[..., None]
        n2 = self._right.shape[1]
        (a1, a2), (b1, b2) = np.divmod(x, n2), np.divmod(y, n2)
        left = self._left[a1, b1] if self._left.ndim == 2 else self._left[a1, a2, b1]
        if self.shape[0] > self.shape[1]:    # a stack: brace x // (n1*n2) reads its right rows
            a2 = a2 + x // self.shape[1] * n2
        out = np.asarray(left).astype(self.dtype, copy=False)   # a fresh array
        out *= n2
        out += self._right[a2, b2]
        return out[()] if out.ndim == 0 else out


def direct_product_table(*tables: np.ndarray) -> np.ndarray:
    """Cayley table of the direct product, first factor most significant.

    Each factor is one ``_pair_table`` step; every entry is below n1*n2,
    so ``table_dtype(n1*n2)`` holds each step.
    """
    if not tables:
        raise PreconditionError("direct product needs at least one factor")
    result = tables[0]
    for t in tables[1:]:
        result = _pair_table(result, t, table_dtype(result.shape[0] * t.shape[0]))
    return result


_FAMILY_BUILDERS = {"c": cyclic_table, "d": dihedral_table, "s": symmetric_table,
                    "a": alternating_table}

_FAMILY_ORDERS = {"c": lambda n: n, "d": lambda n: 2 * n, "s": math.factorial,
                  "a": lambda n: max(1, math.factorial(n) // 2)}

_CANONICAL = {"cyclic": "c", "dihedral": "d", "sym": "s", "symmetric": "s",
              "alt": "a", "alternating": "a"}

_TOKEN_RE = re.compile(r"^([a-z]+)(\d+)$")


@dataclass(frozen=True)
class GroupSpec:
    """A named group: product of family tokens, e.g. c4, s3, c2xc2xc2."""

    factors: tuple[tuple[str, int], ...]

    @property
    def canonical(self) -> str:
        return "x".join(f"{fam}{n}" for fam, n in self.factors)

    @property
    def order(self) -> int:
        return math.prod(_FAMILY_ORDERS[fam](n) for fam, n in self.factors)

    def __str__(self):
        return self.canonical


def parse_group_spec(text: str) -> GroupSpec:
    """Parse strings like "c4", "s3", "c2xc4", "cyclic6", "a5".  s<n> and a<n>
    need 1 <= n <= 5, the degrees the builders support."""
    raw = text.strip().lower().replace(" ", "")
    if not raw:
        raise PreconditionError("empty group spec")
    factors = []
    for token in raw.split("x"):
        m = _TOKEN_RE.match(token)
        fam = _CANONICAL.get(m.group(1), m.group(1)) if m else None
        if fam not in _FAMILY_BUILDERS:
            raise PreconditionError(
                f"bad group spec token {token!r}; use c<n>, d<n>, s<n>, a<n> joined by 'x'")
        n = int(m.group(2))
        if fam in ("s", "a") and not 1 <= n <= 5:
            raise PreconditionError(
                f"bad group spec token {token!r}; s<n> and a<n> need 1 <= n <= 5")
        factors.append((fam, n))
    return GroupSpec(tuple(factors))


def group_table(spec) -> np.ndarray:
    """Cayley table for a GroupSpec or spec string."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if isinstance(spec, np.ndarray):
        return spec
    tables = [_FAMILY_BUILDERS[fam](n) for fam, n in spec.factors]
    return direct_product_table(*tables)
