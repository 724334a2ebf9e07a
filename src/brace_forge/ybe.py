"""Set-theoretic Yang-Baxter solutions extracted from skew braces.

Every skew brace yields the map r(a, b) = (lam_a(b), lam_a(b)' o a o b)
with ' the circle inverse.  The pair multiplies back to a o b in the
circle group, which is asserted at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (FiniteSkewBrace, PreconditionError, _check_index, _first_violation,
                   _label_table, _row_blocks)

__all__ = ["SolutionMap", "solution_map", "check_braid", "check_nondegenerate"]


@dataclass(frozen=True)
class SolutionMap:
    """r(a, b) = (u[a, b], v[a, b]) on {0..n-1}.  Entries and labels that
    are not integers in 0..n-1 raise ``PreconditionError``."""
    n: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u)
        v = np.asarray(self.v)
        if u.shape != (self.n, self.n) or v.shape != (self.n, self.n):
            raise PreconditionError("component tables must be n x n")
        object.__setattr__(self, "u", _label_table(u, self.n, "component table"))
        object.__setattr__(self, "v", _label_table(v, self.n, "component table"))

    def apply(self, a: int, b: int) -> tuple[int, int]:
        a, b = _check_index(self.n, a, "a"), _check_index(self.n, b, "b")
        return int(self.u[a, b]), int(self.v[a, b])


def solution_map(brace: FiniteSkewBrace) -> SolutionMap:
    u, circ = brace.lam, np.asarray(brace.circ)
    v = circ[brace.inv[u], circ]
    assert np.array_equal(circ[u, v], circ), \
        "solution components must multiply back to a o b"
    return SolutionMap(brace.order, u, v)


def check_braid(sol: SolutionMap) -> tuple[bool, tuple[int, int, int] | None]:
    """Braid relation (r x id)(id x r)(r x id) = (id x r)(r x id)(id x r)
    on all triples; returns the lexicographically first failing triple.

    Both sides are gathered for every (b, c) of a block of rows a
    (``core._row_blocks``), each side's three components as one int64
    code (x n + y) n + z, which two sides share exactly when all three
    components agree; ``core._first_violation`` gives the first triple
    where the codes differ.  Time is O(n^3); memory is that of one block,
    about 2^20 triples and at least n^2."""
    u, v, n = sol.u, sol.v, sol.n
    b, c = np.arange(n)[:, None], np.arange(n)

    def code(x, y, z):                        # up to n^3 - 1: int64 before int16 overflows
        return (x.astype(np.int64) * n + y) * n + z

    b3, c3 = u[b, c], v[b, c]                 # right: r23 on (b, c)
    for r0, r1 in _row_blocks(n):
        a = np.arange(r0, r1)[:, None, None]
        a1, b1 = u[a, b], v[a, b]             # left: r12, r23, r12
        b2, c2 = u[b1, c], v[b1, c]
        left = code(u[a1, b2], v[a1, b2], c2)
        a4, b4 = u[a, b3], v[a, b3]           # right: r12, then r23 on (b4, c3)
        witness = _first_violation(left, code(a4, u[b4, c3], v[b4, c3]), r0)
        if witness is not None:
            return False, witness
    return True, None


def check_nondegenerate(sol: SolutionMap) -> tuple[bool, tuple[str, int] | None]:
    """Left nondegeneracy: every row of u is a permutation.  Right:
    every column of v is one.  Returns the first failing line, from one
    sort of each table."""
    ident = np.arange(sol.n)
    rows = np.flatnonzero((np.sort(sol.u, axis=1) != ident).any(axis=1))
    if rows.size:
        return False, ("row", int(rows[0]))
    cols = np.flatnonzero((np.sort(sol.v, axis=0) != ident[:, None]).any(axis=0))
    if cols.size:
        return False, ("col", int(cols[0]))
    return True, None
