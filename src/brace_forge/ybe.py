"""Set-theoretic Yang-Baxter solutions extracted from skew braces.

Every skew brace yields the map r(a, b) = (lam_a(b), lam_a(b)' o a o b)
with ' the circle inverse.  The pair multiplies back to a o b in the
circle group, which is asserted at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteSkewBrace, PreconditionError

__all__ = ["SolutionMap", "solution_map", "check_braid", "check_nondegenerate"]


@dataclass(frozen=True)
class SolutionMap:
    """r(a, b) = (u[a, b], v[a, b]) on {0..n-1}."""
    n: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u)
        v = np.asarray(self.v)
        if u.shape != (self.n, self.n) or v.shape != (self.n, self.n):
            raise PreconditionError("component tables must be n x n")
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def apply(self, a: int, b: int) -> tuple[int, int]:
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
    Time and memory are O(n^3) and O(n^2)."""
    u, v, n = sol.u, sol.v, sol.n
    b = np.arange(n)[:, None]
    c = np.arange(n)[None, :]
    bb = np.broadcast_to(b, (n, n))
    cc = np.broadcast_to(c, (n, n))
    for a in range(n):
        # left: r12, r23, r12
        a1 = u[a, bb]
        b1 = v[a, bb]
        b2 = u[b1, cc]
        c2 = v[b1, cc]
        la = u[a1, b2]
        lb = v[a1, b2]
        lc = c2
        # right: r23, r12, r23
        b3 = u[bb, cc]
        c3 = v[bb, cc]
        a4 = u[a, b3]
        b4 = v[a, b3]
        ra = a4
        rb = u[b4, c3]
        rc = v[b4, c3]
        diff = (la != ra) | (lb != rb) | (lc != rc)
        if diff.any():
            i, j = np.argwhere(diff)[0]
            return False, (a, int(i), int(j))
    return True, None


def check_nondegenerate(sol: SolutionMap) -> tuple[bool, tuple[str, int] | None]:
    """Left nondegeneracy: every row of u is a permutation.  Right:
    every column of v is one.  Returns the first failing line."""
    ident = np.arange(sol.n)
    for a in range(sol.n):
        if not np.array_equal(np.sort(sol.u[a]), ident):
            return False, ("row", a)
    for b in range(sol.n):
        if not np.array_equal(np.sort(sol.v[:, b]), ident):
            return False, ("col", b)
    return True, None
