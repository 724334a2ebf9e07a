"""Cayley tables for the named finite group families.

Every table lives on {0..n-1} with the identity at index 0.  Permutation
groups index their elements in lexicographic order of the permutation
tuples, which puts the identity first automatically.  Direct products use
mixed-radix indexing with the first factor most significant.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import PreconditionError, table_dtype

__all__ = [
    "GroupSpec",
    "parse_group_spec",
    "group_table",
    "cyclic_table",
    "dihedral_table",
    "symmetric_table",
    "alternating_table",
    "direct_product_table",
]


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


def _perm_group_table(perms: list[tuple[int, ...]]) -> np.ndarray:
    index = {p: k for k, p in enumerate(perms)}
    size = len(perms)
    t = np.zeros((size, size), dtype=table_dtype(size))
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            t[a, b] = index[tuple(p[x] for x in q)]   # apply q, then p
    return t


def symmetric_table(n: int) -> np.ndarray:
    if not 1 <= n <= 5:
        raise PreconditionError("symmetric group supported for 1 <= n <= 5")
    return _perm_group_table(sorted(itertools.permutations(range(n))))


def _is_even(p: tuple[int, ...]) -> bool:
    inversions = sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])
    return inversions % 2 == 0


def alternating_table(n: int) -> np.ndarray:
    if not 1 <= n <= 5:
        raise PreconditionError("alternating group supported for 1 <= n <= 5")
    perms = sorted(p for p in itertools.permutations(range(n)) if _is_even(p))
    return _perm_group_table(perms)


def _pair_table(left: np.ndarray, right: np.ndarray, dt) -> np.ndarray:
    """The ``(n1*n2, n1*n2)`` table with entry [a1*n2 + a2, b1*n2 + b2]
    equal to left[a1, a2, b1] * n2 + right[a2, b2], in dtype ``dt``.

    ``left`` has shape ``(n1, n2, n1)``, or ``(n1, 1, n1)`` when it does
    not depend on a2; ``right`` is ``(n2, n2)``.  The sum is one broadcast
    add into a C-ordered ``(n1, n2, n1, n2)`` array, whose reshape labels
    the pair (a1, a2) as a1*n2 + a2.  The caller picks a ``dt`` that holds
    every entry.
    """
    n1, n2 = left.shape[0], right.shape[0]
    out = np.empty((n1, n2, n1, n2), dt)
    np.add((left.astype(dt) * n2)[..., None],
           right.astype(dt, copy=False)[None, :, None, :], out=out)
    return out.reshape(n1 * n2, n1 * n2)


def direct_product_table(*tables: np.ndarray) -> np.ndarray:
    """Cayley table of the direct product, first factor most significant.

    Each factor is one ``_pair_table`` step; every entry is below n1*n2,
    so ``table_dtype(n1*n2)`` holds each step.
    """
    if not tables:
        raise PreconditionError("direct product needs at least one factor")
    result = tables[0]
    for t in tables[1:]:
        result = _pair_table(result[:, None, :], t,
                             table_dtype(result.shape[0] * t.shape[0]))
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
