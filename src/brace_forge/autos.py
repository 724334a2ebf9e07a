"""Automorphisms of groups and skew braces, and homomorphism enumeration.

``_homomorphisms`` is the one search: it tries each choice of images of the
closure generators (at most 2,000,000 choices, checked before any is tried),
extends it along a BFS expression of every element and keeps the maps that
respect both tables.  Group automorphisms are its bijective endomorphisms;
skew brace automorphisms are the additive ones that also preserve circ.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .core import FiniteSkewBrace, PreconditionError, SizeCapExceeded, closure_generators
from .products import SigmaAction

__all__ = [
    "group_automorphisms",
    "skew_automorphisms",
    "perm_composition",
    "group_homomorphisms",
    "sigma_actions",
]

_HOM_SPACE_LIMIT = 2_000_000


def group_automorphisms(table: np.ndarray) -> list[np.ndarray]:
    """All automorphisms of a group table: the endomorphisms that hit
    every element, as read-only permutation arrays of the table's dtype
    in lexicographic order (identity first).

    The search runs once per distinct table per process: results are
    cached on the table's exact order, dtype and bytes, and each call
    returns them in a fresh list.  A search that raises is not cached.
    """
    return list(_automorphisms_of(table.shape[0], table.dtype, table.tobytes()))


@functools.lru_cache(maxsize=128)
def _automorphisms_of(n: int, dtype: np.dtype, data: bytes) -> tuple[np.ndarray, ...]:
    table = np.frombuffer(data, dtype=dtype).reshape(n, n)
    auts = tuple(phi.astype(dtype) for phi in _homomorphisms(table, table)
                 if np.unique(phi).size == n)
    for phi in auts:
        phi.setflags(write=False)
    return auts


def skew_automorphisms(brace: FiniteSkewBrace) -> list[np.ndarray]:
    """All permutations preserving add and circ, identity first."""
    circ = brace.circ
    return [p for p in group_automorphisms(brace.add)
            if np.array_equal(p[circ], circ[np.ix_(p, p)])]


def perm_composition(perms: list[np.ndarray]) -> np.ndarray:
    """Composition table of a closed set of permutations:
    entry [i, j] = index of perms[i] after perms[j]."""
    stacked = np.stack(perms)
    index = {p.tobytes(): i for i, p in enumerate(stacked)}
    k, n = stacked.shape
    composed = stacked[:, stacked].reshape(k * k, n)   # row i*k + j is p_i[p_j]
    return np.array([index[c.tobytes()] for c in composed], dtype=np.int64).reshape(k, k)


def group_homomorphisms(table: np.ndarray, perms: list[np.ndarray],
                        budget: int | None = None) -> list[np.ndarray]:
    """All homomorphisms from the group given by ``table`` into the
    permutation group ``perms`` (assumed closed under composition, with
    the identity at index 0), each as an array of perm indices.

    Deterministic order: generator images ascend lexicographically.  At
    most ``budget`` maps are returned when a budget is given.
    """
    return _homomorphisms(table, perm_composition(perms), budget)


def _homomorphisms(table: np.ndarray, target: np.ndarray,
                   budget: int | None = None) -> list[np.ndarray]:
    """``group_homomorphisms`` into the group whose Cayley table is
    ``target`` (identity 0), as int64 image arrays; a budget must be >= 1.

    The maps come out in lexicographic order.  ``closure_generators`` is
    greedy, so every element below a generator g lies in the subgroup of
    the earlier generators; two maps whose generator images first differ
    at g agree below g, and their order is that of their images of g.
    """
    if budget is not None and budget < 1:
        raise PreconditionError(f"homomorphism budget must be at least 1, got {budget}")
    m = table.shape[0]
    k = target.shape[0]
    gens = closure_generators(np.asarray(table))
    if gens and k ** len(gens) > _HOM_SPACE_LIMIT:
        raise SizeCapExceeded(
            f"homomorphism search space {k}^{len(gens)} exceeds the limit")

    # express every element as earlier-element o generator
    expr: list[tuple[int, int] | None] = [None] * m
    order_reached = [0]
    reached = {0}
    i = 0
    while i < len(order_reached):
        x = order_reached[i]
        i += 1
        for g in gens:
            y = int(table[x, g])
            if y not in reached:
                reached.add(y)
                expr[y] = (x, g)
                order_reached.append(y)
    assert len(reached) == m, "generators must reach every element"

    # every generator is reached directly from 0, so expr[g] = (0, g) and
    # propagation below never clobbers an assigned generator image
    out = []
    table = np.asarray(table)
    for images in itertools.product(range(k), repeat=len(gens)):
        phi = np.zeros(m, dtype=np.int64)
        for g, im in zip(gens, images):
            phi[g] = im
        for x in order_reached[1:]:
            parent, g = expr[x]
            phi[x] = target[phi[parent], phi[g]]
        if np.array_equal(target[phi[:, None], phi[None, :]], phi[table]):
            out.append(phi)
            if budget is not None and len(out) >= budget:
                break
    return out


def sigma_actions(G: FiniteSkewBrace, H: FiniteSkewBrace,
                  budget: int | None = None) -> list[SigmaAction]:
    """All actions of (H, o) on G by skew brace automorphisms, i.e. the
    homomorphisms from the circle group of H into the automorphisms of G,
    in a fixed order, truncated at ``budget``."""
    auts = skew_automorphisms(G)
    aut_array = np.stack(auts)
    homs = group_homomorphisms(H.circ, auts, budget)
    return [SigmaAction(G, H, aut_array[phi]) for phi in homs]
