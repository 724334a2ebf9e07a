"""Automorphisms of groups and skew braces, and homomorphism enumeration.

Group automorphisms are found by brute force over the (n-1)! permutations
that fix the identity 0, so orders above ``AUTOMORPHISM_MAX_ORDER`` (9)
raise ``SizeCapExceeded``.  A skew brace automorphism is an automorphism
of the additive group that also preserves circ, so ``skew_automorphisms``
filters ``group_automorphisms(add)`` and keeps its lexicographic order.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import FiniteSkewBrace, SizeCapExceeded, closure_generators
from .products import SigmaAction

__all__ = [
    "group_automorphisms",
    "skew_automorphisms",
    "perm_composition",
    "group_homomorphisms",
    "sigma_actions",
    "AUTOMORPHISM_MAX_ORDER",
]

AUTOMORPHISM_MAX_ORDER = 9
_HOM_SPACE_LIMIT = 2_000_000


def group_automorphisms(table: np.ndarray) -> list[np.ndarray]:
    """All automorphisms of a group table, as permutation arrays sorted
    lexicographically (identity first).  Brute force over identity-fixing
    permutations, capped at ``AUTOMORPHISM_MAX_ORDER``."""
    n = table.shape[0]
    if n > AUTOMORPHISM_MAX_ORDER:
        raise SizeCapExceeded(
            f"automorphism brute force capped at order {AUTOMORPHISM_MAX_ORDER}, got {n}")
    out = []
    for rest in itertools.permutations(range(1, n)):
        p = np.array((0,) + rest, dtype=table.dtype)
        if np.array_equal(p[table], table[np.ix_(p, p)]):
            out.append(p)
    return out


def skew_automorphisms(brace: FiniteSkewBrace) -> list[np.ndarray]:
    """All permutations preserving add and circ, identity first."""
    circ = brace.circ
    return [p for p in group_automorphisms(brace.add)
            if np.array_equal(p[circ], circ[np.ix_(p, p)])]


def perm_composition(perms: list[np.ndarray]) -> np.ndarray:
    """Composition table of a closed set of permutations:
    entry [i, j] = index of perms[i] after perms[j]."""
    index = {p.tobytes(): i for i, p in enumerate(perms)}
    k = len(perms)
    comp = np.zeros((k, k), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp[i, j] = index[p[q].astype(p.dtype).tobytes()]
    return comp


def group_homomorphisms(table: np.ndarray, perms: list[np.ndarray],
                        budget: int | None = None) -> list[np.ndarray]:
    """All homomorphisms from the group given by ``table`` into the
    permutation group ``perms`` (assumed closed under composition, with
    the identity at index 0), each as an array of perm indices.

    Deterministic order: generator images ascend lexicographically.  At
    most ``budget`` maps are returned when a budget is given.
    """
    m = table.shape[0]
    k = len(perms)
    comp = perm_composition(perms)
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
            phi[x] = comp[phi[parent], phi[g]]
        if np.array_equal(comp[phi[:, None], phi[None, :]], phi[table]):
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
