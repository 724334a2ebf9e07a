"""Automorphisms of groups and skew braces, and homomorphism enumeration.

``_homomorphisms`` is the one search: it tries each choice of images of the
closure generators (at most 2,000,000 choices, checked before any is tried),
extends it along the walk of ``core.closure_generators`` and keeps the maps
that respect each generator.  Group automorphisms are its bijective
endomorphisms; skew brace automorphisms are the additive ones that also
respect circ on the circle generators.

Lemma: a map phi of finite groups with phi(0) = 0 and phi(x o g) =
phi(x) o phi(g) for all x and generators g is a homomorphism.  The y with
phi(x o y) = phi(x) o phi(y) for all x include 0 and, with y, y o g
(phi(x o y o g) = phi(x) o phi(y) o phi(g) = phi(x) o phi(y o g)), so
they are the whole group.
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
    """All permutations preserving add and circ, identity first: the
    automorphisms of (A, +) (all fix 0) that respect circ on the circle
    generators, which suffices by the module lemma; one stacked gather."""
    circ = brace.circ
    auts = group_automorphisms(brace.add)
    cg = closure_generators(circ)[0]
    P = np.stack(auts)                                   # (k, n)
    keep = (P[:, circ[:, cg]] == circ[P[:, :, None], P[:, None, cg]]).all(axis=(1, 2))
    return [p for p, ok in zip(auts, keep) if ok]


def perm_composition(perms: list[np.ndarray]) -> np.ndarray:
    """Composition table of a closed set of permutations:
    entry [i, j] = index of perms[i] after perms[j].  Each row is read as
    one opaque key; the composed keys are looked up by one sort and one
    ``searchsorted``.  Raises PreconditionError when the set is not closed."""
    stacked = np.stack(perms)
    k, n = stacked.shape
    row = np.dtype((np.void, n * stacked.itemsize))
    keys = stacked.view(row).ravel()
    composed = stacked[:, stacked].reshape(k * k, n).view(row).ravel()   # row i*k + j is p_i[p_j]
    order = np.argsort(keys)
    index = order[np.minimum(np.searchsorted(keys[order], composed), k - 1)]
    if not np.array_equal(keys[index], composed):
        raise PreconditionError("permutations are not closed under composition")
    return index.reshape(k, k)


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

    Each candidate is extended along the steps of ``closure_generators``
    and kept when it respects every generator (the module lemma).  The
    maps come out in lexicographic order.  ``closure_generators`` is
    greedy, so every element below a generator g lies in the subgroup of
    the earlier generators; two maps whose generator images first differ
    at g agree below g, and their order is that of their images of g.
    """
    if budget is not None and budget < 1:
        raise PreconditionError(f"homomorphism budget must be at least 1, got {budget}")
    table = np.asarray(table)
    m = table.shape[0]
    k = target.shape[0]
    gens, steps = closure_generators(table)
    if gens and k ** len(gens) > _HOM_SPACE_LIMIT:
        raise SizeCapExceeded(
            f"homomorphism search space {k}^{len(gens)} exceeds the limit")

    rows = target.tolist()
    out = []
    for images in itertools.product(range(k), repeat=len(gens)):
        images_of = [0] * m
        for g, image in zip(gens, images):
            images_of[g] = image
        for y, x, g in steps:
            images_of[y] = rows[images_of[x]][images_of[g]]
        phi = np.array(images_of, dtype=np.int64)
        if np.array_equal(phi[table[:, gens]], target[phi[:, None], phi[gens]]):
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
