"""Automorphisms of groups and skew braces, and homomorphism enumeration.

``_homomorphisms`` is the one search: it tries each choice of images of the
closure generators, each image of an order dividing its generator's (at
most 2,000,000 choices, checked before any is tried), extends the choices
in blocks along the walk of ``core.closure_generators`` and keeps the maps
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
import math

import numpy as np

from .core import _BLOCK_ENTRIES, FiniteSkewBrace, PreconditionError, SizeCapExceeded, closure_generators
from .groups import _COMPOSITION_LIMIT, perm_composition
from .products import SigmaAction

__all__ = [
    "group_automorphisms",
    "skew_automorphisms",
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
    returns them in a fresh list.  A search that raises is not cached,
    and neither is a result too large for ``perm_composition`` to compose
    (``_automorphisms_of``).
    """
    return list(automorphism_array(table))


def automorphism_array(table: np.ndarray) -> np.ndarray:
    """``group_automorphisms`` as one read-only (count, order) array."""
    table = np.asarray(table)
    try:
        return _automorphisms_of(table.shape[0], table.dtype, table.tobytes())
    except _Uncomposable as exc:
        return exc.auts


class _Uncomposable(Exception):
    """Carries automorphisms out of ``_automorphisms_of`` past its cache."""

    def __init__(self, auts: np.ndarray):
        self.auts = auts


@functools.lru_cache(maxsize=128)
def _automorphisms_of(n: int, dtype: np.dtype, data: bytes) -> np.ndarray:
    """The bijective rows of ``_homomorphisms``: one bool scatter marks
    the labels each endomorphism hits.

    k automorphisms that ``perm_composition`` would refuse to compose
    (k * k * n entries above its limit) leave by ``_Uncomposable``, which
    the cache does not keep: the holomorph search composes every
    automorphism of its group, so it refuses such a group as soon as the
    search ends, and the result (86,016 permutations, 11 MB, for C4^3)
    does not stay for the life of the process.
    """
    table = np.frombuffer(data, dtype=dtype).reshape(n, n)
    endos = _homomorphisms(table, table)
    hit = np.zeros(endos.shape, dtype=bool)
    hit[np.arange(len(endos))[:, None], endos] = True
    auts = endos[hit.all(axis=1)].astype(dtype)
    auts.setflags(write=False)
    if len(auts) ** 2 * n > _COMPOSITION_LIMIT:
        raise _Uncomposable(auts)
    return auts


def skew_automorphisms(brace: FiniteSkewBrace) -> list[np.ndarray]:
    """All permutations preserving add and circ, identity first: the
    automorphisms of (A, +) (all fix 0) that respect circ on the circle
    generators the brace's builder gave (``circ_gens``), which suffices by
    the module lemma; one stacked gather."""
    circ, cg = brace.circ, np.array(brace.circ_gens, dtype=np.int64)
    P = automorphism_array(brace.add)                    # (k, n)
    keep = (P[:, circ[:, cg]] == circ[P[:, :, None], P[:, None, cg]]).all(axis=(1, 2))
    return list(P[keep])


def group_homomorphisms(table: np.ndarray, perms: list[np.ndarray],
                        budget: int | None = None) -> list[np.ndarray]:
    """All homomorphisms from the group given by ``table`` into the
    permutation group ``perms`` (assumed closed under composition, with
    the identity at index 0), each as an array of perm indices.

    Deterministic order: generator images ascend lexicographically.  At
    most ``budget`` maps are returned when a budget is given.
    """
    return list(_homomorphisms(table, perm_composition(perms), budget))


def _homomorphisms(table: np.ndarray, target: np.ndarray,
                   budget: int | None = None) -> np.ndarray:
    """``group_homomorphisms`` into the group whose Cayley table is
    ``target`` (identity 0), one int64 image row per map; a budget must
    be >= 1.

    A candidate is a choice of images of the closure generators.  Each
    block of candidates (one column each, about 2^20 gathered entries) is
    extended by one gather per step of ``closure_generators`` and kept
    where it respects every generator (the module lemma), by one more.

    Order pruning: a kept map phi has phi(0) = 0 and phi(x o g) = phi(x)
    o phi(g) for every x, so phi(x_j) = y_j for the left powers x_j =
    x_(j-1) o g and y_j = y_(j-1) o phi(g) from x_0 = y_0 = 0.  When x_d
    = 0 (d the order of g), y_d = phi(0) = 0: phi(g) is an h with h^d =
    0, i.e. of order dividing d.  So each generator's images range over
    those h only (``_image_lists``); the prune drops only candidates the
    check would drop.  The cap is on the product of the pruned list
    sizes, checked before any candidate is tried.

    The maps come out in lexicographic order.  Each image list ascends
    and ``_candidates`` counts through their product last generator
    fastest, so candidates ascend in their generator images.
    ``closure_generators`` is greedy, so every element below a generator
    g lies in the subgroup of the earlier generators; two maps whose
    generator images first differ at g agree below g, and their order is
    that of their images of g.  A budget keeps the first ``budget`` maps
    that pass.
    """
    if budget is not None and budget < 1:
        raise PreconditionError(f"homomorphism budget must be at least 1, got {budget}")
    table = np.asarray(table)
    m = table.shape[0]
    gens, steps = closure_generators(table)
    images = _image_lists(table, target, gens)
    total = math.prod(len(x) for x in images)
    if total > _HOM_SPACE_LIMIT:
        raise SizeCapExceeded(
            f"homomorphism search space {total} (order-pruned from "
            f"{target.shape[0]}^{len(gens)}) exceeds the limit {_HOM_SPACE_LIMIT}")

    cols = table[:, gens]
    block = max(1, _BLOCK_ENTRIES // (m * max(len(gens), 1)))
    found, count = [], 0
    for start in range(0, total, block):
        stop = min(start + block, total)
        phi = np.zeros((m, stop - start), dtype=np.int64)   # column j: candidate start + j
        phi[gens] = _candidates(images, start, stop)
        for y, x, g in steps:
            phi[y] = target[phi[x], phi[g]]
        ok = (phi[cols] == target[phi[:, None], phi[gens]]).all(axis=(0, 1))
        kept = phi[:, ok].T
        if budget is not None:
            kept = kept[:budget - count]
        found.append(kept)
        count += kept.shape[0]
        if count == budget:
            break
    return np.concatenate(found)


def _image_lists(table: np.ndarray, target: np.ndarray, gens: list[int]) -> list[np.ndarray]:
    """Per generator g of ``table``, the ascending labels h of ``target``
    with h^d = 0 (left powers from 0), d the least d >= 1 with g^d = 0;
    every label when g has no such d (``table`` is not a group)."""
    m, k = table.shape[0], target.shape[0]
    orders = []
    for g in gens:
        x, d = int(table[0, g]), 1
        while x != 0 and d < m:
            x, d = int(table[x, g]), d + 1
        orders.append(d if x == 0 else 0)
    labels = np.arange(k)
    power = np.zeros(k, dtype=np.intp)
    roots = {}
    for j in range(1, max(orders, default=0) + 1):
        power = target[power, labels]
        if j in orders:
            roots[j] = np.flatnonzero(power == 0)
    return [roots[d] if d else labels for d in orders]


def _candidates(images: list[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Candidates ``start`` to ``stop`` of the product of the image lists,
    last list fastest: row i holds the images of generator i."""
    digits = np.unravel_index(np.arange(start, stop), [len(x) for x in images]) if images else ()
    return np.array([x[d] for x, d in zip(images, digits)]).reshape(len(images), stop - start)


def sigma_actions(G: FiniteSkewBrace, H: FiniteSkewBrace,
                  budget: int | None = None) -> list[SigmaAction]:
    """All actions of (H, o) on G by skew brace automorphisms, i.e. the
    homomorphisms from the circle group of H into the automorphisms of G,
    in a fixed order, truncated at ``budget``.  Each is an action by
    construction (``products.SIGMA_RULES``): every row is a skew
    automorphism, row 0 (the image of 0) is the identity, listed first,
    and the generator check of ``_homomorphisms`` makes h -> row a
    homomorphism (the module lemma)."""
    auts = np.ascontiguousarray(skew_automorphisms(G))
    homs = _homomorphisms(H.circ, perm_composition(auts), budget)
    return [SigmaAction(G, H, perms) for perms in auts[homs]]
