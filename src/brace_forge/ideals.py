"""Ideals, quotients, and semiprimality of finite skew braces.

An ideal is a subgroup of the circle group that is normal under circle
conjugation, invariant under every lambda_a, and commutes with every
element additively (a + I = I + a as sets).  Those four conditions force
additive closure and normality, which downstream code relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    FiniteSkewBrace,
    PreconditionError,
    SizeCapExceeded,
    _row_blocks,
    brace_from_tables,
    closure_generators,
    fmt_members,
    frontier_closure,
    lam_block,
    normalize_members,
    seeded_closure,
    sorted_unique,
    star_block,
    star_product,
)

__all__ = [
    "Ideal",
    "SemiprimeVerdict",
    "ExtensionReport",
    "is_ideal",
    "as_ideal",
    "ideal_closure",
    "ideal_masks",
    "enumerate_ideals",
    "quotient",
    "restrict",
    "is_trivial",
    "is_semiprime",
    "check_semiprime_extension",
    "DEFAULT_IDEAL_CAP",
]

DEFAULT_IDEAL_CAP = 128

IDEAL_RULES = ("circ-subgroup", "circ-normality", "lambda-invariance", "coset-symmetry")


@dataclass(frozen=True)
class Ideal:
    """A verified ideal: the parent brace and its member set."""

    brace: FiniteSkewBrace
    members: frozenset[int]

    def __len__(self):
        return len(self.members)

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __repr__(self):
        return f"Ideal({fmt_members(self.members)} of order-{self.brace.order} brace)"


def is_ideal(brace: FiniteSkewBrace, members: Iterable[int]) -> tuple[bool, str | None]:
    """Decide whether ``members`` is an ideal; returns (flag, first failed rule).

    Rules are checked in the fixed order circ-subgroup, circ-normality,
    lambda-invariance, coset-symmetry.
    """
    n = brace.order
    S = normalize_members(n, members)
    mask = np.zeros(n, dtype=bool)
    mask[S] = True
    if not S.size or not mask[0]:
        return False, "circ-subgroup"
    if not (mask[brace.circ[S[:, None], S]].all() and mask[brace.inv[S]].all()):
        return False, "circ-subgroup"
    conj = brace.circ[brace.circ[:, S], brace.inv[:, None]]
    if not mask[conj].all():
        return False, "circ-normality"
    if not mask[lam_block(brace, np.arange(n), S)].all():
        return False, "lambda-invariance"
    left = np.sort(brace.add[:, S], axis=1)       # row a: a + I
    right = np.sort(brace.add[S, :].T, axis=1)    # row a: I + a
    if not np.array_equal(left, right):
        return False, "coset-symmetry"
    return True, None


def as_ideal(brace: FiniteSkewBrace, members: Iterable[int]) -> Ideal:
    """Wrap a member set as an Ideal after verifying it; raises otherwise."""
    S = frozenset(int(m) for m in members)
    ok, rule = is_ideal(brace, S)
    if not ok:
        raise PreconditionError(f"{fmt_members(S)} is not an ideal (fails {rule})")
    return Ideal(brace, S)


def _orbit_maps(brace: FiniteSkewBrace) -> np.ndarray:
    """The element maps of ``_ideal_families`` and
    ``_orbit_representatives`` as one stacked (k, n) table, row i the map
    a -> maps[i, a]: a -> a', and for each generator g the maps lambda_g
    and a -> g o a o g' (g a greedy generator of (A, o),
    ``closure_generators``) and a -> g + a - g (g a greedy generator of
    (A, +)).

    A set closed under these maps is closed under lambda_x,
    a -> x o a o x' and a -> x + a - x for every x.  lambda_{x o y} =
    lambda_x lambda_y, and conjugation by x is a homomorphism from
    (A, o), resp. from (A, +), to the permutations of A.  So the maps that
    leave the set closed form a monoid, and it holds the maps of the
    generators.  Every map is a permutation of a finite set, so that
    monoid holds the group they generate: the maps of every x.  Closures,
    and so orbits, principal ideals, ideal lists and their order, and
    witnesses are those of the maps by every x.
    """
    add, circ, neg, inv = brace.add, brace.circ, brace.neg, brace.inv
    cg = np.array(closure_generators(circ)[0], dtype=np.int64)
    ag = np.array(closure_generators(add)[0], dtype=np.int64)
    return np.concatenate([
        inv[None, :],
        lam_block(brace, cg, np.arange(brace.order)),   # lambda_g
        circ[circ[cg], inv[cg][:, None]],         # g o a o g^-1
        add[add[ag], neg[ag][:, None]],           # g + a - g
    ])


def _ideal_families(brace: FiniteSkewBrace, maps: np.ndarray):
    """Candidate generators of the least ideal for ``frontier_closure``:
    circle products with the members, and the images under ``maps``, the
    table of ``_orbit_maps(brace)``."""
    circ = brace.circ

    def families(F, M):
        return [circ[F[:, None], M].ravel(), circ[M[:, None], F].ravel(),
                maps[:, F].ravel()]

    return families


def ideal_closure(brace: FiniteSkewBrace, seed: Iterable[int]) -> Ideal:
    """Least ideal containing ``seed``: fixed point under circle products
    and inverses and the maps of ``_orbit_maps`` (lambda_g, circle and
    additive conjugation by greedy generators g; closed under those, it is
    closed under lambda_x and both conjugations by every element x)."""
    families = _ideal_families(brace, _orbit_maps(brace))
    return Ideal(brace, seeded_closure(brace.order, seed, families))


def ideal_masks(brace: FiniteSkewBrace) -> np.ndarray:
    """All ideals as a read-only (k, n) bool matrix, row i the member mask
    of the i-th ideal, ascending by size then lexicographic membership.

    One pass over ``_orbit_representatives``, starting from {0}: the
    principal ideal P_t of the t-th representative (row t of
    ``_principal_masks``) is summed with every ideal found so far.  After
    P_1..P_t the list holds every sum of a subset of them, since a sum
    that uses P_t is S + P_t for an earlier sum S (and S + P_t = S when S
    holds the representative).  That is every ideal: each ideal is the sum
    of the principal ideals of its members, and every nonzero label has
    its orbit representative's principal ideal (the argument is in
    ``_principal_star_scan``).

    The join of ideals I and J is the sum I + J = {i + j}, one table gather
    (Guarnieri and Vendramin, "Skew braces and the Yang-Baxter equation",
    Math. Comp. 86 (2017)):

    - I + J is an ideal.  The quotient map p: A -> A/I is an onto skew
      brace morphism, so p(J) is an ideal of A/I, and its preimage
      J + I = I + J (I is additively normal) is an ideal of A.
    - It contains I and J, since both contain 0.
    - Every ideal K that contains I and J is an additive subgroup, so it
      contains I + J.

    So I + J is the least ideal containing I and J, the same set as
    ``ideal_closure(I | J)``.

    The sums with P_t are made at once.  The masks found so far that miss
    the representative are the rows of B (an ideal that holds it holds P_t
    and is its own sum).  Row r of the scatter of add[j, P_t] over each
    nonzero B[r, j] is I_r + P_t.  A bool mask of n <= 128 bytes is its
    own key.  One ``np.lexsort`` (last key first) orders the rows by size,
    then by the ~mask columns: of two sets of one size, the one holding
    the first label where they differ has the smaller sorted tuple.

    The principal ideals are closed in one batch, since all of them are
    summed.  The fast scan (``_principal_star_scan``) closes one
    representative at a time instead, on purpose: it stops at its first
    witness, often the first representative, and a batched scan that
    closes them all ran slower over the q34 products.
    """
    n = brace.order
    if n > DEFAULT_IDEAL_CAP:
        raise SizeCapExceeded(f"order {n} exceeds the ideal enumeration cap {DEFAULT_IDEAL_CAP}")
    zero = np.zeros(n, dtype=bool)
    zero[0] = True
    known: dict[bytes, np.ndarray] = {zero.tobytes(): zero}
    maps = _orbit_maps(brace)
    reps = _orbit_representatives(maps)
    for a, principal in zip(reps, _principal_masks(brace, reps, maps)):
        P = np.flatnonzero(principal)
        B = np.stack([m for m in known.values() if not m[a]])
        rows, cols = np.nonzero(B)
        sums = np.zeros_like(B)
        sums[rows[:, None], brace.add[cols[:, None], P]] = True
        for row in sums:
            known.setdefault(row.tobytes(), row)
    masks = np.stack(list(known.values()))
    masks = masks[np.lexsort(np.vstack([~masks[:, ::-1].T, masks.sum(axis=1)]))]
    masks.setflags(write=False)
    return masks


def enumerate_ideals(brace: FiniteSkewBrace) -> list[Ideal]:
    """All ideals, the rows of ``ideal_masks`` in its order."""
    return [Ideal(brace, frozenset(np.flatnonzero(row).tolist())) for row in ideal_masks(brace)]


def _coerce_ideal(brace: FiniteSkewBrace, ideal) -> Ideal:
    if isinstance(ideal, Ideal):
        if ideal.brace is not brace and ideal.brace != brace:
            raise PreconditionError("ideal belongs to a different brace")
        return ideal
    return as_ideal(brace, ideal)


def quotient(brace: FiniteSkewBrace, ideal) -> tuple[FiniteSkewBrace, np.ndarray]:
    """Quotient brace and the element -> coset-index map.

    The coset of 0 gets index 0; the remaining cosets are ordered by their
    least member.  The result is re-validated.
    """
    I = _coerce_ideal(brace, ideal)
    n = brace.order
    members = np.fromiter(sorted(I.members), dtype=np.int64)
    # coset of x is x + I; reps are least members
    coset_min = np.min(brace.add[:, members], axis=1)
    reps = sorted_unique(coset_min)
    assert reps[0] == 0
    coset_index = np.searchsorted(reps, coset_min)
    k = reps.size
    qadd = coset_index[brace.add[np.ix_(reps, reps)]]
    qcirc = coset_index[brace.circ[np.ix_(reps, reps)]]
    name = f"{brace.name}/{fmt_members(I.members)}" if brace.name else ""
    q = brace_from_tables(qadd, qcirc, name)
    return q, coset_index.astype(np.int64)


def restrict(brace: FiniteSkewBrace, members: Iterable[int], name: str = "") -> FiniteSkewBrace:
    """View a sub-skew-brace (e.g. an ideal) as a brace on its own members,
    relabeled in ascending order so 0 stays first."""
    n = brace.order
    S = normalize_members(n, members)
    if not S.size or S[0] != 0:
        raise PreconditionError("restriction needs a subset containing 0")
    index = np.full(n, -1, dtype=np.int64)
    index[S] = np.arange(S.size)
    sub_add = index[brace.add[np.ix_(S, S)]]
    sub_circ = index[brace.circ[np.ix_(S, S)]]
    if (sub_add < 0).any() or (sub_circ < 0).any():
        raise PreconditionError("subset is not closed under the operations")
    return brace_from_tables(sub_add, sub_circ, name)


def is_trivial(brace: FiniteSkewBrace) -> bool:
    """True when a * b = 0 everywhere, i.e. add and circ coincide."""
    return not brace.star_table().any()


@dataclass(frozen=True)
class SemiprimeVerdict:
    semiprime: bool
    witness: Ideal | None
    method: str

    def __repr__(self):
        if self.semiprime:
            return f"SemiprimeVerdict(semiprime, method={self.method!r})"
        return (f"SemiprimeVerdict(not semiprime, witness={fmt_members(self.witness.members)}, "
                f"method={self.method!r})")


def _orbit_representatives(maps: np.ndarray) -> list[int]:
    """The least label of each orbit under the maps lambda_x,
    a -> x o a o x', a -> x + a - x, a -> a' and a -> -a, ascending,
    except the orbit {0} (every map fixes 0).  All orbits are found before
    the list is returned, in a fixed number of numpy calls per round.

    ``maps`` is ``_orbit_maps(brace)``: a' and the maps of greedy
    generators, whose orbits are those of the maps of every x (the
    argument is in ``_orbit_maps``).  It has no a -> -a, but
    -a = lambda_a(a') is already in the orbit of a.

    One gather loop of min-label propagation: each label starts as itself,
    and a round sets label[a] to the least of label[a] and label[g(a)]
    over the maps g, until no label changes.  Labels only fall, so the
    loop ends.  label[a] is always a label reachable from a by the maps,
    and at the fixed point label[a] <= label[b] <= b for every b reachable
    from a, so label[a] is the least label reachable from a.  Every map is
    a permutation of a finite set, so its inverse is one of its powers,
    and the labels reachable from a form the whole orbit of a under the
    group the maps generate.  So label[a] is the least label of the orbit
    of a, and a is its orbit's representative exactly when label[a] == a.
    """
    label = np.arange(maps.shape[1])
    while True:
        lower = np.minimum(label, label[maps].min(axis=0))
        if np.array_equal(lower, label):
            return np.flatnonzero(label == np.arange(label.size))[1:].tolist()
        label = lower


def _principal_masks(brace: FiniteSkewBrace, reps: list[int], maps: np.ndarray) -> np.ndarray:
    """(len(reps), n) bool matrix, row t the mask of the principal ideal of
    reps[t]: the closure ``_principal_closure`` makes with
    ``_ideal_families(brace, maps)``, for every row at once.

    Each row keeps its members M_t and frontier F_t (within M_t), seeded
    with {0, reps[t]} and {reps[t]}, and a round does for all rows what a
    round of ``frontier_closure`` does for one: one scatter of the maps
    over the frontier entries, and one scatter each of circ[f, m] and
    circ[m, f] over the frontier entries f of row t and the labels m.  A
    label m outside M_t scatters to 0, which every row holds, so only the
    pairs with members add candidates.  The candidates outside M_t are
    the next F_t.  Rows never mix, so row t reaches the fixed point of its
    own closure.  A row gathers at most n frontier entries times n labels
    per round, so blocks of ``_row_blocks(n, len(reps))`` rows gather at
    most about 2^20 pairs.
    """
    n, circ = brace.order, brace.circ
    masks = np.zeros((len(reps), n), dtype=bool)
    masks[:, 0] = True
    masks[np.arange(len(reps)), reps] = True
    for t0, t1 in _row_blocks(n, len(reps)):
        members = masks[t0:t1]                    # a view: grows masks in place
        frontier = np.zeros_like(members)
        frontier[np.arange(t1 - t0), reps[t0:t1]] = True
        while True:
            rows, F = np.nonzero(frontier)
            if not rows.size:
                break
            row_members = members[rows]
            hit = np.zeros_like(members)
            hit[rows[:, None], maps[:, F].T] = True
            hit[rows[:, None], np.where(row_members, circ[F], 0)] = True       # f o m
            hit[rows[:, None], np.where(row_members, circ[:, F].T, 0)] = True  # m o f
            frontier = hit & ~members
            members |= frontier
    return masks


def _principal_closure(brace: FiniteSkewBrace, a: int, families,
                       abort=None) -> np.ndarray | None:
    """Mask of the principal ideal of ``a``: seed {0, a}, then
    ``frontier_closure`` over ``families`` (``_ideal_families`` of the
    brace); None if ``abort`` stops it.  ``_principal_masks`` makes the
    same closures in one batch."""
    mask = np.zeros(brace.order, dtype=bool)
    mask[[0, a]] = True
    return frontier_closure(mask, np.array([a]), families, abort)


def _principal_star_scan(brace: FiniteSkewBrace) -> Ideal | None:
    """First a (ascending) whose principal ideal has all-zero pairwise stars.

    Only the least label of each orbit (``_orbit_representatives``) is
    scanned, in ascending order.  Each map sends a into every ideal that holds a, and
    its inverse is a map of the same kind (lambda_x by lambda_x',
    conjugation by x by conjugation by x' or -x, and the two inversions
    by themselves), so all of an orbit has one principal ideal.  The
    least label r of the orbit of the first witness a is then a witness
    no larger than a, so r = a and the ideal is the same.

    The closure of {a} is grown incrementally; as soon as a nonzero star
    shows up between known members the candidate is discarded, which keeps
    the scan cheap on semiprime braces.  In the round where a member is in
    the frontier, its stars with every member so far are checked both
    ways, so a closure that completes has vanishing stars.
    """
    def stars_appear(F, M):
        return star_block(brace, F, M).any() or star_block(brace, M, F).any()

    maps = _orbit_maps(brace)
    families = _ideal_families(brace, maps)
    for a in _orbit_representatives(maps):
        mask = _principal_closure(brace, a, families, abort=stars_appear)
        if mask is not None:
            return Ideal(brace, frozenset(int(x) for x in np.flatnonzero(mask)))
    return None


def is_semiprime(brace: FiniteSkewBrace, method: str = "fast") -> SemiprimeVerdict:
    """Decide semiprimality: no nonzero ideal I with I * I = 0.

    fast: scans principal ideals (the closure of each single element); any
    witness ideal contains a principal witness, so this is complete.
    exhaustive: enumerates all ideals and returns the smallest witness.
    """
    if method == "fast":
        witness = _principal_star_scan(brace)
        return SemiprimeVerdict(witness is None, witness, "fast")
    if method == "exhaustive":
        for members in map(np.flatnonzero, ideal_masks(brace)[1:]):  # row 0 is {0}
            if not star_block(brace, members, members).any():
                return SemiprimeVerdict(False, Ideal(brace, frozenset(members.tolist())),
                                        "exhaustive")
        return SemiprimeVerdict(True, None, "exhaustive")
    raise PreconditionError(f"unknown method {method!r}, expected 'fast' or 'exhaustive'")


@dataclass(frozen=True)
class ExtensionReport:
    """Evidence for the extension property of semiprimality.

    If the ideal (as a brace) and the quotient are both semiprime then the
    whole brace must be; ``containment_ok`` records the supporting coset
    containment (J+I) * (J+I) <= J*J + I for every ideal J.
    """

    ideal_semiprime: SemiprimeVerdict
    quotient_semiprime: SemiprimeVerdict
    parent_semiprime: SemiprimeVerdict
    implication_ok: bool
    containment_ok: bool
    containment_failures: tuple[tuple[int, ...], ...]


def check_semiprime_extension(brace: FiniteSkewBrace, ideal) -> ExtensionReport:
    """Evaluate the three semiprimality verdicts around an ideal and check
    the implication plus its supporting containment over all ideals J."""
    I = _coerce_ideal(brace, ideal)
    I_sorted = np.fromiter(sorted(I.members), dtype=np.int64)
    sub = restrict(brace, I.members)
    q, _ = quotient(brace, I)
    v_ideal = is_semiprime(sub, "exhaustive")
    v_quot = is_semiprime(q, "exhaustive")
    v_parent = is_semiprime(brace, "exhaustive")
    implication_ok = not (v_ideal.semiprime and v_quot.semiprime) or v_parent.semiprime

    containment_failures = []
    for J_sorted in map(np.flatnonzero, ideal_masks(brace)):
        ji = sorted_unique(brace.add[np.ix_(J_sorted, I_sorted)].ravel())
        lhs = star_product(brace, ji, ji)
        jj = np.fromiter(sorted(star_product(brace, J_sorted, J_sorted)), dtype=np.int64)
        rhs_mask = np.zeros(brace.order, dtype=bool)
        rhs_mask[brace.add[np.ix_(jj, I_sorted)]] = True
        if not all(rhs_mask[x] for x in lhs):
            containment_failures.append(tuple(J_sorted.tolist()))
    return ExtensionReport(
        v_ideal, v_quot, v_parent, implication_ok,
        not containment_failures, tuple(containment_failures),
    )
