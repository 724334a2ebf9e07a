"""Ideals, quotients, and semiprimality of finite skew braces.

An ideal is a subgroup of the circle group that is normal under circle
conjugation, invariant under every lambda_a, and commutes with every
element additively (a + I = I + a as sets).  Those four conditions force
additive closure and normality, which downstream code relies on.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    FiniteSkewBrace,
    PreconditionError,
    SizeCapExceeded,
    _member_labels,
    _row_blocks,
    brace_from_tables,
    fmt_members,
    normalize_members,
    sorted_unique,
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
    "semiprime_verdicts",
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
    lambda-invariance, coset-symmetry.  A batch of one of
    ``_vanishing_ideals``; a set that fails only "stars" is an ideal.
    """
    rule = _vanishing_ideals([(brace, members)])[0]
    ok = rule in (None, "stars")
    return ok, None if ok else rule


def _failed_rules(tables: _Tables, owner: np.ndarray, masks: np.ndarray) -> list[str | None]:
    """The first check each row fails, of the rules of ``IDEAL_RULES``
    and then "stars", or None for an ideal I with I * I = 0: row r of the
    (R, n) bool ``masks`` is a member set of brace owner[r] of ``tables``.

    Every rule is a membership test over the members s of a row and,
    for the last three, every generator g its brace's builder gave
    (``_Tables``):

    - circ-subgroup: 0 and s o t are members.  Then s' is one too, a
      power of s in the finite circle group: the set is a subgroup;
    - circ-normality: g o s o g' is a member, g a generator of (A, o);
    - lambda-invariance: lambda_g(s) = -g + g o s is a member, g a
      generator of (A, o);
    - coset-symmetry: (g + s) - g is a member, g a generator of (A, +).
      For every a in place of g, that is a + I within I + a, since x is
      in I + a exactly when x - a is in I; both sets have |I| elements (a
      row and a column of ``add`` are permutations), so it is a + I =
      I + a.

    The generators decide each rule for every label a (the argument is in
    ``_generator_maps``): a row fails a rule for some a exactly when it
    fails it for some generator, and the first failed rule is the same.

    The last check, stars, fails when s o t != s + t for some members s,
    t.  s * t = lambda_s(t) - t with lambda_s(t) = -s + s o t, so s * t =
    0 exactly when s o t = s + t.  The circ gather of circ-subgroup holds
    s o t for every ordered pair of members, and one add gather of the
    same pairs holds s + t, so an ideal passes exactly when every star of
    its members vanishes: I * I, generated by them, is 0.

    Rows are cut into blocks of one member count K, so no row is padded:
    a block of ``_row_blocks`` rows gathers about ``_BLOCK_ENTRIES``
    entries, R K (2 K + k) for k generator columns, and each row's members
    fill a row of an (R, K) label table.  An empty row fails
    circ-subgroup.  The five checks are made for every row of a block at
    once.
    """
    n, add, circ = tables.n, tables.add, tables.circ
    checks = (*IDEAL_RULES, "stars", None)
    sizes = masks.sum(axis=1)
    first = np.empty(len(masks), dtype=np.int64)
    by_size = np.argsort(sizes, kind="stable")
    cuts = np.flatnonzero(np.diff(sizes[by_size])) + 1
    width = tables.circ_gens.shape[1] * 2 + tables.add_gens.shape[1]
    for index in np.split(by_size, cuts) if len(masks) else []:
        K = int(sizes[index[0]])
        for r0, r1 in _row_blocks(n, index.size, max(1, K * (2 * K + width))):
            r = index[r0:r1]
            m, R = masks[r], r1 - r0
            S = np.nonzero(m)[1].reshape(R, K)                  # row-major: ascending members
            base = owner[r, None, None] * n                     # each row's brace in the flat tables
            at = np.arange(R)[:, None, None] * n                # each row in the flat masks

            def leaves(x):                                      # some of x outside its row
                return ~m.reshape(-1)[at + x].reshape(R, -1).all(axis=1)

            s = S[:, None, :]                                   # (R, 1, K): the members
            t = base + S[:, :, None]                            # (R, K, 1): the members' rows
            t_s = circ[t, s]                                    # t o s, every ordered pair
            fails = np.ones((len(checks), R), dtype=bool)
            fails[0] = ~m[:, 0] | leaves(t_s)
            fails[1:4] = list(map(leaves, _generator_maps(tables, owner[r], s)))  # one at a time
            fails[4] = (t_s != add[t, s]).reshape(R, -1).any(axis=1)
            first[r] = fails.argmax(axis=0)
    return [checks[i] for i in first.tolist()]


def as_ideal(brace: FiniteSkewBrace, members: Iterable[int]) -> Ideal:
    """Wrap a member set as an Ideal after verifying it; raises otherwise."""
    S = frozenset(normalize_members(brace.order, members).tolist())
    ok, rule = is_ideal(brace, S)
    if not ok:
        raise PreconditionError(f"{fmt_members(S)} is not an ideal (fails {rule})")
    return Ideal(brace, S)


def _stacked_maps(tables: _Tables) -> np.ndarray:
    """The element maps of the braces of ``tables`` as one (B, K, n) array
    in the tables' dtype, row i of brace b the map a -> maps[b, i, a]: row
    0 a -> a', then the ``_generator_maps`` at every label.  A set closed
    under them is closed under the maps of every x (``_generator_maps``),
    and the identity maps of the padding label 0 change no closure (their
    images of a frontier are members already) and no orbit (in
    ``_orbit_representatives`` they map label[a] to itself).  So closures,
    and so orbits, principal ideals, ideal lists and their order, and
    witnesses are those of the maps by every x, whichever generating sets
    the builder gave."""
    maps = _generator_maps(tables, np.arange(len(tables)), np.arange(tables.n))
    return np.concatenate([tables.inv.reshape(len(tables), 1, -1), *maps], axis=1)


def _generator_maps(tables: _Tables, owner: np.ndarray, x: np.ndarray) -> Iterable[np.ndarray]:
    """The one gather, one kind at a time, of (g o x o g', lambda_g(x))
    for each column g of ``circ_gens``, (R, kc, K), and g + x - g for each
    of ``add_gens``, (R, ka, K), at the labels x ((R, 1, K) or (K,)) of
    brace owner[r]: the generators of (A, o) and of (A, +) its builder
    supplied, padded with label 0, whose maps are the identity.

    A set closed under these maps is closed under lambda_a, x -> a o x o a'
    and x -> a + x - a for every a.  lambda_{a o b} = lambda_a lambda_b,
    and conjugation by a is a homomorphism from (A, o), resp. from (A, +),
    to the permutations of A.  So, for each kind of map, the a whose map
    keeps the set form a monoid that holds the generators.  Every map is a
    permutation of a finite set, so that monoid holds the group they
    generate: every a."""
    add, circ, neg, inv, n = tables.add, tables.circ, tables.neg, tables.inv, tables.n
    base = owner[:, None, None] * n                            # each row's brace in the tables
    cg = base + tables.circ_gens[owner, :, None]               # (R, kc, 1): rows g of circ
    ag = base + tables.add_gens[owner, :, None]                # (R, ka, 1): rows g of add
    g_x = circ[cg, x]                                          # g o x
    yield circ[base + g_x, inv[cg]]                            # g o x o g'
    yield add[base + neg[cg], g_x]                             # lambda_g(x) = -g + g o x
    yield add[base + add[ag, x], neg[ag]]                      # g + x - g


def ideal_closure(brace: FiniteSkewBrace, seed: Iterable[int]) -> Ideal:
    """Least ideal containing ``seed``: the one row of a closing
    ``_principal_masks`` pass seeded with {0} and ``seed``, on the brace's
    own tables and ``_stacked_maps`` (a ``groups.PairTable`` is read in
    place, never made dense); no star is read.  A seed member that is out
    of range or not an integer raises ``PreconditionError``."""
    seeds = np.zeros((1, brace.order), dtype=bool)
    seeds[0, 0] = True
    seeds[0, normalize_members(brace.order, seed)] = True
    masks = _principal_masks(_Tables([brace]), False, (np.zeros(1, dtype=np.int64), seeds))
    return Ideal(brace, frozenset(np.flatnonzero(masks[0]).tolist()))


def _check_ideal_cap(n: int) -> None:
    if n > DEFAULT_IDEAL_CAP:
        raise SizeCapExceeded(f"order {n} exceeds the ideal enumeration cap {DEFAULT_IDEAL_CAP}")


class _Tables:
    """The one stack of braces of one order n on a leading brace axis: add
    and circ as flat (B * n, n) tables and neg and inv as flat (B * n,)
    arrays, row b * n + a the row of label a in brace b, and each brace's
    ``add_gens`` and ``circ_gens`` as row b of a (B, k) int64 matrix,
    padded with label 0; ``len`` is B.  A stack of one reads its brace's
    own tables, lazy ones too (only ``products`` makes a stack dense).
    ``maps`` (``_stacked_maps``) and ``orbits`` (the pairs (owner[t],
    reps[t]) of ``_orbit_representatives``) are made on first read, so
    never by ``_failed_rules``, and ``orbits`` never by a seeded pass."""

    def __init__(self, braces: list[FiniteSkewBrace]):
        self.n = braces[0].order
        for name in ("add", "circ", "neg", "inv"):     # a stack of one is its brace's tables
            tables = [getattr(b, name) for b in braces]
            setattr(self, name, tables[0] if len(tables) == 1 else np.concatenate(tables))
        for name in ("add_gens", "circ_gens"):
            sets = [getattr(b, name) for b in braces]
            columns = list(itertools.zip_longest(*sets, fillvalue=0))
            setattr(self, name, np.array(columns, dtype=np.int64).reshape(-1, len(sets)).T)

    def __len__(self):
        return len(self.add_gens)

    @functools.cached_property
    def maps(self) -> np.ndarray:
        return _stacked_maps(self)

    @functools.cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        return _orbit_representatives(self.maps)


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
    ``_principal_masks``).  No sum is made twice (``_batch_ideals``).

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
    nonzero B[r, j] is I_r + P_t.  One ``np.lexsort`` (last key first)
    orders the rows by size, then by the ~mask columns: of two sets of one
    size, the one holding the first label where they differ has the
    smaller sorted tuple.

    This is the stack of one of ``_stack_ideals``, whose ``_batch_ideals``
    lists the ideals of many braces of one order at once: each row carries
    its brace's index, which is the sort's first key.  The principal
    ideals are closed in full, since all of them are summed.  The stacked
    lists are read by ``_ideal_lists`` (the CLI ``ideals`` command and
    the Gs of a lemma31 batch) and by the lemma31 bases; exhaustive
    ``semiprime_verdicts`` reads ``_batch_ideals`` itself.
    """
    return _stack_ideals(_Tables([brace]))[0]


def _stack_ideals(batch: _Tables) -> list[np.ndarray]:
    """``ideal_masks`` of each brace of the stack, in stack order, as
    read-only views of one mask matrix: one closing ``_principal_masks``
    pass and one ``_batch_ideals`` call, whose rows are cut where their
    owner changes (every brace has the ideal {0}, so none is empty)."""
    _check_ideal_cap(batch.n)
    owner, masks = _batch_ideals(batch, _principal_masks(batch, False))
    masks.setflags(write=False)
    return np.split(masks, np.searchsorted(owner, np.arange(1, len(batch))))


def _ideal_lists(braces: list[FiniteSkewBrace]) -> list[np.ndarray]:
    """``ideal_masks`` of every brace, in input order, from one
    ``_stack_ideals`` call per index list of ``_batches``."""
    lists: list[np.ndarray] = [None] * len(braces)
    for index in _batches([brace.order for brace in braces]):
        for i, masks in zip(index, _stack_ideals(_Tables([braces[i] for i in index]))):
            lists[i] = masks
    return lists


def _batch_ideals(batch: _Tables, principal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, masks): every ideal of every brace of ``batch``, mask row r
    an ideal of brace owner[r], ordered by brace, then as in
    ``ideal_masks``, from the ``principal`` masks of ``_principal_masks``.

    Pass t sums the principal ideal P_t of each brace's t-th
    representative r_t with that brace's ideals found so far.  A brace with
    fewer representatives takes r_t = 0 after its last one: every ideal
    holds 0, so none of its rows is summed.  Each principal ideal's labels
    fill one row of a table padded with 0 (a brace past its last
    representative reads a row of 0s), and add[c, 0] = c is already in
    the row being summed, so pass t gathers add[b * n + c, labels[b]] for
    every brace b and label c once, and a member c of a row of brace b
    takes row b * n + c of that gather.  Every row is within its sum, so
    the sum's labels outside the row are their exclusive or.

    No sum is listed twice, so no deduplication is needed.  Let K be the
    list before pass t, the sums of subsets of P_1..P_{t-1}, and keep a sum
    S = I + P_t of an I in K that misses r_t only when every r_s (s < t)
    in S is in I.  A kept S is new: if S were in K it would be a sum of
    P_s with r_s in S, all within I, so S = I, but r_t is in S.  Every new
    S is kept once: M, the sum of the P_s (s < t) with r_s in S, is in K
    and within S, and it holds every I in K with I + P_t = S (each P_s
    within I holds r_s, which is in S).  So M + P_t = S, M misses r_t (or
    S = M would be in K), and M passes the test.  An I that passes it
    holds every such P_s, so I = M.
    """
    add, (owner, reps) = batch.add, batch.orbits
    B, n = len(batch), batch.n
    step = np.arange(reps.size) - np.searchsorted(owner, owner)   # t of each (brace, r_t)
    steps = int(step.max(initial=-1)) + 1
    rank = np.full((B, n), steps, dtype=np.int16)                 # t of a label r_t, else steps
    rank[owner, reps] = step
    rep_at = np.zeros((steps, B), dtype=np.int64)
    rep_at[step, owner] = reps
    at = np.full((steps, B), reps.size)                           # row of P_t's labels, else of 0s
    at[step, owner] = np.arange(reps.size)
    labels = np.zeros((reps.size + 1, n), dtype=np.int64)
    labels[:-1] = np.sort(np.where(principal, np.arange(n), 0), axis=1)
    width = np.zeros((steps, B), dtype=np.int64)                  # |P_t| of each brace
    width[step, owner] = principal.sum(axis=1)
    row = np.arange(B)[:, None, None] * n + np.arange(n)[:, None]    # b * n + c
    known_owner = np.arange(B)
    known = np.zeros((B, n), dtype=bool)
    known[:, 0] = True
    for t in range(steps):
        members = labels[at[t]][:, None, n - width[t].max():]     # members last, 0 before them
        sum_rows = add[row, members].reshape(B * n, -1)
        miss = ~known[np.arange(known_owner.size), rep_at[t][known_owner]]
        grow_owner, grow = known_owner[miss], known[miss]
        rows, cols = np.divmod(np.flatnonzero(grow), n)
        sums = np.zeros_like(grow)
        sums.reshape(-1)[(rows * n)[:, None] + sum_rows[grow_owner[rows] * n + cols]] = True
        keep = ~((sums ^ grow) & (rank < t)[grow_owner]).any(axis=1)
        known_owner = np.concatenate([known_owner, grow_owner[keep]])
        known = np.concatenate([known, sums[keep]])
    order = np.lexsort(np.vstack([~known[:, ::-1].T, known.sum(axis=1), known_owner]))
    return known_owner[order], known[order]


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
    """True when a * b = 0 everywhere.  a * b = 0 exactly when
    a o b = a + b (``_failed_rules``), so this compares the two tables in
    the row blocks of ``_row_blocks`` and stops at the first block where
    they differ; no star table is gathered or kept."""
    return all(np.array_equal(brace.add[a0:a1], brace.circ[a0:a1])
               for a0, a1 in _row_blocks(brace.order))


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


def _orbit_representatives(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, reps): the least label of each orbit under the maps
    lambda_x, a -> x o a o x', a -> x + a - x, a -> a' and a -> -a, except
    the orbit {0} (every map fixes 0), of each brace b of the (B, K, n)
    ``_stacked_maps``, as pairs (owner[i], reps[i]) = (b, label) ordered
    by brace, then ascending.  All orbits are found before the arrays are
    returned, in a fixed number of numpy calls per round.

    ``maps[b]`` holds a' and the maps of the generators, whose orbits
    are those of the maps of every x (the argument is in ``_stacked_maps``).
    It has no a -> -a, but -a = lambda_a(a') is already in the orbit of a.

    One gather loop of min-label propagation, in every brace at once: each
    label starts as itself, and a round sets label[a] to the least of
    label[a] and label[g(a)] over the maps g, until no label changes.
    Labels only fall, so the loop ends.  label[a] is always a label
    reachable from a by the maps, and at the fixed point label[a] <=
    label[c] <= c for every c reachable from a, so label[a] is the least
    label reachable from a.  Every map is a permutation of a finite set, so
    its inverse is one of its powers, and the labels reachable from a form
    the whole orbit of a under the group the maps generate.  So label[a]
    is the least label of the orbit of a, and a is its orbit's
    representative exactly when label[a] == a.
    """
    n = maps.shape[2]
    brace = np.arange(maps.shape[0])[:, None, None]
    label = np.broadcast_to(np.arange(n), maps.shape[::2])
    while True:
        lower = np.minimum(label, label[brace, maps].min(axis=1))
        if np.array_equal(lower, label):
            owner, reps = np.nonzero(label == np.arange(n))
            return owner[reps > 0], reps[reps > 0]
        label = lower


def _principal_masks(batch: _Tables, abort: bool,
                     seeds: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Row t of the (R, n) bool result is the least ideal of brace
    owner[t] of the batch that holds the member mask masks[t], for the
    rows ``seeds`` = (owner, masks); each seed holds 0.  By default the
    rows are the principal seeds {0, reps[t]} in brace owner[t] of
    ``_Tables.orbits``, and row t is the principal ideal of reps[t].

    Without ``abort`` every row is closed and no star is read.  With
    ``abort`` the rows are star-tested too: a row stops at its first
    nonzero star, and so, unstarted, does every row of a brace with a
    vanishing row in an earlier block; a stopped row comes back empty.
    So every nonempty row is an ideal whose stars vanish, and each
    brace's first vanishing row is one (no row before it vanishes).

    Every label has its orbit representative's principal ideal.  Each map
    of ``_orbit_representatives`` sends a into every ideal that holds a,
    and its inverse is a map of the same kind (lambda_x by lambda_x',
    conjugation by x by conjugation by x' or -x, and the two inversions
    by themselves), so all of an orbit has one principal ideal.

    Each row keeps its members M_t and frontier F_t (within M_t), seeded
    with masks[t] and masks[t] without 0.  A round scatters, for all rows
    of a block, maps[b, :, f] over the frontier entries f and f o m over
    each pair of a frontier entry f and a member m of its row; the
    candidates outside M_t are the next F_t.  Rows never mix, so row t
    reaches the fixed point of its own closure.  Leaving 0 out of the
    first frontier loses nothing: every map fixes 0, 0 o m = m is a
    member, and 0 * m = m * 0 = 0.  The fixed point is closed under the
    maps, so under conjugation by every element (``_stacked_maps``), and
    under a o c for members a, c.  Say a member came in the round where it
    entered the frontier, every seed in the first (0 in none): if c came
    no later than a, a o c was scattered in a's round; if a came earlier,
    a o c = a o (c o a) o a' is a conjugate of the c o a scattered in c's
    round; if either is 0, a o c is the other.  So it is an ideal, and
    every candidate lies in each ideal that holds the seed: it is the
    least one.

    a * c = lambda_a(c) - c with lambda_a(c) = -a + a o c, so a * c = 0
    exactly when a o c = a + c, and an aborting round tests that both
    ways on the same pairs.  Every pair of members is tested: in the
    round where the later of the two (either, if they came together) is
    in the frontier, the other is a member; a pair with 0 has only zero
    stars.  So a row that closes without a nonzero star vanishes, and a
    star found in a round is one between members of the final ideal,
    which then does not vanish.  A seed that is already an ideal closes
    in round 1, where every ordered pair of its members is tested.

    A row has at most n frontier entries and n members, so a block of
    ``_row_blocks(n, R)`` rows pairs at most about 2^20 of them a round.
    Above order 1024 a block is one row, and its pairs are gathered for
    chunks of at most about 2^20 / n frontier entries.
    """
    add, circ, maps, n = batch.add, batch.circ, batch.maps, batch.n
    if seeds is None:                             # the principal seeds {0, reps[t]}
        seeds = batch.orbits[0], (np.arange(n) == 0) | (np.arange(n) == batch.orbits[1][:, None])
    owner, masks = seeds[0], seeds[1].copy()
    witnessed = np.zeros(len(batch), dtype=bool)  # a vanishing row so far
    for t0, t1 in _row_blocks(n, len(masks)):
        block = owner[t0:t1]
        stopped = abort & witnessed[block]        # a star showed, or never started
        members = masks[t0:t1]                    # a view: grows masks in place
        frontier = members & ~stopped[:, None]
        frontier[:, 0] = False
        while frontier.any():
            rows, F = np.nonzero(frontier)
            b = block[rows]
            base = b * n                          # each entry's brace in the flat tables
            hit = np.zeros_like(members)
            hit[rows[:, None], maps[b, :, F]] = True
            for e0, e1 in _row_blocks(n, rows.size, n):
                e, m = np.nonzero(members[rows[e0:e1]])   # entry e0 + e, member m of its row
                e += e0
                f, r = F[e], rows[e]
                fx = base[e] + f                          # rows of the flat tables
                fm = circ[fx, m]
                hit.reshape(-1)[r * n + fm] = True
                if abort:
                    mx = base[e] + m
                    stopped[r[(fm != add[fx, m]) | (circ[mx, f] != add[mx, f])]] = True
            hit[stopped] = False
            frontier = hit > members              # hit and not a member
            members |= frontier
        members[stopped] = False
        witnessed[block[~stopped]] = True
    return masks


def _batches(orders: list[int], keys: list | None = None):
    """The one plan of ``_Tables`` stacks (``semiprime_verdicts``,
    ``_vanishing_ideals``, ``_ideal_lists``, ``products._action_stacks``
    and the lemma31 bases): the index lists of
    the items of one order orders[i] and key keys[i], in order of first
    appearance, cut by ``_row_blocks`` at about ``_BLOCK_ENTRIES`` add and
    circ entries, and one item per stack above ``DEFAULT_IDEAL_CAP``, so no
    table above the cap is copied."""
    groups: dict[tuple, list[int]] = {}
    for i, n in enumerate(orders):
        key = (n, None if keys is None else keys[i], i if n > DEFAULT_IDEAL_CAP else -1)
        groups.setdefault(key, []).append(i)
    for (n, *_), index in groups.items():
        yield from (index[i0:i1] for i0, i1 in _row_blocks(n, len(index), 2 * n * n))


def _vanishing_ideals(pairs: list[tuple[FiniteSkewBrace, Iterable[int]]]) -> list[str | None]:
    """For each (brace, members), braces of any order: the first check of
    ``_failed_rules`` the members fail, or None for an ideal with I * I =
    0, from one ``_failed_rules`` call per group of ``_batches``.  A
    member out of range raises ``PreconditionError``, as in ``is_ideal``."""
    checks: list[str | None] = [None] * len(pairs)
    for group in _batches([brace.order for brace, _ in pairs]):
        n, owner = pairs[group[0]][0].order, np.arange(len(group))
        sets = [_member_labels(n, pairs[i][1]) for i in group]
        masks = np.zeros((len(group), n), dtype=bool)
        masks[np.repeat(owner, [m.size for m in sets]), np.concatenate(sets)] = True
        tables = _Tables([pairs[i][0] for i in group])
        for i, check in zip(group, _failed_rules(tables, owner, masks)):
            checks[i] = check
    return checks


def is_semiprime(brace: FiniteSkewBrace, method: str = "fast") -> SemiprimeVerdict:
    """Decide semiprimality: no nonzero ideal I with I * I = 0; a batch
    of one of ``semiprime_verdicts``.

    fast: tests principal ideals (the closure of each single element); any
    witness ideal contains a principal witness, so this is complete.
    exhaustive: enumerates all ideals and returns the smallest witness.
    """
    return semiprime_verdicts([brace], method)[0]


def semiprime_verdicts(braces: Iterable[FiniteSkewBrace], method: str | tuple[str, ...] = "fast"
                       ) -> list[SemiprimeVerdict] | tuple[list[SemiprimeVerdict], ...]:
    """``is_semiprime`` of every brace, in input order, from one ``_Tables``
    stack per index list of ``_batches``.  ``method`` is "fast",
    "exhaustive", or a tuple of them; a tuple gives one list per method,
    all read from the same stacks, so each brace's maps and orbit
    representatives are built once.  An exhaustive verdict above the cap
    raises ``SizeCapExceeded``, as ``ideal_masks`` does.  The witnesses are
    ``_batch_witnesses``' masks."""
    methods = (method,) if isinstance(method, str) else tuple(method)
    for m in methods:
        if m not in ("fast", "exhaustive"):
            raise PreconditionError(f"unknown method {m!r}, expected 'fast' or 'exhaustive'")
    braces = list(braces)
    witnesses = {m: [None] * len(braces) for m in methods}
    for group in _batches([brace.order for brace in braces]):
        if "exhaustive" in methods:
            _check_ideal_cap(braces[group[0]].order)
        batch = _Tables([braces[i] for i in group])
        for m in methods:
            for i, mask in zip(group, _batch_witnesses(batch, m)):
                if mask is not None:
                    witnesses[m][i] = Ideal(braces[i], frozenset(np.flatnonzero(mask).tolist()))
    lists = [[SemiprimeVerdict(w is None, w, m) for w in witnesses[m]] for m in methods]
    return lists[0] if isinstance(method, str) else tuple(lists)


def _batch_witnesses(batch: _Tables, method: str) -> list[np.ndarray | None]:
    """The witness member mask of each brace of the batch, in stack order,
    None for a semiprime one: its first candidate row that vanishes in one
    aborting ``_principal_masks`` pass over the candidates.

    fast: the candidates are the principal seeds, one per representative,
    ascending.  All of an orbit has one principal ideal, so the witness is
    the principal ideal of the least label whose principal ideal vanishes.
    exhaustive: the candidates are the nonzero ideals of ``_batch_ideals``
    over the principal ideals of a closing pass, in ``ideal_masks``
    order, so the witness is the smallest vanishing nonzero ideal.
    """
    seeds = None
    if method == "exhaustive":
        owner, masks = _batch_ideals(batch, _principal_masks(batch, False))
        nonzero = masks[:, 1:].any(axis=1)
        seeds = owner[nonzero], masks[nonzero]
    owner = batch.orbits[0] if seeds is None else seeds[0]
    masks = _principal_masks(batch, True, seeds)
    hits = np.flatnonzero(masks[:, 0])[::-1]
    first = dict(zip(owner[hits].tolist(), hits.tolist()))     # the last write, the first hit, wins
    return [masks[first[b]] if b in first else None for b in range(len(batch))]


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
