"""Ideals, quotients, and semiprimality of finite skew braces.

An ideal is a subgroup of the circle group that is normal under circle
conjugation, invariant under every lambda_a, and commutes with every
element additively (a + I = I + a as sets).  Those four conditions force
additive closure and normality, which downstream code relies on.
"""

from __future__ import annotations

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
    lam_block,
    normalize_members,
    seeded_closure,
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
    lambda-invariance, coset-symmetry.  A batch of one of ``_failed_rules``.
    """
    n = brace.order
    mask = np.zeros((1, n), dtype=bool)
    mask[0, normalize_members(n, members)] = True
    rule = _failed_rules(_Tables([brace]), np.zeros(1, dtype=np.int64), mask)[0]
    return rule is None, rule


def _failed_rules(tables: _Tables, owner: np.ndarray, masks: np.ndarray) -> list[str | None]:
    """The first rule of ``IDEAL_RULES`` that each row fails, or None for
    an ideal: row r of the (R, n) bool ``masks`` is a member set of brace
    owner[r] of ``tables``.

    Every rule is a membership test over the members s of a row and,
    for the last three, every generator g its brace's builder gave
    (``_Tables``):

    - circ-subgroup: 0, s o t and s' are members;
    - circ-normality: g o s o g' is a member, g a generator of (A, o);
    - lambda-invariance: lambda_g(s) = -g + g o s is a member, g a
      generator of (A, o);
    - coset-symmetry: (g + s) - g is a member, g a generator of (A, +).
      For every a in place of g, that is a + I within I + a, since x is
      in I + a exactly when x - a is in I; both sets have |I| elements (a
      row and a column of ``add`` are permutations), so it is a + I =
      I + a.

    The generators decide each rule for every label a, by the monoid
    argument of ``_orbit_maps``: the a whose map (conjugation by a in
    (A, o), lambda_a, conjugation by a in (A, +)) sends the members into
    the row form a monoid, since each map is a homomorphism of its group
    into the maps of A; it holds the generators, so the group they
    generate, every a.  So a row fails a rule for some a exactly when it
    fails it for some generator, and the first failed rule is the same.
    Padding label 0 maps every member to itself.

    Rows are cut into blocks of one member count K, so no row is padded:
    a block of ``_row_blocks`` rows gathers about ``_BLOCK_ENTRIES``
    entries, R K (K + k) for k generator columns, and each row's members
    fill a row of an (R, K) label table.  An empty row fails
    circ-subgroup.  The four rules are decided for every row of a block
    at once.
    """
    n, add, circ, neg, inv = tables.n, tables.add, tables.circ, tables.neg, tables.inv
    sizes = masks.sum(axis=1)
    first = np.empty(len(masks), dtype=np.int64)
    by_size = np.argsort(sizes, kind="stable")
    cuts = np.flatnonzero(np.diff(sizes[by_size])) + 1
    width = tables.circ_gens.shape[1] * 2 + tables.add_gens.shape[1]
    for index in np.split(by_size, cuts) if len(masks) else []:
        K = int(sizes[index[0]])
        for r0, r1 in _row_blocks(n, index.size, max(1, K * (K + width))):
            r = index[r0:r1]
            m, R = masks[r], r1 - r0
            S = np.nonzero(m)[1].reshape(R, K)                  # row-major: ascending members
            base = owner[r, None, None] * n                     # each row's brace in the flat tables
            at = np.arange(R)[:, None, None] * n                # each row in the flat masks

            def inside(x):                                      # whether all of x is in its row
                return m.reshape(-1)[at + x].reshape(R, -1).all(axis=1)

            cg = base + tables.circ_gens[owner[r], :, None]     # (R, kc, 1): circle generators
            ag = base + tables.add_gens[owner[r], :, None]      # (R, ka, 1): additive generators
            s = S[:, None, :]                                   # (R, 1, K): the members
            g_s = circ[cg, s]                                   # g o s
            fails = np.ones((len(IDEAL_RULES) + 1, R), dtype=bool)
            fails[0] = ~m[:, 0] | ~inside(circ[base + S[:, :, None], s]) | ~inside(inv[base + s])
            fails[1] = ~inside(circ[base + g_s, inv[cg]])
            fails[2] = ~inside(add[base + neg[cg], g_s])
            fails[3] = ~inside(add[base + add[ag, s], neg[ag]])
            first[r] = fails.argmax(axis=0)
    rules = (*IDEAL_RULES, None)
    return [rules[i] for i in first.tolist()]


def as_ideal(brace: FiniteSkewBrace, members: Iterable[int]) -> Ideal:
    """Wrap a member set as an Ideal after verifying it; raises otherwise."""
    S = frozenset(normalize_members(brace.order, members).tolist())
    ok, rule = is_ideal(brace, S)
    if not ok:
        raise PreconditionError(f"{fmt_members(S)} is not an ideal (fails {rule})")
    return Ideal(brace, S)


def _orbit_maps(brace: FiniteSkewBrace) -> np.ndarray:
    """The element maps of ``_ideal_families`` and
    ``_orbit_representatives`` as one stacked (k, n) table, row i the map
    a -> maps[i, a]: a -> a', and for each generator g the maps lambda_g
    and a -> g o a o g' (g a generator of (A, o) the builder supplies,
    ``circ_gens``) and a -> g + a - g (g a generator of (A, +),
    ``add_gens``).  A batch of one of ``_stacked_maps``.

    A set closed under these maps is closed under lambda_x,
    a -> x o a o x' and a -> x + a - x for every x.  lambda_{x o y} =
    lambda_x lambda_y, and conjugation by x is a homomorphism from
    (A, o), resp. from (A, +), to the permutations of A.  So the maps that
    leave the set closed form a monoid, and it holds the maps of the
    generators.  Every map is a permutation of a finite set, so that
    monoid holds the group they generate: the maps of every x.  Closures,
    and so orbits, principal ideals, ideal lists and their order, and
    witnesses are those of the maps by every x, whichever generating sets
    the builder gave.
    """
    return _stacked_maps(_Tables([brace]))[0]


def _stacked_maps(tables: _Tables) -> np.ndarray:
    """The ``_orbit_maps`` tables of the braces of ``tables`` as one
    (B, K, n) array in the tables' dtype, from one gather per kind of map
    over the flat tables: row 0 a -> a', then lambda_g and a -> g o a o g'
    for each column g of ``tables.circ_gens`` and a -> g + a - g for each
    column g of ``tables.add_gens``.  Those matrices pad a brace with
    fewer generators with label 0, whose maps are the identity.  The
    identity fixes every set, so the padding changes no orbit and no
    closure: its images of a frontier are members already, and in
    ``_orbit_representatives`` it maps label[a] to itself."""
    add, circ, neg, inv, n = tables.add, tables.circ, tables.neg, tables.inv, tables.n
    base = np.arange(len(tables.braces))[:, None, None] * n    # each brace in the flat tables
    a = np.arange(n)
    cg = base + tables.circ_gens[:, :, None]                   # (B, kc, 1): rows g of circ
    ag = base + tables.add_gens[:, :, None]
    g_a = circ[cg, a]                                          # g o a
    return np.concatenate([
        inv.reshape(-1, 1, n),
        add[base + neg[cg], g_a],                              # lambda_g(a) = -g + g o a
        circ[base + g_a, inv[cg]],                             # g o a o g'
        add[base + add[ag, a], neg[ag]],                       # g + a - g
    ], axis=1)


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
    additive conjugation by the brace's generators g; closed under those,
    it is closed under lambda_x and both conjugations by every element x)."""
    families = _ideal_families(brace, _orbit_maps(brace))
    return Ideal(brace, seeded_closure(brace.order, seed, families))


def _check_ideal_cap(n: int) -> None:
    if n > DEFAULT_IDEAL_CAP:
        raise SizeCapExceeded(f"order {n} exceeds the ideal enumeration cap {DEFAULT_IDEAL_CAP}")


class _Tables:
    """Braces of one order n on a leading brace axis: add and circ as flat
    (B * n, n) tables and neg and inv as flat (B * n,) arrays, row
    b * n + a the row of label a in brace b, and each brace's
    ``add_gens`` and ``circ_gens`` as row b of a (B, k) int64 matrix,
    padded with label 0.  A stack of one reads its brace's own tables, so
    a ``groups.PairTable`` is never made dense."""

    def __init__(self, braces: list[FiniteSkewBrace]):
        self.braces = braces
        self.n = braces[0].order
        names = ("add", "circ", "neg", "inv")
        if len(braces) == 1:
            tables = [getattr(braces[0], t) for t in names]
        else:
            tables = [np.concatenate([getattr(b, t) for b in braces]) for t in names]
        self.add, self.circ, self.neg, self.inv = tables
        for name in ("add_gens", "circ_gens"):
            sets = [getattr(b, name) for b in braces]
            columns = list(itertools.zip_longest(*sets, fillvalue=0))
            setattr(self, name, np.array(columns, dtype=np.int64).reshape(-1, len(sets)).T)


class _Batch(_Tables):
    """``_Tables`` with the ``_stacked_maps`` of its braces and the
    (brace, representative) pairs ``owner`` and ``reps`` of
    ``_orbit_representatives``."""

    def __init__(self, braces: list[FiniteSkewBrace]):
        super().__init__(braces)
        self.maps = _stacked_maps(self)
        self.owner, self.reps = _orbit_representatives(self.maps)


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

    This is a batch of one of ``_batch_ideals``, which lists the ideals
    of many braces of one order at once (``semiprime_verdicts``): each row
    carries its brace's index, which is the sort's first key.  The
    principal ideals are closed in full, since all of them are summed.
    """
    _check_ideal_cap(brace.order)
    batch = _Batch([brace])
    _, masks = _batch_ideals(batch, _principal_masks(batch, False)[0])
    masks.setflags(write=False)
    return masks


def _batch_ideals(batch: _Batch, principal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, masks): every ideal of every brace of ``batch``, mask row r
    an ideal of brace owner[r], ordered by brace, then as in
    ``ideal_masks``, from the ``principal`` masks of ``_principal_masks``.

    Pass t sums the principal ideal P_t of each brace's t-th
    representative r_t with that brace's ideals found so far.  A brace with
    fewer representatives takes r_t = 0 after its last one: every ideal
    holds 0, so none of its rows is summed.  Each brace's principal labels
    fill one row of a table padded with 0, and add[c, 0] = c is already in
    the row being summed, so pass t gathers add[b * n + c, labels[b]] for
    every brace b and label c once, and a member c of a row of brace b
    takes row b * n + c of that gather.

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
    add, owner, reps = batch.add, batch.owner, batch.reps
    B, n = len(batch.braces), batch.n
    step = np.arange(reps.size) - np.searchsorted(owner, owner)   # t of each (brace, r_t)
    steps = int(step.max(initial=-1)) + 1
    rank = np.full((B, n), steps, dtype=np.int16)                 # t of a label r_t, else steps
    rank[owner, reps] = step
    rep_at = np.zeros((steps, B), dtype=np.int64)
    rep_at[step, owner] = reps
    labels_at = np.zeros((steps, B, n), dtype=np.int64)
    labels_at[step, owner] = np.sort(np.where(principal, np.arange(n), 0), axis=1)
    width = np.zeros((steps, B), dtype=np.int64)                  # |P_t| of each brace
    width[step, owner] = principal.sum(axis=1)
    row = np.arange(B)[:, None, None] * n + np.arange(n)[:, None]    # b * n + c
    known_owner = np.arange(B)
    known = np.zeros((B, n), dtype=bool)
    known[:, 0] = True
    for t in range(steps):
        labels = labels_at[t][:, None, n - width[t].max():]       # members last, 0 before them
        sum_rows = add[row, labels].reshape(B * n, -1)
        miss = ~known[np.arange(known_owner.size), rep_at[t][known_owner]]
        grow_owner, grow = known_owner[miss], known[miss]
        rows, cols = np.nonzero(grow)
        sums = np.zeros_like(grow)
        sums[rows[:, None], sum_rows[grow_owner[rows] * n + cols]] = True
        keep = ~(sums & ~grow & (rank[grow_owner] < t)).any(axis=1)
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
    """True when a * b = 0 everywhere.  a * b = 0 exactly when
    a o b = a + b (``_stars_vanish``), so this compares the two tables in
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
    are those of the maps of every x (the argument is in ``_orbit_maps``).
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


def _principal_masks(batch: _Batch, abort: bool) -> tuple[np.ndarray, np.ndarray]:
    """(masks, vanish): row t of the (R, n) bool ``masks`` is the
    principal ideal of reps[t] in brace b = owner[t] of the batch, the
    least ideal holding it, and vanish[t] says whether a * c = 0 for all
    its members a, c.  With ``abort`` a row stops at its first nonzero
    star, with vanish[t] False and masks[t] part of the ideal, and the
    rows of a brace with a vanishing row in an earlier block are not
    closed at all (a block of them all is skipped): only each brace's
    first vanishing row is then exact, which is all ``semiprime_verdicts``
    reads when "fast" is its only method.

    Every label has its orbit representative's principal ideal.  Each map
    of ``_orbit_representatives`` sends a into every ideal that holds a,
    and its inverse is a map of the same kind (lambda_x by lambda_x',
    conjugation by x by conjugation by x' or -x, and the two inversions
    by themselves), so all of an orbit has one principal ideal.

    Each row keeps its members M_t and frontier F_t (within M_t), seeded
    with {0, reps[t]} and {reps[t]}.  A round scatters, for all rows of a
    block, maps[b, :, f] over the frontier entries f and f o m over each
    pair of a frontier entry f and a member m of its row; the candidates
    outside M_t are the next F_t.  Rows never mix, so row t reaches the
    fixed point of its own closure.  That is the closure of
    ``frontier_closure`` over ``_ideal_families``, whose families make
    each candidate made here and m o f too, under which the fixed point is
    closed as well.  It is closed under the maps, so under conjugation by
    every element (``_orbit_maps``), and under a o c for members a, c: if
    c came no later than a, a o c was scattered in a's round; if a came
    earlier, a o c = a o (c o a) o a' is a conjugate of the c o a
    scattered in c's round.

    a * c = lambda_a(c) - c with lambda_a(c) = -a + a o c, so a * c = 0
    exactly when a o c = a + c, and each round tests that both ways on
    the same pairs.  Every pair of members is tested: in the round where
    the later of the two (either, if they came together) is in the
    frontier, the other is a member.  So a row that closes without a
    nonzero star vanishes, and a star found in a round is one between
    members of the final ideal, which then does not vanish.

    A row has at most n frontier entries and n members, so a block of
    ``_row_blocks(n, R)`` rows pairs at most about 2^20 of them a round.
    Above order 1024 a block is one row, and its pairs are gathered for
    chunks of at most about 2^20 / n frontier entries.
    """
    add, circ, maps, owner, reps, n = (batch.add, batch.circ, batch.maps, batch.owner,
                                       batch.reps, batch.n)
    masks = np.zeros((reps.size, n), dtype=bool)
    masks[:, 0] = True
    masks[np.arange(reps.size), reps] = True
    vanish = np.zeros(reps.size, dtype=bool)
    witnessed = np.zeros(len(batch.braces), dtype=bool)   # a vanishing row so far
    for t0, t1 in _row_blocks(n, reps.size):
        block = owner[t0:t1]
        stopped = abort & witnessed[block]        # a star showed, or (abort) never started
        if stopped.all():
            continue
        members = masks[t0:t1]                    # a view: grows masks in place
        frontier = np.zeros_like(members)
        frontier[np.arange(t1 - t0), reps[t0:t1]] = ~stopped
        while True:
            rows, F = np.nonzero(frontier)
            if not rows.size:
                break
            b = block[rows]
            base = b * n                          # each entry's brace in the flat tables
            hit = np.zeros_like(members)
            hit[rows[:, None], maps[b, :, F]] = True
            for e0, e1 in _row_blocks(n, rows.size, n):
                e, m = np.nonzero(members[rows[e0:e1]])   # entry e0 + e, member m of its row
                e += e0
                f, r = F[e], rows[e]
                fx, mx = base[e] + f, base[e] + m         # rows of the flat tables
                fm = circ[fx, m]
                stopped[r[(fm != add[fx, m]) | (circ[mx, f] != add[mx, f])]] = True
                hit.reshape(-1)[r * n + fm] = True
            if abort:
                hit[stopped] = False
            frontier = hit > members              # hit and not a member
            members |= frontier
        vanish[t0:t1] = ~stopped
        witnessed[block[~stopped]] = True
    return masks, vanish


def _stars_vanish(tables: _Tables, owner: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(R,) bool: whether a * c = 0 for all members a, c of row r, a set
    of brace owner[r] of ``tables``: whether a o c = a + c for all of
    them (``_principal_masks``).  Blocks of ``_row_blocks(n, R)`` rows
    gather about 2^20 entries."""
    n = tables.n
    differ = (tables.add != tables.circ).reshape(-1, n, n)     # a o c != a + c
    vanish = np.empty(len(masks), dtype=bool)
    for r0, r1 in _row_blocks(n, len(masks)):
        m = masks[r0:r1]
        vanish[r0:r1] = ~(differ[owner[r0:r1]] & m[:, :, None] & m[:, None, :]).any(axis=(1, 2))
    return vanish


def _vanishing_ideals(pairs: list[tuple[FiniteSkewBrace, Iterable[int]]]) -> list[bool]:
    """For each (brace, members), braces within the ideal cap: whether the
    members form an ideal with I * I = 0, from one ``_failed_rules`` call
    and one ``_stars_vanish`` call per order.  A member out of range
    raises ``PreconditionError``, as in ``is_ideal``."""
    by_order: dict[int, list[int]] = {}
    for i, (brace, _) in enumerate(pairs):
        by_order.setdefault(brace.order, []).append(i)
    good = [False] * len(pairs)
    for n, index in by_order.items():
        owner = np.arange(len(index))
        sets = [_member_labels(n, pairs[i][1]) for i in index]
        masks = np.zeros((len(index), n), dtype=bool)
        masks[np.repeat(owner, [m.size for m in sets]), np.concatenate(sets)] = True
        tables = _Tables([pairs[i][0] for i in index])
        ideal = np.array([rule is None for rule in _failed_rules(tables, owner, masks)])
        for i, ok in zip(index, ideal & _stars_vanish(tables, owner, masks)):
            good[i] = bool(ok)
    return good


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
    """``is_semiprime`` of every brace, in input order, with one
    ``_Batch`` per order up to ``DEFAULT_IDEAL_CAP`` and one per brace
    above it.  ``method`` is "fast", "exhaustive", or a tuple of them; a
    tuple gives one list per method, all read from the same batches, so
    each brace's maps and principal ideals are built once.  An exhaustive
    verdict above the cap raises ``SizeCapExceeded``, as ``ideal_masks``
    does.

    fast: the witness is each brace's first representative row
    (ascending) whose stars vanish (``_principal_masks``, which aborts
    rows when "fast" is the only method).  All of an orbit has one
    principal ideal, so this is the principal ideal of the least label
    whose principal ideal vanishes.
    exhaustive: the witness is the first vanishing row after {0} in each
    brace's ``ideal_masks`` order, the smallest vanishing nonzero ideal.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    for m in methods:
        if m not in ("fast", "exhaustive"):
            raise PreconditionError(f"unknown method {m!r}, expected 'fast' or 'exhaustive'")
    braces = list(braces)
    by_order: dict[int, list[int]] = {}
    for i, brace in enumerate(braces):
        by_order.setdefault(brace.order, []).append(i)
    witnesses = {m: [None] * len(braces) for m in methods}
    for n, index in by_order.items():
        if "exhaustive" in methods:
            _check_ideal_cap(n)
        for group in [index] if n <= DEFAULT_IDEAL_CAP else [[i] for i in index]:
            batch = _Batch([braces[i] for i in group])
            principal, vanish = _principal_masks(batch, methods == ("fast",))
            for m in methods:
                for i, witness in zip(group, _batch_witnesses(batch, m, principal, vanish)):
                    witnesses[m][i] = witness
    lists = [[SemiprimeVerdict(w is None, w, m) for w in witnesses[m]] for m in methods]
    return lists[0] if isinstance(method, str) else tuple(lists)


def _batch_witnesses(batch: _Batch, method: str, principal: np.ndarray,
                     vanish: np.ndarray) -> list[Ideal | None]:
    """The witness of each brace of the batch (``semiprime_verdicts``),
    None for a semiprime one, from the ``_principal_masks`` of the batch:
    its first candidate row whose stars vanish."""
    owner, masks = batch.owner, principal
    if method == "exhaustive":
        owner, masks = _batch_ideals(batch, principal)
        nonzero = masks[:, 1:].any(axis=1)
        owner, masks = owner[nonzero], masks[nonzero]
        vanish = _stars_vanish(batch, owner, masks)
    hits = np.flatnonzero(vanish)[::-1]
    first = dict(zip(owner[hits].tolist(), hits.tolist()))     # the last write, the first hit, wins
    return [Ideal(brace, frozenset(np.flatnonzero(masks[first[b]]).tolist())) if b in first else None
            for b, brace in enumerate(batch.braces)]


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
