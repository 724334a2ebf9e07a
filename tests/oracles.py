"""Independent reference implementations used only by the tests.

Everything here is written from the definitions with plain loops, no
shortcuts shared with the package, so a bug in the fast paths cannot
cancel itself out in the comparison.  The exceptions are former fast
paths kept as the references for the ones that replaced them:
``is_ideal_per_set``, ``frontier_ideal_closure``,
``ascending_principal_scan``, ``principal_star_scan``,
``orbit_representatives_loop``, ``pairwise_join_ideals``,
``lemma31_case_loop``, ``lemma32_lift_case``, ``perm_composition_lookup``,
``lambda_system_search_loop``, ``homomorphisms_loop`` and ``braid_loop``.
"""

from __future__ import annotations

import itertools

import numpy as np

from brace_forge.core import (
    closure_generators,
    fmt_members,
    lam_block,
    normalize_members,
    star_block,
)
from brace_forge.ideals import (
    _orbit_representatives,
    _stacked_maps,
    _Tables,
    is_ideal,
)
from brace_forge.products import pointwise_lift, wreath_base
from brace_forge.verify import CaseResult


def is_group_table(t) -> bool:
    t = np.asarray(t)
    n = t.shape[0]
    for a in range(n):
        if t[0][a] != a or t[a][0] != a:
            return False
    for a in range(n):
        if not any(t[a][b] == 0 and t[b][a] == 0 for b in range(n)):
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return False
    return True


def neg_of(add, a: int) -> int:
    n = len(add)
    for x in range(n):
        if add[a][x] == 0 and add[x][a] == 0:
            return x
    raise ValueError(f"{a} has no additive inverse")


def inv_of(circ, a: int) -> int:
    n = len(circ)
    for x in range(n):
        if circ[a][x] == 0 and circ[x][a] == 0:
            return x
    raise ValueError(f"{a} has no circle inverse")


def lambda_of(add, circ, a: int, b: int) -> int:
    return add[neg_of(add, a)][circ[a][b]]


def star_of(add, circ, a: int, b: int) -> int:
    return add[lambda_of(add, circ, a, b)][neg_of(add, b)]


def brace_relation_holds(add, circ) -> bool:
    n = len(add)
    for a in range(n):
        na = neg_of(add, a)
        for b in range(n):
            for c in range(n):
                if circ[a][add[b][c]] != add[add[circ[a][b]][na]][circ[a][c]]:
                    return False
    return True


def is_brace_pair(add, circ) -> bool:
    return (is_group_table(add) and is_group_table(circ)
            and brace_relation_holds(add, circ))


def naive_is_ideal(brace, members) -> bool:
    """Definitional ideal check: circle subgroup, closed under circle
    conjugation and every lambda, and a + I = I + a for every a."""
    S = set(int(x) for x in members)
    n = brace.order
    add = brace.add.tolist()
    circ = brace.circ.tolist()
    if 0 not in S:
        return False
    for x in S:
        if inv_of(circ, x) not in S:
            return False
        for y in S:
            if circ[x][y] not in S:
                return False
    for a in range(n):
        ia = inv_of(circ, a)
        for x in S:
            if circ[circ[a][x]][ia] not in S:
                return False
            if lambda_of(add, circ, a, x) not in S:
                return False
        left = {add[a][x] for x in S}
        right = {add[x][a] for x in S}
        if left != right:
            return False
    return True


def is_ideal_per_set(brace, members) -> tuple[bool, str | None]:
    """One member set at a time, the reference for the batched rule
    kernel ``ideals._failed_rules``: (flag, first failed check) in the
    order circ-subgroup, circ-normality, lambda-invariance,
    coset-symmetry, stars, with coset-symmetry a comparison of the sorted
    rows a + I and I + a and stars a nonzero a * c of members a, c
    (``star_block``)."""
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
    if star_block(brace, S, S).any():
        return False, "stars"
    return True, None


def lemma32_lift_case(case_id, G, H, verdict):
    """One lemma32 lift case alone, the reference for the batched
    ``verify._batch_lemma32_lift``: the pointwise lift of G's witness to
    the base of G and H must be a nonzero ideal (``is_ideal``) whose stars
    vanish (``star_block``)."""
    if verdict.semiprime:
        return CaseResult(case_id, False, "expected a non-semiprime bottom brace")
    W, ctx = wreath_base(G, H)
    lifted = pointwise_lift(ctx, verdict.witness.sorted())
    wit = tuple(int(x) for x in lifted)
    if lifted.size <= 1:
        return CaseResult(case_id, False, "lift is zero", witness=wit)
    ok, rule = is_ideal(W, lifted)
    if not ok:
        return CaseResult(case_id, False, f"lift fails {rule}", witness=wit)
    if star_block(W, lifted, lifted).any():
        return CaseResult(case_id, False, "lifted stars do not vanish", witness=wit)
    return CaseResult(
        case_id, True,
        f"witness={fmt_members(verdict.witness.members)} lift_size={lifted.size} "
        f"certifies W order={W.order} not semiprime")


def powerset_ideals(brace) -> list[tuple[int, ...]]:
    """All ideals by filtering every subset containing 0."""
    n = brace.order
    rest = [x for x in range(1, n)]
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            S = (0,) + combo
            if naive_is_ideal(brace, S):
                out.append(S)
    return sorted(out, key=lambda s: (len(s), s))


def group_tables_with_identity(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every group table on {0..n-1} with identity 0, by backtracking over
    Latin squares and filtering associativity.  Feasible for n <= 6."""
    if n == 1:
        return [((0,),)]
    rows = [list(range(n))] + [[-1] * n for _ in range(n - 1)]
    for a in range(1, n):
        rows[a][0] = a
    col_used = [set(range(1, n)) if j == 0 else {j} for j in range(n)]
    out = []

    def fill(a: int, j: int):
        if a == n:
            t = tuple(tuple(r) for r in rows)
            if is_group_table(t):
                out.append(t)
            return
        if j == n:
            fill(a + 1, 1)
            return
        row_used = set(rows[a][:j])
        for v in range(n):
            if v in row_used or v in col_used[j]:
                continue
            rows[a][j] = v
            col_used[j].add(v)
            fill(a, j + 1)
            col_used[j].remove(v)
        rows[a][j] = -1

    fill(1, 1)
    return out


def braces_on_add_table(add) -> list[tuple[tuple[int, ...], ...]]:
    """All circle tables making a skew brace with the given addition."""
    add = tuple(tuple(int(x) for x in row) for row in np.asarray(add))
    n = len(add)
    return [circ for circ in group_tables_with_identity(n)
            if brace_relation_holds(add, circ)]


def cyclic_prime_tables(p: int) -> list[tuple[tuple[int, ...], ...]]:
    """All group tables on {0..p-1} with identity 0 for prime p: every
    such group is cyclic, so they are the 0-fixing relabelings of Z/p."""
    base = [[(a + b) % p for b in range(p)] for a in range(p)]
    seen = set()
    for perm in itertools.permutations(range(1, p)):
        sigma = (0,) + perm
        inv = [0] * p
        for i, s in enumerate(sigma):
            inv[s] = i
        t = tuple(tuple(sigma[base[inv[a]][inv[b]]] for b in range(p)) for a in range(p))
        seen.add(t)
    return sorted(seen)


def tables_isomorphic(t1, t2) -> bool:
    """Brute-force isomorphism test for tables of order <= 8."""
    t1 = np.asarray(t1)
    t2 = np.asarray(t2)
    n = t1.shape[0]
    if t2.shape[0] != n:
        return False
    if n > 8:
        raise ValueError("brute force capped at order 8")
    for rest in itertools.permutations(range(1, n)):
        p = np.array((0,) + rest)
        if np.array_equal(p[t1], t2[np.ix_(p, p)]):
            return True
    return False


def brute_force_automorphisms(table) -> list[np.ndarray]:
    """Automorphisms of a group table of order <= 8 by brute force over
    the identity-fixing permutations, as arrays of the table's dtype in
    lexicographic order (identity first)."""
    n = table.shape[0]
    if n > 8:
        raise ValueError("brute force capped at order 8")
    out = []
    for rest in itertools.permutations(range(1, n)):
        p = np.array((0,) + rest, dtype=table.dtype)
        if np.array_equal(p[table], table[np.ix_(p, p)]):
            out.append(p)
    return out


def naive_generated_subbrace(brace, seed) -> set[int]:
    """Closure of seed under add, circ, and both kinds of inverses."""
    add = brace.add.tolist()
    circ = brace.circ.tolist()
    S = {0} | {int(x) for x in seed}
    while True:
        new = set()
        for x in S:
            new.add(neg_of(add, x))
            new.add(inv_of(circ, x))
            for y in S:
                new.add(add[x][y])
                new.add(circ[x][y])
        if new <= S:
            return S
        S |= new


def join_closure(generators, join) -> list[frozenset[int]]:
    """Least family of sets that holds ``generators`` and is closed under
    ``join``, a lattice join on sets ordered by inclusion.  Every join of
    members is a join of generators, so joining each member with each
    generator reaches the whole family; a generator already inside a
    member leaves it unchanged.  Sorted by size, then members."""
    generators = {frozenset(g) for g in generators}
    family = set(generators)
    todo = list(family)
    while todo:
        member = todo.pop()
        for g in generators:
            if g <= member:
                continue
            joined = frozenset(join(member, g))
            if joined not in family:
                family.add(joined)
                todo.append(joined)
    return sorted(family, key=lambda s: (len(s), sorted(s)))


def element_orbits(brace) -> list[set[int]]:
    """Orbits of the carrier under the maps lambda_x, a -> x o a o x^-1,
    a -> x + a - x, a -> a^-1 and a -> -a, ordered by least element."""
    add = brace.add.tolist()
    circ = brace.circ.tolist()
    n = brace.order
    neg = [neg_of(add, a) for a in range(n)]
    inv = [inv_of(circ, a) for a in range(n)]

    def images(a):
        yield inv[a]
        yield neg[a]
        for x in range(n):
            yield circ[circ[x][a]][inv[x]]
            yield add[add[x][a]][neg[x]]
            yield add[neg[x]][circ[x][a]]

    orbits = []
    done: set[int] = set()
    for a in range(n):
        if a in done:
            continue
        orbit = {a}
        todo = [a]
        while todo:
            for b in images(todo.pop()):
                if b not in orbit:
                    orbit.add(b)
                    todo.append(b)
        done |= orbit
        orbits.append(orbit)
    return orbits


def frontier_closure(mask: np.ndarray, frontier: np.ndarray, families) -> np.ndarray:
    """Grow ``mask`` in place to a fixed point, expanding only from
    ``frontier``: each round ``families(F, M)`` returns the candidate
    arrays generated by the frontier F against all members M, and the
    candidates not yet in ``mask`` form the next frontier.  Returns
    ``mask``.  The closure engine ``ideals._principal_masks`` replaced."""
    while frontier.size:
        hit = np.zeros_like(mask)
        hit[np.concatenate(families(frontier, np.flatnonzero(mask)))] = True
        frontier = np.flatnonzero(hit & ~mask)
        mask[frontier] = True
    return mask


def orbit_maps(brace) -> np.ndarray:
    """The (k, n) element maps of one brace, ``ideals._stacked_maps``."""
    return _stacked_maps(_Tables([brace]))[0]


def ideal_families(brace, maps):
    """Candidate generators of the least ideal for ``frontier_closure``:
    circle products with the members both ways (m o f on purpose: the
    kernel scatters f o m only), and the images under ``maps``."""
    circ = brace.circ

    def families(F, M):
        return [circ[F[:, None], M].ravel(), circ[M[:, None], F].ravel(),
                maps[:, F].ravel()]

    return families


def frontier_ideal_closure(brace, seed) -> frozenset[int]:
    """Least ideal holding 0 and ``seed`` by ``frontier_closure`` over
    ``ideal_families``: the engine ``ideal_closure`` ran before it became
    a row of ``ideals._principal_masks``, the reference for that kernel."""
    mask = np.zeros(brace.order, dtype=bool)
    mask[0] = True
    mask[normalize_members(brace.order, seed)] = True
    frontier_closure(mask, np.flatnonzero(mask), ideal_families(brace, orbit_maps(brace)))
    return frozenset(np.flatnonzero(mask).tolist())


def _star_free_closure(brace, a, families):
    """The principal ideal of ``a`` grown one frontier at a time by
    ``families`` (``ideal_families``), as a mask, or None at the first
    round whose frontier has a nonzero star with a member, either way
    round."""
    mask = np.zeros(brace.order, dtype=bool)
    mask[[0, a]] = True
    frontier = np.array([a])
    while frontier.size:
        members = np.flatnonzero(mask)
        if star_block(brace, frontier, members).any() or star_block(brace, members, frontier).any():
            return None
        hit = np.zeros_like(mask)
        hit[np.concatenate(families(frontier, members))] = True
        frontier = np.flatnonzero(hit & ~mask)
        mask[frontier] = True
    return mask


def ascending_principal_scan(brace):
    """The principal-ideal star scan over every label 1..n-1 in ascending
    order, the reference for the orbit-reduced ``principal_star_scan``.
    It grows each closure with the package's ideal maps and stops it at
    the first nonzero star, so it shares those maps with the fast path;
    ``test_fast_witness_is_least_principal_witness`` checks them apart
    from it.  Returns the first witness's sorted members, or None."""
    families = ideal_families(brace, orbit_maps(brace))
    for a in range(1, brace.order):
        mask = _star_free_closure(brace, a, families)
        if mask is not None:
            return tuple(int(x) for x in np.flatnonzero(mask))
    return None


def principal_star_scan(brace):
    """The single-brace fast scan that the aborting batch of
    ``ideals._principal_masks`` replaced: the principal ideal of each
    orbit representative (``_orbit_representatives``), ascending, grown
    until its first nonzero star.  Returns the first closure that
    completes as sorted members, or None."""
    maps = orbit_maps(brace)
    families = ideal_families(brace, maps)
    for a in _orbit_representatives(maps[None])[1].tolist():
        mask = _star_free_closure(brace, a, families)
        if mask is not None:
            return tuple(int(x) for x in np.flatnonzero(mask))
    return None


def orbit_representatives_loop(brace) -> list[int]:
    """The least label of each orbit but {0} under the maps of
    ``orbit_maps``, ascending, by one ``frontier_closure`` of the maps per
    orbit: the loop that the min-label propagation of
    ``_orbit_representatives`` replaced."""
    maps = orbit_maps(brace)

    def images(F, M):
        return [maps[:, F].ravel()]

    seen = np.zeros(brace.order, dtype=bool)
    reps = []
    for a in range(1, brace.order):
        if not seen[a]:
            reps.append(a)
            seen[a] = True
            frontier_closure(seen, np.array([a]), images)
    return reps


def magma_generators(table) -> list[int]:
    """Greedy generating set by magma closures: the least label outside
    the closure so far joins the list, and the closure grows under the
    products of every member with every member, both ways.  The search
    ``closure_generators`` replaced."""
    table = np.asarray(table)
    n = table.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    gens = []
    while not mask.all():
        g = int(np.flatnonzero(~mask)[0])
        gens.append(g)
        mask[g] = True
        frontier = np.array([g])
        while frontier.size:
            members = np.flatnonzero(mask)
            cand = np.concatenate([table[np.ix_(frontier, members)].ravel(),
                                   table[np.ix_(members, frontier)].ravel()])
            frontier = np.unique(cand[~mask[cand]])
            mask[frontier] = True
    return gens


def generated_by(table, gens) -> set[int]:
    """Closure of {0} under right multiplication by ``gens``: for a finite
    group table, the subgroup the elements of ``gens`` generate."""
    table = np.asarray(table)
    seen = {0}
    todo = [0]
    while todo:
        x = todo.pop()
        for g in gens:
            y = int(table[x, g])
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def pairwise_join_ideals(brace) -> list[frozenset[int]]:
    """The ideal lattice summed one known ideal at a time, the reference
    for the batched join of ``enumerate_ideals``: per orbit
    representative a (``orbit_representatives_loop``), a's principal
    ideal is closed on its own, and every ideal found so far that misses
    a is summed with it by one gather.  Returns the member sets in the
    order ``enumerate_ideals`` lists them."""
    n = brace.order
    zero = np.zeros(n, dtype=bool)
    zero[0] = True
    known = {np.packbits(zero).tobytes(): zero}
    for a in orbit_representatives_loop(brace):
        P = np.fromiter(sorted(frontier_ideal_closure(brace, [a])), dtype=np.int64)
        for base in list(known.values()):
            if base[a]:
                continue
            mask = np.zeros(n, dtype=bool)
            mask[brace.add[np.ix_(np.flatnonzero(base), P)]] = True
            known.setdefault(np.packbits(mask).tobytes(), mask)
    sets = [frozenset(int(x) for x in np.flatnonzero(m)) for m in known.values()]
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def lemma31_case_loop(G, H):
    """The lemma31 case checked one projection at a time, the reference
    for the projection scatter of ``verify._lemma31_case``: for each ideal
    of the base, then each position h, the sorted digits at h are looked
    up among the ideals of G, and ``is_ideal`` names the rule on a miss.
    Returns (ok, info, witness)."""
    W, ctx = wreath_base(G, H)
    digits = ctx.digit_matrix()
    g_ideals = {tuple(sorted(s)) for s in pairwise_join_ideals(G)}
    ideal_members = [np.array(sorted(s), dtype=np.int64) for s in pairwise_join_ideals(W)]
    for members in ideal_members:
        digs = digits[members]
        for h in range(H.order):
            proj = np.unique(digs[:, h])
            if tuple(proj.tolist()) in g_ideals:
                continue
            ok, rule = is_ideal(G, proj)
            if not ok:
                return (False, f"ideal={fmt_members(members)} h={h} fails {rule}",
                        tuple(int(x) for x in proj))
    return True, f"ideals={len(ideal_members)} positions={H.order}", ()


def perm_composition_lookup(perms) -> np.ndarray:
    """The composition table of ``autos.perm_composition`` by one dict
    lookup per composed permutation: entry [i, j] = index of perms[i]
    after perms[j], as int64."""
    stacked = np.stack(perms)
    index = {p.tobytes(): i for i, p in enumerate(stacked)}
    k, n = stacked.shape
    composed = stacked[:, stacked].reshape(k * k, n)   # row i*k + j is p_i[p_j]
    return np.array([index[c.tobytes()] for c in composed], dtype=np.int64).reshape(k, k)


def lambda_system_search_loop(add, auts) -> list[np.ndarray]:
    """The circ tables of every lambda-system on ``add`` (see
    ``corpus._lambda_system_search``) by the unpruned search: each
    automorphism is tried for the free element in turn and checked by
    forward propagation alone; a table is built row by row in Python."""
    n = add.shape[0]
    k = len(auts)
    aut_rows = [tuple(int(x) for x in p) for p in auts]
    comp = perm_composition_lookup(auts).tolist()
    addl = [tuple(int(x) for x in row) for row in add]

    alpha = [-1] * n
    alpha[0] = 0
    assigned = [0]
    results = []

    def propagate(queue, trail):
        while queue:
            a = queue.pop()
            for i in range(len(assigned)):
                b = assigned[i]
                for x, y in ((a, b), (b, a)):
                    c = addl[x][aut_rows[alpha[x]][y]]
                    req = comp[alpha[x]][alpha[y]]
                    if alpha[c] == -1:
                        alpha[c] = req
                        assigned.append(c)
                        trail.append(c)
                        queue.append(c)
                    elif alpha[c] != req:
                        return False
        return True

    def undo(trail):
        for c in trail:
            alpha[c] = -1
        del assigned[len(assigned) - len(trail):]

    def dfs():
        try:
            free = alpha.index(-1)
        except ValueError:
            results.append(np.array([[addl[a][aut_rows[alpha[a]][b]] for b in range(n)]
                                     for a in range(n)], dtype=add.dtype))
            return
        for t in range(k):
            alpha[free] = t
            assigned.append(free)
            trail = [free]
            if propagate([free], trail):
                dfs()
            undo(trail)

    if propagate([0], []):
        dfs()
    return results


def homomorphisms_loop(table, target, budget=None) -> list[np.ndarray]:
    """The maps of ``autos._homomorphisms`` by the unpruned search: every
    choice of images of the closure generators in ``itertools.product``
    order, extended one element at a time in Python and checked on the
    generators; int64 image arrays, the first ``budget`` of them."""
    table = np.asarray(table)
    m = table.shape[0]
    k = target.shape[0]
    gens, steps = closure_generators(table)
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


def braid_loop(sol) -> tuple[bool, tuple[int, int, int] | None]:
    """The braid relation checked one row a at a time, both sides'
    components compared apart: the loop the row-blocked scan of
    ``ybe.check_braid`` replaced.  Returns the first failing triple."""
    u, v, n = sol.u, sol.v, sol.n
    bb = np.broadcast_to(np.arange(n)[:, None], (n, n))
    cc = np.broadcast_to(np.arange(n)[None, :], (n, n))
    for a in range(n):
        a1, b1 = u[a, bb], v[a, bb]            # left: r12, r23, r12
        b2, c2 = u[b1, cc], v[b1, cc]
        la, lb, lc = u[a1, b2], v[a1, b2], c2
        b3, c3 = u[bb, cc], v[bb, cc]          # right: r23, r12, r23
        a4, b4 = u[a, b3], v[a, b3]
        ra, rb, rc = a4, u[b4, c3], v[b4, c3]
        diff = (la != ra) | (lb != rb) | (lc != rc)
        if diff.any():
            i, j = np.argwhere(diff)[0]
            return False, (a, int(i), int(j))
    return True, None
