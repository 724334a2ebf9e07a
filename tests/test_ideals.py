from collections import Counter

import numpy as np
import pytest

from brace_forge import (
    Ideal,
    PreconditionError,
    SizeCapExceeded,
    as_ideal,
    check_semiprime_extension,
    enumerate_ideals,
    group_brace,
    holomorph_enumerate,
    ideal_closure,
    is_ideal,
    is_semiprime,
    is_trivial,
    pointwise_lift,
    quotient,
    restrict,
    semidirect,
    semiprime_verdicts,
    sigma_actions,
    trivial_sigma,
    wreath_base,
)
from brace_forge import core, groups, ideals
from brace_forge.ideals import (
    IDEAL_RULES,
    _failed_rules,
    _orbit_representatives,
    _principal_masks,
)

import oracles


def _direct_square(brace):
    return semidirect(brace, brace, trivial_sigma(brace, brace))


class TestR4Ideals:
    """The order-4 radical ring brace has exactly three ideals:
    {0}, {0,2}, and the whole carrier; {0,2} is the semiprime witness."""

    def test_enumeration(self, R4):
        ideals = [i.sorted() for i in enumerate_ideals(R4)]
        assert ideals == [(0,), (0, 2), (0, 1, 2, 3)]

    def test_is_ideal_spot_checks(self, R4):
        assert is_ideal(R4, [0, 2]) == (True, None)
        assert is_ideal(R4, [0]) == (True, None)
        # {0,1} is circ-closed (1 o 1 = 0) but lambda_1(1) = 3 escapes
        ok, rule = is_ideal(R4, [0, 1])
        assert not ok and rule == "lambda-invariance"
        ok, rule = is_ideal(R4, [1, 2])
        assert not ok and rule == "circ-subgroup"  # missing 0

    def test_witness(self, R4):
        for method in ("fast", "exhaustive"):
            verdict = is_semiprime(R4, method)
            assert not verdict.semiprime
            assert verdict.witness.sorted() == (0, 2)
            assert verdict.method == method

    def test_quotient_is_t2(self, R4, T2):
        q, coset = quotient(R4, [0, 2])
        assert q.order == 2
        assert q.add.tolist() == T2.add.tolist()
        assert q.circ.tolist() == T2.circ.tolist()
        assert coset.tolist() == [0, 1, 0, 1]

    def test_restrict_witness(self, R4, T2):
        sub = restrict(R4, [0, 2])
        assert sub == T2          # {0,2} with trivial star is the order-2 brace
        assert is_trivial(sub)


def test_naive_is_ideal_agreement(R4, S3at, corpus8):
    rng = np.random.default_rng(7)
    samples = [R4, S3at] + [b for b in corpus8 if b.order in (4, 6, 8)][:8]
    for brace in samples:
        n = brace.order
        subsets = {frozenset([0]), frozenset(range(n))}
        for _ in range(40):
            k = int(rng.integers(1, n + 1))
            subsets.add(frozenset([0, *map(int, rng.choice(n, size=k))]))
        for S in subsets:
            got, _ = is_ideal(brace, S)
            assert got == oracles.naive_is_ideal(brace, S), (brace.name, sorted(S))


def _lifted_not_greedy(brace) -> bool:
    """Whether a generating set of the brace is not its table's greedy set."""
    return any(set(gens) != set(core.closure_generators(table)[0])
               for gens, table in ((brace.add_gens, brace.add), (brace.circ_gens, brace.circ)))


@pytest.fixture(scope="module")
def member_sets(corpus8, T2):
    """(brace, members) pairs of mixed sizes: every subset of each corpus
    brace of order <= 4; for the order-8 braces, every 20th of lemma32's
    order-64 bases and the products of orders 8 to 18 whose generators are
    not greedy, their ideals, each ideal with one label added or taken
    away, and seeded random subsets; and every lifted witness of ``verify
    lemma32``."""
    rng = np.random.default_rng(25)
    pairs = []
    for B in corpus8:
        if B.order <= 4:
            pairs += [(B, [a for a in range(B.order) if bits >> a & 1])
                      for bits in range(1 << B.order)]
    bases = [wreath_base(B, T2) for B in corpus8 if B.order == 8]
    # products whose lifted generators are not the greedy sets (14 of 60)
    acted = [P for G in corpus8 if G.order in (4, 6) for H in corpus8 if H.order in (2, 3)
             for P in (semidirect(G, H, act) for act in sigma_actions(G, H))
             if _lifted_not_greedy(P)]
    assert len(acted) == 14
    for B in [B for B in corpus8 if B.order == 8] + [W for W, _ in bases[::20]] + acted:
        n = B.order
        for row in ideals.ideal_masks(B):
            I = np.flatnonzero(row)
            pairs += [(B, I), (B, np.union1d(I, rng.integers(n, size=1))), (B, I[:-1])]
        pairs += [(B, np.flatnonzero(rng.random(n) < p)) for p in (0.1, 0.3, 0.6, 0.9)]
    for B, (W, ctx) in zip([B for B in corpus8 if B.order == 8], bases):
        pairs.append((W, pointwise_lift(ctx, is_semiprime(B).witness.sorted())))
    return pairs


@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_rule_kernel_matches_the_per_set_check(member_sets, monkeypatch, one_row_blocks):
    # the batched kernel and is_ideal, its batch of one, against the
    # per-set reference: flag and first failed check; is_ideal takes an
    # ideal whose stars do not vanish for an ideal
    want = [oracles.is_ideal_per_set(B, S) for B, S in member_sets]
    assert {rule for _, rule in want} == {None, *IDEAL_RULES, "stars"}
    if one_row_blocks:
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    by_order = {}
    for i, (B, _) in enumerate(member_sets):
        by_order.setdefault(B.order, []).append(i)
    got = [None] * len(member_sets)
    for n, index in by_order.items():
        braces = list({id(member_sets[i][0]): member_sets[i][0] for i in index}.values())
        slot = {id(B): k for k, B in enumerate(braces)}
        owner = np.array([slot[id(member_sets[i][0])] for i in index])
        masks = np.zeros((len(index), n), dtype=bool)
        for row, i in zip(masks, index):
            row[np.asarray(member_sets[i][1], dtype=np.int64)] = True
        if not one_row_blocks:
            # the sets of one call come in many sizes, which the kernel
            # cuts into blocks of one size
            assert len(set(masks.sum(axis=1).tolist())) > 1
        for i, rule in zip(index, _failed_rules(ideals._Tables(braces), owner, masks)):
            got[i] = (rule is None, rule)
    assert got == want
    assert [is_ideal(B, S) for B, S in member_sets] == [
        (True, None) if rule == "stars" else (ok, rule) for ok, rule in want]


def test_enumerate_matches_powerset(R4, S3at, corpus8):
    samples = [R4, S3at] + [b for b in corpus8 if b.order == 8][:6]
    for brace in samples:
        got = sorted(i.sorted() for i in enumerate_ideals(brace))
        want = sorted(oracles.powerset_ideals(brace))
        assert got == want, brace.name


def test_sum_of_ideals_is_their_join(corpus8):
    # the lemma enumerate_ideals joins by: I + J is the least ideal
    # containing I and J, so it is enumerated
    for brace in corpus8:
        ideals = [np.fromiter(i.sorted(), dtype=np.int64) for i in enumerate_ideals(brace)]
        listed = {tuple(I.tolist()) for I in ideals}
        for I in ideals:
            for J in ideals:
                total = tuple(np.unique(brace.add[np.ix_(I, J)]).tolist())
                assert total == tuple(sorted(oracles.frontier_ideal_closure(brace, [*I, *J]))), \
                    brace.name
                assert total in listed, brace.name


@pytest.mark.parametrize("g_name,h_name,count", [("T2", "c5#0", 374), ("c2xc4#1", "T2", 91),
                                                  ("c2xc2xc2#1", "T2", 209)])
def test_enumeration_is_join_closure_of_principals(corpus8, g_name, h_name, count):
    # the reference joins by closure, never by sums
    named = {b.name: b for b in corpus8}
    W, _ = wreath_base(named[g_name], named[h_name])
    principals = [oracles.frontier_ideal_closure(W, [a]) for a in range(W.order)]
    want = oracles.join_closure(principals, lambda X, Y: oracles.frontier_ideal_closure(W, X | Y))
    got = [i.members for i in enumerate_ideals(W)]
    assert len(got) == count
    assert got == want


def test_batched_join_matches_pairwise_join(corpus8):
    # same ideals in the same order, on every corpus brace and lemma31 base
    for brace in [*corpus8, *_lemma31_bases(corpus8)]:
        got = [i.members for i in enumerate_ideals(brace)]
        assert got == oracles.pairwise_join_ideals(brace), brace.name


def test_enumerate_closes_one_principal_ideal_per_orbit(corpus8, monkeypatch):
    # the principal ideals are the rows of one batch, one row per nonzero orbit
    batch_rows = []
    real = ideals._principal_masks

    def counting(batch, abort, seeds=None):
        masks = real(batch, abort, seeds)
        batch_rows.append(masks.shape[0])
        return masks

    monkeypatch.setattr(ideals, "_principal_masks", counting)
    named = {b.name: b for b in corpus8}
    bases = [wreath_base(named["T2"], named["c5#0"])[0],
             wreath_base(named["c2xc4#1"], named["T2"])[0]]
    for brace in [*corpus8, *bases]:
        batch_rows.clear()
        enumerate_ideals(brace)
        assert batch_rows == [len(oracles.element_orbits(brace)) - 1], brace.name


def test_enumeration_order_is_size_then_lex(corpus8):
    for brace in [*corpus8, *_lemma31_bases(corpus8)]:
        masks = ideals.ideal_masks(brace)
        assert masks.dtype == bool and not masks.flags.writeable, brace.name
        with pytest.raises(ValueError):
            masks[0, 0] = False
        seq = [i.sorted() for i in enumerate_ideals(brace)]
        assert [tuple(np.flatnonzero(row).tolist()) for row in masks] == seq, brace.name
        assert seq == sorted(seq, key=lambda s: (len(s), s))
        assert seq[0] == (0,)
        assert seq[-1] == tuple(range(brace.order))


def test_enumeration_counts_products(R4, T2):
    assert len(enumerate_ideals(_direct_square(T2))) == 5
    assert len(enumerate_ideals(_direct_square(R4))) == 13


def test_enumeration_cap_is_on_order(A4at, A5at):
    big = _direct_square(A4at)  # order 144 > 128
    with pytest.raises(SizeCapExceeded):
        enumerate_ideals(big)
    # the cap is on carrier order, never on how many ideals come out
    assert len(enumerate_ideals(A5at)) == 2  # order 60 is fine


def test_ideal_closure(R4, S3at):
    assert ideal_closure(R4, [2]).sorted() == (0, 2)
    assert ideal_closure(R4, [1]).sorted() == (0, 1, 2, 3)
    assert ideal_closure(R4, []).sorted() == (0,)
    # S3at: lambda-invariance drags the generator's images in
    closed = ideal_closure(S3at, [3])
    ok, _ = is_ideal(S3at, closed.members)
    assert ok


def test_ideal_closure_matches_the_frontier_reference(corpus8):
    # every order-8 corpus brace, every singleton {a} and pair {a, n-1-a}
    seeds = 0
    for brace in corpus8:
        n = brace.order
        for seed in [*([a] for a in range(n)), *([a, n - 1 - a] for a in range(n))]:
            want = oracles.frontier_ideal_closure(brace, seed)
            assert ideal_closure(brace, seed).members == want, (brace.name, seed)
            seeds += 1
    assert seeds == 4780


def test_ideal_closure_reads_a_lazy_product_in_place(A5at_square, monkeypatch):
    # seeds in A5at x 0, 0 x A5at and both: ideals of 60, 60 and 3600 labels
    seeds = [[1], [60], [61], [1, 60]]
    want = [oracles.frontier_ideal_closure(A5at_square, seed) for seed in seeds]
    assert [len(w) for w in want] == [60, 60, 3600, 3600]

    def dense(self, dtype=None, copy=None):
        raise AssertionError("a PairTable was made dense")

    monkeypatch.setattr(groups.PairTable, "__array__", dense)
    assert isinstance(A5at_square.circ, groups.PairTable)
    assert [ideal_closure(A5at_square, seed).members for seed in seeds] == want


def test_ideal_closure_rejects_bad_seeds(R4):
    for seed in ([4], [-1], [0, 2.9], ["x"]):
        with pytest.raises(PreconditionError):
            ideal_closure(R4, seed)


def test_closure_is_minimal(R4, S3at, corpus8):
    # every enumerated ideal containing the seed contains its closure
    for brace in [R4, S3at] + list(corpus8[:8]):
        ideals = enumerate_ideals(brace)
        for a in range(1, brace.order):
            closed = oracles.frontier_ideal_closure(brace, [a])
            smallest = min((i.members for i in ideals if a in i.members), key=len)
            assert closed == smallest, (brace.name, a)


def test_coset_symmetry_of_ideals(corpus8):
    # a + I = I + a for every enumerated ideal (rule holds by construction)
    for brace in corpus8[:15]:
        for ideal in enumerate_ideals(brace):
            S = np.fromiter(sorted(ideal.members), dtype=np.int64)
            left = np.sort(brace.add[:, S], axis=1)
            right = np.sort(brace.add[S, :].T, axis=1)
            assert np.array_equal(left, right)


def test_circle_and_additive_cosets_coincide(corpus8):
    # a o I = a + I: lambda-invariance makes both cosets equal setwise
    for brace in corpus8[:15]:
        for ideal in enumerate_ideals(brace):
            S = np.fromiter(sorted(ideal.members), dtype=np.int64)
            for a in range(brace.order):
                assert set(map(int, brace.circ[a, S])) == set(map(int, brace.add[a, S]))


def test_as_ideal_rejects_non_ideal(R4):
    with pytest.raises(PreconditionError):
        as_ideal(R4, [0, 1])
    ideal = as_ideal(R4, [0, 2])
    assert isinstance(ideal, Ideal) and len(ideal) == 2


def test_ideal_of_other_brace_rejected(R4, T2):
    ideal = as_ideal(T2, [0])
    with pytest.raises(PreconditionError):
        quotient(R4, ideal)


def test_quotient_revalidates_everywhere(corpus8):
    for brace in corpus8[:12]:
        for ideal in enumerate_ideals(brace):
            q, coset = quotient(brace, ideal)
            assert q.order * len(ideal) == brace.order
            # coset map is a brace morphism onto the quotient
            assert np.array_equal(coset[brace.add], q.add[np.ix_(coset, coset)])
            assert np.array_equal(coset[brace.circ], q.circ[np.ix_(coset, coset)])
            assert coset[0] == 0


def test_restrict_errors(R4):
    with pytest.raises(PreconditionError):
        restrict(R4, [1, 2])        # missing 0
    with pytest.raises(PreconditionError):
        restrict(R4, [0, 1])        # not closed under add


def test_semiprime_fast_exhaustive_agree(corpus8):
    for brace in corpus8:
        fast = is_semiprime(brace, "fast")
        slow = is_semiprime(brace, "exhaustive")
        assert fast.semiprime == slow.semiprime, brace.name
        if not fast.semiprime:
            for verdict in (fast, slow):
                members = np.fromiter(sorted(verdict.witness.members), dtype=np.int64)
                assert members.size > 1
                ok, _ = is_ideal(brace, verdict.witness.members)
                assert ok
                stars = {int(brace.star(a, b)) for a in members for b in members}
                assert stars == {0}


def test_fast_witness_is_least_principal_witness(corpus8):
    # the scan aborts a closure at the first nonzero star; recompute its
    # witness without it: the smallest enumerated ideal containing a is
    # the principal ideal of a, tested on the cached full star table
    for brace in corpus8:
        stars = brace.star_table()
        ideals = [np.fromiter(i.sorted(), dtype=np.int64) for i in enumerate_ideals(brace)]
        expected = None
        for a in range(1, brace.order):
            principal = next(m for m in ideals if a in m)
            if not stars[np.ix_(principal, principal)].any():
                expected = tuple(int(x) for x in principal)
                break
        fast = is_semiprime(brace, "fast")
        assert fast.semiprime == (expected is None), brace.name
        if expected is not None:
            assert fast.witness.sorted() == expected, brace.name


def _representatives(brace):
    owner, reps = _orbit_representatives(oracles.orbit_maps(brace)[None])
    assert not owner.any()
    return reps.tolist()


def test_stacked_maps_give_each_brace_its_own_orbits(corpus8):
    # one gather over each order's flat tables, the generator rows padded
    # with label 0, gives every corpus brace the orbits of its own maps
    by_order = {}
    for brace in corpus8:
        by_order.setdefault(brace.order, []).append(brace)
    for n, braces in by_order.items():
        maps = ideals._stacked_maps(ideals._Tables(braces))
        assert maps.dtype == braces[0].add.dtype and maps.shape[::2] == (len(braces), n)
        owner, reps = _orbit_representatives(maps)
        for b, brace in enumerate(braces):
            orbits = oracles.element_orbits(brace)
            assert reps[owner == b].tolist() == _representatives(brace) \
                == [min(orbit) for orbit in orbits[1:]], brace.name


def test_orbits_share_their_principal_ideal(corpus8):
    # the package maps act by generators, the oracle's by every element
    for brace in [*corpus8, *_lemma31_bases(corpus8)]:
        orbits = oracles.element_orbits(brace)
        assert _representatives(brace) == [min(o) for o in orbits[1:]], brace.name
        for orbit in orbits:
            principal = oracles.frontier_ideal_closure(brace, [min(orbit)])
            for x in orbit:
                assert oracles.frontier_ideal_closure(brace, [x]) == principal, (brace.name, x)


def _lemma31_bases(corpus8):
    bases = []
    for G in corpus8:
        for m in (2, 3, 4, 6):
            if G.order ** m in (16, 36, 64):
                bases.append(wreath_base(G, group_brace(f"c{m}", "trivial"))[0])
    return bases


def test_orbit_representatives_of_the_order_3600_base(A5at_square):
    assert _representatives(A5at_square) == [
        1, 3, 16, 17, 60, 61, 63, 76, 77, 180, 181, 183, 196, 197,
        960, 961, 963, 976, 977, 1020, 1021, 1023, 1036, 1037]


def test_min_label_representatives_match_the_orbit_closure_loop(corpus8, A5at_square):
    for brace in [*corpus8, *_lemma31_bases(corpus8), A5at_square]:
        assert _representatives(brace) == oracles.orbit_representatives_loop(brace), brace.name


@pytest.fixture(scope="module")
def batch_braces(corpus8):
    # corpus8, the lemma31 bases and every 7th product of the q34-wide
    # search (G not semiprime, |H| <= 2)
    products = [semidirect(G, H, act) for G in corpus8 if not is_semiprime(G).semiprime
                for H in corpus8 if H.order <= 2 for act in sigma_actions(G, H)][::7][:200]
    assert len(products) == 200 and max(P.order for P in products) <= 16
    return [*corpus8, *_lemma31_bases(corpus8), *products]


@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_batched_principal_ideals_match_one_closure_each(batch_braces, monkeypatch,
                                                         one_row_blocks):
    # a closing pass gives every principal ideal; an aborting pass keeps
    # exactly the rows whose stars vanish, and each brace's first one is
    # the fast witness of the single-brace scan
    if one_row_blocks:
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
        assert list(core._row_blocks(64, 3)) == [(0, 1), (1, 2), (2, 3)]
    for brace in batch_braces:
        batch = ideals._Tables([brace])
        masks = _principal_masks(batch, False)
        reps = batch.orbits[1]
        assert masks.shape == (len(reps), brace.order), brace.name
        for a, row in zip(reps.tolist(), masks):
            want = oracles.frontier_ideal_closure(brace, [a])
            assert set(np.flatnonzero(row).tolist()) == want, (brace.name, a)
        vanishing = _principal_masks(batch, True)
        kept = vanishing.any(axis=1)
        assert np.array_equal(vanishing[kept], masks[kept]), brace.name
        stars = brace.star_table()
        assert not any(stars[np.ix_(row, row)].any() for row in vanishing[kept]), brace.name
        first = tuple(np.flatnonzero(vanishing[kept][0]).tolist()) if kept.any() else None
        assert first == oracles.principal_star_scan(brace), brace.name


def test_a_closing_pass_reads_no_add_entry(corpus8, A5at_square):
    # only the aborting pass tests stars: a closing pass never reads add,
    # on stacked corpus tables and on a lazy product read in place
    class NoReads:
        def __getitem__(self, index):
            raise AssertionError("an add entry was read")

    W = A5at_square
    assert isinstance(W.add, groups.PairTable)
    by_order = {}
    for brace in corpus8:
        by_order.setdefault(brace.order, []).append(brace)
    seed = np.zeros((1, W.order), dtype=bool)
    seed[0, [0, 61]] = True
    runs = [(ideals._Tables(group), None)
            for group in by_order.values() if group[0].order > 1]
    runs.append((ideals._Tables([W]), (np.zeros(1, dtype=np.int64), seed)))
    for batch, seeds in runs:
        want = _principal_masks(batch, False, seeds)
        batch.add = NoReads()
        assert np.array_equal(_principal_masks(batch, False, seeds), want)
        with pytest.raises(AssertionError, match="add entry"):
            _principal_masks(batch, True, seeds)
    assert want[0].all()                    # the ideal of 61 is all of W


@pytest.fixture(scope="module")
def mixed_braces(corpus8, batch_braces):
    # corpus8, the braces of A4 and S4 and the 200 q34-wide products of
    # batch_braces: one list of mixed orders
    holomorph = [*holomorph_enumerate("a4", limit=64), *holomorph_enumerate("s4", limit=64)]
    assert len(holomorph) == 142
    return [*corpus8, *holomorph, *batch_braces[-200:]]


@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_semiprime_verdicts_match_one_brace_at_a_time(mixed_braces, monkeypatch, one_row_blocks):
    if one_row_blocks:
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    # braces of one order with different generator counts, so the map
    # tables of a batch are padded with identity rows
    lengths = {}
    for brace in mixed_braces:
        lengths.setdefault(brace.order, set()).add(len(oracles.orbit_maps(brace)))
    assert sum(len(k) > 1 for k in lengths.values()) >= 3
    both = semiprime_verdicts(mixed_braces, ("fast", "exhaustive"))
    for method, shared in zip(("fast", "exhaustive"), both):
        batch = semiprime_verdicts(mixed_braces, method)
        assert shared == batch
        assert len(batch) == len(mixed_braces)
        for brace, verdict in zip(mixed_braces, batch):
            alone = is_semiprime(brace, method)
            assert verdict.method == method
            assert verdict.semiprime == alone.semiprime, (brace.name, method)
            assert verdict.witness == alone.witness, (brace.name, method)
    by_order = {}
    for brace in mixed_braces:
        by_order.setdefault(brace.order, []).append(brace)
    for group in by_order.values():
        batch = ideals._Tables(group)
        owner, masks = ideals._batch_ideals(batch, _principal_masks(batch, False))
        counts = np.bincount(owner, minlength=len(group))
        for brace, count, rows in zip(group, counts, np.split(masks, np.cumsum(counts)[:-1])):
            assert count == len(ideals.ideal_masks(brace)), brace.name
            assert np.array_equal(rows, ideals.ideal_masks(brace)), brace.name


@pytest.fixture(scope="module")
def scan_cases(batch_braces, A5at, A5at_square):
    # batch_braces, then A5at^2 and A5at x| A5at under its first 8 actions,
    # with the witness of the single-brace scan each
    actions = sigma_actions(A5at, A5at, budget=8)
    big = [A5at_square, *(semidirect(A5at, A5at, act) for act in actions)]
    assert len(big) == 9 and all(B.order == 3600 for B in big)
    braces = [*batch_braces, *big]
    return braces, [oracles.principal_star_scan(B) for B in braces]


def _witnesses(verdicts):
    return [v.witness.sorted() if v.witness else None for v in verdicts]


@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_fast_witnesses_match_the_single_brace_scan(scan_cases, monkeypatch, one_row_blocks):
    if one_row_blocks:
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    braces, want = scan_cases
    # semiprime braces, and witnesses past a first row that aborts
    assert None in want and any(w and 1 not in w for w in want)
    assert _witnesses([is_semiprime(B) for B in braces]) == want
    assert _witnesses(semiprime_verdicts(braces, "fast")) == want
    # with both methods no row aborts; the braces above the cap have no
    # exhaustive verdict
    small = [B for B in braces if B.order <= ideals.DEFAULT_IDEAL_CAP]
    fast, exhaustive = semiprime_verdicts(small, ("fast", "exhaustive"))
    assert _witnesses(fast) == want[:len(small)]
    assert [v.semiprime for v in exhaustive] == [w is None for w in want[:len(small)]]


def test_products_above_the_cap_are_classified_alone_and_never_made_dense(A5at, monkeypatch):
    products = [semidirect(A5at, H, trivial_sigma(A5at, H))
                for H in (group_brace(spec, "trivial") for spec in ("c3", "c4", "c2xc2"))]
    assert [P.order for P in products] == [180, 240, 240]
    assert all(isinstance(P.circ, groups.PairTable) for P in products)
    want = [oracles.principal_star_scan(P) for P in products]
    built = []

    class Build(ideals._Tables):
        def __init__(self, braces):
            built.append(len(braces))
            super().__init__(braces)

    def dense(self, dtype=None, copy=None):
        raise AssertionError("a PairTable was made dense")

    monkeypatch.setattr(ideals, "_Tables", Build)
    monkeypatch.setattr(groups.PairTable, "__array__", dense)
    assert _witnesses(semiprime_verdicts(products, "fast")) == want
    assert built == [1, 1, 1]
    with pytest.raises(SizeCapExceeded):
        semiprime_verdicts(products, ("fast", "exhaustive"))


def test_verdict_stacks_hold_about_a_block_of_table_entries(corpus8, monkeypatch):
    # with 1024-entry blocks an order-8 stack holds 8 braces (128 add and
    # circ entries each), cut greedily in input order; the verdicts are
    # those of one stack per order
    verdicts = semiprime_verdicts(corpus8, ("fast", "exhaustive"))
    stacks = []

    class Build(ideals._Tables):
        def __init__(self, braces):
            stacks.append((braces[0].order, len(braces)))
            super().__init__(braces)

    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1024)
    monkeypatch.setattr(ideals, "_Tables", Build)
    assert semiprime_verdicts(corpus8, ("fast", "exhaustive")) == verdicts
    want = []
    for n, count in Counter(brace.order for brace in corpus8).items():
        full = 1024 // (2 * n * n)
        want += [(n, full)] * (count // full) + [(n, count % full)] * (count % full > 0)
    assert stacks == want and max(2 * n * n * B for n, B in stacks) <= 1024
    assert sum(B for n, B in stacks if n == 8) > 8


def test_semiprime_verdicts_edge_cases(A5at, T2):
    assert semiprime_verdicts([]) == []
    with pytest.raises(PreconditionError):
        semiprime_verdicts([T2], "quick")
    # fast verdicts above the cap come from a batch of one; exhaustive ones raise
    big = group_brace("c130", "trivial")
    fast = semiprime_verdicts([T2, big, A5at], "fast")
    assert [v.semiprime for v in fast] == [False, False, True]
    assert fast[1].witness.sorted() == oracles.principal_star_scan(big)
    with pytest.raises(SizeCapExceeded):
        semiprime_verdicts([T2, big], "exhaustive")


def test_is_trivial_scans_blocks_without_a_star_table(corpus8, A5at, T2, monkeypatch):
    for brace in [*corpus8, A5at]:
        assert is_trivial(brace) == (not brace.star_table().any()), brace.name
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)      # one row per block
    assert [is_trivial(b) for b in corpus8] == [not b.star_table().any() for b in corpus8]
    monkeypatch.undo()
    square = wreath_base(A5at, T2)[0]
    real = core.star_block

    def no_full_table(brace, rows, cols):
        assert rows.size * cols.size < brace.order ** 2, "a full star table was gathered"
        return real(brace, rows, cols)

    monkeypatch.setattr(core, "star_block", no_full_table)
    assert not is_trivial(square)
    with pytest.raises(AssertionError, match="full star table"):
        square.star_table()                 # the guard sees a full gather
    monkeypatch.undo()
    assert square.star_table().any()        # the full table agrees


def test_element_maps_are_built_once_per_call(corpus8, monkeypatch):
    # one gather of the maps per enumeration, scan or closure, from the
    # generators the brace carries: no generator search
    calls = []
    real = ideals._stacked_maps

    def counting(tables):
        calls.append((tables.add, len(tables)))
        return real(tables)

    def refuse(t):
        raise AssertionError("a generator search")

    monkeypatch.setattr(ideals, "_stacked_maps", counting)
    monkeypatch.setattr(core, "closure_generators", refuse)
    brace = next(b for b in corpus8 if b.order == 8 and not is_trivial(b))
    for run in (lambda: enumerate_ideals(brace), lambda: is_semiprime(brace, "fast"),
                lambda: ideal_closure(brace, [1])):
        calls.clear()
        run()
        assert [(add is brace.add, count) for add, count in calls] == [(True, 1)]


def test_fast_witness_is_the_ascending_scan_witness(corpus8, A5at):
    # every corpus brace but c1 and every base has a witness; A5at has none
    for brace in [*corpus8, *_lemma31_bases(corpus8), A5at]:
        fast = is_semiprime(brace, "fast")
        expected = oracles.ascending_principal_scan(brace)
        assert (None if fast.semiprime else fast.witness.sorted()) == expected, brace.name


def test_exhaustive_witness_is_smallest(S3at, corpus8, mixed_braces, monkeypatch):
    # every corpus8, A4 and S4 brace, also with one row per block: the
    # witness is the smallest nonzero ideal whose stars all vanish, by
    # size, then sorted members
    verdict = is_semiprime(S3at, "exhaustive")
    assert not verdict.semiprime and verdict.witness.sorted() == (0, 3, 4)
    braces = mixed_braces[:-200]
    assert len(braces) == len(corpus8) + 142
    want = []
    for brace in braces:
        stars = brace.star_table()
        vanishing = [i.sorted() for i in enumerate_ideals(brace)
                     if len(i) > 1 and not stars[np.ix_(i.sorted(), i.sorted())].any()]
        want.append(min(vanishing, key=lambda s: (len(s), s)) if vanishing else None)
    # semiprime braces, and witnesses that are not the fast witness
    assert None in want[len(corpus8):]
    assert any(w != f for w, f in zip(want, _witnesses(semiprime_verdicts(braces))))
    for entries in (core._BLOCK_ENTRIES, 1):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", entries)
        assert _witnesses(semiprime_verdicts(braces, "exhaustive")) == want
        assert _witnesses([is_semiprime(B, "exhaustive") for B in braces]) == want


def test_order_one_is_semiprime():
    one = group_brace("c1", "trivial")
    assert is_semiprime(one, "fast").semiprime
    assert is_semiprime(one, "exhaustive").semiprime


def test_a5_almost_trivial_is_semiprime(A5at):
    assert is_semiprime(A5at, "fast").semiprime
    assert is_semiprime(A5at, "exhaustive").semiprime
    assert not is_trivial(A5at)


def test_trivial_brace_never_semiprime_beyond_order_one(corpus8):
    for brace in corpus8:
        if is_trivial(brace) and brace.order > 1:
            verdict = is_semiprime(brace, "fast")
            assert not verdict.semiprime


def test_extension_check_r4(R4):
    report = check_semiprime_extension(R4, [0, 2])
    assert not report.ideal_semiprime.semiprime      # {0,2} is a trivial brace
    assert not report.quotient_semiprime.semiprime   # T2 is trivial
    assert not report.parent_semiprime.semiprime
    assert report.implication_ok                     # antecedent false
    assert report.containment_ok
    assert report.containment_failures == ()


def test_extension_check_semiprime_parent(A5at):
    report = check_semiprime_extension(A5at, [0])
    assert report.quotient_semiprime.semiprime
    assert report.parent_semiprime.semiprime
    assert report.implication_ok
    assert report.containment_ok


def test_extension_containment_across_corpus(corpus8):
    for brace in corpus8[:10]:
        for ideal in enumerate_ideals(brace):
            report = check_semiprime_extension(brace, ideal)
            assert report.implication_ok, (brace.name, ideal.sorted())
            assert report.containment_ok, (brace.name, ideal.sorted())


def test_ideal_rules_constant():
    assert IDEAL_RULES == ("circ-subgroup", "circ-normality",
                           "lambda-invariance", "coset-symmetry")
