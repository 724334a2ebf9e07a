import hashlib
import itertools

import numpy as np
import pytest

from brace_forge import (
    FiniteSkewBrace,
    PreconditionError,
    SizeCapExceeded,
    group_automorphisms,
    group_brace,
    group_homomorphisms,
    perm_composition,
    semidirect,
    sigma_actions,
    skew_automorphisms,
    validate_sigma,
    wreath_base,
)
from brace_forge import CORPUS_GROUPS, autos
from brace_forge.groups import PairTable, cyclic_table, direct_product_table, group_table

import oracles


def test_skew_automorphism_counts(T2, R4, S3at):
    assert len(skew_automorphisms(T2)) == 1
    # R4: only x -> 3x survives besides the identity
    auts = skew_automorphisms(R4)
    assert [p.tolist() for p in auts] == [[0, 1, 2, 3], [0, 3, 2, 1]]
    # trivial braces reduce to group automorphisms
    k4 = group_brace("c2xc2", "trivial")
    assert len(skew_automorphisms(k4)) == 6
    cube = group_brace("c2xc2xc2", "trivial")
    assert len(skew_automorphisms(cube)) == 168  # |GL(3,2)|
    # S3 almost trivial: both tables are preserved by exactly Inn(S3)
    assert len(skew_automorphisms(S3at)) == 6


def test_automorphisms_preserve_both_tables(R4, S3at):
    for brace in (R4, S3at):
        for p in skew_automorphisms(brace):
            assert np.array_equal(p[brace.add], brace.add[np.ix_(p, p)])
            assert np.array_equal(p[brace.circ], brace.circ[np.ix_(p, p)])


def test_skew_automorphisms_match_the_full_table_filter(corpus8, A5at):
    # the filter on circle generators keeps what the full circ check keeps
    for brace in [*corpus8, A5at]:
        circ = brace.circ
        want = [p for p in group_automorphisms(brace.add)
                if np.array_equal(p[circ], circ[np.ix_(p, p)])]
        got = skew_automorphisms(brace)
        assert len(got) == len(want), brace.name
        for p, q in zip(got, want):
            assert p.dtype == q.dtype and np.array_equal(p, q), brace.name


def test_group_homomorphisms_match_brute_force(corpus8):
    # every map into the perm indices, kept when it respects the full
    # tables; itertools.product lists them in lexicographic order
    sources = [t for t in map(group_table, CORPUS_GROUPS) if t.shape[0] <= 4]
    for G in (b for b in corpus8 if b.order <= 4):
        auts = skew_automorphisms(G)
        comp = perm_composition(auts)
        for table in sources:
            m = table.shape[0]
            want = [phi for phi in map(np.array, itertools.product(range(len(auts)), repeat=m))
                    if np.array_equal(comp[phi[:, None], phi[None, :]], phi[table])]
            got = group_homomorphisms(table, auts)
            assert [phi.tolist() for phi in got] == [phi.tolist() for phi in want], G.name
            assert all(phi.dtype == np.int64 for phi in got)


# sha256 over the bytes and dtype of each array in order, computed with the
# unpruned per-candidate search (oracles.homomorphisms_loop)
A5_AUTOMORPHISMS_SHA256 = "5aa85718fae51e3101e4974060a63d35a55ffea1355532671dbc1a07fd6c8faa"
A5AT_ACTIONS_SHA256 = {
    64: "e71f498b9ecd20c1a0e3bb8339f82f78bc72404042d93ea791c725ccdbde4d39",
    None: "39b65079b7cf0701117f7c64ec5f08facfc2cfbe535a15f680a70990595f3311",
}


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes() + str(a.dtype).encode())
    return digest.hexdigest()


def _same_arrays(got, want):
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert p.dtype == q.dtype and np.array_equal(p, q)


def test_blocked_search_matches_the_candidate_loop(corpus8, monkeypatch):
    """Automorphisms, skew automorphisms and actions (at budgets 1, 2, 64
    and none) equal those of the unpruned per-candidate loop: values,
    order and dtype, on the corpus and on braces over A4 and S4."""
    braces = [*corpus8, *(group_brace(g, v) for g in ("a4", "s4")
                          for v in ("trivial", "almost_trivial"))]
    tables = {(t.dtype.str, t.tobytes()): t for b in braces for t in (b.add, b.circ)}
    # one acting brace of each order up to 3, and a cyclic and a Klein circle group
    acting = [b for b in corpus8 if b.name in ("c1#0", "T2", "R3", "c4#1", "c2xc2#0")]
    assert len(acting) == 5
    budgets = (1, 2, 64, None)

    def run():
        autos._automorphisms_of.cache_clear()
        return ([group_automorphisms(t) for t in tables.values()],
                [skew_automorphisms(b) for b in braces],
                [[a.perms for a in sigma_actions(G, H, budget)]
                 for G in braces for H in acting for budget in budgets])

    got = run()
    monkeypatch.setattr(autos, "_homomorphisms", lambda table, target, budget=None: np.array(
        oracles.homomorphisms_loop(table, target, budget), dtype=np.int64).reshape(-1, len(table)))
    want = run()
    autos._automorphisms_of.cache_clear()
    for got_lists, want_lists in zip(got, want):
        assert len(got_lists) == len(want_lists)
        for g, w in zip(got_lists, want_lists):
            _same_arrays(g, w)


def test_a5_searches_match_frozen_digests(A5at):
    assert _digest(group_automorphisms(group_table("a5"))) == A5_AUTOMORPHISMS_SHA256
    for budget, want in A5AT_ACTIONS_SHA256.items():
        actions = sigma_actions(A5at, A5at, budget)
        assert len(actions) == (budget or 121)
        assert _digest([a.perms for a in actions]) == want


def test_automorphism_space_capped_before_search(monkeypatch):
    a5 = group_table("a5")
    table = direct_product_table(a5, a5)
    assert table.shape == (3600, 3600)

    def no_candidates(*args, **kwargs):
        raise AssertionError("a candidate was tried")

    monkeypatch.setattr(autos, "_candidates", no_candidates)
    for _ in range(2):   # a search that raises is not cached
        with pytest.raises(SizeCapExceeded, match=r"\d+ \(order-pruned from 3600\^\d+\) exceeds"):
            group_automorphisms(table)


def test_order_pruning_brings_s4xc2_under_the_cap(monkeypatch):
    # four generators of order 2: 48^4 ~ 5.3M candidates unpruned, but only
    # the 20 labels of order dividing 2 per generator, 20^4 = 160,000
    table = group_table("s4xc2")
    got = group_automorphisms(table)
    autos._automorphisms_of.cache_clear()
    monkeypatch.setattr(autos, "_HOM_SPACE_LIMIT", 48 ** 4)
    want = group_automorphisms(table)
    autos._automorphisms_of.cache_clear()
    # |Aut(S4 x C2)| = |Aut(S4)| * |Hom(S4, C2)| = 24 * 2
    assert len(got) == 48
    assert [p.tolist() for p in got] == [p.tolist() for p in want]
    assert [tuple(p.tolist()) for p in got] == sorted({tuple(p.tolist()) for p in got})
    for p in got:
        assert p.dtype == table.dtype and np.array_equal(p[table], table[np.ix_(p, p)])
    perm_composition(got)   # closed under composition


def test_elementary_abelian_space_still_capped(monkeypatch):
    # every element of C2^5 has order dividing 2: pruning keeps 32^5 > 2M
    monkeypatch.setattr(autos, "_candidates", lambda *args: pytest.fail("a candidate was tried"))
    with pytest.raises(SizeCapExceeded, match=r"33554432 \(order-pruned from 32\^5\) exceeds"):
        group_automorphisms(group_table("c2xc2xc2xc2xc2"))


def test_group_automorphisms_searched_once_per_table(monkeypatch):
    calls = []
    real = autos._homomorphisms

    def counting(table, target, budget=None):
        calls.append(table.tobytes())
        return real(table, target, budget)

    monkeypatch.setattr(autos, "_homomorphisms", counting)
    autos._automorphisms_of.cache_clear()
    s3 = group_table("s3")
    first = group_automorphisms(s3)
    assert len(first) == 6 and all(p.dtype == s3.dtype for p in first)
    assert all(not p.flags.writeable for p in first)
    with pytest.raises(ValueError):
        first[1][0] = 1
    want = [p.tolist() for p in first]
    first.reverse()
    first.append(first[0])
    # an equal table in a fresh array hits the same entry
    again = group_automorphisms(s3.copy())
    assert again is not first and [p.tolist() for p in again] == want
    assert calls == [s3.tobytes()]
    # the same values in another dtype are another table
    assert len(group_automorphisms(s3.astype(np.int64))) == 6
    assert len(calls) == 2


def test_skew_automorphisms_above_order_nine(A4at):
    # A4 almost trivial: every automorphism of A4 also preserves the
    # opposite product, so the skew automorphisms are Aut(A4) = S4
    auts = skew_automorphisms(A4at)
    rows = [p.tolist() for p in auts]
    assert len(auts) == 24
    assert rows == sorted(rows) and len(set(map(tuple, rows))) == 24
    for p in auts:
        assert sorted(p.tolist()) == list(range(12))
        assert np.array_equal(p[A4at.add], A4at.add[np.ix_(p, p)])
        assert np.array_equal(p[A4at.circ], A4at.circ[np.ix_(p, p)])


def test_perm_composition():
    k4 = group_brace("c2xc2", "trivial")
    auts = skew_automorphisms(k4)
    comp = perm_composition(auts)
    assert comp.shape == (6, 6)
    # identity is index 0: composing with it changes nothing
    assert comp[0].tolist() == list(range(6))
    assert comp[:, 0].tolist() == list(range(6))
    # closure: every entry is a valid index, row/cols are permutations
    for i in range(6):
        assert sorted(comp[i].tolist()) == list(range(6))
        assert sorted(comp[:, i].tolist()) == list(range(6))
    # a set that is not closed under composition is refused
    with pytest.raises(PreconditionError, match="not closed"):
        perm_composition([np.arange(4), np.array([0, 2, 3, 1])])


def test_perm_composition_matches_lookup(corpus8):
    """Same table and dtype as one dict lookup per composed permutation, on
    the automorphisms of every corpus additive table and the skew
    automorphisms of every corpus brace."""
    tables = {(b.add.dtype.str, b.add.tobytes()): b.add for b in corpus8}
    perm_sets = [group_automorphisms(t) for t in tables.values()]
    perm_sets += [skew_automorphisms(b) for b in corpus8]
    for perms in perm_sets:
        got = perm_composition(perms)
        want = oracles.perm_composition_lookup(perms)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_group_homomorphisms_counts(T2):
    k4 = group_brace("c2xc2", "trivial")
    auts = skew_automorphisms(k4)      # GL(2,2), order 6
    # Z2 -> S3: identity plus the three involutions
    homs = group_homomorphisms(T2.circ, auts)
    assert len(homs) == 4
    for phi in homs:
        assert phi[0] == 0
    # images of the generator are distinct and ascending
    gen_images = [int(phi[1]) for phi in homs]
    assert gen_images == sorted(gen_images)
    # Z3 -> S3: identity plus two rotations
    homs = group_homomorphisms(cyclic_table(3), auts)
    assert len(homs) == 3


def test_group_homomorphisms_budget(T2):
    k4 = group_brace("c2xc2", "trivial")
    auts = skew_automorphisms(k4)
    homs = group_homomorphisms(T2.circ, auts, budget=2)
    assert len(homs) == 2
    full = group_homomorphisms(T2.circ, auts)
    assert [h.tolist() for h in homs] == [h.tolist() for h in full[:2]]


def test_homomorphisms_in_lexicographic_order():
    # greedy closure generators make generator-image order the
    # lexicographic order of the whole image arrays
    for target in ("d4", "s4"):
        auts = group_automorphisms(group_table(target))
        for source in ("c2xc2", "s3", "c4", "c2xc4"):
            rows = [phi.tolist() for phi in group_homomorphisms(group_table(source), auts)]
            assert len(rows) > 1 and rows == sorted(rows), (source, target)


def test_homomorphism_property(S3at):
    auts = skew_automorphisms(S3at)
    comp = perm_composition(auts)
    for phi in group_homomorphisms(group_table("s3"), auts):
        for a in range(6):
            for b in range(6):
                assert comp[phi[a], phi[b]] == phi[group_table("s3")[a, b]]


def test_sigma_actions_all_valid(R4, T2, S3at):
    actions = sigma_actions(R4, T2)
    assert len(actions) == 2  # Z2 -> Aut(R4) = Z2
    for sig in actions:
        assert validate_sigma(sig) == []
        assert sig.perms[0].tolist() == [0, 1, 2, 3]
    # the nontrivial action twists the semidirect product
    prods = [semidirect(R4, T2, sig) for sig in actions]
    assert prods[0] != prods[1]

    actions = sigma_actions(S3at, T2)
    assert len(actions) == 4  # Z2 into Inn(S3) = S3
    for sig in actions:
        assert validate_sigma(sig) == []


def test_sigma_actions_budget(R4, T2):
    assert len(sigma_actions(R4, T2, budget=1)) == 1


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_rejected(R4, T2, budget):
    auts = skew_automorphisms(R4)
    with pytest.raises(PreconditionError, match="at least 1"):
        group_homomorphisms(T2.circ, auts, budget=budget)
    with pytest.raises(PreconditionError, match="at least 1"):
        sigma_actions(R4, T2, budget=budget)


def test_skew_automorphisms_of_a_lazy_product():
    # C12^2 (order 144) is over the ideal cap, so its tables are lazy;
    # Aut(C12 x C12) = GL2(Z/12) has 96 * 48 elements
    lazy = wreath_base(group_brace("c12", "trivial"), group_brace("c2", "trivial"))[0]
    assert isinstance(lazy.add, PairTable) and isinstance(lazy.circ, PairTable)
    dense = FiniteSkewBrace(lazy.order, np.asarray(lazy.add), np.asarray(lazy.circ),
                            lazy.neg, lazy.inv)
    got = skew_automorphisms(lazy)
    assert len(got) == 96 * 48
    assert np.array_equal(got, skew_automorphisms(dense))
