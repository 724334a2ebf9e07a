import hashlib
from collections import Counter

import numpy as np
import pytest

from brace_forge import (
    CORPUS_GROUPS,
    PreconditionError,
    SizeCapExceeded,
    group_automorphisms,
    group_brace,
    holomorph_enumerate,
    is_semiprime,
    is_trivial,
    quotient,
    radical_ring_brace,
    standard_corpus,
    validate,
)
from brace_forge import corpus
from brace_forge.cli import main
from brace_forge.groups import group_table

import oracles

# measured once with the lambda-system search, cross-checked against the
# powerset oracle below for every group of order <= 6
HOLOMORPH_COUNTS = {
    "c1": 1, "c2": 1, "c3": 1, "c4": 2, "c2xc2": 4, "c5": 1, "c6": 2,
    "s3": 8, "c7": 1, "c8": 6, "c2xc4": 28, "c2xc2xc2": 232, "d4": 20,
}


def test_group_brace_variants(T2):
    assert np.array_equal(group_brace("c2", "trivial").add, T2.add)
    s3t = group_brace("s3", "trivial")
    s3a = group_brace("s3", "almost_trivial")
    assert np.array_equal(s3a.circ, s3t.circ.T)
    assert not np.array_equal(s3a.circ, s3a.add)  # nonabelian: opposite differs
    c4a = group_brace("c4", "almost_trivial")
    assert np.array_equal(c4a.circ, c4a.add)      # abelian: variants coincide
    with pytest.raises(PreconditionError):
        group_brace("c4", "bogus")
    assert group_brace("c4", "trivial", name="X").name == "X"
    assert group_brace("c4", "almost_trivial").name == "c4-almost-trivial"


class TestRadicalRing:
    def test_r4(self, R4):
        assert R4.order == 4
        assert R4.name == "R4"
        idx = np.arange(4)
        assert np.array_equal(R4.star_table(), (2 * idx[:, None] * idx) % 4)

    def test_r8(self):
        r8 = radical_ring_brace(16, 2)
        assert r8.order == 8
        assert r8.name == "R8"
        # label arithmetic: index i stands for 2i, star is ring mult / 2
        assert r8.star(1, 1) == 2
        assert r8.circ[1, 1] == 4  # 2 o 2 = 2+2+4 = 8 -> index 4
        idx = np.arange(8)
        assert np.array_equal(r8.star_table(), (2 * idx[:, None] * idx) % 8)

    def test_r3_r9_trivial_vs_not(self):
        r3 = radical_ring_brace(9, 3)
        assert r3.order == 3 and is_trivial(r3)  # 3*3 = 9 = 0 in Z/9
        r9 = radical_ring_brace(27, 3)
        assert r9.order == 9 and not is_trivial(r9)

    def test_not_nilpotent(self):
        with pytest.raises(PreconditionError):
            radical_ring_brace(6, 2)   # 2 cycles 2 -> 4 -> 2 mod 6
        with pytest.raises(PreconditionError):
            radical_ring_brace(9, 1)   # units are never nilpotent
        with pytest.raises(PreconditionError):
            radical_ring_brace(1, 0)


def test_group_automorphism_counts():
    for spec, count in (("c4", 2), ("c2xc2", 6), ("s3", 6), ("c6", 2),
                        ("c8", 4), ("c2xc4", 8), ("d4", 8), ("c2xc2xc2", 168)):
        auts = group_automorphisms(group_table(spec))
        assert len(auts) == count, spec
        assert auts[0].tolist() == list(range(auts[0].size))  # identity first
        table = group_table(spec)
        for p in auts[:10]:
            assert np.array_equal(p[table], table[np.ix_(p, p)])


def test_group_automorphisms_above_order_nine():
    # S4 is complete: Aut(S4) = Inn(S4) = S4
    auts = group_automorphisms(group_table("s4"))
    assert len(auts) == 24
    assert auts[0].tolist() == list(range(24))


def test_group_automorphisms_match_brute_force(corpus8):
    """Same list, order and dtype as the permutation brute force on every
    CORPUS_GROUPS table and on the add table of every corpus brace (each
    distinct table once)."""
    tables = {}
    for table in [group_table(spec) for spec in CORPUS_GROUPS] + [b.add for b in corpus8]:
        tables.setdefault((table.dtype.str, table.tobytes()), table)
    assert len(tables) >= len(CORPUS_GROUPS)
    for table in tables.values():
        got = group_automorphisms(table)
        want = oracles.brute_force_automorphisms(table)
        assert [p.tolist() for p in got] == [p.tolist() for p in want]
        assert all(p.dtype == table.dtype for p in got)


def test_holomorph_counts_frozen():
    for spec, count in HOLOMORPH_COUNTS.items():
        braces = holomorph_enumerate(spec)
        assert len(braces) == count, spec
        add = group_table(spec)
        for b in braces:
            assert np.array_equal(b.add, add)
        # distinct circle tables, deterministic order
        keys = [b.circ.tobytes() for b in braces]
        assert len(set(keys)) == len(keys)
        assert keys == [b.circ.tobytes() for b in holomorph_enumerate(spec)]


@pytest.mark.parametrize("spec", ["c4", "c2xc2", "c5", "c6", "s3"])
def test_holomorph_matches_powerset_oracle(spec):
    add = group_table(spec)
    got = sorted(tuple(map(tuple, b.circ.tolist())) for b in holomorph_enumerate(spec))
    want = sorted(oracles.braces_on_add_table(add))
    assert got == want


@pytest.mark.parametrize("p", [5, 7])
def test_prime_order_has_only_trivial_brace(p):
    braces = holomorph_enumerate(f"c{p}")
    assert len(braces) == 1 and is_trivial(braces[0])
    # independent check: every order-p group table is a relabeled cycle;
    # only circ = add survives the compatibility relation
    add = group_table(f"c{p}")
    addt = tuple(map(tuple, add.tolist()))
    survivors = [circ for circ in oracles.cyclic_prime_tables(p)
                 if oracles.brace_relation_holds(addt, circ)]
    assert survivors == [addt]


def test_holomorph_limit_and_cache():
    with pytest.raises(SizeCapExceeded):
        holomorph_enumerate("d4", limit=4)
    assert holomorph_enumerate("c4")[0] is holomorph_enumerate("c4")[0]
    # raw tables work too, without the cache
    raw = holomorph_enumerate(group_table("c4"))
    assert len(raw) == 2
    for spec in CORPUS_GROUPS:
        table = group_table(spec)
        if table.shape[0] <= 6:
            raw = holomorph_enumerate(table)
            named = holomorph_enumerate(spec)
            assert [b.circ.tobytes() for b in raw] == [b.circ.tobytes() for b in named], spec
            assert [b.name for b in raw] == [f"table{table.shape[0]}#{i}"
                                            for i in range(len(raw))]


def test_oversized_group_rejected_before_its_table(monkeypatch, capsys):
    def refuse(spec):
        raise AssertionError("a table was built for an oversized group")

    monkeypatch.setattr(corpus, "group_table", refuse)
    with pytest.raises(SizeCapExceeded, match="group order 3000 exceeds the enumeration limit 8"):
        holomorph_enumerate("c3000")
    assert main(["corpus", "enumerate", "--group", "c3000"]) == 2
    assert "group order 3000" in capsys.readouterr().err


def test_corpus_enumerate_stdout_pinned(capsys):
    # the standard corpus as `python -m brace_forge corpus enumerate` prints it
    assert main(["corpus", "enumerate"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "458b2ede03bd53bf8467ff3eb7d7681246a16d9accacb749e0916a6ea1646a8b")


def test_standard_corpus_shape(corpus8):
    assert len(corpus8) == 307
    hist = Counter(b.order for b in corpus8)
    assert dict(hist) == {1: 1, 2: 1, 3: 1, 4: 6, 5: 1, 6: 10, 7: 1, 8: 286}
    names = [b.name for b in corpus8]
    assert len(set(names)) == len(names)
    keys = {(b.order, b.add.tobytes(), b.circ.tobytes()) for b in corpus8}
    assert len(keys) == len(corpus8)


def test_standard_corpus_named_examples_win(corpus8):
    names = {b.name for b in corpus8}
    assert {"T2", "R4", "S3at", "R3", "R8"} <= names
    # the duplicates they shadow are gone
    assert "c2#0" not in names and "c3#0" not in names
    assert "R2" not in names  # R2 duplicates T2, which comes first


TABLES = ("add", "circ", "neg", "inv", "lam")

# sha256 over (add, circ, neg, inv, lam) bytes and dtype, then the name, of
# each brace in order, measured while every corpus brace was validated
CORPUS_SHA256 = {
    8: "3819550f8107e5496a2631b71d0ee76713008e77f046017d39b3d37df693213b",
    12: "a703489cc2fd907375fa3f694d5ad679427a4a4bbcb03c748d744cbdbfb9b4bc",
}


def _assert_validated(brace):
    """``brace`` equals the brace exhaustive ``validate`` builds from its
    add and circ tables, in every table and dtype."""
    report = validate(brace.add, brace.circ, mode="exhaustive")
    assert report.ok, brace.name
    for table in TABLES:
        got, want = getattr(brace, table), getattr(report.brace, table)
        assert got.dtype == want.dtype and np.array_equal(got, want), (brace.name, table)


def test_standard_corpus_all_validate(corpus8, corpus12):
    for max_order, braces in ((8, corpus8), (12, corpus12)):
        digest = hashlib.sha256()
        for brace in braces:
            _assert_validated(brace)
            for table in TABLES:
                t = getattr(brace, table)
                digest.update(t.tobytes() + str(t.dtype).encode())
            digest.update(brace.name.encode())
        assert digest.hexdigest() == CORPUS_SHA256[max_order]


# the quaternion group, which no named family gives: 0..3 are 1, i, j, k
# and 4..7 their negatives
Q8 = np.array([
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 4, 3, 6, 5, 0, 7, 2],
    [2, 7, 4, 1, 6, 3, 0, 5],
    [3, 2, 5, 4, 7, 6, 1, 0],
    [4, 5, 6, 7, 0, 1, 2, 3],
    [5, 0, 7, 2, 1, 4, 3, 6],
    [6, 3, 0, 5, 2, 7, 4, 1],
    [7, 6, 1, 0, 3, 2, 5, 4],
])


# carriers beyond the corpus, where the stabilizer of label 1 in Aut(N) is
# nontrivial and the search expands its root classes by it
EXTRA_GROUPS = ("a4", "s4", "a4xc2")


@pytest.mark.parametrize("table", [group_table(spec) for spec in (*CORPUS_GROUPS, *EXTRA_GROUPS)]
                         + [Q8], ids=[*CORPUS_GROUPS, *EXTRA_GROUPS, "q8"])
def test_lambda_system_search_matches_loop(table):
    """The pruned search, through the braces built from it without
    ``validate``, gives the circ tables of the unpruned loop, sorted."""
    want = sorted(oracles.lambda_system_search_loop(table, group_automorphisms(table)),
                  key=lambda t: t.ravel().tolist())
    braces = corpus._holomorph_braces(table, "t")
    assert [b.circ.tolist() for b in braces] == [t.tolist() for t in want]
    if table.shape[0] > 8 or table is Q8:   # not in the validated corpus
        for brace in braces:
            _assert_validated(brace)


def test_corpus_order_filter(corpus12, monkeypatch):
    assert {b.name for b in corpus12} >= {"A4at", "R9"}
    assert len(corpus12) == 309  # the two extra named examples
    assert all(b.order <= 12 for b in corpus12)
    small = standard_corpus(4)
    assert all(b.order <= 4 for b in small)
    assert len(small) == 9  # 1 + 1 + 1 + 6 by order
    assert {"T2", "R4", "R3", "c1#0"} <= {b.name for b in small}
    # the examples above the order cap (A4at, A5at, R9, R16) are not built
    built = []

    def recording(real):
        def build(*args, **kwargs):
            brace = real(*args, **kwargs)
            built.append(brace.name)
            return brace
        return build

    for builder in ("group_brace", "radical_ring_brace"):
        monkeypatch.setattr(corpus, builder, recording(getattr(corpus, builder)))
    assert [b.name for b in corpus._named_examples(8)] == built == ["T2", "R4", "S3at", "R2", "R3", "R8"]


def test_a4_almost_trivial_witness(A4at):
    verdict = is_semiprime(A4at, "exhaustive")
    assert not verdict.semiprime
    assert len(verdict.witness) == 4  # the normal 2-Sylow, abelian so stars vanish
    q, _ = quotient(A4at, verdict.witness)
    assert q.order == 3


def test_almost_trivial_star_is_commutator(S3at):
    # a * b = -a + b + a - b for the opposite-group brace
    add = S3at.add
    neg = S3at.neg
    for a in range(6):
        for b in range(6):
            want = add[add[add[neg[a], b], a], neg[b]]
            assert S3at.star(a, b) == want


def test_corpus_groups_constant():
    assert CORPUS_GROUPS == ("c1", "c2", "c3", "c4", "c2xc2", "c5", "c6", "s3",
                             "c7", "c8", "c2xc4", "c2xc2xc2", "d4")
