import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brace_forge import (
    CORPUS_GROUPS,
    FiniteSkewBrace,
    PreconditionError,
    SizeCapExceeded,
    TableFormatError,
    ValidationFailure,
    as_ideal,
    brace_from_tables,
    generated_subbrace,
    group_brace,
    group_table,
    is_ideal,
    radical_ring_brace,
    star_product,
    star_set,
    table_eval,
    validate,
)
from brace_forge import core
from brace_forge.core import FAST_VALIDATE_THRESHOLD, closure_generators, fmt_members

import oracles


def test_t2_tables(T2):
    assert T2.order == 2
    assert T2.add.tolist() == [[0, 1], [1, 0]]
    assert T2.circ.tolist() == T2.add.tolist()


class TestR4Oracle:
    """Frozen index-table values for the order-4 radical ring brace:
    add[i][j] = (i+j) % 4, circ[i][j] = (i+j+2ij) % 4,
    lambda[i][j] = j(1+2i) % 4, star[i][j] = 2ij % 4."""

    def test_tables(self, R4):
        idx = np.arange(4)
        assert np.array_equal(R4.add, (idx[:, None] + idx) % 4)
        assert np.array_equal(R4.circ, (idx[:, None] + idx + 2 * idx[:, None] * idx) % 4)
        assert np.array_equal(R4.lam, (idx[None, :] * (1 + 2 * idx[:, None])) % 4)
        assert np.array_equal(R4.star_table(), (2 * idx[:, None] * idx) % 4)

    def test_point_values(self, R4):
        assert R4.lam[1, 1] == 3
        assert R4.star(1, 1) == 2
        assert table_eval(R4, "lambda", 1, 1) == 3
        assert table_eval(R4, "star", 1, 1) == 2
        assert table_eval(R4, "neg", 1) == 3
        assert table_eval(R4, "inv", 1) == 1  # 1 o 1 = 1+1+2 = 0 mod 4

    def test_naive_agreement(self, R4):
        add = R4.add.tolist()
        circ = R4.circ.tolist()
        for a in range(4):
            for b in range(4):
                assert R4.lam[a, b] == oracles.lambda_of(add, circ, a, b)
                assert R4.star(a, b) == oracles.star_of(add, circ, a, b)


def test_validate_corpus_sample_both_modes(corpus8):
    for brace in corpus8[:40]:
        assert validate(brace.add, brace.circ, mode="exhaustive").ok, brace.name
        assert validate(brace.add, brace.circ, mode="fast").ok, brace.name


def test_auto_mode_picks_by_order(A5at):
    assert A5at.order < FAST_VALIDATE_THRESHOLD
    report = validate(A5at.add, A5at.circ)
    assert report.ok and report.mode == "exhaustive"
    n = FAST_VALIDATE_THRESHOLD + 1
    idx = np.arange(n)
    big = (idx[:, None] + idx) % n
    report = validate(big, big, size_cap=n)
    assert report.ok and report.mode == "fast"


def test_greedy_generators_generate_the_additive_group(corpus8, A5at_square):
    # fast validate checks associativity and the brace relation only on
    # these generators, so they must generate (A, +); the ideal maps act
    # by the circle generators, so those must generate (A, o)
    for brace in [*corpus8, A5at_square]:
        for table in (brace.add, brace.circ):
            gens = closure_generators(table)[0]
            assert oracles.generated_by(table, gens) == set(range(brace.order)), brace.name


def test_every_builder_gives_generators_of_both_tables(monkeypatch, corpus8, A5at,
                                                     A5at_square):
    # validate (the named examples), the holomorph corpus, and products:
    # the lemma31 bases, the q34-wide products, the lazy A5at^2 and A5at
    # x| A5at under a few actions
    from brace_forge import corpus, verify
    from brace_forge import SigmaAction, semidirect, sigma_actions, wreath_base

    items = []
    monkeypatch.setattr(verify, "_sweep", lambda _s, found, *rest: items.extend(found))
    verify.search_q34(max_g=8, max_h=2)
    monkeypatch.undo()
    assert len(items) == 1467
    bases = {(G.name, H.order): wreath_base(G, H)[0] for G in corpus8 for H in corpus8
             if G.order ** H.order <= 64}
    actions = sigma_actions(A5at, A5at)
    braces = [*corpus._named_examples(60), *corpus8, *bases.values(),
              *(semidirect(G, H, SigmaAction(G, H, perms)) for _, _, G, H, perms, _ in items),
              A5at_square,
              *(semidirect(A5at, A5at, actions[i]) for i in (0, 1, 60, 120))]
    lifted = 0
    for brace in braces:
        for gens, table in ((brace.add_gens, brace.add), (brace.circ_gens, brace.circ)):
            assert isinstance(gens, tuple) and all(type(g) is int for g in gens), brace.name
            assert 0 not in gens, brace.name
            assert oracles.generated_by(table, gens) == set(range(brace.order)), brace.name
            lifted += set(gens) != set(closure_generators(table)[0])
    assert lifted > 100


def test_generators_are_kept_but_not_compared(R4, A5at_square):
    for brace in (R4, A5at_square):
        for copy in (pickle.loads(pickle.dumps(brace)), brace.with_name("other")):
            assert (copy.add_gens, copy.circ_gens) == (brace.add_gens, brace.circ_gens)
    other = FiniteSkewBrace(R4.order, R4.add, R4.circ, R4.neg, R4.inv, [3], [2, 1])
    assert (other.add_gens, other.circ_gens) == ((3,), (2, 1)) != (R4.add_gens, R4.circ_gens)
    assert other == R4 and hash(other) == hash(R4)


def test_generator_search_matches_the_magma_closure_search(corpus8, A5at, A5at_square):
    tables = {}
    for table in ([group_table(spec) for spec in CORPUS_GROUPS]
                  + [t for b in [*corpus8, A5at, A5at_square] for t in (b.add, b.circ)]):
        dense = np.asarray(table)
        tables.setdefault((dense.dtype.str, dense.tobytes()), table)
    for table in tables.values():
        assert closure_generators(table)[0] == oracles.magma_generators(np.asarray(table))
    assert closure_generators(A5at_square.add)[0] == [1, 3, 12, 60, 180, 720]


def test_generator_walk_reaches_every_label_once(corpus8, A5at, A5at_square):
    # the homomorphism search extends a map from 0 and the generators
    # along these steps, so each step must be one product by a generator
    # from a label already reached
    for table in [t for b in [*corpus8, A5at, A5at_square] for t in (b.add, b.circ)]:
        gens, steps = closure_generators(table)
        reached = {0, *gens}
        for y, x, g in steps:
            assert table[x, g] == y and g in gens and x in reached
            reached.add(y)
        labels = [0, *gens, *(y for y, _, _ in steps)]
        assert sorted(labels) == list(range(table.shape[0]))


def test_fast_validate_searches_generators_only_on_latin_squares(monkeypatch):
    def refuse(t):
        raise AssertionError("generator search on a table that is not a Latin square")

    monkeypatch.setattr(core, "closure_generators", refuse)
    n = FAST_VALIDATE_THRESHOLD + 1
    idx = np.arange(n)
    bad = _mutate((idx[:, None] + idx) % n, 5, 7, 13)   # 5 + 8 = 13 already
    report = validate(bad, bad, mode="fast", size_cap=n)
    assert [rule for rule, _ in report.violations] == ["add-inverses", "circ-inverses"]
    for _, (a, b, c) in report.violations:
        assert b != c and bad[a, b] == bad[a, c]


def test_fast_validate_on_a_latin_square_without_identity():
    # columns 1 and 2 of Z/302 swapped: 0 o 1 = 2, and right multiplication
    # by 1 never leads from 0 to 1, so the search must add 1 itself
    n = FAST_VALIDATE_THRESHOLD + 2
    idx = np.arange(n)
    swap = idx.copy()
    swap[[1, 2]] = [2, 1]
    t = (idx[:, None] + swap) % n
    assert closure_generators(t)[0] == [1]
    report = validate(t, (idx[:, None] + idx) % n, mode="fast", size_cap=n)
    assert report.violations[0] == ("add-identity", (1, 0, 0))


def test_fast_validate_finds_additive_generators_once(corpus8, monkeypatch):
    calls = []

    def counting(t):
        calls.append(t)
        return closure_generators(t)

    monkeypatch.setattr(core, "closure_generators", counting)
    for brace in corpus8[-5:]:
        calls.clear()
        assert validate(brace.add, brace.circ, mode="fast").ok
        assert len(calls) == 2
        assert np.array_equal(calls[0], brace.add) and np.array_equal(calls[1], brace.circ)


def _mutate(table, a, b, v):
    t = np.array(table)
    t[a, b] = v
    return t


@pytest.mark.parametrize("which", ["add", "circ"])
def test_single_cell_corruption_detected(R4, which):
    # changing one entry of a Latin square always leaves a row duplicate
    base = R4.add if which == "add" else R4.circ
    for a in range(4):
        for b in range(4):
            for v in range(4):
                if v == base[a, b]:
                    continue
                add = _mutate(R4.add, a, b, v) if which == "add" else R4.add
                circ = R4.circ if which == "add" else _mutate(R4.circ, a, b, v)
                for mode in ("fast", "exhaustive"):
                    assert not validate(add, circ, mode=mode).ok


def test_group_violation_replay(T2):
    bad = _mutate(T2.add, 0, 1, 0)
    report = validate(bad, T2.circ, mode="exhaustive")
    assert not report.ok
    for rule, (a, b, c) in report.violations:
        if rule == "add-identity":
            assert bad[0, a] != a or bad[a, 0] != a
        elif rule == "add-inverses":
            assert not any(bad[a, x] == 0 and bad[x, a] == 0 for x in range(2))

    c6 = group_brace("c6", "trivial")
    t = c6.add.copy()
    t[2, 3], t[2, 4] = t[2, 4], t[2, 3]
    report = validate(t, t, mode="exhaustive")
    assert not report.ok
    for rule, (a, b, c) in report.violations:
        if rule == "add-associativity":
            assert t[t[a, b], c] != t[a, t[b, c]]
        elif rule == "add-inverses":
            assert not any(t[a, x] == 0 and t[x, a] == 0 for x in range(6))
        elif rule == "add-identity":
            assert t[0, a] != a or t[a, 0] != a
        else:
            assert rule.startswith("circ-")


def test_brace_relation_violation_replay():
    # two individually valid order-6 groups whose pairing breaks the
    # compatibility relation: Z6 against Z6 relabeled through (1 2)
    n = 6
    idx = np.arange(n)
    add = (idx[:, None] + idx) % n
    p = np.array([0, 2, 1, 3, 4, 5])
    circ = p[add[np.ix_(p, p)]]  # p is an involution, so p inverts itself
    assert validate(add, add).ok
    assert validate(circ, circ).ok
    report = validate(add, circ, mode="exhaustive")
    assert not report.ok
    assert report.violations
    addl = add.tolist()
    circl = circ.tolist()
    for rule, (a, b, c) in report.violations:
        assert rule == "brace-relation"
        na = oracles.neg_of(addl, a)
        lhs = circl[a][addl[b][c]]
        rhs = addl[addl[circl[a][b]][na]][circl[a][c]]
        assert lhs != rhs
    # fast mode rejects it too (possibly via a different witness)
    assert not validate(add, circ, mode="fast").ok


def _corrupted_pairs(braces, seed):
    """(add, circ) pairs near each brace: circ relabelled by a random
    permutation fixing 0 (still a group, so the brace relation is what
    fails), and one random cell changed in add or in circ."""
    rng = np.random.default_rng(seed)
    for B in braces:
        n = B.order
        if n < 3:
            continue
        p = np.concatenate(([0], 1 + rng.permutation(n - 1)))
        q = np.argsort(p)
        yield B.add, p[B.circ[np.ix_(q, q)]]
        for which in (0, 1):
            tables = [B.add.copy(), B.circ.copy()]
            a, b = rng.integers(n, size=2)
            tables[which][a, b] = (tables[which][a, b] + rng.integers(1, n)) % n
            yield tuple(tables)


def test_exhaustive_validate_by_row_blocks(corpus8, A5at, monkeypatch):
    """Block sizes of one row and of three rows give the same reports as
    the default block, which holds every table here whole; with small
    blocks the first witness often lies past a block boundary."""
    order60 = [A5at, group_brace("s3xc2xc5", "trivial"), group_brace("c3xc4xc5", "trivial")]
    pairs = list(_corrupted_pairs(corpus8, 1)) + list(_corrupted_pairs(order60 * 6, 2))

    def reports():
        return [validate(add, circ, mode="exhaustive").violations for add, circ in pairs]

    want = reports()
    for entries in (1, 3 * 60 * 60):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", entries)
        assert reports() == want
    # witnesses in a later block than the first: row >= 1 for one-row
    # blocks, row >= 3 for three-row blocks
    past = {(rule, a >= 3) for v in want for rule, (a, _, _) in v if a >= 1}
    assert {("add-associativity", False), ("circ-associativity", False),
            ("brace-relation", False), ("brace-relation", True)} <= past


def test_table_format_errors():
    with pytest.raises(TableFormatError):
        validate([[0, 1], [1, 0], [0, 1]], [[0, 1], [1, 0]])
    with pytest.raises(TableFormatError):
        validate([[0, 9], [1, 0]], [[0, 1], [1, 0]])
    with pytest.raises(TableFormatError):
        validate([[0.5, 1], [1, 0]], [[0, 1], [1, 0]])
    with pytest.raises(TableFormatError):
        validate([[0, 1], [1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def test_size_cap_env(monkeypatch):
    c6 = group_brace("c6", "trivial")
    monkeypatch.setenv("BRACE_FORGE_MAX_ORDER", "4")
    with pytest.raises(SizeCapExceeded):
        validate(c6.add, c6.circ)
    monkeypatch.delenv("BRACE_FORGE_MAX_ORDER")
    assert validate(c6.add, c6.circ).ok
    # explicit argument overrides the environment
    monkeypatch.setenv("BRACE_FORGE_MAX_ORDER", "4")
    assert validate(c6.add, c6.circ, size_cap=6).ok


def test_brace_from_tables_raises_with_report(T2):
    bad = _mutate(T2.circ, 1, 1, 1)
    with pytest.raises(ValidationFailure) as exc:
        brace_from_tables(T2.add, bad)
    assert exc.value.report.violations


def test_immutability(R4):
    with pytest.raises(AttributeError):
        R4.order = 5
    with pytest.raises(ValueError):
        R4.add[0, 0] = 1
    with pytest.raises(ValueError):
        R4.star_table()[0, 0] = 1
    with pytest.raises(ValueError):
        R4.lam[0, 0] = 1
    with pytest.raises(AttributeError):
        R4.lam = R4.add


def test_equality_hash_naming(R4):
    clone = brace_from_tables(R4.add.copy(), R4.circ.copy(), R4.name)
    assert clone == R4
    assert hash(clone) == hash(R4)
    renamed = clone.with_name("other")
    assert renamed.name == "other"
    assert renamed == R4  # names are informational, tables decide equality


def test_pickle_round_trip(R4, S3at, corpus8):
    for brace in [R4, S3at] + list(corpus8[::7]):
        for copy in (pickle.loads(pickle.dumps(brace)), brace.with_name("other")):
            assert copy == brace
            assert np.array_equal(copy.lam, brace.lam)
            assert np.array_equal(copy.star_table(), brace.star_table())


def test_lam_is_derived_not_stored(corpus8, A5at_square):
    assert "lam" not in FiniteSkewBrace.__slots__
    for brace in list(corpus8) + [A5at_square]:
        lam = brace.lam
        want = brace.add[brace.neg[:, None], np.asarray(brace.circ)]   # -a + (a o b)
        assert lam.dtype == want.dtype == brace.add.dtype, brace.name
        assert np.array_equal(lam, want), brace.name
        assert lam is not brace.lam  # gathered on each access, never cached


def test_lam_block_matches_the_full_gather(corpus8, A5at_square):
    rng = np.random.default_rng(7)
    for brace in list(corpus8[::5]) + [A5at_square]:
        full = brace.lam
        for _ in range(4):
            rows = rng.integers(0, brace.order, size=rng.integers(1, 9))
            cols = rng.integers(0, brace.order, size=rng.integers(1, 9))
            block = core.lam_block(brace, rows, cols)
            assert block.dtype == full.dtype
            assert np.array_equal(block, full[np.ix_(rows, cols)]), brace.name
            stars = core.star_block(brace, rows, cols)
            want = brace.add[full[np.ix_(rows, cols)], brace.neg[cols]]   # lambda_b(c) - c
            assert np.array_equal(stars, want), brace.name


def test_star_identities(corpus8):
    for brace in corpus8[:25]:
        n = brace.order
        for a in range(n):
            for b in range(n):
                lam = brace.lam[a, b]
                assert brace.circ[a, b] == brace.add[a, lam]
                assert brace.star(a, b) == brace.add[lam, brace.neg[b]]


def test_lambda_is_circle_action(corpus8):
    # lambda_{a o b}(c) = lambda_a(lambda_b(c)) for all triples
    for brace in corpus8[:25]:
        lam = brace.lam
        for a in range(brace.order):
            composed = lam[a, lam]          # (b, c) -> lambda_a(lambda_b(c))
            assert np.array_equal(lam[brace.circ[a]], composed), brace.name


def test_generated_subbrace_matches_naive(R4, S3at, corpus8):
    samples = [R4, S3at] + list(corpus8[:10])
    for brace in samples:
        seeds = [[1 % brace.order], [brace.order - 1]]
        if brace.order > 2:
            seeds.append([1, 2])
        for seed in seeds:
            got = generated_subbrace(brace, seed)
            want = oracles.naive_generated_subbrace(brace, seed)
            assert set(got) == want, brace.name


def test_star_set_and_product(R4):
    full = list(range(4))
    raw = star_set(R4, full, full)
    assert raw == frozenset({0, 2})  # 2ij mod 4 only hits even values
    prod = star_product(R4, full, full)
    assert prod == frozenset({0, 2})  # already closed
    assert star_product(R4, [0], full) == frozenset({0})
    assert star_set(R4, [], full) == frozenset()


def test_members_must_be_integers(R4):
    # a non-integral member is an error, not a truncated label
    with pytest.raises(PreconditionError, match=r"^member 2.9 is not an integer$"):
        is_ideal(R4, [0, 2.9])
    with pytest.raises(PreconditionError, match=r"^member 2.2 is not an integer$"):
        star_set(R4, [2.2], [2.9])
    with pytest.raises(PreconditionError, match=r"^member 2.9 is not an integer$"):
        as_ideal(R4, [0, 2.9])
    with pytest.raises(PreconditionError, match=r"^member 2.5 is not an integer$"):
        core.normalize_members(4, np.array([0, 2.5]))
    with pytest.raises(PreconditionError, match=r"^member x is not an integer$"):
        core.normalize_members(4, [0, "x"])
    with pytest.raises(PreconditionError, match=r"^member 4 out of range 0..3$"):
        is_ideal(R4, np.array([4, 0], dtype=np.uint8))
    # integral values are still members
    assert is_ideal(R4, [0, 2.0]) == (True, None)
    assert core.normalize_members(4, [3, np.int16(1), 3.0]).tolist() == [1, 3]


def test_integer_member_arrays_take_no_loop(R4, monkeypatch):
    def no_loop(value):
        raise AssertionError("an integer array was read one member at a time")

    monkeypatch.setattr(core, "_member", no_loop)
    for dtype in (np.int8, np.int64, np.uint16):
        assert core.normalize_members(4, np.array([2, 0, 2], dtype=dtype)).tolist() == [0, 2]
        assert is_ideal(R4, np.array([0, 2], dtype=dtype)) == (True, None)
    with pytest.raises(AssertionError, match="one member at a time"):
        core.normalize_members(4, [0, 2])


def test_table_eval_errors(R4):
    with pytest.raises(PreconditionError):
        table_eval(R4, "bogus", 0, 0)
    with pytest.raises(PreconditionError):
        table_eval(R4, "add", 0)
    with pytest.raises(PreconditionError):
        table_eval(R4, "add", 0, 9)
    with pytest.raises(PreconditionError):
        table_eval(R4, "neg", 0, 1)
    # a non-integral label is an error, not a truncated one
    with pytest.raises(PreconditionError, match=r"^a 1.5 is not an integer$"):
        table_eval(R4, "add", 1.5, 2)
    with pytest.raises(PreconditionError, match=r"^b 2.9 is not an integer$"):
        table_eval(R4, "circ", 1, 2.9)
    with pytest.raises(PreconditionError, match=r"^a x is not an integer$"):
        table_eval(R4, "neg", "x")
    assert table_eval(R4, "add", 1.0, np.int16(2)) == table_eval(R4, "add", 1, 2)


def test_star_checks_its_labels(R4):
    # a negative label is not read from the end of the table, and a bad
    # label is a PreconditionError, not a numpy IndexError
    assert R4.star(3, 1) == R4.star(3.0, np.int16(1)) == 2
    for a, b in ((-1, 1), (9, 0), (0, 4), (1.5, 1), (1, 2.9)):
        with pytest.raises(PreconditionError):
            R4.star(a, b)


def test_fmt_members():
    assert fmt_members([2, 0]) == "{0,2}"
    assert fmt_members([]) == "{}"


@st.composite
def corpus_relabeling(draw):
    n = draw(st.sampled_from([2, 3, 4, 6, 8]))
    rest = draw(st.permutations(list(range(1, n))))
    return n, [0] + list(rest)


@given(corpus_relabeling())
@settings(max_examples=40, deadline=None)
def test_relabeling_preserves_validity(data):
    n, perm = data
    spec, variant = {2: ("c2", "trivial"), 3: ("c3", "trivial"),
                     4: ("c4", "trivial"), 6: ("s3", "almost_trivial"),
                     8: ("d4", "almost_trivial")}[n]
    brace = group_brace(spec, variant)
    p = np.array(perm)
    q = np.argsort(p)
    add = p[brace.add[np.ix_(q, q)]]
    circ = p[brace.circ[np.ix_(q, q)]]
    assert validate(add, circ).ok


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_corruption_never_validates(a, b, v, which_add):
    R4 = radical_ring_brace(8, 2)
    table = R4.add if which_add else R4.circ
    if table[a, b] == v:
        v = (v + 1) % 4
    add = _mutate(R4.add, a, b, v) if which_add else R4.add
    circ = R4.circ if which_add else _mutate(R4.circ, a, b, v)
    assert not validate(add, circ).ok
