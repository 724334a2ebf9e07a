import hashlib
import tracemalloc

import numpy as np
import pytest

from brace_forge import (
    PreconditionError,
    is_semiprime,
    SigmaAction,
    SizeCapExceeded,
    WreathContext,
    delta_function,
    group_brace,
    holomorph_enumerate,
    is_trivial,
    pointwise_lift,
    rho_projection,
    search_q34,
    semidirect,
    semiprime_verdicts,
    serialize_document,
    sigma_actions,
    trivial_sigma,
    validate,
    validate_sigma,
    verify_cor28_thm33,
    wreath,
    wreath_base,
)
from brace_forge import core, ideals, products, verify
from brace_forge.groups import PairTable, _pair_table, dihedral_table, direct_product_table
from brace_forge.products import SIGMA_RULES, _shift_perms

import oracles


def test_sigma_rules_constant():
    assert SIGMA_RULES == ("permutation", "identity-action", "add-morphism",
                           "circ-morphism", "homomorphism")


def test_sigma_shape_check(R4, T2):
    with pytest.raises(PreconditionError):
        SigmaAction(R4, T2, np.zeros((3, 4), dtype=int))
    sig = trivial_sigma(R4, T2)
    assert sig.perms.shape == (2, 4)
    assert sig.apply(1, 3) == 3
    assert validate_sigma(sig) == []


def test_sigma_rule_violations(R4, T2):
    # non-permutation row
    sig = SigmaAction(R4, T2, [[0, 1, 2, 3], [0, 0, 2, 3]])
    bad = validate_sigma(sig)
    assert any(h == 1 and rule == "permutation" for h, rule, _ in bad)

    # row 0 not the identity
    sig = SigmaAction(R4, T2, [[0, 3, 2, 1], [0, 1, 2, 3]])
    bad = validate_sigma(sig)
    assert any(h == 0 and rule == "identity-action" for h, rule, _ in bad)

    # permutation that is not an add-morphism: swap 0 and 1
    sig = SigmaAction(R4, T2, [[0, 1, 2, 3], [1, 0, 2, 3]])
    rules = {rule for _, rule, _ in validate_sigma(sig)}
    assert "add-morphism" in rules or "circ-morphism" in rules


def test_sigma_rejects_entries_it_would_change(R4, T2):
    # fractions, int64 labels that wrap in int16 and Python ints past int16
    for perms in ([[0, 1, 2, 3], [0.9, 3.2, 2, 1]],
                  np.array([[0, 1, 2, 3], [65536, 65537, 65538, 65539]], dtype=np.int64),
                  [[0, 1, 2, 3], [0, -65533, 2, 1]]):
        with pytest.raises(PreconditionError, match="integers in 0..3"):
            SigmaAction(R4, T2, perms)
    assert SigmaAction(R4, T2, [[0.0, 1, 2, 3], [0, 3, 2, 1]]).perms.tolist() == \
        [[0, 1, 2, 3], [0, 3, 2, 1]]


def test_sigma_apply_checks_its_labels(R4, T2):
    # h in 0..|H|-1 and g in 0..|G|-1; -1 is not read from the end
    sigma = trivial_sigma(R4, T2)
    assert sigma.apply(1, 3) == sigma.apply(1.0, np.int16(3)) == 3
    for h, g in ((-1, 0), (5, 0), (2, 0), (0, 4), (0, -1), (0, 1.5), (0.5, 0)):
        with pytest.raises(PreconditionError):
            sigma.apply(h, g)


def test_nontrivial_sigma_semidirect(R4, T2):
    # x -> 3x respects both R4 tables and squares to the identity
    phi = [0, 3, 2, 1]
    sig = SigmaAction(R4, T2, [[0, 1, 2, 3], phi])
    assert validate_sigma(sig) == []
    prod = semidirect(R4, T2, sig)
    assert prod.order == 8
    # (g,h) encodes as g*2 + h
    assert prod.circ[2, 3] == 1  # (1,0)o(1,1): (1 o 1, 0 o 1) = (0,1)
    assert prod.circ[3, 2] == 5  # (1,1)o(1,0): (1 o 3, 1 o 0) = (2,1)
    assert prod.add[2, 3] == 5   # (1+1, 0+1) = (2,1)


def test_trivial_sigma_gives_direct_product(R4, S3at, T2):
    for G, H in ((R4, T2), (S3at, T2), (T2, S3at)):
        prod = semidirect(G, H, trivial_sigma(G, H))
        assert prod.order == G.order * H.order
        assert np.array_equal(prod.add, direct_product_table(G.add, H.add))
        assert np.array_equal(prod.circ, direct_product_table(G.circ, H.circ))


def test_semidirect_rejects_wrong_sigma(R4, S3at, T2):
    sig = trivial_sigma(R4, T2)
    with pytest.raises(PreconditionError):
        semidirect(S3at, T2, sig)
    broken = SigmaAction(R4, T2, [[0, 1, 2, 3], [1, 0, 2, 3]])
    with pytest.raises(PreconditionError):
        semidirect(R4, T2, broken)


def test_semidirect_size_cap(A5at, monkeypatch):
    monkeypatch.setenv("BRACE_FORGE_MAX_ORDER", "100")
    with pytest.raises(SizeCapExceeded):
        semidirect(A5at, A5at, trivial_sigma(A5at, A5at))


class TestCodec:
    def test_round_trip(self):
        ctx = WreathContext(4, 3)
        assert ctx.order == 64
        assert ctx.weights.tolist() == [16, 4, 1]
        for label in range(64):
            assert ctx.encode(ctx.decode(label)) == label

    def test_big_endian(self):
        ctx = WreathContext(4, 2)
        assert ctx.encode([1, 0]) == 4   # position 0 is most significant
        assert ctx.encode([0, 1]) == 1
        assert ctx.decode(6).tolist() == [1, 2]

    def test_digit_matrix(self):
        ctx = WreathContext(3, 2)
        D = ctx.digit_matrix()
        assert D.shape == (9, 2)
        assert D[5].tolist() == [1, 2]
        for label in range(9):
            assert np.array_equal(D[label], ctx.decode(label))

    def test_errors(self):
        ctx = WreathContext(4, 2)
        with pytest.raises(PreconditionError):
            ctx.encode([1, 4])
        with pytest.raises(PreconditionError):
            ctx.encode([1, 2, 3])
        with pytest.raises(PreconditionError):
            ctx.decode(16)
        # non-integral digits, labels and positions are errors, not truncated
        with pytest.raises(PreconditionError, match="1.5 is not an integer"):
            ctx.encode([1.5, 2])
        with pytest.raises(PreconditionError, match="3.5 is not an integer"):
            ctx.decode(3.5)
        with pytest.raises(PreconditionError, match="2.9 is not an integer"):
            delta_function(ctx, 1, 2.9)
        with pytest.raises(PreconditionError, match="0.5 is not an integer"):
            rho_projection(ctx, 3, 0.5)
        with pytest.raises(PreconditionError):
            delta_function(ctx, 2, 1)
        with pytest.raises(PreconditionError):
            rho_projection(ctx, 3, -1)
        assert ctx.encode([1.0, 2]) == 6 and delta_function(ctx, 1, 2.0) == 2
        assert ctx.decode(6.0).tolist() == [1, 2] and rho_projection(ctx, 6, 1.0) == 2
        with pytest.raises(SizeCapExceeded):
            WreathContext(60, 3)


def test_wreath_base_is_pointwise_power(T2, R4):
    base, ctx = wreath_base(T2, T2)
    assert base.order == 4
    assert np.array_equal(base.add, direct_product_table(T2.add, T2.add))
    base, ctx = wreath_base(R4, T2)
    assert base.order == 16
    assert np.array_equal(base.add, direct_product_table(R4.add, R4.add))
    assert np.array_equal(base.circ, direct_product_table(R4.circ, R4.circ))
    # digit k of a product is the product of digit k's
    D = ctx.digit_matrix()
    for x in (3, 7, 9):
        for y in (1, 5, 14):
            z = int(base.add[x, y])
            assert all(D[z][k] == R4.add[D[x][k], D[y][k]] for k in range(2))
    # every pair, both tables, two and three positions: digit k of x op y
    # is the op of digit k of x and digit k of y (big-endian codec order)
    for G, H in ((R4, T2), (T2, R4), (R4, group_brace("c3", "trivial"))):
        base, ctx = wreath_base(G, H)
        D = ctx.digit_matrix()
        for op, table in ((base.add, G.add), (base.circ, G.circ)):
            assert np.array_equal(D[op], table[D[:, None, :], D[None, :, :]])


def test_wreath_t2_t2_pinned(T2):
    prod, ctx = wreath(T2, T2)
    assert prod.order == 8
    # additive side: elementary abelian of order 8
    assert np.array_equal(prod.add,
                          direct_product_table(T2.add, T2.add, T2.add))
    # circle side: dihedral of order 8 (5 involutions rules out Q8)
    invs = sum(1 for a in range(1, 8) if prod.circ[a, a] == 0)
    assert invs == 5
    assert oracles.tables_isomorphic(prod.circ.tolist(), dihedral_table(4).tolist())
    assert not is_trivial(prod)


def test_wreath_shift_is_homomorphism(T2, S3at):
    # the argument shift must precompose with the circle inverse; using h
    # itself flips composition order and breaks the action for nonabelian H
    base, ctx = wreath_base(T2, S3at)
    good = SigmaAction(base, S3at, _shift_perms(ctx, S3at))
    assert validate_sigma(good) == []

    D = ctx.digit_matrix()
    loop = np.stack([D[:, S3at.circ[S3at.inv[h]]] @ ctx.weights for h in range(S3at.order)])
    assert np.array_equal(_shift_perms(ctx, S3at), loop)
    naive = np.zeros((S3at.order, ctx.order), dtype=int)
    for h in range(S3at.order):
        naive[h] = D[:, S3at.circ[h]] @ ctx.weights
    bad = validate_sigma(SigmaAction(base, S3at, naive))
    assert bad
    assert {rule for _, rule, _ in bad} == {"homomorphism"}


def test_wreath_involutive_shift_agrees(T2, R4):
    # for involutive H the two conventions coincide
    base, ctx = wreath_base(R4, T2)
    D = ctx.digit_matrix()
    naive = np.stack([D[:, T2.circ[h]] @ ctx.weights for h in range(2)])
    assert np.array_equal(_shift_perms(ctx, T2), naive)


def test_wreath_validates(T2, R4, S3at):
    for G, H in ((R4, T2), (T2, S3at)):
        prod, ctx = wreath(G, H)
        assert prod.order == G.order ** H.order * H.order
        report = validate(prod.add, prod.circ)
        assert report.ok


def test_delta_rho(T2, R4):
    base, ctx = wreath_base(R4, T2)
    lab = delta_function(ctx, 1, 3)
    assert lab == 3
    assert rho_projection(ctx, lab, 1) == 3
    assert rho_projection(ctx, lab, 0) == 0
    lab = delta_function(ctx, 0, 2)
    assert lab == 8
    with pytest.raises(PreconditionError):
        delta_function(ctx, 2, 0)
    with pytest.raises(PreconditionError):
        rho_projection(ctx, 0, 5)


def test_pointwise_lift(R4, T2):
    base, ctx = wreath_base(R4, T2)
    lifted = pointwise_lift(ctx, [0, 2])
    assert lifted.tolist() == [0, 2, 8, 10]
    assert pointwise_lift(ctx, [0]).tolist() == [0]
    full = pointwise_lift(ctx, range(4))
    assert full.tolist() == list(range(16))
    with pytest.raises(PreconditionError):
        pointwise_lift(ctx, [4])
    with pytest.raises(PreconditionError, match="2.9 is not an integer"):
        pointwise_lift(ctx, [0, 2.9])
    assert pointwise_lift(ctx, [2.0, 0, 2]).tolist() == [0, 2, 8, 10]


def _assert_matches_validate(power):
    reference = validate(power.add, power.circ).brace
    assert reference is not None, power.name
    for table in ("add", "circ", "neg", "inv", "lam"):
        got, want = getattr(power, table), getattr(reference, table)
        assert got.dtype == want.dtype, (power.name, table)
        assert np.array_equal(got, want), (power.name, table)
        if isinstance(got, PairTable):
            with pytest.raises(TypeError):
                got[0, 0] = 0
        else:
            assert not got.flags.writeable, (power.name, table)


def test_wreath_base_is_the_validated_power(corpus8):
    # wreath_base builds G^m without validating it; validate must accept
    # its tables and derive the same neg, inv and lambda tables
    positions = [group_brace(f"c{m}", "trivial") for m in (1, 2, 3)]
    for G in corpus8:
        for H in positions:
            if G.order ** H.order <= 729:
                _assert_matches_validate(wreath_base(G, H)[0])


@pytest.mark.parametrize("positions", [1, 2, 3])
def test_stacked_power_reads_each_base_of_its_stack(corpus8, positions):
    # the tables of a stack of bottoms of one order at any |H| (8^3 = 512
    # is above the ideal cap): every read, the dense build, neg, inv and
    # the lifted generators are those of each bottom's own wreath_base,
    # for a stack of one too, whose add and circ are the square PairTables
    H = group_brace(f"c{positions}", "trivial")
    rng = np.random.default_rng(positions)
    for order in (2, 4, 8):
        bottoms = [B for B in corpus8 if B.order == order][:5]
        for stack in (bottoms, bottoms[-1:]):
            tables = products._stacked_power(stack, positions)
            bases = [wreath_base(B, H)[0] for B in stack]
            n, B = order ** positions, len(stack)
            assert tables.n == n and len(tables) == B
            for name in ("add", "circ", "neg", "inv"):
                got = getattr(tables, name)
                want = np.concatenate([np.asarray(getattr(W, name)) for W in bases])
                assert np.array_equal(np.asarray(got), want), name
                if name in ("neg", "inv") or positions == 1:
                    continue
                assert isinstance(got, PairTable) and got.shape == (B * n, n)
                assert got.dtype == want.dtype == np.int16
                rows, cols = rng.integers(-B * n, B * n, 9), rng.integers(-n, n, 4)
                for key in [(int(rows[0]), int(cols[0])), rows, (slice(None), cols),
                            (rows[:, None], cols), slice(n - 3, n + 3), (rows, slice(None)),
                            np.ix_(rows, cols), (slice(None), int(cols[1]))]:
                    assert np.array_equal(got[key], want[key]), (name, key)
            for name in ("add_gens", "circ_gens"):
                for row, W in zip(getattr(tables, name).tolist(), bases):
                    assert [g for g in row if g] == [g for g in getattr(W, name) if g], name


def test_stacked_power_keeps_the_base_order_cap(corpus8):
    with pytest.raises(SizeCapExceeded, match="function space order 32768"):
        products._stacked_power([B for B in corpus8 if B.order == 8], 5)


def test_wreath_base_a5at_square_is_the_validated_power(A5at_square):
    assert A5at_square.order == 3600
    _assert_matches_validate(A5at_square)


def _stack_row(tables, b, name=""):
    """Row b of an ``ideals._Tables`` stack as a brace, its tables read
    dense and its generators without the padding label 0."""
    rows = slice(b * tables.n, (b + 1) * tables.n)
    add, circ = (np.asarray(getattr(tables, t)[rows]) for t in ("add", "circ"))
    gens = ([g for g in getattr(tables, k)[b].tolist() if g] for k in ("add_gens", "circ_gens"))
    return core.FiniteSkewBrace(tables.n, add, circ, tables.neg[rows], tables.inv[rows], *gens, name)


def test_sweep_products_match_validate(monkeypatch, A5at):
    # every product the one builder stacks under an action in the default
    # cor28, thm33 and q34 sweeps, the q34-wide search and A5at x| A5at:
    # each row of each stack equals the brace validate derives from its add
    # and circ tables.  The builder is recorded, not _product, since the
    # cor28 and q34 batches stack their actions without building a brace
    kernel, stacks = products._stacked_product, []

    def recording(left, right, perms):
        tables = kernel(left, right, perms)
        if perms is not None:           # the identity steps of a power: its own tests
            stacks.append(tables)
        return tables

    def rows():
        return sum(len(tables) for tables in stacks)

    monkeypatch.setattr(products, "_stacked_product", recording)
    ids = [case.case_id for report in verify_cor28_thm33().values() for case in report.cases]
    # one product per cor28 action and per thm33 wreath; the classify cases
    # and the thm33 stand-in (a wreath_base) build none
    cor28 = sum(i.startswith("cor28:") for i in ids)
    thm33 = sum(i.startswith("thm33:") and ":standin:" not in i for i in ids)
    assert cor28 > 0 and rows() == cor28 + thm33
    for search in (search_q34, lambda: search_q34(max_g=8, max_h=2)):
        before = rows()
        report = search()
        assert report.attempted > 0 and rows() - before == report.attempted
    semidirect(A5at, A5at, trivial_sigma(A5at, A5at))
    monkeypatch.undo()
    built = {}
    for tables in stacks:
        for b in range(len(tables)):
            P = _stack_row(tables, b)
            key = hashlib.sha256()
            for table in (P.add, P.circ, P.neg, P.inv):
                key.update(str(table.dtype).encode() + table.tobytes())
            built.setdefault(key.digest(), P)
    assert 3600 in {P.order for P in built.values()}
    for P in built.values():
        _assert_matches_validate(P)


def _assert_stack_rows_are(tables, wants, rng):
    """Row b of the stack ``tables`` has the neg, inv, generators, add and
    circ of wants[b]; add and circ are read at the index forms of
    test_stacked_power_reads_each_base_of_its_stack, each entry [x, y] of
    the stack checked against wants[x // n][x % n, y]."""
    B, n = len(wants), tables.n
    assert len(tables) == B and all(W.order == n for W in wants)
    for name in ("neg", "inv"):
        assert np.array_equal(getattr(tables, name), np.concatenate([getattr(W, name) for W in wants]))
    for name in ("add_gens", "circ_gens"):
        for row, W in zip(getattr(tables, name).tolist(), wants):
            assert [g for g in row if g] == list(getattr(W, name)), name
    # the row and column label of each entry a key selects, in numpy's layout
    labels = [np.broadcast_to(np.arange(size).reshape(shape), (B * n, n))
              for size, shape in ((B * n, (-1, 1)), (n, (1, -1)))]
    rows, cols = rng.integers(-B * n, B * n, 9), rng.integers(-n, n, 4)
    for key in [(int(rows[0]), int(cols[0])), rows, (slice(None), cols), (rows[:, None], cols),
                slice(n - 3, n + 3), (rows, slice(None)), np.ix_(rows, cols),
                (slice(None), int(cols[1]))]:
        x, y = (np.asarray(label[key]) for label in labels)
        for name in ("add", "circ"):
            got, want = np.asarray(getattr(tables, name)[key]), np.empty(x.shape, np.int64)
            for b in np.unique(x // n).tolist():
                at = x // n == b
                want[at] = getattr(wants[b], name)[x[at] % n, y[at]]
            assert got.dtype == wants[0].add.dtype and np.array_equal(got, want), (name, key)


def test_action_stacks_match_each_product(monkeypatch, A5at):
    # every row of a stack of actions has the tables and generators of
    # _product under its action: the actions of each (G, H) pair of the
    # q34-wide search (1,467) as one stack, the sweep's own stacks of them
    # (the pairs of one |G| and |H| together), and all 121 actions of A5at
    # on A5at, above the ideal cap and read lazily
    items = []
    with monkeypatch.context() as m:
        m.setattr(verify, "_sweep", lambda _s, found, *rest: items.extend(found))
        search_q34(max_g=8, max_h=2)
    assert len(items) == 1467
    rng = np.random.default_rng(34)
    pairs = {}
    for _, _, G, H, perms, _ in items:
        pairs.setdefault((G, H), []).append(perms)
    for (G, H), actions in pairs.items():
        perms = np.stack(actions)
        B = len(perms)
        tables = products._stacked_product(ideals._Tables([G] * B), ideals._Tables([H] * B), perms)
        _assert_stack_rows_are(tables, [products._product(G, H, p) for p in perms], rng)
    actions = [item[2:5] for item in items]
    stacked = 0
    for index, tables in products._action_stacks(actions):
        wants = [products._product(G, H, perms) for G, H, perms in (actions[i] for i in index)]
        _assert_stack_rows_are(tables, wants, rng)
        stacked += len(index)
    assert stacked == len(items) and len(pairs) == 612
    perms = np.stack([sigma.perms for sigma in sigma_actions(A5at, A5at, budget=121)])
    assert perms.shape == (121, 60, 60)
    tables = products._stacked_product(ideals._Tables([A5at] * 121), ideals._Tables([A5at] * 121),
                                       perms)
    assert isinstance(tables.add, PairTable) and isinstance(tables.circ, PairTable)
    wants = [products._product(A5at, A5at, p) for p in perms]
    assert all(isinstance(W.circ, PairTable) for W in wants)
    _assert_stack_rows_are(tables, wants, rng)


def test_product_lam_is_the_pair_formula(R4, S3at, T2, A5at):
    # the product no longer stores lambda; the derived table is the one it
    # used to build, (lambda_g1(sigma(h1)(g2)), lambda_h1(h2)) with pairs
    # encoded as g*|H| + h, in the same dtype
    phi = [0, 3, 2, 1]
    cases = [(R4, T2, SigmaAction(R4, T2, [[0, 1, 2, 3], phi]).perms),
             (S3at, T2, trivial_sigma(S3at, T2).perms),
             (T2, S3at, trivial_sigma(T2, S3at).perms),
             (A5at, T2, trivial_sigma(A5at, T2).perms)]
    for G, H, perms in cases:
        P = products._product(G, H, perms, "P")
        dt = core.table_dtype(P.order)
        want = _pair_table(G.lam[:, perms], H.lam, dt)
        assert P.lam.dtype == want.dtype
        assert np.array_equal(P.lam, want), (G.name, H.name)
        assert not P.lam.flags.writeable


def test_wreath_base_semiprime_scan_stays_within_two_tables(A5at, T2):
    # a brace stores add and circ (plus two length-n inverse tables); the
    # build and the fast scan may peak at 1.25 x those two n x n tables, so
    # a stored or cached lambda table (a third n x n table) fails this
    tracemalloc.start()
    try:
        W = wreath_base(A5at, T2)[0]
        assert is_semiprime(W, method="fast").semiprime
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.order == 3600
    assert peak < 2.5 * W.order ** 2 * W.add.dtype.itemsize, peak


def test_a5at_cube_is_built_over_its_lazy_factor(monkeypatch, A5at):
    # A5at^3 (order 216,000) is a product over the lazy A5at^2 that reads
    # both factors' tables in place: its build stays far below one dense
    # int32 table of its own (187 GB), and its entries are the pointwise ones
    monkeypatch.setenv("BRACE_FORGE_MAX_ORDER", "216000")
    tracemalloc.start()
    try:
        W, ctx = wreath_base(A5at, group_brace("c3", "trivial"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.order == 216000 and peak < 16e6, peak
    x, y = np.random.default_rng(7).integers(0, W.order, (2, 1000))
    dx, dy = (np.array([ctx.decode(int(v)) for v in z]) for z in (x, y))
    for op in ("add", "circ"):
        want = getattr(A5at, op)[dx, dy] @ ctx.weights     # digit by digit
        assert np.array_equal(getattr(W, op)[x, y], want), op
    assert is_semiprime(W, method="fast").semiprime


def test_products_never_validate(monkeypatch, R4, T2, S3at):
    def refuse(*args, **kwargs):
        raise AssertionError("a product called validate")

    monkeypatch.setattr(core, "validate", refuse)
    sigma = SigmaAction(R4, T2, [[0, 1, 2, 3], [0, 3, 2, 1]])
    assert semidirect(R4, T2, sigma).order == 8
    assert wreath_base(R4, T2)[0].order == 16
    assert wreath(T2, S3at)[0].order == 2 ** 6 * 6


def test_derived_actions_are_never_validated(monkeypatch, R4, T2, S3at):
    # the sweeps and wreath build their products from actions that are
    # actions by construction; only semidirect runs validate_sigma
    def refuse(*args, **kwargs):
        raise AssertionError("a derived action was validated")

    with monkeypatch.context() as m:
        m.setattr(products, "validate_sigma", refuse)
        reports = [*verify_cor28_thm33(corpus_max=4).values(), search_q34(max_g=4, max_h=2)]
        for report in reports:
            assert report.attempted > 0 and report.passed == report.attempted, report.statement
        assert wreath(T2, S3at)[0].order == 2 ** 6 * 6
        with pytest.raises(AssertionError, match="derived action"):
            semidirect(R4, T2, trivial_sigma(R4, T2))
    not_an_action = SigmaAction(R4, T2, [[0, 1, 2, 3], [1, 0, 3, 2]])
    with pytest.raises(PreconditionError, match="invalid action: h=1 breaks add-morphism"):
        semidirect(R4, T2, not_an_action)


def test_derived_actions_pass_validate_sigma(monkeypatch, corpus8, A5at):
    # the slow path agrees that every action the sweeps and wreath build
    # unchecked is one: the 1,467 actions of the q34-wide search, all 121
    # of A5at on A5at, and the shift of every wreath_base pair of
    # test_wreath_base_is_the_validated_power
    items = []
    monkeypatch.setattr(verify, "_sweep", lambda _s, found, *rest: items.extend(found))
    search_q34(max_g=8, max_h=2)
    monkeypatch.undo()
    found = [SigmaAction(G, H, perms) for _, _, G, H, perms, _ in items]
    assert len(found) == 1467
    found += sigma_actions(A5at, A5at)
    assert len(found) == 1467 + 121
    for G in corpus8:
        for H in (group_brace(f"c{m}", "trivial") for m in (1, 2, 3)):
            if G.order ** H.order <= 729:
                base, ctx = wreath_base(G, H)
                found.append(SigmaAction(base, H, _shift_perms(ctx, H)))
    for action in found:
        assert validate_sigma(action) == [], (action.target.name, action.source.name)


def test_lazy_products_match_the_dense_build(monkeypatch, A5at, T2):
    # above the ideal cap _product keeps the factors' tables; raising the
    # cap makes it build the same products dense.  Both give the same
    # verdict and witness, equality, hash and serialized document
    a4 = holomorph_enumerate("a4", limit=64)
    split = semiprime_verdicts(a4, "fast")
    bad = next(b for b, v in zip(a4, split) if not v.semiprime)      # an order-12 A4 brace
    actions = sigma_actions(A5at, A5at, budget=121)

    def acted_on_by_a_power():
        H = wreath_base(bad, T2)[0]
        return semidirect(T2, H, trivial_sigma(T2, H))

    builds = [(lambda: wreath_base(A5at, T2)[0], False),
              (lambda: wreath_base(bad, T2)[0], True),             # order 144
              (lambda: wreath(bad, T2)[0], True),                  # order 288, over a lazy base
              (acted_on_by_a_power, True)]                         # order 288, lazy H
    builds += [(lambda act=act: semidirect(A5at, A5at, act), False)
               for act in (actions[1], actions[60], actions[120])]
    for build, serialize in builds:
        lazy = build()
        with monkeypatch.context() as m:
            m.setattr(products, "DEFAULT_IDEAL_CAP", 1 << 30)
            dense = build()
        assert isinstance(lazy.add, PairTable) and isinstance(lazy.circ, PairTable), lazy.name
        assert isinstance(dense.add, np.ndarray) and isinstance(dense.circ, np.ndarray)
        got, want = is_semiprime(lazy, "fast"), is_semiprime(dense, "fast")
        assert got.semiprime == want.semiprime, lazy.name
        assert (got.witness and got.witness.sorted()) == (want.witness and want.witness.sorted())
        assert lazy == dense and hash(lazy) == hash(dense)
        assert np.array_equal(lazy.neg, dense.neg) and np.array_equal(lazy.inv, dense.inv)
        if serialize:
            assert not got.semiprime
            assert serialize_document(lazy) == serialize_document(dense)


def test_lemma32_base_scan_never_builds_a_dense_table(monkeypatch, A5at, T2):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a dense table was built")

    monkeypatch.setattr(PairTable, "__array__", refuse)
    result = verify._dispatch(("lemma32-base", "lemma32:base:A5at:m2", A5at, T2))
    assert result.ok and result.info == "order=3600 semiprime"
    with pytest.raises(AssertionError, match="dense table"):
        np.asarray(wreath_base(A5at, T2)[0].add)
