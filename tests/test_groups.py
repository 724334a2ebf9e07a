import itertools

import numpy as np
import pytest

import brace_forge
from brace_forge import PreconditionError, group_brace, semidirect, sigma_actions, wreath_base
from brace_forge import autos
from brace_forge.core import table_dtype
from brace_forge.groups import (
    GroupSpec,
    PairTable,
    alternating_table,
    cyclic_table,
    dihedral_table,
    direct_product_table,
    group_table,
    parse_group_spec,
    perm_composition,
    symmetric_table,
)

import oracles


def _involutions(t):
    return sum(1 for a in range(1, t.shape[0]) if t[a, a] == 0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_cyclic(n):
    t = cyclic_table(n)
    assert t.shape == (n, n)
    assert oracles.is_group_table(t.tolist())
    assert np.array_equal(t, t.T)  # abelian


@pytest.mark.parametrize("n,order", [(1, 2), (2, 4), (3, 6), (4, 8)])
def test_dihedral(n, order):
    t = dihedral_table(n)
    assert t.shape == (order, order)
    assert oracles.is_group_table(t.tolist())
    if n >= 3:
        assert not np.array_equal(t, t.T)
        assert _involutions(t) == n + (1 if n % 2 == 0 else 0)


@pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24)])
def test_symmetric(n, order):
    t = symmetric_table(n)
    assert t.shape == (order, order)
    assert oracles.is_group_table(t.tolist())


@pytest.mark.parametrize("n,order", [(3, 3), (4, 12), (5, 60)])
def test_alternating(n, order):
    t = alternating_table(n)
    assert t.shape == (order, order)
    assert oracles.is_group_table(t.tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_permutation_tables_match_one_lookup_each(n):
    """The symmetric and alternating tables are the composition tables of
    their sorted permutations, entry for entry as one dict lookup per
    composed permutation gives them, in the table dtype."""
    perms = sorted(itertools.permutations(range(n)))
    even = [p for p in perms
            if sum(p[i] > p[j] for i, j in itertools.combinations(range(n), 2)) % 2 == 0]
    for table, group in ((symmetric_table(n), perms), (alternating_table(n), even)):
        want = oracles.perm_composition_lookup([np.array(p, dtype=np.int64) for p in group])
        assert table.dtype == table_dtype(len(group))
        assert np.array_equal(table, want)
    assert autos.perm_composition is perm_composition is brace_forge.perm_composition


def test_a5_has_no_normal_subgroups_seen_as_brace(A5at):
    # simplicity shows up downstream: only 2 ideals on the almost
    # trivial brace (checked in test_ideals); here just sanity-check order
    assert A5at.order == 60


def test_s3_is_d3():
    # same abstract group, possibly different labeling
    assert oracles.tables_isomorphic(symmetric_table(3).tolist(),
                                     dihedral_table(3).tolist())


def test_direct_product():
    k4 = direct_product_table(cyclic_table(2), cyclic_table(2))
    assert oracles.is_group_table(k4.tolist())
    assert _involutions(k4) == 3
    assert k4.shape == (4, 4)
    # mixed radix: first factor most significant
    z6 = direct_product_table(cyclic_table(2), cyclic_table(3))
    assert z6[1, 3] == 4  # (0,1)*(1,0) = (1,1) -> 1*3+1
    assert oracles.tables_isomorphic(z6.tolist(), cyclic_table(6).tolist())
    with pytest.raises(PreconditionError):
        direct_product_table()


def _direct_product_int64(*tables):
    """The former build: each step widened to int64, then narrowed."""
    result = tables[0]
    for t in tables[1:]:
        n1, n2 = result.shape[0], t.shape[0]
        size = n1 * n2
        a = np.arange(size)
        a1, a2 = a // n2, a % n2
        combined = result[np.ix_(a1, a1)].astype(np.int64) * n2
        result = (combined + t[np.ix_(a2, a2)]).astype(table_dtype(size))
    return result


@pytest.mark.parametrize("factors", [
    (alternating_table(5), cyclic_table(3)),
    (cyclic_table(3).astype(np.int64), symmetric_table(3)),
    (cyclic_table(2), dihedral_table(3), cyclic_table(4)),
    (symmetric_table(3), cyclic_table(5).astype(np.int64), cyclic_table(2)),
    "A5at.add", "A5at.circ",   # the order-3600 tables of the lemma32 base
])
def test_direct_product_matches_int64_build(factors, request):
    if isinstance(factors, str):
        t = getattr(request.getfixturevalue("A5at"), factors.split(".")[1])
        factors = (t, t)
    got = direct_product_table(*factors)
    want = _direct_product_int64(*factors)
    assert got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_parse_group_spec():
    assert parse_group_spec("c4").canonical == "c4"
    assert parse_group_spec("C2xC2").canonical == "c2xc2"
    assert parse_group_spec("cyclic6").canonical == "c6"
    assert parse_group_spec("Alt5").canonical == "a5"
    assert parse_group_spec(" s3 ").canonical == "s3"
    spec = parse_group_spec("c2xc4")
    assert spec.order == 8
    assert parse_group_spec("d4").order == 8
    assert parse_group_spec("a5").order == 60
    assert parse_group_spec("s4").order == 24
    # s20000 is refused before its order (a 77,000-digit factorial) is computed
    for bad in ("", "q8", "c", "4", "c2yc2", "s6", "a0", "c2xs20000"):
        with pytest.raises(PreconditionError):
            parse_group_spec(bad)


def test_group_table_accepts_spec_objects():
    spec = GroupSpec((("c", 2), ("c", 2)))
    t = group_table(spec)
    assert np.array_equal(t, group_table("c2xc2"))
    assert oracles.is_group_table(group_table("c2xc2xc2").tolist())


def test_bounds():
    with pytest.raises(PreconditionError):
        symmetric_table(6)
    with pytest.raises(PreconditionError):
        alternating_table(0)
    with pytest.raises(PreconditionError):
        cyclic_table(0)
    with pytest.raises(PreconditionError):
        dihedral_table(0)


def _pair_tables(A5at, A4at):
    """The tables of a nontrivial-sigma A5at x| A5at, of A5at^2 and of
    A4at^3, all above the ideal cap, so all lazy; A4at^3 (order 1728) is
    a product over the lazy A4at^2 (order 144), whose tables it keeps."""
    act = sigma_actions(A5at, A5at, budget=2)[1]
    assert (np.asarray(act.perms) != np.arange(60)).any()
    assert isinstance(wreath_base(A4at, group_brace("c2", "trivial"))[0].add, PairTable)
    braces = [semidirect(A5at, A5at, act), wreath_base(A5at, group_brace("c2", "trivial"))[0],
              wreath_base(A4at, group_brace("c3", "trivial"))[0]]
    return [t for b in braces for t in (b.add, b.circ)]


def test_pair_table_gathers_match_the_dense_table(A5at, A4at):
    rng = np.random.default_rng(5)
    for t in _pair_tables(A5at, A4at):
        assert isinstance(t, PairTable)
        dense = np.asarray(t)
        n = t.shape[0]
        assert dense.dtype == t.dtype == np.int16 and t.shape == dense.shape == (n, n)
        assert n in (3600, 1728) and t.ndim == 2
        R, S = rng.integers(0, n, 7), rng.integers(0, n, 5)
        R2, S2 = rng.integers(0, n, (3, 4)), rng.integers(0, n, (2, 60))
        for key in [(17, n - 1), (np.int64(n - 1), 0), (-1, -n), R, R2, slice(100, 140),
                    slice(n - 10, None), (slice(None), S), (slice(None), S2), (R, slice(None)),
                    (slice(None), 42), np.ix_(R, S), (R[:, None], S), (R2[:, :, None], R2[:, None, :]),
                    (R2, 9), (slice(5, 9), slice(None))]:
            got, want = t[key], dense[key]
            assert got.shape == want.shape and got.dtype == want.dtype, key
            assert np.array_equal(got, want), key
        assert np.isscalar(t[17, n - 1])


def test_pair_table_rejects_other_indices(A5at, A4at):
    t = _pair_tables(A5at, A4at)[1]
    for key in [None, Ellipsis, (Ellipsis, 0), (slice(None), None), np.ones(3600, dtype=bool),
                (0, np.zeros(3600, dtype=bool)), [1, 2], True, 1.0, (1, 2, 3)]:
        with pytest.raises(TypeError):
            t[key]
    with pytest.raises(TypeError):
        t[0, 0] = 1                         # read-only
