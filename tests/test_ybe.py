import numpy as np
import pytest

from brace_forge import (
    FiniteSkewBrace,
    PreconditionError,
    SolutionMap,
    check_braid,
    check_nondegenerate,
    group_brace,
    is_trivial,
    solution_map,
    wreath,
    wreath_base,
)
from brace_forge.groups import PairTable

import oracles


def test_r4_pinned_values(R4):
    sol = solution_map(R4)
    assert sol.apply(1, 1) == (3, 3)  # lam_1(1)=3 and 3' o 1 o 1 = 3 o 0 = 3
    assert sol.apply(0, 2) == (2, 0)
    assert sol.apply(2, 1) == (1, 2)  # lam_2(1) = 5 mod 4 = 1


def test_components_multiply_back(corpus8):
    for brace in corpus8[:30]:
        sol = solution_map(brace)
        assert np.array_equal(brace.circ[sol.u, sol.v], brace.circ), brace.name


def test_braid_and_nondegenerate_small_corpus(corpus8):
    for brace in corpus8[:30]:
        sol = solution_map(brace)
        ok, witness = check_braid(sol)
        assert ok and witness is None, brace.name
        ok, witness = check_nondegenerate(sol)
        assert ok and witness is None, brace.name


def test_braid_naive_agreement(R4, S3at):
    # third-party check of the braid relation on two small cases
    for brace in (R4, S3at):
        sol = solution_map(brace)
        n = brace.order

        def r(x, y):
            return int(sol.u[x, y]), int(sol.v[x, y])

        for a in range(n):
            for b in range(n):
                for c in range(n):
                    a1, b1 = r(a, b)
                    b2, c2 = r(b1, c)
                    la, lb = r(a1, b2)
                    left = (la, lb, c2)
                    b3, c3 = r(b, c)
                    a4, b4 = r(a, b3)
                    rb, rc = r(b4, c3)
                    right = (a4, rb, rc)
                    assert left == right


def test_flip_iff_trivial_and_abelian(corpus8):
    flips = 0
    for brace in corpus8:
        sol = solution_map(brace)
        n = brace.order
        is_flip = (np.array_equal(sol.u, np.tile(np.arange(n), (n, 1))) and
                   np.array_equal(sol.v, np.tile(np.arange(n)[:, None], (1, n))))
        abelian = np.array_equal(brace.circ, brace.circ.T)
        assert is_flip == (is_trivial(brace) and abelian), brace.name
        flips += is_flip
    assert flips > 0  # the trivial abelian examples are in the corpus


def test_wreath_solution(T2):
    prod, _ = wreath(T2, T2)
    sol = solution_map(prod)
    ok, _ = check_braid(sol)
    assert ok
    ok, _ = check_nondegenerate(sol)
    assert ok
    # nontrivial brace: not the flip
    assert not np.array_equal(sol.u, np.tile(np.arange(8), (8, 1)))


def test_corrupted_solution_fails_braid(R4):
    sol = solution_map(R4)
    u = np.array(sol.u)
    u[1, 2], u[1, 3] = u[1, 3], u[1, 2]
    bad = SolutionMap(4, u, np.array(sol.v))
    ok, witness = check_braid(bad)
    assert not ok
    a, b, c = witness
    # witness is lexicographically first: re-scan confirms minimality
    def r(x, y, m=bad):
        return int(m.u[x, y]), int(m.v[x, y])
    found = None
    for i in range(4):
        for j in range(4):
            for k in range(4):
                a1, b1 = r(i, j)
                b2, c2 = r(b1, k)
                la, lb = r(a1, b2)
                b3, c3 = r(j, k)
                a4, b4 = r(i, b3)
                rb, rc = r(b4, c3)
                if (la, lb, c2) != (a4, rb, rc):
                    found = (i, j, k)
                    break
            if found:
                break
        if found:
            break
    assert witness == found


def test_degenerate_detection(R4):
    sol = solution_map(R4)
    u = np.array(sol.u)
    u[2, :] = 0
    ok, witness = check_nondegenerate(SolutionMap(4, u, np.array(sol.v)))
    assert not ok and witness == ("row", 2)
    v = np.array(sol.v)
    v[:, 1] = 3
    ok, witness = check_nondegenerate(SolutionMap(4, np.array(sol.u), v))
    assert not ok and witness == ("col", 1)


def test_solution_shape_check():
    with pytest.raises(PreconditionError):
        SolutionMap(3, np.zeros((2, 3), dtype=int), np.zeros((3, 3), dtype=int))


def test_order_one():
    one = group_brace("c1", "trivial")
    sol = solution_map(one)
    assert check_braid(sol) == (True, None)
    assert check_nondegenerate(sol) == (True, None)


def test_solution_map_of_a_lazy_product(S3at):
    # S3at^3 (order 216) is over the ideal cap, so its tables are lazy
    lazy = wreath_base(S3at, group_brace("c3", "trivial"))[0]
    assert isinstance(lazy.circ, PairTable)
    dense = FiniteSkewBrace(lazy.order, np.asarray(lazy.add), np.asarray(lazy.circ),
                            lazy.neg, lazy.inv, lazy.add_gens, lazy.circ_gens)
    got, want = solution_map(lazy), solution_map(dense)
    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)
