"""Brace constructors and the enumeration corpus.

``holomorph_enumerate`` lists every circle table on a given additive
group's carrier: a skew brace structure is exactly a map a -> lambda_a
into Aut(N,+) with lambda_{a + lambda_a(b)} = lambda_a lambda_b, i.e. a
regular subgroup of the holomorph N x| Aut(N).  The search assigns
lambda-values with forward propagation of that closure law.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (
    FiniteSkewBrace,
    PreconditionError,
    SizeCapExceeded,
    _derive_neg,
    brace_from_tables,
    closure_generators,
    table_dtype,
)
from .autos import automorphism_array, group_automorphisms
from .groups import GroupSpec, group_table, parse_group_spec, perm_composition

__all__ = [
    "group_brace",
    "radical_ring_brace",
    "group_automorphisms",
    "holomorph_enumerate",
    "standard_corpus",
    "CORPUS_GROUPS",
]

# one representative labeling per isomorphism class of expressible groups
# of order <= 8 (quaternion is not in the named families)
CORPUS_GROUPS = ("c1", "c2", "c3", "c4", "c2xc2", "c5", "c6", "s3",
                 "c7", "c8", "c2xc4", "c2xc2xc2", "d4")


def group_brace(spec, variant: str = "trivial", name: str | None = None) -> FiniteSkewBrace:
    """Brace with both operations induced by one group table.

    trivial: circ = add.  almost_trivial: a o b = b + a (the opposite
    group), which satisfies the compatibility relation for any group.
    """
    table = group_table(spec)
    if variant == "trivial":
        circ = table
    elif variant == "almost_trivial":
        circ = table.T.copy()
    else:
        raise PreconditionError(f"unknown variant {variant!r}")
    if name is None:
        name = f"{spec}-{variant.replace('_', '-')}"
    return brace_from_tables(table, circ, name)


def radical_ring_brace(modulus: int, generator: int, name: str | None = None) -> FiniteSkewBrace:
    """Brace of the radical subring of Z/modulus generated by ``generator``.

    Carrier is the additive subgroup {0, g, 2g, ...} with labels in
    ascending order; add is label addition and a o b = a + b + ab.  Raises
    when some element is not nilpotent (the circle operation would not be
    a group).  The star table is asserted to match ring multiplication.
    """
    if modulus < 2:
        raise PreconditionError("modulus must be at least 2")
    g = generator % modulus
    d = math.gcd(g, modulus) or modulus
    labels = list(range(0, modulus, d))
    n = len(labels)
    for x in labels:
        power = x
        seen = set()
        while power != 0:
            if power in seen:
                raise PreconditionError(
                    f"element {x} of {generator}Z/{modulus}Z is not nilpotent; "
                    "the subring is not radical")
            seen.add(power)
            power = power * x % modulus
    # index arithmetic: label of index i is i*d
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    circ = (idx[:, None] + idx[None, :] + d * idx[:, None] * idx[None, :]) % n
    brace = brace_from_tables(add.astype(table_dtype(n)), circ.astype(table_dtype(n)),
                              name or f"R{n}")
    mult = (d * idx[:, None] * idx[None, :]) % n
    assert np.array_equal(brace.star_table(), mult), "star must equal ring multiplication"
    return brace


def _lambda_system_search(add: np.ndarray, A: np.ndarray) -> list[np.ndarray]:
    """All total maps a -> index of a row of ``A`` (closed automorphisms of
    ``add``, identity first) with lambda_0 = id and
    lambda_{a + lambda_a(b)} = lambda_a . lambda_b; returns the lambda
    tables, row a = lambda_a, in ascending order of their aut indices.
    A trail is the tail of ``assigned`` (``propagate`` appends to both in
    order; deeper calls undo their own), so ``undo`` cuts it off in one
    slice.  ``propagate`` only appends while it walks ``assigned``, so
    walking its first len(assigned) entries equals walking a copy.
    ``candidates`` tests every value t of lambda_a for the free a at once
    against the assigned set S, with a read as assigned t: for b in S,
    a + t(b) needs t . lambda_b and b + lambda_b(a) needs lambda_b . t where
    assigned.  ``propagate`` checks these pairs first and never changes an
    assigned value, so it would reject every t dropped here.

    Symmetry: for phi in ``A``, lambda^phi_a = phi lambda_{phi^-1(a)}
    phi^-1 is again a system (lambda^phi_{a + lambda^phi_a(b)} = phi
    lambda_{a' + lambda_a'(b')} phi^-1 = lambda^phi_a lambda^phi_b with a'
    = phi^-1(a), b' = phi^-1(b)).  The seed assigns only 0, so label 1 is
    the first free label; when phi(1) = 1, phi maps the systems with
    lambda_1 = t one-to-one onto those with lambda_1 = phi t phi^-1.  So
    the root tries only the least t of each conjugacy class under the
    stabilizer Stab(1) of label 1, and the systems found are expanded by
    every phi in Stab(1) in one gather; a system reached from more than
    one phi is kept once, after one ``lexsort``."""
    n, k = add.shape[0], A.shape[0]
    comp = perm_composition(A)
    aut_rows, comp_rows, addl = A.tolist(), comp.tolist(), add.tolist()
    if n == 1:
        return [A[[0]]]

    alpha = [-1] * n
    alpha[0] = 0  # identity automorphism is lexicographically first
    assigned = [0]
    results: list[list[int]] = []

    def propagate(queue: list[int], trail: list[int]) -> bool:
        while queue:
            a = queue.pop()
            for i in range(len(assigned)):
                b = assigned[i]
                for x, y in ((a, b), (b, a)):
                    c = addl[x][aut_rows[alpha[x]][y]]
                    req = comp_rows[alpha[x]][alpha[y]]
                    if alpha[c] == -1:
                        alpha[c] = req
                        assigned.append(c)
                        trail.append(c)
                        queue.append(c)
                    elif alpha[c] != req:
                        return False
        return True

    def undo(trail: list[int]):
        for c in trail:
            alpha[c] = -1
        del assigned[len(assigned) - len(trail):]

    def candidates(a: int) -> np.ndarray:
        S = np.array(assigned)
        lam = np.array(alpha)
        ok = np.ones(k, dtype=bool)
        for c, req in ((add[a, A[:, S]], comp[:, lam[S]]),            # a + t(b)
                       (add[S, A[lam[S], a]][None, :], comp[lam[S]].T)):  # b + lambda_b(a)
            got = np.where(c == a, np.arange(k)[:, None], lam[c])
            ok &= ((got == -1) | (got == req)).all(axis=1)
        return np.flatnonzero(ok)

    def branch(free: int, t: int):
        alpha[free] = t
        assigned.append(free)
        trail = [free]
        if propagate([free], trail):
            dfs()
        undo(trail)

    def dfs():
        try:
            free = alpha.index(-1)
        except ValueError:
            results.append(alpha.copy())
            return
        for t in candidates(free).tolist():
            branch(free, t)

    # the seed, lambda_0 = id, forces nothing more: 0 + id(0) = 0
    stab = np.flatnonzero(A[:, 1] == 1)
    inverse = np.argmax(comp[stab] == 0, axis=1)             # phi^-1 of each phi in Stab(1)
    conj = comp[comp[stab], inverse[:, None]]                # row i: t -> phi_i t phi_i^-1
    least = conj.min(axis=0)
    for t in candidates(1).tolist():
        if least[t] == t:
            branch(1, t)
    found = np.array(results)          # never empty: lambda = id is a system
    systems = conj[np.arange(len(stab))[:, None], found[:, A[inverse]]].reshape(-1, n)
    systems = systems[np.lexsort(systems.T[::-1])]
    fresh = np.ones(len(systems), dtype=bool)
    fresh[1:] = (systems[1:] != systems[:-1]).any(axis=1)
    return list(A[systems[fresh]])


def _holomorph_braces(add: np.ndarray, prefix: str) -> list[FiniteSkewBrace]:
    """The braces of ``_lambda_system_search`` by ascending circ table.  Only
    the additive table is validated: each lambda_a is in Aut(N, +), lambda_0
    = id and lambda_{a o b} = lambda_a lambda_b for a o b = a + lambda_a(b),
    so (a o b) o c = a + lambda_a(b) + lambda_a lambda_b(c) = a o (b o c),
    lambda_a^-1(-a) is a right inverse of a, and a o (b + c) = (a o b) - a +
    (a o c) is additivity of lambda_a: {(a, lambda_a)} is a regular
    subgroup of Hol(N) (Guarnieri and Vendramin 2017).  The tables are
    distinct: the search reaches each lambda-assignment once, and circ row
    a is add row a after lambda_a, which fixes lambda_a.

    Every brace shares the group's table, ``neg`` and additive generators;
    its circle generators are the greedy set of its circle table."""
    group = brace_from_tables(add, add)
    add, neg = group.add, group.neg
    rows = np.arange(add.shape[0])[:, None]
    circs = [add[rows, lam] for lam in _lambda_system_search(add, automorphism_array(add))]
    circs.sort(key=lambda circ: circ.ravel().tolist())
    return [FiniteSkewBrace(add.shape[0], add, circ, neg, _derive_neg(circ), group.add_gens,
                            closure_generators(circ)[0], f"{prefix}#{i}")
            for i, circ in enumerate(circs)]


@functools.lru_cache(maxsize=None)
def _holomorph_enumerate_cached(canonical: str) -> tuple[FiniteSkewBrace, ...]:
    return tuple(_holomorph_braces(group_table(canonical), canonical))


def holomorph_enumerate(spec, limit: int = 8) -> list[FiniteSkewBrace]:
    """Every skew brace whose additive group is the given table, listed as
    circle tables on the same carrier, each once, in a fixed order.
    Named groups are cached; a raw table is named ``table<n>#<i>``.  The
    order is checked against ``limit`` before any table is built."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    named = isinstance(spec, GroupSpec)
    n = spec.order if named else np.asarray(spec).shape[0]
    if n > limit:
        raise SizeCapExceeded(f"group order {n} exceeds the enumeration limit {limit}")
    if named:
        return list(_holomorph_enumerate_cached(spec.canonical))
    return _holomorph_braces(np.asarray(spec), f"table{n}")


def _named_examples(max_order: int) -> list[FiniteSkewBrace]:
    examples = (  # (order, builder): only the examples kept are built
        (2, lambda: group_brace("c2", "trivial", name="T2")),
        (4, lambda: radical_ring_brace(8, 2, name="R4")),
        (6, lambda: group_brace("s3", "almost_trivial", name="S3at")),
        (12, lambda: group_brace("a4", "almost_trivial", name="A4at")),
        (60, lambda: group_brace("a5", "almost_trivial", name="A5at")),
        (2, lambda: radical_ring_brace(4, 2, name="R2")),
        (3, lambda: radical_ring_brace(9, 3, name="R3")),
        (8, lambda: radical_ring_brace(16, 2, name="R8")),
        (9, lambda: radical_ring_brace(27, 3, name="R9")),
        (16, lambda: radical_ring_brace(32, 2, name="R16")),
    )
    return [build() for order, build in examples if order <= max_order]


def standard_corpus(max_order: int = 8) -> list[FiniteSkewBrace]:
    """The named examples plus every holomorph-enumerated brace on the
    canonical group list up to order min(max_order, 8), deduplicated by
    exact tables (first name wins)."""
    braces = _named_examples(max_order)
    for spec in CORPUS_GROUPS:
        g = parse_group_spec(spec)
        if g.order <= min(max_order, 8):
            braces.extend(holomorph_enumerate(g))
    seen: set[tuple] = set()
    out = []
    for b in braces:
        key = (b.order, b.add.tobytes(), b.circ.tobytes())
        if key not in seen:
            seen.add(key)
            out.append(b)
    return out
