"""Finite skew brace carriers, axiom validation, and the lambda/star calculus.

A brace lives on the carrier {0..n-1} with the shared identity of both
group operations pinned at index 0.  Construction goes through
validation, except for the semidirect products and direct powers of
validated braces (``products._product`` and ``wreath_base``) and the
holomorph-enumerated braces (``corpus._holomorph_braces``).  A brace
holds read-only tables of both operations and inverses: numpy arrays, or
for a product above the ideal cap ``groups.PairTable``s that compute each
entry from the factors' tables when it is gathered, and a generating set
of each group that its builder gives.  ``lam_block`` gathers lambda from
them, so downstream closure sweeps are pure table gathers.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

__all__ = [
    "DEFAULT_MAX_ORDER",
    "MAX_ORDER_ENV",
    "BraceForgeError",
    "TableFormatError",
    "ValidationFailure",
    "SizeCapExceeded",
    "PreconditionError",
    "DocumentSyntaxError",
    "ValidationReport",
    "FiniteSkewBrace",
    "max_order",
    "validate",
    "brace_from_tables",
    "table_eval",
    "generated_subbrace",
    "lam_block",
    "star_block",
    "star_product",
    "normalize_members",
    "sorted_unique",
    "fmt_members",
]

DEFAULT_MAX_ORDER = 4096
MAX_ORDER_ENV = "BRACE_FORGE_MAX_ORDER"

# Above this order the n^3 triple scans are replaced by the generator-based
# check (Latin square + associativity on a generating set + additivity of
# every lambda_a on additive generators).  Both modes decide exactly the
# same axioms; only witness minimality differs, see ValidationReport.
FAST_VALIDATE_THRESHOLD = 300


class BraceForgeError(Exception):
    """Base class for all library errors."""


class TableFormatError(BraceForgeError, ValueError):
    """Malformed table input: ragged, non-square, or entries out of range."""


class ValidationFailure(BraceForgeError, ValueError):
    """Tables were well-formed but violate the brace axioms."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        rules = ", ".join(sorted({rule for rule, _ in report.violations}))
        super().__init__(f"tables do not define a skew brace (violated: {rules})")


class SizeCapExceeded(BraceForgeError, ValueError):
    """A size or enumeration cap was exceeded."""


class PreconditionError(BraceForgeError, ValueError):
    """An operation's precondition does not hold for the given arguments."""


class DocumentSyntaxError(BraceForgeError, ValueError):
    """Text document does not conform to the grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def max_order() -> int:
    """Global carrier-size cap.  Override with the BRACE_FORGE_MAX_ORDER env var."""
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        raise SizeCapExceeded(f"{MAX_ORDER_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise SizeCapExceeded(f"{MAX_ORDER_ENV} must be positive, got {cap}")
    return cap


def table_dtype(n: int):
    return np.int16 if n <= np.iinfo(np.int16).max else np.int32


def as_table(obj, what: str = "table") -> np.ndarray:
    """Coerce a Cayley table to a square numpy int array, range-checked."""
    try:
        arr = np.asarray(obj)
    except ValueError as exc:  # pragma: no cover - numpy >=2 raises on ragged
        raise TableFormatError(f"{what}: {exc}") from None
    if arr.dtype == object:
        raise TableFormatError(f"{what} is ragged or non-numeric")
    if arr.dtype.kind == "f":
        as_int = arr.astype(np.int64)
        if not np.array_equal(as_int, arr):
            raise TableFormatError(f"{what} has non-integer entries")
        arr = as_int
    elif arr.dtype.kind not in "iu":
        raise TableFormatError(f"{what} has non-integer entries")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise TableFormatError(f"{what} must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise TableFormatError(f"{what} is empty")
    if arr.min() < 0 or arr.max() >= n:
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise TableFormatError(
            f"{what} entry {arr[tuple(bad)]} at ({bad[0]},{bad[1]}) out of range 0..{n - 1}"
        )
    return arr.astype(table_dtype(n))


# A violation is (rule-name, witness triple).  The witness replays as:
#   *-identity:      (a,0,0)  with t[0,a] != a or t[a,0] != a
#   *-associativity: (a,b,c)  with t[t[a,b],c] != t[a,t[b,c]]
#   *-inverses:      exhaustive: (a,0,0) with no b: t[a,b] == t[b,a] == 0;
#                    fast:       (a,b,c) with t[a,b] == t[a,c], b != c
#                                (a row/column duplicate, so a is not invertible)
#   brace-relation:  (a,b,c)  with a o (b+c) != (a o b) - a + (a o c)
Violation = tuple[str, tuple[int, int, int]]


class ValidationReport:
    """Outcome of validating a pair of tables.

    ``violations`` lists every violated rule once, each with a witness
    triple.  In exhaustive mode witnesses are the lexicographically
    smallest; in fast mode (large orders) they are valid but not
    necessarily minimal.
    """

    def __init__(self, order: int, violations: list[Violation], mode: str,
                 brace: "FiniteSkewBrace | None" = None):
        self.order = order
        self.violations = violations
        self.mode = mode
        self.brace = brace

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"ValidationReport(order={self.order}, {state}, mode={self.mode!r})"


def _identity_violation(t: np.ndarray, prefix: str) -> list[Violation]:
    n = t.shape[0]
    ar = np.arange(n)
    bad = np.flatnonzero((t[0] != ar) | (t[:, 0] != ar))
    if bad.size:
        return [(f"{prefix}-identity", (int(bad[0]), 0, 0))]
    return []


# entries per block of the exhaustive checks, ``is_trivial``, ``autos._homomorphisms``,
# and the closures, star tests and stacks (``_batches``) of ``ideals``
_BLOCK_ENTRIES = 1 << 20


def _row_blocks(n: int, count: int | None = None, width: int | None = None):
    """Consecutive row ranges [a0, a1) covering 0..count-1 (default n), each
    at least one row and, when a row holds up to ``width`` entries (default
    n * n, a row ``a`` of an (a, b, c) cube), at most about
    ``_BLOCK_ENTRIES`` entries."""
    rows = max(1, _BLOCK_ENTRIES // (n * n if width is None else width))
    count = n if count is None else count
    for a0 in range(0, count, rows):
        yield a0, min(a0 + rows, count)


def _first_violation(lhs: np.ndarray, rhs: np.ndarray, a0: int):
    """The smallest (a, b, c) with lhs != rhs in a block starting at row
    a0, or None.  ``argwhere`` lists hits in C order, which is
    lexicographic in (a - a0, b, c); blocks are scanned in ascending a and
    a block is only reached when every earlier one matched, so the first
    hit of the first failing block is the smallest witness overall."""
    if np.array_equal(lhs, rhs):
        return None
    a, b, c = np.argwhere(lhs != rhs)[0]
    return a0 + int(a), int(b), int(c)


def _assoc_violation_full(t: np.ndarray, prefix: str) -> list[Violation]:
    """The smallest (a, b, c) with t[t[a,b], c] != t[a, t[b,c]], one
    gather per row block (see ``_first_violation``)."""
    for a0, a1 in _row_blocks(t.shape[0]):
        rows = t[a0:a1]
        witness = _first_violation(t[rows],       # t[t[a,b], c]
                                   rows[:, t],    # t[a, t[b,c]]
                                   a0)
        if witness is not None:
            return [(f"{prefix}-associativity", witness)]
    return []


def _inverse_violation_full(t: np.ndarray, prefix: str) -> list[Violation]:
    zero = t == 0
    ok = (zero & zero.T).any(axis=1)
    bad = np.flatnonzero(~ok)
    if bad.size:
        return [(f"{prefix}-inverses", (int(bad[0]), 0, 0))]
    return []


def closure_generators(t: np.ndarray) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Greedy generating set of ``t`` and the walk that reaches every label:
    the least label not yet reached becomes the next generator, until
    every label is reached.  Returns ``(gens, steps)``: each step (y, x, g)
    has y = t[x, g], g a generator and x reached before y; 0, the
    generators and the steps' y hold every label once.

    The reached set is {0} and the generators, closed under right
    multiplication by the generators: one breadth-first search over the
    generator columns.  When g is added, only the members reached so far
    are multiplied by g; each new member is multiplied by every generator.
    Every member enters once, so the search costs O(n k) lookups for k
    generators.

    On a finite group the closure of {0} under right multiplication by S
    is the subgroup <S>: it is closed under products with S, so under
    the monoid S generates, which is <S> in a finite group.  That is the
    same set as the magma closure of {0} and S, so the list is the one a
    greedy search over magma closures gives (the lexicographic argument
    of ``autos._homomorphisms`` rests on this).  On an unvalidated table
    (fast ``validate`` passes only Latin squares here) the reached set
    lies inside the magma closure of {0} and the list, so a list that
    reaches every label still generates the table and verdicts are
    unchanged.  A Latin square that is not associative may get another
    list than the magma search, so another associativity witness, and
    that witness still replays.
    """
    n = t.shape[0]
    seen = [False] * n
    seen[0] = True
    members = [0]
    columns: list[list[int]] = []
    gens: list[int] = []
    steps: list[tuple[int, int, int]] = []
    g = 0
    while True:
        while g < n and seen[g]:
            g += 1
        if g == n:
            return gens, steps
        # g enters as a generator, not as 0 o g (= g unless the identity law fails)
        column = t[:, g].tolist()
        gens.append(g)
        columns.append(column)
        start = len(members)
        seen[g] = True
        members.append(g)
        for x in members[:start]:
            y = column[x]
            if not seen[y]:
                seen[y] = True
                members.append(y)
                steps.append((y, x, g))
        i = start
        while i < len(members):
            x = members[i]
            i += 1
            for h, column in zip(gens, columns):
                y = column[x]
                if not seen[y]:
                    seen[y] = True
                    members.append(y)
                    steps.append((y, x, h))


def _latin_violation(t: np.ndarray, prefix: str) -> list[Violation]:
    """A duplicate in a row or column of ``t``: some element is not invertible."""
    n = t.shape[0]
    ar = np.arange(n)
    rows_sorted = np.sort(t, axis=1)
    cols_sorted = np.sort(t, axis=0)
    bad_row = np.flatnonzero((rows_sorted != ar[None, :]).any(axis=1))
    bad_col = np.flatnonzero((cols_sorted != ar[:, None]).any(axis=0))
    if not (bad_row.size or bad_col.size):
        return []
    if bad_row.size:
        a = int(bad_row[0])
        line = t[a]
    else:
        a = int(bad_col[0])
        line = t[:, a]
    order = np.argsort(line, kind="stable")
    dup = np.flatnonzero(np.diff(line[order]) == 0)[0]
    b, c = sorted((int(order[dup]), int(order[dup + 1])))
    return [(f"{prefix}-inverses", (a, b, c))]


def _assoc_violation_fast(t: np.ndarray, prefix: str, gens: list[int]) -> list[Violation]:
    """Associativity with the middle factor in ``gens``, a generating set
    of the Latin square ``t``."""
    for g in gens:
        lhs = t[:, t[g]]       # t[a, t[g,c]]
        rhs = t[t[:, g]]       # t[t[a,g], c]
        if not np.array_equal(lhs, rhs):
            a, c = np.argwhere(lhs != rhs)[0]
            return [(f"{prefix}-associativity", (int(a), g, int(c)))]
    return []


def _group_violations_full(t: np.ndarray, prefix: str) -> list[Violation]:
    out = _identity_violation(t, prefix)
    out += _assoc_violation_full(t, prefix)
    out += _inverse_violation_full(t, prefix)
    return out


def _brace_relation_violation_full(brace: "FiniteSkewBrace") -> list[Violation]:
    """The smallest (a, b, c) with lambda_a(b+c) != lambda_a(b) + lambda_a(c),
    which is a o (b+c) != (a o b) - a + (a o c); one gather per row block
    (see ``_first_violation``)."""
    for a0, a1 in _row_blocks(brace.order):
        lam = lam_block(brace, np.arange(a0, a1), np.arange(brace.order))   # row a - a0
        witness = _first_violation(lam[:, brace.add],        # lambda_a(b+c)
                                   brace.add[lam[:, :, None], lam[:, None, :]],
                                   a0)
        if witness is not None:
            return [("brace-relation", witness)]
    return []


def _brace_relation_violation_fast(add, lam, add_gens) -> list[Violation]:
    # lambda_a is additive for all (b,c) iff it is additive for b in a
    # generating set of (A,+) and all c; checked for every a at once.
    for g in add_gens:
        lhs = lam[:, add[g]]                       # lambda_a(g+c)
        rhs = add[lam[:, g][:, None], lam]         # lambda_a(g) + lambda_a(c)
        if not np.array_equal(lhs, rhs):
            a, c = np.argwhere(lhs != rhs)[0]
            return [("brace-relation", (int(a), g, int(c)))]
    return []


def _derive_neg(t: np.ndarray) -> np.ndarray:
    return np.argmax(t == 0, axis=1).astype(t.dtype)


def validate(add, circ, name: str = "", mode: str | None = None,
             size_cap: int | None = None) -> ValidationReport:
    """Check that two Cayley tables define a finite skew brace.

    Verifies the group axioms of both tables, the shared identity at
    index 0, and the compatibility relation a o (b+c) = (a o b) - a + (a o c)
    over all triples.  Returns a report; ``report.brace`` is the constructed
    carrier when everything passes, with the greedy generators
    (``closure_generators``) of both tables: those the fast mode checks
    on, and in exhaustive mode searched once the group axioms hold.

    ``mode`` is "exhaustive", "fast", or None to pick by order.  Both modes
    verify the same statements (the fast mode checks associativity and the
    relation on generating sets, which is equivalent).
    """
    add = as_table(add, "add table")
    circ = as_table(circ, "circ table")
    if add.shape != circ.shape:
        raise TableFormatError(
            f"tables disagree on order: {add.shape[0]} vs {circ.shape[0]}")
    n = add.shape[0]
    cap = max_order() if size_cap is None else size_cap
    if n > cap:
        raise SizeCapExceeded(f"order {n} exceeds the size cap {cap}")
    if mode is None:
        mode = "exhaustive" if n <= FAST_VALIDATE_THRESHOLD else "fast"
    if mode not in ("exhaustive", "fast"):
        raise PreconditionError(f"unknown validation mode {mode!r}")

    if mode == "exhaustive":
        violations = _group_violations_full(add, "add") + _group_violations_full(circ, "circ")
    else:
        # both tables are checked before any generator search, which then
        # runs only on Latin squares
        add_id, add_dup = _identity_violation(add, "add"), _latin_violation(add, "add")
        circ_id, circ_dup = _identity_violation(circ, "circ"), _latin_violation(circ, "circ")
        add_gens = [] if add_dup else closure_generators(add)[0]   # shared by both checks on add
        circ_gens = [] if circ_dup else closure_generators(circ)[0]
        violations = (add_id + add_dup + _assoc_violation_fast(add, "add", add_gens)
                      + circ_id + circ_dup + _assoc_violation_fast(circ, "circ", circ_gens))
    if violations:
        return ValidationReport(n, violations, mode)

    if mode == "exhaustive":
        add_gens, circ_gens = closure_generators(add)[0], closure_generators(circ)[0]
    brace = FiniteSkewBrace(n, add, circ, _derive_neg(add), _derive_neg(circ),
                            add_gens, circ_gens, name)
    if mode == "exhaustive":
        violations = _brace_relation_violation_full(brace)
    else:
        violations = _brace_relation_violation_fast(add, brace.lam, add_gens)
    if violations:
        return ValidationReport(n, violations, mode)
    return ValidationReport(n, [], mode, brace)


class FiniteSkewBrace:
    """Immutable finite skew brace on {0..n-1} with identity 0.

    Do not call the constructor directly on unchecked tables; use
    ``brace_from_tables`` or ``validate``.  The exceptions are
    ``products._product`` and ``wreath_base``, whose products of validated
    braces under an action are braces, and ``corpus._holomorph_braces``,
    whose lambda-systems on a validated additive group are braces, each by
    the argument in its docstring.  It holds ``add``, ``circ``, ``neg``
    and ``inv``; ``lam`` and ``star_table()`` are gathered from them on
    each access.  ``neg`` and ``inv`` are read-only numpy arrays; ``add``
    and ``circ`` are too, except on a product above the ideal cap, where
    they are read-only ``groups.PairTable``s (``products._brace``).
    Readers of a whole table take ``np.asarray`` of it.

    ``add_gens`` and ``circ_gens`` generate (A, +) and (A, o): tuples of
    labels, without 0, that the builder gives.  ``validate`` gives the
    greedy sets of ``closure_generators``; a holomorph brace shares its
    group's additive set and has the greedy set of its circle table; a
    product lifts its factors' sets (``products._stacked_product``).
    Readers that need some generating set, not a greedy one, read them
    (the element maps of ``ideals._stacked_maps``, whose docstring shows
    that any generating sets give the same closures, the ideal rules of
    ``ideals``, and ``autos.skew_automorphisms``).  They are not part of
    equality, hashing or serialization.
    """

    __slots__ = ("order", "add", "circ", "neg", "inv", "add_gens", "circ_gens", "name")

    def __init__(self, order, add, circ, neg, inv, add_gens, circ_gens, name=""):
        for arr in (add, circ, neg, inv):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        values = (int(order), add, circ, neg, inv, tuple(add_gens), tuple(circ_gens), name)
        for slot, value in zip(FiniteSkewBrace.__slots__, values):
            object.__setattr__(self, slot, value)

    @property
    def lam(self) -> np.ndarray:
        """Read-only (n, n) lambda table, gathered on each access, never cached."""
        tab = lam_block(self, np.arange(self.order), np.arange(self.order))
        tab.setflags(write=False)
        return tab

    def __eq__(self, other):
        if not isinstance(other, FiniteSkewBrace):
            return NotImplemented
        # labeled tables only; names are informational
        return (self.order == other.order
                and np.array_equal(self.add, other.add)
                and np.array_equal(self.circ, other.circ))

    def __hash__(self):
        return hash((self.order, np.asarray(self.add).tobytes(), np.asarray(self.circ).tobytes()))

    def __repr__(self):
        label = f", name={self.name!r}" if self.name else ""
        return f"FiniteSkewBrace(order={self.order}{label})"

    def with_name(self, name: str) -> "FiniteSkewBrace":
        clone = FiniteSkewBrace.__new__(FiniteSkewBrace)
        for slot in ("order", "add", "circ", "neg", "inv", "add_gens", "circ_gens"):
            object.__setattr__(clone, slot, getattr(self, slot))
        object.__setattr__(clone, "name", name)
        return clone

    def __setattr__(self, key, value):
        if hasattr(self, "name"):
            raise AttributeError("FiniteSkewBrace is immutable")
        object.__setattr__(self, key, value)

    # -- scalar calculus ------------------------------------------------

    def star(self, a: int, b: int) -> int:
        """a * b = lambda_a(b) - b; labels are checked by ``_check_index``."""
        a, b = _check_index(self.order, a, "a"), _check_index(self.order, b, "b")
        return int(star_block(self, np.array([a]), np.array([b]))[0, 0])

    def star_table(self) -> np.ndarray:
        """Read-only (n, n) star table, gathered on each access, never cached."""
        tab = star_block(self, np.arange(self.order), np.arange(self.order))
        tab.setflags(write=False)
        return tab

    def elements(self) -> range:
        return range(self.order)

    # pickling support (slots-based class)
    def __getstate__(self):
        return {s: getattr(self, s) for s in self.__slots__}

    def __setstate__(self, state):
        for k, v in state.items():
            object.__setattr__(self, k, v)


def brace_from_tables(add, circ, name: str = "") -> FiniteSkewBrace:
    """Validate and construct; raises ValidationFailure on axiom violations."""
    report = validate(add, circ, name)
    if not report.ok:
        raise ValidationFailure(report)
    assert report.brace is not None
    return report.brace


def _check_index(n: int, value: int, what: str = "index") -> int:
    """``value`` as an int in 0..n-1; otherwise ``PreconditionError``,
    also for a value that is not an integer (``_member``)."""
    v = _member(value, what)
    if not 0 <= v < n:
        raise PreconditionError(f"{what} {value} out of range 0..{n - 1}")
    return v


def _label_table(table, n: int, what: str) -> np.ndarray:
    """``table`` as a read-only array of ``table_dtype(n)``, when every
    entry is an integer in 0..n-1 (an integral float such as 2.0 is taken
    as 2); otherwise ``PreconditionError``."""
    table = np.asarray(table)
    if table.size and (table.dtype.kind not in "iuf" or table.min() < 0 or table.max() >= n
                       or table.dtype.kind == "f" and not (table == np.floor(table)).all()):
        raise PreconditionError(f"{what} entries must be integers in 0..{n - 1}")
    table = table.astype(table_dtype(n), copy=False)
    table.setflags(write=False)
    return table


def normalize_members(n: int, members: Iterable[int]) -> np.ndarray:
    """Sorted unique member array, range-checked against the carrier
    (``_member_labels``)."""
    return sorted_unique(_member_labels(n, members))


def _member_labels(n: int, members: Iterable[int]) -> np.ndarray:
    """The members as an int64 array, in the order given, range-checked
    against the carrier.  A member that is not an integer (2.9, say)
    raises ``PreconditionError``; an integral value such as 2.0 is taken
    as 2.  A 1-d integer array is taken as it is, without a loop over its
    entries."""
    if isinstance(members, np.ndarray) and members.ndim == 1 and members.dtype.kind in "iu":
        arr = members.astype(np.int64)
    else:
        arr = np.fromiter(map(_member, members), dtype=np.int64)
    if arr.size:
        lo, hi = arr.min(), arr.max()
        if lo < 0 or hi >= n:
            raise PreconditionError(f"member {lo if lo < 0 else hi} out of range 0..{n - 1}")
    return arr


def _member(value, what: str = "member") -> int:
    """``value`` as an int, when it is one."""
    try:
        v = int(value)
    except (TypeError, ValueError):
        v = None
    if v is None or v != value:
        raise PreconditionError(f"{what} {value} is not an integer")
    return v


def sorted_unique(arr: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending: what ``np.unique``
    gives, by one sort, without importing ``numpy.ma`` as it does."""
    arr = np.sort(arr)
    fresh = np.ones(arr.size, dtype=bool)
    fresh[1:] = arr[1:] != arr[:-1]
    return arr[fresh]


def fmt_members(members: Iterable[int]) -> str:
    return "{" + ",".join(str(int(m)) for m in sorted(members)) + "}"


_EVAL_KINDS = ("add", "circ", "neg", "inv", "lambda", "star")


def table_eval(brace: FiniteSkewBrace, kind: str, a: int, b: int | None = None) -> int:
    """Evaluate one table entry: add, circ, neg, inv, lambda, or star."""
    if kind not in _EVAL_KINDS:
        raise PreconditionError(f"unknown table kind {kind!r}, expected one of {_EVAL_KINDS}")
    n = brace.order
    a = _check_index(n, a, "a")
    if kind in ("neg", "inv"):
        if b is not None:
            raise PreconditionError(f"{kind} takes a single element")
        return int(brace.neg[a] if kind == "neg" else brace.inv[a])
    if b is None:
        raise PreconditionError(f"{kind} needs two elements")
    b = _check_index(n, b, "b")
    if kind == "add":
        return int(brace.add[a, b])
    if kind == "circ":
        return int(brace.circ[a, b])
    if kind == "lambda":
        return int(lam_block(brace, np.array([a]), np.array([b]))[0, 0])
    return brace.star(a, b)


def generated_subbrace(brace: FiniteSkewBrace, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subset containing ``seed`` and 0 that is closed under add,
    circ, and both kinds of inverse.  A fixed-point loop: each round makes
    f + m, m + f, f o m, m o f, -f and f' for every member m and frontier
    entry f (first 0 and the seed), and the candidates that are not
    members yet are the next frontier."""
    add, circ, neg, inv, n = brace.add, brace.circ, brace.neg, brace.inv, brace.order
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    mask[normalize_members(n, seed)] = True
    frontier = np.flatnonzero(mask)
    while frontier.size:
        members = np.flatnonzero(mask)
        hit = np.zeros_like(mask)
        for table in (add, circ):
            hit[table[np.ix_(frontier, members)]] = True
            hit[table[np.ix_(members, frontier)]] = True
        hit[neg[frontier]] = True
        hit[inv[frontier]] = True
        frontier = np.flatnonzero(hit & ~mask)
        mask[frontier] = True
    return frozenset(np.flatnonzero(mask).tolist())


def lam_block(brace: FiniteSkewBrace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The |rows| x |cols| array of lambda_b(c) = -b + (b o c) for 1-d
    label arrays, in the dtype of ``add``: one gather of ``circ`` and one
    of ``add``, so only |rows| x |cols| entries are allocated.

    The only place lambda is computed; no brace stores it.  The formula is
    the definition of lambda, so it gives what each builder used to store:
    ``validate`` stored this gather on all labels; a holomorph brace has
    a o b = a + lambda_a(b) (``corpus._holomorph_braces``); and a product
    stored (lambda_g1(sigma(h1)(g2)), lambda_h1(h2)), which is
    -(g1, h1) + (g1, h1) o (g2, h2) by the formulas of ``products._stacked_product``.
    Every builder's ``add`` has the dtype ``table_dtype(n)`` the stored
    tables had.
    """
    return brace.add[brace.neg[rows][:, None], brace.circ[rows[:, None], cols]]


def star_block(brace: FiniteSkewBrace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The |rows| x |cols| array of stars b * c = lambda_b(c) - c."""
    return brace.add[lam_block(brace, rows, cols), brace.neg[cols]]


def star_set(brace: FiniteSkewBrace, bs: Iterable[int], cs: Iterable[int]) -> frozenset[int]:
    """The raw set {b * c : b in bs, c in cs} (no closure)."""
    n = brace.order
    B = normalize_members(n, bs)
    C = normalize_members(n, cs)
    if not B.size or not C.size:
        return frozenset()
    return frozenset(int(x) for x in sorted_unique(star_block(brace, B, C).ravel()))


def star_product(brace: FiniteSkewBrace, bs: Iterable[int], cs: Iterable[int]) -> frozenset[int]:
    """B * C: the sub-skew-brace generated by all pairwise stars b * c."""
    return generated_subbrace(brace, star_set(brace, bs, cs))
