"""Semidirect and wreath products of finite skew braces.

A semidirect product needs an action of the circle group of H on G by
skew brace automorphisms, a permutation table wrapped in ``SigmaAction``.
Only ``semidirect`` checks one (``validate_sigma``): the shift of ``wreath``
and the actions of ``autos.sigma_actions`` are actions by construction.

The wreath product carrier is the set of functions H -> G encoded as
big-endian mixed-radix integers (the digit at position 0 is most
significant).  The top factor acts by shifting the argument: h sends f
to x -> f(h' o x) with h' the circle inverse of h.  Using the inverse
makes the action a homomorphism; composing without it reverses the
order of composition and only agrees when every element of H is its own
circle inverse.

Every product is a stack of the one pair step ``_stacked_product``:
``_product`` is its stack of one, ``_stacked_power`` its fold under the
identity action, and the cor28 and q34 sweeps stack many actions at once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteSkewBrace,
    PreconditionError,
    SizeCapExceeded,
    _check_index,
    _label_table,
    _member_labels,
    _row_blocks,
    max_order,
    normalize_members,
    table_dtype,
)
from .groups import PairTable
from .ideals import DEFAULT_IDEAL_CAP, _Tables

__all__ = [
    "SigmaAction",
    "validate_sigma",
    "trivial_sigma",
    "semidirect",
    "WreathContext",
    "wreath_base",
    "wreath",
    "delta_function",
    "rho_projection",
    "pointwise_lift",
]

SIGMA_RULES = ("permutation", "identity-action", "add-morphism", "circ-morphism", "homomorphism")


@dataclass(frozen=True)
class SigmaAction:
    """Action of (H, o) on the brace G: row h of ``perms`` is the image
    permutation of G's carrier under h."""
    target: FiniteSkewBrace
    source: FiniteSkewBrace
    perms: np.ndarray

    def __post_init__(self):
        perms, m, n = np.asarray(self.perms), self.source.order, self.target.order
        if perms.shape != (m, n):
            raise PreconditionError(f"sigma table must be {m}x{n}, got {perms.shape}")
        object.__setattr__(self, "perms", _label_table(perms, n, "sigma table"))

    def apply(self, h: int, g: int) -> int:
        h = _check_index(self.source.order, h, "h")
        return int(self.perms[h, _check_index(self.target.order, g, "g")])


def validate_sigma(sigma: SigmaAction) -> list[tuple[int, str, tuple]]:
    """All violations as (h, rule, witness) triples; empty means valid.

    Rules: each row a permutation, row 0 the identity, every row a
    morphism for both tables, and h -> row a homomorphism from (H, o)
    into the permutations under composition.
    """
    G, H, perms = sigma.target, sigma.source, sigma.perms
    bad = []
    ident = np.arange(G.order)
    tables = (("add-morphism", np.asarray(G.add)), ("circ-morphism", np.asarray(G.circ)))
    for h in range(H.order):
        row = perms[h]
        if not np.array_equal(np.sort(row), ident):
            vals, counts = np.unique(row, return_counts=True)
            dup = int(vals[counts > 1][0]) if (counts > 1).any() else int(row[0])
            bad.append((h, "permutation", (dup,)))
            continue
        if h == 0 and not np.array_equal(row, ident):
            bad.append((0, "identity-action", (int(np.flatnonzero(row != ident)[0]),)))
        for rule, table in tables:
            diff = row[table] != table[row[:, None], row]
            if diff.any():
                a, b = np.argwhere(diff)[0]
                bad.append((h, rule, (int(a), int(b))))
    if not any(rule == "permutation" for _, rule, _ in bad):
        for h1 in range(H.order):
            composed = perms[h1][perms]  # row h2 -> sigma(h1) after sigma(h2)
            diff = perms[H.circ[h1]] != composed
            if diff.any():
                h2, g = np.argwhere(diff)[0]
                bad.append((h1, "homomorphism", (int(h2), int(g))))
    return bad


def trivial_sigma(target: FiniteSkewBrace, source: FiniteSkewBrace) -> SigmaAction:
    return SigmaAction(target, source, np.tile(np.arange(target.order), (source.order, 1)))


def _stacked_product(left: _Tables, right: _Tables, perms: np.ndarray | None) -> _Tables:
    """The products G_b x|_sigma_b H_b of the rows b of two stacks of B
    braces on pairs (g, h) encoded as g*|H| + h, sigma_b(h) row h of
    perms[b] ((B, |H|, |G|)) or the identity for ``perms`` None, built
    without ``validate`` or ``validate_sigma``: (g1, h1) + (g2, h2) =
    (g1 + g2, h1 + h2) and (g1, h1) o (g2, h2) = (g1 o sigma(h1)(g2), h1 o h2).

    For validated G and H and a homomorphism sigma from (H, o) into the
    automorphisms of both tables of G (the ``SIGMA_RULES``) this is a skew
    brace (Smoktunowicz and Vendramin, "On skew braces", J. Comb.
    Algebra 2 (2018)): + is a direct and o a semidirect
    product of groups, both with identity (0, 0) at label 0, and since
    sigma(h1) is additive the brace relation splits into G's and H's.  So
    -(g, h) = (-g, -h), (g, h)' = (sigma(h')(g'), h') and
    lambda_(g1, h1)(g2, h2) = (lambda_g1(sigma(h1)(g2)), lambda_h1(h2)).

    The generators are lifted from the factors': (g, 0) = g*|H| for each
    generator g of G and (0, h) = h for each generator h of H, in both
    tables.  For +, (g, h) = (g, 0) + (0, h), and the (g, 0) and the
    (0, h) add as G and H do.  For o, (g, h) = (g, 0) o (0, h) since
    sigma(0) is the identity, (g1, 0) o (g2, 0) = (g1 o g2, 0), and
    (0, h1) o (0, h2) = (0, h1 o h2) since sigma(h1) fixes 0.  So each
    lifted set generates its table; a padding label 0 lifts to 0.

    add and circ are ``groups.PairTable``s of the factors' stacked tables,
    read in place, a lazy factor's too: left = G.add, right = H.add for +,
    and left = G.circ[:, sigma(.)] ((B |G|, |H|, |G|); G.circ for the
    identity), right = H.circ for o; ``_brace`` and ``ideals._Batch`` read
    them dense at or below ``DEFAULT_IDEAL_CAP``.  It keeps ``left.braces``."""
    B, n1, m = len(left), left.n, right.n
    out = copy.copy(left)
    out.n = n1 * m
    dt = table_dtype(out.n)
    circ, g_inv, h_inv = left.circ, left.inv.reshape(B, n1, 1), right.inv.reshape(B, 1, m)
    if perms is not None:                    # one brace: G.circ[:, perms[0]], numpy's fast path
        rows = np.arange(B * n1).reshape(B, n1, 1, 1) if B > 1 else slice(None)
        circ = left.circ[rows, perms[:, None]].reshape(B * n1, m, n1)
        g_inv = perms[np.arange(B)[:, None, None], h_inv, g_inv]
    out.add, out.circ = PairTable(left.add, right.add, dt), PairTable(circ, right.circ, dt)
    out.neg = (left.neg.astype(dt).reshape(B, n1, 1) * m + right.neg.reshape(B, 1, m)).ravel()
    out.inv = (g_inv.astype(dt) * m + h_inv).ravel()
    out.add_gens = np.hstack([left.add_gens * m, right.add_gens])
    out.circ_gens = np.hstack([left.circ_gens * m, right.circ_gens])
    return out


def _brace(tables: _Tables, name: str) -> FiniteSkewBrace:
    """The brace of a stack of one, dense at or below ``DEFAULT_IDEAL_CAP``:
    above it a product is never enumerated and its fast verdict reads a few
    frontier x member pairs, so two dense 25.9 MB tables at order 3600 would go unread."""
    read = np.asarray if tables.n <= DEFAULT_IDEAL_CAP else (lambda table: table)
    return FiniteSkewBrace(tables.n, read(tables.add), read(tables.circ), tables.neg, tables.inv,
                           tables.add_gens[0].tolist(), tables.circ_gens[0].tolist(), name)


def _product(G: FiniteSkewBrace, H: FiniteSkewBrace, perms: np.ndarray,
             name: str | None = None) -> FiniteSkewBrace:
    """G x|_sigma H, row h of ``perms`` being sigma(h): a ``_brace`` stack of one."""
    name = f"({G.name} x| {H.name})" if name is None else name
    return _brace(_stacked_product(_Tables([G]), _Tables([H]), perms[None]), name)


def _action_stacks(actions: list[tuple[FiniteSkewBrace, FiniteSkewBrace, SigmaAction]]):
    """(index, stack) for the products G x|_sigma H of the (G, H, sigma) at
    index, one ``_stacked_product`` at a time: those of one |G| and |H| in
    stacks of about ``core._BLOCK_ENTRIES`` add and circ entries, and one
    above ``DEFAULT_IDEAL_CAP`` a lazy stack of its own (``ideals._batches``)."""
    groups: dict[tuple[int, int, int], list[int]] = {}          # (|G||H|, |G|, -1 or i): actions
    for i, (G, H, _) in enumerate(actions):
        n = G.order * H.order
        groups.setdefault((n, G.order, i if n > DEFAULT_IDEAL_CAP else -1), []).append(i)
    for (n, _, _), index in groups.items():
        for i0, i1 in _row_blocks(n, len(index), 2 * n * n):
            Gs, Hs, sigmas = zip(*(actions[i] for i in index[i0:i1]))
            perms = np.stack([sigma.perms for sigma in sigmas])
            yield index[i0:i1], _stacked_product(_Tables(list(Gs)), _Tables(list(Hs)), perms)


def semidirect(G: FiniteSkewBrace, H: FiniteSkewBrace, sigma: SigmaAction,
               name: str | None = None) -> FiniteSkewBrace:
    """Semidirect product G x|_sigma H on pairs (g, h) encoded as g*|H| + h
    (see ``_stacked_product``).  ``sigma`` must pass ``validate_sigma``."""
    if (sigma.target, sigma.source) != (G, H):   # identity first, then equal tables
        raise PreconditionError("sigma does not act on these braces")
    bad = validate_sigma(sigma)
    if bad:
        h, rule, witness = bad[0]
        raise PreconditionError(f"invalid action: h={h} breaks {rule} at {witness}")
    n = G.order * H.order
    if n > max_order():
        raise SizeCapExceeded(f"product order {n} exceeds the cap {max_order()}")
    return _product(G, H, sigma.perms, name)


class WreathContext:
    """Codec between functions H -> G and carrier labels of the wreath
    base.  Functions are stored big-endian: label = sum of
    digit(h) * |G|^(m-1-h) over positions h."""

    __slots__ = ("base_order", "positions", "order", "weights")

    def __init__(self, base_order: int, positions: int):
        self.base_order = base_order
        self.positions = positions
        self.order = base_order ** positions
        if self.order > max_order():
            raise SizeCapExceeded(
                f"function space order {self.order} exceeds the cap {max_order()}")
        self.weights = (base_order ** np.arange(positions - 1, -1, -1)).astype(np.int64)

    def encode(self, digits) -> int:
        """The label of ``digits``; a digit out of range or not an integer
        raises ``PreconditionError`` (``core._member_labels``)."""
        digits = np.asarray(digits)
        if digits.shape != (self.positions,):
            raise PreconditionError(f"expected {self.positions} digits, got {digits.shape}")
        return int(_member_labels(self.base_order, digits) @ self.weights)

    def decode(self, label: int) -> np.ndarray:
        label = _check_index(self.order, label, "label")
        return (label // self.weights) % self.base_order

    def digit_matrix(self) -> np.ndarray:
        """Row w = digits of label w; shape (order, positions)."""
        labels = np.arange(self.order, dtype=np.int64)
        return ((labels[:, None] // self.weights[None, :]) % self.base_order)


def wreath_base(G: FiniteSkewBrace, H: FiniteSkewBrace) -> tuple[FiniteSkewBrace, WreathContext]:
    """The direct power brace of functions H -> G under pointwise
    operations, plus its codec: the ``_brace`` of ``_stacked_power([G], |H|)``."""
    base = _brace(_stacked_power([G], H.order), f"({G.name}^{H.order})")
    return base, WreathContext(G.order, H.order)


def _stacked_power(braces: list[FiniteSkewBrace], positions: int) -> _Tables:
    """The ``ideals._Tables`` of the powers G^positions of ``braces`` (one
    order N, kept as given), first factor most significant as in the
    ``WreathContext`` digit order: the fold of ``_stacked_product`` under
    the identity action, lazy at every order.  Keeps the order cap."""
    WreathContext(braces[0].order, positions)
    power = stack = _Tables(braces)
    for _ in range(positions - 1):
        power = _stacked_product(power, stack, None)
    return power


def _shift_perms(ctx: WreathContext, H: FiniteSkewBrace) -> np.ndarray:
    """Row h sends f to x -> f(h' o x), which meets the ``SIGMA_RULES`` by
    construction: it reorders the positions, so it permutes the pointwise
    + and o; row 0 is the identity; and row h1 o h2 is x -> f(h2' o h1' o
    x), row h1 after row h2 (the module docstring)."""
    return (ctx.digit_matrix()[:, H.circ[H.inv]] @ ctx.weights).T  # row h, digit x: h' o x


def wreath(G: FiniteSkewBrace, H: FiniteSkewBrace,
           name: str | None = None) -> tuple[FiniteSkewBrace, WreathContext]:
    """Wreath product: the function-space base extended by H shifting
    arguments (``_shift_perms``).  Pairs (f, h) are encoded as f*|H| + h."""
    base, ctx = wreath_base(G, H)
    if base.order * H.order > max_order():
        raise SizeCapExceeded(f"wreath order {base.order * H.order} exceeds the cap {max_order()}")
    name = f"({G.name} wr {H.name})" if name is None else name
    return _product(base, H, _shift_perms(ctx, H), name), ctx


def delta_function(ctx: WreathContext, position: int, value: int) -> int:
    """Label of the function supported at one position."""
    digits = [0] * ctx.positions
    digits[_check_index(ctx.positions, position, "position")] = value
    return ctx.encode(digits)


def rho_projection(ctx: WreathContext, label: int, position: int) -> int:
    """Digit of a function label at one position."""
    return int(ctx.decode(label)[_check_index(ctx.positions, position, "position")])


def pointwise_lift(ctx: WreathContext, members) -> np.ndarray:
    """Labels of all functions whose every digit lies in ``members``
    (the lift of a base-brace subset to the function space), ascending."""
    members = normalize_members(ctx.base_order, members)
    labels = members
    for _ in range(ctx.positions - 1):
        labels = (labels[:, None] * ctx.base_order + members[None, :]).ravel()
    return np.sort(labels)
