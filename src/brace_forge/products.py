"""Semidirect and wreath products of finite skew braces.

A semidirect product needs an action of the circle group of H on G by
skew brace automorphisms.  Actions are permutation tables wrapped in
``SigmaAction`` so they can be validated once and reused.

The wreath product carrier is the set of functions H -> G encoded as
big-endian mixed-radix integers (the digit at position 0 is most
significant).  The top factor acts by shifting the argument: h sends f
to x -> f(h' o x) with h' the circle inverse of h.  Using the inverse
makes the action a homomorphism; composing without it reverses the
order of composition and only agrees when every element of H is its own
circle inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteSkewBrace,
    PreconditionError,
    SizeCapExceeded,
    brace_from_tables,
    max_order,
    table_dtype,
)
from .groups import _pair_table, direct_product_table

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

SIGMA_RULES = ("permutation", "identity-action", "add-morphism",
               "circ-morphism", "homomorphism")


@dataclass(frozen=True)
class SigmaAction:
    """Action of (H, o) on the brace G: row h of ``perms`` is the image
    permutation of G's carrier under h."""
    target: FiniteSkewBrace
    source: FiniteSkewBrace
    perms: np.ndarray

    def __post_init__(self):
        perms = np.asarray(self.perms, dtype=table_dtype(self.target.order))
        if perms.shape != (self.source.order, self.target.order):
            raise PreconditionError(
                f"sigma table must be {self.source.order}x{self.target.order}, "
                f"got {perms.shape}")
        perms.setflags(write=False)
        object.__setattr__(self, "perms", perms)

    def apply(self, h: int, g: int) -> int:
        return int(self.perms[h, g])


def validate_sigma(sigma: SigmaAction) -> list[tuple[int, str, tuple]]:
    """All violations as (h, rule, witness) triples; empty means valid.

    Rules: each row a permutation, row 0 the identity, every row a
    morphism for both tables, and h -> row a homomorphism from (H, o)
    into the permutations under composition.
    """
    G, H, perms = sigma.target, sigma.source, sigma.perms
    n = G.order
    bad = []
    ident = np.arange(n)
    for h in range(H.order):
        row = perms[h]
        if not np.array_equal(np.sort(row), ident):
            vals, counts = np.unique(row, return_counts=True)
            dup = int(vals[counts > 1][0]) if (counts > 1).any() else int(row[0])
            bad.append((h, "permutation", (dup,)))
            continue
        if h == 0 and not np.array_equal(row, ident):
            bad.append((0, "identity-action", (int(np.flatnonzero(row != ident)[0]),)))
        for rule, table in (("add-morphism", G.add), ("circ-morphism", G.circ)):
            diff = row[table] != table[np.ix_(row, row)]
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
    perms = np.tile(np.arange(target.order, dtype=table_dtype(target.order)),
                    (source.order, 1))
    return SigmaAction(target, source, perms)


def semidirect(G: FiniteSkewBrace, H: FiniteSkewBrace, sigma: SigmaAction,
               name: str | None = None) -> FiniteSkewBrace:
    """Semidirect product on pairs (g, h) encoded as g*|H| + h.

    Addition is componentwise; the circle product twists the left slot:
    (g1, h1) o (g2, h2) = (g1 o sigma(h1)(g2), h1 o h2).
    """
    if sigma.target is not G or sigma.source is not H:
        if not (sigma.target == G and sigma.source == H):
            raise PreconditionError("sigma does not act on these braces")
    bad = validate_sigma(sigma)
    if bad:
        h, rule, witness = bad[0]
        raise PreconditionError(f"invalid action: h={h} breaks {rule} at {witness}")
    n = G.order * H.order
    if n > max_order():
        raise SizeCapExceeded(f"product order {n} exceeds the cap {max_order()}")
    add = direct_product_table(G.add, H.add)
    # entry [g1*|H| + h1, g2*|H| + h2] is
    # G.circ[g1, sigma(h1)(g2)] * |H| + H.circ[h1, h2]
    circ = _pair_table(G.circ[:, sigma.perms], H.circ, table_dtype(n))
    if name is None:
        name = f"({G.name} x| {H.name})"
    return brace_from_tables(add, circ, name)


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
        digits = np.asarray(digits)
        if digits.shape != (self.positions,):
            raise PreconditionError(f"expected {self.positions} digits, got {digits.shape}")
        if digits.min(initial=0) < 0 or digits.max(initial=0) >= self.base_order:
            raise PreconditionError("digit out of range")
        return int(digits @ self.weights)

    def decode(self, label: int) -> np.ndarray:
        if not 0 <= label < self.order:
            raise PreconditionError(f"label {label} out of range")
        return (label // self.weights) % self.base_order

    def digit_matrix(self) -> np.ndarray:
        """Row w = digits of label w; shape (order, positions)."""
        labels = np.arange(self.order, dtype=np.int64)
        return ((labels[:, None] // self.weights[None, :]) % self.base_order)


def wreath_base(G: FiniteSkewBrace, H: FiniteSkewBrace) -> tuple[FiniteSkewBrace, WreathContext]:
    """The direct power brace of functions H -> G under pointwise
    operations, plus its codec.  ``direct_product_table`` puts the first
    factor most significant, which is the codec's digit order.

    G is a validated brace, so the power is a brace without validating
    it again: both operations act coordinatewise, so every axiom holds
    coordinatewise.  Associativity and a o (b+c) = (a o b) - a + (a o c)
    hold in G^m because they hold in each coordinate.  Label 0 has every
    digit 0, the identity of G, so it is the shared identity.  The
    coordinatewise -a and circle inverse a' are inverses in G^m, and
    lambda_a(b) = -a + a o b is coordinatewise too, so the neg, inv and
    lambda tables are G's applied digit by digit.
    """
    ctx = WreathContext(G.order, H.order)
    m = H.order
    dt = table_dtype(ctx.order)
    D = ctx.digit_matrix()
    power = FiniteSkewBrace(
        ctx.order,
        direct_product_table(*[G.add] * m),
        direct_product_table(*[G.circ] * m),
        (G.neg[D] @ ctx.weights).astype(dt),
        (G.inv[D] @ ctx.weights).astype(dt),
        direct_product_table(*[G.lam] * m),
        f"({G.name}^{m})",
    )
    return power, ctx


def _shift_perms(ctx: WreathContext, H: FiniteSkewBrace) -> np.ndarray:
    D = ctx.digit_matrix()
    perms = np.zeros((H.order, ctx.order), dtype=table_dtype(ctx.order))
    for h in range(H.order):
        source = H.circ[H.inv[h]]  # digit x of the image reads digit h' o x
        perms[h] = (D[:, source] @ ctx.weights).astype(perms.dtype)
    return perms


def wreath(G: FiniteSkewBrace, H: FiniteSkewBrace,
           name: str | None = None) -> tuple[FiniteSkewBrace, WreathContext]:
    """Wreath product: the function-space base extended by H shifting
    arguments.  Pairs (f, h) are encoded as f*|H| + h."""
    base, ctx = wreath_base(G, H)
    if base.order * H.order > max_order():
        raise SizeCapExceeded(
            f"wreath order {base.order * H.order} exceeds the cap {max_order()}")
    sigma = SigmaAction(base, H, _shift_perms(ctx, H))
    if name is None:
        name = f"({G.name} wr {H.name})"
    return semidirect(base, H, sigma, name=name), ctx


def delta_function(ctx: WreathContext, position: int, value: int) -> int:
    """Label of the function supported at one position."""
    digits = np.zeros(ctx.positions, dtype=np.int64)
    if not 0 <= position < ctx.positions:
        raise PreconditionError(f"position {position} out of range")
    digits[position] = value
    return ctx.encode(digits)


def rho_projection(ctx: WreathContext, label: int, position: int) -> int:
    """Digit of a function label at one position."""
    if not 0 <= position < ctx.positions:
        raise PreconditionError(f"position {position} out of range")
    return int(ctx.decode(label)[position])


def pointwise_lift(ctx: WreathContext, members) -> np.ndarray:
    """Labels of all functions whose every digit lies in ``members``
    (the lift of a base-brace subset to the function space), ascending."""
    members = np.unique(np.asarray(list(members), dtype=np.int64))
    if members.size and (members[0] < 0 or members[-1] >= ctx.base_order):
        raise PreconditionError("member out of range")
    labels = members
    for _ in range(ctx.positions - 1):
        labels = (labels[:, None] * ctx.base_order + members[None, :]).ravel()
    return np.sort(labels)
