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
    max_order,
    sorted_unique,
    table_dtype,
)
from .groups import PairTable, _pair_table
from .ideals import DEFAULT_IDEAL_CAP

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
        perms, m, n = np.asarray(self.perms), self.source.order, self.target.order
        if perms.shape != (m, n):
            raise PreconditionError(f"sigma table must be {m}x{n}, got {perms.shape}")
        if (perms.dtype.kind not in "iuf" or perms.min() < 0 or perms.max() >= n
                or perms.dtype.kind == "f" and not (perms == np.floor(perms)).all()):
            raise PreconditionError(f"sigma table entries must be integers in 0..{n - 1}")
        perms = perms.astype(table_dtype(n))
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


def _product(G: FiniteSkewBrace, H: FiniteSkewBrace, perms: np.ndarray | None,
             name: str) -> FiniteSkewBrace:
    """G x|_sigma H on pairs (g, h) encoded as g*|H| + h, row h of ``perms``
    being sigma(h) (the identity for None), built without ``validate``:
    (g1, h1) + (g2, h2) = (g1 + g2, h1 + h2) and
    (g1, h1) o (g2, h2) = (g1 o sigma(h1)(g2), h1 o h2).

    For validated G and H and a homomorphism sigma from (H, o) into the
    automorphisms of both tables of G (``validate_sigma``, or the identity
    action) this is a skew brace (Smoktunowicz and Vendramin, "On skew
    braces", J. Comb. Algebra 2 (2018)): + is a direct and o a semidirect
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
    lifted set generates its table, a ``wreath_base`` power's too, whose
    factor sets are lifted digit by digit.

    Both tables are ``_pair_table(left, right)`` of the factors' tables,
    read in place: left = G.add, right = H.add for +, and left =
    G.circ[:, perms] (G.circ for the identity), right = H.circ for o.  Up
    to order ``DEFAULT_IDEAL_CAP`` they are built dense; above it they are
    ``PairTable``s, which keep only left and right, a lazy factor's own
    ``PairTable`` too, and compute what a kernel gathers.  A product
    above the cap is never enumerated, and its fast verdict comes from a
    ``_Batch`` of its own (``ideals``), which reads its tables at a few
    frontier x member pairs, so a dense build there (two 25.9 MB tables
    at order 3600) would mostly go unread.  At or below the cap a brace
    may be stacked with others, whose tables a batch concatenates, and a
    build costs less than the extra work of every lazy gather: with every
    product lazy, ``verify_lemma32()`` (306 of its 307 cases lift to
    products of order <= 64) took 0.14-0.19 s instead of 0.10-0.13 s (ten
    runs each, on a 2-core host).
    """
    m = H.order
    n = G.order * m
    dt = table_dtype(n)
    table = _pair_table if n <= DEFAULT_IDEAL_CAP else PairTable
    circ = G.circ if perms is None else G.circ[:, perms]
    inv = G.inv[:, None] if perms is None else perms[H.inv, G.inv[:, None]]
    return FiniteSkewBrace(
        n,
        table(G.add, H.add, dt),
        table(circ, H.circ, dt),
        (G.neg.astype(dt)[:, None] * m + H.neg).ravel(),
        (inv.astype(dt) * m + H.inv).ravel(),
        tuple(g * m for g in G.add_gens) + H.add_gens,
        tuple(g * m for g in G.circ_gens) + H.circ_gens,
        name,
    )


def semidirect(G: FiniteSkewBrace, H: FiniteSkewBrace, sigma: SigmaAction,
               name: str | None = None) -> FiniteSkewBrace:
    """Semidirect product G x|_sigma H on pairs (g, h) encoded as g*|H| + h
    (see ``_product``).  ``sigma`` must pass ``validate_sigma``."""
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
    return _product(G, H, sigma.perms, f"({G.name} x| {H.name})" if name is None else name)


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
    operations, plus its codec: G x| G x| ... x| G under identity actions,
    built by ``_product`` with the first factor most significant, which is
    the codec's digit order."""
    ctx = WreathContext(G.order, H.order)
    power = G
    for k in range(2, H.order + 1):
        power = _product(power, G, None, f"({G.name}^{k})")
    return power if H.order > 1 else G.with_name(f"({G.name}^1)"), ctx


def _shift_perms(ctx: WreathContext, H: FiniteSkewBrace) -> np.ndarray:
    return (ctx.digit_matrix()[:, H.circ[H.inv]] @ ctx.weights).T  # row h, digit x: h' o x


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
    members = sorted_unique(np.asarray(list(members), dtype=np.int64))
    if members.size and (members[0] < 0 or members[-1] >= ctx.base_order):
        raise PreconditionError("member out of range")
    labels = members
    for _ in range(ctx.positions - 1):
        labels = (labels[:, None] * ctx.base_order + members[None, :]).ravel()
    return np.sort(labels)
