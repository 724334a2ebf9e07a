"""Sweeps that machine-check the statements behind the CLI ids
lemma31, lemma32, cor28, thm33, and q34 over the standard corpus.

Every sweep builds a deterministic list of cases, runs them, and returns
a SweepReport whose counterexamples carry the serialized inputs needed to
replay them.  A case reads only its item: a sweep's set-up classifies
the corpus with one ``semiprime_verdicts`` call and puts each verdict a
case reads into that case's item; a cor28 or q34 item carries the
``SigmaAction`` that ``sigma_actions`` built.  With ``jobs`` > 1 the
cases are cut into contiguous chunks: this process runs the first and
one ``os.fork`` worker runs each other chunk, and the results are joined
in chunk order, so the output is byte-identical for any process count.

Every case kind has one batch function (``_BATCH_FUNCS``), called with
each maximal run of consecutive items of its kind within a chunk and
returning one result per item, each written by the batch itself.  A
kind's single case is its batch of one, so each kind has one body, and a
batch gives what its items give alone; where chunk bounds cut a run does
not change the output.
Nothing a batch computes outlives it, so a case does the same work
whatever ran before it in the process.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import products
from .autos import sigma_actions
from .core import (
    BraceForgeError,
    FiniteSkewBrace,
    PreconditionError,
    _member_labels,
    fmt_members,
    max_order,
)
from .corpus import group_brace, standard_corpus
from .docio import format_int_row, serialize_document
from .ideals import (
    DEFAULT_IDEAL_CAP,
    _Tables,
    _batch_witnesses,
    _failed_rules,
    _vanishing_ideals,
    ideal_masks,
    is_ideal,
    semiprime_verdicts,
)
from .products import SigmaAction, _stacked_power, wreath, wreath_base

__all__ = [
    "Counterexample",
    "CaseResult",
    "SweepReport",
    "render_report",
    "verify_lemma31",
    "verify_lemma32",
    "verify_cor28_thm33",
    "search_q34",
    "DEFAULT_SIGMA_BUDGET",
    "STATEMENTS",
]

DEFAULT_SIGMA_BUDGET = 64
DEFAULT_CORPUS_MAX = 8
STATEMENTS = ("lemma31", "lemma32", "cor28", "thm33", "q34")


@dataclass(frozen=True)
class Counterexample:
    case_id: str
    documents: tuple[str, ...]
    witness: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    ok: bool
    info: str
    witness: tuple[int, ...] = ()
    documents: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepReport:
    statement: str
    attempted: int
    passed: int
    counterexamples: tuple[Counterexample, ...]
    elapsed: float
    notes: tuple[str, ...]
    cases: tuple[CaseResult, ...]

    def __post_init__(self):
        assert self.passed + len(self.counterexamples) == self.attempted


def _assemble(statement: str, results: list[CaseResult], elapsed: float,
              notes: tuple[str, ...]) -> SweepReport:
    passed = sum(1 for r in results if r.ok)
    cx = tuple(Counterexample(r.case_id, r.documents, r.witness, r.info)
               for r in results if not r.ok)
    return SweepReport(statement, len(results), passed, cx, elapsed, notes, tuple(results))


def render_report(report: SweepReport, stream) -> None:
    """Line-oriented text: one CASE line per case, a summary line, then a
    REPLAY block per counterexample with the serialized inputs."""
    for note in report.notes:
        stream.write(f"NOTE {note}\n")
    for r in report.cases:
        verdict = "PASS" if r.ok else "FAIL"
        tail = f" {r.info}" if r.info else ""
        stream.write(f"CASE {r.case_id} {verdict}{tail}\n")
    stream.write(f"{report.statement}: {report.attempted} cases, "
                 f"{len(report.counterexamples)} counterexamples\n")
    for cx in report.counterexamples:
        witness = fmt_members(cx.witness) if cx.witness else "{}"
        stream.write(f"REPLAY {cx.case_id} witness={witness}\n")
        for doc in cx.documents:
            stream.write(doc)


# ---------------------------------------------------------------------------
# case execution

def _sigma_text(perms: np.ndarray) -> str:
    lines = map(format_int_row, perms)
    return "# sigma action table, one row per acting element\n" + "\n".join(lines) + "\n"


def _with_documents(item: tuple, result: CaseResult) -> CaseResult:
    """``result`` of ``item``; a failed one carries the item's braces and
    sigma tables as REPLAY documents, in item order, and a passing one
    carries none."""
    if result.ok:
        return result
    docs = tuple(serialize_document(arg) if isinstance(arg, FiniteSkewBrace)
                 else _sigma_text(arg.perms)
                 for arg in item[2:] if isinstance(arg, (FiniteSkewBrace, SigmaAction)))
    return dataclasses.replace(result, documents=docs)


def _dispatch(item: tuple) -> CaseResult:
    """Run one case as a batch of one of its kind's batch function.  A
    failed case, whether its batch returned a failure or raised, carries
    its REPLAY documents (``_with_documents``).  A case that raises is a
    failed case, not an aborted sweep: its info names the exception and
    its traceback goes to stderr."""
    kind, case_id = item[0], item[1]
    try:
        result = _BATCH_FUNCS[kind]([item[1:]])[0]
    except Exception as exc:
        print(f"# case {case_id} raised:\n{traceback.format_exc()}", end="", file=sys.stderr)
        result = CaseResult(case_id, False, f"raised {type(exc).__name__}: {exc}")
    return _with_documents(item, result)


def _run_chunk(items: list[tuple]) -> list[CaseResult]:
    """Run the cases in order.  Each maximal run of consecutive items of
    one kind goes to its batch function (``_BATCH_FUNCS``) as one batch
    of the items' fields after the kind, and it returns one
    ``CaseResult`` per item, in order.  A batch that raises is dropped
    and its run goes through ``_dispatch`` item by item, so a failing case
    gets the message, stderr traceback and REPLAY documents it gets alone."""
    results = []
    for kind, run in itertools.groupby(items, key=lambda item: item[0]):
        run = list(run)
        try:
            done = _BATCH_FUNCS[kind]([item[1:] for item in run])
            results += [_with_documents(item, r) for item, r in zip(run, done, strict=True)]
            continue
        except Exception:
            pass    # the run goes item by item below, out of the handler: no chained traceback
        results += map(_dispatch, run)
    return results


def _worker(chunk: list[tuple], fd: int) -> NoReturn:
    """The body of a forked worker: run ``chunk``, write its pickled
    results to ``fd`` and leave by ``os._exit``, so the worker never
    returns into its caller's frames, never flushes the stdout buffer it
    inherited and never runs the exit handlers of the process it was
    forked from.  Its stderr is flushed first, so case tracebacks reach
    it.  Exit code 0 means the results were written in full.  A worker
    that ends by any other exception (a case that raises ``SystemExit``,
    say) leaves by ``os._exit(1)`` in the ``finally``, which drops the
    exception unprinted: the parent reports the exit status alone."""
    code = 1
    try:
        with open(fd, "wb") as out:
            pickle.dump(_run_chunk(chunk), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def _worker_results(name: str, status: int, data: bytes) -> list[CaseResult]:
    """The results a reaped worker wrote, given its wait status and all
    it wrote to its pipe; a worker that failed raises ``BraceForgeError``."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise BraceForgeError(f"{name} was killed by signal {-code}")
    if code:
        raise BraceForgeError(f"{name} exited with code {code}")
    if not data:
        raise BraceForgeError(f"{name} returned no data")
    return pickle.loads(data)


def _run_items(items: list[tuple], jobs: int) -> list[CaseResult]:
    """Run the cases in order, in at most ``jobs`` processes (this one
    included) and never more than there are CPUs or cases; where
    ``os.fork`` is missing, in this process alone.

    The cases are cut into ``jobs`` contiguous chunks.  One forked worker
    runs each chunk but the first, which this process runs while they
    work; then each worker's results are read from its own pipe, in chunk
    order, so the output is the same for any ``jobs``.  Each chunk runs
    by ``_run_chunk``, so a run of batched cases that a chunk bound cuts
    is two batches, whose results are those of one.  The workers
    inherit the items by fork, so no item is pickled.  A worker that
    fails raises ``BraceForgeError``.  However this function exits, no
    worker outlives it: any still unreaped is killed and reaped.
    """
    jobs = min(jobs, len(items), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if jobs <= 1:
        return _run_chunk(items)
    bounds = np.linspace(0, len(items), jobs + 1).astype(int)
    chunks = [items[bounds[i]:bounds[i + 1]] for i in range(jobs)]
    pipes, pids = [], []  # the read ends, and the workers not yet reaped
    sys.stderr.flush()  # else each worker's flush would repeat what is buffered
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(chunk, w)  # never returns
            finally:
                os.close(w)  # a later worker must not hold it, or the pipe never ends
            pids.append(pid)
        results = _run_chunk(chunks[0])
        for n, r in enumerate(pipes, 1):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            pid = pids[0]
            status = os.waitpid(pid, 0)[1]
            del pids[0]
            results += _worker_results(f"sweep worker {n} of {len(pipes)} (pid {pid})",
                                       status, data)
        return results
    finally:
        for fd in pipes:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _sweep(statement: str, items: list[tuple], only: str | None, jobs: int,
           t0: float, notes: list[str] | tuple[str, ...]) -> SweepReport:
    """Run the cases (only the one whose id is ``only``, if given) and
    report them; ``elapsed`` is measured from ``t0``."""
    if only is not None:
        items = [it for it in items if it[1] == only]
        if not items:
            raise PreconditionError(f"no case matches id {only!r}")
    results = _run_items(items, jobs)
    return _assemble(statement, results, time.perf_counter() - t0, tuple(notes))


# ---------------------------------------------------------------------------
# lemma31: every ideal of the function-space base projects positionwise
# to an ideal of the bottom brace

def _lemma31_case(case_id: str, G: FiniteSkewBrace, positions: int, digits: np.ndarray,
                  masks: np.ndarray, g_masks: np.ndarray) -> CaseResult:
    """The case of G and an H with ``positions`` = |H|, given the base's
    ``digits`` (``WreathContext.digit_matrix``) and ideal ``masks`` and
    G's ideal masks ``g_masks``.  A projection is an ideal of G exactly
    when its mask is a row of ``g_masks``; ``is_ideal`` runs only on a
    miss, to name the rule.

    All projections come from one scatter: proj[i, h, d] is set when some
    member of ideal i has digit d at position h, so proj[i, h] is the mask
    of the projection of ideal i at h, and flatnonzero(proj[i, h]) is the
    sorted projection (what ``np.unique`` of the digits gives).  One
    broadcast compares them all with G's masks.  The misses are walked
    ideal by ideal, then position by position, so the first failure, its
    info and its witness are those of checking one projection at a time.
    """
    rows, cols = np.nonzero(masks)
    proj = np.zeros((len(masks), positions, G.order), dtype=bool)
    proj[rows[:, None], np.arange(positions), digits[cols]] = True
    hits = (proj[:, :, None, :] == g_masks).all(axis=-1).any(axis=-1)
    for i, h in np.argwhere(~hits):
        members = np.flatnonzero(proj[i, h])
        ok, rule = is_ideal(G, members)
        if not ok:
            return CaseResult(
                case_id, False,
                f"ideal={fmt_members(np.flatnonzero(masks[i]))} h={h} fails {rule}",
                witness=tuple(int(x) for x in members),
            )
    return CaseResult(case_id, True, f"ideals={len(masks)} positions={positions}")


def _batch_lemma31(args: list[tuple]) -> list[CaseResult]:
    """The lemma31 cases (case id, G, H) of a run.  G's ideal masks are
    made once per run of cases with one G, and a base's digits and ideal
    masks once per |H| within it, as the base depends on G and |H| only."""
    results = []
    for G, cases in itertools.groupby(args, key=lambda arg: arg[1]):
        g_masks, bases = ideal_masks(G), {}
        for case_id, _, H in cases:
            if H.order not in bases:
                W, ctx = wreath_base(G, H)
                bases[H.order] = ctx.digit_matrix(), ideal_masks(W)
            results.append(_lemma31_case(case_id, G, H.order, *bases[H.order], g_masks))
    return results


def verify_lemma31(max_g: int = DEFAULT_CORPUS_MAX, max_h: int = DEFAULT_CORPUS_MAX,
                   base_cap: int = 64, jobs: int = 1,
                   only: str | None = None) -> SweepReport:
    """For corpus pairs (G, H) with |G|^|H| <= base_cap: every ideal of
    the function-space base projects at every position to an ideal of G."""
    t0 = time.perf_counter()
    notes = []
    if base_cap > DEFAULT_IDEAL_CAP:
        notes.append(f"base order cap clamped from {base_cap} to {DEFAULT_IDEAL_CAP} "
                     "(ideal enumeration limit)")
        base_cap = DEFAULT_IDEAL_CAP
    corpus = standard_corpus(DEFAULT_CORPUS_MAX)
    gs = [b for b in corpus if b.order <= max_g]
    hs = [b for b in corpus if b.order <= max_h]
    items = []
    for G in gs:
        for H in hs:
            if G.order ** H.order <= base_cap:
                items.append(("lemma31", f"lemma31:{G.name}:{H.name}", G, H))
    return _sweep("lemma31", items, only, jobs, t0, notes)


# ---------------------------------------------------------------------------
# lemma32: base of a semiprime brace is semiprime; lifted witnesses
# certify the converse direction on non-semiprime bottoms

def _product_cases(args: list[tuple], stacks, failure: str) -> list[CaseResult]:
    """The cases of a run that claim each of its products is semiprime:
    ``stacks`` yields (index, the ``ideals._Tables`` stack of the products
    of the items at index), classified in place by ``_batch_witnesses``.  A
    case fails with its product's fast witness and ``failure`` (``tag``: the item's last field)."""
    results = [None] * len(args)
    for index, stack in stacks:
        n, fast = stack.n, _batch_witnesses(stack, "fast")
        del stack                   # a stack, dense with its maps, goes before the next is built
        for i, mask in zip(index, fast):
            case_id, *_, tag = args[i]
            info = f"order={n} " + ("semiprime" if mask is None else failure.format(tag=tag))
            witness = () if mask is None else tuple(np.flatnonzero(mask).tolist())
            results[i] = CaseResult(case_id, mask is None, info, witness=witness)
    return results


def _batch_lemma32_base(args: list[tuple]) -> list[CaseResult]:
    """The cases (case id, G, H) of a run that claim the base of G and H
    is semiprime: lemma32's base case and thm33's stand-in."""
    stacks = (([i], _Tables([wreath_base(G, H)[0]])) for i, (_, G, H) in enumerate(args))
    return _product_cases(args, stacks, "unexpectedly not semiprime")


def _batch_lemma32_lift(args: list[tuple]) -> list[CaseResult]:
    """The lift cases (case id, G, H, verdict) of a run, each the claim
    that the pointwise lift of G's witness to the base of G and H is a
    nonzero ideal of the base whose stars vanish; a semiprime G or a zero
    lift fails first.  No base is built: the lifts of one |G| and |H| are
    checked by one ``_failed_rules`` call on the ``_stacked_power`` of
    their bottoms.  A lift's mask is the |H|-fold outer product of the
    witness's, whose nonzero labels are ``pointwise_lift``'s."""
    results: list[CaseResult | None] = [None] * len(args)
    by_order: dict[tuple[int, int], list[int]] = {}
    for i, (case_id, G, H, verdict) in enumerate(args):
        if verdict.semiprime:
            results[i] = CaseResult(case_id, False, "expected a non-semiprime bottom brace")
        else:
            by_order.setdefault((G.order, H.order), []).append(i)
    for (n, positions), run in by_order.items():
        witnesses = [args[i][3].witness.sorted() for i in run]
        masks = np.zeros((len(run), n), dtype=bool)
        masks[np.repeat(np.arange(len(run)), list(map(len, witnesses))),
              _member_labels(n, [x for w in witnesses for x in w])] = True
        lifted = masks
        for _ in range(positions - 1):
            lifted = (lifted[:, :, None] & masks[:, None, :]).reshape(len(run), -1)
        tables = _stacked_power([args[i][1] for i in run], positions)
        rules = _failed_rules(tables, np.arange(len(run)), lifted)
        for i, mask, size, rule in zip(run, lifted, masks.sum(axis=1) ** positions, rules):
            case_id, _, _, verdict = args[i]
            if size > 1 and rule is None:
                results[i] = CaseResult(
                    case_id, True,
                    f"witness={fmt_members(verdict.witness.members)} lift_size={size} "
                    f"certifies W order={tables.n} not semiprime")
                continue
            info = ("lift is zero" if size <= 1 else "lifted stars do not vanish"
                    if rule == "stars" else f"lift fails {rule}")
            witness = tuple(np.flatnonzero(mask).tolist())
            results[i] = CaseResult(case_id, False, info, witness=witness)
    return results


def verify_lemma32(G: FiniteSkewBrace | None = None, H: FiniteSkewBrace | None = None,
                   base_max: int | None = None, corpus_max: int = DEFAULT_CORPUS_MAX,
                   jobs: int = 1, only: str | None = None) -> SweepReport:
    """Main case: the function-space base over a semiprime G is itself
    semiprime.  Converse cases: for every non-semiprime corpus brace, the
    pointwise lift of its witness is a vanishing-star ideal of the base."""
    t0 = time.perf_counter()
    if G is None:
        G = group_brace("a5", "almost_trivial", name="A5at")
    if H is None:
        H = group_brace("c2", "trivial", name="T2")
    if base_max is None:
        base_max = max_order()
    corpus = standard_corpus(corpus_max)
    verdicts = semiprime_verdicts([G, *corpus], "fast")
    if not verdicts[0].semiprime:
        raise PreconditionError(f"{G.name or 'G'} is not semiprime")
    notes = []
    items = []
    if G.order ** H.order <= base_max:
        items.append(("lemma32-base", f"lemma32:base:{G.name}:m{H.order}", G, H))
    else:
        notes.append(f"base case skipped: {G.order}^{H.order} exceeds {base_max}")
    for B, verdict in zip(corpus, verdicts[1:]):
        if B.order ** H.order <= base_max and not verdict.semiprime:
            items.append(("lemma32-lift", f"lemma32:lift:{B.name}:m{H.order}", B, H, verdict))
    return _sweep("lemma32", items, only, jobs, t0, notes)


def _action_items(kind: str, pairs: list[tuple[FiniteSkewBrace, FiniteSkewBrace]],
                  budget: int, only: str | None) -> list[tuple]:
    """One ``kind`` item per action of ``sigma_actions(G, H, budget)``, for
    each pair whose product is within ``max_order()``, pair by pair: the
    case id, G, H, the ``SigmaAction`` (an action by construction) and its
    index.  Given the case id ``only``, a pair runs ``sigma_actions`` only
    when its ids could be ``only``, the ones that start ``<kind>:<G>:<H>:s``."""
    cap = max_order()
    return [(kind, f"{kind}:{G.name}:{H.name}:s{i}", G, H, act, i)
            for G, H in pairs if G.order * H.order <= cap
            and (only is None or only.startswith(f"{kind}:{G.name}:{H.name}:s"))
            for i, act in enumerate(sigma_actions(G, H, budget=budget))]


# ---------------------------------------------------------------------------
# cor28 / thm33: semiprimality of semidirect and wreath products of
# semiprime pairs, on top of a corpus-wide classification

def _batch_classification(args: list[tuple]) -> list[CaseResult]:
    """The classify cases (case id, B, fast, exhaustive verdict) of a run.
    A case fails when the two verdicts disagree, or when a witness is not
    an ideal whose stars vanish; the fast witness is named before the
    exhaustive one.  Every witness of the run is checked by one
    ``_vanishing_ideals`` call."""
    pairs = [(B, v.witness.sorted()) for _, B, fast, exhaustive in args
             if not (fast.semiprime or exhaustive.semiprime) for v in (fast, exhaustive)]
    good = (check is None for check in _vanishing_ideals(pairs))
    results = []
    for case_id, B, fast, exhaustive in args:
        if fast.semiprime != exhaustive.semiprime:
            results.append(CaseResult(case_id, False, "fast and exhaustive verdicts disagree"))
        elif exhaustive.semiprime:
            results.append(CaseResult(case_id, True, "semiprime=yes"))
        else:
            bad = [v for v, ok in zip((fast, exhaustive), (next(good), next(good))) if not ok]
            if bad:
                results.append(CaseResult(case_id, False, f"invalid witness via {bad[0].method}",
                                          witness=bad[0].witness.sorted()))
            else:
                results.append(CaseResult(
                    case_id, True, f"semiprime=no witness={fmt_members(exhaustive.witness.members)}"))
    return results


def _batch_cor28(args: list[tuple]) -> list[CaseResult]:
    return _product_cases(args, products._action_stacks([arg[1:4] for arg in args]),
                          "not semiprime under sigma {tag}")


def _batch_thm33(args: list[tuple]) -> list[CaseResult]:
    stacks = (([i], _Tables([wreath(G, H)[0]])) for i, (_, G, H) in enumerate(args))
    return _product_cases(args, stacks, "not semiprime")


def verify_cor28_thm33(corpus_max: int = DEFAULT_CORPUS_MAX,
                       sigma_budget: int = DEFAULT_SIGMA_BUDGET,
                       statements: tuple[str, ...] = ("cor28", "thm33"),
                       jobs: int = 1, only: str | None = None) -> dict[str, SweepReport]:
    """Classify the corpus by semiprimality, then check products of every
    semiprime pair: all semidirect products within the sigma budget
    (cor28) and the wreath product (thm33).  When no semiprime brace of
    order > 1 exists at these orders, the note says so and the order-60
    stand-in exercises the wreath-base path.  Each report's ``elapsed`` is
    the shared set-up plus the run of its own cases."""
    t0 = time.perf_counter()
    corpus = standard_corpus(corpus_max)
    fast, exhaustive = semiprime_verdicts(corpus, ("fast", "exhaustive"))
    classify_items = [("classify", f"classify:{B.name}", B, f, e)
                      for B, f, e in zip(corpus, fast, exhaustive)]
    semiprime_braces = [B for B, f in zip(corpus, fast) if f.semiprime]

    notes = []
    cap = max_order()
    only_order_one = all(B.order == 1 for B in semiprime_braces)
    if only_order_one:
        notes.append("only order-1 semiprime braces exist at order <= "
                     f"{corpus_max}; the order-60 stand-in exercises the wreath path")

    pairs = [(G, H) for G in semiprime_braces for H in semiprime_braces]
    cor_items = _action_items("cor28", pairs, sigma_budget, only) if "cor28" in statements else []
    thm_items = [("thm33", f"thm33:{G.name}:{H.name}", G, H) for G, H in pairs
                 if "thm33" in statements and G.order ** H.order * H.order <= cap]
    if "thm33" in statements and only_order_one:
        A5at = group_brace("a5", "almost_trivial", name="A5at")
        for H in corpus:
            if H.order <= 2 and A5at.order ** H.order <= cap:
                thm_items.append(("lemma32-base",
                                  f"thm33:standin:{A5at.name}:m{H.order}", A5at, H))

    setup = time.perf_counter() - t0
    reports = {}
    for statement in statements:
        start = time.perf_counter()
        if statement == "cor28":
            items = classify_items + cor_items
        elif statement == "thm33":
            items = classify_items + thm_items
        else:
            raise PreconditionError(f"unknown statement {statement!r}")
        reports[statement] = _sweep(statement, items, only, jobs, start - setup, notes)
    return reports


# ---------------------------------------------------------------------------
# q34: search for a semiprime semidirect product over a non-semiprime G

def _batch_q34(args: list[tuple]) -> list[CaseResult]:
    """The q34 cases of a run, their ``products._action_stacks`` classified
    as in ``_product_cases``: a product with a fast witness passes; one
    without fails, confirmed by an exhaustive ``_batch_witnesses`` pass over
    its stack, made only then (every q34 product is within the ideal cap)."""
    results = [None] * len(args)
    for index, stack in products._action_stacks([arg[1:4] for arg in args]):
        n, fast = stack.n, _batch_witnesses(stack, "fast")
        confirm = _batch_witnesses(stack, "exhaustive") if any(m is None for m in fast) else fast
        del stack                   # as in _product_cases
        for i, mask, exhaustive in zip(index, fast, confirm):
            info = (f"order={n} not semiprime witness={fmt_members(np.flatnonzero(mask))}"
                    if mask is not None else "fast and exhaustive verdicts disagree"  # a bug
                    if exhaustive is not None
                    else f"order={n} SEMIPRIME (exhaustively confirmed) - counterexample")
            results[i] = CaseResult(args[i][0], mask is not None, info)
    return results


def search_q34(max_g: int = 6, max_h: int = 4,
               sigma_budget: int = DEFAULT_SIGMA_BUDGET,
               jobs: int = 1, only: str | None = None) -> SweepReport:
    """Try every corpus pair with G non-semiprime and every action within
    the budget; a semiprime semidirect product is a counterexample and is
    re-verified exhaustively before being reported.  G and H come from
    the corpus of order <= ``DEFAULT_CORPUS_MAX`` (8), so a ``max_g`` or
    ``max_h`` above 8 searches the same pairs as 8."""
    t0 = time.perf_counter()
    corpus = standard_corpus(DEFAULT_CORPUS_MAX)
    small = [B for B in corpus if B.order <= max_g]
    gs = [B for B, v in zip(small, semiprime_verdicts(small, "fast")) if not v.semiprime]
    hs = [B for B in corpus if B.order <= max_h]
    items = _action_items("q34", [(G, H) for G in gs for H in hs], sigma_budget, only)
    return _sweep("q34", items, only, jobs, t0, ())


# kind -> batch function, called with a list of the items' fields after the kind
_BATCH_FUNCS = {
    "lemma31": _batch_lemma31,
    "lemma32-base": _batch_lemma32_base,
    "lemma32-lift": _batch_lemma32_lift,
    "classify": _batch_classification,
    "cor28": _batch_cor28,
    "thm33": _batch_thm33,
    "q34": _batch_q34,
}
