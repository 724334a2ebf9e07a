"""Sweeps that machine-check the statements behind the CLI ids
lemma31, lemma32, cor28, thm33, and q34 over the standard corpus.

Every sweep builds a deterministic list of cases, runs them, and returns
a SweepReport whose counterexamples carry the serialized inputs needed to
replay them.  With ``jobs`` > 1 the cases are cut into contiguous chunks:
this process runs the first and one ``os.fork`` worker runs each other
chunk, and the results are joined in chunk order, so the output is
byte-identical for any process count.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .autos import sigma_actions
from .core import (
    BraceForgeError,
    FiniteSkewBrace,
    PreconditionError,
    fmt_members,
    max_order,
    star_block,
)
from .corpus import group_brace, standard_corpus
from .docio import format_int_row, serialize_document
from .ideals import (
    DEFAULT_IDEAL_CAP,
    SemiprimeVerdict,
    ideal_masks,
    is_ideal,
    is_semiprime,
    semiprime_verdicts,
)
from .products import SigmaAction, pointwise_lift, semidirect, wreath, wreath_base

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


def _dispatch(item: tuple) -> CaseResult:
    """Run one case.  A failed case, whether its function returned a
    failure or raised, carries the item's braces and sigma tables as
    REPLAY documents, in item order; a passing case carries none.  A case
    that raises is a failed case, not an aborted sweep: its info names the
    exception and its traceback goes to stderr."""
    kind, case_id = item[0], item[1]
    try:
        result = _CASE_FUNCS[kind](*item[1:])
    except Exception as exc:
        print(f"# case {case_id} raised:\n{traceback.format_exc()}", end="", file=sys.stderr)
        result = CaseResult(case_id, False, f"raised {type(exc).__name__}: {exc}")
    if result.ok:
        return result
    docs = tuple(serialize_document(arg) if isinstance(arg, FiniteSkewBrace) else _sigma_text(arg)
                 for arg in item[2:] if isinstance(arg, (FiniteSkewBrace, np.ndarray)))
    return dataclasses.replace(result, documents=docs)


def _run_chunk(items: list[tuple]) -> list[CaseResult]:
    return [_dispatch(it) for it in items]


def _worker(chunk: list[tuple], fd: int) -> NoReturn:
    """The body of a forked worker: run ``chunk``, write its pickled
    results to ``fd`` and leave by ``os._exit``, so the worker never
    returns into its caller's frames, never flushes the stdout buffer it
    inherited and never runs the exit handlers of the process it was
    forked from.  Its stderr is flushed first, so case tracebacks reach
    it.  Exit code 0 means the results were written in full."""
    code = 1
    try:
        with open(fd, "wb") as out:
            pickle.dump(_run_chunk(chunk), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException:
        traceback.print_exc()
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
    order, so the output is the same for any ``jobs``.  The workers
    inherit the items and the memos by fork, so no item is pickled.  A
    worker that fails raises ``BraceForgeError``.  However this function
    exits, no worker outlives it: any still unreaped is killed and reaped.
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


# Semiprimality verdicts by (method, brace), computed once per process
# (braces hash and compare by their tables).  A sweep's set-up fills it
# with one ``semiprime_verdicts`` call before any worker is forked, so
# every worker inherits it; what a worker adds stays in that worker.
_VERDICTS: dict[tuple[str, FiniteSkewBrace], SemiprimeVerdict] = {}


def _classify(braces, *methods: str) -> None:
    """Put the verdicts by ``methods`` of each brace that lacks one into
    ``_VERDICTS``, all from one ``semiprime_verdicts`` call."""
    todo = [B for B in dict.fromkeys(braces) if any((m, B) not in _VERDICTS for m in methods)]
    for method, verdicts in zip(methods, semiprime_verdicts(todo, methods)):
        _VERDICTS.update(zip([(method, B) for B in todo], verdicts))


def _verdict(B: FiniteSkewBrace, method: str = "fast") -> SemiprimeVerdict:
    """The verdict of ``_VERDICTS``; a brace the set-up did not classify
    is classified alone."""
    if (method, B) not in _VERDICTS:
        _classify([B], method)
    return _VERDICTS[method, B]


# ---------------------------------------------------------------------------
# lemma31: every ideal of the function-space base projects positionwise
# to an ideal of the bottom brace

# base tables and their ideal masks depend only on (G, positions), and the
# ideal masks of G only on G; cache per process so repeated pairs are free.
# Braces hash and compare by their tables.
_BASE_MEMO: dict[tuple[FiniteSkewBrace, int], tuple[np.ndarray, np.ndarray]] = {}


def _base_ideals(G: FiniteSkewBrace, H: FiniteSkewBrace):
    key = (G, H.order)
    hit = _BASE_MEMO.get(key)
    if hit is None:
        W, ctx = wreath_base(G, H)
        hit = _BASE_MEMO[key] = (ctx.digit_matrix(), ideal_masks(W))
    return hit


_g_ideals = functools.lru_cache(maxsize=None)(ideal_masks)


def _case_lemma31(case_id: str, G: FiniteSkewBrace, H: FiniteSkewBrace) -> CaseResult:
    """A projection is an ideal of G exactly when its mask is a row of
    G's ideal masks; ``is_ideal`` runs only on a miss, to name the rule.

    All projections come from one scatter: proj[i, h, d] is set when some
    member of ideal i has digit d at position h, so proj[i, h] is the mask
    of the projection of ideal i at h, and flatnonzero(proj[i, h]) is the
    sorted projection (what ``np.unique`` of the digits gives).  One
    broadcast compares them all with G's masks.  The misses are walked
    ideal by ideal, then position by position, so the first failure, its
    info and its witness are those of checking one projection at a time.
    """
    digits, masks = _base_ideals(G, H)
    rows, cols = np.nonzero(masks)
    proj = np.zeros((len(masks), H.order, G.order), dtype=bool)
    proj[rows[:, None], np.arange(H.order), digits[cols]] = True
    hits = (proj[:, :, None, :] == _g_ideals(G)).all(axis=-1).any(axis=-1)
    for i, h in np.argwhere(~hits):
        members = np.flatnonzero(proj[i, h])
        ok, rule = is_ideal(G, members)
        if not ok:
            return CaseResult(
                case_id, False,
                f"ideal={fmt_members(np.flatnonzero(masks[i]))} h={h} fails {rule}",
                witness=tuple(int(x) for x in members),
            )
    return CaseResult(case_id, True, f"ideals={len(masks)} positions={H.order}")


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

def _case_lemma32_base(case_id: str, G: FiniteSkewBrace, H: FiniteSkewBrace) -> CaseResult:
    W, _ = wreath_base(G, H)
    verdict = is_semiprime(W, method="fast")
    if verdict.semiprime:
        return CaseResult(case_id, True, f"order={W.order} semiprime")
    return CaseResult(case_id, False, f"order={W.order} unexpectedly not semiprime",
                      witness=verdict.witness.sorted())


def _case_lemma32_lift(case_id: str, G: FiniteSkewBrace, H: FiniteSkewBrace) -> CaseResult:
    verdict = _verdict(G)
    if verdict.semiprime:
        return CaseResult(case_id, False, "expected a non-semiprime bottom brace")
    W, ctx = wreath_base(G, H)
    lifted = pointwise_lift(ctx, verdict.witness.sorted())
    wit = tuple(int(x) for x in lifted)
    if lifted.size <= 1:
        return CaseResult(case_id, False, "lift is zero", witness=wit)
    ok, rule = is_ideal(W, lifted)
    if not ok:
        return CaseResult(case_id, False, f"lift fails {rule}", witness=wit)
    if star_block(W, lifted, lifted).any():
        return CaseResult(case_id, False, "lifted stars do not vanish", witness=wit)
    return CaseResult(
        case_id, True,
        f"witness={fmt_members(verdict.witness.members)} lift_size={lifted.size} "
        f"certifies W order={W.order} not semiprime")


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
    _classify([G, *corpus], "fast")
    if not _verdict(G).semiprime:
        raise PreconditionError(f"{G.name or 'G'} is not semiprime")
    notes = []
    items = []
    if G.order ** H.order <= base_max:
        items.append(("lemma32-base", f"lemma32:base:{G.name}:m{H.order}", G, H))
    else:
        notes.append(f"base case skipped: {G.order}^{H.order} exceeds {base_max}")
    for B in corpus:
        if B.order ** H.order > base_max:
            continue
        if not _verdict(B).semiprime:
            items.append(("lemma32-lift", f"lemma32:lift:{B.name}:m{H.order}", B, H))
    return _sweep("lemma32", items, only, jobs, t0, notes)


# ---------------------------------------------------------------------------
# cor28 / thm33: semiprimality of semidirect and wreath products of
# semiprime pairs, on top of a corpus-wide classification

def _case_classify(case_id: str, B: FiniteSkewBrace) -> CaseResult:
    fast = _verdict(B, "fast")
    exhaustive = _verdict(B, "exhaustive")
    if fast.semiprime != exhaustive.semiprime:
        return CaseResult(case_id, False, "fast and exhaustive verdicts disagree")
    if exhaustive.semiprime:
        return CaseResult(case_id, True, "semiprime=yes")
    # both witnesses must actually be vanishing-star ideals
    for v in (fast, exhaustive):
        members = np.fromiter(v.witness.sorted(), dtype=np.int64)
        ok, rule = is_ideal(B, members)
        if not ok or star_block(B, members, members).any():
            return CaseResult(case_id, False, f"invalid witness via {v.method}",
                              witness=v.witness.sorted())
    return CaseResult(case_id, True,
                      f"semiprime=no witness={fmt_members(exhaustive.witness.members)}")


def _case_cor28(case_id: str, G: FiniteSkewBrace, H: FiniteSkewBrace,
                perms: np.ndarray, tag: int) -> CaseResult:
    sd = semidirect(G, H, SigmaAction(G, H, perms))
    verdict = is_semiprime(sd, method="fast")
    if verdict.semiprime:
        return CaseResult(case_id, True, f"order={sd.order} semiprime")
    return CaseResult(case_id, False, f"order={sd.order} not semiprime under sigma {tag}",
                      witness=verdict.witness.sorted())


def _case_thm33(case_id: str, G: FiniteSkewBrace, H: FiniteSkewBrace) -> CaseResult:
    W, _ = wreath(G, H)
    verdict = is_semiprime(W, method="fast")
    if verdict.semiprime:
        return CaseResult(case_id, True, f"order={W.order} semiprime")
    return CaseResult(case_id, False, f"order={W.order} not semiprime",
                      witness=verdict.witness.sorted())


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
    # a classify case of an order over the cap raises the cap error itself
    _classify([B for B in corpus if B.order <= DEFAULT_IDEAL_CAP], "fast", "exhaustive")
    _classify(corpus, "fast")
    classify_items = [("classify", f"classify:{B.name}", B) for B in corpus]
    semiprime_braces = [B for B in corpus if _verdict(B).semiprime]

    notes = []
    cap = max_order()
    only_order_one = all(B.order == 1 for B in semiprime_braces)
    if only_order_one:
        notes.append("only order-1 semiprime braces exist at order <= "
                     f"{corpus_max}; the order-60 stand-in exercises the wreath path")

    cor_items = []
    thm_items = []
    for G in semiprime_braces:
        for H in semiprime_braces:
            if "cor28" in statements and G.order * H.order <= cap:
                for i, act in enumerate(sigma_actions(G, H, budget=sigma_budget)):
                    cor_items.append(("cor28", f"cor28:{G.name}:{H.name}:s{i}",
                                      G, H, np.asarray(act.perms), i))
            if "thm33" in statements and G.order ** H.order * H.order <= cap:
                thm_items.append(("thm33", f"thm33:{G.name}:{H.name}", G, H))
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

def _case_q34(case_id: str, G: FiniteSkewBrace, H: FiniteSkewBrace,
              perms: np.ndarray, tag: int) -> CaseResult:
    sd = semidirect(G, H, SigmaAction(G, H, perms))
    fast = is_semiprime(sd, method="fast")
    if not fast.semiprime:
        return CaseResult(case_id, True,
                          f"order={sd.order} not semiprime "
                          f"witness={fmt_members(fast.witness.members)}")
    if not is_semiprime(sd, method="exhaustive").semiprime:
        # methods must agree; this would be an implementation bug
        return CaseResult(case_id, False, "fast and exhaustive verdicts disagree")
    return CaseResult(case_id, False,
                      f"order={sd.order} SEMIPRIME (exhaustively confirmed) - counterexample")


def search_q34(max_g: int = 6, max_h: int = 4,
               sigma_budget: int = DEFAULT_SIGMA_BUDGET,
               jobs: int = 1, only: str | None = None) -> SweepReport:
    """Try every corpus pair with G non-semiprime and every action within
    the budget; a semiprime semidirect product is a counterexample and is
    re-verified exhaustively before being reported."""
    t0 = time.perf_counter()
    corpus = standard_corpus(DEFAULT_CORPUS_MAX)
    _classify([B for B in corpus if B.order <= max_g], "fast")
    gs = [B for B in corpus if B.order <= max_g and not _verdict(B).semiprime]
    hs = [B for B in corpus if B.order <= max_h]
    cap = max_order()
    items = []
    for G in gs:
        for H in hs:
            if G.order * H.order > cap:
                continue
            for i, act in enumerate(sigma_actions(G, H, budget=sigma_budget)):
                items.append(("q34", f"q34:{G.name}:{H.name}:s{i}",
                              G, H, np.asarray(act.perms), i))
    return _sweep("q34", items, only, jobs, t0, ())


_CASE_FUNCS = {
    "lemma31": _case_lemma31,
    "lemma32-base": _case_lemma32_base,
    "lemma32-lift": _case_lemma32_lift,
    "classify": _case_classify,
    "cor28": _case_cor28,
    "thm33": _case_thm33,
    "q34": _case_q34,
}
