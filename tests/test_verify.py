import io
import os
import subprocess
import sys
import time
import types
from collections import Counter

import numpy as np
import pytest

from brace_forge import (
    FiniteSkewBrace,
    PreconditionError,
    SweepReport,
    group_brace,
    is_ideal,
    is_semiprime,
    parse_documents,
    render_report,
    search_q34,
    standard_corpus,
    verify_cor28_thm33,
    verify_lemma31,
    verify_lemma32,
)
from brace_forge import autos, ideals, verify
from brace_forge.cli import main as cli_main
from brace_forge.docio import parse_int_grid
from brace_forge.verify import (
    CaseResult,
    Counterexample,
    STATEMENTS,
    _assemble,
    _case_lemma32_lift,
)

import oracles


def _render(report):
    buf = io.StringIO()
    render_report(report, buf)
    return buf.getvalue()


def _fork_spy(monkeypatch):
    """Count the calls of ``os.fork``; each still forks."""
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_statements_constant():
    assert STATEMENTS == ("lemma31", "lemma32", "cor28", "thm33", "q34")


class TestLemma31:
    def test_tiny_cap(self):
        report = verify_lemma31(base_cap=4)
        assert report.statement == "lemma31"
        assert report.attempted == 316
        assert report.passed == 316
        assert report.counterexamples == ()

    def test_mid_cap_and_jobs_determinism(self, monkeypatch):
        one = verify_lemma31(base_cap=16, jobs=1)
        par = verify_lemma31(base_cap=16, jobs=3)
        assert one.attempted == 628
        assert one.counterexamples == ()
        assert _render(one) == _render(par)
        forks = _fork_spy(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _render(verify_lemma31(base_cap=16, jobs=4)) == _render(one)
        assert len(forks) == 3  # three workers, their pipes read in chunk order
        _assert_no_child_left()

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        forks = _fork_spy(monkeypatch)
        one = verify_lemma31(base_cap=4, jobs=1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        many = verify_lemma31(base_cap=4, jobs=500)
        assert len(forks) == 1  # two processes: this one and one worker
        assert _render(many) == _render(one)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _render(verify_lemma31(base_cap=4, jobs=500)) == _render(one)
        assert len(forks) == 1  # an unknown CPU count runs in-process
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert _render(verify_lemma31(base_cap=4, jobs=2)) == _render(one)  # so does no fork
        _assert_no_child_left()

    def test_raising_case_is_a_failed_case(self, monkeypatch, capfd, corpus8):
        # the last case is in the worker's chunk when two processes run
        case = "lemma31:c2xc2#3:c1#0"
        real = verify._CASE_FUNCS["lemma31"]
        parent = os.getpid()

        def flaky(case_id, G, H):
            if case_id == case:
                if os.getpid() != parent:
                    print("# raising in a worker", file=sys.stderr)
                raise RuntimeError("boom")
            return real(case_id, G, H)

        monkeypatch.setitem(verify._CASE_FUNCS, "lemma31", flaky)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        forks = _fork_spy(monkeypatch)
        outs = []
        for jobs in ("1", "2"):
            assert cli_main(["verify", "lemma31", "--max-order", "4", "--jobs", jobs]) == 1
            sys.stdout.flush()
            captured = capfd.readouterr()
            assert ("# raising in a worker" in captured.err) == (jobs == "2")
            assert f"# case {case} raised:\nTraceback" in captured.err
            assert "RuntimeError: boom" in captured.err
            outs.append(captured.out)
        assert len(forks) == 1
        assert outs[0] == outs[1]
        assert f"CASE {case} FAIL raised RuntimeError: boom\n" in outs[0]
        assert "lemma31: 316 cases, 1 counterexamples\n" in outs[0]
        # the REPLAY block carries both input braces, ready to re-parse
        replay = outs[0].split(f"REPLAY {case} witness={{}}\n", 1)[1]
        by_name = {B.name: B for B in corpus8}
        assert [d.to_brace() for d in parse_documents(replay)] == [by_name["c2xc2#3"],
                                                                    by_name["c1#0"]]
        _assert_no_child_left()

    def test_dead_worker_is_an_error(self, monkeypatch, capfd):
        real = verify._CASE_FUNCS["lemma31"]
        parent = os.getpid()

        def crash(case_id, G, H):
            if os.getpid() != parent:
                os._exit(7)
            return real(case_id, G, H)

        monkeypatch.setitem(verify._CASE_FUNCS, "lemma31", crash)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli_main(["verify", "lemma31", "--max-order", "4", "--jobs", "2"]) == 2
        sys.stdout.flush()
        captured = capfd.readouterr()
        assert captured.err.startswith("error: sweep worker 1 of 1 (pid ")
        assert captured.err.endswith(") exited with code 7\n")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        _assert_no_child_left()

    def test_interrupt_in_this_process_kills_the_workers(self, monkeypatch):
        real = verify._CASE_FUNCS["lemma31"]
        parent = os.getpid()

        def interrupted(case_id, G, H):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a worker still running when the sweep ends
            return real(case_id, G, H)

        monkeypatch.setitem(verify._CASE_FUNCS, "lemma31", interrupted)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            verify_lemma31(base_cap=4, jobs=2)
        assert time.perf_counter() - t0 < 30  # killed, not waited for
        _assert_no_child_left()

    @staticmethod
    def _inject(monkeypatch, G, H, *member_sets):
        """Append member masks to the memoized ideal masks of the base."""
        hit = verify._base_ideals(G, H)
        key = next(k for k, v in verify._BASE_MEMO.items() if v is hit)
        digits, masks = hit
        bad = np.zeros((len(member_sets), masks.shape[1]), dtype=bool)
        for row, members in zip(bad, member_sets):
            row[list(members)] = True
        monkeypatch.setitem(verify._BASE_MEMO, key, (digits, np.vstack([masks, bad])))

    def test_miss_names_the_is_ideal_rule(self, monkeypatch, R4, T2):
        # a base "ideal" whose first projection {0,1} is no ideal of R4
        digits = verify._base_ideals(R4, T2)[0]
        w = int(np.flatnonzero((digits == [1, 0]).all(axis=1))[0])
        self._inject(monkeypatch, R4, T2, [0, w])
        result = verify._case_lemma31("lemma31:R4:T2", R4, T2)
        ok, rule = is_ideal(R4, [0, 1])
        assert not ok
        assert not result.ok
        assert result.info == f"ideal={{0,{w}}} h=0 fails {rule}"
        assert result.witness == (0, 1)

    def test_first_miss_is_ideal_major_then_position(self, monkeypatch, R4, T2):
        # two ideals after the real ones: {0,u} fails only at h=1, the next
        # {0,w} at h=0, so a position-major walk would report {0,w}
        digits = verify._base_ideals(R4, T2)[0]
        u = int(np.flatnonzero((digits == [0, 1]).all(axis=1))[0])
        w = int(np.flatnonzero((digits == [1, 0]).all(axis=1))[0])
        self._inject(monkeypatch, R4, T2, [0, u], [0, w])
        result = verify._case_lemma31("lemma31:R4:T2", R4, T2)
        _, rule = is_ideal(R4, [0, 1])
        assert not result.ok
        assert result.info == f"ideal={{0,{u}}} h=1 fails {rule}"
        assert result.witness == (0, 1)

    def test_cases_match_the_projection_loop(self, corpus8):
        named = {b.name: b for b in corpus8}
        report = verify_lemma31(base_cap=16)
        assert report.attempted > 300
        for case in report.cases:
            _, g_name, h_name = case.case_id.split(":")
            want = oracles.lemma31_case_loop(named[g_name], named[h_name])
            assert (case.ok, case.info, case.witness) == want, case.case_id

    def test_max_g_filter(self):
        report = verify_lemma31(max_g=2)
        # order-1 G pairs with all 307 H's; T2 needs 2^|H| <= 64
        assert report.attempted == 327
        assert not report.counterexamples

    def test_base_cap_two(self):
        report = verify_lemma31(base_cap=2)
        assert report.attempted == 308
        assert not report.counterexamples

    def test_case_info_shape(self):
        report = verify_lemma31(only="lemma31:R4:T2")
        assert report.attempted == 1
        case = report.cases[0]
        assert case.case_id == "lemma31:R4:T2"
        assert case.ok
        assert case.info == "ideals=13 positions=2"

    def test_only_rejects_unknown(self):
        with pytest.raises(PreconditionError):
            verify_lemma31(only="lemma31:nope:nope")

    def test_cap_clamp_note(self):
        report = verify_lemma31(max_g=1, max_h=1, base_cap=4096)
        assert any("clamped" in n for n in report.notes)


class TestLemma32:
    def test_order_one_bottom(self):
        one = group_brace("c1", "trivial")
        report = verify_lemma32(G=one, corpus_max=4)
        assert report.statement == "lemma32"
        # 1 base case + one lift per non-semiprime brace of order <= 4
        assert report.attempted == 9
        assert not report.counterexamples
        ids = [c.case_id for c in report.cases]
        assert ids[0].startswith("lemma32:base:")
        assert all(i.startswith("lemma32:lift:") for i in ids[1:])

    def test_lift_three_positions(self):
        one = group_brace("c1", "trivial")
        c3 = group_brace("c3", "trivial")
        report = verify_lemma32(G=one, H=c3, corpus_max=4)
        assert not report.counterexamples
        lift = next(c for c in report.cases if "lift:R4" in c.case_id)
        assert lift.case_id == "lemma32:lift:R4:m3"
        assert "lift_size=8" in lift.info  # |{0,2}|^3

    def test_rejects_non_semiprime_bottom(self, T2):
        with pytest.raises(PreconditionError):
            verify_lemma32(G=T2)

    def test_base_skip_note(self, A5at):
        report = verify_lemma32(G=A5at, base_max=100, corpus_max=2)
        assert any("base case skipped" in n for n in report.notes)
        assert report.attempted == 1  # just the T2 lift
        assert report.cases[0].case_id == "lemma32:lift:T2:m2"
        assert not report.counterexamples


class TestCor28Thm33:
    def test_tiny_corpus(self):
        reports = verify_cor28_thm33(corpus_max=2, statements=("cor28",))
        assert set(reports) == {"cor28"}
        cor = reports["cor28"]
        assert cor.attempted == 3  # classify T2, classify c1, one product
        assert not cor.counterexamples
        assert any("only order-1 semiprime braces" in n for n in cor.notes)
        infos = {c.case_id: c.info for c in cor.cases}
        assert infos["classify:T2"] == "semiprime=no witness={0,1}"
        assert infos["classify:c1#0"] == "semiprime=yes"

    def test_thm33_product_case(self):
        reports = verify_cor28_thm33(corpus_max=2, statements=("thm33",),
                                     only="thm33:c1#0:c1#0")
        thm = reports["thm33"]
        assert thm.attempted == 1
        assert thm.cases[0].ok

    def test_thm33_alone_searches_no_actions(self, monkeypatch):
        # the sigma actions feed cor28's cases only
        def no_actions(*args, **kwargs):
            raise AssertionError("sigma_actions called for thm33 alone")

        monkeypatch.setattr(verify, "sigma_actions", no_actions)
        reports = verify_cor28_thm33(corpus_max=2, statements=("thm33",))
        assert set(reports) == {"thm33"}
        assert reports["thm33"].attempted > 0
        assert not reports["thm33"].counterexamples

    def test_cor28_alone_builds_no_stand_in(self, monkeypatch):
        # the A5at stand-in feeds thm33's cases only; the note stays
        def no_stand_in(*args, **kwargs):
            raise AssertionError("group_brace called for cor28 alone")

        monkeypatch.setattr(verify, "group_brace", no_stand_in)
        reports = verify_cor28_thm33(corpus_max=2, statements=("cor28",))
        assert set(reports) == {"cor28"}
        assert reports["cor28"].attempted == 3
        assert reports["cor28"].notes == (
            "only order-1 semiprime braces exist at order <= 2; "
            "the order-60 stand-in exercises the wreath path",)

    def test_elapsed_per_statement(self, monkeypatch):
        # a fake clock: set-up takes 1 s, the cor28 cases 10 s, thm33 100 s
        now = [50.0]
        monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        real_corpus = verify.standard_corpus

        def slow_corpus(max_order):
            now[0] += 1.0
            return real_corpus(max_order)

        run_costs = iter([10.0, 100.0])

        def fake_run_items(items, jobs):
            now[0] += next(run_costs)
            return [CaseResult(it[1], True, "") for it in items]

        monkeypatch.setattr(verify, "standard_corpus", slow_corpus)
        monkeypatch.setattr(verify, "_run_items", fake_run_items)
        reports = verify_cor28_thm33(corpus_max=2)
        assert reports["cor28"].elapsed == 11.0
        assert reports["thm33"].elapsed == 101.0

    def test_unknown_statement(self):
        with pytest.raises(PreconditionError):
            verify_cor28_thm33(corpus_max=2, statements=("nope",))


class TestQ34:
    def test_tiny_search(self):
        report = search_q34(max_g=2, max_h=2)
        assert report.statement == "q34"
        assert report.attempted == 2
        assert not report.counterexamples
        for case in report.cases:
            assert case.ok
            assert "not semiprime" in case.info

    def test_small_search_count(self):
        report = search_q34(max_g=4, max_h=2)
        assert report.attempted == 25
        assert not report.counterexamples


class TestFailurePaths:
    def test_base_case_failure_renders_replay(self, T2):
        # a non-semiprime bottom makes the base claim fail honestly
        result = verify._dispatch(("lemma32-base", "lemma32:base:T2:m2", T2, T2))
        assert not result.ok
        assert result.witness  # the vanishing ideal of the base
        report = _assemble("lemma32", [result], 0.0, ())
        assert report.attempted == 1 and report.passed == 0
        text = _render(report)
        assert "CASE lemma32:base:T2:m2 FAIL" in text
        assert "REPLAY lemma32:base:T2:m2 witness=" in text
        # the replay block carries both input braces, ready to re-parse
        docs = parse_documents(text.split("witness=", 1)[1].split("\n", 1)[1])
        assert [d.to_brace() == T2 for d in docs] == [True, True]

    def test_lift_case_rejects_semiprime_bottom(self, A5at, T2):
        result = _case_lemma32_lift("lemma32:lift:A5at:m2", A5at, T2)
        assert not result.ok
        assert result.info == "expected a non-semiprime bottom brace"

    def test_raising_case_replays_sigma(self, monkeypatch):
        def broken(*args):
            raise ValueError("bad action")

        monkeypatch.setitem(verify._CASE_FUNCS, "q34", broken)
        one = group_brace("c1", "trivial", name="c1#0")
        result = verify._dispatch(("q34", "q34:c1#0:c1#0:s0", one, one, np.array([[0]]), 0))
        assert not result.ok
        assert result.info == "raised ValueError: bad action"
        assert len(result.documents) == 3
        assert parse_int_grid(result.documents[2], rows=1, cols=1, limit=1).tolist() == [[0]]

    def test_q34_counterexample_path(self):
        # an order-1 product is semiprime, which this case must flag as a
        # finding (exhaustively confirmed), not hide
        one = group_brace("c1", "trivial", name="c1#0")
        result = verify._dispatch(("q34", "q34:c1#0:c1#0:s0", one, one,
                                   np.array([[0]]), 0))
        assert not result.ok
        assert "SEMIPRIME (exhaustively confirmed) - counterexample" in result.info
        assert len(result.documents) == 3
        braces = parse_documents("".join(result.documents[:2]))
        assert len(braces) == 2
        grid = parse_int_grid(result.documents[2], rows=1, cols=1, limit=1)
        assert grid.tolist() == [[0]]


def _case_items(R4, T2):
    """One item of every case kind, in the layout its sweep builds."""
    perms = np.array([[0, 1, 2, 3], [0, 3, 2, 1]])
    return {
        "lemma31": ("lemma31", "lemma31:R4:T2", R4, T2),
        "lemma32-base": ("lemma32-base", "lemma32:base:R4:m2", R4, T2),
        "lemma32-lift": ("lemma32-lift", "lemma32:lift:R4:m2", R4, T2),
        "classify": ("classify", "classify:R4", R4),
        "cor28": ("cor28", "cor28:R4:T2:s1", R4, T2, perms, 1),
        "thm33": ("thm33", "thm33:R4:T2", R4, T2),
        "q34": ("q34", "q34:R4:T2:s1", R4, T2, perms, 1),
    }


@pytest.mark.parametrize("outcome", ["fails", "raises", "passes"])
@pytest.mark.parametrize("kind", sorted(verify._CASE_FUNCS))
def test_dispatch_replays_every_failed_case(monkeypatch, R4, T2, kind, outcome):
    # only _dispatch attaches REPLAY documents: the item's braces, then its
    # sigma table, for a failed case of any kind, and none for a pass
    item = _case_items(R4, T2)[kind]

    def case(case_id, *args):
        assert case_id == item[1] and len(args) == len(item) - 2
        if outcome == "raises":
            raise RuntimeError("boom")
        return CaseResult(case_id, outcome == "passes", "stub", witness=(0, 2))

    monkeypatch.setitem(verify._CASE_FUNCS, kind, case)
    result = verify._dispatch(item)
    assert result.case_id == item[1]
    if outcome == "passes":
        assert result == CaseResult(item[1], True, "stub", witness=(0, 2))
        return
    assert not result.ok
    if outcome == "raises":
        assert (result.info, result.witness) == ("raised RuntimeError: boom", ())
    else:
        assert (result.info, result.witness) == ("stub", (0, 2))
    braces = [a for a in item[2:] if isinstance(a, FiniteSkewBrace)]
    tables = [a for a in item[2:] if isinstance(a, np.ndarray)]
    assert len(result.documents) == len(braces) + len(tables)
    docs = parse_documents("".join(result.documents[:len(braces)]))
    assert [(d.name, d.to_brace()) for d in docs] == [(b.name, b) for b in braces]
    for text, perms in zip(result.documents[len(braces):], tables):
        grid = parse_int_grid(text, rows=T2.order, cols=R4.order, limit=R4.order)
        assert np.array_equal(grid, perms)


def _tables(brace):
    return brace.order, brace.add.tobytes(), brace.circ.tobytes()


def _count_fast_scans(monkeypatch) -> tuple[Counter, Counter]:
    """Count semiprimality checks by the tables they check, starting from
    an empty per-process verdict memo: the braces of the sweeps' batches
    (``semiprime_verdicts``), by method, and the single fast scans
    (``_principal_star_scan``)."""
    batched, scanned = Counter(), Counter()
    real_batch, real_scan = verify.semiprime_verdicts, ideals._principal_star_scan

    def batch(braces, method):
        braces = list(braces)
        methods = (method,) if isinstance(method, str) else method
        batched.update((m, _tables(B)) for m in methods for B in braces)
        return real_batch(braces, method)

    def scan(brace):
        scanned[_tables(brace)] += 1
        return real_scan(brace)

    monkeypatch.setattr(verify, "semiprime_verdicts", batch)
    monkeypatch.setattr(ideals, "_principal_star_scan", scan)
    monkeypatch.setattr(verify, "_VERDICTS", {})
    return batched, scanned


def _each_once(braces, *methods) -> Counter:
    return Counter((method, _tables(B)) for method in methods for B in braces)


def test_cor28_scans_each_corpus_brace_once(monkeypatch):
    batched, scanned = _count_fast_scans(monkeypatch)
    report = verify_cor28_thm33(corpus_max=4, statements=("cor28",))["cor28"]
    # the set-up classifies each corpus brace once by each method, and the
    # classify cases read those verdicts; each product case scans its own
    # product, of order 1 here
    products = [c for c in report.cases if c.case_id.startswith("cor28:")]
    assert products and all(c.info == "order=1 semiprime" for c in products)
    assert batched == _each_once(standard_corpus(4), "fast", "exhaustive")
    assert scanned == Counter({_tables(group_brace("c1", "trivial")): len(products)})


def test_cor28_and_thm33_check_each_corpus_brace_exhaustively_once(monkeypatch):
    # both reports run the classify cases; the exhaustive work is done once
    batched, _ = _count_fast_scans(monkeypatch)
    enumerated = Counter()
    real = ideals._batch_ideals

    def counting(batch):
        enumerated.update(_tables(B) for B in batch.braces)
        return real(batch)

    monkeypatch.setattr(ideals, "_batch_ideals", counting)
    mapped = Counter()
    real_maps = ideals._orbit_maps

    def counting_maps(brace):
        mapped[_tables(brace)] += 1
        return real_maps(brace)

    monkeypatch.setattr(ideals, "_orbit_maps", counting_maps)
    reports = verify_cor28_thm33(corpus_max=4, statements=("cor28", "thm33"))
    for report in reports.values():
        classified = [c for c in report.cases if c.case_id.startswith("classify:")]
        assert len(classified) == len(standard_corpus(4)) and all(c.ok for c in classified)
    assert batched == _each_once(standard_corpus(4), "fast", "exhaustive")
    assert enumerated == Counter(_tables(B) for B in standard_corpus(4))
    # both methods read one map table per brace (the order-1 products
    # scan c1's tables again)
    assert all(mapped[_tables(B)] == 1 for B in standard_corpus(4) if B.order > 1)


def test_lemma32_scans_each_corpus_brace_once(monkeypatch):
    batched, scanned = _count_fast_scans(monkeypatch)
    one = group_brace("c1", "trivial")
    report = verify_lemma32(G=one, corpus_max=4)
    assert report.attempted == 9 and not report.counterexamples
    # the set-up classifies each corpus brace once (the bottom c1 is one
    # of them), and the lift cases read those verdicts; the base case
    # scans the order-1 base
    assert batched == _each_once(standard_corpus(4), "fast")
    assert scanned == Counter({_tables(one): 1})


def test_q34_items_search_each_add_table_once(monkeypatch):
    searched = Counter()
    real = autos._homomorphisms

    def counting(table, target, budget=None):
        if target is table:   # an automorphism search, not an action search
            searched[table.dtype.str, table.tobytes()] += 1
        return real(table, target, budget)

    monkeypatch.setattr(autos, "_homomorphisms", counting)
    autos._automorphisms_of.cache_clear()
    captured = []
    monkeypatch.setattr(verify, "_sweep", lambda _s, items, *rest: captured.extend(items))
    search_q34(max_g=8, max_h=2)   # the item build of `search q34 --max-order 8 --max-h 2`
    assert len(captured) == 1467
    assert max(searched.values()) == 1
    adds = {(G.add.dtype.str, G.add.tobytes()) for _, _, G, *_ in captured}
    assert adds <= set(searched)


def test_report_invariant_enforced():
    cx = Counterexample("x", (), (), "boom")
    with pytest.raises(AssertionError):
        SweepReport("q34", attempted=2, passed=2, counterexamples=(cx,),
                    elapsed=0.0, notes=(), cases=())


def test_render_plain_pass_report():
    report = verify_lemma31(only="lemma31:T2:T2")
    text = _render(report)
    lines = text.splitlines()
    assert lines[0].startswith("CASE lemma31:T2:T2 PASS")
    assert lines[-1] == "lemma31: 1 cases, 0 counterexamples"
    assert "REPLAY" not in text


def test_import_leaves_the_pool_modules_out():
    """Neither a fresh ``import brace_forge`` nor a sweep in two processes
    (this one and one forked worker) loads a ``concurrent`` or
    ``multiprocessing`` module."""
    pool_modules = ("sorted(m for m in sys.modules "
                    "if m.partition('.')[0] in ('concurrent', 'multiprocessing'))")
    code = (f"import os, sys, brace_forge; print({pool_modules}); "
            "os.cpu_count = lambda: 2; from brace_forge import cli; "
            "status = cli.main(['verify', 'lemma31', '--max-order', '4', '--jobs', '2']); "
            f"print(status, {pool_modules})")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(verify.__file__)), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-2:] == ["lemma31: 316 cases, 0 counterexamples", "0 []"]
