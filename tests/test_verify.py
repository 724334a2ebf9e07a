import dataclasses
import hashlib
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
    SigmaAction,
    SweepReport,
    group_brace,
    is_ideal,
    is_semiprime,
    is_trivial,
    parse_documents,
    render_report,
    search_q34,
    standard_corpus,
    verify_cor28_thm33,
    verify_lemma31,
    verify_lemma32,
    wreath_base,
)
from brace_forge import autos, core, groups, ideals, products, verify
from brace_forge.cli import main as cli_main
from brace_forge.docio import parse_int_grid
from brace_forge.ideals import DEFAULT_IDEAL_CAP, Ideal, SemiprimeVerdict
from brace_forge.verify import (
    CaseResult,
    Counterexample,
    STATEMENTS,
    _assemble,
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
        real = verify._BATCH_FUNCS["lemma31"]
        parent = os.getpid()

        def flaky(args):
            if any(case_id == case for case_id, *_ in args):
                if os.getpid() != parent:
                    print("# raising in a worker", file=sys.stderr)
                raise RuntimeError("boom")
            return real(args)

        monkeypatch.setitem(verify._BATCH_FUNCS, "lemma31", flaky)
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
        real = verify._BATCH_FUNCS["lemma31"]
        parent = os.getpid()

        def crash(args):
            if os.getpid() != parent:
                os._exit(7)
            return real(args)

        monkeypatch.setitem(verify._BATCH_FUNCS, "lemma31", crash)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli_main(["verify", "lemma31", "--max-order", "4", "--jobs", "2"]) == 2
        sys.stdout.flush()
        captured = capfd.readouterr()
        assert captured.err.startswith("error: sweep worker 1 of 1 (pid ")
        assert captured.err.endswith(") exited with code 7\n")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        _assert_no_child_left()

    def test_worker_ending_by_system_exit_reports_its_status_alone(self, monkeypatch, capfd):
        real = verify._BATCH_FUNCS["lemma31"]
        parent = os.getpid()

        def leave(args):
            if os.getpid() != parent:
                raise SystemExit(3)
            return real(args)

        monkeypatch.setitem(verify._BATCH_FUNCS, "lemma31", leave)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli_main(["verify", "lemma31", "--max-order", "4", "--jobs", "2"]) == 2
        sys.stdout.flush()
        captured = capfd.readouterr()
        assert captured.err.startswith("error: sweep worker 1 of 1 (pid ")
        assert captured.err.endswith(") exited with code 1\n")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        _assert_no_child_left()

    def test_interrupt_in_this_process_kills_the_workers(self, monkeypatch):
        real = verify._BATCH_FUNCS["lemma31"]
        parent = os.getpid()

        def interrupted(args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a worker still running when the sweep ends
            return real(args)

        monkeypatch.setitem(verify._BATCH_FUNCS, "lemma31", interrupted)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            verify_lemma31(base_cap=4, jobs=2)
        assert time.perf_counter() - t0 < 30  # killed, not waited for
        _assert_no_child_left()

    @staticmethod
    def _inject(monkeypatch, G, H, *member_sets):
        """Append member masks to the ideal masks of the base of G and H
        that the lemma31 batch reads from its stacked lists; returns the
        list of stack sizes the base was found in."""
        W = wreath_base(G, H)[0]
        real, found = verify._stack_ideals, []

        def lists(stack):
            out, n = real(stack), stack.n
            for b in range(len(stack) if n == W.order else 0):
                rows = slice(b * n, (b + 1) * n)
                if np.array_equal(stack.add[rows], W.add) and \
                        np.array_equal(stack.circ[rows], W.circ):
                    bad = np.zeros((len(member_sets), n), dtype=bool)
                    for row, members in zip(bad, member_sets):
                        row[list(members)] = True
                    out[b] = np.vstack([out[b], bad])
                    found.append(len(stack))
            return out

        monkeypatch.setattr(verify, "_stack_ideals", lists)
        return found

    def test_miss_names_the_is_ideal_rule(self, monkeypatch, R4, T2):
        # a base "ideal" whose first projection {0,1} is no ideal of R4
        digits = wreath_base(R4, T2)[1].digit_matrix()
        w = int(np.flatnonzero((digits == [1, 0]).all(axis=1))[0])
        found = self._inject(monkeypatch, R4, T2, [0, w])
        result = verify._dispatch(("lemma31", "lemma31:R4:T2", R4, T2))
        ok, rule = is_ideal(R4, [0, 1])
        assert not ok
        assert found == [1]
        assert not result.ok
        assert result.info == f"ideal={{0,{w}}} h=0 fails {rule}"
        assert result.witness == (0, 1)

    def test_first_miss_is_ideal_major_then_position(self, monkeypatch, R4, T2):
        # two ideals after the real ones: {0,u} fails only at h=1, the next
        # {0,w} at h=0, so a position-major walk would report {0,w}
        digits = wreath_base(R4, T2)[1].digit_matrix()
        u = int(np.flatnonzero((digits == [0, 1]).all(axis=1))[0])
        w = int(np.flatnonzero((digits == [1, 0]).all(axis=1))[0])
        found = self._inject(monkeypatch, R4, T2, [0, u], [0, w])
        result = verify._dispatch(("lemma31", "lemma31:R4:T2", R4, T2))
        _, rule = is_ideal(R4, [0, 1])
        assert found == [1]
        assert not result.ok
        assert result.info == f"ideal={{0,{u}}} h=1 fails {rule}"
        assert result.witness == (0, 1)

    def test_injected_rows_reach_only_their_case_in_a_stack(self, monkeypatch, corpus8, R4, T2):
        # R4's base stacked with the bases of the other order-4 Gs: the
        # injected rows fail R4's case alone, as they do in a batch of one
        digits = wreath_base(R4, T2)[1].digit_matrix()
        w = int(np.flatnonzero((digits == [1, 0]).all(axis=1))[0])
        found = self._inject(monkeypatch, R4, T2, [0, w])
        gs, c1 = [G for G in corpus8 if G.order == 4], next(B for B in corpus8 if B.order == 1)
        args = [(f"lemma31:{G.name}:{H.name}", G, H) for G in gs for H in (T2, c1)]
        got = verify._BATCH_FUNCS["lemma31"](args)
        assert found == [len(gs)] and len(gs) > 2
        assert [r.case_id for r in got if not r.ok] == ["lemma31:R4:T2"]
        alone = verify._dispatch(("lemma31", "lemma31:R4:T2", R4, T2))
        index = [case_id for case_id, _, _ in args].index("lemma31:R4:T2")
        assert got[index] == dataclasses.replace(alone, documents=())    # a batch adds no REPLAY

    def test_cases_match_the_projection_loop(self, corpus8):
        named = {b.name: b for b in corpus8}
        report = verify_lemma31(base_cap=16)
        assert report.attempted > 300
        for case in report.cases:
            _, g_name, h_name = case.case_id.split(":")
            want = oracles.lemma31_case_loop(named[g_name], named[h_name])
            assert (case.ok, case.info, case.witness) == want, case.case_id

    def test_stacked_lists_match_ideal_masks(self, monkeypatch, corpus8):
        # every case of the default sweep (631 bases, the order-64 ones in
        # cut stacks) gets its base's and its G's ideal_masks row for row;
        # a base with |H| = 1 is not built, its lists are G's
        seen, built = {}, []
        real_case, real_power = verify._lemma31_case, verify._stacked_power

        def case(case_id, G, positions, digits, masks, g_masks):
            seen[G.name, positions] = G, masks, g_masks
            return real_case(case_id, G, positions, digits, masks, g_masks)

        def power(braces, positions):
            built.append((len(braces), positions))
            return real_power(braces, positions)

        monkeypatch.setattr(verify, "_lemma31_case", case)
        monkeypatch.setattr(verify, "_stacked_power", power)
        report = verify_lemma31()
        assert report.attempted == 944 and len(seen) == 631
        assert sum(n for n, m in built if m == 2 and n == verify._LEMMA31_STACK) >= 256
        assert all(m > 1 for _, m in built) and sum(n for n, _ in built) == 631 - len(corpus8)
        hs = {H.order: H for H in corpus8}
        assert {G.name for G, _, _ in seen.values()} == {G.name for G in corpus8}
        for (name, positions), (G, masks, g_masks) in seen.items():
            assert np.array_equal(g_masks, ideals.ideal_masks(G)), name
            base = wreath_base(G, hs[positions])[0]
            assert np.array_equal(masks, ideals.ideal_masks(base)), (name, positions)

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

    def test_lifts_above_the_ideal_cap_run_in_the_batch(self, monkeypatch):
        # with H = T3 the bottoms of orders 6, 7 and 8 lift to bases of
        # orders 216, 343 and 512, above the ideal cap; their lifts are
        # checked like the smaller ones, by one _failed_rules call per
        # bottom order on the lazy stacked cube of the bottoms, in order of
        # first appearance
        calls = []
        real = verify._failed_rules

        def counting(tables, owner, masks):
            assert isinstance(tables.add, groups.PairTable) and tables.add.shape == (
                len(masks) * tables.n, tables.n)
            calls.append((tables.n, len(masks)))
            return real(tables, owner, masks)

        monkeypatch.setattr(verify, "_failed_rules", counting)
        report = verify_lemma32(H=group_brace("c3", "trivial", name="T3"), base_max=512)
        assert report.attempted == 306 and not report.counterexamples
        assert calls == [(8, 1), (64, 6), (216, 10), (27, 1), (512, 286), (125, 1), (343, 1)]
        assert sum(k for order, k in calls if order > DEFAULT_IDEAL_CAP) == 297
        digest = hashlib.sha256(_render(report).encode()).hexdigest()
        assert digest == "12f3a218fe7800b55d4ce4adcbab62f69c7980f2f1b6ccb4a767e5a61caa266f"

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
            raise AssertionError("actions searched for thm33 alone")

        monkeypatch.setattr(autos, "_actions", no_actions)
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
        item = ("lemma32-lift", "lemma32:lift:A5at:m2", A5at, T2, is_semiprime(A5at))
        result = verify._dispatch(item)
        assert not result.ok
        assert result.info == "expected a non-semiprime bottom brace"
        assert result.witness == ()

    def test_classify_case_rejects_disagreeing_verdicts(self, R4):
        fast = is_semiprime(R4, "fast")
        exhaustive = SemiprimeVerdict(True, None, "exhaustive")
        result = verify._dispatch(("classify", "classify:R4", R4, fast, exhaustive))
        assert not result.ok
        assert result.info == "fast and exhaustive verdicts disagree"
        assert [d.to_brace() for d in parse_documents("".join(result.documents))] == [R4]

    def test_classify_case_rejects_a_witness_that_is_not_an_ideal(self, R4):
        assert not is_ideal(R4, [0, 1])[0]
        fast = SemiprimeVerdict(False, Ideal(R4, frozenset({0, 1})), "fast")
        exhaustive = is_semiprime(R4, "exhaustive")
        result = verify._dispatch(("classify", "classify:R4", R4, fast, exhaustive))
        assert not result.ok
        assert (result.info, result.witness) == ("invalid witness via fast", (0, 1))

    def test_raising_case_replays_sigma(self, monkeypatch):
        def broken(args):
            raise ValueError("bad action")

        monkeypatch.setitem(verify._BATCH_FUNCS, "q34", broken)
        one = group_brace("c1", "trivial", name="c1#0")
        result = verify._dispatch(("q34", "q34:c1#0:c1#0:s0", one, one,
                                   np.zeros((1, 1), dtype=one.add.dtype), 0))
        assert not result.ok
        assert result.info == "raised ValueError: bad action"
        assert len(result.documents) == 3
        assert parse_int_grid(result.documents[2], rows=1, cols=1, limit=1).tolist() == [[0]]

    def test_q34_counterexample_path(self):
        # an order-1 product is semiprime, which this case must flag as a
        # finding (exhaustively confirmed), not hide
        one = group_brace("c1", "trivial", name="c1#0")
        result = verify._dispatch(("q34", "q34:c1#0:c1#0:s0", one, one,
                                   np.zeros((1, 1), dtype=one.add.dtype), 0))
        assert not result.ok
        assert "SEMIPRIME (exhaustively confirmed) - counterexample" in result.info
        assert len(result.documents) == 3
        braces = parse_documents("".join(result.documents[:2]))
        assert len(braces) == 2
        grid = parse_int_grid(result.documents[2], rows=1, cols=1, limit=1)
        assert grid.tolist() == [[0]]

    def test_q34_case_rejects_disagreeing_verdicts(self, R4, T2, monkeypatch):
        # a fast pass that misses the first product's witness: the
        # exhaustive pass runs on the same stack and finds one, so that case
        # fails; the second keeps its fast witness.  With no miss, no
        # exhaustive pass runs.
        items = [("q34", f"q34:R4:T2:s{i}", R4, T2, np.array(perms, dtype=R4.add.dtype), i)
                 for i, perms in enumerate(([[0, 1, 2, 3]] * 2, [[0, 1, 2, 3], [0, 3, 2, 1]]))]
        calls, real = [], verify._batch_witnesses

        def recording(stack, method, blind=False):
            calls.append((method, stack))
            masks = real(stack, method)
            return [None, *masks[1:]] if blind and method == "fast" else masks

        monkeypatch.setattr(verify, "_batch_witnesses", recording)
        ok = verify._BATCH_FUNCS["q34"]([item[1:] for item in items])
        assert [r.ok for r in ok] == [True, True] and [m for m, _ in calls] == ["fast"]
        calls.clear()
        monkeypatch.setattr(verify, "_batch_witnesses",
                            lambda stack, method: recording(stack, method, blind=True))
        results = verify._BATCH_FUNCS["q34"]([item[1:] for item in items])
        assert [m for m, _ in calls] == ["fast", "exhaustive"] and calls[0][1] is calls[1][1]
        assert [(r.ok, r.info) for r in results] == [
            (False, "fast and exhaustive verdicts disagree"), (True, ok[1].info)]


def _case_items(R4, T2):
    """One item of every case kind, in the layout its sweep builds."""
    sigma = np.array([[0, 1, 2, 3], [0, 3, 2, 1]], dtype=R4.add.dtype)
    return {
        "lemma31": ("lemma31", "lemma31:R4:T2", R4, T2),
        "lemma32-base": ("lemma32-base", "lemma32:base:R4:m2", R4, T2),
        "lemma32-lift": ("lemma32-lift", "lemma32:lift:R4:m2", R4, T2, is_semiprime(R4)),
        "classify": ("classify", "classify:R4", R4, is_semiprime(R4),
                     is_semiprime(R4, "exhaustive")),
        "cor28": ("cor28", "cor28:R4:T2:s1", R4, T2, sigma, 1),
        "thm33": ("thm33", "thm33:R4:T2", R4, T2),
        "q34": ("q34", "q34:R4:T2:s1", R4, T2, sigma, 1),
    }


def test_each_kind_has_one_case_body():
    # one table: every kind runs in batches, and a single case is its
    # kind's batch of one
    assert not hasattr(verify, "_CASE_FUNCS")
    assert set(verify._BATCH_FUNCS) == {"lemma31", "lemma32-base", "lemma32-lift", "classify",
                                        "cor28", "thm33", "q34"}


@pytest.mark.parametrize("outcome", ["fails", "raises", "passes"])
@pytest.mark.parametrize("kind", sorted(verify._BATCH_FUNCS))
def test_dispatch_replays_every_failed_case(monkeypatch, R4, T2, kind, outcome):
    # only _dispatch and the batch path attach REPLAY documents: the item's
    # braces, then its sigma table, for a failed case of any kind, and none
    # for a pass
    item = _case_items(R4, T2)[kind]

    def case(case_id, *args):
        assert case_id == item[1] and len(args) == len(item) - 2
        if outcome == "raises":
            raise RuntimeError("boom")
        return CaseResult(case_id, outcome == "passes", "stub", witness=(0, 2))

    monkeypatch.setitem(verify._BATCH_FUNCS, kind, lambda args: [case(*a) for a in args])
    result = verify._dispatch(item)
    # a run of three items, in one batch
    assert verify._run_chunk([item] * 3) == [result] * 3
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


def _sweep_items(monkeypatch, sweep, *args, **kwargs) -> list[tuple]:
    """The items a sweep builds, without running them."""
    captured = []
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_sweep", lambda _s, items, *rest: captured.extend(items))
        sweep(*args, **kwargs)
    return captured


@pytest.fixture(scope="module")
def batched_items():
    """The items of the lemma31 sweep at base cap 16, of the default
    lemma32, thm33 and cor28 sweeps and of the q34-wide search (``search
    q34 --max-order 8 --max-h 2``), sweep by sweep."""
    with pytest.MonkeyPatch.context() as patch:
        lemma31 = _sweep_items(patch, verify_lemma31, base_cap=16)
        lemma32 = _sweep_items(patch, verify_lemma32)
        thm33 = _sweep_items(patch, verify_cor28_thm33, statements=("thm33",))
        cor28 = _sweep_items(patch, verify_cor28_thm33, statements=("cor28",))
        q34 = _sweep_items(patch, search_q34, max_g=8, max_h=2)
    assert [len(items) for items in (lemma31, lemma32, thm33, cor28, q34)] == [628, 307, 310, 308,
                                                                               1467]
    return lemma31 + lemma32 + thm33 + cor28 + q34


@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_batches_match_batches_of_one(batched_items, monkeypatch, one_row_blocks):
    # runs of every kind give what each item gives alone: info, witness
    # and documents
    if one_row_blocks:
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    calls = []
    real = verify._batch_witnesses

    def counting(batch, method):
        calls.append(len(batch))
        return real(batch, method)

    lifts = []
    real_lifts = verify._failed_rules

    def counting_lifts(tables, owner, masks):
        lifts.append((tables.n, len(masks)))
        return real_lifts(tables, owner, masks)

    monkeypatch.setattr(verify, "_batch_witnesses", counting)
    monkeypatch.setattr(verify, "_failed_rules", counting_lifts)
    batched = verify._run_chunk(batched_items)
    products, blocks = len(calls), len(lifts)
    assert batched == [verify._dispatch(item) for item in batched_items]
    assert {item[0] for item in batched_items} == set(verify._BATCH_FUNCS)
    # one verdict call per product stack: the q34-wide run in one stack
    # per |G| and |H| (14), the cor28 product, the thm33 wreath, and the
    # lemma32 base and the thm33 stand-ins (orders 3600, 60 and 3600) in a
    # stack each; one stack a product when a block holds one entry
    assert products == (1472 if one_row_blocks else 19)
    assert sum(calls[:products]) == 1472 and len(calls) == products + 1472
    # the 306 lifts, one run, make one _failed_rules call per bottom
    # order, in order of first appearance, at any block size (the kernel
    # cuts its own row blocks); alone, by _dispatch, one call each
    assert lifts[:blocks] == [(4, 1), (16, 6), (36, 10), (9, 1), (64, 286), (25, 1), (49, 1)]
    assert lifts[blocks:] == [(B.order ** 2, 1) for _, _, B, *_ in
                              (item for item in batched_items if item[0] == "lemma32-lift")]


def test_a_rejected_lift_gets_the_message_of_its_case_alone(batched_items):
    # two bad witnesses injected into a run of lifts: a set that is not an
    # ideal, and the whole carrier, whose lift is an ideal whose stars do
    # not vanish; each gets the message and witness of the per-lift check
    lifts = [item[1:] for item in batched_items if item[0] == "lemma32-lift"]
    case_id, B, H, _ = next(arg for arg in lifts
                            if arg[1].order == 8 and not is_ideal(arg[1], [0, 1])[0]
                            and not is_trivial(arg[1]))
    bad = [(f"{case_id}:{what}", B, H, SemiprimeVerdict(False, Ideal(B, members), "fast"))
           for what, members in (("pair", frozenset({0, 1})), ("all", frozenset(range(8))))]
    args = [*lifts[:40], bad[0], *lifts[40:70], bad[1], *lifts[70:]]
    got = verify._BATCH_FUNCS["lemma32-lift"](args)
    assert got == [oracles.lemma32_lift_case(*arg) for arg in args]
    rejected = [r for r in got if not r.ok]
    assert [r.case_id for r in rejected] == [case_id for case_id, *_ in bad]
    assert rejected[0].info.startswith("lift fails ") and rejected[0].info != "lift fails None"
    assert rejected[1].info == "lifted stars do not vanish"
    assert [len(r.witness) for r in rejected] == [4, 64]


LIFT_OUTCOMES = ("lift fails circ-subgroup", "lift fails circ-normality",
                 "lift fails lambda-invariance", "lift fails coset-symmetry",
                 "lifted stars do not vanish", "lift is zero",
                 "expected a non-semiprime bottom brace", "certifies")


@pytest.mark.parametrize("one_row_blocks", [False, True])
@pytest.mark.parametrize("positions", [2, 3])
def test_lift_batch_matches_the_lift_oracle_on_every_outcome(monkeypatch, corpus8, positions,
                                                              one_row_blocks):
    # one injected witness for each outcome a set of a corpus brace can
    # reach, among real lifts of every bottom order 2..8, shuffled so a
    # run mixes bottom orders; at |H| = 3 the order-8 bottoms lift to
    # bases of order 512, above the ideal cap
    if one_row_blocks:
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    named = {B.name: B for B in corpus8}
    H = group_brace(f"c{positions}", "trivial", name=f"T{positions}")
    whole = next(B for B in corpus8 if B.order == 8 and not is_trivial(B))
    injected = [(named["R4"], {1, 2}), (named["S3at"], {0, 1}), (named["R4"], {0, 1}),
                (named["s3#0"], {0, 1}), (whole, set(range(8))), (named["T2"], {0})]
    args = [(f"lift:{B.name}:{i}", B, H, SemiprimeVerdict(False, Ideal(B, frozenset(S)), "fast"))
            for i, (B, S) in enumerate(injected)]
    args.append(("lift:c1", named["c1#0"], H, is_semiprime(named["c1#0"])))
    for order in range(2, 9):
        real = [B for B in corpus8 if B.order == order and not is_semiprime(B).semiprime][:3]
        args += [(f"lift:{B.name}", B, H, is_semiprime(B)) for B in real]
    order = np.random.default_rng(positions).permutation(len(args))
    args = [args[i] for i in order]
    got = verify._BATCH_FUNCS["lemma32-lift"](args)
    assert got == [oracles.lemma32_lift_case(*arg) for arg in args]
    reached = Counter(next(o for o in LIFT_OUTCOMES if o in r.info) for r in got)
    assert set(reached) == set(LIFT_OUTCOMES)
    assert reached["certifies"] == len(args) - 7
    assert max(B.order for _, B, _, _ in args) ** positions == (64 if positions == 2 else 512)


def test_passing_lifts_build_no_base(monkeypatch, batched_items):
    # every lift of the default sweep, and its order-8 bottoms at |H| = 3
    # (bases of order 512), passes without a wreath_base, a _product, a
    # FiniteSkewBrace or a dense pair table: the bases are only read
    lifts = [item[1:] for item in batched_items if item[0] == "lemma32-lift"]
    T3 = group_brace("c3", "trivial", name="T3")
    lifts += [(f"{case_id}:m3", B, T3, v) for case_id, B, _, v in lifts if B.order == 8][:40]

    def refuse(*args, **kwargs):
        raise AssertionError("a lift built a base")

    for module, name in ((verify, "wreath_base"), (products, "wreath_base"),
                         (products, "_product"), (groups, "_pair_table")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(core.FiniteSkewBrace, "__init__", refuse)
    results = verify._BATCH_FUNCS["lemma32-lift"](lifts)
    assert len(results) == 346 and all(r.ok for r in results)
    assert sum("order=512 " in r.info for r in results) == 40


def test_products_above_the_cap_are_lazy_stacks_of_their_own(monkeypatch, A5at):
    # three actions of A5at on A5at (order 3600) and three of T3 on A5at
    # (order 180, where a block would hold many) in one cor28 run: each is
    # a stack of one, classified without a dense table, as it is alone
    T3 = group_brace("c3", "trivial", name="T3")
    items = [*verify._action_items("cor28", [A5at], [A5at], 121, None)[::60],
             *verify._action_items("cor28", [A5at], [T3], 121, None)[:3]]
    alone = [verify._dispatch(item) for item in items]
    stacks = []
    real = verify._batch_witnesses

    def counting(batch, method):
        stacks.append((batch.n, len(batch), type(batch.add), type(batch.circ)))
        return real(batch, method)

    def dense(self, dtype=None, copy=None):
        raise AssertionError("a PairTable was made dense")

    monkeypatch.setattr(verify, "_batch_witnesses", counting)
    monkeypatch.setattr(groups.PairTable, "__array__", dense)
    results = verify._BATCH_FUNCS["cor28"]([item[1:] for item in items])
    assert [verify._with_documents(item, r) for item, r in zip(items, results)] == alone
    assert [r.info for r in results[:4]] == ["order=3600 semiprime"] * 3 + [
        "order=180 not semiprime under sigma 0"]
    assert stacks == [(n, 1, groups.PairTable, groups.PairTable) for n in (3600,) * 3 + (180,) * 3]


def test_product_batches_hold_about_a_block_of_table_entries(monkeypatch):
    # the sweep of `search q34 --max-order 60`: products of order up to 32,
    # stacked by |G| and |H| in order of first appearance, each cut
    # greedily into stacks of at most a block of add and circ entries and
    # read dense
    items = _sweep_items(monkeypatch, search_q34, max_g=8, max_h=4)
    stacks, orders = [], []
    real, real_stacks = verify._batch_witnesses, products._action_stacks

    def stacking(actions):                  # |G| of each stack, from its first action
        for index, stack in real_stacks(actions):
            orders.append(actions[index[0]][0].order)
            yield index, stack

    def counting(batch, method):
        assert method == "fast"
        assert isinstance(batch.add, np.ndarray) and isinstance(batch.circ, np.ndarray)
        stacks.append((orders[-1], batch.n, len(batch)))   # |G|, order, products
        return real(batch, method)

    monkeypatch.setattr(products, "_action_stacks", stacking)
    monkeypatch.setattr(verify, "_batch_witnesses", counting)
    results = verify._run_chunk(items)
    assert len(results) == 16279 and all(r.ok for r in results)
    want = []
    for (g, h), count in Counter((it[2].order, it[3].order) for it in items).items():
        full = core._BLOCK_ENTRIES // (2 * (g * h) ** 2)
        want += [(g, g * h, full)] * (count // full) + [(g, g * h, count % full)] * (count % full > 0)
    assert stacks == want and sum(B for *_, B in stacks) == len(items)
    assert max(2 * n * n * B for _, n, B in stacks) <= core._BLOCK_ENTRIES


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_raising_batch_reruns_its_run_item_by_item(monkeypatch, capfd, batched_items, jobs):
    # a q34 run and a lemma31 run, each with one raising item: the q34
    # one in this process and the last lemma31 item in the worker's chunk
    # at two processes; every other case keeps its result, and each
    # raising one gets _dispatch's traceback, info and REPLAY documents
    lemma31 = [item for item in batched_items if item[0] == "lemma31"]
    items = batched_items[-40:] + lemma31[-40:]
    bad = {items[5][1], items[-1][1]}

    def flaky(real):
        def batch(args):
            if any(a[0] in bad for a in args):
                raise RuntimeError("boom")
            return real(args)
        return batch

    want = verify._run_chunk(items)
    for kind in ("lemma31", "q34"):
        monkeypatch.setitem(verify._BATCH_FUNCS, kind, flaky(verify._BATCH_FUNCS[kind]))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forks = _fork_spy(monkeypatch)
    got = verify._run_items(items, jobs)
    sys.stderr.flush()
    err = capfd.readouterr().err
    assert len(forks) == jobs - 1
    assert err.count("Traceback") == 2
    for item, g, w in zip(items, got, want, strict=True):
        if item[1] not in bad:
            assert g == w
            continue
        assert (g.ok, g.info) == (False, "raised RuntimeError: boom")
        assert err.count(f"# case {item[1]} raised:\nTraceback") == 1
        assert len(g.documents) == {"q34": 3, "lemma31": 2}[item[0]]
        assert g.documents == verify._dispatch(item).documents
    _assert_no_child_left()


def test_only_a_batched_case_prints_what_the_sweep_prints():
    sweeps = {
        "lemma31": lambda **kw: verify_lemma31(base_cap=16, **kw),
        "lemma32": lambda **kw: verify_lemma32(**kw),
        "thm33": lambda **kw: verify_cor28_thm33(corpus_max=4, statements=("thm33",), **kw)["thm33"],
        "cor28": lambda **kw: verify_cor28_thm33(corpus_max=4, statements=("cor28",), **kw)["cor28"],
        "q34": lambda **kw: search_q34(max_g=4, max_h=2, **kw),
    }
    full = {statement: _render(sweep()).splitlines() for statement, sweep in sweeps.items()}
    picks = [("q34", 3), ("q34", -2), ("cor28", 1), ("cor28", 5), ("cor28", -2),
             ("lemma31", 1), ("lemma32", 0), ("thm33", -4)]
    lines = [(statement, full[statement][i]) for statement, i in picks]
    assert [line.split()[1] for _, line in lines[5:]] == [
        "lemma31:T2:R4", "lemma32:base:A5at:m2", "thm33:c1#0:c1#0"]
    for statement, case_line in lines:
        report = sweeps[statement](only=case_line.split()[1])
        assert _render(report).splitlines()[-2] == case_line


def test_only_runs_sigma_actions_for_its_own_pair(monkeypatch, capsys):
    # --only searches the actions of the one pair its id names, and no other
    # G at all: an id of another kind, or one whose H names no brace,
    # searches nothing; an id that matches no case still exits 2
    calls, searched = [], []
    real_actions, real_search = autos._actions, autos.skew_automorphisms

    def counting(G, hs, budget):
        calls.extend((G.name, H.name) for H in hs)
        return real_actions(G, hs, budget)

    def searching(G):
        searched.append(G.name)
        return real_search(G)

    monkeypatch.setattr(autos, "_actions", counting)
    monkeypatch.setattr(autos, "skew_automorphisms", searching)
    sweeps = {
        "q34": lambda **kw: search_q34(max_g=4, max_h=2, **kw),
        "cor28": lambda **kw: verify_cor28_thm33(corpus_max=4, statements=("cor28",), **kw)["cor28"],
    }
    for statement, sweep in sweeps.items():
        calls.clear(), searched.clear()
        cases = [line for line in _render(sweep()).splitlines() if line.startswith("CASE ")]
        assert calls and len(set(calls)) == len(calls)
        assert searched == list(dict.fromkeys(G for G, _ in calls))   # one search per G
        for line in (cases[0], cases[len(cases) // 2], cases[-1]):
            case_id = line.split()[1]
            calls.clear(), searched.clear()
            assert _render(sweep(only=case_id)).splitlines()[-2] == line
            own = case_id.startswith(statement)
            assert calls == ([tuple(case_id.split(":")[1:3])] if own else [])
            assert searched == ([case_id.split(":")[1]] if own else [])
    calls.clear(), searched.clear()
    assert cli_main(["search", "q34", "--only", "q34:T2:nope:s0"]) == 2
    assert capsys.readouterr().err == "error: no case matches id 'q34:T2:nope:s0'\n"
    assert calls == [] and searched == []


def test_a_seeded_closure_makes_no_orbit_representatives(monkeypatch, A5at_square):
    def refuse(maps):
        raise AssertionError("orbit representatives made")

    monkeypatch.setattr(ideals, "_orbit_representatives", refuse)
    assert len(ideals.ideal_closure(A5at_square, [1])) == 60
    with pytest.raises(AssertionError, match="orbit representatives made"):
        ideals.is_semiprime(A5at_square)


def test_no_case_state_outlives_its_batch(monkeypatch):
    # a sweep run twice in one process does the same work both times, and
    # a case run alone after a full sweep builds its base and masks anew
    work = []

    def recording(module, name, record):
        real = getattr(module, name)

        def call(*args):
            work.append((name, *record(*args)))
            return real(*args)
        monkeypatch.setattr(module, name, call)

    recording(verify, "_stacked_power", lambda braces, positions: (len(braces), positions))
    for module in (verify, ideals):            # the bases' lists, and the Gs' by _ideal_lists
        recording(module, "_stack_ideals", lambda stack: (stack.n, len(stack)))
    runs = []
    for _ in range(2):
        work.clear()
        report = verify_lemma31(base_cap=16)
        runs.append(list(work))
    assert runs[0] == runs[1]
    assert ("_stacked_power", 6, 2) in runs[0]            # the bases of the six order-4 Gs
    line = next(line for line in _render(report).splitlines() if " lemma31:R4:T2 " in line)
    work.clear()
    alone = verify_lemma31(base_cap=16, only="lemma31:R4:T2")
    # R4's masks, then its base, built and listed as stacks of one
    assert work == [("_stack_ideals", 4, 1), ("_stacked_power", 1, 2), ("_stack_ideals", 16, 1)]
    assert _render(alone).splitlines()[-2] == line


def _tables(brace):
    return brace.order, np.asarray(brace.add).tobytes(), np.asarray(brace.circ).tobytes()


def _stack_rows(tables):
    """``_tables`` of each brace of an ``ideals._Tables`` stack, a product
    stack's rows included; a lazy row is read dense."""
    n = tables.n
    return [(n, *(np.asarray(t[b * n:(b + 1) * n]).tobytes() for t in (tables.add, tables.circ)))
            for b in range(len(tables))]


def _count_fast_scans(monkeypatch) -> tuple[Counter, Counter]:
    """Count semiprimality checks by the tables they check: the braces of
    the sweeps' set-up batches (``semiprime_verdicts``) and the rows of
    their product stacks (``_batch_witnesses``), by method, and the rows
    of every ``ideals._Tables`` stack whose maps are built
    (``_stacked_maps``), the sweeps' batches and the single
    ``is_semiprime`` checks alike."""
    batched, built = Counter(), Counter()
    real_batch, real_stack, real_maps = (verify.semiprime_verdicts, verify._batch_witnesses,
                                         ideals._stacked_maps)

    def batch(braces, method):
        braces = list(braces)
        methods = (method,) if isinstance(method, str) else method
        batched.update((m, _tables(B)) for m in methods for B in braces)
        return real_batch(braces, method)

    def stack(batch, method):
        batched.update((method, row) for row in _stack_rows(batch))
        return real_stack(batch, method)

    def build(tables):
        built.update(_stack_rows(tables))
        return real_maps(tables)

    monkeypatch.setattr(verify, "semiprime_verdicts", batch)
    monkeypatch.setattr(verify, "_batch_witnesses", stack)
    monkeypatch.setattr(ideals, "_stacked_maps", build)
    return batched, built


def _each_once(braces, *methods) -> Counter:
    return Counter((method, _tables(B)) for method in methods for B in braces)


@pytest.mark.parametrize("max_order", [1, 8, 60, 10**6])
def test_standard_corpus_stays_below_the_ideal_cap(max_order):
    # the cor28/thm33 set-up classifies the whole corpus both ways in one
    # call, which an exhaustive verdict above the cap would make raise
    assert max(B.order for B in standard_corpus(max_order)) <= DEFAULT_IDEAL_CAP


def test_cor28_scans_each_corpus_brace_once(monkeypatch):
    batched, built = _count_fast_scans(monkeypatch)
    report = verify_cor28_thm33(corpus_max=4, statements=("cor28",))["cor28"]
    # the set-up classifies each corpus brace once by each method, in one
    # batch per order, and the classify cases read those verdicts; the
    # cor28 batch classifies each product once, of order 1 here
    products = [c for c in report.cases if c.case_id.startswith("cor28:")]
    assert products and all(c.info == "order=1 semiprime" for c in products)
    corpus = standard_corpus(4)
    one = _tables(group_brace("c1", "trivial"))
    assert batched == _each_once(corpus, "fast", "exhaustive") + Counter({("fast", one): len(products)})
    assert built == Counter(_tables(B) for B in corpus) + Counter({one: len(products)})


def test_cor28_and_thm33_check_each_corpus_brace_exhaustively_once(monkeypatch):
    # both reports run the classify cases; the exhaustive work is done once
    batched, built = _count_fast_scans(monkeypatch)
    enumerated = Counter()
    real = ideals._batch_ideals

    def counting(batch, principal):
        enumerated.update(_stack_rows(batch))
        return real(batch, principal)

    monkeypatch.setattr(ideals, "_batch_ideals", counting)
    # each brace's maps are gathered in one stacked gather per batch
    mapped = Counter()
    real_maps = ideals._stacked_maps

    def counting_maps(tables):
        mapped.update(_stack_rows(tables))
        return real_maps(tables)

    monkeypatch.setattr(ideals, "_stacked_maps", counting_maps)
    reports = verify_cor28_thm33(corpus_max=4, statements=("cor28", "thm33"))
    for report in reports.values():
        classified = [c for c in report.cases if c.case_id.startswith("classify:")]
        assert len(classified) == len(standard_corpus(4)) and all(c.ok for c in classified)
    # the product cases classify their products through the same call:
    # c1 x c1 in cor28 and c1 wr c1 in thm33, and the stand-in bases of
    # A5at in thm33
    A5at = group_brace("a5", "almost_trivial")
    products = [group_brace("c1", "trivial")] * 2 + [
        wreath_base(A5at, H)[0] for H in standard_corpus(4) if H.order <= 2]
    assert batched == _each_once(standard_corpus(4), "fast", "exhaustive") + _each_once(products, "fast")
    assert enumerated == Counter(_tables(B) for B in standard_corpus(4))
    # both methods read one map table per brace (the order-1 products
    # classify c1's tables again)
    assert all(mapped[_tables(B)] == 1 for B in standard_corpus(4) if B.order > 1)
    # each product case classifies its own product
    assert [c.info for c in reports["thm33"].cases if c.case_id.startswith("thm33:standin:")] \
        == [f"order={P.order} semiprime" for P in products[2:]]
    assert built == Counter(_tables(B) for B in [*standard_corpus(4), *products])


def test_lemma32_scans_each_corpus_brace_once(monkeypatch):
    batched, built = _count_fast_scans(monkeypatch)
    one = group_brace("c1", "trivial")
    report = verify_lemma32(G=one, corpus_max=4)
    assert report.attempted == 9 and not report.counterexamples
    # the set-up classifies the bottom c1 and each corpus brace once, in
    # one call (c1 is also a corpus brace, so it is classified twice), and
    # the lift cases read those verdicts; the base case classifies the
    # order-1 base through the same call
    corpus = standard_corpus(4)
    assert batched == _each_once(corpus, "fast") + _each_once([one, one], "fast")
    assert built == Counter(_tables(B) for B in corpus) + Counter({_tables(one): 2})


def test_q34_items_search_each_g_once(monkeypatch):
    # the item build of `search q34 --max-order 8 --max-h 2`: one
    # automorphism search per G, one action search per (G, H) pair, and
    # each item holds its action's bare row: no SigmaAction is built
    searches = Counter()
    real = autos._homomorphisms

    def counting(table, target, budget=None):
        searches["automorphisms" if target is table else "actions"] += 1
        return real(table, target, budget)

    def refuse(self):
        raise AssertionError("a SigmaAction was built")

    monkeypatch.setattr(autos, "_homomorphisms", counting)
    monkeypatch.setattr(SigmaAction, "__post_init__", refuse)
    captured = _sweep_items(monkeypatch, search_q34, max_g=8, max_h=2)
    assert len(captured) == 1467
    gs = {G.name for _, _, G, *_ in captured}
    pairs = {(G.name, H.name) for _, _, G, H, *_ in captured}
    assert len(pairs) == 612
    assert searches == {"automorphisms": len(gs), "actions": len(pairs)}
    for _, _, G, H, perms, _ in captured:
        assert isinstance(perms, np.ndarray) and perms.shape == (H.order, G.order)


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
