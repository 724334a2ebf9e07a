import importlib
import io
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from brace_forge import core, serialize_document
from brace_forge.cli import main
from brace_forge.docio import parse_document, parse_documents
from brace_forge.groups import direct_product_table


@pytest.fixture
def r4_file(tmp_path, R4):
    path = tmp_path / "r4.doc"
    path.write_text(serialize_document(R4))
    return str(path)


@pytest.fixture
def pair_file(tmp_path, R4, T2):
    path = tmp_path / "pair.doc"
    path.write_text(serialize_document(R4) + serialize_document(T2))
    return str(path)


def test_validate_ok(r4_file, capsys):
    assert main(["validate", r4_file]) == 0
    out = capsys.readouterr().out
    assert out == "OK order=4\n"


def test_validate_invalid_table(tmp_path, capsys):
    bad = "brace x\norder 2\nadd\n0 1\n1 0\ncirc\n0 1\n1 1\nend\n"
    path = tmp_path / "bad.doc"
    path.write_text(bad)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("INVALID order=2 violations=")
    assert any(line.startswith("violation circ-") for line in lines[1:])


def test_validate_mixed_documents(tmp_path, R4, capsys):
    bad = "brace x\norder 2\nadd\n0 1\n1 0\ncirc\n0 1\n1 1\nend\n"
    path = tmp_path / "mix.doc"
    path.write_text(serialize_document(R4) + bad)
    assert main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "OK order=4"
    assert lines[1].startswith("INVALID")


def test_loaded_documents_are_validated_once(pair_file, monkeypatch):
    calls = []
    real = core.validate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "validate", counting)
    assert main(["semiprime", pair_file]) == 1
    assert len(calls) == 2  # one per document


def test_validate_syntax_error(tmp_path, capsys):
    path = tmp_path / "syn.doc"
    path.write_text("brace x\norder nope\n")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_stdin(monkeypatch, R4, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_document(R4)))
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == "OK order=4\n"


def test_missing_file(capsys):
    assert main(["validate", "/nonexistent/path.doc"]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.doc"
    path.write_text("# nothing here\n")
    assert main(["validate", str(path)]) == 2
    assert "no documents" in capsys.readouterr().err


def test_ideals(r4_file, capsys):
    assert main(["ideals", r4_file]) == 0
    out = capsys.readouterr().out
    assert out == "ideals R4 order=4 count=3\n{0}\n{0,2}\n{0,1,2,3}\n"


def test_ideals_rejects_invalid_brace(tmp_path, capsys):
    bad = "brace x\norder 2\nadd\n0 1\n1 0\ncirc\n0 1\n1 1\nend\n"
    path = tmp_path / "bad.doc"
    path.write_text(bad)
    assert main(["ideals", str(path)]) == 2
    assert "invalid brace:" in capsys.readouterr().err


def test_semiprime_negative(r4_file, capsys):
    assert main(["semiprime", r4_file]) == 1
    assert capsys.readouterr().out == "NOT SEMIPRIME witness {0,2}\n"
    assert main(["semiprime", "--method", "exhaustive", r4_file]) == 1


def test_semiprime_classifies_documents_in_order(tmp_path, R4, T2, A5at, capsys):
    # one batch over mixed orders prints one verdict per document, in order
    path = tmp_path / "mixed.doc"
    path.write_text("".join(serialize_document(b) for b in (A5at, R4, T2, A5at, R4)))
    for method in ("fast", "exhaustive"):
        assert main(["semiprime", "--method", method, str(path)]) == 1
        assert capsys.readouterr().out == (
            "SEMIPRIME\nNOT SEMIPRIME witness {0,2}\nNOT SEMIPRIME witness {0,1}\n"
            "SEMIPRIME\nNOT SEMIPRIME witness {0,2}\n")


def test_exhaustive_semiprime_prints_verdicts_before_the_cap(tmp_path, R4, capsys):
    # the documents before the first order over the ideal cap keep their
    # verdicts, as when each document was checked on its own
    from brace_forge import group_brace
    path = tmp_path / "capped.doc"
    big = group_brace("c130", "trivial")
    path.write_text(serialize_document(R4) + serialize_document(big) + serialize_document(R4))
    assert main(["semiprime", "--method", "exhaustive", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "NOT SEMIPRIME witness {0,2}\n"
    assert "exceeds the ideal enumeration cap 128" in captured.err
    assert main(["semiprime", str(path)]) == 1
    whole = "{" + ",".join(map(str, range(130))) + "}"   # the principal ideal of 1
    assert capsys.readouterr().out.splitlines() == [
        "NOT SEMIPRIME witness {0,2}", f"NOT SEMIPRIME witness {whole}",
        "NOT SEMIPRIME witness {0,2}"]


def test_semiprime_positive(tmp_path, A5at, capsys):
    path = tmp_path / "a5.doc"
    path.write_text(serialize_document(A5at))
    assert main(["semiprime", str(path)]) == 0
    assert capsys.readouterr().out == "SEMIPRIME\n"


def test_quotient(r4_file, T2, capsys):
    assert main(["quotient", "--ideal", "0,2", r4_file]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# coset map 0 1 0 1"
    doc = parse_document("\n".join(lines[1:]) + "\n")
    assert doc.to_brace() == T2


def test_quotient_bad_ideal(r4_file, capsys):
    assert main(["quotient", "--ideal", "0,1", r4_file]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["quotient", "--ideal", "zero", r4_file]) == 2


def test_product_semidirect_trivial(pair_file, R4, T2, capsys):
    assert main(["product", "semidirect", pair_file]) == 0
    doc = parse_document(capsys.readouterr().out)
    assert doc.order == 8
    assert np.array_equal(doc.add, direct_product_table(R4.add, T2.add))
    assert np.array_equal(doc.circ, direct_product_table(R4.circ, T2.circ))


def test_product_semidirect_sigma_file(pair_file, tmp_path, capsys):
    sig = tmp_path / "sigma.txt"
    sig.write_text("# nontrivial action\n0 1 2 3\n0 3 2 1\n")
    assert main(["product", "semidirect", pair_file, "--sigma", str(sig)]) == 0
    doc = parse_document(capsys.readouterr().out)
    assert doc.order == 8
    # twisted circle: (1,0) o (1,1) = (1 o 1, 1) = (0,1) -> label 1
    assert doc.circ[2, 3] == 1


def test_product_sigma_before_file(pair_file, tmp_path, capsys):
    sig = tmp_path / "sigma.txt"
    sig.write_text("0 1 2 3\n0 3 2 1\n")
    assert main(["product", "semidirect", pair_file, "--sigma", str(sig)]) == 0
    after = capsys.readouterr().out
    assert main(["product", "semidirect", "--sigma", str(sig), pair_file]) == 0
    assert capsys.readouterr().out == after


def test_product_wreath_rejects_sigma(pair_file, tmp_path, capsys):
    sig = tmp_path / "sigma.txt"
    sig.write_text("0 1 2 3\n0 3 2 1\n")
    assert main(["product", "wreath", pair_file, "--sigma", str(sig)]) == 2
    assert "unrecognized arguments: --sigma" in capsys.readouterr().err


def test_product_sigma_rejects_bad_grid(pair_file, tmp_path, capsys):
    sig = tmp_path / "sigma.txt"
    sig.write_text("0 1 2 3\n")  # wrong row count
    assert main(["product", "semidirect", pair_file, "--sigma", str(sig)]) == 2
    sig.write_text("0 1 2 3\n1 0 2 3\n")  # valid grid, invalid action
    assert main(["product", "semidirect", pair_file, "--sigma", str(sig)]) == 2


def test_product_wreath(tmp_path, T2, capsys):
    path = tmp_path / "tt.doc"
    path.write_text(serialize_document(T2) + serialize_document(T2))
    assert main(["product", "wreath", str(path)]) == 0
    doc = parse_document(capsys.readouterr().out)
    assert doc.order == 8
    assert np.array_equal(doc.add,
                          direct_product_table(T2.add, T2.add, T2.add))
    assert sum(1 for a in range(1, 8) if doc.circ[a, a] == 0) == 5


def test_product_needs_two(r4_file, capsys):
    assert main(["product", "wreath", r4_file]) == 2
    assert "exactly 2 documents" in capsys.readouterr().err


def test_ybe_check(r4_file, capsys):
    assert main(["ybe", "--check", r4_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "solution R4"
    assert lines[1] == "order 4"
    assert lines[2] == "u"
    assert lines[3:7] == ["0 1 2 3", "0 3 2 1", "0 1 2 3", "0 3 2 1"]
    assert lines[7] == "v"
    assert lines[12] == "end"
    assert "BRAID OK" in lines
    assert "NONDEGENERATE OK" in lines


def test_corpus_group(capsys):
    assert main(["corpus", "enumerate", "--group", "c4"]) == 0
    captured = capsys.readouterr()
    docs = parse_documents(captured.out)
    assert [d.name for d in docs] == ["c4#0", "c4#1"]
    assert "# 2 braces" in captured.err


def test_corpus_standard(capsys):
    assert main(["corpus", "enumerate", "--max-order", "2"]) == 0
    captured = capsys.readouterr()
    docs = parse_documents(captured.out)
    assert [d.name for d in docs] == ["T2", "c1#0"]


def test_corpus_bad_group(capsys):
    for group in ("q8", "s20000"):
        assert main(["corpus", "enumerate", "--group", group]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("group,order", [("c2xc2xc2xc2", 16), ("c3xc3xc3", 27),
                                         ("c2xc2xc2xc4", 32), ("c4xc4xc4", 64)])
def test_corpus_group_with_many_automorphisms_is_refused(capsys, group, order):
    # composing their 11,232 to 86,016 automorphisms would gather 3.4e9 to
    # 4.7e11 entries; the size check refuses it before the gather
    assert main(["corpus", "enumerate", "--group", group, "--max-order", str(order)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: composing ") and captured.err.count("\n") == 1


def test_verify_lemma31_single_case(capsys):
    assert main(["verify", "lemma31", "--only", "lemma31:R4:T2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("CASE lemma31:R4:T2 PASS ideals=13 positions=2\n"
                            "lemma31: 1 cases, 0 counterexamples\n")
    assert "# lemma31 elapsed" in captured.err


def test_verify_lemma31_max_order(capsys):
    assert main(["verify", "lemma31", "--max-order", "2"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("lemma31: 308 cases, 0 counterexamples\n")


def test_verify_cor28_small(capsys):
    assert main(["verify", "cor28", "--max-order", "2"]) == 0
    out = capsys.readouterr().out
    assert "NOTE only order-1 semiprime braces" in out
    assert out.endswith("cor28: 3 cases, 0 counterexamples\n")


def test_search_q34_small(capsys):
    assert main(["search", "q34", "--max-order", "2", "--max-h", "2"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("q34: 2 cases, 0 counterexamples\n")


def _q34_note(max_g, max_h):
    return (f"# note: search q34 takes G and H from the corpus of order <= 8, "
            f"so it searches as --max-order {max_g} --max-h {max_h}\n")


@pytest.mark.parametrize("argv, note", [(["--max-order", "9", "--max-h", "2"], _q34_note(8, 2)),
                                        (["--max-order", "2", "--max-h", "60"], _q34_note(2, 8))],
                         ids=["max-order", "max-h"])
def test_search_q34_notes_the_corpus_bound(capsys, argv, note):
    # G and H come from the corpus of order <= 8, so a bound above 8
    # searches as 8: stderr says so in one line, and stdout is that of
    # the bounds it names
    case = ["--only", "q34:T2:T2:s0"]
    assert main(["search", "q34", *argv, *case]) == 0
    out, err = capsys.readouterr()
    assert err.startswith(note) and err.count("# note:") == 1
    bounds = note.split("searches as ")[1].split()
    assert main(["search", "q34", *bounds, *case]) == 0
    assert capsys.readouterr().out == out == "CASE q34:T2:T2:s0 PASS order=4 not semiprime " \
        "witness={0,1}\nq34: 1 cases, 0 counterexamples\n"


@pytest.mark.parametrize("argv", [[], ["--max-order", "8", "--max-h", "2"]])
def test_search_q34_within_the_corpus_prints_no_note(capsys, argv):
    assert main(["search", "q34", *argv, "--only", "q34:T2:T2:s0"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("# q34 elapsed ") and err.count("\n") == 1


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["verify", "q34"]) == 2  # q34 is under search, not verify
    capsys.readouterr()


def _assert_below_one_rejected(argv, capsys):
    """argv ends with a flag and a value below 1: exit 2 with the flag's
    argparse message, nothing on stdout and no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be at least 1, got {int(argv[-1])}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(jobs, capsys):
    _assert_below_one_rejected(["verify", "lemma31", "--only", "lemma31:R4:T2", "--jobs", jobs],
                               capsys)


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv", [["verify", "cor28", "--max-order"],
                                  ["verify", "lemma32", "--max-order"],
                                  ["search", "q34", "--max-order"],
                                  ["search", "q34", "--max-h"],
                                  ["corpus", "enumerate", "--max-order"],
                                  ["corpus", "enumerate", "--group", "c4", "--max-order"]])
def test_sweep_bounds_below_one_rejected(argv, value, capsys):
    _assert_below_one_rejected(argv + [value], capsys)


@pytest.mark.parametrize("argv", [["search", "q34", "--sigma-budget", "0"],
                                  ["verify", "cor28", "--sigma-budget", "-3"]])
def test_sigma_budget_below_one_rejected(argv, capsys):
    _assert_below_one_rejected(argv, capsys)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "brace-forge" in capsys.readouterr().out


ROOT = Path(__file__).resolve().parent.parent


def _assert_r4_not_semiprime(command, r4_file, env=None):
    proc = subprocess.run(command + ["semiprime", r4_file],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "NOT SEMIPRIME witness {0,2}\n", proc.stderr


def test_installed_entry_point(r4_file):
    """The console script declared in pyproject.toml runs ``cli.main`` and
    exits with its return value, checked from the source tree without an
    install: the child runs the same shim as pip's console-script wrapper."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    target = scripts["brace-forge"]
    assert target == "brace_forge.cli:main"
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    shim = (f"import sys; from {module_name} import {attr}; "
            f"sys.argv[0] = 'brace-forge'; sys.exit({attr}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    _assert_r4_not_semiprime([sys.executable, "-c", shim], r4_file, env=env)


@pytest.mark.skipif(shutil.which("brace-forge") is None,
                    reason="brace-forge console script not installed")
def test_console_script_on_path(r4_file):
    _assert_r4_not_semiprime([shutil.which("brace-forge")], r4_file)


def _group_pids(pgid: int) -> list[int]:
    """The live (not zombie) processes of process group ``pgid``, read from
    /proc: fields 3 and 5 of /proc/<pid>/stat are the state and the group."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except (OSError, ValueError):
            continue
        if entry.isdigit() and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to see the workers")
def test_ctrl_c_ends_a_forked_sweep_without_a_traceback():
    """SIGINT to the process group of a sweep in two processes, as Ctrl-C
    in a terminal sends it, once the worker is forked: the sweep exits
    130 with one error line, and no process of the group is left."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "brace_forge", "search", "q34", "--max-order", "60", "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(_group_pids(proc.pid)) < 2 and proc.poll() is None:
            assert time.monotonic() < deadline, "the sweep forked no worker"
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert "Traceback" not in err
    # the search names its corpus bound first, as --max-order 60 exceeds it
    assert err == _q34_note(8, 4) + "error: interrupted\n"
    assert out == ""
    deadline = time.monotonic() + 10
    while _group_pids(proc.pid):
        assert time.monotonic() < deadline, "a worker outlived the sweep"
        time.sleep(0.05)


def test_sweeps_do_not_import_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` on first use (numpy 2.4); the
    corpus set-up and the cor28 and lemma32 sweeps avoid it, so a fresh
    process never loads that module unless a bare ``import numpy`` does."""
    code = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "bare = 'numpy.ma' in sys.modules\n"
        "import brace_forge\n"
        "from brace_forge.cli import main\n"
        "brace_forge.standard_corpus(8)\n"
        "for args in (['verify', 'cor28'], ['verify', 'lemma32']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(args) == 0\n"
        "    assert bare or 'numpy.ma' not in sys.modules, args\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_star_quotient_and_extension_do_not_import_numpy_ma():
    """``star_product``, ``quotient`` and ``check_semiprime_extension`` take
    distinct labels without ``np.unique``, so a fresh process that calls
    them never loads ``numpy.ma`` unless a bare ``import numpy`` does."""
    code = (
        "import sys\n"
        "import numpy\n"
        "bare = 'numpy.ma' in sys.modules\n"
        "import brace_forge as bf\n"
        "R4 = bf.radical_ring_brace(8, 2)\n"
        "ideal = bf.enumerate_ideals(R4)[1]\n"
        "assert bf.star_product(R4, [2], [2]) == frozenset({0})\n"
        "assert bf.quotient(R4, ideal)[0].order == 2\n"
        "assert bf.check_semiprime_extension(R4, ideal).containment_ok\n"
        "assert bare or 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
