"""The four sweep workloads, their seeded inputs and the correctness gate.

``golden/<name>.txt`` is the stdout of the full default sweep
``python -m brace_forge <argv>`` at commit 1caf3e0, the commit this
benchmark was defined on.  Its sha256 and case count are pinned below, so
the golden files cannot drift.

Two workloads are too long at their defaults to be timed several times
within one run (lemma31 takes ~2 minutes, q34 at base order 8 about one),
so they run on a seeded sub-corpus: the sweep's own corpus with some
order-8 braces left out.  The expected stdout of such a run is the golden
stdout restricted to the cases whose braces were kept, in the same order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]       # CLI arguments after `python -m brace_forge`
    cases: int                  # case count of the full default sweep
    golden_sha256: str
    sampled: bool               # run on a seeded sub-corpus


WORKLOADS = {w.name: w for w in (
    Workload("lemma31", ("verify", "lemma31"), 944,
             "826d11a5e848141f69e7adb9d95aff1039b0fb3e702a12137db1b679f691852a", True),
    Workload("lemma32", ("verify", "lemma32"), 307,
             "174f7b9128a2c8bf0024cdadd10e1b8066fa7d7fcf20d39d75e1cd3dcca9aab5", False),
    Workload("q34-wide", ("search", "q34", "--max-order", "8", "--max-h", "2"), 1467,
             "879ae372c919bb984dd79309175a9664991ed2edb81bf8a1ea11d15691668dcc", True),
    Workload("cor28", ("verify", "cor28"), 308,
             "74e95320784ef5fc63754a43f9b2a9d26ce6d60dc36d43c62ac829f7e78efba7", False),
)}


class GoldenError(Exception):
    """A golden file is missing or does not match its pinned digest."""


@dataclass(frozen=True)
class Golden:
    notes: tuple[str, ...]      # NOTE lines, printed before the cases
    cases: tuple[str, ...]      # CASE lines in sweep order
    statement: str              # the word before ':' in the summary line


def load_golden(workload: Workload) -> Golden:
    path = GOLDEN_DIR / f"{workload.name}.txt"
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise GoldenError(f"cannot read {path}: {exc}") from None
    if hashlib.sha256(data).hexdigest() != workload.golden_sha256:
        raise GoldenError(f"{path} does not match its pinned sha256")
    lines = data.decode().splitlines()
    notes = tuple(l for l in lines if l.startswith("NOTE "))
    cases = tuple(l for l in lines if l.startswith("CASE "))
    summary = [l for l in lines if not l.startswith(("NOTE ", "CASE "))]
    if len(cases) != workload.cases or len(summary) != 1:
        raise GoldenError(f"{path}: expected {workload.cases} cases and one summary line")
    return Golden(notes, cases, summary[0].split(":")[0])


def case_braces(line: str) -> tuple[str, str]:
    """(G, H) names of a golden `CASE <statement>:<G>:<H>[:s<i>] ...` line."""
    parts = line.split()[1].split(":")
    return parts[1], parts[2]


def expected_stdout(golden: Golden, keep: frozenset[str] | None) -> tuple[str, int]:
    """Stdout of the sweep on the sub-corpus ``keep`` (None: full corpus),
    and its case count."""
    cases = [l for l in golden.cases
             if keep is None or all(b in keep for b in case_braces(l))]
    lines = [*golden.notes, *cases,
             f"{golden.statement}: {len(cases)} cases, 0 counterexamples"]
    return "".join(l + "\n" for l in lines), len(cases)


def gate(stdout: bytes, expected: str) -> str | None:
    """None when the sweep printed exactly the expected report, else why not."""
    if hashlib.sha256(stdout).digest() == hashlib.sha256(expected.encode()).digest():
        return None
    got = stdout.decode(errors="replace").splitlines()
    want = expected.splitlines()
    got_cases = sum(l.startswith("CASE ") for l in got)
    want_cases = sum(l.startswith("CASE ") for l in want)
    if got_cases != want_cases:
        return f"stdout digest differs: {got_cases} cases, expected {want_cases}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"stdout digest differs at line {i + 1}: {g!r}, expected {w!r}"
    return "stdout digest differs in length"


# ---------------------------------------------------------------------------
# seeded sub-corpora

def _systematic(names: list[str], k: int, rng: random.Random) -> list[str]:
    """k names spread evenly over ``names`` from a random offset, so every
    seed draws the same mix of neighbouring (similar) braces."""
    step = len(names) / k
    start = rng.random() * step
    return [names[int(start + j * step)] for j in range(k)]


def _order8(goldens: dict[str, Golden]) -> list[str]:
    """Order-8 corpus braces in corpus order, read off the q34 golden,
    whose trivial-H cases print order=|G|."""
    out = []
    for line in goldens["q34-wide"].cases:
        g, h = case_braces(line)
        if h == "c1#0" and line.split()[1].endswith(":s0") and " order=8 " in line:
            out.append(g)
    return out


# lemma31: base ideal counts of (G, T2) for order-8 G, as four strata with
# the number of braces drawn from each.  The ideal count sets the cost of
# enumerate_ideals on the order-64 base.  The one 2825-ideal base (the
# trivial brace on c2^3, ~23 s alone) is left out; c5#0 keeps T2^5, an
# elementary-abelian base with 374 ideals, in every sample.
LEMMA31_FIXED = ("c1#0", "T2", "c5#0")
LEMMA31_STRATA = ((200, 240, 1), (90, 100, 3), (20, 30, 3), (0, 20, 3))
# q34-wide: every brace below order 8 plus this many order-8 bases; each
# order-8 base costs two 7!-permutation automorphism searches.
Q34_ORDER8 = 12


def sample(workload: Workload, seed: int, goldens: dict[str, Golden]) -> frozenset[str] | None:
    """Corpus brace names the sweep keeps for this seed; None for all."""
    if not workload.sampled:
        return None
    rng = random.Random(f"{workload.name}:{seed}")
    order8 = _order8(goldens)
    if workload.name == "q34-wide":
        small = {g for line in goldens["q34-wide"].cases for g in case_braces(line)}
        small -= set(order8)
        return frozenset(small | set(_systematic(order8, Q34_ORDER8, rng)))
    ideals = {}
    for line in goldens["lemma31"].cases:
        g, h = case_braces(line)
        if h == "T2" and g in order8:
            ideals[g] = int(line.split("ideals=")[1].split()[0])
    keep = set(LEMMA31_FIXED)
    for low, high, k in LEMMA31_STRATA:
        stratum = [g for g in order8 if low <= ideals[g] < high]
        keep.update(_systematic(stratum, k, rng))
    return frozenset(keep)
