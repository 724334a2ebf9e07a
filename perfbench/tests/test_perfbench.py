"""Tests of the benchmark's own code: python -m pytest perfbench/tests"""

import json
import re
from pathlib import Path

import pytest

import run
import tracer
from workloads import WORKLOADS, expected_stdout, gate, load_golden, sample

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == [(m, u) for m, u, _ in run.PER_LAYER]
    names = [n for n, _ in end_to_end + per_layer] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def goldens():
    return {name: load_golden(w) for name, w in WORKLOADS.items()}


def test_golden_report_passes_the_gate(goldens):
    text, cases = expected_stdout(goldens["cor28"], None)
    assert cases == WORKLOADS["cor28"].cases
    assert gate(text.encode(), text) is None


def test_corrupted_stdout_trips_the_gate(goldens):
    text, _ = expected_stdout(goldens["cor28"], None)
    flipped = text.replace("PASS", "FAIL", 1)
    assert "line 2" in gate(flipped.encode(), text)
    dropped = "".join(text.splitlines(keepends=True)[:-2]) + text.splitlines(keepends=True)[-1]
    assert "307 cases, expected 308" in gate(dropped.encode(), text)
    assert gate(text.encode() + b"\n", text) is not None


def test_samples_are_seeded_and_restrict_the_golden(goldens):
    for name in ("lemma31", "q34-wide"):
        keep = sample(WORKLOADS[name], 7, goldens)
        assert keep == sample(WORKLOADS[name], 7, goldens)
        assert keep != sample(WORKLOADS[name], 8, goldens)
        text, cases = expected_stdout(goldens[name], keep)
        assert 0 < cases < WORKLOADS[name].cases
        assert text.endswith(f": {cases} cases, 0 counterexamples\n")


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    inner = t.wrap(lambda: None, lambda a, k, r: ("inner", {}), "inner")

    def body():
        inner()     # 1.0 -> 3.0
        inner()     # 4.0 -> 7.0

    outer = t.wrap(body, lambda a, k, r: ("outer", {"n": 1}), "outer")
    outer()         # 0.0 -> 10.0
    s = t.summary()
    assert s["outer"] == {"calls": 1, "inclusive_s": 10.0, "self_s": 5.0, "n": 1}
    assert s["inner"] == {"calls": 2, "inclusive_s": 5.0, "self_s": 5.0}


def test_failed_call_keeps_its_span():
    ticks = iter([0.0, 2.0])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        t.wrap(boom, None, "ideals.boom")()
    assert t.summary()["ideals.boom"]["self_s"] == 2.0
