"""Benchmark of the brace-forge CLI sweeps.

    python3 perfbench/run.py --workload lemma31 --seed 1 --seconds 20 --trace 0

Run it from the root of a brace-forge source checkout; it runs the
program from ``src/`` and writes nothing but Python's bytecode caches.

Every timed sweep is a fresh interpreter running one CLI command, one at
a time (a closed loop with one client).  A run repeats rounds of one
set-up process, the sweep at ``--jobs 1`` and the sweep at ``--jobs 2``
until another round would end after ``--seconds``; it always does one,
and it measures set-up at least three times.

The machine this was written on shares its cores with other tenants, and
its speed drifts by 20-40% over minutes: identical runs minutes apart
differed by more than the bounds allow.  So a fixed calibration process
of the benchmark's own (CALIBRATION_CODE, no brace_forge code) runs
between rounds, and every time of a round is scaled by
CALIBRATION_REF_S / (mean calibration time before and after the round):
the reported times are seconds at the reference speed.  The unscaled
medians are printed too, as raw_median.

--trace 0 reports the end-to-end metrics, each the median over the run:
  wall_s        time of the sweep at --jobs 1
  wall_s_jobs2  time of the sweep at --jobs 2
  setup_s       time of a fresh interpreter that imports brace_forge and
                builds standard_corpus(8), which every sweep pays first
  peak_rss_mb   peak resident set of the --jobs 1 sweep (its whole tree)
--trace 1 reports per-layer metrics from rounds of one untraced and one
traced sweep at --jobs 1 and one item build (see tracer.py, child.py).

Every sweep must exit 0 and print exactly the golden report (see
workloads.py); a sweep that does not counts as failed and its time is not
used.  error_rate is failed over attempted processes.  The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics.  ``--workload all`` runs each workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import BUILD_PREFIX, TRACE_PREFIX  # noqa: E402
from workloads import WORKLOADS, GoldenError, expected_stdout, gate, load_golden, sample  # noqa: E402

CHILD = HERE / "child.py"
SETUP_CODE = "import brace_forge; print(len(brace_forge.standard_corpus(8)))"
SETUP_STDOUT = b"307\n"
# A fixed process of the benchmark's own, independent of brace_forge, with
# the sweeps' mix: interpreter start, numpy import, a Python loop, numpy
# calls on small arrays and gathers on a 2048x2048 int16 table (the large
# workload's tables are 3600x3600 int16).  Timed between rounds.
CALIBRATION_CODE = """import numpy as np
t = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) * 7 % 61
s = 0
for i in range(300000):
    s += i * i % 7
for i in range(4000):
    s += int(np.unique(t[t[i % 64], :8].ravel()).size)
big = (np.arange(2048 * 2048, dtype=np.int64).reshape(2048, 2048) % 2039).astype(np.int16)
perm = (np.arange(2048) * 5 + 3) % 2048
for i in range(8):
    big = big[perm[:, None], perm[None, :]]
s += int(big[5, 7]) + int(big.sum(dtype=np.int64) % 1000)
print(s)
"""
CALIBRATION_STDOUT = b"846005\n"
# Wall time of the calibration process on the machine the benchmark was
# defined on (2 cores, Python 3.11.7, numpy 2.4.6): the reference speed.
CALIBRATION_REF_S = 0.75
MIN_SETUPS = 3
PROCESS_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("wall_s_jobs2", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _span(name, key):
    return lambda s, extra: s.get(name, {}).get(key, 0)


def _ratio(name, num, den):
    def get(s, extra):
        row = s.get(name, {})
        return row.get(num, 0) / row[den] if row.get(den) else 0.0
    return get


def _calls_self(name):
    return ((f"{name}.calls", "count", _span(name, "calls")),
            (f"{name}.self_s", "s", _span(name, "self_s")))


# (metric, unit, value from the trace summary and the extra measurements)
PER_LAYER = (
    *_calls_self("ideals.enumerate_ideals"),
    ("ideals.enumerate_ideals.ideals_found", "count",
     _span("ideals.enumerate_ideals", "ideals_found")),
    *_calls_self("ideals.is_ideal"),
    ("ideals.is_ideal.accept_ratio", "ratio", _ratio("ideals.is_ideal", "accepted", "calls")),
    *_calls_self("ideals.is_semiprime_fast"),
    *_calls_self("ideals.is_semiprime_exhaustive"),
    *_calls_self("core.validate_fast"),
    *_calls_self("core.validate_exhaustive"),
    *_calls_self("products.wreath_base"),
    *_calls_self("products.semidirect"),
    *_calls_self("autos.skew_automorphisms"),
    ("autos.skew_automorphisms.found", "count", _span("autos.skew_automorphisms", "found")),
    ("autos.skew_automorphisms.perms_tested", "count",
     _span("autos.skew_automorphisms", "perms_tested")),
    ("autos.skew_automorphisms.distinct_ratio", "ratio",
     _ratio("autos.skew_automorphisms", "distinct", "calls")),
    *_calls_self("autos.sigma_actions"),
    ("autos.sigma_actions.actions", "count", _span("autos.sigma_actions", "actions")),
    *_calls_self("docio.serialize_document"),
    ("corpus.standard_corpus.self_s", "s", _span("corpus.standard_corpus", "self_s")),
    ("corpus.holomorph_enumerate.self_s", "s", _span("corpus.holomorph_enumerate", "self_s")),
    ("verify.self_s", "s", _span("verify", "self_s")),
    ("verify.build_items_s", "s", lambda s, extra: extra["build_items_s"]),
    ("cli.self_s", "s", _span("cli", "self_s")),
    ("trace.overhead_ratio", "ratio", lambda s, extra: extra["overhead_ratio"]),
)


# ---------------------------------------------------------------------------
# processes

@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: str
    load_before: tuple[float, ...]
    load_after: tuple[float, ...]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BRACE_FORGE_MAX_ORDER", None)   # the golden reports use the default cap
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(cmd: list[str], env: dict[str, str]) -> Proc:
    """Run ``cmd`` to completion in its own process group; time it from
    outside and take its peak RSS (children included) from wait4."""
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, start_new_session=True)
    timer = threading.Timer(PROCESS_TIMEOUT_S, _stop_group, (proc.pid,))
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()), daemon=True)
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        _stop_group(proc.pid)   # pool workers left behind by a failed sweep
        if proc.returncode is None:
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, out,
                b"".join(err).decode(errors="replace"), load_before, os.getloadavg())


def _last_line(text: str, prefix: str) -> str | None:
    for line in reversed(text.splitlines()):
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


# ---------------------------------------------------------------------------
# one workload

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    values: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)   # times before scaling

    def add(self, metric: str, value: float, raw: float | None = None) -> None:
        self.values.setdefault(metric, []).append(value)
        if raw is not None:
            self.raw.setdefault(metric, []).append(raw)


class CalibrationError(Exception):
    """The calibration process failed; the machine cannot be measured."""


def _calibrate(env: dict[str, str]) -> float:
    p = launch([sys.executable, "-c", CALIBRATION_CODE], env)
    if p.code or p.stdout != CALIBRATION_STDOUT:
        raise CalibrationError(f"calibration exit code {p.code}, stdout {p.stdout[:40]!r}")
    print(f"calibration wall_s={p.wall_s!r}")
    return p.wall_s


def _fmt_load(load: tuple[float, ...]) -> str:
    return "/".join(f"{x:.2f}" for x in load)


def run_workload(name: str, seed: int, seconds: float, trace: bool, goldens) -> Tally:
    workload = WORKLOADS[name]
    keep = sample(workload, seed, goldens)
    expected, n_cases = expected_stdout(goldens[name], keep)
    print(f"workload {name} seed={seed} cases={n_cases} "
          f"sample={','.join(sorted(keep)) if keep else 'full corpus'}")
    env = _child_env()
    sample_args = ["--sample", ",".join(sorted(keep))] if keep else []
    setup_cmd = [sys.executable, "-c", SETUP_CODE]

    def sweep_cmd(jobs: int, *flags: str) -> list[str]:
        return [sys.executable, str(CHILD), *flags, *sample_args, "--",
                *workload.argv, "--jobs", str(jobs)]

    def check_sweep(p: Proc) -> str | None:
        return f"exit code {p.code}" if p.code else gate(p.stdout, expected)

    def check_setup(p: Proc) -> str | None:
        if p.code:
            return f"exit code {p.code}"
        return None if p.stdout == SETUP_STDOUT else f"stdout {p.stdout[:40]!r}"

    def check_build(p: Proc) -> str | None:
        ended = p.code == 2 and "no case matches" in p.stderr
        return None if ended and _last_line(p.stderr, BUILD_PREFIX) else "item build did not end as expected"

    tally = Tally()

    def run(kind: str, cmd: list[str], check) -> Proc | None:
        """Launch and gate one process; returns it if it passed the gate."""
        p = launch(cmd, env)
        problem = check(p)
        tally.attempted += 1
        tally.failed += problem is not None
        print(f"proc {tally.attempted} {kind} wall_s={p.wall_s!r} rss_mb={p.rss_mb:.1f} "
              f"load={_fmt_load(p.load_before)}->{_fmt_load(p.load_after)} "
              f"{'ok' if problem is None else f'FAILED ({problem})'}")
        if problem is not None:
            for line in p.stderr.strip().splitlines()[-3:]:
                print(f"  stderr: {line[:300]}")
            return None
        return p

    # compiles the bytecode and fills the file cache, which a CLI user pays once
    if not run("warm-up", setup_cmd, check_setup):
        return tally
    calibration = None if trace else _calibrate(env)
    metric_of = {"setup": "setup_s", "jobs1": "wall_s", "jobs2": "wall_s_jobs2"}

    def timed_round(kinds: tuple[str, ...]) -> None:
        """Run the processes of one round, then calibrate; each time is
        scaled by the mean of the calibrations before and after the round."""
        nonlocal calibration
        cmds = {"setup": (setup_cmd, check_setup), "jobs1": (sweep_cmd(1), check_sweep),
                "jobs2": (sweep_cmd(2), check_sweep)}
        done = [(kind, run(kind, *cmds[kind])) for kind in kinds]
        after = _calibrate(env)
        scale = CALIBRATION_REF_S / ((calibration + after) / 2)
        calibration = after
        for kind, p in done:
            if p is not None:
                tally.add(metric_of[kind], p.wall_s * scale, p.wall_s)
                if kind == "jobs1":
                    tally.add("peak_rss_mb", p.rss_mb)

    start = time.perf_counter()
    rounds = 0
    while True:
        begun = time.perf_counter()
        if trace:
            plain = run("jobs1", sweep_cmd(1), check_sweep)
            traced = run("traced", sweep_cmd(1, "--trace"), check_sweep)
            build = run("build-items", sweep_cmd(1, "--build-items"), check_build)
            summary = traced and _last_line(traced.stderr, TRACE_PREFIX)
            if plain and summary and build:
                spans = json.loads(summary)
                extra = {"build_items_s": float(_last_line(build.stderr, BUILD_PREFIX)),
                         "overhead_ratio": traced.wall_s / plain.wall_s}
                for metric, _, get in PER_LAYER:
                    tally.add(metric, float(get(spans, extra)))
        else:
            timed_round(("setup", "jobs1", "jobs2"))
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            break
    for _ in range(0 if trace else MIN_SETUPS - rounds):
        timed_round(("setup",))
    print(f"rounds {rounds} in {time.perf_counter() - start:.1f}s")
    return tally


# ---------------------------------------------------------------------------
# reporting

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> dict:
    src = Path("src")
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if Path(".git").exists():   # a source checkout need not be a git repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "numpy": numpy,
            "cpu_count": os.cpu_count(), "loadavg": os.getloadavg()}


def report(name: str, tally: Tally, trace: bool) -> dict:
    units = dict((m, u) for m, u, _ in PER_LAYER) if trace else dict(END_TO_END)
    metrics = {}
    for metric, unit in units.items():
        values = tally.values.get(metric)
        if not values:
            print(f"metric {name} {metric} no valid sample unit={unit}")
            continue
        q1, med, q3 = quartiles(values)
        metrics[metric] = {"value": med, "unit": unit}
        raw = f" raw_median={statistics.median(tally.raw[metric])!r}" if metric in tally.raw else ""
        print(f"metric {name} {metric} median={med!r} q1={q1!r} q3={q3!r} "
              f"n={len(values)} unit={unit}{raw}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"metric {name} error_rate value={rate!r} unit=ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the brace-forge CLI sweeps.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "brace_forge" / "__init__.py").is_file():
        print("perfbench: src/brace_forge not found; run from the root of a "
              "brace-forge source checkout", file=sys.stderr)
        return 2
    try:
        goldens = {name: load_golden(w) for name, w in WORKLOADS.items()}
    except GoldenError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    complete = True
    for name in names:
        try:
            tally = run_workload(name, args.seed, args.seconds, bool(args.trace), goldens)
        except CalibrationError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        found = report(name, tally, bool(args.trace))
        expected = len(PER_LAYER) if args.trace else len(END_TO_END)
        complete &= len(found) == expected
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}/" if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(f"env loadavg_end={list(os.getloadavg())}")
    print(json.dumps({"correct": failed == 0 and complete, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
