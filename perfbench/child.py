"""Run one brace-forge CLI command in this fresh process.

    python perfbench/child.py [--sample NAMES] [--trace] [--build-items] -- ARGV...

does what ``python -m brace_forge ARGV...`` does, with three additions
the benchmark needs:

--sample       the sweep's corpus keeps only these comma-separated brace
               names (the seeded inputs of a sampled workload);
--trace        spans of the public entry points are recorded and their
               summary is printed to stderr as one ``PERFBENCH-TRACE``
               JSON line after the command ends;
--build-items  the sweep is called with an ``--only`` id that matches no
               case, so it builds every case, finds none to run and fails
               with exit code 2; the time of that call is printed to
               stderr as ``PERFBENCH-BUILD-ITEMS <seconds>``.

It exits with the CLI's exit code, or 3 when the sample cannot be applied.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

NO_CASE = "perfbench:no-such-case"
TRACE_PREFIX = "PERFBENCH-TRACE "
BUILD_PREFIX = "PERFBENCH-BUILD-ITEMS "
SAMPLE_ERROR = 3


def _apply_sample(names: str) -> list[int]:
    """Make the sweeps see only the named corpus braces; returns a list
    that gets one entry per use, so the caller can tell it took effect."""
    from brace_forge import verify

    keep = set(names.split(","))
    full = verify.standard_corpus
    used: list[int] = []

    def sampled(*args, **kwargs):
        corpus = full(*args, **kwargs)
        missing = keep - {b.name for b in corpus}
        if missing:
            print(f"perfbench: sample names not in the corpus: {sorted(missing)}",
                  file=sys.stderr)
            sys.exit(SAMPLE_ERROR)
        used.append(1)
        return [b for b in corpus if b.name in keep]

    verify.standard_corpus = sampled
    return used


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--build-items", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    used = _apply_sample(args.sample) if args.sample is not None else None
    from brace_forge import cli

    if args.build_items:
        argv = [*argv, "--only", NO_CASE]
    root = tracer.begin() if tracer else None
    t0 = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    sys.stdout.flush()
    if tracer:
        tracer.end(root, "cli")
        print(TRACE_PREFIX + json.dumps(tracer.summary()), file=sys.stderr)
    if args.build_items:
        print(f"{BUILD_PREFIX}{elapsed!r}", file=sys.stderr)
    if used is not None and not used:
        print("perfbench: the sweep never built its corpus; the sample was not applied",
              file=sys.stderr)
        return SAMPLE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
