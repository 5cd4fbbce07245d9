"""The fresh-interpreter side of one measurement.

run.py starts this file in a new interpreter for every campaign and for
every query loop, so lexbs caches start cold each time.  It prints one
JSON object on its last stdout line.

    child.py [--trace SPANS] campaign -- <lexbs argv...>
    child.py --seed N --count K [--trace SPANS] queries

run.py repeats the same pass in several fresh interpreters and combines
the passes item by item, so both modes report the start and time of
every item in a fixed order, and the reference probes taken while it
ran (probe.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time

import gate
import probe
import querygen
import tracing


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _layers(tracer: tracing.Tracer, path: str) -> dict:
    tracer.recording = False
    tracer.spans.dump(path)
    return {
        "self_times": tracing.self_times(tracer.spans),
        "caches": tracing.cache_counters(),
        "spans": len(tracer.spans),
    }


def _mark_ideals(marks: list[float]) -> None:
    """Record the clock each time run_campaign asks for the next ideal.

    Between two marks lie the enumeration step, the checks and the merge
    of one ideal.  A serial campaign is deterministic, so the k-th
    interval holds the same work in every pass.  The extra generator
    costs well under a microsecond per ideal, against milliseconds of
    checks.
    """
    import lexbs.enumeration as enumeration

    inner = enumeration.enumerate_artinian_lex
    clock = time.perf_counter

    def marked(*args, **kwargs):
        marks.append(clock())
        for ideal in inner(*args, **kwargs):
            yield ideal
            marks.append(clock())

    enumeration.enumerate_artinian_lex = marked


def campaign(argv: list[str], trace: str | None) -> dict:
    import lexbs.cli

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    marks: list[float] = []
    _mark_ideals(marks)
    probes = probe.Probes()
    out = io.StringIO()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if not tracer:  # a probe would add its time to the span it lands in
        probes.start()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = lexbs.cli.main(argv)
    t1 = time.perf_counter()
    probed = probes.stop()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    # items: the set-up before the first ideal, every ideal, the output
    starts, ends = [t0, *marks], [*marks, t1]
    result = {
        "code": code,
        "stdout": out.getvalue(),
        "wall_s": t1 - t0,
        "starts_s": starts,
        "times_s": [b - a for a, b in zip(starts, ends)],
        **probed,
        "parent_cpu_s": _cpu(self1) - _cpu(self0),
        "worker_cpu_s": _cpu(kids1) - _cpu(kids0),
    }
    if tracer:
        result["layers"] = _layers(tracer, trace)
    return result


def _one_query(main, req) -> tuple[float, float, object, str]:
    """Run one request in process; returns (start, seconds, exit code,
    stdout).

    The exit code is the exception itself when the call raised.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(req.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the request failed; the loop goes on
        code = exc
    return t0, time.perf_counter() - t0, code, out.getvalue()


def queries(seed: int, count: int, trace: str | None) -> dict:
    import lexbs.cli

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    probes = probe.Probes()
    starts, latencies, failures, argvs = [], [], [], []
    incorrect = 0
    if not tracer:
        probes.start()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for req in itertools.islice(querygen.stream(seed), count):
        # looked up per call: the tracer may have rebound it
        start, dt, code, stdout = _one_query(lexbs.cli.main, req)
        if isinstance(code, BaseException):
            problem = f"raised {type(code).__name__}: {str(code)[:120]}"
        else:
            problem = gate.query_problem(req, code, stdout)
            incorrect += problem is not None
        if problem is not None:
            failures.append(
                {"index": len(argvs), "argv": list(req.argv), "kind": req.kind,
                 "problem": problem}
            )
        argvs.append(req.argv)
        starts.append(start)
        latencies.append(dt)
    wall = time.perf_counter() - t0
    probed = probes.stop()
    result = {
        "wall_s": wall,
        "parent_cpu_s": _cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(self0),
        "worker_cpu_s": 0.0,
        "attempted": len(argvs),
        "failed": len(failures),
        "incorrect": incorrect,
        "failures": failures,
        "busy_s": sum(latencies),
        "starts_s": starts,
        "times_s": latencies,  # in request order, failed ones too
        **probed,
        "argv_digest": querygen.argv_digest(argvs),
    }
    if tracer:
        result["layers"] = _layers(tracer, trace)
    return result


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("campaign", "queries"))
    p.add_argument("--trace", help="write spans to this file")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("argv", nargs="*")
    args = p.parse_args()
    if args.mode == "campaign":
        result = campaign(args.argv, args.trace)
    else:
        result = queries(args.seed, args.count, args.trace)
    # this process or any pool worker it reaped, whichever peaked higher
    result["maxrss_kb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
