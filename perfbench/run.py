"""Benchmark for lexbs: campaign throughput and single-ideal query
latency, with per-layer traces.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports lexbs from ./src and
changes no source there.  Every measurement runs in a fresh interpreter
(child.py), so lexbs caches start cold, as in every `lexbs` call.  A run
repeats the same pass of work for --seconds.  Each ideal or request is
timed in every pass, scaled to the reference speed of the probes taken
around it (probe.py), and reported as its median over the passes.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a traced run.  The last stdout line is one JSON object; the lines
before it repeat the metrics for people, with the run's provenance and
every failing operation.  A full record goes to perfbench/out/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import probe
import querygen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# workload -> lexbs argv; None marks the in-process query loop
WORKLOADS = {
    "campaign": ["enumerate", "--max-deg", "6", "--machine"],
    "queries": None,
}
# The parallel sweep behind the enumeration CPU split of a traced campaign
# run; its rows are gated against expected/sweep.tsv.
SWEEP = [
    "enumerate", "--max-deg", "8", "--jobs", "2",
    "--checks", "ek_vs_cone", "--machine",
]
SWEEP_JOBS = 2
# Requests in one query pass: two blocks.  Every request is timed once
# per pass, so a longer pass would mean fewer passes in a run; with two
# blocks p99 has four samples beyond it, but they are always the same
# deep requests, and each is timed in every pass.
QUERY_COUNT = 2 * querygen.BLOCK
MIN_PASSES = 3
# lexbs.cli imports timed after each pass, for setup_s
SETUP_PER_PASS = 2

END_TO_END = {
    "setup_s": "s",
    "ideals_per_s": "1/s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

CHECK_FUNCTIONS = (
    "check_colon_prefix",
    "check_tail_agreement",
    "check_excluded_family_tails",
    "check_cone_assembly",
    "check_lex_dominance",
    "check_split_identities",
    "explain_chain",
)
IDEAL_FUNCTIONS = (
    "is_stable",
    "is_lex_segment",
    "is_artinian",
    "colon_variable",
    "add_variable",
    "split_x",
    "lexify",
    "minimalize",
    "contains",
    "hilbert_value",
)
SETUP_PROBE = (
    "import time, probe; p = probe.Probes(); before = [probe.sample() for _ in range(5)]; "
    "t = time.perf_counter(); import lexbs.cli; dt = time.perf_counter() - t; "
    "after = [probe.sample() for _ in range(5)]; print(dt, *before, *after)"
)
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    u = {
        "verify.chain_of.calls": "count",
        "verify.chain_of.hit_ratio": "ratio",
        "verify.chain_of.misses": "count",
    }
    for fn in CHECK_FUNCTIONS:
        u[f"verify.{fn}.calls"] = "count"
        u[f"verify.{fn}.self_s"] = "s"
    for fn in IDEAL_FUNCTIONS:
        u[f"ideal.{fn}.calls"] = "count"
        u[f"ideal.{fn}.self_s"] = "s"
    u["ideal._members.hit_ratio"] = "ratio"
    u["ideal._members.misses"] = "count"
    for fn in ("betti.ek_betti", "betti.mapping_cone_betti", "decompose.bs_decompose"):
        u[f"{fn}.calls"] = "count"
        u[f"{fn}.self_s"] = "s"
    u["pure.top_degree_sequence.self_s"] = "s"
    u["pure.pure_diagram.hit_ratio"] = "ratio"
    u["enumeration.enumerate_artinian_lex.self_s"] = "s"
    u["enumeration.parent_cpu_s"] = "s"
    u["enumeration.parent_idle_s"] = "s"
    u["enumeration.worker_cpu_s"] = "s"
    u["enumeration.worker_utilization"] = "ratio"
    u["monomial.monomials_of_degree.misses"] = "count"
    for fn in ("parse_ideal", "render_betti", "render_summand", "main"):
        u[f"cli.{fn}.self_s"] = "s"
    u["trace.overhead_ratio"] = "ratio"
    return u


# ----- running children -----------------------------------------------------


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def _env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = str(seed)
    return env


def _spawn(args: list[str], seed: int, deadline: Deadline) -> str:
    """Run a child interpreter to completion; returns its stdout.

    The child leads its own process group, so a timeout kills it together
    with any pool workers, and all of them are waited for.
    """
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=_env(seed),
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline.left()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {args[:2]} ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited with {proc.returncode}")
    return out


def _child(args: list[str], seed: int, deadline: Deadline) -> dict:
    out = _spawn([str(BENCH / "child.py"), *args], seed, deadline)
    return json.loads(out.splitlines()[-1])


def import_time(seed: int, deadline: Deadline) -> float:
    """Seconds to import lexbs.cli in a fresh interpreter, at the
    reference speed of the probes taken just before and after."""
    dt, *probes = map(float, _spawn(["-c", SETUP_PROBE], seed, deadline).split())
    return dt * probe.REF_S / statistics.median(probes)


def nearest_rank(sorted_values, q: float) -> float:
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


# ----- workloads -------------------------------------------------------------


def campaign_failures(r: dict, argv: list[str], expected: str) -> list[dict]:
    bad = gate.campaign_mismatches(r["stdout"], expected)
    if r["code"] != 0:
        bad.insert(0, f"exit code {r['code']}")
    return [{"argv": ["lexbs", *argv], "problem": "; ".join(bad)}] if bad else []


def repeat(one_pass, seconds: float, seed: int, deadline: Deadline):
    """Run one_pass() until the next pass would end after `seconds`, and
    at least MIN_PASSES times; returns the passes and the set-up samples.

    SETUP_PER_PASS imports of lexbs.cli are timed after every pass, so
    their median covers the whole run.  One discarded import comes first:
    it builds the bytecode cache, which users of an installed package
    never pay for.
    """
    import_time(seed, deadline)
    start = time.monotonic()
    runs, setup = [], []
    while True:
        t = time.monotonic()
        runs.append(one_pass())
        setup += [import_time(seed, deadline) for _ in range(SETUP_PER_PASS)]
        took = time.monotonic() - t
        if len(runs) >= MIN_PASSES and (
            time.monotonic() - start + took > seconds or deadline.left() < 2 * took
        ):
            return runs, setup


def scaled(r: dict) -> list[float]:
    """Each item's time in one pass, without the probes that ran inside
    it, at the reference speed: scaled by probe.REF_S over the median of
    the probe.NEAR probes nearest to its middle."""
    at, took = r["probe_at"], r["probe_took"]
    half = probe.NEAR // 2
    out = []
    for start, t in zip(r["starts_s"], r["times_s"]):
        own = sum(took[bisect.bisect_left(at, start) : bisect.bisect_left(at, start + t)])
        j = bisect.bisect(at, start + t / 2)
        lo = min(max(0, j - half), max(0, len(at) - probe.NEAR))
        local = statistics.median(took[lo : lo + probe.NEAR])
        out.append((t - own) * probe.REF_S / local)
    return out


def item_times(runs: list[dict]) -> list[float]:
    """Per item, the median over the passes of its time at reference speed.

    Every pass runs the same items on cold caches, so an item holds the
    same work in each.  Scaling by the probes takes out most of what the
    neighbours add; the median over passes, taken seconds apart, takes
    out most of the rest.
    """
    return [statistics.median(ts) for ts in zip(*(scaled(r) for r in runs))]


def busy_record(runs: list[dict]) -> dict:
    """How busy the host was: the median probe of each pass, and the
    item times the run would report without scaling."""
    raw = [statistics.median(ts) for ts in zip(*(r["times_s"] for r in runs))]
    return {
        "probe_median_ms": [
            round(1000 * statistics.median(r["probe_took"]), 4) for r in runs
        ],
        "unscaled_total_s": sum(raw),
    }


def run_campaigns(workload: str, seed: int, seconds: float, deadline: Deadline):
    """Passes of the whole campaign, each in a fresh interpreter.

    The campaign is timed per ideal; ideals_per_s divides the ideal count
    by the summed times of the set-up, every ideal and the output, and
    the latencies are the times of the single ideals.
    """
    argv = WORKLOADS[workload]
    expected = gate.expected_rows(workload)
    ideals = int(expected.splitlines()[0].split("\t")[1])
    runs, setup = repeat(
        lambda: _child(["campaign", "--", *argv], seed, deadline),
        seconds, seed, deadline,
    )
    failures = []
    for r in runs:
        failures += campaign_failures(r, argv, expected)
        if len(r["times_s"]) != ideals + 2:
            failures.append({"argv": ["lexbs", *argv], "problem": "ideal count"})
    times = item_times(runs)
    per_ideal = sorted(times[1:-1])
    total = sum(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "ideals_per_s": ideals / total,
        "queries_per_s": 1 / total,
        "latency_p50_ms": 1000 * nearest_rank(per_ideal, 0.50),
        "latency_p99_ms": 1000 * nearest_rank(per_ideal, 0.99),
    }
    record = {
        "passes": len(runs),
        "samples": len(per_ideal),
        "setup_samples": len(setup),
        "pass_walls_s": [round(r["wall_s"], 3) for r in runs],
        "total_s": total,
        **busy_record(runs),
        "argv_digest": querygen.argv_digest([argv]),
        "maxrss_kb": max(r["maxrss_kb"] for r in runs),
    }
    return metrics, len(runs), len(failures), failures, len(failures), record


def run_queries(seed: int, seconds: float, deadline: Deadline):
    """Passes over the same QUERY_COUNT requests, each in a fresh
    interpreter.  A request that fails in any pass counts as slower than
    every limit."""
    args = ["--seed", str(seed), "--count", str(QUERY_COUNT), "queries"]
    runs, setup = repeat(
        lambda: _child(args, seed, deadline), seconds, seed, deadline
    )
    times = item_times(runs)
    failed_at: dict[int, dict] = {}
    for r in runs:
        for f in r["failures"]:
            failed_at.setdefault(f["index"], {**f, "passes": 0})["passes"] += 1
    lat = sorted(math.inf if i in failed_at else t for i, t in enumerate(times))
    completed = len(times) - len(failed_at)
    metrics = {
        "setup_s": statistics.median(setup),
        "ideals_per_s": completed / sum(times),
        "queries_per_s": completed / sum(times),
        "latency_p50_ms": 1000 * nearest_rank(lat, 0.50),
        "latency_p99_ms": 1000 * nearest_rank(lat, 0.99),
    }
    failures = [
        {
            "argv": f["argv"],
            "problem": f"{f['problem']} (in {f['passes']} of {len(runs)} passes)",
        }
        for _, f in sorted(failed_at.items())
    ]
    record = {
        "passes": len(runs),
        "samples": len(times),
        "setup_samples": len(setup),
        "pass_busy_s": [round(r["busy_s"], 3) for r in runs],
        "total_s": sum(times),
        **busy_record(runs),
        "argv_digest": runs[0]["argv_digest"],
        "maxrss_kb": max(r["maxrss_kb"] for r in runs),
    }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    incorrect = sum(r["incorrect"] for r in runs)
    return metrics, attempted, failed, failures, incorrect, record


def end_to_end(workload: str, seed: int, seconds: float, deadline: Deadline):
    if workload == "queries":
        out = run_queries(seed, seconds, deadline)
    else:
        out = run_campaigns(workload, seed, seconds, deadline)
    metrics, attempted, failed, failures, incorrect, record = out
    metrics["peak_rss_mb"] = record["maxrss_kb"] / 1024
    return metrics, attempted, failed, failures, incorrect, record


def traced(workload: str, seed: int, seconds: float, deadline: Deadline):
    """An untraced pass and a traced pass of the same work.

    Per-layer numbers come from the traced pass and the ratio of the two
    times is the overhead.  The enumeration CPU split comes from rusage
    in an untraced run: for a campaign, the parallel SWEEP, because a
    serial campaign has no workers.
    """
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.bin"
    failures = []
    if workload == "queries":
        args = ["--seed", str(seed), "--count", str(QUERY_COUNT), "queries"]
        plain = _child(args, seed, deadline)
        spanned = _child(["--trace", str(spans_path), *args], seed, deadline)
        overhead = spanned["busy_s"] / plain["busy_s"]
        failures = spanned["failures"]
        attempted, incorrect = QUERY_COUNT, spanned["incorrect"]
        split, jobs = plain, 1
        record = {"samples": QUERY_COUNT, "argv_digest": spanned["argv_digest"]}
    else:
        argv = WORKLOADS[workload]
        plain = _child(["campaign", "--", *argv], seed, deadline)
        spanned = _child(
            ["--trace", str(spans_path), "campaign", "--", *argv], seed, deadline
        )
        split, jobs = _child(["campaign", "--", *SWEEP], seed, deadline), SWEEP_JOBS
        overhead = spanned["wall_s"] / plain["wall_s"]
        expected = gate.expected_rows(workload)
        for r in (plain, spanned):
            failures += campaign_failures(r, argv, expected)
        failures += campaign_failures(split, SWEEP, gate.expected_rows("sweep"))
        attempted, incorrect = 3, len(failures)
        record = {
            "samples": 1,
            "argv_digest": querygen.argv_digest([argv]),
            "split_argv": SWEEP,
        }
    record["spans"] = spanned["layers"]["spans"]
    record["spans_file"] = os.path.relpath(spans_path, ROOT)
    metrics = layer_metrics(spanned["layers"], split, jobs, overhead)
    return metrics, attempted, len(failures), failures, incorrect, record


def layer_metrics(layers: dict, split: dict, jobs: int, overhead: float) -> dict:
    st = layers["self_times"]
    caches = layers["caches"]

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    def hit_ratio(name):
        hits, misses = caches[name]
        return hits / (hits + misses) if hits + misses else 0.0

    m = {
        "verify.chain_of.calls": calls("verify.chain_of"),
        "verify.chain_of.hit_ratio": hit_ratio("verify.chain_of"),
        "verify.chain_of.misses": caches["verify.chain_of"][1],
    }
    for fn in CHECK_FUNCTIONS:
        m[f"verify.{fn}.calls"] = calls(f"verify.{fn}")
        m[f"verify.{fn}.self_s"] = self_s(f"verify.{fn}")
    for fn in IDEAL_FUNCTIONS:
        m[f"ideal.{fn}.calls"] = calls(f"ideal.{fn}")
        m[f"ideal.{fn}.self_s"] = self_s(f"ideal.{fn}")
    m["ideal._members.hit_ratio"] = hit_ratio("ideal._members")
    m["ideal._members.misses"] = caches["ideal._members"][1]
    for fn in ("betti.ek_betti", "betti.mapping_cone_betti", "decompose.bs_decompose"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.self_s"] = self_s(fn)
    m["pure.top_degree_sequence.self_s"] = self_s("pure.top_degree_sequence")
    m["pure.pure_diagram.hit_ratio"] = hit_ratio("pure.pure_diagram")
    m["enumeration.enumerate_artinian_lex.self_s"] = self_s(
        "enumeration.enumerate_artinian_lex"
    )
    m["enumeration.parent_cpu_s"] = split["parent_cpu_s"]
    m["enumeration.parent_idle_s"] = split["wall_s"] - split["parent_cpu_s"]
    m["enumeration.worker_cpu_s"] = split["worker_cpu_s"]
    m["enumeration.worker_utilization"] = split["worker_cpu_s"] / (
        jobs * split["wall_s"]
    )
    m["monomial.monomials_of_degree.misses"] = caches["monomial.monomials_of_degree"][1]
    for fn in ("parse_ideal", "render_betti", "render_summand", "main"):
        m[f"cli.{fn}.self_s"] = self_s(f"cli.{fn}")
    m["trace.overhead_ratio"] = overhead
    return m


# ----- output ----------------------------------------------------------------


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def result_object(metrics, units, attempted, failed, incorrect) -> dict:
    """The result line: exactly these four keys, one entry per metric."""
    return {
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def report(args, metrics, units, attempted, failed, failures, incorrect, record) -> dict:
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine_info(),
        **record,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, unit in units.items():
        print(f"{args.workload:<13} {name:<44} {metrics[name]:>16.6f} {unit}")
    print(
        f"{args.workload:<13} {'failed_share':<44} {failed / attempted:>16.6f} "
        f"share  ({failed} of {attempted})"
    )
    for f in failures:
        print(f"FAILED {json.dumps(f['argv'])}: {f['problem']}")
    result = result_object(metrics, units, attempted, failed, incorrect)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(
        json.dumps({"info": info, "failures": failures, "result": result}, indent=1)
    )
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--workload",
        required=True,
        choices=[*sorted(WORKLOADS), "all"],
        help="'all' runs every workload in turn, each with its own result line",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "lexbs" / "cli.py").is_file():
        print(f"error: no lexbs sources under {SRC}", file=sys.stderr)
        return 2
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        one = argparse.Namespace(**{**vars(args), "workload": workload})
        deadline = Deadline(RUN_LIMIT_S)
        if args.trace:
            metrics, attempted, failed, failures, incorrect, record = traced(
                workload, args.seed, args.seconds, deadline
            )
            units = per_layer_units()
        else:
            metrics, attempted, failed, failures, incorrect, record = end_to_end(
                workload, args.seed, args.seconds, deadline
            )
            units = END_TO_END
        result = report(
            one, metrics, units, attempted, failed, failures, incorrect, record
        )
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
