"""The MSI pipeline benchmark: one workload per run, or all of them.

Run one workload::

    python3 perfbench/run.py --workload ms1_scaled --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced phases and reports the
per-layer metrics (and writes the span dump to ``perfbench/out/``).
Every line but the last is a human-readable report; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--all`` runs every workload in a fresh process, in both modes, and
prints every metric by name with its unit; ``--smoke`` does the same at
tiny sizes for a few seconds and fails unless every named metric is
printed and no operation failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracing import SpanRecorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS, answer_key  # noqa: E402

#: Number of untraced/traced phase pairs in a ``--trace 1`` run.
TRACE_PHASE_PAIRS = 5

#: Largest change of the calibration loop's time across a run's timed
#: loop for the run to count as taken in one host state (``steady``).
NOISE_DRIFT_LIMIT = 0.2

#: Metrics printed by name that are not in BENCHMARK.json: failed_frac
#: is 0 on a correct build and the write latencies exist only where a
#: workload writes.
REPORT_ONLY = {
    "failed_frac": "ratio",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
}


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    return {metric["name"]: metric["unit"] for metric in declared()[kind]}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the run's noise marker."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - start


def noise(before: float, after: float) -> dict:
    """The run's noise marker: a diagnostic, never a metric."""
    drift = after / before - 1
    return {
        "calib_before_s": before,
        "calib_after_s": after,
        "drift": drift,
        "steady": abs(drift) <= NOISE_DRIFT_LIMIT,
    }


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def setup(workload):
    """Build the system from nothing and answer the first query, repeatedly.

    Returns the last built instance (still open, for the timed loop),
    the set-up times, and the answer keys of every first query.
    """
    first_query = workload.queries[0]
    times: list[float] = []
    firsts = []
    instance = None
    for _ in range(workload.setup_reps):
        if instance is not None:
            instance.close()
        gc.collect()
        start = perf_counter()
        instance = workload.build()
        key = answer_key(instance.entry.answer(first_query))
        times.append(perf_counter() - start)
        firsts.append(key)
    return instance, times, firsts


def reference_answers(workload) -> dict:
    reference, owned = workload.reference()
    try:
        return {q: answer_key(reference.answer(q)) for q in workload.queries}
    finally:
        for mediator in owned:
            mediator.close()


class Stats:
    """Counters and latencies of one run's operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latency = {"query": [], "write": []}
        # query latencies of a --trace 1 run, by phase (traced or not)
        self.phase_latency = {True: [], False: []}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def gate_setups(workload, firsts, expected, stats: Stats) -> None:
    """Every set-up's first answer equals the reference's."""
    query = workload.queries[0]
    for key in firsts:
        stats.record(
            key == expected[query],
            f"set-up answer differs from the reference: {query}",
        )


def gate(workload, instance, firsts, expected, stats: Stats) -> None:
    """Every answer equals the reference's before any timing."""
    gate_setups(workload, firsts, expected, stats)
    for query in workload.queries:
        try:
            ok = answer_key(instance.entry.answer(query)) == expected[query]
        except Exception as exc:  # counted as a failed operation
            ok = False
            query = f"{query}: {type(exc).__name__}: {exc}"
        stats.record(ok, f"gate answer differs from the reference: {query}")


class MediatorCounters:
    """Counter deltas read from the mediators, for the traced run."""

    def __init__(self, instance) -> None:
        self.instance = instance
        self.start = self._read()
        self.contexts = {id(m): m.last_context for m in instance.mediators}
        self.semijoin = {"batches": 0, "probes": 0, "shards": 0}

    def _read(self) -> dict:
        totals = {"hits": 0, "misses": 0, "dispatched": 0, "shared": 0}
        for mediator in self.instance.mediators:
            for line in mediator.metrics_text().splitlines():
                name, _, value = line.partition(" ")
                if name == "repro_compile_cache_hits_total":
                    totals["hits"] += float(value)
                elif name == "repro_compile_cache_misses_total":
                    totals["misses"] += float(value)
            stats = mediator.dispatcher.stats()
            totals["dispatched"] += stats["dispatched"]
            totals["shared"] += stats["shared"]
        return totals

    def after_query(self) -> None:
        """Fold each mediator's newest execution context in (once)."""
        for mediator in self.instance.mediators:
            context = mediator.last_context
            if context is None or context is self.contexts[id(mediator)]:
                continue
            self.contexts[id(mediator)] = context
            self.semijoin["batches"] += context.semijoin_batches
            self.semijoin["probes"] += context.semijoin_probes
            self.semijoin["shards"] += context.shards_scanned

    def stop(self) -> None:
        """Freeze the counter deltas at the end of the timed loop."""
        end = self._read()
        self.deltas = {key: end[key] - self.start[key] for key in end}


def timed_loop(workload, instance, model, seconds, stats, recorder):
    """Closed loop, one operation in flight, for ``seconds`` seconds.

    Returns the loop time without the benchmark's own answer checks,
    plus what the traced run needs: the traced query ids with their
    answer sizes, the traced write ids, and the mediator counters.
    """
    operations = workload.operations()
    counters = MediatorCounters(instance) if recorder is not None else None
    traced_queries: dict[int, int] = {}
    traced_writes: list[int] = []
    phase = seconds / (2 * TRACE_PHASE_PAIRS)
    checking = 0.0
    start = perf_counter()
    op_id = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            break
        traced = recorder is not None and int(elapsed / phase) % 2 == 1
        if recorder is not None and traced != recorder.installed:
            if traced:
                recorder.install(instance)
            else:
                recorder.uninstall()
        kind, payload = next(operations)
        op_id += 1
        if recorder is not None:
            recorder.query_id = op_id
        began = perf_counter()
        try:
            if kind == "query":
                result = instance.entry.answer(payload)
            else:
                workload.write(payload)
            error = None
        except Exception as exc:  # counted as a failed operation
            error = f"{kind} {payload}: {type(exc).__name__}: {exc}"
        ended = perf_counter()
        stats.latency[kind].append(ended - began)
        if error is not None:
            stats.record(False, error)
        elif kind == "query":
            stats.record(
                model.check(payload, result),
                f"answer differs from the expected one: {payload}",
            )
        else:
            model.after_write(payload)
            stats.record(True, "")
        if recorder is not None and kind == "query":
            stats.phase_latency[traced].append(ended - began)
        if traced:
            if kind == "query":
                traced_queries[op_id] = len(result) if error is None else 0
            else:
                traced_writes.append(op_id)
        if counters is not None and kind == "query" and traced:
            counters.after_query()
        checking += perf_counter() - ended
    loop = perf_counter() - start - checking
    if recorder is not None:
        recorder.uninstall()
        counters.stop()
    return loop, traced_queries, traced_writes, counters


def final_check(workload, instance, model, stats) -> None:
    """After writes, the final state must still match the reference."""
    if not workload.writes:
        return
    expected = reference_answers(workload)
    for query in workload.queries:
        actual = answer_key(instance.entry.answer(query))
        stats.record(
            actual == expected[query] == model.expected(query),
            f"final answer differs from the reference: {query}",
        )


def invariants(name: str, layer: dict, query_ms: float) -> list[str]:
    """What the traced run must show about the layer a workload stresses."""
    broken = []
    if name == "rule_blowup":
        if layer["view_expander.rules"] != 64:
            broken.append(f"view_expander.rules={layer['view_expander.rules']} != 64")
        if layer["wrappers.dup_ratio"] < 10:
            broken.append(f"wrappers.dup_ratio={layer['wrappers.dup_ratio']:.2f} < 10")
    if name == "ms1_scaled":
        share = layer["wrappers.relational.answer_ms"] / query_ms
        if share <= 0.5:
            broken.append(f"relational share of query time {share:.2f} <= 0.5")
    if name == "paper_q1":
        front = sum(
            layer[key]
            for key in (
                "msl.parse_ms",
                "view_expander.expand_ms",
                "optimizer.plan_ms",
                "pipeline.fuse_ms",
            )
        )
        if front / query_ms <= 1 / 3:
            broken.append(f"parse+expand+plan+fuse share {front / query_ms:.2f} <= 1/3")
    wire = layer["wire.wait_ms"] > 0
    if wire != (name == "sharded_stack"):
        broken.append(f"wire.wait_ms={layer['wire.wait_ms']:.4f} on {name}")
    return broken


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    workload = WORKLOADS[name](seed, smoke)
    stats = Stats()
    instance, setup_times, firsts = setup(workload)
    expected = reference_answers(workload)
    gate(workload, instance, firsts, expected, stats)
    model = workload.model(expected)
    recorder = SpanRecorder() if trace else None

    gc.collect()
    calib_before = calibrate()
    loop, traced_queries, traced_writes, counters = timed_loop(
        workload, instance, model, seconds, stats, recorder
    )
    calib_after = calibrate()
    final_check(workload, instance, model, stats)
    instance.close()
    # set up again after the loop, so setup_s is the median over both
    # ends of the run rather than over one stretch of machine state
    late, late_times, late_firsts = setup(workload)
    late.close()
    setup_times += late_times
    gate_setups(workload, late_firsts, expected, stats)

    queries = stats.latency["query"]
    writes = stats.latency["write"]
    report = {
        "failed_frac": stats.failed / max(1, stats.attempted),
        "write_p50_ms": p50(writes) * 1e3,
        "write_p90_ms": p90(writes) * 1e3,
    }
    lines = [
        f"# workload {name} seed={seed} seconds={seconds} trace={int(trace)}"
        f" smoke={int(smoke)}: {len(queries)} queries, {len(writes)} writes,"
        f" {len(setup_times)} set-ups",
        "# noise " + json.dumps(noise(calib_before, calib_after)),
    ]
    if len(queries) < 100:
        lines.append(f"# note: {len(queries)} queries (< 100): p90 is coarse")
    for error in stats.errors:
        lines.append(f"# failure: {error}")
    correct = stats.failed == 0
    if not trace:
        metrics = {
            "query_p50_ms": p50(queries) * 1e3,
            "query_p90_ms": p90(queries) * 1e3,
            "ops_per_s": (len(queries) + len(writes)) / loop,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ),
        }
    else:
        metrics = traced_metrics(
            name, seed, instance, recorder, stats,
            traced_queries, traced_writes, counters,
        )
        query_ms = statistics.fmean(stats.phase_latency[True]) * 1e3
        broken = invariants(name, metrics, query_ms)
        # tiny smoke sizes need not stress the layers full sizes do
        enforced = "not enforced at smoke sizes, " if smoke else ""
        for problem in broken:
            lines.append(f"# invariant ({enforced}broken): {problem}")
        if not broken:
            lines.append("# invariants hold")
        if not smoke:
            correct = correct and not broken
    for key, unit in REPORT_ONLY.items():
        lines.append(f"metric {key} {report[key]:.6g} {unit}")
    units = declared_units("per_layer" if trace else "end_to_end")
    for key, value in metrics.items():
        lines.append(f"metric {key} {value:.6g} {units[key]}")
    result = {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    return lines, result


def traced_metrics(
    name, seed, instance, recorder, stats,
    traced_queries, traced_writes, counters,
) -> dict:
    """Span-derived layer metrics plus the counters the mediators keep."""
    metrics = layer_metrics(
        recorder.spans, traced_queries, traced_writes,
        instance.lower_mediators,
    )
    deltas = counters.deltas
    count = max(1, len(traced_queries))
    lookups = deltas["hits"] + deltas["misses"]
    metrics["compile.hit_rate"] = deltas["hits"] / lookups if lookups else 0.0
    requests = deltas["dispatched"] + deltas["shared"]
    metrics["dispatcher.shared_frac"] = (
        deltas["shared"] / requests if requests else 0.0
    )
    metrics["semijoin.batches"] = counters.semijoin["batches"] / count
    metrics["semijoin.probes"] = counters.semijoin["probes"] / count
    metrics["sharding.shards_scanned"] = counters.semijoin["shards"] / count
    untraced = stats.phase_latency[False]
    metrics["trace.overhead"] = (
        p50(stats.phase_latency[True]) / p50(untraced) if untraced else 0.0
    )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    recorder.dump(
        out / f"spans-{name}.jsonl",
        {"workload": name, "seed": seed, "traced_queries": len(traced_queries)},
    )
    return metrics


# -- the all-workloads report and the smoke check ---------------------------


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Each workload in a fresh process, untraced then traced."""
    expected_names = {
        0: list(declared_units("end_to_end")) + list(REPORT_ONLY),
        1: list(declared_units("per_layer")) + list(REPORT_ONLY),
    }
    problems = []
    table: dict[str, dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            if smoke:
                command.append("--smoke")
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=900
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(
                    f"{name} trace={trace}: exit {done.returncode}\n"
                    + done.stderr[-2000:]
                )
                continue
            for line in lines[:-1]:
                if line.startswith("# ") and not line.startswith("# workload"):
                    print(f"[{name} trace={trace}] {line[2:]}")
            printed = {}
            for line in lines:
                parts = line.split()
                if parts and parts[0] == "metric":
                    printed[parts[1]] = (float(parts[2]), parts[3])
            result = json.loads(lines[-1])
            for metric in expected_names[trace]:
                if metric not in printed:
                    problems.append(f"{name} trace={trace}: {metric} missing")
            if printed.get("failed_frac", (1.0,))[0] != 0.0:
                problems.append(f"{name} trace={trace}: failed_frac != 0")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: correct is false")
            for metric, value in printed.items():
                table.setdefault(metric, {})[name] = value
    names = list(WORKLOADS)
    print(f"{'metric':32} {'unit':6} " + " ".join(f"{n:>14}" for n in names))
    for metric, values in table.items():
        unit = next(iter(values.values()))[1]
        cells = " ".join(
            f"{values[n][0]:14.4f}" if n in values else f"{'-':>14}"
            for n in names
        )
        print(f"{metric:32} {unit:6} {cells}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=declared()["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--all", action="store_true", help="every workload, both modes"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes; with --all, a check"
    )
    args = parser.parse_args(argv)
    if args.all or (args.smoke and args.workload is None):
        seconds = 1.0 if args.smoke else args.seconds
        return run_all(args.seed, seconds, args.smoke)
    if args.workload is None:
        parser.error("--workload is required (or --all / --smoke)")
    lines, result = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
