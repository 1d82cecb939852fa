"""The four workloads, the measured loop, the checks and the metrics.

One run: generate the seeded plan, set the system up ``SETUPS`` times
(timing each, keeping the last), run the operation stream closed loop
with one client for the requested seconds, with the probes at a fixed
position in it, then check every LMR cache against the
:class:`~perfbench.contract.Contract`.  Every time is scaled to the
nominal host speed (:mod:`perfbench.hostspeed`).

Untraced runs (``trace=False``) report the end-to-end metrics.  Traced
runs alternate blocks of traced and untraced operations over the same
stream and report the per-layer split of the traced ones, the work
counters of the first ``count_ops`` operations, and the state sampled
at the end.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any

from perfbench.contract import (
    DELETE,
    PUBLISH,
    SUBSCRIBE,
    UNSUBSCRIBE,
    UPDATE,
    Contract,
    Op,
    Plan,
    churn_plan,
    fresh_stream_plan,
    host_uri,
    info_uri,
    make_document,
    rule_text,
)
from perfbench.hostspeed import NOMINAL, HostSpeed
from perfbench.systems import InProcessSystem, ServedSystem, process_counters
from perfbench.tracing import ROOT, Tracer, exclusive_times

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Operations per traced or untraced block of a traced run.
TRACE_BLOCK = 16

#: Probes in a fresh-document stream: (updates, deletes,
#: resubscriptions).
PROBES = (100, 30, 100)

#: Documents per ``register_documents`` call of a preload.
PRELOAD_CHUNK = 100

#: Least samples of each operation kind before a run may stop.
MIN_SAMPLES = {
    PUBLISH: 200, UPDATE: 100, SUBSCRIBE: 100, DELETE: 20, UNSUBSCRIBE: 20,
}


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload (why each exists: ``BENCHMARK.json``)."""

    name: str
    family: str
    rules: int
    lmrs: int
    served: bool = False
    #: Updates, deletes and resubscriptions run inside the stream.
    probes: tuple[int, int, int] = (0, 0, 0)
    #: ``comp``: the ``synthValue`` of every streamed document.
    synth_value: int = 0
    #: ``path``: memory keys drawn from ``0..values-1``; preloaded docs.
    values: int = 0
    preload: int = 0
    #: Length of the generated stream (a run stops earlier on time).
    max_ops: int = 0
    #: Stream operations the work counters cover.
    count_ops: int = 100


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "oid-10k", family="oid", rules=10_000, lmrs=4, probes=PROBES,
            max_ops=10_000,
        ),
        Workload(
            "comp-fanout", family="comp", rules=2_000, lmrs=4, probes=PROBES,
            synth_value=200, max_ops=6_000,
        ),
        Workload(
            "path-churn", family="path", rules=2_000, lmrs=4, values=3_000,
            preload=1_000, max_ops=6_000,
        ),
        Workload(
            "served-oid", family="oid", rules=2_000, lmrs=1, served=True,
            probes=PROBES, max_ops=2_000,
        ),
    )
}


def toy(workload: Workload) -> Workload:
    """The same workload at smoke-test size."""
    return Workload(
        workload.name, workload.family,
        rules=max(workload.rules // 50, 20), lmrs=workload.lmrs,
        served=workload.served,
        probes=tuple(min(count, 3) for count in workload.probes),
        synth_value=workload.synth_value // 50,
        values=workload.values // 50, preload=workload.preload // 50,
        max_ops=workload.max_ops // 50, count_ops=10,
    )


class CheckFailed(Exception):
    """The program's output disagreed with the matching contract."""


class OpFailed(Exception):
    """An operation raised."""


def make_plan(workload: Workload, seed: int) -> Plan:
    if workload.family == "path":
        return churn_plan(
            seed, workload.rules, workload.lmrs, workload.values,
            workload.preload, workload.max_ops,
        )
    return fresh_stream_plan(
        seed, workload.family, workload.rules, workload.lmrs,
        workload.max_ops, workload.probes, workload.synth_value,
    )


# ----------------------------------------------------------------------
# The closed-loop client
# ----------------------------------------------------------------------
class Client:
    """The one closed-loop client: runs operations, checks each one."""

    def __init__(self, system: Any, family: str, speed: HostSpeed):
        self.system = system
        self.family = family
        self.speed = speed
        self.contract = Contract(family)
        self.attempted = 0
        self.failed = 0

    def execute(
        self, op: Op, tracer: Tracer | None = None, op_id: int = 0
    ) -> tuple[float, float]:
        """Run one operation; returns when it ran and its latency.

        The latency runs from the call until the last notification it
        caused was applied at an LMR, in raw seconds (scale it with
        ``self.speed`` once a sample after it has been taken).
        """
        document = (
            make_document(self.family, op)
            if op.kind in (PUBLISH, UPDATE) else None
        )
        expected = self.contract.expect(op)
        deliveries = self.system.deliveries
        deliveries.batches.clear()
        self.attempted += 1
        self.speed.tick()
        root = tracer.begin_op(op_id) if tracer is not None else 0
        started = time.perf_counter()
        try:
            self.system.execute(op, document)
        except Exception as exc:
            self.failed += 1
            raise OpFailed(f"{op} raised {type(exc).__name__}: {exc}") from exc
        finished = time.perf_counter()
        if tracer is not None:
            tracer.end_op(root)
        if deliveries.batches:
            finished = max(finished, deliveries.last_applied)
        delivered = deliveries.drain()
        if delivered != expected:
            raise CheckFailed(
                f"{op}: {delivered} notifications delivered, the contract "
                f"expects {expected}"
            )
        self.contract.apply(op)
        return (started + finished) / 2, finished - started

    def set_up(self, plan: Plan) -> list[tuple[float, float]]:
        """The plan's subscription base, then its preload.

        Returns when each call into the program ran and its seconds.
        """
        timings = [self.execute(op) for op in plan.setup_subscriptions]
        if not plan.preload:
            return timings
        expected = sum(self.contract.expect(op) for op in plan.preload)
        for op in plan.preload:
            self.contract.apply(op)
        self.system.deliveries.batches.clear()
        documents = [make_document(self.family, op) for op in plan.preload]
        for start in range(0, len(documents), PRELOAD_CHUNK):
            self.speed.tick()
            started = time.perf_counter()
            self.system.preload(documents[start: start + PRELOAD_CHUNK])
            finished = time.perf_counter()
            timings.append(((started + finished) / 2, finished - started))
        delivered = self.system.deliveries.drain()
        if delivered != expected:
            raise CheckFailed(
                f"preload delivered {delivered} notifications, the "
                f"contract expects {expected}"
            )
        return timings

    def check_caches(self) -> None:
        """Every LMR cache against the contract; raises on a mismatch."""
        problems: list[str] = []
        texts = self.system.deliveries.rule_texts
        for index, lmr in enumerate(self.system.lmrs):
            expected = self.contract.expected_cache(index)
            entries = {str(e.resource.uri): e for e in lmr.cache.entries()}
            wanted = {host_uri(doc) for doc in expected}
            wanted |= {info_uri(doc) for doc in expected}
            missing = sorted(wanted - set(entries))
            extra = sorted(set(entries) - wanted)
            if missing or extra:
                problems.append(
                    f"{lmr.name}: {len(missing)} resources missing "
                    f"{missing[:3]}, {len(extra)} unexpected {extra[:3]}"
                )
            for doc, keys in expected.items():
                entry = entries.get(host_uri(doc))
                if entry is None:
                    continue
                got = {texts.get(sub, f"<sub {sub}>") for sub in entry.matched_subs}
                want = {rule_text(self.family, key) for key in keys}
                if got != want:
                    problems.append(
                        f"{lmr.name} {host_uri(doc)}: matched by "
                        f"{sorted(got)[:2]}..., expected {sorted(want)[:2]}..."
                    )
                value, port = self.contract.docs[doc]
                seen = {
                    "serverPort": _literal(entry.resource, "serverPort"),
                    "synthValue": _literal(entry.resource, "synthValue"),
                }
                info = entries.get(info_uri(doc))
                seen["memory"] = (
                    _literal(info.resource, "memory") if info else None
                )
                want_content = {
                    "serverPort": port,
                    "synthValue": value if self.family == "comp" else 0,
                    "memory": value if self.family == "path" else doc % 1024,
                }
                if seen != want_content:
                    problems.append(
                        f"{lmr.name} {host_uri(doc)}: content {seen}, "
                        f"expected {want_content}"
                    )
            for uri, entry in entries.items():
                if uri.endswith("#info") and entry.matched_subs:
                    problems.append(f"{lmr.name} {uri}: matched by a rule")
        if problems:
            raise CheckFailed(
                f"{len(problems)} cache mismatches: " + "; ".join(problems[:5])
            )


def _literal(resource: Any, name: str) -> Any:
    value = resource.get_one(name)
    return None if value is None else value.value


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def new_system(workload: Workload, workdir: str, tag: str) -> Any:
    if workload.served:
        return ServedSystem(workload.family, workload.lmrs, workdir, tag)
    return InProcessSystem(workload.family, workload.lmrs)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0


def _p90_ms(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8] * 1000.0


def _mean_ms(samples: list[float]) -> float:
    return statistics.fmean(samples) * 1000.0


#: The split of traced op time: span name -> metric.  Their values sum
#: to ``trace.op_ms``.  ``filter.run``'s own time is what its timed
#: triggering and join calls leave: closure and collect.
SELF_TIME_METRICS = {
    ROOT: "other_ms",
    "mdv.provider": "mdv.provider_self_ms",
    "rdf.validate": "rdf.validate_ms",
    "rdf.diff": "rdf.diff_ms",
    "rdf.serialize": "rdf.serialize_ms",
    "rules.end_rule_ids": "rules.end_rule_ids_ms",
    "rules.register_subscription": "rules.register_subscription_ms",
    "rules.unsubscribe": "rules.unsubscribe_ms",
    "filter.process": "filter.process_ms",
    "filter.run": "filter.closure_collect_ms",
    "filter.triggering": "filter.triggering_ms",
    "filter.joins": "filter.joins_ms",
    "filter.initialize_rules": "filter.initialize_rules_ms",
    "pubsub.build": "pubsub.build_ms",
    "mdv.lmr_apply": "mdv.lmr_apply_ms",
    "net.request": "net.request_ms",
    "gc": "gc.pause_ms",
}

#: Work counters: metric -> the program's counter.  Per operation.
COUNT_METRICS = {
    "filter.runs": "filter.runs",
    "filter.iterations": "filter.iterations",
    "filter.rules_triggered": "filter.rules_triggered",
    "filter.atoms_scanned": "filter.atoms_scanned",
    "storage.statements": "storage.statements",
    "storage.rows_read": "storage.rows_read",
    "storage.rows_written": "storage.rows_written",
    "storage.transactions": "storage.transactions",
    "mdv.notifications_applied": "lmr.notifications",
    "net.socket.bytes_sent": "net.socket.bytes_sent",
    "net.socket.requests": "net.socket.requests",
    "outbox.delivered": "outbox.delivered",
    "outbox.retries": "outbox.retries",
}
#: Counters that live in the MDP: read from the daemon when served.
_MDP_COUNTERS = ("filter.", "storage.", "outbox.")


def _check_run_split(spans: list[list[Any]]) -> None:
    """The timed triggering and join calls against ``FilterRunResult``.

    The engine times both stages around the calls the tracer wraps, so
    each stage's spans may not last longer than the engine says it
    took, and a run that triggered must show its triggering span.
    """
    runs = [span for span in spans if span[0] == "filter.run"]
    for stage, name in enumerate(("filter.triggering", "filter.joins")):
        inner = [span for span in spans if span[0] == name]
        if runs and not inner:
            raise RuntimeError(f"{len(runs)} filter runs but no {name} span")
        traced = sum(span[2] - span[1] for span in inner)
        reported = sum(span[5][stage] for span in runs)
        if traced > reported + 1e-6 * len(runs):
            raise RuntimeError(
                f"{name} spans last {traced} s, the engine reports {reported} s"
            )


def layer_split(tracer: Tracer, scales: dict[int, float]) -> dict[str, float]:
    """Per-op self times of the traced operations, in scaled ms.

    ``scales`` maps each traced operation's id to its latency scale.
    """
    by_op: dict[int, list[list[Any]]] = {}
    for span in tracer.spans:
        if span[4] is not None:
            by_op.setdefault(span[4], []).append(span)
    if set(by_op) != set(scales):
        raise RuntimeError("spans and traced operations disagree")
    _check_run_split(tracer.spans)
    per_op = 1000.0 / len(scales)
    metrics = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    metrics["trace.op_ms"] = 0.0
    metrics["filter.run_ms"] = 0.0
    for op_id, spans in by_op.items():
        scale = scales[op_id] * per_op
        exclusive = exclusive_times(spans)
        unknown = set(exclusive) - set(SELF_TIME_METRICS)
        if unknown:
            raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
        for name, seconds in exclusive.items():
            metrics[SELF_TIME_METRICS[name]] += seconds * scale
        for span in spans:
            if span[0] == ROOT:
                metrics["trace.op_ms"] += (span[2] - span[1]) * scale
            elif span[0] == "filter.run":
                metrics["filter.run_ms"] += (span[2] - span[1]) * scale
    split = sum(metrics[m] for m in SELF_TIME_METRICS.values())
    if abs(split - metrics["trace.op_ms"]) > 1e-6 * max(1.0, split):
        raise RuntimeError(
            f"self times sum to {split} ms, traced op time is "
            f"{metrics['trace.op_ms']} ms"
        )
    ops = len(scales)
    metrics["rules.end_rule_ids_calls"] = sum(
        1 for span in tracer.spans if span[0] == "rules.end_rule_ids"
    ) / ops
    metrics["pubsub.batches"] = sum(
        span[5] for span in tracer.spans if span[0] == "pubsub.build"
    ) / ops
    metrics["gc.gen2_collections"] = tracer.gc_collections[2] / ops
    return metrics


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Why the run is not correct; ``None`` when every check passed.
    error: str | None = None
    #: Median reference-task seconds over the run (host speed).
    reference: float = NOMINAL


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
) -> RunResult:
    """One benchmark run; the system is closed whatever happens."""
    plan = make_plan(workload, seed)
    speed = HostSpeed()
    setup_seconds: list[float] = []
    client: Client | None = None
    one_setup: dict[str, float] = {}
    metrics: dict[str, float] = {}
    error = None
    try:
        for attempt in range(SETUPS):
            if client is not None:
                client.system.close()
                # A served set-up's daemon counters cover exactly the
                # set-up: the baseline for the measured daemon's.
                one_setup = getattr(client.system, "daemon_counters", {})
                client = None
                gc.collect()
            speed.tick()
            started = time.perf_counter()
            system = new_system(workload, workdir, f"setup{attempt}")
            finished = time.perf_counter()
            client = Client(system, workload.family, speed)
            timings = [((started + finished) / 2, finished - started)]
            timings += client.set_up(plan)
            speed.sample()
            setup_seconds.append(
                sum(speed.scaled(when, raw) for when, raw in timings)
            )
        client.attempted = 0
        fixed_ops = max(sum(workload.probes), workload.count_ops)
        if trace:
            metrics = _traced_stream(
                client, plan, seconds, fixed_ops, workload.count_ops,
                os.path.join(workdir, f"spans-{workload.name}-{seed}.jsonl"),
            )
        else:
            metrics = _untraced_run(client, plan, seconds, fixed_ops)
            metrics["setup_s"] = statistics.median(setup_seconds)
        client.check_caches()
        db_pages = client.system.db_pages()
    except (CheckFailed, OpFailed) as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        speed.close()
        if client is not None:
            client.system.close()
    assert client is not None
    if error is not None:
        tail = getattr(client.system, "stderr_tail", "")
        if tail:
            error += "\ndaemon stderr tail:\n" + tail
        return RunResult({}, max(client.attempted, 1), client.failed, error)
    system = client.system
    if trace:
        metrics["storage.db_pages"] = db_pages
        if workload.served:
            for metric, counter in COUNT_METRICS.items():
                if counter.startswith(_MDP_COUNTERS):
                    delta = system.daemon_counters.get(counter, 0.0) - (
                        one_setup.get(counter, 0.0)
                    )
                    metrics[metric] = delta / client.attempted
    return RunResult(
        metrics, client.attempted, client.failed,
        reference=statistics.median(speed.samples),
    )


def _untraced_run(
    client: Client, plan: Plan, seconds: float, fixed_ops: int
) -> dict[str, float]:
    #: (kind, when, raw seconds) of every operation.
    timed: list[tuple[str, float, float]] = []
    counts = dict.fromkeys(MIN_SAMPLES, 0)
    done = 0
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + seconds
    for op in plan.stream:
        if (
            done >= fixed_ops
            and time.perf_counter() >= deadline
            and all(counts[kind] >= least for kind, least in MIN_SAMPLES.items())
        ):
            break
        timed.append((op.kind, *client.execute(op)))
        counts[op.kind] += 1
        done += 1
        if done == fixed_ops:
            # After a fixed amount of work, whatever the program's
            # speed: a faster one would otherwise hold more documents
            # when the probes run and when the peak is read.
            peak_rss_mb = client.system.peak_rss_mb()
            for probe in plan.probes:
                timed.append((probe.kind, *client.execute(probe)))
                counts[probe.kind] += 1
    if not peak_rss_mb:  # a stream shorter than fixed_ops (toy sizes)
        peak_rss_mb = client.system.peak_rss_mb()
        for probe in plan.probes:
            timed.append((probe.kind, *client.execute(probe)))
    client.speed.sample()
    latencies: dict[str, list[float]] = {kind: [] for kind in MIN_SAMPLES}
    for kind, when, raw in timed:
        latencies[kind].append(client.speed.scaled(when, raw))
    busy = sum(sum(samples) for samples in latencies.values())
    return {
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": len(timed) / busy,
        "notify_ms_p50": _median_ms(latencies[PUBLISH]),
        "notify_ms_p90": _p90_ms(latencies[PUBLISH]),
        "update_ms_p50": _median_ms(latencies[UPDATE]),
        "delete_ms_mean": _mean_ms(latencies[DELETE]),
        "subscribe_ms_p50": _median_ms(latencies[SUBSCRIBE]),
        "unsubscribe_ms_p50": _median_ms(latencies[UNSUBSCRIBE]),
    }


def _traced_stream(
    client: Client,
    plan: Plan,
    seconds: float,
    fixed_ops: int,
    count_ops: int,
    spans_path: str,
) -> dict[str, float]:
    system = client.system
    tracer = Tracer()
    system.wrap_layers(tracer)
    #: (op id, traced, when, raw seconds) of every operation.
    timed: list[tuple[int, bool, float, float]] = []
    before = process_counters()
    counted: dict[str, float] | None = None
    done = 0
    deadline = time.perf_counter() + seconds
    try:
        for op in plan.stream:
            if done >= fixed_ops and time.perf_counter() >= deadline:
                break
            traced = (done // TRACE_BLOCK) % 2 == 1
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            timed.append(
                (done, traced, *client.execute(op, tracer if traced else None, done))
            )
            done += 1
            if done == count_ops:
                counted = _delta(process_counters(), before)
    finally:
        tracer.uninstall()
    if counted is None:
        counted = _delta(process_counters(), before)
        count_ops = done
    client.speed.sample()
    busy = {True: 0.0, False: 0.0}
    count = {True: 0, False: 0}
    scales: dict[int, float] = {}
    for op_id, traced, when, raw in timed:
        scale = client.speed.scale_at(when)
        busy[traced] += raw * scale
        count[traced] += 1
        if traced:
            scales[op_id] = scale
    tracer.write(spans_path)
    metrics = layer_split(tracer, scales)
    for metric, counter in COUNT_METRICS.items():
        metrics[metric] = counted.get(counter, 0.0) / count_ops
    metrics["trace.overhead_ratio"] = (count[True] / busy[True]) / (
        count[False] / busy[False]
    )
    return metrics


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def workdir_for(root: str) -> str:
    path = os.path.join(root, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path
