"""The MDV deployments the workloads drive, through public entry points.

:class:`InProcessSystem` is one :class:`MetadataProvider` built with its
default arguments and N :class:`LocalMetadataRepository` caches attached
with ``connect_subscriber``.  :class:`ServedSystem` runs the provider as
a ``python -m repro.mdv serve`` daemon, keeps one LMR in this process on
a :class:`SocketTransport` endpoint the daemon lists as a peer, and
publishes through one :class:`ServiceClient` connection.

Both offer the same small surface to the runner: ``execute`` one
operation, ``wrap_layers`` for the traced run, the state samples
(``peak_rss_mb``, ``db_pages``), and ``close``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

import repro.filter.engine as engine_module
import repro.mdv.provider as provider_module
from repro.mdv.client import ProviderHandle, ServiceClient
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.net.socket import SocketTransport
from repro.obs.metrics import default_registry
from repro.pubsub.notifications import MatchNotification, UnmatchNotification
from repro.rdf.model import Document
from repro.rdf.schema import objectglobe_schema
from repro.workload.socket_chaos import launch_node

from perfbench.contract import DELETE, PUBLISH, SUBSCRIBE, UPDATE, Op, rule_text
from perfbench.tracing import Tracer

MDP_NAME = "mdp-bench"
LMR_NAME = "lmr-bench"


def counter_totals(values: dict[str, float]) -> dict[str, float]:
    """Counter values summed over their labels (``name{...}`` -> name)."""
    totals: dict[str, float] = {}
    for key, value in values.items():
        name = key.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + value
    return totals


def process_counters() -> dict[str, float]:
    """This process's counters (the program's default registry)."""
    return counter_totals(default_registry().counter_values())


class Deliveries:
    """Records every batch an LMR applies, and when.

    The recorder replaces the LMR's ``apply_batch`` attribute; the
    batches are only counted after the operation that caused them
    returns, so the timed region holds one list append and one clock
    read per batch.
    """

    def __init__(self) -> None:
        self.batches: list[Any] = []
        self.last_applied = 0.0
        #: Subscription id -> rule text, learnt from the notifications.
        self.rule_texts: dict[int, str] = {}

    def attach(self, lmr: LocalMetadataRepository) -> None:
        apply = lmr.apply_batch

        def recorder(batch: Any) -> bool:
            applied = apply(batch)
            self.batches.append(batch)
            self.last_applied = time.perf_counter()
            return applied

        lmr.apply_batch = recorder  # type: ignore[method-assign]

    def drain(self) -> int:
        """Notifications applied since the last drain."""
        total = 0
        for batch in self.batches:
            total += len(batch)
            for note in batch:
                if isinstance(note, (MatchNotification, UnmatchNotification)):
                    self.rule_texts[note.sub_id] = note.rule_text
        self.batches.clear()
        return total


class InProcessSystem:
    """Provider and LMRs in this process, directly connected."""

    def __init__(self, family: str, lmr_count: int):
        self.family = family
        self.closed = False
        self.provider = MetadataProvider(objectglobe_schema())
        self.lmrs = [
            LocalMetadataRepository(f"lmr{index}", self.provider)
            for index in range(lmr_count)
        ]
        self.deliveries = Deliveries()
        for lmr in self.lmrs:
            self.deliveries.attach(lmr)
            # Look the handler up per call, so the traced run's wrapper
            # around ``lmr.apply_batch`` sees every batch.
            self.provider.connect_subscriber(
                lmr.name, lambda batch, lmr=lmr: lmr.apply_batch(batch)
            )

    def execute(self, op: Op, document: Document | None) -> None:
        if op.kind in (PUBLISH, UPDATE):
            self.provider.register_document(document)
        elif op.kind == DELETE:
            self.provider.delete_document(f"doc{op.doc}.rdf")
        elif op.kind == SUBSCRIBE:
            self.lmrs[op.lmr].subscribe(rule_text(self.family, op.doc))
        else:
            self.lmrs[op.lmr].unsubscribe(rule_text(self.family, op.doc))

    def preload(self, documents: list[Document]) -> None:
        self.provider.register_documents(documents)

    def wrap_layers(self, tracer: Tracer) -> None:
        provider = self.provider
        engine = provider.engine
        registry = provider.registry
        for method in (
            "register_document", "delete_document", "subscribe", "unsubscribe"
        ):
            tracer.wrap(provider, method, "mdv.provider")
        tracer.wrap(provider.schema, "validate_document", "rdf.validate")
        tracer.wrap(provider_module, "diff_documents", "rdf.diff")
        tracer.wrap(provider_module, "deletion_diff", "rdf.diff")
        tracer.wrap(provider_module, "to_rdfxml", "rdf.serialize")
        tracer.wrap(registry, "end_rule_ids", "rules.end_rule_ids")
        tracer.wrap(
            registry, "register_subscription", "rules.register_subscription"
        )
        tracer.wrap(registry, "unsubscribe", "rules.unsubscribe")
        tracer.wrap(engine, "process_diff", "filter.process")
        tracer.wrap(engine, "process_insertions", "filter.process")
        tracer.wrap(engine, "run", "filter.run", on_result=_run_seconds)
        # The two stages ``FilterEngine.run`` times itself, so that a GC
        # pause inside either is charged to ``gc`` and to nothing else.
        tracer.wrap(engine_module, "match_triggering_rules", "filter.triggering")
        tracer.wrap(engine_module, "evaluate_groups_at", "filter.joins")
        tracer.wrap(engine, "initialize_rules", "filter.initialize_rules")
        tracer.wrap(
            provider.publisher, "batches_for", "pubsub.build",
            on_result=_batch_count,
        )
        tracer.wrap(
            provider.publisher, "initial_batch", "pubsub.build",
            on_result=_one_batch,
        )
        for lmr in self.lmrs:
            tracer.wrap(lmr, "apply_batch", "mdv.lmr_apply")
            tracer.wrap(lmr.cache, "drop_subscription", "mdv.lmr_apply")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def db_pages(self) -> int:
        return int(self.provider.db.scalar("PRAGMA page_count"))

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.provider.close()
            self.provider.db.close()


def _run_seconds(span: list[Any], result: Any) -> None:
    span[5] = (result.triggering_seconds, result.join_seconds)


def _batch_count(span: list[Any], result: Any) -> None:
    span[5] = len(result)


def _one_batch(span: list[Any], result: Any) -> None:
    span[5] = 1


@contextmanager
def _serve_arguments(extra: list[str]) -> Iterator[None]:
    """Append ``extra`` to the command ``launch_node`` starts.

    ``launch_node`` has no parameter for ``--metrics-dump``; the wrapper
    is in place only while the one launch runs.
    """
    real_popen = subprocess.Popen

    def popen(args: list[str], *rest: Any, **kwargs: Any) -> Any:
        return real_popen([*args, *extra], *rest, **kwargs)

    subprocess.Popen = popen  # type: ignore[misc]
    try:
        yield
    finally:
        subprocess.Popen = real_popen  # type: ignore[misc]


def read_vm_hwm_mb(pid: int) -> float:
    """A process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class ServedSystem:
    """An ``mdv serve`` MDP daemon, one socket LMR, one client."""

    def __init__(self, family: str, lmr_count: int, workdir: str, tag: str):
        if lmr_count != 1:
            raise ValueError("the served deployment has exactly one LMR")
        self.family = family
        self.node: Any = None
        self.client: ServiceClient | None = None
        self.dump_path = os.path.join(workdir, f"{tag}-metrics.json")
        self.daemon_counters: dict[str, float] = {}
        self.stderr_tail = ""
        schema = objectglobe_schema()
        self.transport = SocketTransport(dispatch="inline").start()
        try:
            config_path = os.path.join(workdir, f"{tag}-config.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump({
                    "name": MDP_NAME,
                    "role": "mdp",
                    "port": 0,
                    "peers": {LMR_NAME: ["127.0.0.1", self.transport.port]},
                }, handle)
            with _serve_arguments(["--metrics-dump", self.dump_path]):
                self.node = launch_node(config_path)
            self.transport.add_peer(MDP_NAME, "127.0.0.1", self.node.port)
            lmr = LocalMetadataRepository(
                LMR_NAME, ProviderHandle(MDP_NAME, schema), schema=schema,
                bus=self.transport,
            )
            self.lmrs = [lmr]
            self.deliveries = Deliveries()
            self.deliveries.attach(lmr)
            self.client = ServiceClient(
                "bench-client", MDP_NAME, "127.0.0.1", self.node.port
            )
        except BaseException:
            self.close()
            raise

    def execute(self, op: Op, document: Document | None) -> None:
        assert self.client is not None
        if op.kind in (PUBLISH, UPDATE):
            self.client.register_document(document)
        elif op.kind == DELETE:
            self.client.call("delete_document", f"doc{op.doc}.rdf")
        elif op.kind == SUBSCRIBE:
            self.lmrs[0].subscribe(rule_text(self.family, op.doc))
        else:
            self.lmrs[0].unsubscribe(rule_text(self.family, op.doc))

    def wrap_layers(self, tracer: Tracer) -> None:
        # Round trips from this process: publishes and deletes on the
        # client connection, subscription changes on the LMR's.
        tracer.wrap(self.client, "call", "net.request")
        tracer.wrap(self.transport, "send", "net.request")
        tracer.wrap(self.lmrs[0], "apply_batch", "mdv.lmr_apply")
        tracer.wrap(self.lmrs[0].cache, "drop_subscription", "mdv.lmr_apply")

    def peak_rss_mb(self) -> float:
        return read_vm_hwm_mb(self.node.process.pid)

    def db_pages(self) -> int:
        # The daemon's store is in memory, in another process.
        return 0

    def close(self) -> None:
        """Stop and reap the daemon; read its metrics dump and stderr."""
        if self.client is not None:
            self.client.close()
            self.client = None
        node, self.node = self.node, None
        if node is not None:
            node.terminate()  # SIGTERM, wait; SIGKILL if it hangs
            self.stderr_tail = node.process.stderr.read()[-2000:]
            node.process.stderr.close()
            node.process.stdout.close()
            if os.path.exists(self.dump_path):
                with open(self.dump_path, encoding="utf-8") as handle:
                    dump = json.load(handle)
                self.daemon_counters = counter_totals(dump["counters"])
        self.transport.close()
