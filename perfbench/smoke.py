"""Smoke test of the benchmark at toy size.

    python3 perfbench/smoke.py

For every workload, one untraced and one traced run at ``--size toy``
through the real command line.  Each must exit 0, pass its output
checks, print exactly the metrics ``BENCHMARK.json`` names for its mode
with their units, and (traced) have self times that sum to the traced
op time.  Then:

- the program's work counters in a second traced run at the same seed
  must repeat exactly (in process; the daemon's are read at its exit);
- a run whose contract is deliberately off by one notification must
  come back not correct, so a wrong program cannot pass.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The ``*_ms`` metrics outside the partition of ``trace.op_ms``.
_NOT_IN_SPLIT = {"trace.op_ms", "filter.run_ms"}

#: Counts taken from spans over every traced operation: they depend on
#: how far a run got, unlike the program's counters over a fixed prefix.
_SPAN_COUNTS = {
    "rules.end_rule_ids_calls", "pubsub.batches", "gc.gen2_collections",
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        "--size", "toy",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    if done.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {done.returncode}: "
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check_output(result: dict, expected: list[dict], label: str) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result}")
    names = {metric["name"]: metric["unit"] for metric in expected}
    printed = result["metrics"]
    if set(printed) != set(names):
        raise AssertionError(
            f"{label}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(printed) ^ set(names))}"
        )
    for name, unit in names.items():
        if printed[name]["unit"] != unit:
            raise AssertionError(f"{label}: {name} printed without its unit")


def _check_split(metrics: dict, label: str) -> None:
    split = sum(
        entry["value"] for name, entry in metrics.items()
        if name.endswith("_ms") and name not in _NOT_IN_SPLIT
    )
    total = metrics["trace.op_ms"]["value"]
    if abs(split - total) > 1e-6 * max(1.0, total):
        raise AssertionError(f"{label}: self times {split} != op time {total}")


def _check_wrong_contract_fails() -> None:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import bench, contract

    expect = contract.Contract.expect

    def off_by_one(self: contract.Contract, op: contract.Op) -> int:
        return expect(self, op) + (op.kind == contract.PUBLISH)

    contract.Contract.expect = off_by_one  # type: ignore[method-assign]
    try:
        with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
            result = bench.run(
                bench.toy(bench.WORKLOADS["comp-fanout"]), 3, 1.0, False,
                workdir,
            )
    finally:
        contract.Contract.expect = expect  # type: ignore[method-assign]
    if result.error is None:
        raise AssertionError("a wrong notification count went unnoticed")


def main() -> int:
    spec = _spec()
    for workload in (entry["name"] for entry in spec["workloads"]):
        untraced = _run(workload, 0)
        _check_output(untraced, spec["end_to_end"], f"{workload} trace=0")
        traced = _run(workload, 1)
        _check_output(traced, spec["per_layer"], f"{workload} trace=1")
        _check_split(traced["metrics"], workload)
        if workload != "served-oid":
            again = _run(workload, 1)
            for name, entry in traced["metrics"].items():
                if entry["unit"] in ("count/op", "B/op", "pages") and (
                    name not in _SPAN_COUNTS
                    and entry["value"] != again["metrics"][name]["value"]
                ):
                    raise AssertionError(
                        f"{workload}: {name} did not repeat: "
                        f"{entry['value']} vs {again['metrics'][name]['value']}"
                    )
        print(f"ok {workload}", flush=True)
    _check_wrong_contract_fails()
    print("ok wrong contract detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
