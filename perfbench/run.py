"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root (no build step; the program runs from
``src``)::

    python3 perfbench/run.py --workload oid-10k --seed 1 --seconds 8 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(units from ``BENCHMARK.json``), times scaled to the nominal host speed
(``perfbench/hostspeed.py``).  The exit code is 0 only when every
output check passed.  ``--size toy`` runs the same workload at
smoke-test size.  A traced run also writes its spans, one JSON object a
line, to ``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _metric_units() -> tuple[dict[str, str], list[str], list[str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return (
        units,
        [m["name"] for m in spec["end_to_end"]],
        [m["name"] for m in spec["per_layer"]],
    )


def _on_sigterm(signum: int, frame: object) -> None:
    # Unwind through the ``finally`` blocks that stop the daemon.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, source]
    # The served workload's daemon imports the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    signal.signal(signal.SIGTERM, _on_sigterm)
    # One CPU for this process and the daemon it starts: every closed-loop
    # handoff (client, LMR and daemon threads) is then a same-core wakeup,
    # and the reference task times the CPU the program runs on.  Across
    # the vCPUs of a virtual machine those wakeups made served tail
    # latencies vary twofold from run to run.  The highest CPU, since
    # the lowest tends to take most interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(bench.WORKLOADS)}"
        )
    workload = bench.WORKLOADS[args.workload]
    if args.size == "toy":
        workload = bench.toy(workload)
    units, end_to_end, per_layer = _metric_units()
    result = bench.run(
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        bench.workdir_for(ROOT),
    )
    print(
        f"host: reference task {result.reference * 1000:.3f} ms (median), "
        f"nominal {bench.NOMINAL * 1000:.3f} ms; times are scaled by "
        f"nominal/reference"
    )
    if result.error is not None:
        print(f"CHECK FAILED: {result.error}", file=sys.stderr)
    else:
        wanted = per_layer if args.trace else end_to_end
        if set(result.metrics) != set(wanted):
            raise RuntimeError(
                f"metrics {sorted(set(result.metrics) ^ set(wanted))} do not "
                f"match BENCHMARK.json"
            )
    print(json.dumps({
        "correct": result.error is None,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(result.metrics.items())
        },
    }))
    return 0 if result.error is None else 1


if __name__ == "__main__":
    sys.exit(main())
