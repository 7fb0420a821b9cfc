"""End-to-end benchmark: one-shot compare and warm /search, layer by layer.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload genome-compare --seed 1 --seconds 10 --trace 0

Workloads: ``genome-compare`` and ``bank-scan`` (one-shot comparisons in
a child process) and ``serve-saturated`` (closed-loop HTTP load on a
``repro-psc serve`` process).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; ``--toy`` shrinks every input
so the same checks run in seconds.  Lines starting with ``#`` describe
the machine and any failed check; the last line is one JSON object::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
#: Launches per one-shot run and server boots per serve run; ``setup_s``
#: is their median.  One launch alone spreads by a third on a busy machine.
ONESHOT_SETUPS = 9
SERVE_SETUPS = 5
CHILD_TIMEOUT = 150.0


def reference_loop() -> float:
    """Seconds for a fixed numpy + Python loop that runs none of the program."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.arange(400_000, dtype=np.float64)
    for _ in range(30):
        x = np.sqrt(x * 1.0001 + 1.0)
    sum(i * i for i in range(300_000))
    return time.perf_counter() - t0


def cpu_times() -> list[int] | None:
    """The machine's aggregate CPU counters from ``/proc/stat``, if any."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(start: list[int] | None) -> str:
    """Share of CPU time the hypervisor gave to other guests since *start*.

    Slow stretches of a run on a shared virtual machine line up with it.
    """
    end = cpu_times()
    if not start or not end or len(end) < 8:
        return "n/a"
    delta = [b - a for a, b in zip(start, end)]
    return f"{100.0 * delta[7] / max(1, sum(delta)):.1f}%"


def header() -> None:
    import numpy as np

    from repro.core.config import PipelineConfig
    from repro.extend.backends import resolve_backend

    backend = resolve_backend("auto", PipelineConfig().ungapped_config()).info.name
    print(
        f"# machine: cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} cc={shutil.which('cc') or shutil.which('gcc') or 'none'} "
        f"step2_backend={backend}",
        flush=True,
    )


def middle_mean(values) -> float:
    """Mean of the middle half of *values* (the interquartile mean)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- one-shot -----------------------------------------------------------------
def write_oneshot_inputs(workload: str, seed: int, toy: bool, work: str) -> None:
    if workload == "genome-compare":
        data = inputs.genome_compare(seed, toy)
        inputs.write_fasta(os.path.join(work, "proteins.fasta"), data["proteins"])
        inputs.write_fasta(os.path.join(work, "genome.fasta"), [("chr", data["genome"])])
        with open(os.path.join(work, "truth.json"), "w", encoding="ascii") as fh:
            json.dump(data["truth"], fh)
    else:
        data = inputs.bank_scan(seed, toy)
        inputs.write_fasta(os.path.join(work, "bank0.fasta"), data["bank0"])
        inputs.write_fasta(os.path.join(work, "bank1.fasta"), data["bank1"])


def run_oneshot(args, work: str, env: dict) -> tuple[dict, int, int, list[str]]:
    write_oneshot_inputs(args.workload, args.seed, args.toy, work)
    base = [
        sys.executable, os.path.join(HERE, "oneshot.py"),
        "--workload", args.workload, "--inputs", work, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    launches = 1 if args.trace else ONESHOT_SETUPS
    setups = []
    for i in range(launches):
        last = i == launches - 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            base + ([] if last else ["--setup-only"]), stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
            line = proc.stdout.readline() if ready else ""
            setups.append(time.perf_counter() - t0)
            if line.strip() != "READY":
                raise RuntimeError(f"{args.workload} process failed during set-up")
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{args.workload} process exited with code {proc.returncode}")
    data = json.loads(out.strip().splitlines()[-1])
    walls = data["walls"]
    attempted = len(walls) + len(data["traced_walls"]) + len(data["layers"])
    if not args.trace:
        return {
            "compare_s": middle_mean(walls),
            "latency_p50_s": statistics.median(walls),
            "latency_p90_s": p90(walls),
            "qps": len(walls) / sum(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": data["rss_kb"] / 1024.0,
        }, attempted, 0, data["failures"]
    layers = {k: statistics.median([row[k] for row in data["layers"]]) for k in data["layers"][0]}
    counts = data["counts"]
    metrics = {k: layers[k] for k in ("translate.s", "step1.s", "step2.s", "step3.s")}
    metrics.update({k: layers[k] for k in layers if k.startswith("executor.")})
    metrics["executor.retries"] = sum(row["executor.retries"] for row in data["layers"])
    metrics.update(
        {k: counts[k] for k in ("step1.seed_pairs", "step2.pairs", "step2.hits", "step3.extensions", "step3.dp_cells", "step3.alignments")}
    )
    metrics["obs.overhead"] = statistics.median(data["traced_walls"]) / statistics.median(walls) - 1.0
    metrics.update({m["name"]: 0.0 for m in DECLARED["per_layer"] if m["name"].startswith("serve.")})
    return _derived(metrics), attempted, 0, data["failures"]


def _derived(m: dict) -> dict:
    m["step2.pairs_per_s"] = ratio(m["step2.pairs"], m["step2.s"])
    m["step2.hit_ratio"] = ratio(m["step2.hits"], m["step2.pairs"])
    m["step3.skipped"] = m["step2.hits"] - m["step3.extensions"]
    m["step3.cells_per_s"] = ratio(m["step3.dp_cells"], m["step3.s"])
    m["step3.yield"] = ratio(m["step3.alignments"], m["step3.extensions"])
    return m


# -- serve --------------------------------------------------------------------
def run_serve(args, work: str, env: dict) -> tuple[dict, int, int, list[str]]:
    import serveload

    data = inputs.serve(args.seed, args.toy)
    bank = os.path.join(work, "resident.fasta")
    inputs.write_fasta(bank, data["resident"])
    pool = data["pool"]
    log = os.path.join(work, "server.log")
    if args.trace:
        # Half the run untraced, half traced: the per-layer numbers come
        # from the traced half, the tracing cost from the pair.
        phases = [
            serveload.run_phase(bank, pool, args.seconds / 2, args.seed, traced, env, log, boots=1)
            for traced in (False, True)
        ]
    else:
        phases = [serveload.run_phase(bank, pool, args.seconds, args.seed, False, env, log, boots=SERVE_SETUPS)]
    failures: list[str] = []
    cold = serveload.check_responses(phases, pool, bank, failures)
    attempted = sum(len(p["samples"]) for p in phases)
    failed = sum(1 for p in phases for s in p["samples"] if s.status != 200)

    def latencies(phase) -> list[float]:
        return [s.done - s.sent for s in phase["samples"] if s.status == 200]

    last = phases[-1]
    ok = [s for s in last["samples"] if s.status == 200]
    breakdowns = [last["records"][s.body["request_id"]]["breakdown"] for s in ok]
    if not args.trace:
        # Each figure is taken per round (the whole pool once, so every
        # figure covers the same query mix).  The run reports the lower
        # quartile of its complete rounds' times and the upper quartile of
        # their rates: host contention only ever slows a round down, so the
        # run's better rounds show the program and a burst of contention
        # that spares a quarter of the rounds does not move the figure.
        rounds = serveload.complete_rounds(last["samples"], len(pool))
        if not rounds:
            raise RuntimeError("the run completed no whole round of requests")

        def per_round(stat, quartile: int = 0) -> float:
            values = [stat(r) for r in rounds]
            if len(values) == 1:
                return values[0]
            return statistics.quantiles(values, n=4, method="inclusive")[quartile]

        def lat(r) -> list[float]:
            return [s.done - s.sent for s in r]

        def server_s(r) -> list[float]:
            return [last["records"][s.body["request_id"]]["breakdown"]["total"] for s in r]

        return {
            "compare_s": per_round(lambda r: statistics.fmean(server_s(r))),
            "latency_p50_s": per_round(lambda r: statistics.median(lat(r))),
            "latency_p90_s": per_round(lambda r: p90(lat(r))),
            "qps": per_round(lambda r: len(r) / (max(s.done for s in r) - min(s.sent for s in r)), 2),
            "setup_s": statistics.median(last["setups"]),
            "peak_rss_mb": last["rss_kb"] / 1024.0,
        }, attempted, failed, failures

    def span_seconds(doc, name) -> list[float]:
        return [s["duration"] for s in doc["spans"] if s["name"] == name]

    docs = [last["traces"][s.body["request_id"]] for s in ok]
    workers = [span_seconds(d, "step2.worker") for d in docs]
    shards = [span_seconds(d, "step2.shard") for d in docs]
    ungapped = [span_seconds(d, "step2.ungapped")[0] for d in docs]
    shard_pairs = sum(
        s["attributes"].get("pairs", 0) for d in docs for s in d["spans"] if s["name"] == "step2.shard"
    )
    bodies = cold["bodies"].values()
    metrics = {
        "translate.s": 0.0,
        "step1.s": statistics.median([span_seconds(d, "step1.index")[0] for d in docs]),
        "step2.s": statistics.median([sum(w) if w else u for w, u in zip(workers, ungapped, strict=True)]),
        "executor.s": statistics.median(ungapped),
        "executor.overhead_s": statistics.median([u - max(s, default=u) for s, u in zip(shards, ungapped, strict=True)]),
        "executor.imbalance": statistics.median([max(w) / statistics.fmean(w) if w else 1.0 for w in workers]),
        "executor.retries": sum(s.body["run_health"]["retries"] for p in phases for s in p["samples"] if s.status == 200),
        "step3.s": statistics.median([span_seconds(d, "step3.gapped")[0] for d in docs]),
        "step1.seed_pairs": sum(b["n_seed_pairs"] for b in bodies),
        "step2.pairs": sum(b["n_seed_pairs"] for b in bodies),
        "step2.hits": sum(b["n_ungapped_hits"] for b in bodies),
        "step3.extensions": sum(b["n_gapped_extensions"] for b in bodies),
        "step3.alignments": sum(b["n_alignments"] for b in bodies),
        "step3.dp_cells": cold["dp_cells"],
        "serve.queue_s": statistics.median([b["queue"] for b in breakdowns]),
        "serve.queue_p90_s": p90([b["queue"] for b in breakdowns]),
        "serve.step1_s": statistics.median([b["step1"] for b in breakdowns]),
        "serve.step2_s": statistics.median([b["step2"] for b in breakdowns]),
        "serve.step3_s": statistics.median([b["merge"] for b in breakdowns]),
        "serve.dispatch_s": statistics.median([b["dispatch"] for b in breakdowns]),
        "serve.transport_s": statistics.median(
            [s.done - s.sent - b["queue"] - b["total"] for s, b in zip(ok, breakdowns, strict=True)]
        ),
        "serve.send_lag_s": p90([s.sent - s.due for s in ok]),
        "obs.overhead": statistics.median(latencies(last)) / statistics.median(latencies(phases[0])) - 1.0,
    }
    m = _derived(metrics)
    m["step2.pairs_per_s"] = ratio(shard_pairs, sum(sum(w) for w in workers))
    m["step3.cells_per_s"] = ratio(cold["dp_cells"], cold["step3_s"])
    return m, attempted, failed, failures


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in DECLARED["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, same checks")
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + HERE)
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    header()
    print(f"# reference_loop_s start={reference_loop():.4f}", flush=True)
    cpu_start = cpu_times()
    runner = run_oneshot if args.workload in ("genome-compare", "bank-scan") else run_serve
    metrics, attempted, failed, failures = runner(args, work, env)
    print(f"# host_steal run={steal_share(cpu_start)}", flush=True)
    print(f"# reference_loop_s end={reference_loop():.4f}", flush=True)
    for failure in failures[:20]:
        print(f"# check failed: {failure}", flush=True)
    declared = DECLARED["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
