"""The one-shot workload process (``genome-compare`` and ``bank-scan``).

``run.py`` starts this file as a child process, so the set-up it times
covers interpreter start, imports and input loading.  The child prints
``READY`` just before its first timed comparison, then (unless
``--setup-only``) repeats whole comparisons for ``--seconds`` and prints
one JSON line with the samples, the work counts and the check failures.

* ``--trace 0``: every repetition is the program's own entry point,
  ``SeedComparisonPipeline.compare_with_genome`` / ``compare_banks``.
* ``--trace 1``: repetitions cycle through three kinds: that untraced
  call; the same call with the program's tracer active (the pair gives
  ``obs.overhead``); and a decomposed comparison, in which this file
  calls ``translated_bank``, ``TwoBankIndex.build``,
  ``ShardedStep2Executor.run`` and ``gapped_stage`` in order, each in a
  ``trace.span`` of its own (the per-layer seconds).  The decomposed
  spans, with the program's own spans beneath them, are written to
  ``spans.json`` in the inputs directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402

#: Traced layer seconds must add up to the untraced median comparison
#: time within this share of it.
LAYER_SUM_MARGIN = 0.25
#: Seed pairs re-scored in plain Python by the step-2 window check.
WINDOW_SAMPLE = 3000


def _config(workload: str):
    from repro.core.config import PipelineConfig

    if workload == "genome-compare":
        return PipelineConfig(workers=1)
    # The paper's Table 3 setting: the ungapped threshold raised by 10.
    return PipelineConfig(ungapped_threshold=45 + 10, workers=2)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from repro.core.executor import ShardedStep2Executor
    from repro.core.pipeline import SeedComparisonPipeline, gapped_stage
    from repro.core.profile import PipelineProfile
    from repro.index.kmer import TwoBankIndex
    from repro.obs import trace
    from repro.seqs.alphabet import DNA
    from repro.seqs.fasta import load_bank, read_fasta
    from repro.seqs.translate import translated_bank

    genome_mode = args.workload == "genome-compare"
    work = args.inputs
    config = _config(args.workload)
    if genome_mode:
        bank0 = load_bank(os.path.join(work, "proteins.fasta"))
        genome = next(iter(read_fasta(os.path.join(work, "genome.fasta"), DNA)))
    else:
        bank0 = load_bank(os.path.join(work, "bank0.fasta"))
        bank1 = load_bank(os.path.join(work, "bank1.fasta"))
    pipeline = SeedComparisonPipeline(config)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    def entry():
        t0 = time.perf_counter()
        if genome_mode:
            report = pipeline.compare_with_genome(bank0, genome)
        else:
            report = pipeline.compare_banks(bank0, bank1)
        wall = time.perf_counter() - t0
        counts = {
            "step1.seed_pairs": report.n_seed_pairs,
            "step2.hits": report.n_ungapped_hits,
            "step3.extensions": report.n_gapped_extensions,
            "step3.dp_cells": pipeline.profile.step3.operations,
            "step3.alignments": len(report.alignments),
        }
        return wall, report, counts

    def traced_entry():
        with trace.activate(trace.Tracer()):
            return entry()

    tracer = trace.Tracer()

    def decomposed():
        profile = PipelineProfile()
        with trace.activate(tracer), trace.span("compare") as root:
            if genome_mode:
                with trace.span("translate"):
                    b1 = translated_bank(genome, pad=max(64, config.flank + 8))
            else:
                b1 = bank1
            with trace.span("step1"):
                index = TwoBankIndex.build(bank0, b1, config.seed_model)
            executor = ShardedStep2Executor(
                config.ungapped_config(),
                workers=config.workers,
                supervisor=config.supervisor_config(),
                min_pairs_per_shard=config.min_pairs_per_shard,
            )
            with trace.span("executor"):
                hits = executor.run(index)
            with trace.span("step3"):
                report = gapped_stage(bank0, b1, hits, config, profile)
        took = {s.name: s.duration for s in tracer.spans if s.parent_id == root.span_id}
        shard_walls = [s.wall_seconds for s in executor.last_timings]
        layers = {
            "translate.s": took.get("translate", 0.0),
            "step1.s": took["step1"],
            "step2.s": sum(shard_walls),
            "executor.s": took["executor"],
            "executor.overhead_s": took["executor"] - max(shard_walls),
            "executor.imbalance": max(shard_walls) / statistics.fmean(shard_walls),
            "executor.retries": executor.last_health.retries,
            "step3.s": took["step3"],
        }
        counts = {
            "step1.seed_pairs": index.total_pairs,
            "step2.pairs": hits.stats.pairs,
            "step2.hits": len(hits),
            "step3.extensions": report.n_gapped_extensions,
            "step3.dp_cells": profile.step3.operations,
            "step3.alignments": len(report.alignments),
        }
        return layers, report, counts

    walls: list[float] = []
    traced_walls: list[float] = []
    layer_rows: list[dict] = []
    rows_seen: list[list[dict]] = []
    counts_seen: list[dict] = []
    start = time.perf_counter()
    rep = 0
    # Whole comparisons only: at least two, and when traced at least one of
    # each kind.
    kinds = 3 if args.trace else 1
    while rep < max(2, kinds) or time.perf_counter() - start < args.seconds:
        if rep % kinds == 2:
            layers, report, counts = decomposed()
            layer_rows.append(layers)
        elif rep % kinds == 1:
            wall, report, counts = traced_entry()
            traced_walls.append(wall)
        else:
            wall, report, counts = entry()
            walls.append(wall)
        rows_seen.append(checks.report_rows(report))
        counts_seen.append(counts)
        rep += 1

    # Determinism: every repetition, traced or not, must report the same
    # alignments and the same work counts.
    failures: list[str] = []
    first: dict[str, int] = {}
    for rows, counts in zip(rows_seen, counts_seen, strict=True):
        if rows != rows_seen[0]:
            failures.append("alignments differ between repetitions")
        for key, value in counts.items():
            if first.setdefault(key, value) != value:
                failures.append(f"work count {key} differs between repetitions: {value} vs {first[key]}")

    rows = rows_seen[0]
    if genome_mode:
        queries = dict(inputs.read_fasta(os.path.join(work, "proteins.fasta")))
        dna = inputs.read_fasta(os.path.join(work, "genome.fasta"))[0][1]
        subjects = {
            f"chr|frame{f:+d}": inputs.translate_frame(dna, f) for f in (1, 2, 3, -1, -2, -3)
        }
        program_frames = translated_bank(genome)
        for i in range(len(program_frames)):
            name = program_frames.names[i]
            if program_frames[i].text() != subjects.get(name):
                failures.append(f"translated frame {name} differs from the standard code")
        with open(os.path.join(work, "truth.json"), encoding="ascii") as fh:
            checks.planted_recall(rows, json.load(fh), len(dna), failures)
    else:
        queries = dict(inputs.read_fasta(os.path.join(work, "bank0.fasta")))
        subjects = dict(inputs.read_fasta(os.path.join(work, "bank1.fasta")))
        _check_window_sample(pipeline, config, args.seed, failures)
    checks.check_alignments(rows, queries, subjects, failures)

    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "layers": layer_rows,
        "counts": first,
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if args.trace:
        sums = [sum(r[k] for k in ("translate.s", "step1.s", "executor.s", "step3.s")) for r in layer_rows]
        compare_s = statistics.median(walls)
        if abs(statistics.median(sums) - compare_s) > LAYER_SUM_MARGIN * compare_s:
            failures.append(
                f"layer seconds {statistics.median(sums):.3f} do not account for "
                f"compare_s {compare_s:.3f} within {LAYER_SUM_MARGIN:.0%}"
            )
        with open(os.path.join(work, "spans.json"), "w", encoding="ascii") as fh:
            json.dump(tracer.export(), fh)
    print(json.dumps(result), flush=True)
    return 0


def _check_window_sample(pipeline, config, seed: int, failures: list[str]) -> None:
    """Re-score a seeded sample of seed pairs, and of survivors, in plain Python."""
    import numpy as np
    from repro.seqs.alphabet import AA_LETTERS

    index, hits = pipeline.last_index, pipeline.last_hits
    letters = np.frombuffer(AA_LETTERS.encode(), dtype=np.uint8)
    text0 = letters[index.index0.bank.buffer].tobytes().decode()
    text1 = letters[index.index1.bank.buffer].tobytes().decode()
    flank, width, thr = config.flank, config.window, config.ungapped_threshold
    survivors = {
        (int(a), int(b)): int(s) for a, b, s in zip(hits.offsets0, hits.offsets1, hits.scores, strict=True)
    }
    rng = np.random.default_rng([seed, 9])
    counts = index.pair_counts()
    cum = np.cumsum(counts)
    sample = []
    for draw in rng.integers(0, int(cum[-1]), WINDOW_SAMPLE):
        j = int(np.searchsorted(cum, draw, side="right"))
        entry = index.entry(j)
        i0, i1 = divmod(int(draw - (cum[j] - counts[j])), len(entry.offsets1))
        sample.append((int(entry.offsets0[i0]), int(entry.offsets1[i1])))
    keys = list(survivors)
    sample += [keys[i] for i in rng.choice(len(keys), min(len(keys), WINDOW_SAMPLE), replace=False)]
    for o0, o1 in sample:
        score = checks.window_score(text0, o0, text1, o1, flank, width)
        reported = survivors.get((o0, o1))
        if reported is None and score >= thr:
            failures.append(f"pair ({o0}, {o1}) scores {score} >= {thr} but did not survive step 2")
        elif reported is not None and (score < thr or score != reported):
            failures.append(f"survivor ({o0}, {o1}) reported {reported}, window score {score}")


if __name__ == "__main__":
    sys.exit(main())
