"""Benchmark of the solk pipeline on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload wedge-ktheory --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # the three in one process

Each workload is a closed loop with one caller: one process, one thread,
and the next item starts only after the previous one has finished.  The
corpus is generated once, untimed; set-up (fresh import of ``src/solk``,
writing the input files and reading them back) is then timed several times
and reported as a median.  Then whole passes over the corpus run until
``--seconds`` would be exceeded.  Every output is checked (see
``workloads.check``), and for the default seed also compared with the
SHA-256 digests in ``digests.json``.

The reported times are normalised for the machine's current speed: a
reference kernel (``reference.py``) is timed right after every item, and an
item's time is the median over the passes of its wall time divided by the
kernel's, scaled to seconds at ``REFERENCE_S`` per kernel run.  The same
holds for each set-up.  ``corpus_s`` is the sum of the item times, and
``item_p50_ms`` and ``item_tail_ms`` are percentiles of them.  The text
lines also print the raw wall time of a pass.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
traced passes alternate with untraced ones, and the per-layer metrics of the
traced passes are reported (see ``spans.py``); their times are raw span
times, and ``trace.overhead_frac`` compares normalised traced and untraced
passes.  The names and units of both
come from ``BENCHMARK.json``.  The last line of standard output is one JSON
object; the exit code is 0 only when every item passed.  When the run ends,
the spans of its last traced pass are written to
``.perfbench_work/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from corpus import generate, write_files
from reference import REFERENCE_S, reference_seconds
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, ItemResult, alarm_handler, import_solk, load_digests, run_item

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 15
ITEM_DEADLINE_S = 30.0
# Items still pending this long after measuring began are failed unrun,
# so a run ends within 180 s whatever the program does.
RUN_GRACE_S = 60.0


def declared_units() -> dict[str, dict[str, str]]:
    """Name -> unit of the metrics BENCHMARK.json declares, for --trace 0 and 1."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {
        trace: {m["name"]: m["unit"] for m in spec[kind]}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer"))
    }


def setup(workload: str, seed: int, directory: Path):
    """Fresh import and file writing, timed SETUP_REPEATS times and normalised.

    The corpus is generated once beforehand, untimed: the wedge generator's
    rejection search is the benchmark's own work, and its length depends on
    the seed.
    """
    files = generate(workload, seed)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        solk = import_solk(SRC)
        items = write_files(workload, files, directory)
        times.append((perf_counter() - start) / reference_seconds() * REFERENCE_S)
    return solk, items, statistics.median(times)


def run_pass(solk, workload, items, digests, stop_at, tracer=None) -> list[ItemResult]:
    results = []
    for item in items:
        remaining = stop_at - perf_counter()
        if remaining <= 0:
            result = ItemResult(item.name, 0.0, "timeout", "run deadline passed")
        else:
            if tracer is not None:
                tracer.item = item.name
            result = run_item(solk, workload, item, digests, min(ITEM_DEADLINE_S, remaining))
        results.append(dataclasses.replace(result, reference=reference_seconds()))
    return results


def repeat(seconds: float, stop_at: float, step) -> None:
    """Call ``step`` until one more call as long as the longest so far would overrun."""
    longest, start = 0.0, perf_counter()
    while True:
        step_start = perf_counter()
        step()
        longest = max(longest, perf_counter() - step_start)
        if perf_counter() - start + longest > seconds or perf_counter() >= stop_at:
            return


def traced_pass(solk, workload, items, digests, stop_at, tracer: Tracer):
    """One pass with every listed function wrapped; returns its results and layer metrics."""
    tracer.reset()
    uninstall = tracer.install(solk)
    try:
        results = run_pass(solk, workload, items, digests, stop_at, tracer)
    finally:
        uninstall()
    return results, layer_metrics(tracer.spans, tracer.observed, len(items))


def item_seconds(passes) -> list[float]:
    """Each item's normalised time, its median over the passes, in corpus order."""
    return [
        statistics.median(p[i].seconds / p[i].reference * REFERENCE_S for p in passes)
        for i in range(len(passes[0]))
    ]


def end_to_end(passes) -> tuple[dict[str, float], str]:
    """Metrics from untraced passes."""
    per_item = sorted(item_seconds(passes))
    n = len(per_item)
    # Highest percentile with at least ten items beyond it.
    tail = max(n - 11, 0)
    metrics = {
        "corpus_s": sum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1000,
        "item_tail_ms": per_item[tail] * 1000,
    }
    return metrics, f"p{100 * (tail + 1) / n:.1f} of {n} items"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    passes, traced, layers = [], [], []
    try:
        solk, items, setup_s = setup(workload, seed, directory)
        digests = load_digests(workload, seed)
        tracer = Tracer()
        stop_at = perf_counter() + seconds + RUN_GRACE_S

        def step():
            # Traced passes alternate with untraced ones, so drift in machine
            # speed reaches both sides of the overhead ratio alike.
            passes.append(run_pass(solk, workload, items, digests, stop_at))
            if trace:
                results, metrics = traced_pass(solk, workload, items, digests, stop_at, tracer)
                traced.append(results)
                layers.append(metrics)

        with alarm_handler():
            repeat(seconds, stop_at, step)
        if trace:
            tracer.dump(WORK / f"trace-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    results = [r for p in passes + traced for r in p]
    metrics, tail_note = end_to_end(passes)
    metrics["setup_s"] = setup_s
    out = {
        "workload": workload,
        "passes": len(passes),
        "items": len(items),
        "wall_pass_s": statistics.median(sum(r.seconds for r in p) for p in passes),
        "attempted": len(results),
        "failures": [r for r in results if r.status != "ok"],
        "tail_note": tail_note,
        "end_to_end": metrics,
    }
    if trace:
        out["per_layer"] = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        out["per_layer"]["trace.overhead_frac"] = (
            sum(item_seconds(traced)) / metrics["corpus_s"] - 1
        )
    return out


def report(result: dict, seed: int, units: dict[str, dict[str, str]]) -> None:
    failed = len(result["failures"])
    print(f"== {result['workload']} (seed {seed}; {result['passes']} untraced passes over "
          f"{result['items']} items, median wall time {result['wall_pass_s']:.4g} s a pass; "
          f"closed loop, one caller)")
    for name, value in result["end_to_end"].items():
        note = f"  ({result['tail_note']})" if name == "item_tail_ms" else ""
        print(f"{name:<14}{value:.6g} {units[0][name]}{note}")
    print(f"{'failed_frac':<14}{failed / result['attempted']:.6g}  "
          f"({failed} of {result['attempted']} item runs)")
    if "per_layer" in result:
        print(f"-- per layer, median of {result['passes']} traced passes")
        for name, value in result["per_layer"].items():
            print(f"{name:<30}{value:.6g} {units[1][name]}")
    for r in result["failures"]:
        print(f"FAIL {result['workload']} {r.name}: {r.status}: {r.detail}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        units = declared_units()
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    declared = units[args.trace]
    metrics = {}
    for result in results:
        report(result, args.seed, units)
        values = result["per_layer"] if args.trace else result["end_to_end"]
        differ = set(values) ^ (set(declared) - {"peak_rss_mb"})
        if differ:
            raise ValueError(f"metrics differ from those in {BENCHMARK.name}: {sorted(differ)}")
        prefix = f"{result['workload']}." if args.workload == "all" else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": declared[name]}
    if not args.trace:
        # One figure for the whole process: with --workload all it covers every workload.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{'peak_rss_mb':<14}{peak:.6g} {declared['peak_rss_mb']}")
        metrics["peak_rss_mb"] = {"value": peak, "unit": declared["peak_rss_mb"]}
    failed = sum(len(r["failures"]) for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
