"""planarrank benchmark: one closed-loop client driving EmbeddingRanker.

    python3 perfbench/run.py --workload forest|nested|bigblock \\
        --seed N --seconds S --trace 0|1

Run from the root of a planarrank checkout; the library is imported from
./src.  The workload's graphs and operations are generated from --seed.
One client in one process (no threads) issues one operation at a time.

--trace 0 prints the end-to-end metrics:
  * setup_s, first_unrank_ms: each graph is built and unranked once in
    a fresh interpreter (cold caches), three times over; the mean over
    graphs of the median over repeats;
  * unrank / rank / sample / enumerate throughput and latency over a
    fixed plan of rounds of operations sized to take about --seconds on
    the reference box (fixed work keeps `attempted`, `failed` and traced
    call counts exact);
  * peak_rss_mb of this process.
Every time is scaled to the host's uncontended speed by a probe loop run
around it (see ops.Timings); the printed report shows raw figures too.

--trace 1 prints per-layer metrics from spans recorded around the calls
into each module (see tracing.py) and writes the spans to
.perfbench_out/.  End-to-end figures come only from untraced runs.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Every output is checked outside the timed region; see ops.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

COLD_REPEATS = 3
MIN_TIMED = 100  # unranks and ranks per run: p90 then has ten samples above it

# pairs: unrank/rank pairs per graph and round; stream: items per sample
# and per enumerate stream; rounds_per_s: rounds per second of --seconds,
# measured on a 2-core x86-64 box.
PLANS = {
    "forest": dict(pairs=3, stream=2, rounds_per_s=2.3),
    "nested": dict(pairs=3, stream=2, rounds_per_s=2.2),
    "bigblock": dict(pairs=4, stream=4, rounds_per_s=8.0),
}

END_TO_END_UNITS = {
    "setup_s": "s", "first_unrank_ms": "ms",
    "unrank_ops_s": "1/s", "unrank_p50_ms": "ms", "unrank_p90_ms": "ms",
    "rank_ops_s": "1/s", "rank_p50_ms": "ms", "rank_p90_ms": "ms",
    "sample_ops_s": "1/s", "enumerate_ops_s": "1/s", "peak_rss_mb": "MB",
}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(PLANS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def cold_samples(workload: str, seed: int, n_graphs: int, tally
                 ) -> tuple[float, float]:
    """(setup_s, first_unrank_ms): per graph the median over repeats, then
    the mean over graphs.

    Every sample is a fresh interpreter, so module-level and per-tree
    caches start empty, as in a `planarrank` command-line call.
    """
    setup, first = [], []
    for gi in range(n_graphs):
        s_runs, f_runs = [], []
        for _ in range(COLD_REPEATS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "cold.py"), "--workload", workload,
                 "--seed", str(seed), "--graph", str(gi)],
                capture_output=True, text=True, timeout=150, cwd=ROOT)
            if proc.returncode != 0:
                sys.exit(f"cold sample failed:\n{proc.stderr}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            s_runs.append(out["setup_s"])
            f_runs.append(out["first_unrank_s"])
            tally.merge(out["tally"])
        setup.append(statistics.median(s_runs))
        first.append(statistics.median(f_runs))
    return statistics.fmean(setup), statistics.fmean(first) * 1e3


def make_plan(workload: str, seconds: float, n_graphs: int):
    from ops import Plan

    p = PLANS[workload]
    rounds = max(math.ceil(MIN_TIMED / (p["pairs"] * n_graphs)),
                 round(seconds * p["rounds_per_s"]))
    return Plan(p["pairs"], p["stream"], rounds)


def end_to_end(timings, scaled: bool = True) -> dict[str, float]:
    out = {}
    for kind in ("unrank", "rank"):
        lat = timings.latencies(kind, scaled)
        out[f"{kind}_ops_s"] = timings.rate(kind, scaled)
        out[f"{kind}_p50_ms"] = statistics.median(lat) * 1e3
        out[f"{kind}_p90_ms"] = statistics.quantiles(lat, n=10)[8] * 1e3
    out["sample_ops_s"] = timings.rate("sample", scaled)
    out["enumerate_ops_s"] = timings.rate("enumerate", scaled)
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "s" if name.endswith((".s", ".self_s")) else "ratio"


def main() -> int:
    t_start = time.perf_counter()
    args = parse_args()
    if not (SRC / "planarrank" / "__init__.py").is_file():
        print(f"no planarrank sources under {SRC}; run from a planarrank checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from planarrank import EmbeddingRanker

    import ops
    import workloads

    graphs = workloads.graphs(args.workload, args.seed)
    plan = make_plan(args.workload, args.seconds, len(graphs))
    tally = ops.Tally()
    metrics: dict[str, tuple[float, str]] = {}

    untraced = lambda kind, gi: contextlib.nullcontext()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        around_op = tracer.op_span
    else:
        setup_s, first_ms = cold_samples(args.workload, args.seed, len(graphs), tally)
        metrics["setup_s"] = (setup_s, "s")
        metrics["first_unrank_ms"] = (first_ms, "ms")
        around_op = untraced

    rankers = []
    for gi, g in enumerate(graphs):
        with around_op("setup", gi):
            rankers.append(EmbeddingRanker(g))
        tally.add("setup", *ops.check_setup(rankers[-1]))

    client = ops.Client(args.seed, rankers, plan, tally, around_op)
    client.run_round(-1, ops.Timings())  # warm-up: lazy caches fill here
    # As a long-running server would, exempt everything alive after set-up
    # from collection, so collections do not rescan the rankers at
    # whichever operation they happen to interrupt.
    gc.collect()
    gc.freeze()
    timings = ops.Timings()
    if not args.trace:
        for rnd in range(plan.rounds):
            client.run_round(rnd, timings)
        for name, value in end_to_end(timings).items():
            metrics[name] = (value, END_TO_END_UNITS[name])
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        # Set-up, warm-up and a fixed share of the rounds are traced, so
        # call counts depend only on the seed.  Each traced round is
        # followed by the same round untraced; their unrank times give
        # the tracing overhead.
        traced = ops.Timings()
        for rnd in range(max(1, math.ceil(plan.rounds / 4))):
            client.run_round(rnd, traced)
            tracer.uninstall()
            client.around_op = untraced
            client.run_round(rnd, timings)
            tracer.install()
            client.around_op = tracer.op_span
        tracer.uninstall()
        layer = tracer.per_layer([len(rk.blocks) for rk in rankers])
        for name, value in layer.items():
            metrics[name] = (value, layer_unit(name))
        overhead = timings.rate("unrank") / traced.rate("unrank") - 1
        metrics["tracing.overhead_frac"] = (overhead, "ratio")
        tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.tsv")

    busy = timings.busy()
    print(f"timed {busy:.2f} s of ops; wall {time.perf_counter() - t_start:.1f} s",
          file=sys.stderr)
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    wrong = sum(tally.wrong.values())
    raw = {} if args.trace else end_to_end(timings, scaled=False)
    for name, (value, unit) in metrics.items():
        note = f"  (unscaled {raw[name]:.6f})" if name in raw else ""
        print(f"{name:44s} {value:>16.6f} {unit}{note}")
    if not args.trace:
        print(f"{'failed_op_frac':44s} {failed / attempted:>16.6f} ratio")
    for kind in ops.KINDS:
        print(f"ops.{kind:16s} attempted {tally.attempted[kind]:6d}"
              f"  failed {tally.failed[kind]:6d}  wrong {tally.wrong[kind]:6d}")
    for kind, err in tally.first_error.items():
        print(f"first {kind} failure: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
