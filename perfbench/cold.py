"""One cold sample: build one graph's ranker and unrank once with it.

    python3 perfbench/cold.py --workload W --seed N --graph I

Run in a fresh interpreter, so module-level and per-tree caches start
empty, as in a `planarrank` command-line call.  A small warm-up graph is
ranked first so that interpreter start-up noise stays out of the figures.
Prints one JSON line: the set-up time and the first unrank's time, both
scaled to the reference host speed (see ops.Timings), and the checked
outcomes.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planarrank import EmbeddingRanker, Graph, spqr  # noqa: E402

import ops  # noqa: E402
import workloads  # noqa: E402


# A two-component graph (theta block, triangle, lone edge) with no R-node:
# ranking it once warms the interpreter's code paths without putting
# anything in spqr's module-level R-skeleton cache.
WARM_UP = Graph(9, [(1, 2), (2, 4), (1, 3), (3, 4), (1, 5), (4, 5),
                    (4, 6), (4, 7), (6, 7), (8, 9)])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.GRAPH_COUNTS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--graph", type=int, required=True)
    args = ap.parse_args()

    warm = EmbeddingRanker(WARM_UP)
    for r in range(warm.count()):
        warm.rank(warm.unrank(r))
    if getattr(spqr, "_R_ROTATION_CACHE", None):
        sys.exit("the warm-up graph must not fill the R-skeleton cache")

    tally = ops.Tally()
    g = workloads.graph(args.workload, args.seed, args.graph)
    # Each timed call starts with the collector's counters at zero, so a
    # full collection owed to earlier allocations does not land in it.
    gc.collect()
    p0 = ops.probe()
    t0 = perf_counter()
    ranker = EmbeddingRanker(g)
    dt_setup = perf_counter() - t0
    p1 = ops.probe()
    r = random.Random(f"{args.seed}:first:{args.graph}").randrange(ranker.count())
    gc.collect()
    p2 = ops.probe()
    emb, dt_first, exc = ops.timed(ranker.unrank, r)
    p3 = ops.probe()

    tally.add("setup", *ops.check_setup(ranker))
    if exc is not None:
        tally.add("first_unrank", "failed", f"unrank: {exc!r}")
    else:
        outcome, why, _ = ops.check_embedding(ranker, emb, r)
        tally.add("first_unrank", outcome, why)
    print(json.dumps({"setup_s": ops.at_reference_speed(dt_setup, p0, p1),
                      "first_unrank_s": ops.at_reference_speed(dt_first, p2, p3),
                      "tally": tally.as_dict()}))


if __name__ == "__main__":
    main()
