"""Command-line interface.

Exit codes: 0 success, 1 malformed input, 2 non-planar graph, 3 rank out
of range.  Output is deterministic: JSON is emitted with sorted keys and
streams are JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys

from .embedding import PlanarEmbedding
from .errors import MalformedInput, NotPlanar, PlanarRankError, RankOutOfRange, TooLarge
from .full import EmbeddingRanker
from .graph import Graph
from .oracle import enumerate_disconnected


def _load_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            return Graph.from_json(fh.read())
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _load_embedding(graph: Graph, path: str) -> PlanarEmbedding:
    try:
        with open(path) as fh:
            return PlanarEmbedding.from_json(graph, fh.read())
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def cmd_rank(args) -> int:
    g = _load_graph(args.graph)
    emb = _load_embedding(g, args.embedding)
    ranker = EmbeddingRanker(g)
    values = ranker.phi(emb)
    from .codecs import tuple_rank

    print(tuple_rank(values, ranker.bounds))
    if args.tuple:
        print(json.dumps({"values": values, "bounds": ranker.bounds}, sort_keys=True))
    return 0


def cmd_unrank(args) -> int:
    g = _load_graph(args.graph)
    try:
        r = int(args.rank)
    except ValueError as exc:
        raise MalformedInput(f"rank must be a decimal integer: {args.rank!r}") from exc
    emb = EmbeddingRanker(g).unrank(r)
    payload = emb.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_count(args) -> int:
    g = _load_graph(args.graph)
    print(EmbeddingRanker(g).count())
    return 0


def cmd_sample(args) -> int:
    g = _load_graph(args.graph)
    ranker = EmbeddingRanker(g)
    for emb in ranker.sample(seed=args.seed, k=args.k):
        print(emb.to_json())
    return 0


def cmd_enumerate(args) -> int:
    g = _load_graph(args.graph)
    ranker = EmbeddingRanker(g)
    start = int(args.start)
    for r, emb in ranker.enumerate(start, args.limit):
        print(json.dumps({"rank": str(r), "embedding": emb.canonical_data()},
                         sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    if g.n > args.max_n:
        raise MalformedInput(
            f"graph has {g.n} vertices, above the --max-n {args.max_n} oracle guard"
        )
    ranker = EmbeddingRanker(g)
    total = ranker.count()
    try:
        oracle = enumerate_disconnected(g)
    except TooLarge as exc:
        raise MalformedInput(str(exc)) from exc
    ok = True
    if total != len(oracle):
        print(f"MISMATCH: count {total} != oracle {len(oracle)}", file=sys.stderr)
        ok = False
    produced = set()
    for r in range(total):
        emb = ranker.unrank(r)
        produced.add(emb.to_json())
        if ranker.rank(emb) != r:
            print(f"MISMATCH: rank(unrank({r})) != {r}", file=sys.stderr)
            ok = False
    if produced != oracle:
        print("MISMATCH: unranked embedding set differs from the oracle",
              file=sys.stderr)
        ok = False
    print("verify: OK" if ok else "verify: FAILED")
    return 0 if ok else 4


def cmd_decompose(args) -> int:
    ranker = EmbeddingRanker(_load_graph(args.graph))
    for ci, (cid, comp) in enumerate(ranker.comps):
        print(f"component {cid}: vertices {sorted(comp)}")
        print(f"  cut-vertices: {[cut.v for cut in ranker.cuts if cut.comp == ci]}")
        for info in ranker.blocks:
            if info.comp != ci:
                continue
            print(f"  block {info.edges}")
            for line in info.tree.dump(relabel=info.to_global).splitlines():
                print(f"    {line}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planarrank",
        description="Rank, unrank, count, enumerate and sample planar embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank of an embedding")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-e", "--embedding", required=True)
    p.add_argument("--tuple", action="store_true",
                   help="also print the bounds and values tuple as JSON")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("unrank", help="embedding of a rank")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-r", "--rank", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_unrank)

    p = sub.add_parser("count", help="number of embeddings")
    p.add_argument("-g", "--graph", required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sample", help="uniform random embeddings")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-k", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("enumerate", help="stream consecutive embeddings")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--from", dest="start", default="0")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="cross-check against the brute-force oracle")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="dump block-cut tree and SPQR-trees")
    p.add_argument("-g", "--graph", required=True)
    p.set_defaults(func=cmd_decompose)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanarRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotPlanar):
            return 2
        if isinstance(exc, RankOutOfRange):
            return 3
        return 1


if __name__ == "__main__":
    sys.exit(main())
