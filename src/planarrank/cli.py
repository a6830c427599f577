"""Command-line interface.

Exit codes: 0 success, 1 malformed input (a usage error included), 2
non-planar graph, 3 rank out of range.  Output is deterministic: JSON is
emitted with sorted keys and streams are JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys

from .codecs import tuple_rank
from .embedding import PlanarEmbedding
from .errors import MalformedInput, NotPlanar, PlanarRankError, RankOutOfRange
from .full import EmbeddingRanker
from .graph import Graph


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


def _parse_rank(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise MalformedInput(f"rank must be a decimal integer: {text!r}") from exc


def cmd_rank(args) -> int:
    g = _load_graph(args.graph)
    emb = _load_embedding(g, args.embedding)
    ranker = EmbeddingRanker(g)
    values = ranker.phi(emb)  # validate checks the embedding here, once
    print(tuple_rank(values, ranker.radix))
    if args.tuple:
        print(json.dumps({"values": values, "bounds": ranker.bounds}, sort_keys=True))
    return 0


def cmd_unrank(args) -> int:
    g = _load_graph(args.graph)
    r = _parse_rank(args.rank)
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
    start = _parse_rank(args.start)
    ranker = EmbeddingRanker(g)
    for r, emb in ranker.enumerate(start, args.limit):
        print('{"embedding": %s, "rank": "%d"}' % (emb.to_json(), r))
    return 0


def cmd_decompose(args) -> int:
    ranker = EmbeddingRanker(_load_graph(args.graph))
    cuts = [[] for _ in ranker.comps]
    blocks = [[] for _ in ranker.comps]
    for cut in ranker.cuts:
        cuts[cut.comp].append(cut.v)
    for info in ranker.blocks:
        blocks[info.comp].append(info)
    for (cid, comp), comp_cuts, comp_blocks in zip(ranker.comps, cuts, blocks):
        print(f"component {cid}: vertices {sorted(comp)}")
        print(f"  cut-vertices: {comp_cuts}")
        for info in comp_blocks:
            print(f"  block {info.edges}")
            for line in info.shape.tree.dump(relabel=info.to_global).splitlines():
                print(f"    {line}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits 1, malformed input: 2
    is the exit code of a non-planar graph."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
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

    p = sub.add_parser("decompose", help="dump block-cut tree and SPQR-trees")
    p.add_argument("-g", "--graph", required=True)
    p.set_defaults(func=cmd_decompose)

    args = parser.parse_args(argv)
    # Counts and ranks may exceed Python's default int-str limit of 4,300
    # digits: lift it for this command only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except PlanarRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotPlanar):
            return 2
        if isinstance(exc, RankOutOfRange):
            return 3
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
