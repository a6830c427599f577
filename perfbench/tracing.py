"""Spans around the calls into each planarrank module, from outside it.

`Tracer.install()` replaces each traced function where its caller looks
it up (a module global, a class attribute, or `networkx.check_planarity`)
with a wrapper that records a span (name, start, end, parent, op id)
while recording is switched on.  `uninstall()` puts the originals back.
Nothing under src/ changes.  Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import networkx

from planarrank import biconnected, codecs, cutvertex, embedding, full, nesting

# (metric name, owner object, attribute).  The owner is where the caller
# looks the function up, so a module's own binding is what gets wrapped.
TRACED = [
    ("graph.block_cut_tree", full, "block_cut_tree"),
    ("graph.connected_components", embedding, "connected_components"),
    ("embedding.PlanarEmbedding_init", embedding.PlanarEmbedding, "__init__"),
    ("embedding.validate", full, "validate"),
    ("embedding.to_json", embedding.PlanarEmbedding, "to_json"),
    ("codecs.tuple_unrank", full, "tuple_unrank"),
    ("codecs.tuple_rank", full, "tuple_rank"),
    ("codecs.check_bounds", codecs, "check_bounds"),
    ("codecs.nesting_tuple_preprocess", nesting, "nesting_tuple_preprocess"),
    ("codecs.perm_rank", biconnected, "perm_rank"),
    ("codecs.perm_unrank", biconnected, "perm_unrank"),
    ("spqr.build_spqr", full, "build_spqr"),
    ("spqr.compose_embedding", biconnected, "compose_embedding"),
    ("networkx.check_planarity", networkx, "check_planarity"),
    ("biconnected.chi", full, "chi"),
    ("biconnected.chi_inverse", full, "chi_inverse"),
    ("cutvertex.phi_v", full, "phi_v"),
    ("cutvertex.phi_v_inverse", full, "phi_v_inverse"),
    ("cutvertex.BlocksAtV_make", cutvertex.BlocksAtV, "make"),
    ("nesting.forward", nesting.NestingCodec, "forward"),
    ("nesting.inverse", nesting.NestingCodec, "inverse"),
    ("full.init", full.EmbeddingRanker, "__init__"),
    ("full.phi", full.EmbeddingRanker, "phi"),
    ("full.phi_inverse", full.EmbeddingRanker, "phi_inverse"),
]

# Spans whose self time (duration minus child spans) is reported.
SELF_TIMED = ("full.init", "full.phi", "full.phi_inverse")


class Tracer:
    """Records spans into flat typed arrays, which the garbage collector
    never scans, so holding many spans does not slow the traced program."""

    def __init__(self) -> None:
        self.names: list[str] = [name for name, _owner, _attr in TRACED]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.op_meta: list[tuple[str, int]] = []  # op id -> (kind, graph)
        self.recording = False
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, name_id: int, fn):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        for name_id, (_name, owner, attr) in enumerate(TRACED):
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            wrapped = self._wrap(name_id,
                                 raw.__func__ if isinstance(raw, classmethod) else raw)
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod)
                    else wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    @contextlib.contextmanager
    def op_span(self, kind: str, graph: int):
        """Record one operation as a root span `op.<kind>` with a fresh op id."""
        name = f"op.{kind}"
        if name not in self.names:
            self.names.append(name)
        self.op = len(self.op_meta)
        self.op_meta.append((kind, graph))
        idx = self._open(self.names.index(name))
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            self._close(idx)

    def per_layer(self, blocks_per_graph: list[int]) -> dict[str, float]:
        """Busy seconds, call counts, self times and the block-cache ratio."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        busy = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        requested: dict[str, int] = defaultdict(int)
        decoded: dict[str, int] = defaultdict(int)
        phi_inverse = self.names.index("full.phi_inverse")
        chi_inverse = self.names.index("biconnected.chi_inverse")
        for i in range(n):
            k = self.name_id[i]
            busy[k] += dur[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            kind, graph = self.op_meta[self.op_of[i]]
            if k == phi_inverse:
                requested[kind] += blocks_per_graph[graph]
            elif k == chi_inverse and kind != "setup":
                decoded[kind] += 1
        out: dict[str, float] = {}
        for k, (name, _owner, _attr) in enumerate(TRACED):
            if name in SELF_TIMED:
                out[f"{name}.self_s"] = self_s[k]
            else:
                out[f"{name}.s"] = busy[k]
                out[f"{name}.calls"] = calls[k]

        def hit_ratio(kinds) -> float:
            asked = sum(requested[k] for k in kinds)
            return 1 - sum(decoded[k] for k in kinds) / asked if asked else 0.0

        out["full.block_cache_hit_ratio"] = hit_ratio(("unrank", "sample", "enumerate"))
        out["full.block_cache_hit_ratio.sample"] = hit_ratio(("sample",))
        out["full.block_cache_hit_ratio.enumerate"] = hit_ratio(("enumerate",))
        return out

    def write(self, path: Path) -> None:
        """One tab-separated line per span: op, kind, graph, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("span\top\tkind\tgraph\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                op = self.op_of[i]
                kind, graph = self.op_meta[op]
                fh.write(f"{i}\t{op}\t{kind}\t{graph}\t{self.names[self.name_id[i]]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")
