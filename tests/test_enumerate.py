"""Enumeration: every item equals its rank's unrank, and a step redoes only
the owners of the digits that changed.

reference_enumerate keeps the odometer loop that decoded every item in
full; the incremental one is compared with it across carries into each
layer of the tuple, and with unrank on every rank of the atlas.
"""

import json
import os
import random

import pytest

from _graphgen import atlas_planar, random_planar
from _linecount import doubling_ratios, executed_lines
from planarrank import full
from planarrank.cli import main
from planarrank.codecs import tuple_rank, tuple_unrank
from planarrank.errors import RankOutOfRange
from planarrank.full import EmbeddingRanker
from planarrank.graph import Graph
from planarrank.nesting import NestingCodec

PACKAGE = os.path.dirname(full.__file__) + os.sep


def reference_enumerate(ranker, start=0, limit=None):
    """The loop that re-decoded every item with phi_inverse."""
    total = ranker.count()
    if not 0 <= start < total:
        raise RankOutOfRange(f"rank {start} outside 0..{total - 1}")
    values = tuple_unrank(start, ranker.radix)
    r = start
    emitted = 0
    while r < total and (limit is None or emitted < limit):
        yield r, ranker.phi_inverse(values)
        emitted += 1
        r += 1
        for i in range(len(values) - 1, -1, -1):
            values[i] += 1
            if values[i] < ranker.bounds[i]:
                break
            values[i] = 0


def as_json(items):
    return [(r, emb.to_json()) for r, emb in items]


def forest_graph():
    """A connected block forest: every layer but a."""
    return random_planar(400, seed=1301, components=1)


def nested_graph():
    """Twenty small components: every layer."""
    return random_planar(160, seed=1302, components=20)


def layers(ranker) -> dict[str, range]:
    """The digit positions of each layer, in tuple order."""
    def span(slices):
        slices = list(slices)
        return range(slices[0].start, slices[-1].stop) if slices else range(0)

    return {
        "a": range(ranker.a.start, ranker.a.stop),
        "b": range(ranker.b.start, ranker.b.stop),
        "c": span(cut.c for cut in ranker.cuts),
        "d": span(cut.d for cut in ranker.cuts),
        "p": span(info.p for info in ranker.blocks),
        "r": span(info.r for info in ranker.blocks),
    }


def rank_below_carry(ranker, i, rng) -> int:
    """A rank whose successor carries into digit i: every later digit is at
    its maximum, digit i below its own."""
    bounds = ranker.bounds
    values = [rng.randrange(x) for x in bounds]
    values[i] = rng.randrange(bounds[i] - 1)
    for j in range(i + 1, len(bounds)):
        values[j] = bounds[j] - 1
    return tuple_rank(values, ranker.radix)


def changed_owners(ranker, before, after):
    """Blocks, cut-vertices and whether the nesting own a changed digit;
    cut-vertices on a changed block count too."""
    changed = {j for j, (x, y) in enumerate(zip(before, after)) if x != y}
    owns = lambda *slices: any(j in changed for s in slices for j in range(s.start, s.stop))
    blocks = {b for b, info in enumerate(ranker.blocks) if owns(info.p, info.r)}
    cuts = {k for k, cut in enumerate(ranker.cuts)
            if owns(cut.c, cut.d) or blocks.intersection(cut.block_ids)}
    return blocks, cuts, owns(ranker.a, ranker.b)


class TestEveryItemIsItsUnrank:
    def test_atlas(self):
        ranks = 0
        for g in atlas_planar():
            ranker = EmbeddingRanker(g)
            got = as_json(ranker.enumerate(0))
            assert got == [(r, ranker.unrank(r).to_json())
                           for r in range(ranker.count())], g.edges
            ranks += len(got)
        assert ranks == 46172

    @pytest.mark.parametrize("make", [forest_graph, nested_graph])
    def test_carry_into_each_layer(self, make):
        ranker = EmbeddingRanker(make())
        rng = random.Random(13)
        covered = []
        for name, span in layers(ranker).items():
            moving = [j for j in span if ranker.bounds[j] > 1]
            if not moving:
                continue
            covered.append(name)
            # The carry from the layer below, and one from inside the layer.
            for i in (moving[-1], rng.choice(moving)):
                below = rank_below_carry(ranker, i, rng)
                start = max(0, below - 2)
                got = as_json(ranker.enumerate(start, 6))
                assert got == as_json(reference_enumerate(ranker, start, 6)), (name, i)
                assert [r for r, _ in got] == list(range(start, start + 6))
        assert covered == (["b", "c", "d", "p", "r"] if make is forest_graph
                           else ["a", "b", "c", "d", "p", "r"])


class TestStepRedoesOnlyChangedOwners:
    def test_call_counts_on_a_forest(self, monkeypatch):
        """Each step decodes exactly the blocks, merges exactly the
        cut-vertices and decodes the nesting exactly when the changed
        digits say so; 100 steps cost far fewer calls than 100 unranks."""
        ranker = EmbeddingRanker(forest_graph())
        monkeypatch.setattr(full, "DECODED_PER_SHAPE", 0)  # every block decode is a call
        calls = {"chi_inverse": 0, "phi_v_inverse": 0, "nesting": 0}

        def counting(key, fn):
            def counted(*args):
                calls[key] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(full, "chi_inverse", counting("chi_inverse", full.chi_inverse))
        monkeypatch.setattr(full, "phi_v_inverse",
                            counting("phi_v_inverse", full.phi_v_inverse))
        monkeypatch.setattr(NestingCodec, "inverse", counting("nesting", NestingCodec.inverse))

        # 100 steps with one carry into the b digit in the middle.
        start = rank_below_carry(ranker, ranker.b.start, random.Random(5)) - 50
        step_calls = dict.fromkeys(calls, 0)
        nesting_steps = []
        prev = None
        for r, _emb in ranker.enumerate(start, 101):
            seen = dict(calls)
            calls.update(dict.fromkeys(calls, 0))
            values = tuple_unrank(r, ranker.radix)
            if prev is None:
                assert seen == {"chi_inverse": len(ranker.blocks),
                                "phi_v_inverse": len(ranker.cuts), "nesting": 1}
            else:
                blocks, cuts, nesting = changed_owners(ranker, prev, values)
                assert seen == {"chi_inverse": len(blocks), "phi_v_inverse": len(cuts),
                                "nesting": int(nesting)}, r
                if nesting:
                    nesting_steps.append(r)
                for key in calls:
                    step_calls[key] += seen[key]
            prev = values
        assert nesting_steps == [start + 51]

        for r in range(start + 1, start + 101):
            ranker.unrank(r)
        assert calls == {"chi_inverse": 100 * len(ranker.blocks),
                         "phi_v_inverse": 100 * len(ranker.cuts), "nesting": 100}
        assert step_calls["chi_inverse"] * 20 < calls["chi_inverse"]
        assert step_calls["phi_v_inverse"] * 20 < calls["phi_v_inverse"]


class TestStepUnderDoubling:
    def test_step_at_the_last_digit(self):
        """A step whose carry stops at the last digit redoes one block and
        its cut-vertices, and hands out an item that shares every other
        rotation: doubling the graph leaves the lines executed in the
        package about flat (an item that copied each rotation would
        double them)."""
        counts = []
        for n in (250, 500, 1000, 2000):
            ranker = EmbeddingRanker(random_planar(n, seed=2301, components=1))
            top = max(j for j, x in enumerate(ranker.bounds) if x > 1)
            items = ranker.enumerate(rank_below_carry(ranker, top, random.Random(n)), 2)
            next(items)
            counts.append(executed_lines(PACKAGE, next, items))
        assert max(doubling_ratios(counts)) <= 1.5, counts


class TestEdgeCases:
    def test_single_embedding(self):
        ranker = EmbeddingRanker(Graph(4, [(1, 2), (2, 3), (3, 4)]))  # a path
        assert ranker.count() == 1
        want = [(0, ranker.unrank(0).to_json())]
        assert as_json(ranker.enumerate(0)) == want
        assert as_json(ranker.enumerate(0, 5)) == want
        assert list(ranker.enumerate(0, 0)) == []

    def test_from_the_last_rank(self):
        ranker = EmbeddingRanker(nested_graph())
        last = ranker.count() - 1
        assert as_json(ranker.enumerate(last)) == [(last, ranker.unrank(last).to_json())]
        assert as_json(ranker.enumerate(last - 2, None)) == as_json(
            reference_enumerate(ranker, last - 2))

    def test_limit_zero(self):
        ranker = EmbeddingRanker(forest_graph())
        assert list(ranker.enumerate(3, 0)) == []

    def test_to_the_end_past_trailing_fixed_digits(self):
        # The last digit has bound 1, so no step ever bumps it, and the
        # last item leaves no digit below its maximum.
        ranker = EmbeddingRanker(Graph(5, [(1, 2), (1, 3), (2, 3), (4, 5)]))
        assert ranker.bounds == [2, 2, 1]
        assert as_json(ranker.enumerate(0, None)) == [
            (r, ranker.unrank(r).to_json()) for r in range(4)]

    @pytest.mark.parametrize("start", [-1, 4])
    def test_start_out_of_range(self, start):
        ranker = EmbeddingRanker(Graph(5, [(1, 2), (1, 3), (2, 3), (4, 5)]))
        with pytest.raises(RankOutOfRange):
            list(ranker.enumerate(start))

    def test_items_share_no_lists(self):
        """Items share only immutable tuples: each owns its rotation dict,
        nesting list and face tuple list, and the vertices of degree <= 2,
        whose rotation no digit decides, share one tuple across items."""
        ranker = EmbeddingRanker(forest_graph())
        (_, first), (_, second) = ranker.enumerate(0, 2)
        assert first.to_json() == ranker.unrank(0).to_json()
        assert first.rot is not second.rot
        assert all(type(nbrs) is tuple for emb in (first, second) for nbrs in emb.rot.values())
        assert first.nesting is not second.nesting
        assert first.face_tuple is not second.face_tuple
        fixed = [v for v in first.rot if ranker.graph.degree(v) <= 2]
        assert fixed and all(first.rot[v] is second.rot[v] for v in fixed)


def test_cli_enumerate_lines_are_unrank_json_across_a_carry(tmp_path, capsys):
    g = forest_graph()
    path = tmp_path / "forest.json"
    path.write_text(g.to_json())
    ranker = EmbeddingRanker(g)
    # The third step carries from the r digits into the p digits.
    p_last = max(j for info in ranker.blocks for j in range(info.p.start, info.p.stop))
    start = rank_below_carry(ranker, p_last, random.Random(7)) - 2
    assert main(["enumerate", "-g", str(path), "--from", str(start), "--limit", "5"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert lines == ['{"embedding": %s, "rank": "%d"}' % (ranker.unrank(r).to_json(), r)
                     for r in range(start, start + 5)]
    assert [json.loads(line)["rank"] for line in lines] == [
        str(r) for r in range(start, start + 5)]
