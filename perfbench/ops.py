"""The closed-loop client: timed operations and their correctness checks.

One client in one process issues one operation at a time against the
public EmbeddingRanker API.  Only the call itself (plus `to_json` per
streamed item, as `planarrank sample` / `enumerate` do) is timed; every
output is checked afterwards, outside the timed region.

Outcomes: "ok", "failed" (the operation or its round trip raised) and
"wrong" (a call returned a value that fails a check).  Failed and wrong
operations both count against `failed`; only wrong ones make a run
incorrect, so a known defect that raises is recorded, not hidden.
"""

from __future__ import annotations

import math
import random
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from planarrank import EmbeddingRanker, validate

KINDS = ("setup", "first_unrank", "unrank", "rank", "sample", "enumerate")


@dataclass
class Tally:
    """Attempted / failed / wrong operation counts per kind."""

    attempted: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    failed: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    wrong: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    first_error: dict = field(default_factory=dict)

    def add(self, kind: str, outcome: str, error: str | None = None) -> None:
        self.attempted[kind] += 1
        if outcome != "ok":
            self.failed[kind] += 1
            if outcome == "wrong":
                self.wrong[kind] += 1
            if error and kind not in self.first_error:
                self.first_error[kind] = error

    def merge(self, other: dict) -> None:
        for key in ("attempted", "failed", "wrong"):
            for kind, n in other[key].items():
                getattr(self, key)[kind] += n
        for kind, err in other["first_error"].items():
            self.first_error.setdefault(kind, err)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "first_error": self.first_error}


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def timed(fn, *args):
    """(result, seconds, exception) of one call; exceptions are returned."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # an operation that raises is a failed op
        return None, perf_counter() - t0, exc
    return out, perf_counter() - t0, None


def check_setup(ranker: EmbeddingRanker) -> tuple[str, str | None]:
    """count() must equal the product of the digit bounds."""
    if ranker.count() != math.prod(ranker.bounds):
        return "wrong", "count() differs from the product of the bounds"
    return "ok", None


def check_embedding(ranker: EmbeddingRanker, emb, want_rank: int | None = None,
                    got_rank: int | None = None, rank_error=None
                    ) -> tuple[str, str | None, int | None]:
    """Validate an embedding and its round trip through rank.

    With got_rank/rank_error given, the rank was already computed (and
    timed) by the caller; otherwise it is computed here.  Returns the
    outcome, its reason and the rank.
    """
    problems = validate(emb)
    if problems:
        return "wrong", "validate: " + "; ".join(problems[:3]), None
    if got_rank is None and rank_error is None:
        try:
            got_rank = ranker.rank(emb)
        except Exception as exc:  # the round trip raised
            rank_error = exc
    if rank_error is not None:
        return "failed", "rank: " + _describe(rank_error), None
    if want_rank is not None and got_rank != want_rank:
        return "wrong", f"rank(unrank({want_rank})) = {got_rank}", got_rank
    if not 0 <= got_rank < ranker.count():
        return "wrong", f"rank {got_rank} outside 0..count-1", got_rank
    return "ok", None, got_rank


# The probe's time on an uncontended core of the reference box (2-core
# x86-64).  Timings are scaled to that speed; see Timings.
PROBE_REF_S = 0.7e-3


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    t0 = perf_counter()
    acc: dict[int, int] = {}
    for i in range(8000):
        acc[i & 255] = acc.get(i & 255, 0) + i
    return perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A timing scaled by PROBE_REF_S over the mean of the probes around it."""
    return seconds * 2 * PROBE_REF_S / (before + after)


@dataclass
class Timings:
    """Per op kind, (seconds, items, scaled seconds) of every timed call.

    Other tenants of a shared host slow it by up to 1.7x, in spells of a
    few seconds.  A probe loop runs right before and after every timed
    call; the call's time divided by the probes' mean and multiplied by
    PROBE_REF_S is its time at the reference speed.  Figures use scaled
    times; raw ones are kept for the printed report.
    """

    calls: dict = field(default_factory=lambda: defaultdict(list))

    def add(self, kind: str, seconds: float, items: int,
            before: float, after: float) -> None:
        self.calls[kind].append(
            (seconds, items, at_reference_speed(seconds, before, after)))

    def latencies(self, kind: str, scaled: bool = True) -> list[float]:
        return [c[2] if scaled else c[0] for c in self.calls[kind]]

    def rate(self, kind: str, scaled: bool = True) -> float:
        """Items per busy second."""
        items = sum(c[1] for c in self.calls[kind])
        return items / sum(self.latencies(kind, scaled))

    def busy(self) -> float:
        return sum(c[0] for calls in self.calls.values() for c in calls)


@dataclass(frozen=True)
class Plan:
    """Per round and graph: `pairs` unrank/rank pairs, then, in every other
    round, one sample and one enumerate stream of `stream` items each."""

    pairs: int
    stream: int
    rounds: int


def round_inputs(seed: int, gi: int, rnd: int, count: int, plan: Plan):
    """Ranks, sample seed and enumerate start of one round on one graph."""
    rng = random.Random(f"{seed}:{gi}:{rnd}")
    ranks = [rng.randrange(count) for _ in range(plan.pairs)]
    return ranks, rng.randrange(2 ** 32), rng.randrange(count)


class Client:
    """Runs rounds of operations on prepared rankers, then checks them.

    `around_op(kind, graph)` is a context-manager factory wrapped around
    every timed call; the traced run uses it to record spans.
    """

    def __init__(self, seed: int, rankers: list[EmbeddingRanker], plan: Plan,
                 tally: Tally, around_op) -> None:
        self.seed = seed
        self.rankers = rankers
        self.counts = [rk.count() for rk in rankers]
        self.plan = plan
        self.tally = tally
        self.around_op = around_op

    def run_round(self, rnd: int, timings: Timings) -> None:
        for gi, ranker in enumerate(self.rankers):
            ranks, sample_seed, start = round_inputs(
                self.seed, gi, rnd, self.counts[gi], self.plan)
            for r in ranks:
                self._pair(gi, ranker, r, timings)
            if rnd % 2 == 0:
                self._sample(gi, ranker, sample_seed, timings)
                self._enumerate(gi, ranker, start, timings)

    def _pair(self, gi: int, ranker, r: int, timings: Timings) -> None:
        before = probe()
        with self.around_op("unrank", gi):
            emb, dt_unrank, exc = timed(ranker.unrank, r)
        if exc is None:
            with self.around_op("rank", gi):
                got, dt_rank, rank_exc = timed(ranker.rank, emb)
        after = probe()
        timings.add("unrank", dt_unrank, 1, before, after)
        if exc is not None:
            self.tally.add("unrank", "failed", "unrank: " + _describe(exc))
            return
        timings.add("rank", dt_rank, 1, before, after)
        outcome, why, _ = check_embedding(ranker, emb, r, got, rank_exc)
        self.tally.add("unrank", outcome, why)
        if rank_exc is not None:
            self.tally.add("rank", "failed", "rank: " + _describe(rank_exc))
        else:
            self.tally.add("rank", "ok" if got == r else "wrong",
                           f"rank(unrank({r})) = {got}")

    def _stream(self, gi: int, kind: str, items, timings: Timings
                ) -> tuple[list, Exception | None]:
        out = []
        before = probe()
        with self.around_op(kind, gi):
            t0 = perf_counter()
            try:
                for item in items:
                    emb = item[1] if kind == "enumerate" else item
                    out.append((item, emb.to_json()))
            except Exception as exc:  # a stream that raises fails its rest
                err = exc
            else:
                err = None
            dt = perf_counter() - t0
        timings.add(kind, dt, len(out), before, probe())
        return out, err

    def _sample(self, gi: int, ranker, sample_seed: int, timings: Timings) -> None:
        k = self.plan.stream
        out, err = self._stream(gi, "sample", ranker.sample(sample_seed, k), timings)
        for emb, js in out:
            outcome, why, r = check_embedding(ranker, emb)
            if outcome == "ok":
                # The item and its JSON must be exactly what its rank decodes to.
                back, _, exc = timed(ranker.unrank, r)
                if exc is not None:
                    outcome, why = "failed", "unrank: " + _describe(exc)
                elif back.to_json() != js:
                    outcome, why = "wrong", f"unrank(rank(sample item)) differs at rank {r}"
            self.tally.add("sample", outcome, why)
        for _ in range(k - len(out)):
            self.tally.add("sample", "failed", "sample: " + _describe(err))

    def _enumerate(self, gi: int, ranker, start: int, timings: Timings) -> None:
        k = min(self.plan.stream, ranker.count() - start)
        out, err = self._stream(gi, "enumerate", ranker.enumerate(start, k), timings)
        for i, ((r, emb), _js) in enumerate(out):
            if r != start + i:
                self.tally.add("enumerate", "wrong", f"enumerate yielded rank {r}")
                continue
            outcome, why, _ = check_embedding(ranker, emb, r)
            self.tally.add("enumerate", outcome, why)
        for _ in range(k - len(out)):
            self.tally.add("enumerate", "failed", "enumerate: " + _describe(err))
