"""The benchmark's trace hooks still find every function they wrap.

`perfbench/tracing.py` replaces library functions where their callers look
them up.  A rename in src/ would break `perfbench/run.py --trace 1` without
failing any other test, so this installs and uninstalls the hooks here.
"""

import importlib.util
from pathlib import Path

from planarrank.full import EmbeddingRanker
from planarrank.graph import Graph

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_traced_function_resolves_and_is_restored():
    tracing = _load_tracing()
    for name, owner, attr in tracing.TRACED:
        assert (attr in owner.__dict__ if isinstance(owner, type)
                else hasattr(owner, attr)), f"{name}: {owner!r} has no {attr!r}"
    originals = [_binding(owner, attr) for _, owner, attr in tracing.TRACED]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (name, owner, attr), raw in zip(tracing.TRACED, originals):
            assert _binding(owner, attr) is not raw, f"{name} was not wrapped"
    finally:
        tracer.uninstall()

    for (name, owner, attr), raw in zip(tracing.TRACED, originals):
        assert _binding(owner, attr) is raw, f"{name} was not restored"


def test_unrank_records_its_bounds_check():
    # phi_inverse must look check_bounds up on the codecs module, where
    # the tracer wraps it; a name bound at import would escape the trace.
    tracing = _load_tracing()
    ranker = EmbeddingRanker(Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op_span("unrank", 0):
            ranker.unrank(1)
    finally:
        tracer.uninstall()
    spans = [tracer.names[k] for k in tracer.name_id]
    assert spans.count("full.phi_inverse") == 1
    assert spans.count("codecs.check_bounds") == 1


def test_rank_records_each_layer_call():
    # phi must look phi_v, chi and validate up on the full module, where
    # the tracer wraps them: one phi_v span per cut-vertex and one validate
    # span per rank, and one chi span per block with choices whose pole
    # rotations its shape has not encoded yet.  K4 (an R-node) and a theta
    # (a P-node) hang off a path whose inner vertices 4, 5, 6 are the
    # cut-vertices; the bridges have no choices.  The second rank of the
    # same embedding reads both blocks' digits from the encode table.
    tracing = _load_tracing()
    ranker = EmbeddingRanker(Graph(10, [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        (4, 5), (5, 6),
        (6, 7), (6, 8), (6, 9), (7, 10), (8, 10), (9, 10),
    ]))
    assert [cut.v for cut in ranker.cuts] == [4, 5, 6]
    emb = ranker.unrank(ranker.count() - 1)
    for expected_chi in (2, 0):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.op_span("rank", 0):
                ranker.rank(emb)
        finally:
            tracer.uninstall()
        spans = [tracer.names[k] for k in tracer.name_id]
        assert spans.count("full.phi") == 1
        assert spans.count("cutvertex.phi_v") == 3
        assert spans.count("embedding.validate") == 1
        assert spans.count("biconnected.chi") == expected_chi


def test_unrank_records_each_cut_merge():
    # phi_inverse must look phi_v_inverse up on the full module, where the
    # tracer wraps it: one span per cut-vertex per unrank, on a fresh
    # ranker and again once its merge tables hold the same d digits, so no
    # table routes a merge around the traced binding.  Vertex 4 joins K4,
    # a triangle and the bridge to 7; vertex 7 joins that bridge and the
    # bridge to 8.
    tracing = _load_tracing()
    ranker = EmbeddingRanker(Graph(8, [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        (4, 5), (4, 6), (5, 6), (4, 7), (7, 8),
    ]))
    assert [(cut.v, len(cut.ctx.edges)) for cut in ranker.cuts] == [(4, 3), (7, 2)]
    r = ranker.count() - 1
    for warm in (False, True):
        assert bool(ranker.cuts[0].ctx.shape.decoded) == warm
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.op_span("unrank", 0):
                ranker.unrank(r)
        finally:
            tracer.uninstall()
        spans = [tracer.names[k] for k in tracer.name_id]
        assert spans.count("cutvertex.phi_v_inverse") == 2
