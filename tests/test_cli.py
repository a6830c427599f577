"""CLI surface: subcommands, exit codes, deterministic output."""

import itertools
import json
import random
import sys

import pytest

from _graphgen import random_planar
from _linecount import doubling_ratios, executed_lines
from _shapes import disjoint_bowties
from planarrank import cli, embedding, full
from planarrank.cli import main
from planarrank.embedding import validate
from planarrank.graph import Graph

TRIANGLE_JSON = '{"vertices": [1, 2, 3], "edges": [[1, 2], [1, 3], [2, 3]]}'
K5_JSON = json.dumps({
    "vertices": [1, 2, 3, 4, 5],
    "edges": [list(e) for e in itertools.combinations(range(1, 6), 2)],
})


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.json"
    p.write_text(TRIANGLE_JSON)
    return str(p)


class TestCli:
    def test_count_triangle(self, triangle_file, capsys):
        assert main(["count", "-g", triangle_file]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_unrank_then_rank_roundtrip(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "emb.json"
        assert main(["unrank", "-g", triangle_file, "-r", "1", "-o", str(out)]) == 0
        assert main(["rank", "-g", triangle_file, "-e", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_rank_tuple_output(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "emb.json"
        main(["unrank", "-g", triangle_file, "-r", "0", "-o", str(out)])
        capsys.readouterr()
        assert main(["rank", "-g", triangle_file, "-e", str(out), "--tuple"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "0"
        payload = json.loads(lines[1])
        assert payload == {"values": [0], "bounds": [2]}

    def test_nonplanar_exit_2(self, tmp_path, capsys):
        p = tmp_path / "k5.json"
        p.write_text(K5_JSON)
        assert main(["count", "-g", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph admits no planar embedding\n"

    def test_rank_out_of_range_exit_3(self, triangle_file, capsys):
        assert main(["unrank", "-g", triangle_file, "-r", "2"]) == 3

    def test_malformed_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"vertices": [1, 2], "edges": [[2, 1]]}')
        assert main(["count", "-g", str(p)]) == 1

    @pytest.mark.parametrize("argv,err", [
        (["count"], "usage: planarrank count [-h] -g GRAPH\n"
                    "planarrank count: error: the following arguments are required:"
                    " -g/--graph\n"),
        (["enumerate", "-g", "G", "--limit", "x"],
         "usage: planarrank enumerate [-h] -g GRAPH [--from START] [--limit LIMIT]\n"
         "planarrank enumerate: error: argument --limit: invalid int value: 'x'\n"),
    ], ids=["missing-graph", "limit-not-int"])
    def test_usage_error_exit_1(self, triangle_file, argv, err, capsys):
        # Exit code 2 is a non-planar graph's; a usage error is malformed
        # input, and argparse's usage text stays as it is.
        with pytest.raises(SystemExit) as exc:
            main([triangle_file if a == "G" else a for a in argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_sample_deterministic(self, triangle_file, capsys):
        main(["sample", "-g", triangle_file, "--seed", "7", "-k", "4"])
        first = capsys.readouterr().out
        main(["sample", "-g", triangle_file, "--seed", "7", "-k", "4"])
        assert capsys.readouterr().out == first

    def test_enumerate_jsonl(self, triangle_file, capsys):
        assert main(["enumerate", "-g", triangle_file, "--from", "0",
                     "--limit", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        ranks = [json.loads(line)["rank"] for line in lines]
        assert ranks == ["0", "1"]

    def test_decompose_dump(self, triangle_file, capsys):
        assert main(["decompose", "-g", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "component 1" in out
        assert "S " in out and "Q " in out

    def test_decompose_is_linear_in_components(self, tmp_path, capsys):
        """The lines decompose executes in cli.py grow at most 2.2 times per
        doubling of the bowtie components: it groups the blocks and
        cut-vertices by component in one pass, not once per component."""
        counts = []
        for k in (100, 200, 400, 800):
            p = tmp_path / f"bowties-{k}.json"
            p.write_text(disjoint_bowties(k).to_json())
            counts.append(executed_lines(cli.__file__, main, ["decompose", "-g", str(p)]))
            capsys.readouterr()
        assert max(doubling_ratios(counts)) <= 2.2, counts

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decompose_against_a_scan_per_component(self, tmp_path, capsys, seed):
        """decompose prints what a scan of every cut-vertex and block per
        component prints, on graphs whose components interleave ids."""
        g = random_planar(120, seed=seed, components=6)
        order = list(range(1, g.n + 1))
        random.Random(seed).shuffle(order)
        g = Graph(g.n, [(order[u - 1], order[v - 1]) for u, v in g.edges])
        p = tmp_path / "g.json"
        p.write_text(g.to_json())
        assert main(["decompose", "-g", str(p)]) == 0
        ranker = full.EmbeddingRanker(g)
        want = []
        for ci, (cid, comp) in enumerate(ranker.comps):
            want.append(f"component {cid}: vertices {sorted(comp)}")
            want.append(f"  cut-vertices: {[cut.v for cut in ranker.cuts if cut.comp == ci]}")
            for info in ranker.blocks:
                if info.comp == ci:
                    want.append(f"  block {info.edges}")
                    want.extend(f"    {line}" for line in
                                info.tree.dump(relabel=info.to_global).splitlines())
        assert len(ranker.comps) > 1 and ranker.cuts
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_decompose_cycle_block(self, tmp_path, capsys):
        # The S-node's identifier is its minimum pertinent edge, 2-5, not
        # the root's edge; each Q-node lists its real edge first.
        p = tmp_path / "c4-pendant.json"
        p.write_text(Graph(5, [(1, 2), (2, 3), (2, 5), (3, 4), (4, 5)]).to_json())
        assert main(["decompose", "-g", str(p)]) == 0
        assert capsys.readouterr().out == (
            "component 1: vertices [1, 2, 3, 4, 5]\n"
            "  cut-vertices: [2]\n"
            "  block [(1, 2)]\n"
            "    Q 0 1-2 [1-2]\n"
            "  block [(2, 3), (2, 5), (3, 4), (4, 5)]\n"
            "    Q 0 2-3 [2-3 2-3*]\n"
            "    S 1 2-5 [2-3* 2-5* 3-4* 4-5*]\n"
            "    Q 2 2-5 [2-5 2-5*]\n"
            "    Q 2 3-4 [3-4 3-4*]\n"
            "    Q 2 4-5 [4-5 4-5*]\n"
        )

    def test_decompose_every_node_kind(self, tmp_path, capsys):
        # The demo-02 block (S-, P- and Q-nodes) and a K4 (an R-node)
        # joined at the cut-vertex 1.  Within a node, edges sort by their
        # ends, a Q-node's real edge before its virtual one.
        p = tmp_path / "demo02-k4.json"
        p.write_text(Graph(9, [
            (1, 2), (1, 4), (2, 3), (2, 5), (3, 5), (3, 4), (3, 6), (4, 6),
            (1, 7), (1, 8), (1, 9), (7, 8), (7, 9), (8, 9)]).to_json())
        assert main(["decompose", "-g", str(p)]) == 0
        assert capsys.readouterr().out == (
            "component 1: vertices [1, 2, 3, 4, 5, 6, 7, 8, 9]\n"
            "  cut-vertices: [1]\n"
            "  block [(1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (3, 6), (4, 6)]\n"
            "    Q 0 1-2 [1-2 1-2*]\n"
            "    S 1 1-4 [1-2* 1-4* 2-3* 3-4*]\n"
            "    Q 2 1-4 [1-4 1-4*]\n"
            "    P 2 2-3 [2-3* 2-3* 2-3*]\n"
            "    P 2 3-4 [3-4* 3-4* 3-4*]\n"
            "    Q 3 2-3 [2-3 2-3*]\n"
            "    S 3 2-5 [2-3* 2-5* 3-5*]\n"
            "    Q 3 3-4 [3-4 3-4*]\n"
            "    S 3 3-6 [3-4* 3-6* 4-6*]\n"
            "    Q 4 2-5 [2-5 2-5*]\n"
            "    Q 4 3-5 [3-5 3-5*]\n"
            "    Q 4 3-6 [3-6 3-6*]\n"
            "    Q 4 4-6 [4-6 4-6*]\n"
            "  block [(1, 7), (1, 8), (1, 9), (7, 8), (7, 9), (8, 9)]\n"
            "    Q 0 1-7 [1-7 1-7*]\n"
            "    R 1 1-8 [1-7* 1-8* 1-9* 7-8* 7-9* 8-9*]\n"
            "    Q 2 1-8 [1-8 1-8*]\n"
            "    Q 2 1-9 [1-9 1-9*]\n"
            "    Q 2 7-8 [7-8 7-8*]\n"
            "    Q 2 7-9 [7-9 7-9*]\n"
            "    Q 2 8-9 [8-9 8-9*]\n"
        )

    def test_byte_identical_output(self, triangle_file, capsys):
        for _ in range(2):
            main(["enumerate", "-g", triangle_file, "--limit", "2"])
        a = capsys.readouterr().out
        half = len(a) // 2
        assert a[:half] == a[half:]

    def test_enumerate_non_integer_start_exit_1(self, triangle_file, capsys):
        assert main(["enumerate", "-g", triangle_file, "--from", "abc"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rank must be a decimal integer: 'abc'\n"

    @pytest.mark.parametrize("argv", [
        ["sample", "--seed", "7", "-k", "-1"],
        ["enumerate", "--limit", "-1"],
    ])
    def test_negative_count_exit_1(self, triangle_file, capsys, argv):
        assert main(argv[:1] + ["-g", triangle_file] + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("graph", [
        {"vertices": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
        {"vertices": [1, 2, 3], "edges": 5},
        {"vertices": [1, 2], "edges": [[True, 2]]},
    ], ids=["vertices-not-list", "edges-not-list", "bool-endpoint"])
    def test_malformed_graph_json_exit_1(self, tmp_path, capsys, graph):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(graph))
        assert main(["count", "-g", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("override", [
        {"nesting": 5},
        {"nesting": [[0, 1]]},
        {"nesting": [[0, 1, "0"]]},
        {"face_tuple": 5},
        {"face_tuple": ["a"]},
        {"rotations": [[2, 3]]},
        {"rotations": {"1": [2.9, 3], "2": [1, 3], "3": [1, 2]}},
        {"rotations": {"1": ["2", "3"], "2": [1, 3], "3": [1, 2]}},
        {"rotations": {" 1": [2, 3], "2": [1, 3], "3": [1, 2]}},
    ], ids=["nesting-not-list", "nesting-pair", "nesting-string-label",
            "face-tuple-not-list", "face-tuple-string", "rotations-not-object",
            "rotation-float-neighbor", "rotation-string-neighbors", "rotation-padded-key"])
    def test_malformed_embedding_json_exit_1(self, triangle_file, tmp_path, capsys,
                                             override):
        emb = tmp_path / "emb.json"
        assert main(["unrank", "-g", triangle_file, "-r", "0", "-o", str(emb)]) == 0
        data = json.loads(emb.read_text())
        data.update(override)
        emb.write_text(json.dumps(data))
        assert main(["rank", "-g", triangle_file, "-e", str(emb)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("override, err", [
        ({"nesting": [], "face_tuple": []},
         "face tuple has 0 entries, expected 1; "
         "nesting tree does not give every component exactly one parent"),
        ({"nesting": None, "face_tuple": None}, None),
    ], ids=["empty-lists", "nulls"])
    def test_rank_empty_nesting_is_not_the_default(self, triangle_file, tmp_path, capsys,
                                                   override, err):
        """Only an absent or null nesting or face tuple means the
        connected-graph default: explicit empty lists are rejected."""
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({"rotations": {"1": [2, 3], "2": [1, 3], "3": [1, 2]},
                                   **override}))
        code = main(["rank", "-g", triangle_file, "-e", str(emb)])
        captured = capsys.readouterr()
        if err is None:
            assert (code, captured.out, captured.err) == (0, "0\n", "")
        else:
            assert (code, captured.out, captured.err) == (1, "", f"error: {err}\n")

    def test_numbers_past_the_int_str_limit(self, tmp_path, capsys):
        """Vertex 1 joined to 2,000 triangles: the count has more than the
        4,300 digits to which Python limits int-str conversion by default,
        and every subcommand that reads or prints a rank handles it.  The
        caller's limit is back in place after each command."""
        edges = [e for i in range(2000)
                 for e in ([1, 2 * i + 2], [1, 2 * i + 3], [2 * i + 2, 2 * i + 3])]
        g = tmp_path / "hub.json"
        g.write_text(json.dumps({"vertices": list(range(1, 4002)), "edges": edges}))
        limit = sys.get_int_max_str_digits()

        assert main(["count", "-g", str(g)]) == 0
        count = capsys.readouterr().out.strip()
        assert len(count) > 4300
        sys.set_int_max_str_digits(0)
        try:
            last = str(int(count) - 1)
        finally:
            sys.set_int_max_str_digits(limit)

        emb = tmp_path / "emb.json"
        assert main(["unrank", "-g", str(g), "-r", last, "-o", str(emb)]) == 0
        assert main(["rank", "-g", str(g), "-e", str(emb)]) == 0
        assert capsys.readouterr().out == last + "\n"
        assert main(["enumerate", "-g", str(g), "--from", last]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["rank"] == last
        assert json.loads(line)["embedding"] == json.loads(emb.read_text())
        assert sys.get_int_max_str_digits() == limit


class TestRankChecksOnce:
    """rank checks its embedding once, through validate in
    EmbeddingRanker.phi: from_json checks only the JSON's shape."""

    @pytest.fixture
    def validate_calls(self, monkeypatch):
        calls = []

        def counted(emb):
            calls.append(emb)
            return validate(emb)

        # phi reads full's binding; from_json would read embedding's.
        monkeypatch.setattr(embedding, "validate", counted)
        monkeypatch.setattr(full, "validate", counted)
        return calls

    @pytest.mark.parametrize("flags", [[], ["--tuple"]])
    def test_valid_embedding(self, triangle_file, tmp_path, capsys, validate_calls, flags):
        emb = tmp_path / "emb.json"
        assert main(["unrank", "-g", triangle_file, "-r", "1", "-o", str(emb)]) == 0
        assert validate_calls == []
        assert main(["rank", "-g", triangle_file, "-e", str(emb), *flags]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1"
        assert len(validate_calls) == 1

    def test_rejected_embedding(self, triangle_file, tmp_path, capsys, validate_calls):
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({"rotations": {"1": [2, 3], "2": [1, 3], "3": [1, 2]},
                                   "face_tuple": [5]}))
        assert main(["rank", "-g", triangle_file, "-e", str(emb)]) == 1
        assert capsys.readouterr().err == "error: face tuple entry o_1=5 outside 0..1\n"
        assert len(validate_calls) == 1

    def test_nonplanar_graph_exit_2(self, tmp_path, capsys, validate_calls):
        # No rotation of K5 is planar, so the graph is what is at fault.
        g = tmp_path / "k5.json"
        g.write_text(K5_JSON)
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({"rotations": {
            str(v): [w for w in range(1, 6) if w != v] for v in range(1, 6)}}))
        assert main(["rank", "-g", str(g), "-e", str(emb)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph admits no planar embedding\n"
        assert validate_calls == []
