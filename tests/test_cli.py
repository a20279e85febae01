import ast
import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import transversals
from transversals import (
    Block,
    BuildRecipe,
    BuildSizeError,
    PartitionedInstance,
    build,
    check_certificate,
    hypergraph_grade_sequence,
    propagate_certificate,
    read_certificate,
    read_instance,
    serialize_certificate,
    simple_sequence,
    write_instance,
)
from transversals.cli import main


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_forest_simple_then_certify(self, tmp_path, capsys):
        out = tmp_path / "forest.json"
        cert = tmp_path / "forest.cert.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "forest", "--t", "6", "--epsilon", "0.2",
            "--seq", "simple", "--out", str(out),
        )
        assert code == 0
        code, _, _ = run(capsys, "certify", str(out), "--out", str(cert))
        assert code == 0
        inst = read_instance(out)
        assert read_certificate(cert).conclusion == inst.num_blocks - 1

    def test_bounded_degree_gen_then_certify_replays(self, tmp_path, capsys):
        out = tmp_path / "bounded.json"
        cert = tmp_path / "bounded.cert.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "bounded_degree", "--t", "12",
            "--epsilon", "2/5", "--out", str(out),
        )
        assert code == 0
        code, _, _ = run(capsys, "certify", str(out), "--out", str(cert))
        assert code == 0
        assert check_certificate(read_instance(out), read_certificate(cert))

    def test_gen_to_stdout(self, capsys):
        code, stdout, _ = run(capsys, "gen", "--kind", "stars", "--k", "2")
        assert code == 0
        obj = json.loads(stdout)
        assert obj["r"] == 2 and len(obj["blocks"]) == 5

    def test_gen_explicit_sequence(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "forest", "--t", "3", "--seq", "0,3",
            "--out", str(out),
        )
        assert code == 0
        assert read_instance(out).num_blocks == 4

    def test_gen_pad(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "forest", "--t", "3", "--seq", "0,3",
            "--pad", "9", "--out", str(out),
        )
        assert code == 0
        assert read_instance(out).num_blocks == 9

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--kind", "hypergraph", "--t", "3", "--r", "3", "--seq", "0,1,3"]
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_build_is_validation_failure(self, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "bounded_degree", "--t", "1000",
            "--epsilon", "0.05",
        )
        assert code == 2
        assert "blocks" in err

    def test_simple_sequence_without_t_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "gen", "--kind", "forest", "--seq", "simple")
        assert (code, out, err) == (2, "", "error: --seq simple needs --t\n")

    def test_zero_epsilon_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "gen", "--kind", "bounded_degree", "--t", "14", "--epsilon", "0")
        assert (code, out, err) == (2, "", "error: epsilon must be positive, got 0\n")

    def test_oversized_stars_and_padding_are_validation_failures(self, capsys):
        for args in (
            ["--kind", "stars", "--k", "200"],
            ["--kind", "forest", "--t", "3", "--seq", "0,3", "--pad", "2000000"],
        ):
            code, out, err = run(capsys, "gen", *args)
            assert code == 2
            assert out == ""
            assert "beyond the budget" in err

    # one small recipe per kind that ``gen --help`` offers, in its order
    KIND_RECIPES = {
        "forest": BuildRecipe(kind="forest", t=3, sequence_override=(0, 3)),
        "bounded_degree": BuildRecipe(kind="bounded_degree", t=12, epsilon=Fraction(2, 5)),
        "local_degree": BuildRecipe(kind="local_degree", t=14, epsilon=Fraction(3, 10)),
        "hypergraph": BuildRecipe(kind="hypergraph", t=3, r=3, sequence_override=(0, 1, 3)),
        "hypergraph_bounded_degree": BuildRecipe(
            kind="hypergraph_bounded_degree", t=21, r=3, sequence_override=(0, 3, 21)
        ),
        "stars": BuildRecipe(kind="stars", k_stars=2),
    }

    def test_help_pins_the_kinds_and_build_reads_each(self, capsys):
        code, out, _ = run(capsys, "gen", "--help")
        assert code == 0
        kinds = re.search(r"--kind \{([^}]*)\}", out).group(1).split(",")
        assert kinds == list(self.KIND_RECIPES)
        for kind in kinds:
            # a budget of no cells refuses each build in the builder it reached
            with pytest.raises(BuildSizeError, match=f"^{kind} would materialize"):
                build(self.KIND_RECIPES[kind], max_cells=0)


class TestMetrics:
    def test_csv(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        run(capsys, "gen", "--kind", "forest", "--t", "6", "--epsilon", "0.2",
            "--seq", "simple", "--out", str(out))
        code, stdout, _ = run(capsys, "metrics", str(out))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "block_id,size,degree,avg_degree"
        assert len(lines) == 1 + read_instance(out).num_blocks
        assert all(line.split(",")[1] == "6" for line in lines[1:])

    def test_json_reports_exact_max(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        run(capsys, "gen", "--kind", "forest", "--t", "6", "--epsilon", "0.2",
            "--seq", "simple", "--out", str(out))
        code, stdout, _ = run(capsys, "metrics", str(out), "--format", "json")
        assert code == 0
        obj = json.loads(stdout)
        assert obj["max_block_avg_degree"] == "5/2"
        assert obj["thickness"] == 6


class TestCertify:
    def test_inconclusive_exit_code(self, tmp_path, capsys):
        out = tmp_path / "free.json"
        # a single edgeless block: propagation has nothing to do
        out.write_text(
            '{"version":1,"r":2,"blocks":[{"id":0,"vertices":[{"id":0},{"id":1}]}],'
            '"edges":[],"meta":{}}'
        )
        code, _, _ = run(capsys, "certify", str(out))
        assert code == 3

    def test_expect_none_with_existing_transversal(self, tmp_path, capsys):
        out = tmp_path / "has.json"
        out.write_text(
            '{"version":1,"r":2,"blocks":[{"id":0,"vertices":[{"id":0},{"id":1}]},'
            '{"id":1,"vertices":[{"id":2},{"id":3}]}],"edges":[[0,2]],"meta":{}}'
        )
        code, _, err = run(capsys, "certify", str(out), "--expect-none")
        assert code == 2
        assert "found one" in err

    def test_expect_none_solver_fallback_succeeds(self, tmp_path, capsys):
        # two disjoint triangles: propagation is inconclusive but the solver
        # refutes exhaustively, so --expect-none turns this into a success
        out = tmp_path / "gap.json"
        out.write_text(
            '{"version":1,"r":2,"blocks":['
            '{"id":0,"vertices":[{"id":0},{"id":1}]},'
            '{"id":1,"vertices":[{"id":2},{"id":3}]},'
            '{"id":2,"vertices":[{"id":4},{"id":5}]}],'
            '"edges":[[0,2],[0,5],[1,3],[1,4],[2,5],[3,4]],"meta":{}}'
        )
        code, _, _ = run(capsys, "certify", str(out))
        assert code == 3
        code, _, err = run(capsys, "certify", str(out), "--expect-none")
        assert code == 0
        assert "confirms" in err


    def test_certificate_without_out_goes_to_stdout(self, tmp_path, capsys):
        inst = build(BuildRecipe(kind="stars", k_stars=2))
        write_instance(inst, tmp_path / "stars.json")
        code, stdout, err = run(capsys, "certify", str(tmp_path / "stars.json"))
        assert (code, err) == (0, "")
        assert stdout.encode() == serialize_certificate(propagate_certificate(inst))

    def test_empty_block_certifies_in_zero_steps(self, tmp_path, capsys):
        inst = PartitionedInstance(
            2, [Block(0, (0, 1)), Block(1, (2,)), Block(2, (), padding=True)], [(0, 2)]
        )
        write_instance(inst, tmp_path / "empty.json")
        cert = tmp_path / "empty.cert.json"
        code, _, err = run(capsys, "certify", str(tmp_path / "empty.json"), "--out", str(cert))
        assert code == 0
        assert "certificate with 0 steps, emptied block 2" in err
        code, stdout, _ = run(capsys, "verify", str(tmp_path / "empty.json"), str(cert))
        assert (code, stdout) == (0, '{"conclusion": 2, "steps": 0, "valid": true}\n')


class TestVerify:
    def test_golden_certificate_is_valid(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", str(GOLDEN / "forest_t3.json"), str(GOLDEN / "forest_t3.cert.json")
        )
        assert code == 0
        assert stdout == '{"conclusion": 3, "steps": 6, "valid": true}\n'

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        cert = json.loads((GOLDEN / "forest_t3.cert.json").read_text())
        cert["conclusion"] = 0  # a block that keeps its survivors
        path = tmp_path / "tampered.cert.json"
        path.write_text(json.dumps(cert))
        code, stdout, err = run(capsys, "verify", str(GOLDEN / "forest_t3.json"), str(path))
        assert code == 2
        assert stdout == ""
        assert "does not replay" in err

    def test_unknown_reference_is_validation_failure(self, tmp_path, capsys):
        cert = json.loads((GOLDEN / "forest_t3.cert.json").read_text())
        cert["conclusion"] = 99
        path = tmp_path / "foreign.cert.json"
        path.write_text(json.dumps(cert))
        code, stdout, err = run(capsys, "verify", str(GOLDEN / "forest_t3.json"), str(path))
        assert (code, stdout) == (2, "")
        assert "unknown block id 99" in err

    def test_malformed_certificate_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.cert.json"
        path.write_text('{"version": 1, "steps": 5, "conclusion": 0}')
        code, stdout, err = run(capsys, "verify", str(GOLDEN / "forest_t3.json"), str(path))
        assert (code, stdout) == (2, "")
        assert "steps must be an array" in err

    def test_replay_error_names_its_step(self, tmp_path, capsys):
        cert = json.loads((GOLDEN / "forest_t3.cert.json").read_text())
        cert["steps"].insert(1, {"kind": "forced", "block": 7, "survivors": []})
        path = tmp_path / "foreign.cert.json"
        path.write_text(json.dumps(cert))
        code, stdout, err = run(capsys, "verify", str(GOLDEN / "forest_t3.json"), str(path))
        assert (code, stdout) == (2, "")
        assert err == "error: unknown block id 7 (at step 1)\n"


class TestSolveCount:
    def test_solve_and_count_star(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "gen", "--kind", "stars", "--k", "2", "--out", str(out))
        code, stdout, _ = run(capsys, "solve", str(out))
        assert code == 0
        assert json.loads(stdout)["outcome"] == "none_exhaustive"
        code, stdout, _ = run(capsys, "count", str(out))
        assert json.loads(stdout)["count"] == 0

    def test_count_cap(self, tmp_path, capsys):
        out = tmp_path / "free.json"
        out.write_text(
            '{"version":1,"r":2,"blocks":[{"id":0,"vertices":[{"id":0},{"id":1}]},'
            '{"id":1,"vertices":[{"id":2},{"id":3}]}],"edges":[],"meta":{}}'
        )
        code, stdout, _ = run(capsys, "count", str(out), "--cap", "2")
        assert json.loads(stdout)["outcome"] == "aborted"

    def test_negative_cap_is_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "gen", "--kind", "stars", "--k", "2", "--out", str(out))
        code, stdout, err = run(capsys, "count", str(out), "--cap", "-1")
        assert code == 2
        assert stdout == ""
        assert "cap" in err

    def test_solve_node_budget(self, tmp_path, capsys):
        out = tmp_path / "free.json"
        out.write_text(
            '{"version":1,"r":2,"blocks":[{"id":0,"vertices":[{"id":0},{"id":1}]},'
            '{"id":1,"vertices":[{"id":2},{"id":3}]}],"edges":[],"meta":{}}'
        )
        code, stdout, _ = run(capsys, "solve", str(out), "--max-nodes", "1")
        assert code == 0
        assert json.loads(stdout) == {
            "outcome": "aborted", "assignment": None, "nodes_explored": 1,
        }
        code, stdout, _ = run(capsys, "solve", str(out), "--max-nodes", "3")
        assert json.loads(stdout)["outcome"] == "found"
        code, _, err = run(capsys, "solve", str(out), "--max-nodes", "-1")
        assert code == 2 and "max_nodes" in err

    def test_count_node_budget(self, capsys):
        golden = str(GOLDEN / "hypergraph_r3_t3.json")
        code, stdout, _ = run(capsys, "count", golden, "--cap", "5", "--max-nodes", "300")
        assert code == 0
        assert json.loads(stdout) == {
            "outcome": "aborted", "count": None, "cap": 5, "nodes_explored": 300,
        }
        code, _, err = run(capsys, "count", golden, "--max-nodes", "-1")
        assert code == 2 and "max_nodes" in err

    def test_solve_output_is_deterministic(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        run(capsys, "gen", "--kind", "forest", "--t", "3", "--seq", "0,3",
            "--out", str(out))
        _, first, _ = run(capsys, "solve", str(out))
        _, second, _ = run(capsys, "solve", str(out))
        assert first == second


class TestSequenceCommand:
    def test_grade_sequence(self, capsys):
        code, stdout, _ = run(capsys, "sequence", "--t", "20", "--epsilon", "0.3")
        assert code == 0
        assert stdout.strip() == "0,8,13,20"

    def test_simple(self, capsys):
        code, stdout, _ = run(capsys, "sequence", "--t", "6", "--simple")
        assert stdout.strip() == "0,1,2,3,4,5,6"

    def test_mobius(self, capsys):
        code, stdout, _ = run(capsys, "sequence", "--mobius", "1/4")
        assert code == 0
        assert "converged to 1/2" in stdout

    @pytest.mark.parametrize(
        "args, outcome",
        [(["--max-steps", "3"], "undecided"), ([], "escaped at step 6")],
        ids=["three-steps", "default-steps"],
    )
    def test_mobius_above_a_quarter(self, args, outcome, capsys):
        code, stdout, _ = run(capsys, "sequence", "--mobius", "0.3", *args)
        assert code == 0
        assert stdout.splitlines()[-1] == f"outcome: {outcome}"

    def test_hypergraph_grade_sequence(self, capsys):
        code, stdout, _ = run(capsys, "sequence", "--t", "600", "--epsilon", "7/100", "--r", "3")
        assert code == 0
        values = hypergraph_grade_sequence(600, 3, Fraction(7, 100)).values
        assert stdout == ",".join(map(str, values)) + "\n"

    def test_haxell(self, capsys):
        code, stdout, _ = run(capsys, "sequence", "--t", "4", "--haxell", "5")
        assert stdout.strip() == "3"

    @pytest.mark.parametrize(
        "args, message",
        [
            ([], "nothing to do: pass --t, --mobius or --haxell"),
            (["--haxell", "5"], "--haxell needs --t"),
            (["--t", "20"], "sequence generation needs --epsilon (or --simple)"),
        ],
        ids=["no-flags", "haxell-without-t", "t-without-epsilon"],
    )
    def test_a_mode_without_its_input_is_one_error_line(self, args, message, capsys):
        code, out, err = run(capsys, "sequence", *args)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_t_below_minimum_is_validation_error(self, capsys):
        code, _, err = run(capsys, "sequence", "--t", "10", "--epsilon", "0.3")
        assert code == 2
        assert "minimal admissible" in err

    def test_r_below_two_is_refused(self, capsys):
        code, out, err = run(capsys, "sequence", "--t", "20", "--epsilon", "0.3", "--r", "1")
        assert (code, out) == (2, "")
        assert "--r must be at least 2" in err


class TestFlagsThatDoNothing:
    """A flag that the chosen kind or mode does not read is an error line,
    exit 2."""

    @pytest.mark.parametrize(
        "args, unread",
        [
            (["--kind", "forest", "--t", "7", "--epsilon", "1/3", "--r", "3"], "r=3"),
            (["--kind", "bounded_degree", "--t", "14", "--epsilon", "3/10", "--seq", "0,1,14"],
             "sequence_override=(0, 1, 14)"),
            (["--kind", "local_degree", "--t", "14", "--epsilon", "3/10", "--alpha", "1/2"],
             "alpha=1/2"),
            (["--kind", "stars", "--k", "2", "--t", "9", "--epsilon", "1"], "t=9, epsilon=1"),
            (["--kind", "hypergraph", "--t", "3", "--r", "3", "--seq", "0,1,3", "--k", "2"],
             "k_stars=2"),
        ],
        ids=["forest-r", "bounded-seq", "local-alpha", "stars-t-epsilon", "hypergraph-k"],
    )
    def test_gen_refuses_unread_flags(self, args, unread, capsys):
        code, out, err = run(capsys, "gen", *args)
        assert (code, out) == (2, "")
        assert err == f"error: kind {args[1]!r} does not read {unread}\n"

    @pytest.mark.parametrize(
        "args, mode, unread",
        [
            (["--mobius", "1/4", "--r", "5"], "mobius", "--r 5"),
            (["--mobius", "1/4", "--t", "9"], "mobius", "--t 9"),
            (["--t", "6", "--simple", "--epsilon", "0.3"], "simple", "--epsilon 3/10"),
            (["--t", "6", "--simple", "--start", "1/2"], "simple", "--start 1/2"),
            (["--t", "4", "--haxell", "5", "--epsilon", "0.3"], "haxell", "--epsilon 3/10"),
            (["--t", "4", "--haxell", "5", "--simple"], "haxell", "--simple"),
        ],
        ids=["mobius-r", "mobius-t", "simple-epsilon", "simple-start", "haxell-epsilon",
             "haxell-simple"],
    )
    def test_sequence_refuses_unread_flags(self, args, mode, unread, capsys):
        code, out, err = run(capsys, "sequence", *args)
        assert (code, out) == (2, "")
        assert err == f"error: sequence mode {mode!r} does not read {unread}\n"


class TestExport:
    def test_export_stdout(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "gen", "--kind", "stars", "--k", "2", "--out", str(out))
        code, stdout, _ = run(capsys, "export", str(out))
        assert code == 0
        assert stdout.count("subgraph cluster_") == 5

    def test_export_out_creates_its_directory_and_matches_stdout(self, tmp_path, capsys):
        inst = tmp_path / "s.json"
        run(capsys, "gen", "--kind", "stars", "--k", "2", "--out", str(inst))
        _, dot_text, _ = run(capsys, "export", str(inst))
        out = tmp_path / "new" / "dir" / "s.dot"
        code, stdout, _ = run(capsys, "export", str(inst), "--out", str(out))
        assert (code, stdout) == (0, "")
        assert out.read_bytes() == dot_text.encode()
        assert list(out.parent.iterdir()) == [out]  # no temporary file left behind


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["gen"]) == 1

    def test_bad_fraction(self, capsys):
        assert main(["sequence", "--t", "20", "--epsilon", "lots"]) == 1

    def test_bad_sequence(self, capsys):
        assert main(["gen", "--kind", "forest", "--t", "7", "--seq", "0,x"]) == 1

    def test_missing_file(self, capsys):
        assert main(["metrics", "/nonexistent/x.json"]) == 2

    def test_directory_as_instance_is_an_error_line(self, tmp_path, capsys):
        code, stdout, err = run(capsys, "metrics", str(tmp_path))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_directory_as_export_target_is_an_error_line(self, tmp_path, capsys):
        inst = tmp_path / "s.json"
        run(capsys, "gen", "--kind", "stars", "--k", "2", "--out", str(inst))
        code, stdout, err = run(capsys, "export", str(inst), "--out", str(tmp_path))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestGarbageCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_command_runs_with_gc_paused_and_restores_the_callers_state(
        self, enabled, capsys, monkeypatch
    ):
        # one command that succeeds and one that fails with an error line
        seen = []
        monkeypatch.setattr(
            "transversals.cli.simple_sequence",
            lambda t: seen.append(gc.isenabled()) or simple_sequence(t),
        )
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert main(["sequence", "--simple", "--t", "4"]) == 0
            assert gc.isenabled() == enabled
            assert main(["sequence", "--simple", "--t", "1"]) == 2
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]


class TestEntryPoints:
    def test_python_m_runs_the_cli(self):
        src = str(Path(transversals.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "transversals", "sequence", "--t", "6", "--simple"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "0,1,2,3,4,5,6\n")

    def test_all_lists_exactly_the_names_the_package_imports(self):
        tree = ast.parse(Path(transversals.__file__).read_text())
        imported = [
            alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]
        assert sorted(transversals.__all__) == sorted(imported)
        assert len(set(imported)) == len(imported)
        for name in transversals.__all__:
            assert getattr(transversals, name) is not None
