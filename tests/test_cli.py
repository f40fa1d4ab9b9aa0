import gc
import json
import os
import pathlib
import re
import shutil
import stat
import subprocess
import sys

import pytest

from pcnflow import cli
from pcnflow.cli import generate_instance, main
from pcnflow import pipeline, solver
from pcnflow.cycles import decompose, decomposition_to_dot
from pcnflow.execution import Ledger
from pcnflow.model import (
    ChannelConstraint,
    InvariantViolation,
    ModelError,
    build_instance,
    dump_instance,
    instance_from_json_dict,
    load_instance,
)
from pcnflow.mpc import MpcSession
from pcnflow.solver import Circulation, circulation_to_json_dict, solve_rebalancing
from pcnflow.verify import READS, verify_artifacts

# The environment of a child ``python -m pcnflow.cli``.
SRC_ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}


def write_triangle(path: pathlib.Path, caps=(4, 4, 4)) -> pathlib.Path:
    inst = build_instance(
        ["A", "B", "C"],
        [
            ChannelConstraint("A", "B", caps[0]),
            ChannelConstraint("B", "C", caps[1]),
            ChannelConstraint("C", "A", caps[2]),
        ],
        capacity_bound=max(caps),
        weight_bound=1,
    )
    from pcnflow.model import dump_instance

    target = path / "triangle.json"
    target.write_text(dump_instance(inst))
    return target


def read(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())


def double_triangle():
    """Two triangles that share C->A, every capacity and weight 1: either
    cycle gains 3. The primal-dual picks A->D->C->A and the canceler,
    whose rounds the oblivious solve mirrors, A->B->C->A."""
    return build_instance(
        ["A", "B", "C", "D"],
        [ChannelConstraint(*pair, 1, 1) for pair in ("AB", "BC", "CA", "AD", "DC")],
        capacity_bound=1,
        weight_bound=1,
    )


class TestGen:
    def test_generates_valid_instances(self):
        inst = generate_instance(3, 3, cap_max=4, weight_max=1, seed=7)
        assert inst.n == 3 and inst.m == 3

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["gen", "-n", "5", "-m", "6", "--seed", "3", "-o", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        instance_from_json_dict(read(out1))  # parses and validates

    def test_infeasible_shape(self):
        with pytest.raises(ModelError, match="^cannot place 2 edges on 2 nodes$"):
            generate_instance(2, 2, cap_max=1, weight_max=1, seed=0)

    def test_infeasible_shape_exit_code(self, capsys):
        assert main(["gen", "-n", "2", "-m", "2"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--cap-max", "0"], ["--weight-max", "-1"]])
    def test_out_of_range_maxima_exit_one(self, capsys, flags):
        assert main(["gen", "-n", "3", "-m", "2", *flags]) == 1
        assert capsys.readouterr().err.startswith("error: cap_max must be >= 1")


class TestRun:
    def test_honest_triangle(self, tmp_path, capsys):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        assert main(["run", str(instance), "--outdir", str(outdir), "--seed", "1"]) == 0
        report = read(outdir / "report.json")
        assert report["objective"] == 12
        dec = read(outdir / "decomposition.json")
        assert len(dec["cycles"]) == 1
        execs = read(outdir / "executions.json")
        assert [e["status"] for e in execs] == ["completed"]
        ledger = read(outdir / "ledger.json")
        for node, channels in ledger["deltas"].items():
            assert sum(channels.values()) == 0

    def test_mpc_matches_plaintext(self, tmp_path):
        instance = write_triangle(tmp_path)
        plain_dir, mpc_dir = tmp_path / "plain", tmp_path / "mpc"
        assert main(["run", str(instance), "--outdir", str(plain_dir), "--seed", "1"]) == 0
        assert (
            main(
                ["run", str(instance), "--outdir", str(mpc_dir), "--seed", "1",
                 "--mpc", "--k", "3"]
            )
            == 0
        )
        plain = read(plain_dir / "circulation.json")
        private = read(mpc_dir / "circulation.json")
        assert plain["objective"] == private["objective"]
        assert (mpc_dir / "mpc_transcript.txt").exists()
        assert read(mpc_dir / "delegates.json")["k"] == 3

    def test_withholding_adversary_aborts_only_cycle(self, tmp_path):
        instance = write_triangle(tmp_path)
        adversary = tmp_path / "adv.json"
        # Corrupt every node: whoever is picked as initiator withholds.
        adversary.write_text(
            json.dumps(
                {"policies": {v: "withhold_preimage" for v in ("A", "B", "C")}}
            )
        )
        outdir = tmp_path / "out"
        code = main(
            ["run", str(instance), "--outdir", str(outdir), "--seed", "1",
             "--adversary", str(adversary)]
        )
        assert code == 0
        execs = read(outdir / "executions.json")
        assert [e["status"] for e in execs] == ["aborted"]
        ledger = read(outdir / "ledger.json")
        assert all(
            sum(channels.values()) == 0 for channels in ledger["deltas"].values()
        )

    def test_iter_bound_zero(self, tmp_path):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        assert main(
            ["run", str(instance), "--outdir", str(outdir), "--iter-bound", "0"]
        ) == 0
        assert read(outdir / "report.json") == {
            "objective": 0,
            "iterations": 0,
            "terminated_early": True,
        }

    def test_dot_output(self, tmp_path):
        instance = write_triangle(tmp_path)
        dot = tmp_path / "viz.dot"
        assert main(
            ["run", str(instance), "--outdir", str(tmp_path / "o"), "--dot", str(dot)]
        ) == 0
        assert dot.read_text().startswith("digraph")

    @pytest.mark.parametrize("where", ["outdir", "outdir-parent"])
    def test_dot_beside_the_artifacts(self, tmp_path, where):
        # The run makes the outdir and its parents before the DOT write.
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "new" / "o"
        dot = (outdir if where == "outdir" else outdir.parent) / "viz.dot"
        assert main(["run", str(instance), "--outdir", str(outdir), "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("digraph")

    @pytest.mark.parametrize("place", ["missing-dir", "parent-is-file", "is-dir", "is-outdir"])
    def test_unwritable_dot_leaves_no_outdir(self, tmp_path, capsys, place):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "o"
        unwritable = "not in a directory the command can write"
        dot, problem = {
            "missing-dir": (tmp_path / "missing" / "viz.dot", unwritable),
            "parent-is-file": (instance / "viz.dot", unwritable),
            "is-dir": (tmp_path, "not a regular file"),
            "is-outdir": (outdir, "the command makes a directory there"),
        }[place]
        assert main(["run", str(instance), "--outdir", str(outdir), "--dot", str(dot)]) == 1
        assert capsys.readouterr().err == f"error: {dot}: {problem}\n"
        assert not outdir.exists()

    # A plain run never writes delegates.json, but deletes it, so it
    # refuses a --dot there too.
    @pytest.mark.parametrize("name", ["ledger.json", "sub/../circulation.json", "delegates.json"])
    def test_dot_on_an_artifact_is_refused(self, tmp_path, capsys, name):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "o"
        dot = f"{outdir}/{name}"
        artifact = f"{outdir}/{pathlib.PurePath(name).name}"
        assert main(["run", str(instance), "--outdir", str(outdir), "--dot", dot]) == 1
        assert capsys.readouterr().err == f"error: {dot}: the command writes {artifact} there\n"
        assert not outdir.exists()

    # os.path.abspath keeps a symlinked directory, so only the resolved
    # paths show that the DOT file would overwrite the artifact.
    @pytest.mark.parametrize("outdir, dot", [("real", "lk/ledger.json"), ("lk", "real/ledger.json")])
    def test_dot_on_an_artifact_through_a_symlink_is_refused(self, tmp_path, capsys, outdir, dot):
        instance = write_triangle(tmp_path)
        (tmp_path / "real").mkdir()
        (tmp_path / "lk").symlink_to("real")
        dot = f"{tmp_path}/{dot}"
        assert main(["run", str(instance), "--outdir", f"{tmp_path}/{outdir}", "--dot", dot]) == 1
        assert capsys.readouterr().err == (
            f"error: {dot}: the command writes {tmp_path}/{outdir}/ledger.json there\n"
        )
        assert list((tmp_path / "real").iterdir()) == []

    # The instance and the adversary policy are what a run reads.
    @pytest.mark.parametrize("target", ["instance", "instance-dotdot", "adversary"])
    def test_dot_on_an_input_is_refused(self, tmp_path, capsys, target):
        instance = write_triangle(tmp_path)
        adversary = tmp_path / "adv.json"
        adversary.write_text(json.dumps({"policies": {"A": "withhold_preimage"}}))
        outdir = tmp_path / "o"
        assert main(["run", str(instance), "--outdir", str(outdir)]) == 0
        files = [instance, adversary, *outdir.iterdir()]
        before = {p: p.read_bytes() for p in files}
        dot, read = {
            "instance": (str(instance), instance),
            "instance-dotdot": (f"{tmp_path}/sub/../{instance.name}", instance),
            "adversary": (str(adversary), adversary),
        }[target]
        argv = ["run", str(instance), "--outdir", str(outdir), "--adversary", str(adversary)]
        assert main([*argv, "--dot", dot]) == 1
        assert capsys.readouterr().err == f"error: {dot}: the command reads {read} there\n"
        assert sorted(outdir.iterdir()) == sorted(files[2:])
        assert {p: p.read_bytes() for p in files} == before

    def test_artifact_table_lists_what_an_mpc_run_writes(self, tmp_path):
        instance = write_triangle(tmp_path)
        assert main(["run", str(instance), "--outdir", str(tmp_path / "o"), "--mpc"]) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == sorted(pipeline.RUN_ARTIFACTS)

    def test_malformed_instance_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": ["A"], "edges": [], "surprise": 1}')
        assert main(["run", str(bad), "--outdir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"nodes": 5, "edges": []},
            {"nodes": ["A", "B"], "edges": 5},
            {"nodes": "AB", "edges": []},
            {"nodes": ["A", "B"], "edges": [{"from": ["A"], "to": "B", "capacity": 1}]},
            {"nodes": ["A", "B"], "edges": [{"from": "A", "to": "B", "capacity": True}]},
            {"nodes": ["A", "B"],
             "edges": [{"from": "A", "to": "B", "capacity": 1, "weight": True}]},
            {"nodes": ["A", "B"], "edges": [], "capacity_bound": True},
            {"nodes": ["A", "B"], "edges": [], "weight_bound": False},
            {"nodes": ["p", "q->p"], "edges": [{"from": "p", "to": "q->p", "capacity": 1}]},
            {"nodes": ["A", ""], "edges": []},
            {"nodes": ["A", "B"], "edges": [{"from": "A", "to": "B", "capacity": -1}]},
        ],
        ids=["nodes-int", "edges-int", "nodes-str", "endpoint-list", "capacity-bool",
             "weight-bool", "capacity-bound-bool", "weight-bound-bool", "arrow-node",
             "empty-node", "negative-capacity"],
    )
    def test_malformed_document_exit_one(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad), "--outdir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "doc",
        [
            {"policies": ["A"]},
            {"policies": 5},
            {"policies": {"A": ["honest"]}},
            {"policies": {"A->B": "withhold_preimage"}},
            {"policies": {"": "withhold_preimage"}},
        ],
    )
    def test_malformed_adversary_exit_one(self, tmp_path, capsys, doc):
        instance = write_triangle(tmp_path)
        adversary = tmp_path / "adv.json"
        adversary.write_text(json.dumps(doc))
        code = main(
            ["run", str(instance), "--outdir", str(tmp_path / "o"),
             "--adversary", str(adversary)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_adversary_for_unknown_node_exit_one(self, tmp_path, capsys):
        # A misspelt node must not quietly turn the run honest.
        instance = write_triangle(tmp_path)
        adversary = tmp_path / "adv.json"
        adversary.write_text(json.dumps(
            {"policies": {"A": "withhold_preimage", "zz": "withhold_preimage"}}
        ))
        outdir = tmp_path / "o"
        code = main(
            ["run", str(instance), "--outdir", str(outdir), "--adversary", str(adversary)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: adversary policy for 'zz', which is not a node of the instance\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--iter-bound", "-1"], ["--mpc", "--k", "1"], ["--mpc", "--k", "0"],
         ["--mpc", "--schedule", "-1"]],
        ids=["iter-bound", "k-one", "k-zero", "schedule"],
    )
    def test_out_of_range_flag_exit_one(self, tmp_path, capsys, flags):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        assert main(["run", str(instance), "--outdir", str(outdir), *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--k", "1"], "--k"), (["--k", "3"], "--k"), (["--schedule", "-5"], "--schedule"),
         (["--schedule", "4", "--k", "2"], "--schedule")],
        ids=["k", "k-default-value", "schedule", "both"],
    )
    def test_mpc_option_without_mpc_exit_one(self, tmp_path, capsys, flags, named):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        assert main(["run", str(instance), "--outdir", str(outdir), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not outdir.exists()

    def test_iter_bound_with_mpc_exit_one(self, tmp_path, capsys):
        # Under --mpc the one round bound is --schedule; --iter-bound is refused.
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        argv = ["run", str(instance), "--outdir", str(outdir), "--mpc", "--iter-bound", "0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--iter-bound" in err
        assert not outdir.exists()

    def test_oversized_schedule_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        # The refusal depends on the public shape alone: 3 edges x 10^4 x 1 rounds.
        def never(*args, **kwargs):
            raise AssertionError("a refused request must not share or solve")

        monkeypatch.setattr(MpcSession, "share_instance", never)
        monkeypatch.setattr(solver, "solve_rebalancing", never)
        inst = build_instance(
            ["A", "B", "C"],
            [ChannelConstraint("A", "B", 1), ChannelConstraint("B", "C", 1),
             ChannelConstraint("C", "A", 1)],
            capacity_bound=10_000,
            weight_bound=1,
        )
        instance = tmp_path / "instance.json"
        instance.write_text(dump_instance(inst))
        outdir = tmp_path / "out"
        assert main(["run", str(instance), "--outdir", str(outdir), "--mpc"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: declared bounds imply a 30000-round oblivious schedule"
        )
        assert not outdir.exists()

    def test_mpc_options_parse_under_mpc(self):
        from pcnflow.cli import build_parser

        args = build_parser().parse_args(["run", "x.json", "--outdir", "o", "--mpc"])
        assert (args.k, args.schedule) == (3, None)
        args = build_parser().parse_args(["run", "x.json", "--outdir", "o", "--mpc", "--k=5"])
        assert (args.k, args.mpc_options) == (5, ["--k"])

    @pytest.mark.parametrize(
        "flags", [["--mpc", "--k", "2"], ["--dot", "viz.dot"]], ids=["mpc", "dot"]
    )
    def test_lone_surrogate_node_exit_one(self, tmp_path, capsys, flags):
        doc = {
            "nodes": ["\ud800", "B", "C"],
            "edges": [
                {"from": "\ud800", "to": "B", "capacity": 1},
                {"from": "B", "to": "C", "capacity": 1},
                {"from": "C", "to": "\ud800", "capacity": 1},
            ],
            "weight_bound": 1,
            "capacity_bound": 1,
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        flags = [str(tmp_path / f) if f.endswith(".dot") else f for f in flags]
        assert main(["run", str(bad), "--outdir", str(tmp_path / "o"), *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name", ["__source__", "__sink__"])
    def test_node_named_like_a_super_node(self, tmp_path, capsys, name):
        inst = build_instance(
            [name, "b", "c"],
            [
                ChannelConstraint(name, "b", 2),
                ChannelConstraint("b", "c", 3),
                ChannelConstraint("c", name, 4),
            ],
            capacity_bound=4,
            weight_bound=1,
        )
        instance = tmp_path / "triangle.json"
        instance.write_text(dump_instance(inst))
        outdir = tmp_path / "out"
        assert main(["run", str(instance), "--outdir", str(outdir)]) == 0
        assert read(outdir / "report.json")["objective"] == 6
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "OK"

    def test_invalid_json_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["run", str(bad), "--outdir", str(tmp_path / "o")]) == 1

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "--outdir", str(tmp_path)]) == 1

    def test_acyclic_instance_runs_with_no_cycles(self, tmp_path, capsys):
        from pcnflow.model import dump_instance

        inst = build_instance(
            ["A", "B", "C"],
            [ChannelConstraint("A", "B", 2), ChannelConstraint("B", "C", 2)],
        )
        path = tmp_path / "dag.json"
        path.write_text(dump_instance(inst))
        outdir = tmp_path / "out"
        assert main(["run", str(path), "--outdir", str(outdir)]) == 0
        assert read(outdir / "decomposition.json") == {"cycles": []}
        assert read(outdir / "report.json")["objective"] == 0
        assert main(["verify", str(path), "--outdir", str(outdir)]) == 0


def not_delegates(value, k: int) -> str:
    """The reason ``verify`` gives for a ``delegates`` entry ``value`` under a valid k."""
    return f"delegates {json.dumps(value)} is not a list of {k} distinct nodes of the instance"


class TestVerify:
    def test_accepts_run_output(self, tmp_path, capsys):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        main(["run", str(instance), "--outdir", str(outdir)])
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_rejects_tampered_flow(self, tmp_path, capsys):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        main(["run", str(instance), "--outdir", str(outdir)])
        doc = read(outdir / "circulation.json")
        doc["flows"][0]["amount"] += 1
        (outdir / "circulation.json").write_text(json.dumps(doc))
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", [[1], "x", None], ids=["list", "string", "null"])
    def test_report_not_an_object_exit_one(self, tmp_path, capsys, doc):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        main(["run", str(instance), "--outdir", str(outdir)])
        (outdir / "report.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err.startswith("error: report.json")

    def test_missing_named_decomposition_exit_one(self, tmp_path, capsys):
        # Only the --outdir defaults may be absent, not a file named on the command line.
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        main(["run", str(instance), "--outdir", str(outdir)])
        capsys.readouterr()
        argv = ["verify", str(instance), "--circulation", str(outdir / "circulation.json"),
                "--decomposition", str(tmp_path / "missing.json")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "missing.json" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("given", ["outdir", "flags"])
    @pytest.mark.parametrize("doc", [None, []], ids=["null", "list"])
    def test_decomposition_not_an_object_fails(self, tmp_path, capsys, doc, given):
        # A file that holds JSON null is a malformed document, not an absent one.
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        main(["run", str(instance), "--outdir", str(outdir)])
        (outdir / "decomposition.json").write_text(json.dumps(doc))
        capsys.readouterr()
        files = {
            "outdir": ["--outdir", str(outdir)],
            "flags": ["--circulation", str(outdir / "circulation.json"),
                      "--decomposition", str(outdir / "decomposition.json")],
        }
        assert main(["verify", str(instance), *files[given]]) == 1
        assert capsys.readouterr().out == (
            "FAIL: decomposition invalid: malformed decomposition document\n"
        )

    @pytest.mark.parametrize(
        "cycles, first",
        [
            (5, "decomposition invalid: decomposition cycles must be a list"),
            ([{"vertices": ["A", "B", "C"], "weight": 1}],
             "decomposition does not sum to the circulation at edge A->B: "
             "the cycles carry 1, the circulation 4"),
            ([{"vertices": ["A", "C", "B"], "weight": 4}],
             "decomposition cycle 0: edge A->C is not in the instance"),
            ([{"vertices": ["A", "B", "C"], "weight": 1}] * 4,
             "decomposition has 4 cycles, more than m=3"),
        ],
        ids=["malformed", "short", "unknown-edge", "too-many"],
    )
    def test_broken_decomposition_fails(self, tmp_path, capsys, cycles, first):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        main(["run", str(instance), "--outdir", str(outdir)])
        (outdir / "decomposition.json").write_text(json.dumps({"cycles": cycles}))
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"FAIL: {first}"

    @pytest.mark.parametrize("entry", ["file", "directory"])
    @pytest.mark.parametrize("absent", ["decomposition.json", "report.json"])
    def test_outdir_default_may_be_absent(self, tmp_path, capsys, absent, entry):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        main(["run", str(instance), "--outdir", str(outdir)])
        (outdir / absent).unlink()
        if entry == "directory":  # no run writes one, so it is no artifact
            (outdir / absent).mkdir()
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out == "OK\n"

    @pytest.mark.parametrize(
        "tamper",
        [
            {"objective": 1.0},
            {"objective": True},
            {"iterations": "x"},
            {"iterations": -1},
            {"terminated_early": 0},
            {"iterations": None},
            {"seed": 0},
        ],
        ids=["objective-float", "objective-bool", "iterations-string", "iterations-negative",
             "terminated-early-int", "missing-key", "extra-key"],
    )
    def test_tampered_report_fails(self, tmp_path, capsys, tamper):
        # Weights 1, 0, 0 make the objective 1, which 1.0 and true equal in Python.
        inst = build_instance(
            ["A", "B", "C"],
            [ChannelConstraint("A", "B", 1, 1), ChannelConstraint("B", "C", 1, 0),
             ChannelConstraint("C", "A", 1, 0)],
            capacity_bound=1,
            weight_bound=1,
        )
        instance = tmp_path / "instance.json"
        instance.write_text(dump_instance(inst))
        outdir = tmp_path / "out"
        assert main(["run", str(instance), "--outdir", str(outdir)]) == 0
        report = {**read(outdir / "report.json"), **tamper}
        report = {k: v for k, v in report.items() if v is not None}  # None drops the key
        (outdir / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("FAIL: report.json "), lines

    @pytest.mark.parametrize("flags", [[], ["--decomposition", "d.json"]], ids=["bare", "dec"])
    def test_needs_outdir_or_circulation(self, tmp_path, capsys, flags):
        # Checked before any file is read: the instance path does not exist.
        assert main(["verify", str(tmp_path / "absent.json"), *flags]) == 1
        assert capsys.readouterr().err == "error: verify needs --outdir or --circulation\n"

    def test_flags_suboptimal_objective(self):
        inst = build_instance(
            ["A", "B", "C"],
            [
                ChannelConstraint("A", "B", 4),
                ChannelConstraint("B", "C", 4),
                ChannelConstraint("C", "A", 4),
            ],
        )
        reasons = verify_artifacts(inst, {"flows": [], "objective": 0}, None, None)
        assert reasons == [
            "circulation not optimal: residual cycle B -> C -> A -> B gains 3 per unit"
        ]

    def test_large_capacities_are_certified_too(self):
        inst = build_instance(
            ["A", "B", "C"],
            [
                ChannelConstraint("A", "B", 100),
                ChannelConstraint("B", "C", 100),
                ChannelConstraint("C", "A", 100),
            ],
        )
        # Feasible but suboptimal, and far beyond the exhaustive oracle's reach.
        reasons = verify_artifacts(inst, {"flows": [], "objective": 0}, None, None)
        assert reasons == [
            "circulation not optimal: residual cycle B -> C -> A -> B gains 3 per unit"
        ]

    def test_zero_circulation_fails_at_scale(self):
        # The reason names a simple cycle of the instance's edges.
        inst = generate_instance(500, 2000, 2**20, 1, seed=1)
        reasons = verify_artifacts(inst, {"flows": [], "objective": 0}, None, None)
        assert len(reasons) == 1, reasons
        match = re.fullmatch(
            r"circulation not optimal: residual cycle (.*) gains (\d+) per unit", reasons[0]
        )
        assert match and int(match[2]) > 0
        route = match[1].split(" -> ")
        assert route[0] == route[-1] and len(set(route)) == len(route) - 1
        edges = {(e.src, e.dst) for e in inst.edges}
        assert all(pair in edges for pair in zip(route, route[1:]))

    @pytest.mark.parametrize("seed", [2, 4, 8])
    def test_bounded_outdirs_pass(self, tmp_path, capsys, seed):
        instance = tmp_path / "instance.json"
        argv = ["gen", "-n", "6", "-m", "9", "--cap-max", "4", "--seed", str(seed)]
        assert main([*argv, "-o", str(instance)]) == 0
        for bound in range(4):
            outdir = tmp_path / f"b{bound}"
            assert main(["run", str(instance), "--outdir", str(outdir), "--iter-bound", str(bound)]) == 0
            capsys.readouterr()
            assert main(["verify", str(instance), "--outdir", str(outdir)]) == 0
            assert capsys.readouterr().out == "OK\n"

    def test_bounded_outdir_claiming_completion_fails(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        argv = ["gen", "-n", "6", "-m", "9", "--cap-max", "4", "--seed", "2"]
        assert main([*argv, "-o", str(instance)]) == 0
        outdir = tmp_path / "o"
        assert main(["run", str(instance), "--outdir", str(outdir), "--iter-bound", "1"]) == 0
        report = read(outdir / "report.json")
        assert report["terminated_early"] is True
        (outdir / "report.json").write_text(json.dumps({**report, "terminated_early": False}))
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 1
        out = capsys.readouterr().out
        assert re.fullmatch(
            r"FAIL: circulation not optimal: residual cycle (n\d -> ){2,}n\d gains \d+ per unit\n", out
        ), out

    def test_bounded_outdir_is_replayed(self, tmp_path, capsys):
        # A bounded outdir holding the optimum, with a report that agrees
        # with it: the replayed cancellation puts other flows.
        instance = tmp_path / "instance.json"
        argv = ["gen", "-n", "6", "-m", "9", "--cap-max", "4", "--seed", "2"]
        assert main([*argv, "-o", str(instance)]) == 0
        bounded, full = tmp_path / "b", tmp_path / "f"
        assert main(["run", str(instance), "--outdir", str(bounded), "--iter-bound", "1"]) == 0
        assert main(["run", str(instance), "--outdir", str(full)]) == 0
        report = read(bounded / "report.json")
        assert report == {"objective": 6, "iterations": 1, "terminated_early": True}
        shutil.copy(full / "circulation.json", bounded / "circulation.json")
        (bounded / "report.json").write_text(json.dumps({**report, "objective": 8}))
        (bounded / "decomposition.json").unlink()
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(bounded)]) == 1
        assert capsys.readouterr().out == (
            "FAIL: report.json: terminated_early true, but 1 cancellation puts 0 on n1->n4, "
            "not 2\n"
        )

    def test_mpc_outdir_with_a_short_schedule_passes(self, tmp_path, capsys):
        # The oblivious rounds replay as plaintext cancellations.
        instance = tmp_path / "instance.json"
        argv = ["gen", "-n", "6", "-m", "9", "--cap-max", "4", "--seed", "2"]
        assert main([*argv, "-o", str(instance)]) == 0
        outdir = tmp_path / "m"
        assert main(["run", str(instance), "--outdir", str(outdir), "--mpc", "--schedule", "3"]) == 0
        assert read(outdir / "report.json")["terminated_early"] is True
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out == "OK\n"

    def test_plain_outdir_claiming_an_early_stop_fails(self, tmp_path, capsys):
        # An optimal outdir whose report says the solve stopped early.
        instance = tmp_path / "instance.json"
        argv = ["gen", "-n", "6", "-m", "9", "--cap-max", "4", "--seed", "2"]
        assert main([*argv, "-o", str(instance)]) == 0
        outdir = tmp_path / "o"
        assert main(["run", str(instance), "--outdir", str(outdir)]) == 0
        report = read(outdir / "report.json")
        (outdir / "report.json").write_text(
            json.dumps({**report, "terminated_early": True, "iterations": 1000000})
        )
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().out == (
            "FAIL: report.json: terminated_early true, but no positive-gain cycle remains\n"
        )

    def test_mpc_outdir_junk_transcript_fails(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        argv = ["gen", "-n", "6", "-m", "9", "--cap-max", "4", "--seed", "2"]
        assert main([*argv, "-o", str(instance)]) == 0
        outdir = tmp_path / "m"
        assert main(["run", str(instance), "--outdir", str(outdir), "--mpc", "--k", "3"]) == 0
        (outdir / "mpc_transcript.txt").write_text("junk")
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().out == (
            'FAIL: mpc_transcript.txt: line 1 is "junk" with no line end, not "mul public"\n'
        )

    @pytest.mark.parametrize("schedule", ["0", "1", "3", "8", "20"])
    def test_mpc_outdirs_at_every_schedule_pass(self, tmp_path, capsys, schedule):
        # The small run's full schedule is 8 rounds.
        instance, outdir = self.small_run(tmp_path, "--mpc", "--schedule", schedule)
        capsys.readouterr()
        assert main(["verify", instance, "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out == "OK\n"

    @pytest.mark.parametrize(
        "flags, line",
        [
            ([], "terminated_early true, but 8 rounds are not fewer than the full schedule's 8"),
            (["--schedule", "3"],
             "terminated_early false, but 3 rounds are fewer than the full schedule's 8"),
        ],
        ids=["full", "short"],
    )
    def test_mpc_flag_follows_the_schedule(self, tmp_path, capsys, flags, line):
        instance, outdir = self.small_run(tmp_path, "--mpc", *flags)
        report = read(outdir / "report.json")
        (outdir / "report.json").write_text(
            json.dumps({**report, "terminated_early": not report["terminated_early"]})
        )
        capsys.readouterr()
        assert main(["verify", instance, "--outdir", str(outdir)]) == 1
        assert f"FAIL: report.json: {line}" in capsys.readouterr().out.splitlines()

    def test_mpc_flows_are_the_cancelers(self, tmp_path, capsys):
        # An --mpc outdir holding the primal-dual's optimum: optimal, but
        # not what its five rounds give.
        inst = double_triangle()
        instance = tmp_path / "instance.json"
        instance.write_text(dump_instance(inst))
        outdir = tmp_path / "o"
        assert main(["run", str(instance), "--outdir", str(outdir), "--mpc"]) == 0
        optimum = solve_rebalancing(inst).circulation
        (outdir / "circulation.json").write_text(json.dumps(circulation_to_json_dict(optimum)))
        (outdir / "decomposition.json").unlink()
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().out == (
            "FAIL: report.json: terminated_early false, but 5 cancellations put 1 on A->B, not 0\n"
        )

    @pytest.mark.parametrize("edit", ["missing", "directory", "truncated", "extra", "changed", "empty"])
    def test_broken_transcript_fails(self, tmp_path, capsys, edit):
        instance, outdir = self.small_run(tmp_path, "--mpc")
        path = outdir / "mpc_transcript.txt"
        ops = path.read_text().splitlines()
        total = len(ops)
        changed = "cmp" if ops[99] != "cmp" else "add"
        text, line = {
            "missing": (None, "missing"),
            "directory": (None, "missing"),  # no run writes one, so it is no transcript
            "truncated": ("".join(f"{op}\n" for op in ops[:-1]), f"ends after {total - 1} of {total} ops"),
            "extra": (path.read_text() + "add\n", f"holds more than the {total} ops of 8 rounds"),
            "changed": ("".join(f"{op}\n" for op in [*ops[:99], changed, *ops[100:]]),
                        f'line 100 is "{changed}", not "{ops[99]}"'),
            "empty": ("", f"ends after 0 of {total} ops"),
        }[edit]
        if text is None:
            path.unlink()
            if edit == "directory":
                path.mkdir()
        else:
            path.write_text(text)
        capsys.readouterr()
        assert main(["verify", instance, "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().out == f"FAIL: mpc_transcript.txt: {line}\n"

    @staticmethod
    def small_run(tmp_path, *flags) -> tuple[str, pathlib.Path]:
        """An instance of 4 nodes and its outdir; with --mpc, 8 rounds."""
        instance = tmp_path / "instance.json"
        argv = ["gen", "-n", "4", "-m", "4", "--cap-max", "2", "--seed", "3"]
        assert main([*argv, "-o", str(instance)]) == 0
        outdir = tmp_path / "o"
        assert main(["run", str(instance), "--outdir", str(outdir), *flags]) == 0
        return str(instance), outdir

    @pytest.mark.parametrize(
        "flags",
        [[], ["--iter-bound", "1"], ["--mpc", "--k", "2"], ["--mpc", "--k", "3"],
         ["--mpc", "--k", "4", "--schedule", "1"]],
        ids=["plain", "iter-bound", "mpc-k2", "mpc-k3", "mpc-k4-schedule"],
    )
    def test_honest_outdirs_pass(self, tmp_path, capsys, flags):
        instance, outdir = self.small_run(tmp_path, *flags)
        capsys.readouterr()
        assert main(["verify", instance, "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out == "OK\n"

    @pytest.mark.parametrize(
        "edit, ok",
        [
            ("{}", False),
            ("capacity", False),
            ("compact", True),
        ],
    )
    def test_instance_json_is_the_given_instance(self, tmp_path, capsys, edit, ok):
        instance, outdir = self.small_run(tmp_path, "--mpc")
        doc = read(outdir / "instance.json")
        if edit == "capacity":
            doc["edges"][0]["capacity"] -= 1
        text = {"{}": "{}", "capacity": json.dumps(doc), "compact": json.dumps(doc)}[edit]
        (outdir / "instance.json").write_text(text)
        capsys.readouterr()
        assert main(["verify", instance, "--outdir", str(outdir)]) == (0 if ok else 1)
        out = "OK\n" if ok else "FAIL: instance.json is not the instance given to verify\n"
        assert capsys.readouterr().out == out

    def test_missing_instance_json_exit_one(self, tmp_path, capsys):
        instance, outdir = self.small_run(tmp_path)
        (outdir / "instance.json").unlink()
        capsys.readouterr()
        assert main(["verify", instance, "--outdir", str(outdir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "instance.json" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "doc, lines",
        [
            ({"k": 9}, ['keys ["k"] are not ["k", "delegates"]']),
            ([1], ["not a JSON object"]),
            (None, ["not a JSON object"]),
            ({"k": True, "delegates": ["n0"]}, ["k true is not an integer of at least 2"]),
            ({"k": 1, "delegates": ["n0"]}, ["k 1 is not an integer of at least 2"]),
            ({"k": 3, "delegates": "n0"}, [not_delegates("n0", 3)]),
            ({"k": 3, "delegates": ["n0", "n1"]}, [not_delegates(["n0", "n1"], 3)]),
            ({"k": 2, "delegates": ["n0", "zz"]}, [not_delegates(["n0", "zz"], 2)]),
            ({"k": 2, "delegates": ["n0", 0]}, [not_delegates(["n0", 0], 2)]),
            ({"k": 2, "delegates": ["n1", "n1"]}, [not_delegates(["n1", "n1"], 2)]),
            ({"k": 2.0, "delegates": ["n1", "n1", None], "seed": 0},
             ['keys ["delegates", "k", "seed"] are not ["k", "delegates"]',
              "k 2.0 is not an integer of at least 2",
              'delegates ["n1", "n1", null] is not a list of distinct nodes of the instance']),
        ],
        ids=["state-edit", "not-an-object", "null", "k-bool", "k-one", "not-a-list", "count",
             "unknown-node", "not-a-string", "repeated", "every-rule"],
    )
    def test_broken_delegates_fail(self, tmp_path, capsys, doc, lines):
        instance, outdir = self.small_run(tmp_path, "--mpc", "--schedule", "1")
        (outdir / "delegates.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", instance, "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().out.splitlines() == [f"FAIL: delegates.json: {x}" for x in lines]

    @pytest.mark.parametrize("entry", ["file", "directory"])
    def test_mpc_outdir_without_a_report_fails(self, tmp_path, capsys, entry):
        # Only a plain outdir may lack report.json; the transcript needs its iterations.
        instance = tmp_path / "instance.json"
        argv = ["gen", "-n", "6", "-m", "9", "--cap-max", "4", "--seed", "2"]
        assert main([*argv, "-o", str(instance)]) == 0
        outdir = tmp_path / "m"
        assert main(["run", str(instance), "--outdir", str(outdir), "--mpc", "--k", "3"]) == 0
        (outdir / "report.json").unlink()
        if entry == "directory":  # no run writes one, so it is no report
            (outdir / "report.json").mkdir()
        (outdir / "mpc_transcript.txt").write_text("junk")
        capsys.readouterr()
        assert main(["verify", str(instance), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().out == "FAIL: report.json: missing\n"

    def test_fifo_transcript_without_writer_fails(self, tmp_path):
        # A child process, so that an open which waits for a writer fails
        # the test instead of hanging it.
        instance, outdir = self.small_run(tmp_path, "--mpc")
        (outdir / "mpc_transcript.txt").unlink()
        os.mkfifo(outdir / "mpc_transcript.txt")
        done = subprocess.run(
            [sys.executable, "-m", "pcnflow.cli", "verify", instance, "--outdir", str(outdir)],
            capture_output=True, text=True, env=SRC_ENV, timeout=30,
        )
        assert done.returncode == 1
        assert re.fullmatch(r"FAIL: mpc_transcript\.txt: ends after 0 of \d+ ops\n", done.stdout)

    def test_reads_only_run_artifacts(self):
        assert set(READS) <= set(pipeline.RUN_ARTIFACTS)

    def test_cli_forwards_verify_artifacts(self):
        # bench/ calls verify_artifacts through pcnflow.cli.
        inst = double_triangle()
        report = {"objective": 1, "iterations": 0, "terminated_early": False}
        for args in ((None,), (None, report)):
            want = verify_artifacts(inst, {"flows": [], "objective": 0}, *args)
            assert want and cli.verify_artifacts(inst, {"flows": [], "objective": 0}, *args) == want

    def test_plain_outdir_with_a_directory_named_delegates_passes(self, tmp_path, capsys):
        # A plain run leaves such a directory in place; it is no artifact.
        instance, outdir = self.small_run(tmp_path)
        (outdir / "delegates.json").mkdir()
        capsys.readouterr()
        assert main(["verify", instance, "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out == "OK\n"


TRIANGLE_FLOWS = [
    {"from": "A", "to": "B", "amount": 1},
    {"from": "B", "to": "C", "amount": 1},
    {"from": "C", "to": "A", "amount": 1},
]


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize(
    "doc",
    [
        {"flows": 5},
        {"flows": [{"from": ["A"], "to": "B", "amount": 1}]},
        {"flows": [{**f, "amount": True} for f in TRIANGLE_FLOWS], "objective": 3},
        {"flows": [{**f, "amount": 1.0} for f in TRIANGLE_FLOWS], "objective": 3},
        {"flows": [], "objective": False},
        {"flows": TRIANGLE_FLOWS, "objective": 3.0},
        {"flows": [{"from": "A", "to": "B", "amount": 4}, *TRIANGLE_FLOWS], "objective": 3},
        {"flows": [{"from": "A", "to": "B", "amount": 2}], "objective": 2},
    ],
    ids=["flows-int", "from-list", "amount-bool", "amount-float",
         "objective-bool", "objective-float", "duplicate-edge", "not-conserving"],
)
def test_malformed_circulation_exit_one(tmp_path, capsys, command, doc):
    instance = write_triangle(tmp_path)
    circ_path = tmp_path / "circ.json"
    circ_path.write_text(json.dumps(doc))
    assert main([command, str(instance), "--circulation", str(circ_path)]) == 1
    captured = capsys.readouterr()
    if command == "decompose":
        assert captured.err.startswith("error:")
    else:
        assert captured.out.startswith("FAIL: circulation invalid")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["gen", "-n", "x", "-m", "3"],
        ["run", "inst.json"],
        ["decompose", "inst.json"],
        ["execute", "--outdir", "out"],
        ["verify", "inst.json", "--bogus"],
    ],
    ids=["no-command", "gen", "run", "decompose", "execute", "verify"],
)
def test_usage_error_exit_one(capsys, argv):
    # Exit 2 is reserved for a broken internal invariant.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pcnflow") and "error:" in err


class TestDecomposeExecute:
    def test_round_trip(self, tmp_path, capsys):
        instance = write_triangle(tmp_path)
        inst = instance_from_json_dict(read(instance))
        circ_path = tmp_path / "circ.json"
        circ_path.write_text(
            json.dumps(circulation_to_json_dict(solve_rebalancing(inst).circulation))
        )
        dec_path = tmp_path / "dec.json"
        assert main(
            ["decompose", str(instance), "--circulation", str(circ_path),
             "-o", str(dec_path)]
        ) == 0
        outdir = tmp_path / "exec"
        assert main(
            ["execute", "--decomposition", str(dec_path), "--outdir", str(outdir),
             "--seed", "9"]
        ) == 0
        assert read(outdir / "executions.json")[0]["status"] == "completed"
        events = read(outdir / "events.json")
        assert events[0]["event"] == "reveal"

    def test_decompose_writes_dot(self, tmp_path):
        instance = write_triangle(tmp_path)
        circ = solve_rebalancing(instance_from_json_dict(read(instance))).circulation
        circ_path = tmp_path / "circ.json"
        circ_path.write_text(json.dumps(circulation_to_json_dict(circ)))
        dot = tmp_path / "flows.dot"
        assert main(
            ["decompose", str(instance), "--circulation", str(circ_path),
             "-o", str(tmp_path / "dec.json"), "--dot", str(dot)]
        ) == 0
        assert dot.read_text() == decomposition_to_dot(decompose(circ))

    def test_decompose_unwritable_dot_writes_nothing(self, tmp_path, capsys):
        instance = write_triangle(tmp_path)
        circ = solve_rebalancing(instance_from_json_dict(read(instance))).circulation
        circ_path = tmp_path / "circ.json"
        circ_path.write_text(json.dumps(circulation_to_json_dict(circ)))
        dot = tmp_path / "missing" / "x.dot"
        assert main(
            ["decompose", str(instance), "--circulation", str(circ_path),
             "-o", str(tmp_path / "dec.json"), "--dot", str(dot)]
        ) == 1
        unwritable = "not in a directory the command can write"
        assert capsys.readouterr().err == f"error: {dot}: {unwritable}\n"
        assert not (tmp_path / "dec.json").exists()

    @pytest.mark.parametrize("spelling", ["plain", "dotdot"])
    def test_decompose_dot_on_its_output_writes_nothing(self, tmp_path, capsys, spelling):
        instance = write_triangle(tmp_path)
        circ = solve_rebalancing(instance_from_json_dict(read(instance))).circulation
        circ_path = tmp_path / "circ.json"
        circ_path.write_text(json.dumps(circulation_to_json_dict(circ)))
        out = tmp_path / "same.json"
        dot = str(out) if spelling == "plain" else f"{tmp_path}/sub/../same.json"
        assert main(
            ["decompose", str(instance), "--circulation", str(circ_path), "-o", str(out), "--dot", dot]
        ) == 1
        assert capsys.readouterr().err == f"error: {dot}: the command writes {out} there\n"
        assert not out.exists()

    @pytest.mark.parametrize("target", ["instance", "circulation"])
    def test_decompose_dot_on_an_input_writes_nothing(self, tmp_path, capsys, target):
        instance = write_triangle(tmp_path)
        circ = solve_rebalancing(instance_from_json_dict(read(instance))).circulation
        circ_path = tmp_path / "circ.json"
        circ_path.write_text(json.dumps(circulation_to_json_dict(circ)))
        before = {p: p.read_bytes() for p in (instance, circ_path)}
        out = tmp_path / "dec.json"
        dot = str(instance if target == "instance" else circ_path)
        assert main(
            ["decompose", str(instance), "--circulation", str(circ_path), "-o", str(out), "--dot", dot]
        ) == 1
        assert capsys.readouterr().err == f"error: {dot}: the command reads {dot} there\n"
        assert not out.exists()
        assert {p: p.read_bytes() for p in before} == before

    def test_decompose_dot_on_its_output_through_a_symlink_writes_nothing(self, tmp_path, capsys):
        instance = write_triangle(tmp_path)
        circ = solve_rebalancing(instance_from_json_dict(read(instance))).circulation
        circ_path = tmp_path / "circ.json"
        circ_path.write_text(json.dumps(circulation_to_json_dict(circ)))
        (tmp_path / "real").mkdir()
        (tmp_path / "lk").symlink_to("real")
        dot = f"{tmp_path}/lk/d.json"
        assert main(
            ["decompose", str(instance), "--circulation", str(circ_path),
             "-o", f"{tmp_path}/real/d.json", "--dot", dot]
        ) == 1
        assert capsys.readouterr().err == (
            f"error: {dot}: the command writes {tmp_path}/real/d.json there\n"
        )
        assert list((tmp_path / "real").iterdir()) == []

    @pytest.mark.parametrize(
        "doc",
        [
            {"cycles": [5]},
            {"cycles": 5},
            {"cycles": [{"vertices": "AB", "weight": 1}]},
            {"cycles": [{"vertices": ["A"], "weight": 1}]},
            {"cycles": [{"vertices": ["A", "A"], "weight": 1}]},
            {"cycles": [{"vertices": ["A", 7], "weight": 1}]},
            {"cycles": [{"vertices": ["A", "B"], "weight": -3}]},
            {"cycles": [{"vertices": ["A", "B"], "weight": 0}]},
            {"cycles": [{"vertices": ["A", "B"], "weight": True}]},
            {"cycles": [{"vertices": ["A", "B"], "weight": 1.5}]},
            {"cycles": [{"vertices": ["A", "B"], "weight": 1, "note": ""}]},
            {"cycles": [], "extra": 1},
            # Channels p -> "q->p" and "p->q" -> p would share the ledger.json
            # key "p->q->p", and p's deltas would not sum to 0.
            {"cycles": [{"vertices": ["p", "q->p", "p->q"], "weight": 2},
                        {"vertices": ["p", "p->q", "q->p"], "weight": 3}]},
            {"cycles": [{"vertices": ["a\ud800", "b"], "weight": 1}]},
            {"cycles": [{"vertices": ["", "b"], "weight": 1}]},
        ],
        ids=["entry-int", "cycles-int", "vertices-str", "one-vertex", "repeated-vertex",
             "vertex-int", "negative-weight", "zero-weight", "bool-weight",
             "float-weight", "cycle-extra-key", "doc-extra-key", "arrow-vertex",
             "surrogate-vertex", "empty-vertex"],
    )
    def test_malformed_cycles_exit_one(self, tmp_path, capsys, doc):
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps(doc))
        assert main(
            ["execute", "--decomposition", str(dec_path), "--outdir", str(tmp_path / "x")]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_simple_cycles_accepted(self, tmp_path, capsys):
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps({"cycles": [
            {"vertices": ["n1", "n0"], "weight": 1},
            {"vertices": ["n2", "n0", "n3"], "weight": 7},
        ]}))
        assert main(
            ["execute", "--decomposition", str(dec_path), "--outdir", str(tmp_path / "x")]
        ) == 0
        assert capsys.readouterr().out.strip() == "completed, completed"

    def test_adversary_for_nodes_on_no_cycle_warns(self, tmp_path, capsys):
        # A policy document may cover a whole network, so nodes on no cycle
        # are named on stderr and the run goes on.
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps({"cycles": [{"vertices": ["a", "b", "c"], "weight": 1}]}))
        adversary = tmp_path / "adv.json"
        # Every node on the cycle withholds, so whoever initiates aborts it.
        adversary.write_text(json.dumps({"policies": {
            "zz": "withhold_preimage", **dict.fromkeys("abc", "withhold_preimage"), "y": "honest",
        }}))
        assert main(
            ["execute", "--decomposition", str(dec_path), "--outdir", str(tmp_path / "x"),
             "--adversary", str(adversary)]
        ) == 0
        out, err = capsys.readouterr()
        assert err == "warning: adversary policies for nodes on no cycle: 'zz', 'y'\n"
        assert out.strip() == "aborted"


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        instance = write_triangle(tmp_path)
        dirs = (tmp_path / "r1", tmp_path / "r2")
        for d in dirs:
            assert main(
                ["run", str(instance), "--outdir", str(d), "--seed", "77", "--mpc"]
            ) == 0
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        for name in files:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


    def test_plain_run_removes_stale_mpc_artifacts(self, tmp_path):
        """A plain run into an earlier --mpc run's outdir leaves exactly
        what a plain run into a fresh outdir writes."""
        instance = write_triangle(tmp_path)
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        reused.mkdir()
        (reused / "notes.txt").write_text("kept")
        assert main(["run", str(instance), "--outdir", str(reused), "--seed", "5", "--mpc"]) == 0
        assert (reused / "mpc_transcript.txt").exists()
        assert main(["run", str(instance), "--outdir", str(reused), "--seed", "5"]) == 0
        assert main(["run", str(instance), "--outdir", str(fresh), "--seed", "5"]) == 0
        assert (reused / "notes.txt").read_text() == "kept"
        (reused / "notes.txt").unlink()
        files = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in reused.iterdir()) == files
        for name in files:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_plain_run_keeps_a_directory_named_like_an_mpc_artifact(self, tmp_path):
        instance = write_triangle(tmp_path)
        (tmp_path / "o" / "delegates.json").mkdir(parents=True)
        assert main(["run", str(instance), "--outdir", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "delegates.json").is_dir()

    @pytest.mark.parametrize("kind", ["directory", "fifo", "dangling-symlink"])
    @pytest.mark.parametrize(
        "command, name",
        [("run", name) for name in ("instance.json", "circulation.json", "report.json",
                                    "decomposition.json", "executions.json", "ledger.json",
                                    "events.json")]
        + [("execute", name) for name in ("executions.json", "ledger.json", "events.json")],
    )
    def test_directory_named_like_an_artifact_is_refused_before_any_write(
        self, tmp_path, command, name, kind
    ):
        if command == "run":
            args = ["run", str(write_triangle(tmp_path))]
        else:
            dec_path = tmp_path / "dec.json"
            dec_path.write_text(json.dumps({"cycles": [{"vertices": ["A", "B", "C"], "weight": 1}]}))
            args = ["execute", "--decomposition", str(dec_path)]
        outdir = tmp_path / "o"
        assert main([*args, "--outdir", str(outdir), "--seed", "1"]) == 0
        path = outdir / name
        path.unlink()
        if kind == "directory":
            (path / "inner").mkdir(parents=True)
        elif kind == "fifo":
            os.mkfifo(path)
        else:
            path.symlink_to(tmp_path / "missing" / "x")

        def listing():
            def entry(p):
                if p.is_symlink():
                    return f"-> {p.readlink()}"
                if p.is_fifo():
                    return "fifo"
                return "dir" if p.is_dir() else p.read_bytes()

            return {str(p): entry(p) for p in sorted(outdir.rglob("*"))}

        before = listing()
        # A child process, so that a write which blocks on the FIFO fails
        # the test instead of hanging it.
        done = subprocess.run(
            [sys.executable, "-m", "pcnflow.cli", *args, "--outdir", str(outdir), "--seed", "2"],
            capture_output=True,
            text=True,
            env=SRC_ENV,
            timeout=30,
        )
        assert done.returncode == 1
        assert done.stderr == f"error: {path}: not a regular file\n"
        assert listing() == before


def _tree(root: pathlib.Path) -> dict:
    """Every entry under ``root``, links not followed: a file's bytes, a
    link's target, or "dir" or "fifo"."""
    entries = {}
    for folder, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(folder, name)
            mode = os.lstat(path).st_mode
            entries[path] = (
                ("link", os.readlink(path)) if stat.S_ISLNK(mode)
                else "fifo" if stat.S_ISFIFO(mode)
                else "dir" if stat.S_ISDIR(mode)
                else pathlib.Path(path).read_bytes()
            )
    return entries


# Each kind of path a command writes, and the name of the file it writes
# there, which is also the name of the input it can be made to alias.
WRITE_KINDS = {
    "gen-o": "out.json",
    "decompose-o": "circulation.json",
    "decompose-dot": "circulation.json",
    "run-artifact": "instance.json",
    "run-dot": "instance.json",
    "execute-artifact": "executions.json",
}
WRITE_HAZARDS = [
    "input", "input-dotdot", "input-symlink", "input-hardlink", "other-output",
    "directory", "fifo", "dangling-symlink", "missing-folder", "folder-under-a-file",
]


class TestWriteRule:
    """Every path a command writes passes one rule, ``model.check_writes``:
    a refused path exits 1, is named on stderr, and every file is left as
    it was. ``gen`` reads nothing and writes one file, so only the hazards
    of the path itself apply to it; ``run`` and ``execute`` make their
    outdir, so a missing one is no hazard."""

    @staticmethod
    def argv(t: pathlib.Path, kind: str, written: str) -> list[str]:
        """The command line of ``kind`` that writes ``written``."""
        i, c, d = (f"{t}/in/{n}" for n in ("instance.json", "circulation.json", "executions.json"))
        dec = ["decompose", i, "--circulation", c]
        return {
            "gen-o": ["gen", "-n", "3", "-m", "3", "-o", written],
            "decompose-o": [*dec, "-o", written, "--dot", f"{t}/x.dot"],
            "decompose-dot": [*dec, "-o", f"{t}/x.json", "--dot", written],
            "run-artifact": ["run", i, "--outdir", os.path.dirname(written)],
            "run-dot": ["run", i, "--outdir", f"{t}/o", "--dot", written],
            "execute-artifact": ["execute", "--decomposition", d, "--outdir", os.path.dirname(written)],
        }[kind]

    @staticmethod
    def place(t: pathlib.Path, kind: str, hazard: str) -> tuple[str, str]:
        """Set up ``hazard`` for ``kind``; returns the written path and the
        refusal expected on stderr."""
        name = WRITE_KINDS[kind]
        artifact = kind.endswith("artifact")
        unwritable = "not in a directory the command can write"
        if hazard.startswith("input"):
            if hazard == "input-symlink":
                (t / "lk").symlink_to("in")
            elif hazard == "input-hardlink":
                (t / "hl").mkdir()
                os.link(t / "in" / name, t / "hl" / name)
            folder = {"input": "in", "input-dotdot": "sub/../in", "input-symlink": "lk",
                      "input-hardlink": "hl"}[hazard]
            written = f"{t}/{folder}/{name}"
            return written, f"{written}: the command reads {t}/in/{name} there"
        if hazard == "other-output":
            if artifact:  # the artifact is a link to another artifact
                written = f"{t}/o/{name}"
                os.symlink("ledger.json", written)
                return written, f"{t}/o/ledger.json: the command writes {written} there"
            written = {"decompose-o": f"{t}/x.dot", "decompose-dot": f"{t}/x.json",
                       "run-dot": f"{t}/o/ledger.json"}[kind]
            return written, f"{written}: the command writes {written} there"
        if hazard == "missing-folder":
            return f"{t}/missing/{name}", f"{t}/missing/{name}: {unwritable}"
        if hazard == "folder-under-a-file":
            return f"{t}/note.txt/{name}", f"{t}/note.txt/{name}: {unwritable}"
        written = f"{t}/o/{name}" if artifact else f"{t}/{name}"
        if hazard == "directory":
            os.makedirs(f"{written}/inner")
        elif hazard == "fifo":
            os.mkfifo(written)
        else:
            os.symlink(f"{t}/missing/x", written)
        return written, f"{written}: not a regular file"

    @pytest.mark.parametrize(
        "kind, hazard",
        [
            (kind, hazard)
            for kind in WRITE_KINDS
            for hazard in WRITE_HAZARDS
            if not (kind == "gen-o" and (hazard.startswith("input") or hazard == "other-output"))
            and not (kind.endswith("artifact") and hazard == "missing-folder")
        ],
    )
    def test_refused_write_exits_one_and_changes_nothing(self, tmp_path, capsys, kind, hazard):
        t = tmp_path
        for folder in ("in", "sub", "o"):
            (t / folder).mkdir()
        write_triangle(t / "in").rename(t / "in" / "instance.json")
        circ = solve_rebalancing(load_instance(str(t / "in" / "instance.json"))).circulation
        (t / "in" / "circulation.json").write_text(json.dumps(circulation_to_json_dict(circ)))
        (t / "in" / "executions.json").write_text(  # a decomposition, named like an artifact
            json.dumps({"cycles": [{"vertices": ["A", "B", "C"], "weight": 1}]})
        )
        (t / "o" / "ledger.json").write_text("an earlier run's")
        (t / "note.txt").write_text("a file, not a folder")
        written, refusal = self.place(t, kind, hazard)
        argv = self.argv(t, kind, written)
        before = _tree(t)
        if hazard == "fifo":
            # A child process, so that a write which blocks on the FIFO
            # fails the test instead of hanging it.
            done = subprocess.run(
                [sys.executable, "-m", "pcnflow.cli", *argv],
                capture_output=True,
                text=True,
                env=SRC_ENV,
                timeout=30,
            )
            code, err = done.returncode, done.stderr
        else:
            code, err = main(argv), capsys.readouterr().err
        assert (code, err) == (1, f"error: {refusal}\n")
        assert _tree(t) == before


class TestFailedCheckWritesNothing:
    """A broken internal invariant exits 2 before the first artifact is written."""

    @pytest.fixture
    def unbalanced_ledger(self, monkeypatch):
        def run_execution(executions, adversary=None):
            ledger = Ledger(deltas={"A": {("A", "B"): -1}, "B": {("A", "B"): 1}})
            return ledger, []

        monkeypatch.setattr(pipeline, "run_execution", run_execution)

    def test_run_balance_check(self, tmp_path, capsys, unbalanced_ledger):
        instance = write_triangle(tmp_path)
        outdir = tmp_path / "out"
        assert main(["run", str(instance), "--outdir", str(outdir)]) == 2
        assert "balance conservation broken at A" in capsys.readouterr().err
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_execute_balance_check(self, tmp_path, capsys, unbalanced_ledger):
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps({"cycles": [{"vertices": ["A", "B"], "weight": 1}]}))
        outdir = tmp_path / "out"
        assert main(["execute", "--decomposition", str(dec_path), "--outdir", str(outdir)]) == 2
        assert "balance conservation broken at A" in capsys.readouterr().err
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_run_certifies_its_optimum(self, tmp_path, capsys, monkeypatch):
        # A solver that stops at the zero circulation: feasible, 30 short
        # of the optimum, so the certificate finds a gain cycle left.
        scenario = str(pathlib.Path(__file__).parents[1] / "scenarios" / "cancelling_out.json")
        inst = load_instance(scenario)
        zero = solver.FlowResult(solver.residual_network(inst, (0,) * inst.m).cap, 0)
        monkeypatch.setattr(solver, "solve_min_cost_flow", lambda problem: zero)
        outdir = tmp_path / "out"
        assert main(["run", scenario, "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            "internal invariant violated: "
            "recovered flow is not optimal: a positive-gain cycle remains\n"
        )
        assert not outdir.exists()

    def test_mpc_divergence_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            MpcSession,
            "reconstruct_circulation",
            lambda self, shared_flows, instance: Circulation(instance, (0,) * instance.m),
        )
        instance = write_triangle(tmp_path, caps=(1, 1, 1))
        outdir = tmp_path / "out"
        # The full schedule against the optimum, a partial one against the
        # bounded plaintext twin.
        for flags in ([], ["--schedule", "1"]):
            assert main(["run", str(instance), "--outdir", str(outdir), "--mpc", *flags]) == 2
            assert "diverged" in capsys.readouterr().err
            assert not outdir.exists() or not any(outdir.iterdir())


    def test_mpc_twin_is_the_lockstep_canceler(self, tmp_path, capsys, monkeypatch):
        inst = double_triangle()
        optimum = solve_rebalancing(inst).circulation
        canceler = solve_rebalancing(inst, 5).circulation
        route = {(e.src, e.dst) for e, f in zip(inst.edges, optimum.flows) if f}
        assert route == {("A", "D"), ("D", "C"), ("C", "A")}
        route = {(e.src, e.dst) for e, f in zip(inst.edges, canceler.flows) if f}
        assert route == {("A", "B"), ("B", "C"), ("C", "A")}
        assert optimum.objective() == canceler.objective() == 3
        monkeypatch.setattr(
            MpcSession, "reconstruct_circulation", lambda self, shared_flows, instance: optimum
        )
        instance = tmp_path / "instance.json"
        instance.write_text(dump_instance(inst))
        outdir = tmp_path / "out"
        assert main(["run", str(instance), "--outdir", str(outdir), "--mpc"]) == 2
        assert "diverged" in capsys.readouterr().err
        assert not outdir.exists()


class TestPipelineWritesNothing:
    """``run_pipeline`` and ``execute_cycles`` only compute, and
    ``write_artifacts`` of what they return writes, byte for byte, what
    ``pcnflow run`` and ``pcnflow execute`` write."""

    ADVERSARY = {"policies": {
        "n0": "withhold_preimage", "n1": "withhold_preimage", "n2": "delay_settle_to_expiry",
        "n3": "withhold_preimage",
    }}

    @staticmethod
    def files(outdir: pathlib.Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    @pytest.mark.parametrize(
        "flags, options",
        [
            ([], {}),
            (["--iter-bound", "1"], {"iteration_bound": 1}),
            (["--mpc", "--k", "3"], {"k": 3}),
            (["--mpc", "--schedule", "2"], {"k": 3, "iteration_bound": 2}),
            (["--adversary"], {}),
        ],
        ids=["plain", "iter-bound", "mpc", "mpc-schedule", "adversary"],
    )
    def test_run_and_execute(self, tmp_path, monkeypatch, flags, options):
        from pcnflow.cycles import cycles_from_json_dict
        from pcnflow.execution import adversary_from_json_dict

        inst = generate_instance(5, 7, 2, 1, seed=4)
        (tmp_path / "instance.json").write_text(dump_instance(inst))
        adversary, adversary_flags = None, []
        if flags == ["--adversary"]:
            (tmp_path / "adversary.json").write_text(json.dumps(self.ADVERSARY))
            adversary = adversary_from_json_dict(self.ADVERSARY)
            flags = adversary_flags = ["--adversary", str(tmp_path / "adversary.json")]
        cli_run, cli_exe = tmp_path / "cli-run", tmp_path / "cli-exe"
        argv = ["run", str(tmp_path / "instance.json"), "--outdir", str(cli_run), "--seed", "3"]
        assert main([*argv, *flags]) == 0
        argv = ["execute", "--decomposition", str(cli_run / "decomposition.json"),
                "--outdir", str(cli_exe), "--seed", "5", *adversary_flags]
        assert main(argv) == 0
        cycles = cycles_from_json_dict(read(cli_run / "decomposition.json"))

        before = _tree(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "write_text", lambda *args: pytest.fail("the pipeline wrote"))
            result = pipeline.run_pipeline(inst, seed=3, adversary=adversary, **options)
            statuses, artifacts = pipeline.execute_cycles(cycles, seed=5, adversary=adversary)
        assert _tree(tmp_path) == before
        assert [name for name, _ in result.artifacts] == sorted(
            self.files(cli_run), key=pipeline.RUN_ARTIFACTS.index
        )
        pipeline.write_artifacts(str(tmp_path / "lib-run"), result.artifacts)
        pipeline.write_artifacts(str(tmp_path / "lib-exe"), artifacts)
        assert self.files(tmp_path / "lib-run") == self.files(cli_run)
        assert self.files(tmp_path / "lib-exe") == self.files(cli_exe)
        assert statuses == result.statuses


# Files the JSON parser cannot read: each used to end in a traceback.
UNREADABLE = {
    "not-utf8": b"\xff\xfe{}",
    "deep-nesting": b"[" * 200_000,
    "huge-int": b"1" * 5000,
}
# Each input file of each command, as (command, file): the argv of a
# command that reads ``bad`` in that place and valid files everywhere else.
INPUTS = {
    ("run", "instance"): lambda ok, bad: ["run", bad, "--outdir", ok["new"]],
    ("run", "adversary"): lambda ok, bad: [
        "run", ok["instance"], "--outdir", ok["new"], "--adversary", bad],
    ("verify", "instance"): lambda ok, bad: ["verify", bad, "--outdir", ok["outdir"]],
    ("verify", "circulation"): lambda ok, bad: [
        "verify", ok["instance"], "--circulation", bad],
    ("verify", "decomposition"): lambda ok, bad: [
        "verify", ok["instance"], "--circulation", ok["circulation"], "--decomposition", bad],
    ("verify", "report"): lambda ok, bad: ["verify", ok["instance"], "--outdir", bad],
    ("execute", "decomposition"): lambda ok, bad: [
        "execute", "--decomposition", bad, "--outdir", ok["new"]],
    ("execute", "adversary"): lambda ok, bad: [
        "execute", "--decomposition", ok["decomposition"], "--outdir", ok["new"],
        "--adversary", bad],
    ("decompose", "instance"): lambda ok, bad: [
        "decompose", bad, "--circulation", ok["circulation"]],
    ("decompose", "circulation"): lambda ok, bad: [
        "decompose", ok["instance"], "--circulation", bad],
}


def input_argv(tmp_path: pathlib.Path, place, make_bad) -> list[str]:
    """INPUTS[place] over a plain run's files, reading the file that
    ``make_bad(path)`` makes in that place."""
    instance = write_triangle(tmp_path)
    outdir = tmp_path / "out"
    assert main(["run", str(instance), "--outdir", str(outdir)]) == 0
    ok = {
        "instance": str(instance),
        "outdir": str(outdir),
        "circulation": str(outdir / "circulation.json"),
        "decomposition": str(outdir / "decomposition.json"),
        "new": str(tmp_path / "new"),
    }
    if place == ("verify", "report"):
        bad = tmp_path / "tampered"
        shutil.copytree(outdir, bad)
        (bad / "report.json").unlink()
        make_bad(bad / "report.json")
    else:
        bad = tmp_path / "bad.json"
        make_bad(bad)
    return INPUTS[place](ok, str(bad))


PLACE_IDS = [f"{c}-{f}" for c, f in INPUTS]


@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
@pytest.mark.parametrize("place", INPUTS, ids=PLACE_IDS)
def test_unreadable_input_exit_one(tmp_path, capsys, place, content):
    argv = input_argv(tmp_path, place, lambda path: path.write_bytes(content))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid JSON" in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("place", INPUTS, ids=PLACE_IDS)
def test_fifo_input_without_writer_exit_one(tmp_path, place):
    # A FIFO that no process writes reads as empty. A child process, so
    # that an open which waits for a writer fails the test instead of
    # hanging it.
    argv = input_argv(tmp_path, place, os.mkfifo)
    done = subprocess.run(
        [sys.executable, "-m", "pcnflow.cli", *argv],
        capture_output=True, text=True, env=SRC_ENV, timeout=30,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "not valid JSON" in done.stderr
    assert not (tmp_path / "new").exists()


def test_input_from_a_pipe_parses(tmp_path):
    # Shell process substitution names a pipe /dev/fd/N, and its writer
    # may start writing after the reader has opened it.
    text = write_triangle(tmp_path).read_text()
    read_end, write_end = os.pipe()
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "pcnflow.cli", "run", f"/dev/fd/{read_end}",
             "--outdir", str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=SRC_ENV,
            pass_fds=(read_end,),
        )
    finally:
        os.close(read_end)
    try:
        with os.fdopen(write_end, "w") as fh:
            fh.write(text)
        out, err = child.communicate(timeout=30)
    finally:
        child.kill()
    assert (child.returncode, err) == (0, "")
    assert out.startswith("objective 12,")
    assert (tmp_path / "out" / "instance.json").read_text() == text


class TestCollectorPause:
    """Each command runs with the cyclic collector paused, and ``main``
    leaves it as it found it, whatever the exit."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("exit_code", [0, 1, 2])
    def test_state_restored(self, monkeypatch, capsys, enabled, exit_code):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if exit_code == 1:
                raise ModelError("bad input")
            if exit_code == 2:
                raise InvariantViolation("broken")
            return 0

        monkeypatch.setattr(cli, "_cmd_gen", command)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["gen", "-n", "3", "-m", "1"]) == exit_code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]

    def test_state_restored_after_usage_error(self, capsys):
        assert gc.isenabled()
        with pytest.raises(SystemExit):
            main(["gen", "-n", "x", "-m", "3"])
        assert gc.isenabled()
