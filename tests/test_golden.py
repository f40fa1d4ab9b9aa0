"""Artifact digests pinned for fixed inputs and seeds.

Every file `pcnflow run` and `pcnflow execute` write is a pure function of
the inputs, flags and seed, and internal refactors must keep those files
byte-identical. A change that alters any byte of any artifact fails here;
a change meant to alter an artifact updates its digest on purpose.
"""

import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys

import pytest

from pcnflow import solver
from pcnflow.cli import main
from pcnflow.pipeline import EXECUTE_ARTIFACTS, MPC_ARTIFACTS, RUN_ARTIFACTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
CANCELLING_OUT = str(ROOT / "scenarios" / "cancelling_out.json")

TRIANGLE = {
    "nodes": ["A", "B", "C"],
    "edges": [
        {"from": "A", "to": "B", "capacity": 4, "weight": 1},
        {"from": "B", "to": "C", "capacity": 4, "weight": 1},
        {"from": "C", "to": "A", "capacity": 4, "weight": 1},
    ],
    "weight_bound": 1,
    "capacity_bound": 4,
}

DIGESTS = {
    "mpc": {
        "circulation.json": "c285c7372ac5d6358d66349b26d89e9392049af18b3519fc040f9c2f533b8422",
        "decomposition.json": "3572ac1f57c422535abcc9ef93bfee9bfeac27cf938264668a4052023ab04a59",
        "delegates.json": "8812c90706fa26eff898b65fd4db79e371de56af1325af4138f6e83c07525735",
        "events.json": "2b364abd9798e7d415ab6428b5a5209820164446494935a405e9d3dfe9f5a6c6",
        "executions.json": "ee72b85d5814d7794b573f81426b9f242d24e1099e3cf33cae88add6cc5c255a",
        "instance.json": "f7034046086d534a7bc43dcb2ff4c376aa0308e8fcba8c76b457d54f8ac2f72f",
        "ledger.json": "a16cda6a22e59d383d90918913e08ff02ba7e37d1e4404c6deeaa8b007551946",
        "mpc_transcript.txt": "74f5c5f1fc9ba1d5ae6b8706b1a11ef1b3ca80d585122b52dbcdc20fe1a0c33b",
        "report.json": "1fa4057a9b7c4aadf5978f4e4ede8bc6f8630f966acacbec2b42a3e8546a94b2",
    },
    "plain": {
        "circulation.json": "32c9dd67211af2650e6924c1cbdb379e2d155f7b293770e9dbb10be98dda65e5",
        "decomposition.json": "5202ce2bb5aede1303c30b76d48040781a9afce256ef874c50a947c0a59250f0",
        "events.json": "ca2aed6e2426742aa39550dcf1c1598615fdd5364dce3fb5d152d83359cff364",
        "executions.json": "2893154b3c1a9a0234448d1e351fab4d7e78af8a5266558a918a05cbcd6c812e",
        "instance.json": "10b4d35159ffe3162473872558b49317213b6f34368a0ead1d422f54c2f698bb",
        "ledger.json": "7593bf4dfb6252468b616ec176bc849fa3d0721df4d05a1b11ffd627cf2469a7",
        "report.json": "09190166d5f396cf2d3471b3529b486de46222709fbb0dee3945b7356544c070",
    },
    "run-adversary": {
        "circulation.json": "32c9dd67211af2650e6924c1cbdb379e2d155f7b293770e9dbb10be98dda65e5",
        "decomposition.json": "5202ce2bb5aede1303c30b76d48040781a9afce256ef874c50a947c0a59250f0",
        "events.json": "9f477f1171461f09e8602f0fe82ccd63e88e6fc5dc2bb6f33e45687241cf11fc",
        "executions.json": "329dc60a900380f43a7e0d42b33e0841f663b0c19467f9c37b3ac6886235a0a7",
        "instance.json": "10b4d35159ffe3162473872558b49317213b6f34368a0ead1d422f54c2f698bb",
        "ledger.json": "b42369944f5812cb444f801b8f221c7e098845f00d60eee01e7dfae8d8022f33",
        "report.json": "09190166d5f396cf2d3471b3529b486de46222709fbb0dee3945b7356544c070",
    },
    "bounded": {
        "circulation.json": "8df015bc2ba5aaee28d278531644b49af6fafdd71e442d0f35636ce84dc4a04b",
        "decomposition.json": "e4c24125cdfc9f1e6b3fc93e65d46879b8b6529410df8574d71f34f34ad39bee",
        "events.json": "f319917cef96b6316c994a073394139d598ec561eeb8253031e295b3a9ff4e03",
        "executions.json": "467b027abf07f42f53f0dbe2c47827a026a0b5fef211426af222556c0d581130",
        "instance.json": "10b4d35159ffe3162473872558b49317213b6f34368a0ead1d422f54c2f698bb",
        "ledger.json": "b42369944f5812cb444f801b8f221c7e098845f00d60eee01e7dfae8d8022f33",
        "report.json": "b6553726cce3a81e6d5ff06110de5eb057556b9ea4eed4f598a15ad727a2b356",
    },
    "execute-adversary": {
        "events.json": "9f477f1171461f09e8602f0fe82ccd63e88e6fc5dc2bb6f33e45687241cf11fc",
        "executions.json": "329dc60a900380f43a7e0d42b33e0841f663b0c19467f9c37b3ac6886235a0a7",
        "ledger.json": "b42369944f5812cb444f801b8f221c7e098845f00d60eee01e7dfae8d8022f33",
    },
    "execute": {
        "events.json": "c47efea39f1845c1a8244355fb3b08d0acdef7e840cc3ed5dba8b51f19d0351f",
        "executions.json": "46b351d4da9cd6eaaea34c22fe15ff39807c4c467367d88b19ae4ca6957e5d02",
        "ledger.json": "7593bf4dfb6252468b616ec176bc849fa3d0721df4d05a1b11ffd627cf2469a7",
    },
}


def digests(outdir: pathlib.Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())
    }


RUNS = {
    "mpc": ["run", "{triangle}", "--seed", "1", "--mpc", "--k", "3"],
    "plain": ["run", CANCELLING_OUT, "--seed", "1"],
    "bounded": ["run", CANCELLING_OUT, "--seed", "1", "--iter-bound", "1"],
    # Seed 1 picks initiators alice and dave, as in the execute case
    # below: dave withholds, so his cycle refunds and alice's completes.
    "run-adversary": ["run", CANCELLING_OUT, "--seed", "1", "--adversary", "{adversary}"],
}


def table_names(name: str) -> set[str]:
    """The files the artifact table says case ``name``'s command writes."""
    if name not in RUNS:
        return set(EXECUTE_ARTIFACTS)
    if "--mpc" in RUNS[name]:
        return set(RUN_ARTIFACTS)
    return set(RUN_ARTIFACTS) - set(MPC_ARTIFACTS)


@pytest.mark.parametrize("name", DIGESTS)
def test_pinned_names_are_the_artifact_table(name):
    assert set(DIGESTS[name]) == table_names(name)


def run_argv(tmp_path: pathlib.Path, name: str, argv: list[str]) -> list[str]:
    """Case ``name``'s ``run`` command line, its input files written."""
    inputs = {"{triangle}": tmp_path / "triangle.json", "{adversary}": tmp_path / "adv.json"}
    inputs["{triangle}"].write_text(json.dumps(TRIANGLE))
    inputs["{adversary}"].write_text(json.dumps({"policies": {"dave": "withhold_preimage"}}))
    return [*(str(inputs.get(a, a)) for a in argv), "--outdir", str(tmp_path / name)]


@pytest.mark.parametrize("name, argv", RUNS.items())
def test_run_artifacts_match_pinned_digests(tmp_path, name, argv):
    assert main(run_argv(tmp_path, name, argv)) == 0
    assert digests(tmp_path / name) == DIGESTS[name]


# Set and dict iteration over strings follows the hash seed; no artifact may.
@pytest.mark.parametrize("hash_seed", ["0", "4242"])
@pytest.mark.parametrize("name, argv", RUNS.items())
def test_run_artifacts_do_not_depend_on_the_hash_seed(tmp_path, name, argv, hash_seed):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-m", "pcnflow.cli", *run_argv(tmp_path, name, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert digests(tmp_path / name) == DIGESTS[name]


def other_interpreters() -> tuple[list[str], str]:
    """The CPython versions from 3.10 up that pyenv lists, but the running
    one, and why the list is empty if it is."""
    try:
        listed = subprocess.run(
            ["pyenv", "versions", "--bare"], capture_output=True, text=True, timeout=30
        ).stdout.split()
    except FileNotFoundError:
        return [], "pyenv is not installed, so no other interpreter can be found"
    running = platform.python_version()
    found = [
        version for version in listed
        if version != running and (m := re.fullmatch(r"3\.(\d+)\.\d+", version)) and int(m[1]) >= 10
    ]
    return found, "pyenv lists no interpreter from 3.10 up but the running one"


def pytest_generate_tests(metafunc):
    # Collection, not import, asks pyenv; each interpreter names its own tests.
    if "interpreter" in metafunc.fixturenames:
        found, why = other_interpreters()
        metafunc.parametrize(
            "interpreter", found or [pytest.param(None, marks=pytest.mark.skip(reason=why))]
        )


# The package promises Python 3.10 and later, and every release must write
# the same bytes: f-string parsing, for one, changed in 3.12.
@pytest.mark.parametrize("name", ["plain", "run-adversary", "mpc"])
def test_run_artifacts_do_not_depend_on_the_interpreter(tmp_path, name, interpreter):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYENV_VERSION": interpreter}
    done = subprocess.run(
        ["pyenv", "exec", "python", "-m", "pcnflow.cli", *run_argv(tmp_path, name, RUNS[name])],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert digests(tmp_path / name) == DIGESTS[name]


@pytest.mark.parametrize("schedule", [[], ["--schedule", "12"]], ids=["full", "explicit-full"])
def test_mpc_run_never_runs_the_primal_dual(tmp_path, monkeypatch, schedule):
    # The triangle's full schedule is 3 edges x capacity 4 x weight 1 rounds.
    def never(problem):
        raise AssertionError("run --mpc ran the primal-dual")

    monkeypatch.setattr(solver, "solve_min_cost_flow", never)
    assert main(run_argv(tmp_path, "mpc", [*RUNS["mpc"], *schedule])) == 0
    assert digests(tmp_path / "mpc") == DIGESTS["mpc"]


def test_execute_artifacts_match_pinned_digests(tmp_path):
    assert main(["run", CANCELLING_OUT, "--seed", "1", "--outdir", str(tmp_path / "run")]) == 0
    outdir = tmp_path / "execute"
    assert main(
        ["execute", "--decomposition", str(tmp_path / "run" / "decomposition.json"),
         "--outdir", str(outdir), "--seed", "4"]
    ) == 0
    assert digests(outdir) == DIGESTS["execute"]


def test_execute_adversary_artifacts_match_pinned_digests(tmp_path):
    # Seed 1 picks initiators alice and dave: dave's cycle refunds, and
    # bob's delay leaves alice's cycle completing.
    assert main(["run", CANCELLING_OUT, "--seed", "1", "--outdir", str(tmp_path / "run")]) == 0
    adversary = tmp_path / "adversary.json"
    adversary.write_text(json.dumps(
        {"policies": {"dave": "withhold_preimage", "bob": "delay_settle_to_expiry"}}
    ))
    outdir = tmp_path / "execute"
    assert main(
        ["execute", "--decomposition", str(tmp_path / "run" / "decomposition.json"),
         "--outdir", str(outdir), "--seed", "1", "--adversary", str(adversary)]
    ) == 0
    assert digests(outdir) == DIGESTS["execute-adversary"]
    statuses = [ex["status"] for ex in json.loads((outdir / "executions.json").read_text())]
    assert statuses == ["completed", "aborted"]
