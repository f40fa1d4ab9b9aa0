"""Each command loads only the modules it uses.

Every case runs ``cli.main`` in a fresh interpreter and reports the exact
set of ``pcnflow`` modules it loaded, and which of a few standard modules:
no command needs ``dataclasses`` (and the ``inspect`` it pulls in), and
``gen`` needs neither ``hashlib`` nor ``heapq``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from pcnflow.cli import generate_instance, main
from pcnflow.model import ChannelConstraint, build_instance, dump_instance

ROOT = pathlib.Path(__file__).resolve().parents[1]
WATCHED = ("dataclasses", "inspect", "hashlib", "heapq")
PROBE = (
    "import json, sys\n"
    "from pcnflow.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'pcnflow'),\n"
    f"                  [m for m in {WATCHED!r} if m in sys.modules]]))\n"
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Instances and run artifacts, made in this process."""
    d = tmp_path_factory.mktemp("imports")
    instances = {
        "small": generate_instance(5, 6, cap_max=2, weight_max=1, seed=3),
        "large": generate_instance(8, 14, cap_max=9, weight_max=2, seed=3),
        "oversized": build_instance(
            ["A", "B"], [ChannelConstraint("A", "B", 1)], capacity_bound=2**50, weight_bound=2**10
        ),
    }
    for name, inst in instances.items():
        (d / f"{name}.json").write_text(dump_instance(inst))
    for name in ("small", "large"):
        assert main(["run", str(d / f"{name}.json"), "--outdir", str(d / name)]) == 0
    return d


GEN = ["cli", "model"]
DECOMPOSE = [*GEN, "cycles", "solver"]
VERIFY = [*DECOMPOSE, "verify"]
EXECUTE = [*GEN, "cycles", "execution", "pipeline"]
RUN = [*EXECUTE, "solver"]
CASES = {
    "gen": (["gen", "-n", "5", "-m", "6", "-o", "{d}/gen.json"], 0, GEN),
    "decompose": (["decompose", "{d}/small.json", "--circulation", "{d}/small/circulation.json"], 0, DECOMPOSE),
    "execute": (["execute", "--decomposition", "{d}/small/decomposition.json", "--outdir", "{d}/exe"], 0, EXECUTE),
    "run": (["run", "{d}/small.json", "--outdir", "{d}/plain"], 0, RUN),
    "verify-large": (["verify", "{d}/large.json", "--outdir", "{d}/large"], 0, VERIFY),
    "verify-small": (["verify", "{d}/small.json", "--outdir", "{d}/small"], 0, VERIFY),
    "run-mpc": (["run", "{d}/small.json", "--outdir", "{d}/mpc", "--mpc", "--k", "3"], 0, [*RUN, "mpc"]),
    "k-too-large": (["run", "{d}/small.json", "--outdir", "{d}/k9", "--mpc", "--k", "9"], 1, [*RUN, "mpc"]),
    "out-of-range": (["run", "{d}/oversized.json", "--outdir", "{d}/big", "--mpc"], 1, [*RUN, "mpc"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_only_what_it_uses(files, case):
    argv, code, loaded = CASES[case]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *(a.format(d=files) for a in argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    got_code, modules, watched = json.loads(done.stdout.splitlines()[-1])
    assert got_code == code
    assert modules == sorted(["pcnflow", *(f"pcnflow.{m}" for m in loaded)])
    assert "dataclasses" not in watched and "inspect" not in watched
    if case == "gen":
        assert watched == []
    if code:
        assert done.stderr.startswith("error:")
