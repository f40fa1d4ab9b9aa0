"""The bundled scripts run to completion from a plain checkout."""

import ast
import builtins
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from pcnflow.cli import generate_instance, main
from pcnflow.model import dump_instance

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_cancelling_out.py", "benchmark_solver.py"])
def test_script_exits_zero(script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _files(outdir: pathlib.Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("case", ["run", "run-mpc", "execute-adversary"])
def test_traced_twin_writes_the_cli_artifacts(tmp_path, case):
    """bench/traced.py makes the CLI's calls with spans around them; its
    outdir must equal the CLI's byte for byte."""
    if case == "execute-adversary":
        dec = tmp_path / "decomposition.json"
        dec.write_text(json.dumps({"cycles": [
            {"vertices": ["a", "b", "c"], "weight": 3},
            {"vertices": ["c", "d"], "weight": 2**40},
            {"vertices": ["b", "d", "e", "a"], "weight": 1},
        ]}))
        adversary = tmp_path / "adversary.json"
        adversary.write_text(json.dumps({"policies": {
            "a": "withhold_preimage", "b": "withhold_preimage", "d": "delay_settle_to_expiry",
        }}))
        args = ["execute", "--decomposition", str(dec), "--adversary", str(adversary),
                "--seed", "4"]
    else:
        shape = (4, 5, 1, 1) if case == "run-mpc" else (30, 80, 2**20, 3)
        instance = tmp_path / "instance.json"
        instance.write_text(dump_instance(generate_instance(*shape, seed=8)))
        args = ["run", str(instance), "--seed", "5"]
        if case == "run-mpc":
            args += ["--mpc", "--k", "3"]
    assert main([*args, "--outdir", str(tmp_path / "cli")]) == 0
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(tmp_path / "spans.json"), "t",
         *args, "--outdir", str(tmp_path / "traced")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert _files(tmp_path / "traced") == _files(tmp_path / "cli")


def _resolves(module_name: str, name: str) -> bool:
    if hasattr(importlib.import_module(module_name), name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_resolve():
    """Every ``from pcnflow... import name`` in bench/, function-local ones
    included, names something the package still provides."""
    found = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pcnflow":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    assert ("traced.py", "pcnflow.cli", "MAX_UNCONFIRMED_SCHEDULE") in found
    missing = [f for f in found if not _resolves(f[1], f[2])]
    assert not missing


def _imported_names(tree: ast.AST) -> set[str]:
    """The names the imports of ``tree`` bind, ``os`` for ``import os.path``."""
    return {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def _is_named_tuple(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(base).rpartition(".")[2] == "NamedTuple" for base in cls.bases)


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each public module-level function and class of the package, each
    public method of such a class and each public field of such a
    ``NamedTuple`` is referenced by the package outside its own
    definition, by scripts/ or by bench/ (its tests aside): a name only
    tests reach is code no command runs. A module-level name is
    referenced by an ``ast.Name``, an ``ast.Attribute`` or an import
    alias; a method or a field only by an attribute or a keyword, and
    not by an attribute of an imported name, so ``json.dumps`` stands in
    for no ``dumps`` method. Both are matched by name."""
    refs, member_refs, defs = [], [], []
    files = [*(ROOT / "src" / "pcnflow").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))]
    for path in sorted(files):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = _imported_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
                if not (isinstance(node.value, ast.Name) and node.value.id in imported):
                    member_refs.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.keyword) and node.arg is not None:
                member_refs.append((path, node.lineno, node.arg))
            elif isinstance(node, ast.alias):
                refs.append((path, node.lineno, node.name.rpartition(".")[2]))
        if path.parent.name != "pcnflow":
            continue
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                defs.append((path, top, top.name, refs))
                for item in top.body if isinstance(top, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef):
                        name = item.name
                    elif isinstance(item, ast.AnnAssign) and _is_named_tuple(top):
                        name = item.target.id
                    else:
                        continue
                    if not name.startswith("_"):
                        defs.append((path, item, f"{top.name}.{name}", member_refs))
    qualified_names = {q for _, _, q, _ in defs}
    assert {"run_pipeline", "MpcSession.private_solve", "SolveReport.terminated_early"} <= qualified_names
    unreferenced = [
        f"{path.name}:{qualified}"
        for path, node, qualified, candidates in defs
        if not any(
            name == qualified.rpartition(".")[2]
            and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, name in candidates
        )
    ]
    assert not unreferenced


def test_every_error_is_one_of_the_exit_code_classes():
    """The package's errors are ``ModelError`` (exit 1) and
    ``InvariantViolation`` (exit 2). No other exception class is defined,
    and every ``raise`` names one of the two or re-raises (a bare
    ``raise``): the names ``bench/`` raises are aliases, not classes."""
    contract = {"ModelError": ["ValueError"], "InvariantViolation": ["RuntimeError"]}

    def name(node: ast.expr) -> str:
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", ast.dump(node))

    classes, raises = [], []
    for path in sorted((ROOT / "src" / "pcnflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes.append((node.name, [name(b) for b in node.bases]))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raises.append((f"{path.name}:{node.lineno}", name(exc)))
    # A class is an exception class when a base is a builtin exception or
    # another exception class of the package; a name defined twice counts twice.
    known = {
        n for n, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)
    }
    errors = []
    while more := [c for c in classes if c not in errors and known.intersection(c[1])]:
        errors += more
        known.update(c[0] for c in more)
    assert sorted(errors) == sorted(contract.items())
    assert [(where, exc) for where, exc in raises if exc not in contract] == []


def _opens_for_writing(call: ast.Call) -> bool:
    """``open`` with a mode that writes (w, a, x or +, or a mode the AST
    cannot read), any ``os.open``, or a ``write_text``/``write_bytes``
    method call such as ``Path.write_text``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes"):
            return True
        if func.attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os":
            return True
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "open":
        return False
    modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wax+")
        for m in modes
    )


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _reopeners(tree: ast.AST) -> set[ast.Call]:
    """The ``os.open`` calls that open with the flags an ``open()`` call
    hands its ``opener``, adding none that write: the body of a lambda
    ``opener=lambda path, flags: os.open(path, flags | ...)``. Such a
    call writes only if the ``open()`` call's own mode does, and that
    mode is checked where the ``open()`` call is."""
    found = set()
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "open"):
            continue
        for opener in (k.value for k in call.keywords if k.arg == "opener"):
            body = getattr(opener, "body", None)
            if not (isinstance(opener, ast.Lambda) and len(opener.args.args) == 2
                    and isinstance(body, ast.Call) and ast.unparse(body.func) == "os.open"
                    and len(body.args) == 2 and not body.keywords):
                continue
            flags = list(ast.walk(body.args[1]))
            passed = {n.id for n in flags if isinstance(n, ast.Name)}
            added = {n.attr for n in flags if isinstance(n, ast.Attribute)}
            if opener.args.args[1].arg in passed and not added & _WRITE_FLAGS:
                found.add(body)
    return found


def _owners(tree: ast.AST) -> dict[ast.AST, str]:
    """Each node of ``tree`` inside a function, mapped to the name of its
    innermost function."""
    # ast.walk visits an outer function before its inner ones, so each
    # node ends up under its innermost function.
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(node), node.name))
    return owner


def test_only_write_text_opens_a_file_for_writing():
    """``model.write_text`` is the package's one writer, so every file a
    command writes goes through it, after ``model.check_writes``."""
    writers = []
    for path in sorted((ROOT / "src" / "pcnflow").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reopeners = _reopeners(tree)
        owner = _owners(tree)
        writers += [
            f"{path.name}:{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _opens_for_writing(node)
            and node not in reopeners
        ]
    assert writers == ["model.py:write_text"]


def test_only_the_commands_check_their_write_paths():
    """``model.check_writes`` is called in ``cli.py`` alone, once by each
    command that writes: the pipeline and the scripts compute and write,
    and the command has checked every path before it reads anything."""
    callers = []
    files = [*(ROOT / "src" / "pcnflow").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    for path in sorted(files):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = _owners(tree)
        callers += [
            f"{path.name}:{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "check_writes"
        ]
    assert sorted(callers) == [
        "cli.py:_cmd_decompose", "cli.py:_cmd_execute", "cli.py:_cmd_gen", "cli.py:_run_pipeline",
    ]


def test_op_names_are_spelled_only_in_the_op_table():
    """The op names the engine logs appear in the package only in the
    class-body statements that build ``mpc.ArithmeticBlackBox.OPS``; a
    key of ``OPS[...]`` names a method. So every method logs a table
    entry, and no op is spelled where the table does not see it."""
    names = {"add", "mul public", "mul shared", "cmp"}
    in_table, outside = [], []
    for path in sorted((ROOT / "src" / "pcnflow").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if not isinstance(stmt, ast.FunctionDef) and any(
                        isinstance(n, ast.Name) and n.id == "OPS" for n in ast.walk(stmt)
                    ):
                        allowed.update(ast.walk(stmt))
            elif isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "OPS":
                allowed.update(ast.walk(node.slice))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in names:
                (in_table if node in allowed else outside).append(
                    (path.name, node.lineno, node.value)
                )
    assert {value for _, _, value in in_table} == names
    assert outside == []
