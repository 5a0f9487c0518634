import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import relinfo

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "relinfo"


def test_every_exported_name_resolves():
    assert [name for name in relinfo.__all__ if not hasattr(relinfo, name)] == []
    assert len(set(relinfo.__all__)) == len(relinfo.__all__)


def unused_imports(path):
    """``file:line: name`` of each module-level import in ``path`` that no name references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.parent.name}/{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs on the repository, so this stands in for an unused-import
    # check over the package, its tests and the demos.
    modules = sorted([*(p for p in SOURCE.glob("*.py") if p.name != "__init__.py"),
                      *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
    assert {p.parent.name for p in modules} == {"relinfo", "tests", "demos"}
    assert [entry for path in modules for entry in unused_imports(path)] == []


def raised_names(path):
    """Names of the exception classes that ``raise`` statements in ``path`` construct."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_error_class_has_a_raiser():
    # An error class that no code raises is dead API.
    tree = ast.parse((SOURCE / "errors.py").read_text())
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(raised_names(p) for p in SOURCE.glob("*.py")))
    assert "ValidationError" in declared
    assert sorted(declared - raised - {"RelInfoError"}) == []


def statement_references(path):
    """``(statement, names)`` for each top-level statement of ``path``, with the names it reads.

    A name is read as a bare name or as an attribute (``module.name``).
    """
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        yield node, {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                     if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_private_definition_has_a_reference():
    # A module-level private function or class that nothing outside its own
    # definition names is dead code.
    private, referenced = {}, set()
    for path in sorted([*SOURCE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                        *(ROOT / "demos").glob("*.py")]):
        for node, names in statement_references(path):
            name = getattr(node, "name", "")
            if (path.parent == SOURCE and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and name.startswith("_") and not name.startswith("__")):
                private[name] = f"{path.name}:{node.lineno}"
            referenced |= names - {name}
    assert "_Completion" in private
    assert [f"{where}: {name}" for name, where in private.items() if name not in referenced] == []


def philox_calls(path):
    """``(line, keywords)`` of each call in ``path`` whose callee is named ``Philox``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
            if name == "Philox":
                yield node.lineno, {keyword.arg for keyword in node.keywords}


def test_philox_is_built_only_in_mc_and_never_from_os_entropy():
    # ``Philox(key=...)`` builds and discards an entropy-seeded SeedSequence;
    # mc hands Philox its key through a seed sequence that draws none.
    calls = {path.name: list(philox_calls(path)) for path in sorted(SOURCE.glob("*.py"))}
    assert calls["mc.py"]
    assert [f"{name}:{line}" for name, found in calls.items() for line, keywords in found
            if name != "mc.py" or "key" in keywords] == []


# Every subcommand at a tiny size, then the modules the run loaded.
RUN_EVERY_COMMAND = """
import contextlib, io, json, sys
import relinfo
from relinfo import cli
binom = ["--x", "6", "--n-obs", "10", "--n-missing", "10", "--p0", "0.3"]
commands = [
    ["binom-ri", *binom, "--draws", "50"],
    ["ri-y", *binom, "--p1", "0.7", "--draws", "50"],
    ["lod-var", *binom, "--draws", "50"],
    ["cox-ri", "--data", "surv.csv", "--n-new", "1", "--new-covariates", "1", "--draws", "50"],
    ["combine", "--studies", "studies.json"],
    ["design-eval", "--design-a", "base", "--design-b", "base-doubled"],
    ["doss-replication", "--n-datasets", "2", "--n-subjects", "10", "--n-new", "1",
     "--draws", "50"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in commands]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules
                                                   if m.partition(".")[0] == "scipy")}))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    # Its own process, because the test modules import scipy themselves.
    (tmp_path / "surv.csv").write_text(
        "time,status,cov1\n" + "".join(f"{t},{t % 3 > 0:d},{t % 2}\n" for t in range(1, 13)))
    (tmp_path / "studies.json").write_text(json.dumps([
        {"label": "a", "lod_observed": 1.0, "ri1": 0.4},
        {"label": "b", "lod_observed": 3.0, "ri1": 0.8}]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SOURCE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", RUN_EVERY_COMMAND], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {"codes": [0] * 7, "scipy": []}
