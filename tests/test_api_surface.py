"""Every public name of the package has a caller outside the tests.

The guard parses ``src/cryamabe`` with ``ast`` and lists its public top-level
functions and classes and the public methods of those classes.  Each must be
referenced by name (a ``Name``, an ``Attribute`` or an import) somewhere in the
program code of ``src/`` or ``bench/``; test modules do not count.  A public
name that only tests call is either dead or an oracle that belongs with the
tests that use it.

The benchmark's span tracer wraps functions by name, so each of its targets
must also still exist.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cryamabe"

ALLOWED = {
    # the config as JSON: the planned run manifest (ROADMAP item 1) is to record the config through it
    "config.ExperimentConfig.to_json",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions() -> dict[str, str]:
    """Qualified name -> bare name of each public top-level def, class and method."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                defs[f"{mod}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        defs[f"{mod}.{node.name}.{item.name}"] = item.name
    return defs


def _program_files() -> list[Path]:
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    return [p for p in files if not p.name.startswith("test_") and p.name != "conftest.py"]


def _references() -> set[str]:
    refs = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                refs.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return refs


def test_every_public_name_has_a_program_caller():
    refs = _references()
    unreferenced = sorted(q for q, name in _definitions().items() if name not in refs and q not in ALLOWED)
    assert unreferenced == []


def test_allowed_names_still_exist():
    # an allowance outliving its definition would hide nothing, but it rots
    assert ALLOWED <= set(_definitions())


def test_trace_targets_resolve():
    # bench/run.py --trace 1 wraps each TARGETS entry by name; a deleted or
    # renamed target would break the traced run, not any test
    spec = importlib.util.spec_from_file_location("_bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for modname, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"cryamabe.{modname}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{modname}.{path}")
    assert spans.TARGETS and missing == []
