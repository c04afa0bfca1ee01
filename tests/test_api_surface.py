"""Every public name of the package has a caller outside the tests.

The guard parses ``src/cryamabe`` with ``ast`` and lists its public top-level
functions and classes and the public methods of those classes.  Each must be
referenced by name (a ``Name``, an ``Attribute`` or an import) somewhere in the
program code of ``src/`` or ``bench/``; test modules do not count.  A public
name that only tests call is either dead or an oracle that belongs with the
tests that use it.

The benchmark's span tracer wraps functions by name, so each of its targets
must also still exist.

A second guard holds the same line for parameters: every defaulted parameter
of a function or method in ``src/cryamabe``, and every defaulted init field
of a dataclass there, must be set by some call in that program code (a field
by its constructor or by keyword in ``dataclasses.replace``).  A parameter
that no program call sets has one value, and that value belongs in the code,
not in the signature.

A third guard keeps the group layer written for H^1, the only group the
laboratory runs: no public function, method or dataclass field of
``heisenberg``, ``cayley`` or ``riesz`` takes a parameter named ``N`` or is
itself named ``N``, apart from the few the benchmark still calls with N = 1.
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


# "module.qual(param)" -> why only tests set it
ALLOWED_PARAMS = {
    "bubbling.ps_energy_report(scheme)": "coarse schemes keep the tier-1 transport tests fast",
    "bubbling.residual_report(scheme)": "coarse schemes keep the tier-1 transport tests fast",
    "energy.dirichlet_form(h)": "the fixed-step test compares a scalar step with the gauge-scaled one",
    "energy.dirichlet_form(h_factor)": "the transport-accuracy test needs a finer stencil than the default",
    "riesz.mapping_bound_probe(shape)": "a coarse grid keeps the tier-1 probe test fast",
    "bubbling.CutoffSpec(r_inner)": "TestCutoff::test_validation sets it to check the radius ordering",
    "bubbling.CutoffSpec(r_outer)": "TestCutoff::test_validation sets it to check the radius ordering",
}


# "module.qual(N)" -> why it is still there; each accepts N = 1 and refuses any other before any work
ALLOWED_N = {
    "heisenberg.integrate_decaying(N)": "bench/ passes 1; ROADMAP item 6",
    "heisenberg.BoxDomain.koranyi(N)": "bench/ passes 1; ROADMAP item 6",
    "riesz.KernelSpec(N)": "bench/ passes 1; ROADMAP item 6",
}
GROUP_MODULES = ("heisenberg", "cayley", "riesz")


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _init_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) for each init field of a dataclass, in order."""
    fields = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
            fields.append((item.target.id, "default" in kw or "default_factory" in kw))
        else:
            fields.append((item.target.id, value is not None))
    return fields


def _defaulted_params() -> dict[str, tuple[tuple[tuple[str, int | None], ...], str]]:
    """Each defaulted parameter as "module.qual(param)" -> (ways to set it, name).

    A way is a bare callee name and the positional index of the parameter
    among the arguments a call passes explicitly (None: by keyword only), so
    the index is offset by one for methods that are not static.  A dataclass
    field is set by its class's constructor or by ``replace``.
    """
    params = {}

    def visit(node, mod, prefix, in_class):
        for item in node.body:
            if isinstance(item, ast.ClassDef):
                if _is_dataclass(item):
                    for i, (name, defaulted) in enumerate(_init_fields(item)):
                        if defaulted:
                            params[f"{mod}.{prefix}{item.name}({name})"] = (((item.name, i), ("replace", None)), name)
                visit(item, mod, f"{prefix}{item.name}.", True)
            elif isinstance(item, ast.FunctionDef):
                qual = f"{mod}.{prefix}{item.name}"
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                offset = 1 if in_class and not static else 0
                callee = prefix.rstrip(".").rsplit(".", 1)[-1] if item.name == "__init__" else item.name
                a = item.args
                positional = [*a.posonlyargs, *a.args]
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    params[f"{qual}({arg.arg})"] = (((callee, i - offset),), arg.arg)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        params[f"{qual}({arg.arg})"] = (((callee, None),), arg.arg)
                visit(item, mod, f"{prefix}{item.name}.", False)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", False)
    return params


def _program_calls() -> dict[str, list[ast.Call]]:
    """Bare callee name -> every call to it in program code."""
    calls = {}
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(callee: str, call: ast.Call, index: int | None, param: str) -> bool:
    # an unpacked replace(obj, **kw) could be on any dataclass, so it excuses none
    unpacks = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
    if unpacks and callee != "replace":
        return True
    if any(k.arg == param for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_public_name_has_a_program_caller():
    refs = _references()
    unreferenced = sorted(q for q, name in _definitions().items() if name not in refs and q not in ALLOWED)
    assert unreferenced == []


def test_allowed_names_still_exist():
    # an allowance outliving its definition would hide nothing, but it rots
    assert ALLOWED <= set(_definitions())


def test_every_defaulted_parameter_has_a_program_caller():
    calls = _program_calls()
    unset = sorted(
        q
        for q, (ways, param) in _defaulted_params().items()
        if q not in ALLOWED_PARAMS
        and not any(_sets(callee, c, index, param) for callee, index in ways for c in calls.get(callee, ()))
    )
    assert unset == []


def test_allowed_params_still_exist():
    assert set(ALLOWED_PARAMS) <= set(_defaulted_params())


def _n_parameters() -> set[str]:
    """Each public function, method or dataclass field of the group modules that takes or is named ``N``."""
    found = set()

    def check(fn, qual):
        a = fn.args
        names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        if "N" in names:
            found.add(f"{qual}(N)")
        if fn.name == "N":
            found.add(qual)

    for mod in GROUP_MODULES:
        for node in ast.parse((PACKAGE / f"{mod}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                check(node, f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                if _is_dataclass(node) and any(name == "N" for name, _ in _init_fields(node)):
                    found.add(f"{mod}.{node.name}(N)")
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        check(item, f"{mod}.{node.name}.{item.name}")
    return found


def test_group_layer_takes_no_N():
    assert sorted(_n_parameters() - set(ALLOWED_N)) == []


def test_allowed_N_still_exist():
    assert set(ALLOWED_N) <= _n_parameters()


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
