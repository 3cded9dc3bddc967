"""Static checks over the package source."""

import ast
import builtins
import dataclasses
import importlib
from pathlib import Path

import pytest

import ts_groups
from ts_groups import groups, testers
from ts_groups.testers import SearchBudget, XiParams
from ts_groups.tours import SamplerConfig

SOURCES = sorted(Path(ts_groups.__file__).parent.glob("*.py"))

# names the package re-exports, by module stem
REEXPORTS = {}
for _node in ast.parse(Path(ts_groups.__file__).read_text()).body:
    if isinstance(_node, ast.ImportFrom) and _node.level == 1:
        REEXPORTS.setdefault(_node.module, []).extend(a.name for a in _node.names)


def _module(path):
    name = "ts_groups" if path.stem == "__init__" else f"ts_groups.{path.stem}"
    return importlib.import_module(name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_raised_exception_names_resolve(path):
    """Every `raise Name(...)` names something the module or builtins
    define; otherwise the branch dies with a NameError instead of the
    error's exit code."""
    module = _module(path)
    unresolved = [
        (node.lineno, node.exc.func.id)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and not hasattr(module, node.exc.func.id)
        and not hasattr(builtins, node.exc.func.id)
    ]
    assert unresolved == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exports_resolve(path):
    """Every `__all__` entry exists, and every name the package imports
    from the module is in its `__all__`; deleting an export then cannot
    leave a stale name behind."""
    module = _module(path)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert [n for n in REEXPORTS.get(path.stem, []) if n not in exported] == []


# testers.__all__ before the marker word and the long-product check moved
# out of it, by the module that now defines each name
TESTERS_EXPORTS = {
    "testers": ["PropertySpec", "SearchBudget", "Verdict", "test_property",
                "VarietyCertificate", "variety_counterexample", "burnside_pipeline",
                "PipelineReport"],
    "markers": ["XiParams", "XiReport", "construct_xi"],
    "products": ["verify_product_aperiodicity"],
}


def test_testers_exports_are_the_same_objects_everywhere():
    """Every name testers exported before the split is one object from
    its home module, from testers, and from the package for the names
    the package re-exports from testers."""
    assert sorted(testers.__all__) == sorted(sum(TESTERS_EXPORTS.values(), []))
    assert sorted(REEXPORTS["testers"]) == [
        "PropertySpec", "SearchBudget", "Verdict", "XiParams", "burnside_pipeline",
        "construct_xi", "test_property", "variety_counterexample",
        "verify_product_aperiodicity"]
    for home, names in TESTERS_EXPORTS.items():
        module = importlib.import_module(f"ts_groups.{home}")
        for name in names:
            assert getattr(testers, name) is getattr(module, name), name
            if name in REEXPORTS["testers"]:
                assert getattr(ts_groups, name) is getattr(module, name), name


def _names_used(path):
    """Every name, attribute and imported name that a file mentions."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


REPO = Path(__file__).resolve().parents[1]
# library API kept for the paper that no command, benchmark or acceptance
# criterion reaches: the result types that public functions return, and
# paper constructs that their own tests check
KEPT_API = {
    "ClosedPath", "ClusterTree", "ClusterVertex", "ExperimentReport", "FolnerReport",
    "LPrimeResult", "LabeledTree", "Occurrence", "Piece", "PieceDecomposition",
    "PipelineReport", "PowerWitness", "TreeForest", "VarietyCertificate", "Verdict",
    "VerificationReport", "XiReport",
    "decompose_pieces", "greedy_ray_adversary", "greedy_tree_adversary", "k_boundary",
    "max_power_order", "reduce", "shift_right", "xi_boundary",
}


def test_exports_have_a_caller():
    """Every `__all__` name is used by another module of the package, by
    the benchmark or by the acceptance suite, or is kept on purpose in
    KEPT_API; an export that only its own tests call is dead API."""
    outside = set().union(*map(_names_used, sorted((REPO / "perfbench").glob("*.py"))),
                          _names_used(REPO / "tests" / "test_acceptance.py"))
    used_in = {path: _names_used(path) for path in SOURCES if path.stem != "__init__"}
    exported, unused = set(), []
    for path in used_in:
        for name in getattr(_module(path), "__all__", []):
            exported.add(name)
            if name not in outside and name not in KEPT_API and not any(
                    name in names for other, names in used_in.items() if other != path):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
    assert sorted(KEPT_API - exported) == []


BUDGET_FIELDS = [
    pytest.param(f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (SearchBudget, SamplerConfig, XiParams)
    for f in dataclasses.fields(cls)
]


ATTRIBUTES_READ = {
    node.attr
    for path in SOURCES
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
}


@pytest.mark.parametrize("field", BUDGET_FIELDS)
def test_budget_fields_are_read(field):
    """Every field of a configuration or budget class is read somewhere
    in the package; a field nothing reads is a setting that does
    nothing."""
    assert field in ATTRIBUTES_READ


_MUTATORS = {"append", "extend", "add", "update", "insert"}


def _unread_locals(path):
    """(function, name) for every name a function (or a function nested
    in it) assigns but no code in the function reads; names starting
    with '_' and names declared global or nonlocal are exempt.  Being
    the receiver of `append`, `extend`, `add`, `update` or `insert` is
    not a read: a local that is only ever grown is dead work."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        receivers = {
            id(node.func.value) for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name)
        }
        stored, loaded, declared = set(), set(), set()
        for node in ast.walk(fn):
            if id(node) in receivers:
                continue
            if isinstance(node, ast.Name):
                (stored if isinstance(node.ctx, ast.Store) else loaded).add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        out.extend((fn.name, name) for name in sorted(stored - loaded - declared)
                   if not name.startswith("_"))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_locals_are_read(path):
    """Every local a function assigns is read; an unread local is dead
    work or a value that was meant to be used."""
    assert _unread_locals(path) == []


SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_SPANS = next(ast.literal_eval(node.value) for node in ast.parse(SPANS_PY.read_text()).body
              if isinstance(node, ast.Assign) and node.targets[0].id == "SPANS")
# the targets spans.py hooks outside its SPANS table
_HOOKS = [("ts_groups.groups", "F2xZOracle.geodesic_steps"),
          ("ts_groups.sequences", "InadmissibleEngine.observe"),
          ("ts_groups.trees", "enumerate_simple_paths")]


@pytest.mark.parametrize("module, attr", [(m, a) for _, m, a in _SPANS] + _HOOKS,
                         ids=lambda x: x)
def test_benchmark_trace_targets_resolve(module, attr):
    """Every function the benchmark's tracer wraps still exists; a
    renamed one would break only the traced benchmark run."""
    mod = importlib.import_module(module)
    owner, _, name = attr.rpartition(".")
    if owner == "*":
        owners = [c for c in vars(mod).values()
                  if isinstance(c, type) and c.__module__ == module]
    else:
        owners = [getattr(mod, owner)] if owner else [mod]
    assert any(name in vars(o) for o in owners)


TEST_GROUPS_PY = Path(__file__).resolve().parent / "test_groups.py"
_BASE_METHOD_GROUPS = next(
    ast.literal_eval(node.value) for node in ast.parse(TEST_GROUPS_PY.read_text()).body
    if isinstance(node, ast.Assign) and node.targets[0].id == "BASE_METHOD_GROUPS")


def test_oracle_overrides_are_cross_checked():
    """Every oracle class that overrides `geodesic_points` or `distance`
    builds an oracle in the list that test_groups checks against the
    base methods; an override left out of it has no reference."""
    overriding = {c for c in vars(groups).values()
                  if isinstance(c, type) and issubclass(c, groups.GroupOracle)
                  and c is not groups.GroupOracle
                  and {"geodesic_points", "distance"} & set(vars(c))}
    checked = {type(groups.make_oracle(d)) for d in _BASE_METHOD_GROUPS}
    assert sorted(c.__name__ for c in overriding - checked) == []


PACKAGE = Path(ts_groups.__file__).parent
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _module_patches(source):
    """(line, module, name) for every `mock.patch.object(m, "name", ...)`
    and `monkeypatch.setattr(m, "name", ...)` whose m is a ts_groups
    module, and every `mock.patch("ts_groups.m.name", ...)`."""
    tree = ast.parse(source)
    modules = {
        a.asname or a.name: f"ts_groups.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "ts_groups"
        for a in node.names if (PACKAGE / f"{a.name}.py").exists()
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        call, target = ast.unparse(node.func), node.args[0]
        if (call in ("mock.patch.object", "monkeypatch.setattr") and len(node.args) > 1
                and isinstance(target, ast.Name) and target.id in modules
                and isinstance(node.args[1], ast.Constant)):
            out.append((node.lineno, modules[target.id], node.args[1].value))
        elif (call == "mock.patch" and isinstance(target, ast.Constant)
                and str(target.value).startswith("ts_groups.")):
            out.append((node.lineno, *target.value.rsplit(".", 1)))
    return out


def _globals_read(module):
    """The module-level names that a module's own code loads."""
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return bound & {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unread(patches):
    return [p for p in patches if p[-1] not in _globals_read(p[-2])]


def test_module_patches_name_globals_the_module_reads():
    """A test that patches a module's global sees only the lookups that
    module's code makes; a patch on a name the module no longer reads,
    say after a function moved to another module, silently checks
    nothing."""
    patches = [(path.name, *p) for path in TEST_FILES for p in _module_patches(path.read_text())]
    assert patches
    assert _unread(patches) == []
    moved = 'from ts_groups import testers\nmock.patch.object(testers, "_first_power", None)\n'
    assert _unread(_module_patches(moved)) == [(2, "ts_groups.testers", "_first_power")]
