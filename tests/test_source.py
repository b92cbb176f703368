"""Source hygiene of src/dpris, read with the stdlib ``ast``: every import is
used, every module-level private name has a reader somewhere in src/, every
dataclass field has a reader somewhere in src/, tests/ or benchmark/, every
public method or property of a src/ class has a reader outside its class in
src/ or in benchmark/, and the API benchmark/ replays exists: every name it
imports from dpris, every ``engine.<attr>`` it reads, and every keyword it
passes to a dpris record."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from dpris.campaign import CampaignResult, LinkEngine
from dpris.config import CampaignConfig
from dpris.model import ChannelSet
from dpris.modulation import TmSymbolParams
from dpris.receiver import BerRecord

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dpris"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
BENCHMARK = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / "benchmark").glob("*.py"))}
PRIVATE = re.compile(r"_(?!_)")  # _x, but not a dunder


def _read_names(tree) -> set[str]:
    """The names a module reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imports(tree):
    """(bound name, line) of every import but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _module_level_names(tree):
    """(name, line) of every function, class and assigned name at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    read = _read_names(tree)
    unused = [f"{module}:{line} {name}" for name, line in _imports(tree) if name not in read]
    assert not unused, f"unused imports: {unused}"


def test_every_private_module_name_is_read_in_src():
    read = set().union(*(_read_names(tree) for tree in TREES.values()))
    unread = [
        f"{module}:{line} {name}"
        for module, tree in TREES.items()
        for name, line in _module_level_names(tree)
        if PRIVATE.match(name) and name not in read
    ]
    assert not unread, f"private names nothing in src/ reads: {unread}"


def _attribute_loads(node, skip=None) -> set[str]:
    """The attribute names loaded anywhere under ``node``, but not under ``skip``."""
    loads, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return loads


def test_every_public_class_member_is_read_outside_its_class():
    # A public method only tests call is API that nothing runs: it either
    # goes, or becomes a private helper of what does use it.
    benchmark_reads = set().union(*(_attribute_loads(tree) for tree in BENCHMARK.values()))
    unread = []
    for module, tree in TREES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            read = benchmark_reads.union(*(_attribute_loads(other, skip=cls) for other in TREES.values()))
            unread += [
                f"{module}:{node.lineno} {cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
                and node.name not in read
            ]
    assert not unread, f"public class members nothing outside their class in src/ or benchmark/ reads: {unread}"


def _dataclass_fields(tree):
    """(class, field, line) of every annotated field of a ``@dataclass`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            ast.unparse(getattr(d, "func", d)).endswith("dataclass") for d in node.decorator_list
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id, stmt.lineno


def _field_reads(tree) -> set[str]:
    """Attribute names a module loads, and its string constants: config's
    loops read fields by name through ``getattr``."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def test_every_dataclass_field_is_read():
    readers = [path for top in ("src", "tests", "benchmark") for path in sorted((ROOT / top).rglob("*.py"))]
    read = set().union(*(_field_reads(ast.parse(path.read_text(), str(path))) for path in readers))
    unread = [
        f"{module}:{line} {cls}.{name}"
        for module, tree in TREES.items()
        for cls, name, line in _dataclass_fields(tree)
        if name not in read
    ]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def _bound_names(tree) -> set[str]:
    """The names a module binds at module level: definitions, assignments and imports."""
    names = {name for name, _ in _module_level_names(tree)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def test_every_name_benchmark_imports_from_dpris_exists():
    # The benchmark imports its replay unconditionally, so a src/ deletion
    # that breaks one of these imports breaks every workload.
    bound = {module: _bound_names(tree) for module, tree in TREES.items()}
    missing = []
    for name, tree in BENCHMARK.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "dpris":
                names = bound.get(f"{node.module.partition('.')[2] or '__init__'}.py", set())
                missing += [f"{name}:{node.lineno} {node.module}.{a.name}" for a in node.names if a.name not in names]
    assert not missing, f"benchmark imports names dpris does not define: {missing}"


@pytest.mark.parametrize(
    "config",
    [CampaignConfig(), CampaignConfig(fidelity="B", coupling=True, stream_relation="identical")],
    ids=["fidelity-a", "coupled-identical-b"],
)
def test_every_engine_attribute_benchmark_reads_exists(config):
    # The replay reads LinkEngine by attribute, so a src/ deletion that breaks
    # one fails here and not only in the traced benchmark run.
    reads = {
        (f"{name}:{node.lineno}", node.attr)
        for name, tree in BENCHMARK.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "engine"
    }
    assert reads
    engine = LinkEngine(config)
    missing = sorted(f"{where} engine.{attr}" for where, attr in reads if not hasattr(engine, attr))
    assert not missing, f"benchmark reads engine attributes LinkEngine lacks: {missing}"


def _callee(call: ast.Call):
    """The name a call's function goes by: ``f`` of ``f(...)`` and of ``module.f(...)``."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_every_keyword_benchmark_passes_to_a_dpris_record_names_a_field():
    records = {cls.__name__: cls for cls in (CampaignResult, BerRecord, ChannelSet, TmSymbolParams)}
    calls = [
        (f"{name}:{node.lineno}", records[_callee(node)], node)
        for name, tree in BENCHMARK.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) in records
    ]
    assert {cls for _, cls, _ in calls} == set(records.values())
    unknown = [
        f"{where} {cls.__name__}({kw.arg}=...)"
        for where, cls, node in calls
        for kw in node.keywords
        if kw.arg not in {field.name for field in dataclasses.fields(cls)}
    ]
    assert not unknown, f"benchmark passes keywords that name no field: {unknown}"
