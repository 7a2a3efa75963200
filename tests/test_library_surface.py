"""The library holds what runs.

Reference definitions that only tests read live in ``reference.py``; the
names the benchmark harness reads stay in the library; and the behaviour
shared by every fixed-size tester is written once.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

from conftest import build_analyzed, build_dfa

import regwin
from regwin import cli, testers_rand
from regwin.analysis import SccDecomposition
from regwin.testers_det import PathSummaryTester, SlidingWindowTester
from regwin.testers_rand import OneSidedTester, TwoSidedTester, compile_one_sided, two_sided_tester

ROOT = Path(__file__).resolve().parent.parent
BENCH_MODULES = ("analysis", "automata", "cli", "oracle", "streams", "testers_det", "testers_rand")

# names that moved to reference.py or were deleted as wrappers over what callers already hold
GONE = (
    "PathSummary",
    "path_summary_of",
    "SummaryTriple",
    "CompactSummary",
    "prolong_compact_summary",
    "ThresholdCounter",
    "_UnitStep",
    "cut_language",
    "WindowBuffer",
    "hamming_distance",
    "exhaustive_accepting_run",
    "check_t_simulation",
    "_reachable_layers",
    "_run_length_guard",
    "_accepts_some_word_of_length",
    "union_tester",
    "scc_period",
    "_final_window",
)
GONE_MEMBERS = (
    (SlidingWindowTester, "feed_all"),
    (PathSummaryTester, "summaries"),
    (TwoSidedTester, "summaries"),
    (SccDecomposition, "reach"),
    (SccDecomposition, "order_less"),
    (OneSidedTester, "on"),
    (OneSidedTester, "_begin"),
)


def _library_modules() -> list:
    return [regwin] + [importlib.import_module(f"regwin.{info.name}") for info in pkgutil.iter_modules(regwin.__path__)]


def test_moved_and_deleted_names_are_gone_from_the_library():
    left = [f"{module.__name__}.{name}" for module in _library_modules() for name in GONE if hasattr(module, name)]
    left += [f"{cls.__name__}.{name}" for cls, name in GONE_MEMBERS if hasattr(cls, name)]
    left += [f"SccDecomposition field {f.name}" for f in dataclasses.fields(SccDecomposition) if f.name == "reach"]
    assert left == []


def _resolve(node: ast.expr, modules: dict[str, object]):
    """The regwin module an expression names (``analysis``,
    ``regwin.testers_rand``), or None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        inner = getattr(_resolve(node.value, modules), node.attr, None)
        return inner if isinstance(inner, types.ModuleType) and inner.__name__.startswith("regwin.") else None
    return None


def _benchmark_reads(path: Path) -> list[tuple[str, object, str]]:
    """Every (where, regwin module, attribute) a benchmark source reads:
    imported names, ``module.attr`` reads, and the ``(module, "attr", ...)``
    tuples the harness resolves with ``getattr``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    wanted = {"regwin", *(f"regwin.{name}" for name in BENCH_MODULES)}
    modules: dict[str, object] = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({alias.asname or alias.name: regwin for alias in node.names if alias.name == "regwin"})
        elif isinstance(node, ast.ImportFrom) and node.module in wanted and not node.level:
            source = importlib.import_module(node.module)
            for alias in node.names:
                reads.append((f"{path.name}:{node.lineno}", source, alias.name))
                if node.module == "regwin" and alias.name in BENCH_MODULES:
                    modules[alias.asname or alias.name] = importlib.import_module(f"regwin.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (module := _resolve(node.value, modules)) is not None:
            reads.append((f"{path.name}:{node.lineno}", module, node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            head, name = node.elts[:2]
            module = _resolve(head, modules)
            if module is not None and isinstance(name, ast.Constant) and isinstance(name.value, str):
                reads.append((f"{path.name}:{node.lineno}", module, name.value))
    return reads


def test_every_library_name_the_benchmark_reads_exists():
    reads = [read for path in sorted((ROOT / "perfbench").glob("*.py")) for read in _benchmark_reads(path)]
    assert {module.__name__ for _where, module, _name in reads} >= {"regwin.testers_rand", "regwin.analysis"}
    missing = [f"{where}: {module.__name__}.{name}" for where, module, name in reads if not hasattr(module, name)]
    assert missing == []


def test_the_cli_builds_testers_from_the_library_language():
    """Every tester kind is built from one library ``Language``; the cli
    binds the same objects, so the benchmark's wrapping of
    ``cli.build_tester_factory`` wraps what ``run_experiment`` calls."""
    assert cli.Language is regwin.Language is testers_rand.Language
    assert cli.build_tester_factory is testers_rand.build_tester_factory
    assert list(inspect.signature(compile_one_sided).parameters) == ["dfa", "window_size", "prime"]


def test_compiled_one_sided_tester_exposes_the_fields_the_benchmark_reads():
    """The benchmark's ``describe`` and the stream check of the effective
    testers read ``OneSidedTester._parts``; ba* at n = 64 is one
    fingerprinted partial machine and no exact one."""
    tester = compile_one_sided(build_dfa("ba*"), 64)(0)
    assert isinstance(tester, OneSidedTester)
    assert len(tester._parts) == 1
    assert len(tester._exact) == 0


def test_skeleton_testers_hold_nodes_not_ids():
    """A skeleton tester's state is its current node and counts: no table
    of ids, skeletons, slots or decide records beside the nodes."""
    analyzed = build_analyzed("(aa)*|b(aa)*b")
    for tester in (PathSummaryTester(analyzed, 64), two_sided_tester(analyzed, 64, 0.25, rng=0)):
        assert isinstance(tester, (PathSummaryTester, TwoSidedTester))
        left = [name for name in ("_ids", "_skeletons", "_slots", "_decisions", "_skeleton") if hasattr(tester, name)]
        assert left == []
        assert tester._nodes[tester._node.skeleton, tester._node.classes] is tester._node


def test_fixed_size_testers_share_one_feed_run():
    """``feed_run`` of a tester whose size never changes is written once, in
    the base every such tester subclasses."""
    classes = {
        node.name: node
        for module in ("testers_det.py", "testers_rand.py")
        for node in ast.parse((ROOT / "src" / "regwin" / module).read_text("utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    defines = {name for name, node in classes.items() if any(getattr(f, "name", None) == "feed_run" for f in node.body)}
    fixed = ("ExactWindowTester", "FixedVerdictTester", "OneSidedTester", "UnionTester")
    assert defines == {"SlidingWindowTester", "FixedSizeTester", "PathSummaryTester", "TwoSidedTester"}
    for name in fixed:
        assert [ast.unparse(base) for base in classes[name].bases] == ["FixedSizeTester"], name
