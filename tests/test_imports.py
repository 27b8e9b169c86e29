"""Every module-level import under ``src/hodge_residue/`` and ``tests/`` is used,
every private module-level name of the package has a caller in it, and every
public function or class of the package is reached by more than the tests.

An import counts as used when its bound name appears as a name anywhere in
the module, including inside quoted annotations.  The package's
``__init__.py`` exists to re-export names, so it is exempt.  A private
(``_``-prefixed) function, class or constant counts as called when some
module of the package reads it by name; a test's use does not count, so a
helper only tests use lives in the tests.  A public top-level function or
class is reached when ``__all__`` lists it or when a module of the package or
a file under ``bench/`` reads it.  No package module reads a private
attribute (``X._name``) of a name it imports from another package module, so
each class keeps its internals to its own module.  The package builds a ``random.Random`` in one function
only, ``residue._trial_loop``, so every randomized check draws its inputs
on one path.  A kernel's ratio is decided in one place, the table compile
``residue._table``, the only caller of ``_ratio``, and read from the table's
``kappa`` there and in ``_trace`` only.  The order-type table is the
package's one kernel type: no module defines or imports a per-n
``TraceKernel``, ``_compile``, ``_compile_slots`` or ``_placement_weight``,
and only ``residue._table`` folds lift blades into
letter paths (``forms._lift`` also reads the blades, to build the operator).
Each argument has one rule: only ``residue._symbol_order`` compares a symbol
order ``m`` with a bound, and only ``residue._check_trials`` a trial count
(the command line's cap ``MAX_TRIALS`` aside).  ``lru_cache`` decorates
exactly the memos the bench keeps, and no module defines the removed
``BoundaryArgs``, ``_grade_weights`` or ``_identical``.  Every sign is
tabulated: ``LemmaSpec`` has no ``sign_policy``, ``_trial_loop`` no
``magnitude`` and no module names a ``"-psi2"`` unit.
Only ``scalars.py`` reads the slots of a ``GaussianRational``'s integer
triple; every other module of the package, ``bench/`` and ``tests/`` reads
the public ``triple`` (or ``re``/``im``).  No line of the package is longer
than 120 characters.
"""

import ast
import inspect
from functools import lru_cache
from pathlib import Path

import pytest

from hodge_residue.residue import LemmaSpec, _trial_loop

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hodge_residue"
BENCH = TESTS.parent / "bench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _quoted_names(tree: ast.Module):
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                yield from (n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))


def _used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_quoted_names(tree))


def test_package_modules_are_found():
    assert {p.name for p in MODULES} >= {"exterior.py", "residue.py", "symbols.py"}
    assert {p.name for p in TEST_MODULES} >= {"conftest.py", "test_imports.py"}


def _module_id(path: Path) -> str:
    return path.name if path.parent == PACKAGE else f"tests/{path.name}"


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=_module_id)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {sorted(unused.items(), key=lambda kv: kv[1])}"


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))


def _read_names(tree: ast.Module) -> set:
    """Names the module reads: loaded names, attributes and quoted annotations."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read | set(_quoted_names(tree))


@lru_cache(maxsize=None)
def _read_in(path: Path) -> frozenset:
    return frozenset(_read_names(ast.parse(path.read_text(encoding="utf-8"))))


PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=_module_id)
def test_private_names_have_a_package_caller(path):
    read = set().union(*map(_read_in, PACKAGE_MODULES))
    private = _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = [(name, line) for name, line in private if name not in read]
    assert not uncalled, f"{path.name}: private names no package module reads {uncalled}"


def _imported_from_package(tree: ast.Module) -> set:
    """Names bound by a relative import: ``from .module import Name`` or
    ``from . import module``."""
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=_module_id)
def test_no_private_attribute_of_an_imported_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _imported_from_package(tree)
    reads = sorted(
        (node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported
        and node.attr.startswith("_") and not node.attr.startswith("__")
    )
    assert not reads, f"{path.name}: private attributes of names imported from the package {reads}"


def _listed_in_all() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    [listed] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    ]
    return [ast.literal_eval(element) for element in listed.elts]


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_public_names_are_reached_by_more_than_the_tests(path):
    reached = set(_listed_in_all()).union(*map(_read_in, PACKAGE_MODULES + sorted(BENCH.rglob("*.py"))))
    unreached = [
        (node.name, node.lineno) for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in reached
    ]
    assert not unreached, f"{path.name}: public names only the tests reach {unreached}"


def test_all_lists_exactly_the_reexported_names():
    """``from hodge_residue import *`` gives every name ``__init__.py``
    imports from the package's modules, and nothing else."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = _listed_in_all()
    assert len(exported) == len(set(exported))
    assert set(exported) == set(_imported_names(tree))


def _call_sites(callee: str, tree: ast.AST, function: str = "<module>"):
    """The innermost function around each ``module.callee(...)`` or
    ``callee(...)`` call under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == callee:
            yield function
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _call_sites(callee, node, inner)


def _package_call_sites(callee: str) -> list:
    return [
        (path.name, function) for path in PACKAGE_MODULES
        for function in _call_sites(callee, ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_random_streams_are_built_in_the_trial_loop_only():
    assert _package_call_sites("Random") == [("residue.py", "_trial_loop")]


def _attribute_reads(attribute: str, tree: ast.AST, function: str = "<module>"):
    """The innermost function around each ``x.attribute`` read under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Attribute) and node.attr == attribute and isinstance(node.ctx, ast.Load):
            yield function
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _attribute_reads(attribute, node, inner)


def test_kernel_ratio_is_read_in_the_trial_loop_and_the_trace_only():
    # each shape's table decides kappa once, as it compiles; checks read it in
    # their trial loop, densities in the one trace
    assert _package_call_sites("_ratio") == [("residue.py", "_table")]
    reads = {(path.name, function) for path in PACKAGE_MODULES
             for function in _attribute_reads("kappa", ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(reads) == [("residue.py", "_trace"), ("residue.py", "_trial_loop")]


PER_N_KERNEL_NAMES = {"TraceKernel", "_compile", "_compile_slots", "_placement_weight"}


def _bound_names(tree: ast.Module) -> set:
    """Every name a module binds at its top level: definitions, assignments
    and imports."""
    bound = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return bound


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=_module_id)
def test_no_per_n_kernel_type_is_defined_or_reexported(path):
    named = (_bound_names(ast.parse(path.read_text(encoding="utf-8"))) | _read_in(path)) & PER_N_KERNEL_NAMES
    assert not named, f"{path.name}: defines, imports or reads {sorted(named)}"


def test_lift_blades_and_letter_paths_meet_in_the_table_compile_only():
    # forms._lift reads a lift's blades to build the whole operator, not a kernel
    assert _package_call_sites("_letter_paths") == [("residue.py", "_table")]
    assert sorted(_package_call_sites("_term_blades")) == [("forms.py", "_lift"), ("residue.py", "_table")]


def test_no_package_line_is_longer_than_120_characters():
    long_lines = [
        f"{path.name}:{number}" for path in PACKAGE_MODULES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 120
    ]
    assert not long_lines


def _triple_slots() -> set:
    """The ``__slots__`` of ``scalars.GaussianRational``."""
    tree = ast.parse((PACKAGE / "scalars.py").read_text(encoding="utf-8"))
    [slots] = [
        statement.value for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "GaussianRational"
        for statement in node.body
        if isinstance(statement, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in statement.targets)
    ]
    return set(ast.literal_eval(slots))


READERS_OF_THE_TRIPLE = (
    [p for p in PACKAGE_MODULES if p.name != "scalars.py"] + sorted(BENCH.rglob("*.py")) + TEST_MODULES
)


@pytest.mark.parametrize("path", READERS_OF_THE_TRIPLE, ids=lambda path: str(path.relative_to(TESTS.parent)))
def test_gaussian_triple_slots_are_read_in_scalars_only(path):
    slots = _triple_slots()
    assert len(slots) == 3
    reads = sorted(
        (node.lineno, node.attr) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in slots
    )
    assert not reads, f"{path.name}: reads of GaussianRational's slots outside scalars.py {reads}"


ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _bound_comparisons(name: str, tree: ast.AST, function: str = "<module>"):
    """``(function, bounds)`` for each ``<``, ``<=``, ``>`` or ``>=`` under
    ``tree`` with the bare name ``name`` as an operand: the innermost function
    around it and the source of its other operands."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, ORDERINGS) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(isinstance(operand, ast.Name) and operand.id == name for operand in operands):
                yield function, tuple(ast.unparse(o) for o in operands if getattr(o, "id", None) != name)
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _bound_comparisons(name, node, inner)


def _package_bound_comparisons(name: str) -> list:
    return sorted(
        (path.name, *site) for path in PACKAGE_MODULES
        for site in _bound_comparisons(name, ast.parse(path.read_text(encoding="utf-8")))
    )


def test_symbol_order_is_bounded_by_one_rule():
    # m's upper bound is the one that keeps n = 2m within MAX_DIMENSION
    assert _package_bound_comparisons("m") == [
        ("residue.py", "_symbol_order", ("2",)), ("residue.py", "_symbol_order", ("MAX_DIMENSION // 2",)),
    ]


def test_trial_count_is_bounded_by_one_rule():
    # the command line's cap bounds a run's time, not a check's input
    assert _package_bound_comparisons("trials") == [
        ("cli.py", "cmd_verify", ("MAX_TRIALS",)), ("residue.py", "_check_trials", ("1",)),
    ]


def _memoized(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) in ("lru_cache", "cache"):
                    yield node.name


def test_lru_cache_decorates_the_kept_memos_only():
    # each memo earns its lines on the bench; a new one needs its reason here:
    # _contraction builds a four_mixed contraction once per (shape, n), not per
    # check, and _type_mismatches evaluates a commutator order type once, at
    # its representative n, for every n a run checks
    memoized = sorted(name for path in PACKAGE_MODULES for name in _memoized(ast.parse(path.read_text("utf-8"))))
    assert memoized == ["_contraction", "_minor_plan", "_orderings", "_residue_weight", "_table", "_type_mismatches"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=_module_id)
def test_no_removed_argument_wrapper_or_weight_table(path):
    named = _bound_names(ast.parse(path.read_text(encoding="utf-8"))) & {"BoundaryArgs", "_grade_weights", "_identical"}
    assert not named, f"{path.name}: defines or imports {sorted(named)}"


def test_signs_are_tabulated_not_chosen_by_a_run():
    # a check's sign is its LemmaSpec ratio: no field picks a policy, no trial
    # loop flag flips an expected side, and no unit kind is a negated one
    assert "sign_policy" not in LemmaSpec._fields
    assert "magnitude" not in inspect.signature(_trial_loop).parameters
    assert not [path.name for path in PACKAGE_MODULES if '"-psi2"' in path.read_text(encoding="utf-8")]
