"""Every name a module imports is read somewhere in it, every private
helper is read somewhere in the package, every parameter is read in its
function, and every public name is read by the program.

A stand-in for a linter's unused-import, unused-code and unused-argument
checks, built on ``ast``.  Each module under src/invsemi, scripts and
tests must read every name bound by an import as a name (an attribute
base counts) or inside a quoted annotation.  Every module-level function
or class whose name starts with ``_`` must be read, the same way or as
an attribute, in some module of the package, so a refactor cannot leave
one orphaned.  Every parameter of a function or lambda in src/invsemi or
scripts, apart from ``self`` and ``cls``, must be read as a name in its
body, so no caller passes a value nothing uses.  Every public
module-level function or class, and every public method or property of
a public class, must be read by the program (src, scripts or perfbench)
and not only by its own tests, apart from a short list of names kept
for a stated reason.  The package root re-exports nothing, so a name
the program imports is imported from its own module, for its own use.  A
method name that two public classes define, or that a builtin type such
as ``set`` or ``str`` has, is shared: a read of it cannot say whose
method it is, so it counts for no class, and a table names the classes
whose method the program reads, each with one reading site.

Every import in src/invsemi sits at the top of its module, apart from
a listed few that keep the layering below.  The import layering is
checked in fresh interpreters: the package root loads no submodule, and
the symbolic layer, from descriptors up to topology, loads no numpy.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invsemi"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree: ast.Module) -> set[str]:
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for note in annotations(tree):
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES + SCRIPTS + TESTS, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - read_names(tree)) == []


def private_definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    }


def package_reads() -> set[str]:
    names = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= read_names(tree)
        names.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(private_definitions(tree) - package_reads()) == []


def unread_parameters(tree: ast.Module) -> list[str]:
    """`function(parameter)` for each parameter its body never reads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        reads = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", f"<lambda at line {node.lineno}>")
        out += [f"{name}({p})" for p in params if p not in reads and p not in ("self", "cls")]
    return out


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unread_parameters(tree) == []


PROGRAM = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# Public names that no program code reads, each kept for a reason.
UNREAD_BY_THE_PROGRAM = {
    # the list of maps behind `closure_of`'s rows, which the tests
    # compare with the dict-based references
    "ClosureResult.elements",
    # windowed references for `sym_compose` and `sym_inverse`
    "PartialBijection.compose",
    "PartialBijection.inverse",
    # perfbench's tracer names them in strings; they go with the
    # closedness check's rework (ROADMAP item 1)
    "rows_closed_under_ops",
    "SetDescriptor.union",
    # the convergence and bounded-union isolation checks, which
    # `verify isolation` is to report (ROADMAP item 4)
    "check_convergence",
    "verify_family_certificate",
    # a collection's four closure laws, for the S(C) rows of the paper
    # table (ROADMAP item 19)
    "check_collection_laws",
}


def program_reads() -> tuple[set[str], set[str]]:
    """(names read or `from`-imported, attributes taken) anywhere in the
    program."""
    names, attributes = set(), set()
    for path in (p for tree in PROGRAM for p in tree.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
    return names, attributes


def public_definitions(tree: ast.Module) -> list[str]:
    """Each public module-level function and class, and each public
    method or property of a public class, as `name` or `Class.name`."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    return out


# Builtin types whose attributes the program reads as often as its own:
# a method named like one of theirs is shared with them.
BUILTIN_TYPES = (set, frozenset, dict, list, tuple, str, int, np.ndarray)

# A method name is shared when two public classes define it or a
# builtin type has it, so a read of `.name` cannot say whose method it
# is and counts for no class.  Per shared name, the classes whose method
# the program reads, each with one reading site.
SHARED_READS = {
    "contains": {
        "CollectionModel",  # constrained.in_constrained: model.contains(dom_set(f))
        "IdealModel",  # constrained.CollectionModel.contains: self.ideal.contains(d)
    },
    "contains_all_finite": {
        "CollectionModel",  # constrained.check_collection_laws: model.contains_all_finite
        "IdealModel",  # constrained.CollectionModel.contains_all_finite
    },
    "describe": {
        "BasicOpen",  # cli.cmd_verify_pettis_witness: chk.certificate.describe()
        "IdealModel",  # cli.cmd_verify_ideal_witness: extended.describe()
    },
    "difference": {
        "SetDescriptor",  # families._chain_factors: block.difference(nxt)
    },
    "element": {  # topology._spot_check: schema.element(n0 + off)
        "BlockIdentitySeq",
        "GroupNeighborSeq",
        "GrowingExtensionSeq",
        "SingletonIdentitySeq",
    },
    "empty": {
        "SetDescriptor",  # descriptors.SetDescriptor.from_text: cls.empty()
    },
    "eventual": {  # topology.check_convergence: schema.eventual(x)
        "BlockIdentitySeq",
        "GroupNeighborSeq",
        "GrowingExtensionSeq",
        "SingletonIdentitySeq",
    },
    "from_config": {
        "BlockFamily",  # cli._load_family: BlockFamily.from_config(...)
        "SetDescriptor",  # families.BlockFamily.from_config
    },
    "member": {
        "BlockRule",  # topology.low_rank_open_members: rule.member(g)
        "SetDescriptor",  # families.stratum_options: bi.member(x)
    },
    "size": {
        "ClosureResult",  # cli.cmd_closure_run: result.size()
        "DClass",  # closure.check_closure_bound: c.size()
    },
    "to_config": {
        "BlockFamily",  # perfbench/workloads._violating_configs: fam.to_config()
        "SetDescriptor",  # families.BlockFamily.to_config
    },
}


def shared_names(methods: list[str]) -> set[str]:
    """Names of the `Class.name` methods that are shared."""
    owners = Counter(method.rpartition(".")[2] for method in methods)
    builtin = {a for t in BUILTIN_TYPES for a in dir(t)}
    return {m for m, n in owners.items() if n > 1 or m in builtin}


def test_every_public_definition_has_a_program_reader():
    # a module-level name is read as a name, an attribute or an import;
    # a method or property only as an attribute, or through
    # SHARED_READS when its name is shared
    names, attributes = program_reads()
    definitions = [
        name
        for path in MODULES
        for name in public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    methods = [name for name in definitions if "." in name]
    shared = shared_names(methods)
    unread = set()
    for name in definitions:
        owner, _, member = name.rpartition(".")
        if owner and member in shared:
            read = owner in SHARED_READS.get(member, ())
        else:
            read = member in (attributes if owner else names | attributes)
        if not read:
            unread.add(name)
    assert sorted(unread) == sorted(UNREAD_BY_THE_PROGRAM)
    stale = [
        f"{owner}.{member}"
        for member, owners in SHARED_READS.items()
        for owner in owners
        if f"{owner}.{member}" not in methods
    ]
    assert stale == []


def function_level_imports(tree: ast.Module) -> list[str]:
    """`function: module` for each import inside a function body."""
    out = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and owner is not None:
                if isinstance(child, ast.ImportFrom):
                    modules = ["." * child.level + (child.module or "")]
                else:
                    modules = [a.name for a in child.names]
                out.extend(f"{owner}: {m}" for m in modules)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


# Function-level imports in src/invsemi, each kept for a reason.
LAZY_IMPORTS = [
    # the closure engine loads numpy, and `import invsemi.catalog` must
    # not (test_the_symbolic_layer_loads_no_numpy[catalog])
    "catalog.random_uniform_family: .closure",
]


def test_imports_sit_at_the_top_of_their_module():
    found = [
        f"{path.stem}.{entry}"
        for path in MODULES
        for entry in function_level_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(found) == sorted(LAZY_IMPORTS)


def modules_loaded_by(statement: str) -> set[str]:
    """The names in `sys.modules` after `statement` runs in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return set(out.stdout.split())


def test_the_package_root_loads_no_submodule():
    loaded = modules_loaded_by("import invsemi")
    assert sorted(m for m in loaded if m.startswith("invsemi.")) == []


@pytest.mark.parametrize(
    "module", ["descriptors", "pbij", "symbolic", "families", "catalog", "topology"]
)
def test_the_symbolic_layer_loads_no_numpy(module):
    assert "numpy" not in modules_loaded_by(f"import invsemi.{module}")
