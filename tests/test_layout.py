"""Package layout: no top-level name in ``src/pooltrial`` exists only for tests.

A function or class that nothing in the package or the benchmark uses belongs
in ``tests/oracles.py`` (or nowhere), not in the package, and a module-level
constant that nothing reads is dead.
"""

import ast
import functools
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pooltrial").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "benchmarks").glob("*.py"))


@functools.cache
def _name_tokens(path):
    """(name, line) of every identifier token of a file; strings and comments skipped."""
    source = path.read_text()
    return [
        (tok.string, tok.start[0])
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NAME
    ]


def _definitions():
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node


def _constants():
    """(path, node, name) of each name a top-level assignment binds; dunders exempt."""
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t)):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield pytest.param(path, node, name.id, id=f"{path.name}-{name.id}")


def _used_outside(name, path, first, last):
    """Whether ``name`` occurs in src/ or benchmarks/ outside lines first..last of path."""
    return any(
        token == name and not (user == path and first <= line <= last)
        for user in USERS
        for token, line in _name_tokens(user)
    )


@pytest.mark.parametrize(
    "path, node",
    list(_definitions()),
    ids=lambda v: v.name,  # file name, then definition name
)
def test_top_level_definition_has_a_user(path, node):
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    assert _used_outside(node.name, path, first, node.end_lineno), (
        f"{path.name}:{node.lineno} {node.name} has no user in src/ or benchmarks/"
    )


@pytest.mark.parametrize("path, node, name", list(_constants()))
def test_module_constant_has_a_reader(path, node, name):
    assert _used_outside(name, path, node.lineno, node.end_lineno), (
        f"{path.name}:{node.lineno} {name} is read nowhere in src/ or benchmarks/"
    )


def _file_writes(path):
    """(line, call) of each json.dump, and each open in a write, append or
    create mode, in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "dump" and (
            isinstance(func.value, ast.Name) and func.value.id == "json"
        ):
            yield node.lineno, "json.dump"
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            for mode in modes:
                # a mode that is not a literal string cannot be checked: flag it
                text = mode.value if isinstance(mode, ast.Constant) else "w"
                if set(str(text)) & set("wax+"):
                    yield node.lineno, f"open(..., {ast.unparse(mode)})"


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_writes_files(path):
    """core.write_csv and core.write_json own the on-disk format; other
    modules may read files but write through them."""
    writes = list(_file_writes(path))
    assert not writes, f"{path.name} writes files itself: {writes}"


def _condition_number_calls(path):
    """(line, name) of each use of a linalg ``cond`` or ``svd`` in a file,
    as an attribute (np.linalg.cond) or imported by name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ("cond", "svd"):
            if ast.unparse(node.value).endswith("linalg"):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            for alias in node.names:
                if alias.name in ("cond", "svd"):
                    yield node.lineno, f"from {node.module} import {alias.name}"


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "estimators.py"], ids=lambda p: p.name
)
def test_only_estimators_takes_condition_numbers(path):
    """estimators.conditioning_errors owns the condition checks, with its norm
    screen in front of the SVD; other modules check through it."""
    calls = list(_condition_number_calls(path))
    assert not calls, f"{path.name} takes condition numbers itself: {calls}"


def test_condition_number_calls_are_found(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\nfrom scipy.linalg import svd\nnp.linalg.cond(a)\n"
    )
    assert [line for line, _ in _condition_number_calls(source)] == [2, 3]


CLIPS = ("clip", "minimum", "maximum")


def _clip_calls(path):
    """(line, name) of each use of np.clip, np.minimum or np.maximum in a file,
    as an attribute (an array's .clip too) or imported from numpy by name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in CLIPS:
            if node.attr == "clip" or ast.unparse(node.value) in ("np", "numpy"):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in CLIPS:
                    yield node.lineno, f"from numpy import {alias.name}"


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "policies.py"], ids=lambda p: p.name
)
def test_only_policies_clips(path):
    """policies.clip_prob is the package's one clip, which keeps np.clip's
    bits; other modules clip through it."""
    calls = list(_clip_calls(path))
    assert not calls, f"{path.name} clips itself: {calls}"


def test_clip_calls_are_found(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\nfrom numpy import maximum\nnp.clip(a, 0, 1)\n"
        "b = a.clip(0, 1)\nnp.minimum(a, b, out=a)\nc = math.maximum(a)\n"
    )
    assert [line for line, _ in _clip_calls(source)] == [2, 3, 4, 5]


# Outside policies.py, the places that may evaluate the policy map: the one
# sweep of a trajectory, kept on it, and the step loop's one new column a step
SWEEP_CALLERS = {
    ("core.py", "TrajectorySet.policy_pre"),
    ("simulator.py", "run_trials/loop"),
}


def _policy_path_uses(path):
    """(line, scope) of each use of ``policy_path`` in a file, by name or as an
    attribute (imports aside); scope is the dotted enclosing definition, with
    "/loop" when the use sits in a for or while loop inside it."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, (ast.For, ast.While)) and scope:
                inner = scope if scope.endswith("/loop") else scope + "/loop"
            elif "policy_path" in (getattr(child, "id", None), getattr(child, "attr", None)):
                yield child.lineno, scope
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text()), "")


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "policies.py"], ids=lambda p: p.name
)
def test_policy_sweeps_go_through_the_trajectory(path):
    """A whole-trajectory policy evaluation reads ``TrajectorySet.policy_pre``,
    computed once per trajectory; only the simulator's step loop calls
    ``policy_path`` besides it."""
    uses = [
        (line, scope) for line, scope in _policy_path_uses(path)
        if (path.name, scope) not in SWEEP_CALLERS
    ]
    assert not uses, f"{path.name} calls policy_path outside the shared sweep: {uses}"


def test_policy_path_uses_are_found(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .policies import policy_path\n"
        "def run_trials(spec):\n"
        "    policy_path(spec)\n"
        "    for t in range(3):\n"
        "        while True:\n"
        "            f = policies.policy_path\n"
        "class TrajectorySet:\n"
        "    def policy_pre(self):\n"
        "        return [policy_path(s) for s in self]\n"
    )
    assert list(_policy_path_uses(source)) == [
        (3, "run_trials"), (6, "run_trials/loop"), (9, "TrajectorySet.policy_pre"),
    ]
