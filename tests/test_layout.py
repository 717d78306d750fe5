"""The package holds no code that only tests read.

Every function, method and class defined in src/harmonydcc/*.py, apart
from dunders, must be named somewhere beyond its own definition: in the
package itself, in the benchmark harness (perfbench/run.py, checks.py and
tracing.py), or in pyproject.toml. The check is textual, by whole word, so
a name that is also an ordinary word or another object's name slips
through: it cannot see a SnapshotStore.read with no caller, because the
word `read` occurs elsewhere. A mention in a comment or docstring counts
as a use.

Likewise every field of the two settings classes, RunConfig and
WorkloadSpec, must be passed by keyword in at least one call in the
package or the benchmark harness, tests not counted.
"""
import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

import pytest

from harmonydcc.pipeline import RunConfig
from harmonydcc.workloads import WorkloadSpec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "harmonydcc").glob("*.py"))
HARNESS = [ROOT / "perfbench" / f"{name}.py" for name in ("run", "checks", "tracing")]
READERS = [*PACKAGE, *HARNESS, ROOT / "pyproject.toml"]


def _definitions() -> Counter:
    """How many times each non-dunder function, method and class name is
    defined in the package."""
    defined: Counter = Counter()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined[node.name] += 1
    return defined


def test_every_package_definition_is_named_beyond_itself():
    text = "\n".join(path.read_text(encoding="utf-8") for path in READERS)
    unused = sorted(
        name
        for name, count in _definitions().items()
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count
    )
    assert unused == []


# Settings fields no program call sets but that stay: the pinned engine
# digests and criterion 11 generate programs of 4 to 6 operations, against
# the default 10 that harmony-bench and perfbench run.
SETTING_EXEMPT = {"ops_per_txn"}


def _keywords_passed(cls) -> set[str]:
    """Every keyword passed to a call of cls, by name or by attribute, in
    the package and the benchmark harness."""
    passed: set[str] = set()
    for path in [*PACKAGE, *HARNESS]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == cls.__name__:
                    passed.update(kw.arg for kw in node.keywords if kw.arg)
    return passed


@pytest.mark.parametrize("cls", [RunConfig, WorkloadSpec], ids=lambda cls: cls.__name__)
def test_every_settings_field_is_set_by_some_program_call(cls):
    """A settings field that only tests pass is a second home for a value
    its default already fixes."""
    fields = {f.name for f in dataclasses.fields(cls)} - SETTING_EXEMPT
    assert sorted(fields - _keywords_passed(cls)) == []
