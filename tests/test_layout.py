"""The package holds no code that only tests read.

Every function, method and class defined in src/harmonydcc/*.py, apart
from dunders, must be named somewhere beyond its own definition: in the
package itself, in the benchmark harness (perfbench/run.py, checks.py and
tracing.py), or in pyproject.toml. The check is textual, by whole word, so
a name that is also an ordinary word or another object's name slips
through: it cannot see a SnapshotStore.read with no caller, because the
word `read` occurs elsewhere. A mention in a comment or docstring counts
as a use.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "harmonydcc").glob("*.py"))
READERS = [
    *PACKAGE,
    *(ROOT / "perfbench" / f"{name}.py" for name in ("run", "checks", "tracing")),
    ROOT / "pyproject.toml",
]


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
