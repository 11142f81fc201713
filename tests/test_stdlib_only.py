"""The package keeps its promises of no runtime dependencies and Python 3.10,
and the test oracles stay independent of the package's private helpers."""

import ast
import sys
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_DIR / "src" / "immaculates"


def test_package_imports_only_stdlib_or_relative():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not foreign


def test_sources_parse_as_python_3_10():
    # the package declares requires-python >= 3.10; this catches newer syntax
    sources = [
        path
        for top in (PACKAGE_DIR, REPO_DIR / "tests", REPO_DIR / "perfbench")
        for path in sorted(top.rglob("*.py"))
    ]
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_support_oracles_import_no_private_names():
    # an oracle that imports a private helper checks that helper against itself
    tree = ast.parse((REPO_DIR / "tests" / "support.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").partition(".")[0] == "immaculates"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private
