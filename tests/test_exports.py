"""Every name that spoc exports is used by the program or documented in README."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "spoc"

# exported names that only the tests call, kept on purpose
TEST_ONLY = {
    "gaussian_w2_1d": "closed-form W2 between 1-d Gaussians, the transport tests' oracle",
    "recursive_bound_probe": "probe for the two-envelope recursive inequality, tested directly",
    "update": "the paper's definition of the measure fold, the oracle for measure_weights",
}


def _exports() -> dict:
    """Exported name -> the spoc module that defines it."""
    tree = ast.parse((PKG / "__init__.py").read_text())
    return {alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _uses(tree, modules) -> set:
    """Bare names, and attributes read off a spoc module (spoc.x, spoc.measures.x)."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and getattr(n.value, "id",
                                                      getattr(n.value, "attr", None)) in modules:
            names.add(n.attr)
    return names


def test_every_export_has_a_use_or_a_readme_mention():
    exports = _exports()
    modules = {"spoc", *exports.values()}
    files = sorted(set(PKG.glob("*.py")) - {PKG / "__init__.py"})
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    mentioned = {w for span in re.findall(r"`([^`]+)`", readme) for w in re.findall(r"\w+", span)}
    unused = []
    for name, module in exports.items():
        used = False
        for path, tree in trees.items():
            if path == PKG / f"{module}.py":  # leave out the name's own definition
                tree = ast.Module([n for n in tree.body if getattr(n, "name", None) != name], [])
            used = used or name in _uses(tree, modules)
        if not used and name not in mentioned and name not in TEST_ONLY:
            unused.append(name)
    assert not unused, f"exported, but nothing runs or documents them: {unused}"
    assert set(TEST_ONLY) <= set(exports)
