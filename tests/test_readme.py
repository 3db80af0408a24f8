"""The README's "Library use" example runs against the current package.

The block is read out of README.md at test time, so a renamed or removed
public name fails here instead of leaving the documentation stale, and the
package root's export list is held to the names the block imports from it.
"""

import ast
import pathlib
import re

import spavg

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under 'Library use'"
    return match.group(1)


def test_library_use_example_runs(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_package_root_exports_what_the_example_imports():
    roots = [
        node
        for node in ast.walk(ast.parse(library_use_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "spavg"
    ]
    assert len(roots) == 1
    imported = [alias.name for alias in roots[0].names]
    assert sorted(spavg.__all__) == sorted(imported + ["__version__"])
