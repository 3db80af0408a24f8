"""The README against the current package: its "Library use" example, its command
table and its "Layout" block.

The README is read at test time, so a renamed or removed public name,
subcommand or module fails here instead of leaving the documentation stale.
The package root's export list is held to the names the example imports
from it, the command table to the parser's subcommands and the files each
one writes, and the layout to the package's modules.
"""

import ast
import os
import pathlib
import pkgutil
import re

import pytest

import spavg
from spavg.cli import _build_parser, main

from test_cli import DIAG_CFG, SMALL_CFG

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


# What "one CSV per suite" in the diagnose row stands for.
SUITE_FILES = [
    "moment_uniformity.csv",
    "increment_scaling.csv",
    "deviation_scaling.csv",
    "ergodicity_decay.csv",
]


def command_table() -> dict[str, list[str]]:
    """Subcommand -> the files its "files written" cell names, in README order."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    table = {}
    for line in section.splitlines():
        match = re.match(r"\| `spavg (\w+)` *\|.*\|(.*)\|$", line)
        if match is None:
            continue
        files = []
        for item in match.group(2).split(","):
            item = item.strip()
            if item == "one CSV per suite":
                files += SUITE_FILES
            else:
                assert re.fullmatch(r"`[\w.]+`", item), item
                files.append(item.strip("`"))
        table[match.group(1)] = files
    return table


def test_command_table_lists_the_parser_subcommands_in_order():
    usage = _build_parser().format_usage()
    choices = re.search(r"\{([\w,]+)\}", usage).group(1).split(",")
    assert list(command_table()) == choices


@pytest.mark.parametrize("command", list(command_table()))
def test_each_subcommand_writes_the_files_its_row_names(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DIAG_CFG if command == "diagnose" else SMALL_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) in (0, 1)
    files = command_table()[command]
    assert sorted(os.listdir(out)) == sorted(files)
    reports = [name for name in files if name.endswith("_report.txt")]
    if reports:
        # What converge and diagnose print is their report file's text.
        assert capsys.readouterr().out == (out / reports[0]).read_text(encoding="utf-8")


def test_layout_lists_the_package_modules():
    section = README.read_text(encoding="utf-8").split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    listed = re.findall(r"^  (\w+)\.py ", block, re.MULTILINE)
    assert sorted(listed) == sorted(info.name for info in pkgutil.iter_modules(spavg.__path__))
