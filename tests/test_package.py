"""The package's public surface: every name ``fairmap`` exports imports,
the README's library example runs as written, and its command synopsis
names each subcommand's options."""

import argparse
import ast
import os
import re

import fairmap
from fairmap.cli import build_parser

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)


def test_every_exported_name_resolves():
    with open(fairmap.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(fairmap, n)] == []


def readme_block(section: str, language: str) -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    [block] = re.findall(rf"^## {section}\n\n```{language}\n(.*?)^```$", readme,
                         flags=re.M | re.S)
    return block


def test_readme_library_example_runs():
    block = readme_block("Library in one page", "python")
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["solution"].status == "optimal"
    assert scope["report"].max_j <= scope["spec"].epsilon + 1e-6
    assert len(scope["transformed"]) == len(scope["dataset"])


def test_readme_synopsis_names_every_option():
    # one synopsis entry per subcommand, its continuation lines joined
    entries = readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    documented = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
                  for line in entries}
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    parsed = {name: {s for a in sub._actions for s in a.option_strings
                     if s.startswith("--") and s != "--help"}
              for name, sub in subparsers.choices.items()}
    assert documented == parsed
