"""The package's public surface: every name ``fairmap`` exports imports,
and the README's library example runs as written."""

import ast
import os
import re

import fairmap

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)


def test_every_exported_name_resolves():
    with open(fairmap.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(fairmap, n)] == []


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    [block] = re.findall(r"^## Library in one page\n\n```python\n(.*?)^```$", readme,
                         flags=re.M | re.S)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["solution"].status == "optimal"
    assert scope["report"].max_j <= scope["spec"].epsilon + 1e-6
    assert len(scope["transformed"]) == len(scope["dataset"])
