"""How the solver loads SciPy's HiGHS bindings, checked in fresh
interpreters: this suite's own warning filters import ``scipy.optimize``
before any test runs, so in-process tests never see the first import.

``fairmap.solver`` loads the extension module
``scipy.optimize._highspy._core`` from its file, without the
``scipy.optimize`` package, and enters it in ``sys.modules`` under its own
name; a later ``import scipy.optimize`` reuses it."""

import os
import subprocess
import sys
import textwrap

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")

# an l1 and a KL solve of a small instance (feasible at this seed), each
# through its first run of a HiGHS model
SOLVES = """
from fairmap import assemble, solve
from test_properties import random_instance
instance = random_instance(1)
statuses = [solve(assemble(*instance, objective)).status for objective in ("l1", "kl")]
assert statuses == ["optimal", "optimal"], statuses
"""


def run_fresh(*parts: str) -> None:
    """Run the code ``parts`` (each dedented) in a new interpreter that
    imports from src/ and tests/; the code fails the test by raising."""
    path = os.pathsep.join([SRC, HERE] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", "".join(map(textwrap.dedent, parts))],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_scipy_optimize_out():
    run_fresh("""
        import sys
        import fairmap.cli
        assert "scipy.optimize" not in sys.modules
        assert "scipy.optimize._highspy._core" in sys.modules
    """, SOLVES, """
        assert "scipy.optimize" not in sys.modules
    """)


def test_later_scipy_optimize_import_reuses_the_bindings():
    run_fresh("""
        import fairmap.cli
        from fairmap import solver
        import scipy.optimize
        from scipy.optimize._highspy import _core
        assert _core is solver._highs
        res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                                     bounds=[(0, None)] * 2, method="highs")
        assert res.status == 0 and abs(res.fun - 1.0) < 1e-12, res
        assert solver.linprog is scipy.optimize.linprog
    """, SOLVES)


def test_regular_import_when_no_file_is_found():
    # the loader's own lookup finds nothing (as in an editable SciPy
    # build); the regular import of the same module, which looks in the
    # _highspy package's __path__ once that package is loaded, still does
    run_fresh("""
        import sys
        from importlib.machinery import PathFinder
        find_spec, refused = PathFinder.find_spec, []

        def without_core(name, path=None, target=None):
            if (name == "scipy.optimize._highspy._core"
                    and "scipy.optimize._highspy" not in sys.modules):
                refused.append(path)
                return None
            return find_spec(name, path, target)

        PathFinder.find_spec = staticmethod(without_core)
        import fairmap.cli
        from fairmap import solver
        assert len(refused) == 1 and "scipy.optimize" in sys.modules
        assert solver._highs is sys.modules["scipy.optimize._highspy._core"]
    """, SOLVES)
