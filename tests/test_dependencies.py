"""The package runs on the standard library alone.

Every import statement under src/qstrat, at module level or inside a
function, names a standard-library module or the package itself, and the
jobs that split modules run in an interpreter that cannot import sympy.
"""

import ast
import os
import pathlib
import subprocess
import sys

import qstrat

PACKAGE = pathlib.Path(qstrat.__file__).parent


def _imported_modules():
    """(file, top-level module name) of every import statement; a relative
    import names the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield path.name, "qstrat" if node.level else node.module.split(".")[0]


def test_every_import_is_stdlib_or_the_package():
    found = list(_imported_modules())
    assert ("exactla.py", "fractions") in found and ("cli.py", "qstrat") in found
    outside = [(name, mod) for name, mod in found if mod != "qstrat" and mod not in sys.stdlib_module_names]
    assert outside == []


def test_splitting_jobs_run_without_sympy():
    # tilting and cellular on examples:A and tilting and ringel on the loop
    # ladder split modules whose End/rad has dimension 2
    loop = os.path.join(os.path.dirname(__file__), "loop_ladder.json")
    script = (
        "import io, sys, contextlib\n"
        "sys.modules['sympy'] = None\n"
        "import qstrat.cli\n"
        f"for argv in (['tilting', 'examples:A'], ['cellular', 'examples:A'], ['tilting', {loop!r}], ['ringel', {loop!r}]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert qstrat.cli.main(argv) == 0, argv\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
