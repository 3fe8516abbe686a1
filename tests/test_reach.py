"""``tools/reach.py`` maps the statements of the package that a plan never reaches.

The map decides which paths a change may retire, so its determinism, its
listing of a path that a plan does not reach and its count of code lines
are checked here, on a plan of one README command.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
# README's eval, in text and in JSON, traced from the import of qbracket on
ONE_COMMAND = ("import functools, sys; sys.path.insert(0, sys.argv[1]); import reach; "
               "reach.main(functools.partial(reach.readme_steps, ('eval',)))")


@pytest.fixture
def reach(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("reach")


def _map() -> tuple:
    """The printed map, and {module path: {scope: [unreached statements]}}."""
    out = subprocess.run([sys.executable, "-c", ONE_COMMAND, str(TOOLS)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    modules, scope = {}, None
    for line in out.splitlines()[:-1]:
        if not line.startswith(" "):
            scopes = modules[line.split(":")[0]] = {}
        elif not line.startswith("    "):
            scope = scopes[line.strip()] = []
        else:
            scope.append(line.strip())
    return out, modules


def test_one_command_map_is_the_same_twice_and_lists_what_it_skips():
    (first, modules), (second, _) = _map(), _map()
    assert first == second
    assert first.splitlines()[-1].startswith("src/qbracket: ")
    # eval builds no polygon, and polygon_build is on no path of the system
    assert "polygon_build" in modules["src/qbracket/polygon.py"]
    # module-level statements run under the tracer, so none is listed where
    # no script guard (if __name__ == "__main__") sits
    for name in ("analytic", "core", "harness", "polygon", "solver"):
        assert "<module>" not in modules[f"src/qbracket/{name}.py"], name


def test_code_lines_skip_comments_docstrings_and_blank_lines(reach):
    source = ('"""Module docstring,\n\nover three lines."""\n'
              "# a comment\n"
              "import sys\n"
              "\n"
              "def f(x):\n"
              "    '''Docstring.'''\n"
              "    s = '''a string\n"
              "    that is no docstring'''\n"
              "    return (x +  # a comment after code\n"
              "            1)\n")
    # import, def, s = (its first line), return, and the continued line
    assert reach.code_lines(source) == 5
