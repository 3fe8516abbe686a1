"""Map the statements of ``src/qbracket`` that no command, suite or workload reaches.

Usage, from the root of a checkout:

    python3 tools/reach.py

Tracing (``sys.settrace``) starts before ``qbracket`` is imported, so
module-level statements count, and then a fixed plan runs:

- ``harness.run_all`` at seeds 0 and 1;
- one round of each benchmark workload at seeds 0 and 1, each op's result
  rendered and checked by the workload's oracle, as ``perfbench/run.py``
  does; the plans come from ``perfbench/workloads.build`` and are only
  read, and ``verify``'s pass (``qbracket verify``) runs with its round;
- the five README commands of ``perfbench/workloads.README_COMMANDS``, in
  text and in JSON.

For each module the map prints its code lines, counted by tokenize as a
line holding a token other than a comment, a docstring, NL, NEWLINE,
INDENT or DEDENT, and then the statements that nothing reached, grouped by
the function (qualified name) that holds them, with their line numbers.  A
statement counts as reached when the tracer saw any of its own lines: a
simple statement's lines, or a compound statement's header.  Statements
the compiler emits no code for, such as docstrings, are left out.  The map
reads no clock, so two runs on one Python print the same bytes; line
events differ a little between Python versions.  Only the standard library
is used.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import os
import sys
import tokenize
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbracket"
SEEDS = (0, 1)
WORKLOADS = ("bracket-grid", "fixed-points", "param-fiber", "verify")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


# -- the plan ---------------------------------------------------------------


def _run_all(seed: int) -> None:
    from qbracket import harness
    harness.run_all(seed=seed)


def _workload(name: str, seed: int) -> None:
    import workloads
    plan = workloads.build(name, seed)
    for op in plan.pass_ops + plan.round_ops:
        res = op.call()
        op.render(res)
        reason = plan.oracle(op, res)
        if reason:
            raise RuntimeError(f"{name} seed {seed}, {op.key}: {reason}")


def _readme(argv: tuple) -> None:
    from qbracket import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"qbracket {' '.join(argv)} exited {rc}")


def readme_steps(names=None) -> list:
    """(label, call) steps for the README commands of these names, or all,
    each in text and in JSON."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # imports qbracket: call this once tracing has started
    return [(f"readme {name}{fmt}", functools.partial(_readme, (*argv, *fmt.split())))
            for name, argv in workloads.README_COMMANDS if names is None or name in names
            for fmt in ("", " --format json")]


def full_plan() -> list:
    """The fixed plan of this module's docstring, as (label, call) steps."""
    return ([(f"run_all seed {s}", functools.partial(_run_all, s)) for s in SEEDS]
            + [(f"{w} seed {s}", functools.partial(_workload, w, s))
               for w in WORKLOADS for s in SEEDS]
            + readme_steps())


# -- tracing ----------------------------------------------------------------


def _code_lines(code: types.CodeType) -> set:
    return {line for _, _, line in code.co_lines() if line is not None}


def _nested(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _nested(const)


def trace(plan=full_plan) -> dict:
    """Build the steps by ``plan()`` and run them under the tracer; returns
    {path: lines seen}.  ``qbracket`` is taken from this checkout and first
    imported under the tracer, by the plan."""
    sys.path.insert(0, str(ROOT / "src"))
    prefix = os.path.join(PACKAGE, "")
    pending: dict = {}   # code object -> lines not yet seen, empty when ignored

    def local(left):
        def step(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
                if not left:
                    return None
            return step
        return step

    def on_call(frame, event, arg):
        code = frame.f_code
        left = pending.get(code)
        if left is None:
            ours = code.co_filename.startswith(prefix)
            left = pending[code] = _code_lines(code) if ours else set()
        left.discard(frame.f_lineno)  # the def line's own entry fires no line event
        return local(left) if left else None

    sys.settrace(on_call)
    try:
        for _, call in plan():
            call()
    finally:
        sys.settrace(None)
    seen: dict = {}
    for code, left in pending.items():
        if code.co_filename.startswith(prefix):
            seen.setdefault(code.co_filename, set()).update(_code_lines(code) - left)
    return seen


# -- the map ----------------------------------------------------------------


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, a docstring, NL, NEWLINE,
    INDENT or DEDENT."""
    docs = {node.body[0].lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return len({tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type not in _NOT_CODE
                and not (tok.type == tokenize.STRING and tok.start[0] in docs)})


def _statements(tree: ast.Module):
    """(qualified name of the enclosing function or class, statement, its own
    lines) for every statement: a compound statement owns its header, from
    its first decorator or keyword to the line before its body."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                first = min([child.lineno] + [d.lineno for d in getattr(
                    child, "decorator_list", ())])
                body = getattr(child, "body", None)
                last = max(child.lineno, body[0].lineno - 1) if body else child.end_lineno
                yield scope, child, range(first, last + 1)
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope != "<module>" else child.name
            yield from walk(child, inner)
    yield from walk(tree, "<module>")


def module_map(path: Path, seen: set) -> tuple:
    """(code lines, {scope: [(line, text)]} of unreached statements)."""
    source = path.read_text()
    lines = source.splitlines()
    executable = set()
    for code in _nested(compile(source, str(path), "exec", dont_inherit=True)):
        executable |= _code_lines(code)
    missed: dict = {}
    for scope, stmt, own in _statements(ast.parse(source)):
        if executable.isdisjoint(own) or not seen.isdisjoint(own):
            continue
        missed.setdefault(scope, []).append((stmt.lineno, lines[stmt.lineno - 1].strip()))
    return code_lines(source), missed


def render(seen: dict) -> str:
    out, total_code, total_missed = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        code, missed = module_map(path, seen.get(str(path), set()))
        n = sum(map(len, missed.values()))
        total_code += code
        total_missed += n
        out.append(f"{path.relative_to(ROOT)}: {code} code lines, {n} statements unreached")
        for scope in sorted(missed, key=lambda s: missed[s][0][0]):
            out.append(f"  {scope}")
            out.extend(f"    {line:5d}  {text}" for line, text in missed[scope])
    out.append(f"{PACKAGE.relative_to(ROOT)}: {total_code} code lines, "
               f"{total_missed} statements unreached")
    return "\n".join(out) + "\n"


def main(plan=full_plan) -> int:
    seen = trace(plan)
    sys.stdout.write(render(seen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
