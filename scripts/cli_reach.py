"""Print what of src/wzsim the CLI runs of scripts/manifest_hashes.py reach.

The runs go through wzsim.cli.main into a temporary directory, as
manifest_hashes.py runs them, under sys.settrace and threading.settrace,
so the slab pool's threads are traced too. For each module of the wzsim
package it prints the functions that no run enters, and in the functions
that some run enters, the executable lines that no run reaches. Lines
inside a raise statement are left out: they are the refusals, which the
tests reach. Module and class bodies run at import, before the trace.

It is a report, and always exits 0 once the runs succeed. Set WZ_THREADS
above 1 to reach the slab pool:

    PYTHONPATH=src WZ_THREADS=3 python3 scripts/cli_reach.py
"""

import ast
import inspect
import os
import sys
import tempfile
import threading
from pathlib import Path

import wzsim
from manifest_hashes import run_hashes

PACKAGE = Path(wzsim.__file__).resolve().parent


def trace_runs() -> dict[Path, tuple[set[int], set[int]]]:
    """By the path of each wzsim module, the first lines of the functions
    that a run entered and the lines that a run reached."""
    reached: dict[str, tuple[set[int], set[int]]] = {}
    # A code object's file name is its module's __file__, as imported.
    inside = os.path.dirname(wzsim.__file__) + os.sep

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(inside):
            return None
        entered, lines = reached.setdefault(filename, (set(), set()))
        entered.add(frame.f_code.co_firstlineno)

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_hashes(Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {Path(name).resolve(): lines for name, lines in reached.items()}


def functions(code):
    """Every function code object nested in code, depth first."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & inspect.CO_OPTIMIZED:  # not a class body
                yield const
            yield from functions(const)


def raise_lines(tree: ast.AST) -> set[int]:
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def report(path: Path, entered: set[int], reached: set[int]) -> list[str]:
    source = path.read_text()
    text = source.splitlines()
    skipped = raise_lines(ast.parse(source))
    missed_functions, missed_lines = [], set()
    for code in functions(compile(source, str(path), "exec")):
        lines = {line for _, _, line in code.co_lines() if line is not None}
        if code.co_firstlineno in entered:
            # The def line, or a decorator's, runs in the enclosing scope.
            missed_lines |= lines - reached - skipped - {code.co_firstlineno}
        elif not code.co_name.startswith("<"):
            missed_functions.append(f"{code.co_qualname} (line {code.co_firstlineno})")
    out = [f"## {path.relative_to(PACKAGE.parent)}", "functions no run enters:"]
    out += [f"  {f}" for f in missed_functions] or ["  (none)"]
    out.append("lines no run reaches, in entered functions, outside raise statements:")
    out += [f"  {n}: {text[n - 1].strip()}" for n in sorted(missed_lines)] or ["  (none)"]
    return out


def main() -> None:
    reached = trace_runs()
    for path in sorted(PACKAGE.glob("*.py")):
        print("\n".join(report(path, *reached.get(path, (set(), set())))), end="\n\n")


if __name__ == "__main__":
    main()
