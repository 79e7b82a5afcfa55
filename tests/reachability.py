"""A reachability gate: every function in src/dicesim runs in some corpus case.

It runs every case of the three digest corpora (simulate, rolls, and
stats/uart) under a `sys.setprofile` hook, from before `dicesim` is
imported, and lists each function and method defined in src/dicesim that
no case calls. Such a function is dead code unless a check outside the
commands reads it, and then it is on ALLOWED with the name of its reader.

    python tests/reachability.py

exits 1 naming each uncalled function that is not on ALLOWED, and each
ALLOWED entry that names no function or names one that a case calls, so
the list cannot go stale. The hook makes the corpora a few times slower.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if __name__ == "__main__":  # run as a script: use this checkout's src/
    sys.path.insert(0, str(SRC))

# uncalled functions kept for the checks that read them: "module.qualname" -> reader
_REFERENCE_BOARD = "tests/reference_board.py steps it edge by edge"
ALLOWED = {
    "timing.Scheduler.__init__": f"{_REFERENCE_BOARD}; criterion 08",
    "timing.Scheduler.advance": f"{_REFERENCE_BOARD}; criterion 08",
    "timing.TickEvent.__init__": f"{_REFERENCE_BOARD}, through Scheduler.advance; criterion 08",
    "uart.UartChannel.__init__": f"{_REFERENCE_BOARD}; criterion 07",
    "uart.UartChannel.edge": f"{_REFERENCE_BOARD}; criterion 07",
    "display.DisplayMux.__init__": _REFERENCE_BOARD,
    "display.DisplayMux.step": _REFERENCE_BOARD,
    "prng.xorshift_inverse": "criterion 02",
    "prng._unshift_left": "criterion 02, through xorshift_inverse",
    "prng._unshift_right": "criterion 02, through xorshift_inverse",
    "record.Record.__repr__": "tests/test_record.py pins the Name(field=value, ...) form",
}


def defined_functions(package: Path) -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of each function and method in the package's
    modules, as its code object holds them, -> "module.qualname". A
    decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


def main() -> int:
    seen = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and seen.add(frame.f_code))
    try:
        import rolls_corpus
        import simulate_corpus
        import stats_uart_corpus

        corpora = (simulate_corpus, rolls_corpus, stats_uart_corpus)
        for corpus in corpora:
            for index in range(corpus.CASES):
                corpus.run_case(corpus.make_case(index))
    finally:
        sys.setprofile(None)
    called = {(code.co_filename, code.co_firstlineno, code.co_name) for code in seen}
    functions = defined_functions(SRC / "dicesim")
    names = set(functions.values())
    uncalled = sorted(name for key, name in functions.items() if key not in called)

    problems = [f"{name}: no corpus case calls it" for name in uncalled if name not in ALLOWED]
    problems += [f"{name}: on ALLOWED, but no such function in src/dicesim" for name in sorted(ALLOWED.keys() - names)]
    problems += [f"{name}: on ALLOWED, but a corpus case calls it"
                 for name in sorted(ALLOWED.keys() & (names - set(uncalled)))]
    for line in problems:
        print(line)
    print(f"{len(functions) - len(uncalled)} of {len(functions)} functions of src/dicesim are called by the "
          f"{sum(corpus.CASES for corpus in corpora)} corpus cases; not called: "
          + ", ".join(f"{name} ({ALLOWED.get(name, 'not allowed')})" for name in uncalled))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
