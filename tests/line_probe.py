"""Lines of src/fanobound that the tier-1 tests never run, by sys.settrace.

    PYTHONPATH=src python tests/line_probe.py [pytest arguments]

runs pytest in this process with a line tracer on every frame whose code
lives in src/fanobound, then prints each executable line that never ran,
as path:line and its text, and a count per module and in all.  A line is
executable when some instruction of the module's code objects carries it
(co_lines), so a function's docstring is not, and each line of a
statement that spans several is counted.  Tests that start a child
interpreter are not counted: only this process is traced.  The file name
keeps pytest from collecting it; it needs nothing beyond pytest.  It
exits with pytest's exit code.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fanobound"


def executable_lines(path: Path) -> set[int]:
    """Every line some instruction of the module's code objects carries."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of the package get a local tracer, and with it line events
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    if any(name.startswith("fanobound") for name in sys.modules):
        raise SystemExit("fanobound was imported before the tracer started")
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - ran.get(str(path), set()))
        text = path.read_text().splitlines()
        for n in never:
            print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
        print(f"{path.relative_to(ROOT)}: {len(never)} of {len(lines)} never run")
        total, missed = total + len(lines), missed + len(never)
    print(f"src/fanobound: {missed} of {total} executable lines never run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
