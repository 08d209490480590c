"""tools/code_lines.py runs, and the numbers it prints add up."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETTABLE = re.compile(r"\s*(\d+)  settable values: (\d+) defaulted parameters, (\d+) dataclass "
                      r"field defaults, (\d+) CLI options over the subcommands")


def test_code_lines_tool_adds_up():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    end = next(i for i, line in enumerate(lines) if line.split()[1:] == ["total"])
    modules = [line.split() for line in lines[:end]]
    assert sorted(name for _, name in modules) == sorted(
        p.name for p in (ROOT / "src" / "gammaring").glob("*.py"))
    assert sum(int(count) for count, _ in modules) == int(lines[end].split()[0])
    settable = SETTABLE.fullmatch(lines[-1])
    assert settable, lines[-1]
    assert int(settable[1]) == sum(int(settable[i]) for i in (2, 3, 4))
