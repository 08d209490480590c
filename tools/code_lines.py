"""Code lines of each module under src/gammaring, and in total.

A code line is a line that holds a token other than a comment, and that is
not part of a docstring (the string that opens a module, class or function
body, found with `ast`).  Blank lines, comment lines and docstrings are left
out.  The five largest top-level classes and functions are listed after the
modules.

The last line counts settable values, the defaults a caller may override, in
three parts: defaulted function and method parameters (positional and
keyword-only) and fields with a default in `@dataclass` classes, both found
with `ast`, and command-line options, counted per subcommand as the options
that are not required (`--help` aside) of each subparser of
`gammaring.cli.build_parser()`.

Run from the repository root:

    python3 tools/code_lines.py
"""

import argparse
import ast
import io
import os
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gammaring"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> tuple:
    """(tree, the set of code line numbers) of a module's source."""
    tree = ast.parse(text)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(tree):
        body = node.body if isinstance(node, _BODIES) else []
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return tree, lines


def settable_values(tree) -> tuple:
    """(defaulted parameters, dataclass field defaults) of a module."""
    params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(ast.unparse(d).startswith("dataclass")
                                                     for d in node.decorator_list):
            fields += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                          for st in node.body)
    return params, fields


def cli_options() -> int:
    """The options each subcommand of the CLI takes that are not required, summed."""
    sys.path.insert(0, str(SRC.parent))
    from gammaring.cli import build_parser
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sum(not a.required and not isinstance(a, argparse._HelpAction)
               for parser in sub.choices.values() for a in parser._actions)


def main():
    total, units, settable = 0, [], (0, 0)
    for path in sorted(SRC.glob("*.py")):
        tree, lines = code_lines(path.read_text(encoding="utf-8"))
        total += len(lines)
        settable = tuple(a + b for a, b in zip(settable, settable_values(tree)))
        print(f"{len(lines):6d}  {path.name}")
        for node in tree.body:
            if isinstance(node, _BODIES[1:]):
                size = sum(node.lineno <= i <= node.end_lineno for i in lines)
                units.append((size, f"{path.stem}.{node.name}"))
    print(f"{total:6d}  total")
    print("largest units:")
    for size, name in sorted(units, reverse=True)[:5]:
        print(f"{size:6d}  {name}")
    params, fields = settable
    options = cli_options()
    print(f"{params + fields + options:6d}  settable values: {params} defaulted parameters, "
          f"{fields} dataclass field defaults, {options} CLI options over the subcommands")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: send the interpreter's
        # final flush to devnull and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
