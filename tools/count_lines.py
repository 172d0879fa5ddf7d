"""Count the lines of Python sources as code, docstring, comment and blank.

Usage: python3 tools/count_lines.py [DIR ...]   (default: src)

A docstring line is any line of a module, class or function docstring
(found with ``ast``), blank lines inside it included.  A comment line holds
only a comment, a blank line only whitespace; every other line is code.
Prints one row per file and a total row.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(dirs):
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<40}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(p for d in dirs for p in Path(d).rglob("*.py")):
        counts = count(path)
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(path):<40}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<40}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:] or ["src"])
