"""Source size of ``src/repro`` per perfbench layer: non-blank and code lines.

The layers are the ones the benchmark's per-layer split uses
(``perfbench/layers.py`` over ``perfbench/layers.json``), so a size change
reads in the same terms as a time change.  For every module the tool counts

* **non-blank lines**: lines holding anything but whitespace;
* **code lines**: non-blank lines that are not comments and not part of a
  docstring (the string that opens a module, class or function body).

Usage::

    python tools/src_size.py                       # this checkout's src/
    python tools/src_size.py --src ../other/src    # another checkout's src/
    python tools/src_size.py --files               # also one line per module

The map is only read, never modified.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import layers  # noqa: E402

#: Tokens that do not make a line a code line.
_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of ``tree``."""
    lines: set = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(text: str) -> Tuple[int, int]:
    """``(non-blank lines, code lines)`` of one module's source."""
    non_blank = sum(1 for line in text.splitlines() if line.strip())
    docstrings = _docstring_lines(ast.parse(text))
    code: set = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return non_blank, len(code - docstrings)


def module_sizes(src: Path) -> Dict[str, Tuple[int, int]]:
    """``repro/...`` module key -> ``(non-blank, code)`` for every module."""
    return {
        path.relative_to(src).as_posix(): count_lines(path.read_text(encoding="utf-8"))
        for path in sorted((src / "repro").rglob("*.py"))
    }


def layer_sizes(sizes: Dict[str, Tuple[int, int]]) -> Dict[str, Tuple[int, int]]:
    """Layer -> summed ``(non-blank, code)``; a module mapped to no single
    layer is reported under ``unmapped``."""
    totals: Dict[str, Tuple[int, int]] = {layer: (0, 0) for layer in layers.LAYERS}
    for key, (non_blank, code) in sizes.items():
        matched = layers.matching_layers(key)
        layer = matched[0] if len(matched) == 1 else "unmapped"
        old = totals.get(layer, (0, 0))
        totals[layer] = (old[0] + non_blank, old[1] + code)
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", type=Path, default=REPO_ROOT / "src",
        help="the src/ directory to measure (default: this checkout's)",
    )
    parser.add_argument("--files", action="store_true", help="also print every module")
    args = parser.parse_args(argv)
    sizes = module_sizes(args.src)
    print(f"{'layer':<14} {'non-blank':>10} {'code':>8}")
    for layer, (non_blank, code) in layer_sizes(sizes).items():
        print(f"{layer:<14} {non_blank:>10} {code:>8}")
    print(
        f"{'total':<14} {sum(v[0] for v in sizes.values()):>10} "
        f"{sum(v[1] for v in sizes.values()):>8}"
    )
    if args.files:
        for key, (non_blank, code) in sizes.items():
            print(f"{key:<48} {non_blank:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
