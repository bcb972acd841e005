"""``tools/src_size.py``: per-layer source sizes add up to the whole tree."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import src_size  # noqa: E402


def test_layer_sums_equal_the_tree_totals():
    sizes = src_size.module_sizes(REPO_ROOT / "src")
    per_layer = src_size.layer_sizes(sizes)
    assert "unmapped" not in per_layer
    for column in (0, 1):
        assert sum(size[column] for size in per_layer.values()) == sum(
            size[column] for size in sizes.values()
        )
    tree = [path for path in (REPO_ROOT / "src" / "repro").rglob("*.py")]
    assert len(sizes) == len(tree)
    assert sum(size[0] for size in sizes.values()) == sum(
        1
        for path in tree
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    text = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment counts as code


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    return "not a docstring"
'''
    assert src_size.count_lines(text) == (9, 5)
