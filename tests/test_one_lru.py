"""The process-local caches in ``src/repro`` share one LRU.

:class:`repro.concurrency.Memo` owns the LRU order, the bound, the
exact hit and miss counts and the build-once rule of every memo in the
package.  A hand-written LRU elsewhere shows up as a call to
``move_to_end`` or ``popitem(last=False)`` on an ``OrderedDict``; this
check fails on any such call outside ``repro/concurrency.py`` except
the caches named in ``HOLDOUTS``, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
HOME = "concurrency.py"

HOLDOUTS = {
    "kernels/spectra.py": "byte budget: evicts on total bytes as well as "
                          "entries, and transforms inside its lock",
}


def _lru_calls(tree: ast.AST):
    """Line numbers of the LRU-order calls in ``tree``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "move_to_end":
            yield node.lineno
        elif node.func.attr == "popitem" and any(
                isinstance(arg, ast.Constant) and arg.value is False
                for arg in node.args + [kw.value for kw in node.keywords
                                        if kw.arg == "last"]):
            yield node.lineno


def _lru_sites():
    """``{relative path: [line, ...]}`` of every LRU-order call."""
    sites = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = sorted(_lru_calls(ast.parse(path.read_text(), str(path))))
        if lines:
            sites[path.relative_to(PACKAGE).as_posix()] = lines
    return sites


def test_lru_order_lives_only_in_the_memo():
    sites = _lru_sites()
    stray = {path: lines for path, lines in sites.items()
             if path != HOME and path not in HOLDOUTS}
    assert not stray, (
        f"hand-written LRU order outside repro/{HOME} (use "
        f"repro.concurrency.Memo, or add a reasoned HOLDOUTS entry): {stray}")


def test_every_holdout_still_holds_out():
    sites = _lru_sites()
    assert HOME in sites
    stale = sorted(set(HOLDOUTS) - set(sites))
    assert not stale, f"HOLDOUTS entries with no LRU left: {stale}"
