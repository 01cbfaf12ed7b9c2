"""Every defaulted parameter of the public API is one some caller sets.

A default that no call in the package, its tests or its benchmark ever
overrides is a configuration nothing exercises; it belongs in the code
as a constant.  Calls are matched by the called name, so a method or a
same-named function elsewhere counts as a caller too (the scan can only
miss knobs, never flag a used one).

And no function of the package defines a nested function that calls
itself: such a closure holds a cell that refers back to it, so every
call leaves a reference cycle for the cyclic collector.
"""
import ast
import inspect
from pathlib import Path

import pspeclab

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "bench")


def _calls():
    """Map each called name to (max positional count, keyword names).

    A call that unpacks `*args` counts as passing every position, and
    one that unpacks `**mapping` as passing every keyword.
    """
    seen = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                npos, kws = seen.get(name, (0, set()))
                if any(isinstance(a, ast.Starred) for a in node.args):
                    npos = float("inf")
                else:
                    npos = max(npos, len(node.args))
                for kw in node.keywords:
                    kws.add(kw.arg if kw.arg is not None else "**")
                seen[name] = (npos, kws)
    return seen


def _exported_functions():
    return [(name, obj) for name, obj in vars(pspeclab).items()
            if inspect.isfunction(obj)]


def test_every_exported_default_is_set_by_some_call():
    calls = _calls()
    unused = []
    for name, fn in _exported_functions():
        npos, kws = calls.get(name, (0, set()))
        for i, param in enumerate(inspect.signature(fn).parameters.values()):
            if param.default is inspect.Parameter.empty:
                continue
            by_position = (param.kind is param.POSITIONAL_OR_KEYWORD
                           and npos > i)
            if not (by_position or param.name in kws or "**" in kws):
                unused.append(f"{name}({param.name})")
    assert not unused, "defaults no call sets: " + ", ".join(unused)


def test_no_exported_function_forwards_keywords():
    forwarding = [name for name, fn in _exported_functions()
                  if any(p.kind is p.VAR_KEYWORD
                         for p in inspect.signature(fn).parameters.values())]
    assert not forwarding, "functions taking **kwargs: " + ", ".join(forwarding)


def test_no_nested_function_refers_to_itself():
    found = set()
    for path in sorted((ROOT / "src" / "pspeclab").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if (inner is not outer
                        and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and any(isinstance(node, ast.Name) and node.id == inner.name
                                and isinstance(node.ctx, ast.Load)
                                for node in ast.walk(inner))):
                    found.add(f"{path.stem}.{outer.name}.{inner.name}")
    assert not found, "self-referencing closures: " + ", ".join(sorted(found))
