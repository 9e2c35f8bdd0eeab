"""Every function of the package runs under some CLI command.

The reach is a name-reference graph over the package's AST.  It starts at
`cli.main`, the `cmd_*` functions and the module-level statements (which
run on import).  A reached body reaches every function or method whose
name it mentions: as a bare name it loads and does not bind itself (a
parameter or a local of the same name is no reference), as an attribute,
or as an imported name; a reached class reaches its dunder methods.
Names are matched without their owner, so the graph over-approximates
what runs: it can miss dead code that shares a name with live code, but
everything it reports is unreached.  The references tests compare
against, which no command runs, live in tests/oracles.py.
"""

import ast
import pathlib

import qstrat

PACKAGE = pathlib.Path(qstrat.__file__).parent

def _definitions():
    """qualified name -> AST node whose names a reached definition refers
    to; a class's node holds its bases, decorators and non-method body."""
    defs, classes = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        top = []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{mod}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                rest = [*node.bases, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[f"{mod}.{node.name}.{item.name}"] = item
                    else:
                        rest.append(item)
                defs[f"{mod}.{node.name}"] = ast.Module(body=rest, type_ignores=[])
                classes.add(f"{mod}.{node.name}")
            else:
                top.append(node)
        defs[f"{mod}.<module>"] = ast.Module(body=top, type_ignores=[])
    return defs, classes


def _referenced_names(node):
    bound = set()
    for n in ast.walk(node):
        if isinstance(n, ast.arguments):
            bound |= {a.arg for a in (*n.posonlyargs, *n.args, *n.kwonlyargs, n.vararg, n.kwarg) if a}
        elif isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            bound.add(n.id)
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id not in bound:
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name.split(".")[-1])
    return out


def unreached():
    defs, classes = _definitions()
    by_name = {}
    for q in defs:
        by_name.setdefault(q.rsplit(".", 1)[1], []).append(q)
    roots = [q for q in defs if q.endswith(".<module>") or q == "cli.main" or q.startswith("cli.cmd_")]
    seen, work = set(roots), list(roots)
    while work:
        q = work.pop()
        targets = [t for name in _referenced_names(defs[q]) for t in by_name.get(name, ())]
        if q in classes:
            targets += [t for t in defs if t.startswith(q + ".__")]
        for t in targets:
            if t not in seen:
                seen.add(t)
                work.append(t)
    return {q for q in defs if q not in seen and q not in classes and not q.endswith(".<module>")}


def test_every_function_is_reached():
    assert sorted(unreached()) == [], "unreached from the CLI"


def test_reach_follows_calls_methods_and_dunders():
    found = unreached()
    # a module function, a method reached by attribute, and a dunder of a
    # reached class
    assert "tilting.verify_ringel" not in found
    assert "algebra.Algebra.truncate_upper" not in found
    assert "strat.FlagFailure.__bool__" not in found


def test_a_name_the_body_binds_is_no_reference():
    """A parameter or local of a function's own is not a reference to a
    function of that name, as the check parameter of build_algebra once
    hid RepMap.check; attributes and imported names still count."""
    body = "def f(check, *rest):\n    import json\n    total = check(0)\n    return total + g(rest).size\n"
    assert _referenced_names(ast.parse(body).body[0]) == {"json", "g", "size"}
