"""Every function of the package either runs under some CLI command or is
named below with the reason it stays.

The reach is a name-reference graph over the package's AST.  It starts at
`cli.main`, the `cmd_*` functions and the module-level statements (which
run on import).  A reached body reaches every function or method whose
name it mentions, as a bare name, an attribute or an imported name; a
reached class reaches its dunder methods.  Names are matched without their
owner, so the graph over-approximates what runs: it can miss dead code
that shares a name with live code, but everything it reports is unreached.
"""

import ast
import pathlib

import qstrat

PACKAGE = pathlib.Path(qstrat.__file__).parent

ALLOWED = {
    "algebra.Algebra.element_by_name": "a basis element by name, as the tests write relations",
    "based.check_ideal_bases": "the only check on the ideal bases that based_from_cartan produces",
    "rep.Rep.check_valid": "re-checks a module against the structure constants, as the tests check each construction",
    "rep.rep_from_json": "module JSON form, read back in the file round-trip tests",
    "rep.rep_to_json": "module JSON form, written in the file round-trip tests",
    "strat.Poset.lower_set": "lower-set closure, from which the tests enumerate the lower sets",
    "strat.Poset.maximal": "maximal elements, dual to the minimal ones the tilting recursion peels",
    "strat.Poset.upper_set": "upper-set closure, which check_ideal_bases reads",
    "strat.costandardize": "the coinduction construction that StandardFamily's costandards are compared against",
    "strat.standardize": "the induction construction that StandardFamily's standards are compared against",
    "strat.verify_certificate": "re-checks a flag certificate's sections independently of the peel that made it",
    "tilting.ringel_double_dual_roundtrip": "the Ringel dual taken twice recovers the source (test_criterion_10_property_suite)",
}


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
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
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


def test_every_unreached_function_is_allowed():
    found = unreached()
    assert sorted(found - set(ALLOWED)) == [], "unreached from the CLI and not allowed"
    assert sorted(set(ALLOWED) - found) == [], "allowed but now reached or gone"


def test_reach_follows_calls_methods_and_dunders():
    found = unreached()
    # a module function, a method reached by attribute, and a dunder of a
    # reached class
    assert "tilting.verify_ringel" not in found
    assert "algebra.Algebra.truncate_upper" not in found
    assert "strat.FlagFailure.__bool__" not in found
