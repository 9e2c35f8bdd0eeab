"""Built-in example algebras with their stratification data.

Covers the two finite quivers A and B, a few small algebras, and the
semi-infinite families: windows of the half-line and two-sided ladder
quivers with monomial relations (`semiinf`, `dzig`) or commutation
relations (`qsl2`, `gl11`).  The families are data: index-shifted
templates in FAMILIES, written as family files write them, and `realize`
is the one route from a template and a finite window to the window
algebra and its chain stratification, for built-in names and family
files alike.  A template's truncation mode says how the window is cut out
of the infinite algebra: lower-set quotients at the top of a window,
idempotent corners at the bottom, or the window sub-quiver itself where
the relations make the two agree.
"""

from __future__ import annotations

import re

from .algebra import AlgebraError, Arrow, QuiverPresentation, build_algebra
from .exactla import QQ, integer
from .strat import Poset, StratSpec


def _pres(field, vertices, arrows, relations, bound, degree_bound):
    return QuiverPresentation(
        field=field,
        vertices=[str(v) for v in vertices],
        arrows=arrows,
        relations=relations,
        degree_bound=bound if degree_bound is None else degree_bound,
    )


def example_A(field, degree_bound):
    """Two vertices 1 < 2; loop z at 1, u: 1 -> 2, v: 2 -> 1;
    relations z^2 = uv = vuzv = 0.  Dimension 14."""
    arrows = [Arrow("z", "1", "1"), Arrow("u", "1", "2"), Arrow("v", "2", "1")]
    rels = [
        [(field.one, ("z", "z"))],
        [(field.one, ("u", "v"))],
        [(field.one, ("v", "u", "z", "v"))],
    ]
    alg = build_algebra(_pres(field, ["1", "2"], arrows, rels, 7, degree_bound))
    poset = Poset(["1", "2"], [("1", "2")])  # 1 < 2
    return alg, StratSpec(poset, {"1": "1", "2": "2"}, {"1": "+", "2": "+"})


def example_B(field, degree_bound):
    """Two vertices 1 > 2; loops s at 1 and t at 2, y: 1 -> 2;
    relations s^2 = t^2 = ty = 0.  Dimension 6."""
    arrows = [Arrow("s", "1", "1"), Arrow("t", "2", "2"), Arrow("y", "1", "2")]
    rels = [
        [(field.one, ("s", "s"))],
        [(field.one, ("t", "t"))],
        [(field.one, ("t", "y"))],
    ]
    alg = build_algebra(_pres(field, ["1", "2"], arrows, rels, 4, degree_bound))
    poset = Poset(["1", "2"], [("2", "1")])  # 2 < 1
    return alg, StratSpec(poset, {"1": "1", "2": "2"}, {"1": "+", "2": "+"})


def semisimple_pair(field, degree_bound):
    """k x k: two vertices, no arrows."""
    alg = build_algebra(_pres(field, ["1", "2"], [], [], 2, degree_bound))
    poset = Poset(["1", "2"], [])
    return alg, StratSpec(poset, {"1": "1", "2": "2"}, {"1": "+", "2": "+"})


def single_point(field, degree_bound):
    alg = build_algebra(_pres(field, ["1"], [], [], 2, degree_bound))
    poset = Poset(["1"], [])
    return alg, StratSpec(poset, {"1": "1"}, {"1": "+"})


# -- the semi-infinite families --------------------------------------------

# Arrows y_i: i -> i+1 and x_i: i+1 -> i, with y_{i+1} y_i = x_i x_{i+1} =
# x_i y_i = 0; the order is reversed, so 0 is the largest label of the half
# line.  A window of the infinite algebra (a corner of the half line for
# semiinf; a corner of the lower-set quotient that kills lo - 1 for dzig)
# is the algebra of the window sub-quiver, because the relations are
# monomial: a window path is zero iff it contains a relation, every path
# out of the window and back passes through x_hi y_hi, and the quotient
# kills the paths through lo - 1.  Dimension 4 (hi - lo) + 1.
_MONOMIAL_LADDER = {
    "arrows": [
        {"name": "y{i}", "src": "{i}", "tgt": "{i+1}"},
        {"name": "x{i}", "src": "{i+1}", "tgt": "{i}"},
    ],
    "relations": [
        [{"coeff": "1", "path": ["y{i+1}", "y{i}"]}],
        [{"coeff": "1", "path": ["x{i}", "x{i+1}"]}],
        [{"coeff": "1", "path": ["x{i}", "y{i}"]}],
    ],
    "order": "reversed",
    "truncation": "naive",
    "degree_bound": 5,
}

# Arrows x_i: i -> i+1 and y_i: i+1 -> i, with x_{i+1} x_i = y_i y_{i+1} = 0
# and x_i y_i = y_{i+1} x_{i+1}; natural order.  A window is a lower-set
# quotient, built one step wide and cut down, because killing the
# idempotent above the window also kills the loop that the commutation
# relation drags below it; gl11 then takes the corner at the bottom.
_COMMUTING_LADDER = {
    "arrows": [
        {"name": "x{i}", "src": "{i}", "tgt": "{i+1}"},
        {"name": "y{i}", "src": "{i+1}", "tgt": "{i}"},
    ],
    "relations": [
        [{"coeff": "1", "path": ["x{i+1}", "x{i}"]}],
        [{"coeff": "1", "path": ["y{i}", "y{i+1}"]}],
        [
            {"coeff": "1", "path": ["x{i}", "y{i}"]},
            {"coeff": "-1", "path": ["y{i+1}", "x{i+1}"]},
        ],
    ],
    "order": "natural",
    "truncation": "lower",
    "degree_bound": 6,
}

FAMILIES = {
    "semiinf": _MONOMIAL_LADDER,  # the half line, semiinf:N is the window [0, N]
    "qsl2": _COMMUTING_LADDER,  # the half line, qsl2:N is the window [0, N]
    "gl11": dict(_COMMUTING_LADDER, truncation="interval"),  # all integers
    "dzig": _MONOMIAL_LADDER,  # all integers
}

_INDEX = re.compile(r"\{i([+-][0-9]+)?\}")


def _instances(text, shifts):
    """An index template such as "x{i+1}", parsed once and instantiated at
    each shift."""
    parts = _INDEX.split(text)  # literal, shift, literal, ..., literal
    form = "{}".join(p.replace("{", "{{").replace("}", "}}") for p in parts[::2])
    offsets = [int(s or 0) for s in parts[1::2]]
    return [form.format(*[i + s for s in offsets]) for i in shifts]


def _paths(path, shifts):
    """A path template (arrow-name templates) as its path at each shift."""
    if not path:
        return [()] * len(shifts)
    return list(zip(*(_instances(a, shifts) for a in path)))


def _offsets(texts):
    """The index offsets of some templates, 1 and 0 for "x{i+1}", "{i}";
    [0] when they have none."""
    return [int(s or 0) for t in texts for s in _INDEX.split(t)[1::2]] or [0]


def family_presentation(fam, lo, hi, field):
    """A family's templates instantiated on the window [lo, hi]: each arrow
    at every shift that puts its source and target in the window, and each
    relation at every shift whose arrows all exist.  Relations go shift by
    shift, all of shift i before any of shift i + 1; they give the same
    algebra in any order, but bounded completion of the commuting ladder
    does about 70x less work in this one.
    """
    vertices = [str(i) for i in range(lo, hi + 1)]
    inside = set(vertices)
    arrows, names, indices = [], set(), []
    for tpl in fam["arrows"]:
        ends = _offsets([tpl["src"], tpl["tgt"]])
        shifts = range(lo - min(ends), hi - max(ends) + 1)
        for name, src, tgt in zip(*(_instances(tpl[key], shifts) for key in ("name", "src", "tgt"))):
            if src in inside and tgt in inside and name not in names:
                arrows.append(Arrow(name, src, tgt))
                names.add(name)
        if shifts:
            tags = _offsets([tpl["name"]])
            indices += [shifts[0] + min(tags), shifts[-1] + max(tags)]
    # a relation's arrows exist only where their names' indices are those
    # of some arrow named above
    rels = fam.get("relations", [])
    tags = _offsets([a for rel in rels for term in rel for a in term["path"]])
    shifts = range(min(indices, default=lo) - max(tags), max(indices, default=hi) - min(tags) + 1)
    templates = [[(field.of(term["coeff"]), _paths(term["path"], shifts)) for term in rel] for rel in rels]
    relations = []
    for k in range(len(shifts)):
        for rel in templates:
            terms = [(c, paths[k]) for c, paths in rel]
            if terms and all(a in names for _, path in terms for a in path):
                relations.append(terms)
    bound = integer(fam.get("degree_bound", 8))
    if bound is None:
        raise AlgebraError(f"degree_bound must be an integer, not {fam['degree_bound']!r}")
    return QuiverPresentation(field, vertices, arrows, relations, bound)


def realize(fam, lo, hi, field, degree_bound):
    """A family on the window [lo, hi]: (algebra, chain stratification),
    built with degree_bound in place of the family's own when given.

    The truncation mode picks the realization: "naive" builds the window
    sub-quiver; "lower" builds one step above the window and kills the
    top idempotent; "interval" builds one step beyond each end, kills the
    top and takes the corner on the window.  The stratification is the
    chain of the window's labels, in natural or reversed order, each label
    its own stratum with sign +.
    """
    if hi < lo:
        raise AlgebraError("empty family window")
    if degree_bound is not None:
        fam = dict(fam, degree_bound=degree_bound)
    labels = [str(i) for i in range(lo, hi + 1)]
    mode = fam.get("truncation", "naive")
    if mode == "naive":
        alg = build_algebra(family_presentation(fam, lo, hi, field))
    elif mode == "lower":
        big = build_algebra(family_presentation(fam, lo, hi + 1, field))
        alg, _ = big.truncate_lower({str(hi + 1)})
    elif mode == "interval":
        big = build_algebra(family_presentation(fam, lo - 1, hi + 1, field))
        cut, _ = big.truncate_lower({str(hi + 1)})
        alg = cut.truncate_upper(set(labels))
    else:
        raise AlgebraError(f"unknown truncation mode {mode!r}")
    covers = list(zip(labels, labels[1:]))
    if fam.get("order", "natural") == "reversed":
        covers = [(b, a) for a, b in covers]
    spec = StratSpec(Poset(labels, covers), {v: v for v in labels}, {v: "+" for v in labels})
    return alg, spec


class ExampleError(AlgebraError):
    """A name that fits no pattern of EXAMPLE_NAMES (family, parameter
    count, integer parameters), or whose window is empty."""


EXAMPLE_NAMES = ["A", "B", "kxk", "point", "semiinf:N", "qsl2:N", "gl11:LO:HI", "dzig:LO:HI"]
_SMALL = {"A": example_A, "B": example_B, "kxk": semisimple_pair, "point": single_point}


def get_example(name, field=QQ, degree_bound=None):
    """Resolve an example name such as "A", "B", "semiinf:3", "qsl2:4",
    "gl11:-2:2", "dzig:-2:2", built with degree_bound in place of its
    presentation's own when given.  Returns (algebra, strat_spec)."""
    key, *params = name.split(":")
    patterns = {n.split(":")[0]: n for n in EXAMPLE_NAMES}
    if key not in patterns:
        raise ExampleError(f"unknown example {name!r}")
    if len(params) != patterns[key].count(":"):
        raise ExampleError(f"example {name!r} does not match {patterns[key]!r}")
    window = [integer(p) for p in params]
    for p, w in zip(params, window):
        if w is None:
            raise ExampleError(f"example {name!r}: {p!r} is not an integer")
    if key in _SMALL:
        return _SMALL[key](field, degree_bound)
    lo, hi = [0, *window] if len(window) == 1 else window  # N is the window [0, N]
    if lo > hi:
        raise ExampleError(f"example {name!r} has an empty window")
    return realize(FAMILIES[key], lo, hi, field, degree_bound)
