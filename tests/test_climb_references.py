"""The tilting climb's extensions and summand choices against the
constructions they replaced.

`rep.extension_middle` builds the middle term of an extension and its
split verdict, not the extension's maps, and `rep.decompose` returns the
summands with repeats, not grouped by isomorphism.  `oracles` keeps the
versions that built the maps (`reference_extension_middle`) and grouped the
summands (`reference_decompose`, read by `reference_select_summand`).  The
climb's calls are replayed against them on the sweep's examples and the
loop ladder [0, 2], at plus, alternating and all-minus signs, over Q and
F_1000003: each middle term and each selected summand must be the
reference's, matrix for matrix.
"""

import contextlib
import io
import json
import weakref
from pathlib import Path

import pytest

from oracles import reference_extension_middle, reference_select_summand
from test_based import SWEEP_EXAMPLES

from qstrat import algebra as A
from qstrat import cli
from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.examples import get_example, realize
from qstrat.exactla import field_from_name

FIELDS = ["Q", "Fp:1000003"]
PATTERNS = ["+", "+-", "-"]
LOOP = "loop:0:2"
# sums T(b) + X are fed to _select_summand on the inputs of at most this
# many labels, which keeps the gate to a few seconds
FED_LABELS = 4


def _content(M):
    """A module's algebra, dimensions and action matrices, entry types
    included."""
    acts = {k: [[(type(x), x) for x in row] for row in m.rows] for k, m in M.act.items()}
    return id(M.algebra), M.dims, acts


def _job(name, field, pattern):
    """A fresh algebra and its spec at the signs of the pattern, cycled
    along the poset."""
    f = field_from_name(field)
    if name == LOOP:
        family = json.loads((Path(__file__).parent / "loop_ladder.json").read_text())["family"]
        alg, spec = realize(family, 0, 2, f, None)
    else:
        alg, spec = get_example(name, f)
    signs = {e: pattern[i % len(pattern)] for i, e in enumerate(spec.poset.elements)}
    return alg, spec.with_signs(signs)


@contextlib.contextmanager
def _checked_climb(monkeypatch):
    """Check every extension_middle and _select_summand call against the
    references while the context is open; yields the call counts."""
    real_middle, real_select = R.extension_middle, TL._select_summand
    calls = {"middle": 0, "select": 0}

    def middle(m, n, cocycle, context):
        E, split = real_middle(m, n, cocycle, context)
        E_ref, _, _, split_ref = reference_extension_middle(m, n, cocycle, context)
        assert _content(E) == _content(E_ref) and split == split_ref
        calls["middle"] += 1
        return E, split

    def select(spec, b, T):
        got = real_select(spec, b, T)
        assert _content(got) == _content(reference_select_summand(spec, b, T))
        calls["select"] += 1
        return got

    with monkeypatch.context() as mp:
        mp.setattr(R, "extension_middle", middle)
        mp.setattr(TL, "_select_summand", select)
        yield calls


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", (*SWEEP_EXAMPLES, LOOP))
def test_climb_matches_the_references(name, field, monkeypatch):
    """The tilting, ringel and cellular commands reach extension_middle
    and _select_summand only by climbing each label's tilting module at
    the job's signs, in label order, on a fresh algebra
    (test_commands_climb_as_the_gate_does); so climbing every label makes
    every call they make.  On inputs of at most FED_LABELS labels, each
    T(b) is then summed with a module X: with
    X = T(b) two summands meet b's stratum and the choice is refused; with
    X the sum of the simples that miss the stratum, the choice is the
    reference's, and is T(b)."""
    total = 0
    for pattern in PATTERNS:
        monkeypatch.setattr(A, "_SHARED", weakref.WeakValueDictionary())
        alg, spec = _job(name, field, pattern)
        with _checked_climb(monkeypatch) as calls:
            tilts = {b: TL._tilting(alg, spec, b) for b in sorted(alg.vertices)}
        total += calls["select"]
        if len(tilts) > FED_LABELS:
            continue
        for b, T in tilts.items():
            fiber = set(spec.fiber(spec.stratum_of[b]))
            with pytest.raises(TL.TiltingError, match="exactly one summand"):
                TL._select_summand(spec, b, R.direct_sum([T, T]))
            outside = [R.simple_rep(alg, v) for v in sorted(alg.vertices) if v not in fiber]
            if not outside:
                continue
            TX = R.direct_sum([T, *outside])
            got = TL._select_summand(spec, b, TX)
            assert _content(got) == _content(reference_select_summand(spec, b, TX))
            assert R.isomorphism(got, T) is not None
    # a label whose lower quotient has two strata climbs at least one step
    lower = (S.lower_quotient(alg, spec, spec.stratum_of[b])[0] for b in alg.vertices)
    assert (total > 0) == any(len({spec.stratum_of[v] for v in q.vertices}) > 1 for q in lower)


@pytest.mark.parametrize("name", ["A", "B", "semiinf:3"])
def test_commands_climb_as_the_gate_does(name, monkeypatch):
    """The extension_middle and _select_summand calls of the tilting,
    ringel and cellular --flavor BS commands are, in order, a prefix of
    the gate's climb over a fresh algebra (all of it for tilting, which
    climbs every label; ringel and cellular stop at the first tilting
    module that fails its flags, as A does at all-minus signs)."""

    def key(*modules):
        return [(M.dims, {k: m.rows for k, m in M.act.items()}) for M in modules]

    def recorded(run):
        """The calls run makes, on algebras shared with no earlier one."""
        seq = []
        real_middle, real_select = R.extension_middle, TL._select_summand

        def middle(m, n, cocycle, context):
            seq.append(("middle", key(m, n, cocycle.source)))
            return real_middle(m, n, cocycle, context)

        def select(spec, b, T):
            seq.append(("select", b, key(T)))
            return real_select(spec, b, T)

        with monkeypatch.context() as mp:
            mp.setattr(A, "_SHARED", weakref.WeakValueDictionary())
            mp.setattr(R, "extension_middle", middle)
            mp.setattr(TL, "_select_summand", select)
            run()
        return seq

    for pattern in PATTERNS:

        def climb():
            alg, spec = _job(name, "Q", pattern)
            for b in sorted(alg.vertices):
                TL._tilting(alg, spec, b)

        climbed = recorded(climb)
        _, spec = _job(name, "Q", pattern)
        eps = ",".join(f"{e}={s}" for e, s in spec.signs.items())
        for command, *rest in (["tilting"], ["ringel"], ["cellular", "--flavor", "BS"]):
            argv = [command, f"examples:{name}", f"--eps={eps}", *rest]

            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) in (0, 1)

            seq = recorded(run)
            assert seq == (climbed if command == "tilting" else climbed[: len(seq)])
        assert climbed
