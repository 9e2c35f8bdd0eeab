"""Costandard flags are the duals of standard flags: certify_flag peels
the dual module against the duals of the signed costandards and reads the
certificate back.  Every costandard certification a command makes equals
the socle-side peel it replaced (oracles._peel_costandard): the sections,
witness matrices, end() maps and end target of a certificate, and the
peeled labels and stuck module of a failure.

The commands run on the built-in examples and on the loop ladder
(tests/loop_ladder.json: the monomial ladder tensored with k[z]/(z^2)),
whose stratum algebras k[z]/(z^2) make the proper costandards differ from
the costandards, so the signs select different modules.
"""

import json
import weakref
from pathlib import Path

import pytest

import oracles
from qstrat import algebra as A
from qstrat import based as BD
from qstrat import cli
from qstrat import strat as S
from qstrat.examples import get_example, realize
from qstrat.exactla import field_from_name

LOOP = Path(__file__).parent / "loop_ladder.json"
FIELDS = ["Q", "Fp:1000003"]
BUILT_IN = ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]
COMMANDS = [["verify", "--witnesses"], ["tilting"], ["ringel"], ["cellular"], ["cellular", "--flavor", "BS"]]
PATTERNS = ["+", "-", "+-"]


def loop_file(tmp_path, hi, field):
    """The loop ladder's family file on the window [0, hi] over field."""
    data = json.loads(LOOP.read_text())
    data["family"]["field"] = field
    data["window"] = [0, hi]
    path = tmp_path / f"loop_{hi}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _eps(elements, pattern):
    return "--eps=" + ",".join(f"{e}={pattern[i % len(pattern)]}" for i, e in enumerate(elements))


def _same_module(m, n):
    return m.algebra is n.algebra and m.dims == n.dims and m.act == n.act


def _assert_same(new, ref, module):
    if isinstance(ref, oracles.FlagCertificate):
        assert isinstance(new, S.FlagCertificate) and new.flavor == ref.flavor == "costandard"
        assert new.sections == ref.sections
        assert new.witnesses == ref.witnesses
        got, want = new.end(), ref.end()
        assert got.source is module and got.target is want.target
        assert got.mats == want.mats
    else:
        assert isinstance(new, S.FlagFailure) and (new.flavor, new.peeled) == (ref.flavor, ref.peeled)
        assert _same_module(new.stuck, ref.stuck)


def _gated_jobs(algebra_arg, field, elements, monkeypatch, capsys):
    """Run every command at every sign pattern, each job on fresh
    algebras so that no memo skips a certification, with each costandard
    certification compared with the reference.  Returns the outcomes
    compared, a list per job."""
    real = S.certify_flag
    outcomes = []

    def gated(module, family, flavor):
        got = real(module, family, flavor)
        if flavor == "costandard":
            _assert_same(got, oracles._peel_costandard(module, family), module)
            outcomes[-1].append(bool(got))
        return got

    monkeypatch.setattr(S, "certify_flag", gated)
    for pattern in PATTERNS:
        eps = [] if pattern == "+" else [_eps(elements, pattern)]
        for command in COMMANDS:
            monkeypatch.setattr(A, "_SHARED", weakref.WeakValueDictionary())
            outcomes.append([])
            cli.main(["--field", field, command[0], algebra_arg, *command[1:], *eps])
            capsys.readouterr()
    return outcomes


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUILT_IN)
def test_costandard_flags_match_the_socle_peel_on_examples(name, field, monkeypatch, capsys):
    elements = get_example(name)[1].poset.elements
    outcomes = _gated_jobs(f"examples:{name}", field, elements, monkeypatch, capsys)
    assert all(outcomes)  # every job certifies some costandard flag
    seen = {ok for job in outcomes for ok in job}
    # A is not stratified at every sign, and B's BS jobs peel the flags of
    # a tilting module that is not tilting-rigid: failures are compared
    # there too
    assert seen == ({True, False} if name in ("A", "B") else {True})


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("hi", [2, 3])
def test_costandard_flags_match_the_socle_peel_on_the_loop_ladder(hi, field, tmp_path, monkeypatch, capsys):
    path = loop_file(tmp_path, hi, field)
    alg, spec = realize(json.loads(LOOP.read_text())["family"], 0, hi, field_from_name(field), None)
    fam = S.standard_family(alg, spec)
    for b in alg.vertices:
        assert fam.proper_costandard(b).total_dim() < fam.costandard(b).total_dim()
    outcomes = _gated_jobs(path, field, spec.poset.elements, monkeypatch, capsys)
    assert all(outcomes) and all(ok for job in outcomes for ok in job)


def test_symmetric_flavor_reads_the_all_plus_view(tmp_path, capsys):
    """cellular --flavor BS on the loop ladder [0, 2] at 0=-.  The Ringel
    dual has a minus sign at a stratum whose algebra is not semisimple,
    so the family at the dual's own signs selects a proper standard where
    the all-plus view selects the standard.  The symmetric flavor's cell
    modules are the all-plus view's standards, and the job passes."""
    code = cli.main(["cellular", loop_file(tmp_path, 2, "Q"), "--flavor", "BS", "--eps=0=-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"] and report["data"]["flavor"] == "BS"
    alg, spec = realize(json.loads(LOOP.read_text())["family"], 0, 2, field_from_name("Q"), None)
    structure, rd = BD.extract_cellular(alg, spec.with_signs({"0": "-", "1": "+", "2": "+"}), "BS")
    dual_spec = structure.spec
    signed = S.standard_family(rd.dual_algebra, dual_spec)
    plus = S.standard_family(rd.dual_algebra, dual_spec.with_signs(dict.fromkeys(dual_spec.poset.elements, "+")))
    differ = [b for b in rd.dual_algebra.vertices if signed.signed_standard(b) is not plus.signed_standard(b)]
    assert differ
    for b in differ:
        assert signed.signed_standard(b).total_dim() < plus.signed_standard(b).total_dim()
