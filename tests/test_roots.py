"""exactla.roots against sympy's factorization, the test-time reference.

The routine must give the distinct roots of the linear factors in
sympy's factor list, and raise NotSplit exactly when that list has a
factor of degree above 1: on every polynomial the splitting jobs feed it,
and on seeded random split and non-split polynomials over Q and four
prime fields.
"""

import contextlib
import gc
import io
import json
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from qstrat import cli
from qstrat import rep as R
from qstrat.exactla import NotSplit, field_from_name, roots

LOOP = json.loads((Path(__file__).parent / "loop_ladder.json").read_text())["family"]


def sympy_roots(coeffs, field):
    """The roots of the linear factors of sympy's factor list, sorted, or
    None when the list has a factor of degree above 1."""
    p = field.characteristic
    ground = {"modulus": p} if p else {"domain": "QQ"}
    coeffs = [int(c) if p else sympy.Rational(c.numerator, c.denominator) for c in coeffs]
    with warnings.catch_warnings():
        # sympy's modular factor ordering trips its own deprecation warning
        warnings.simplefilter("ignore")
        factors = sympy.factor_list(sympy.Poly(coeffs, sympy.Symbol("x"), **ground))[1]
    if any(fac.degree() > 1 for fac, _ in factors):
        return None
    out = []
    for fac, _ in factors:
        a, b = (field.of(Fraction(int(c.p), int(c.q))) for c in fac.all_coeffs())
        out.append(field.div(field.neg(b), a))
    return sorted(out)


def agrees(coeffs, field):
    """Assert that roots agrees with sympy on coeffs; sympy's roots, or
    None for NotSplit."""
    want = sympy_roots(coeffs, field)
    try:
        got = sorted(roots(coeffs, field))
    except NotSplit:
        got = None
    assert got == want, (field.name, coeffs)
    return want


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    """(field, coefficients) of every call the splitting jobs make:
    tilting and cellular on examples:A, tilting and ringel on the loop
    ladder's windows [0, 2] and [0, 3], over Q and Fp:1000003."""
    gc.collect()  # no derived algebra, and so no tilting memo, outlives its job
    calls = []

    def recording(coeffs, field):
        calls.append((field, list(coeffs)))
        return roots(coeffs, field)

    mp = pytest.MonkeyPatch()
    mp.setattr(R, "roots", recording)
    tmp = tmp_path_factory.mktemp("loop")
    try:
        for field in ("Q", "Fp:1000003"):
            jobs = [["tilting", "examples:A"], ["cellular", "examples:A"]]
            for hi in (2, 3):
                path = tmp / f"loop_{field.split(':')[0]}_{hi}.json"
                path.write_text(json.dumps({"family": dict(LOOP, field=field), "window": [0, hi]}))
                jobs += [["tilting", str(path)], ["ringel", str(path)]]
            for argv in jobs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(["--field", field, *argv]) == 0, argv
    finally:
        mp.undo()
    return calls


def test_collected_polynomials_agree_with_sympy(collected):
    assert {field.name for field, _ in collected} == {"Q", "Fp:1000003"}
    assert {len(coeffs) - 1 for _, coeffs in collected} == {1, 2}
    for field, coeffs in collected:
        assert agrees(coeffs, field) is not None


def _from_roots(rs, lead, field):
    """lead * prod (x - r), leading coefficient first."""
    poly = [lead]
    for r in rs:
        poly = [field.sub(a, field.mul(r, b)) for a, b in zip(poly + [field.zero], [field.zero] + poly)]
    return poly


def _product(a, b, field):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


@pytest.mark.parametrize("name", ["Q", "Fp:2", "Fp:3", "Fp:101", "Fp:1000003"])
def test_seeded_polynomials_agree_with_sympy(name):
    field = field_from_name(name)
    rng = random.Random(name)
    p = field.characteristic

    def element(big):
        if p:
            return field.of(rng.randrange(p))
        span = 10**7 if big else 6
        return field.of(Fraction(rng.randint(-span, span), rng.randint(1, 10**3 if big else 4)))

    # x^2 - n with n not a square: over Q n = 2, over F_p (p odd) the least
    # non-residue; over F_2, where every element is a square, x^2 + x + 1
    if p == 2:
        irreducible = [field.one, field.one, field.one]
    else:
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1) if p else 2
        irreducible = [field.one, field.zero, field.neg(field.of(n))]
    verdicts, seen = [], set()
    for case in range(240):
        big, kind = not p and case % 3 == 1, case % 4
        rs = [element(big) for _ in range(rng.randint(1, 4))]
        if kind == 1:
            rs.append(rs[0])  # a repeated root
        if kind == 2:
            rs[0] = field.zero
        lead = field.of(rng.choice([1, 2, 3, 5, 7, 10**13]))
        poly = _from_roots(rs, field.one if field.is_zero(lead) else lead, field)
        if kind == 3:
            # non-split: by a known irreducible quadratic or a random monic
            other = irreducible if case % 8 == 3 else [field.one] + [element(False) for _ in range(rng.randint(2, 3))]
            poly = _product(poly, other, field)
        seen |= {"repeated"} if kind == 1 else set()
        seen |= {"zero"} if field.zero in rs else set()
        seen |= {"denominator"} if not p and any(Fraction(r).denominator > 1 for r in rs) else set()
        seen |= {"huge"} if any(abs(Fraction(c).numerator) > 10**12 for c in poly) else set()
        verdicts.append(agrees(poly, field))
    assert len(verdicts) == 240
    assert sum(v is None for v in verdicts) >= 30 and sum(v is not None for v in verdicts) >= 150
    assert seen >= ({"repeated", "zero", "denominator", "huge"} if not p else {"repeated", "zero"})
