"""The full pipeline over a prime field large enough for the radical
criterion (characteristic above every algebra dimension involved)."""

import pytest

from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.examples import get_example
from qstrat.exactla import PrimeField


@pytest.fixture(scope="module")
def B11():
    return get_example("B", PrimeField(11))


def test_stratified_all_signs(B11):
    B, spec = B11
    for signs in (
        {"1": "+", "2": "+"},
        {"1": "+", "2": "-"},
        {"1": "-", "2": "+"},
        {"1": "-", "2": "-"},
    ):
        assert S.check_stratified(B, spec.with_signs(signs)).ok


def test_tilting_and_dual(B11):
    B, spec = B11
    signs = {"1": "+", "2": "-"}
    T1, cert, _ = TL.tilting_module(B, spec.with_signs(signs), "1")
    assert T1.total_dim() == 6
    assert cert.sections == ["1", "2", "2"]
    rd = TL.ringel_dual(B, spec.with_signs(signs))
    assert rd.dual_algebra.dim == 14


def test_verdicts_match_characteristic_zero():
    A, spec = get_example("A", PrimeField(17))
    assert S.check_stratified(A, spec.with_signs({"1": "+", "2": "+"})).ok
    assert not S.check_stratified(A, spec.with_signs({"1": "+", "2": "-"})).ok


def test_decompose_mod_p(B11):
    B, _ = B11
    reg = R.free_module(B, dict.fromkeys(B.vertices, 1))
    parts = R.decompose(reg)
    assert sum(p.total_dim() for p in parts) == B.dim
