import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qstrat import examples as EX


@pytest.fixture(scope="session")
def algA():
    return EX.get_example("A")


@pytest.fixture(scope="session")
def algB():
    return EX.get_example("B")


@pytest.fixture(scope="session")
def qsl2_2():
    return EX.get_example("qsl2:2")


@pytest.fixture(scope="session")
def qsl2_4():
    return EX.get_example("qsl2:4")


@pytest.fixture(scope="session")
def semiinf_3():
    return EX.get_example("semiinf:3")
