import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from prestacks import fixtures
from prestacks.gscomplex import GSComplex, NrComplex
from prestacks.graded import GradedComplex

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")

_cache = {}


def get_prestack(name):
    if name not in _cache:
        _cache[name] = fixtures.build(name)
    return _cache[name]


_pair_cache = {}


def get_pair(name):
    """The GS complex and the graded complex of one fixture prestack, both
    with coefficients in the prestack itself."""
    if name not in _pair_cache:
        P = get_prestack(name)
        _pair_cache[name] = (GSComplex(P), GradedComplex(P))
    return _pair_cache[name]


_nr_cache = {}


def get_nr(name):
    """The normalized reduced complex of one fixture prestack."""
    if name not in _nr_cache:
        _nr_cache[name] = NrComplex(get_prestack(name))
    return _nr_cache[name]


@pytest.fixture
def triv_a2():
    return get_prestack("triv-A2")


@pytest.fixture
def triv_a3():
    return get_prestack("triv-A3")


@pytest.fixture
def twist2():
    return get_prestack("scalar-twist-2chain")


@pytest.fixture
def twist3():
    return get_prestack("scalar-twist-3chain")


@pytest.fixture
def rank2():
    return get_prestack("rank2-fiber")


@pytest.fixture
def dual_pair():
    return get_prestack("dual-pair")


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name + ".json")
