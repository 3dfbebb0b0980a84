import pytest

from sitcalc import OracleConfig, corpus_path, parse_bat, parse_theory
from sitcalc.syntax import Exists, Forall, Not, Var, conj


def load_bat(name):
    return parse_bat(corpus_path(name).read_text(), name)


def load_theory(name):
    return parse_theory(corpus_path(name).read_text(), name)


@pytest.fixture(scope="session")
def cfg1():
    return OracleConfig(max_extra=1)


@pytest.fixture(scope="session")
def cfg2():
    return OracleConfig(max_extra=2)


@pytest.fixture(scope="session")
def bw_pipeline():
    return load_bat("bw_pipeline.bat")


@pytest.fixture(scope="session")
def blocks_world():
    return load_bat("blocks_world.bat")


@pytest.fixture(scope="session")
def blocks_stacks():
    return load_bat("blocks_stacks.bat")


@pytest.fixture(scope="session")
def blocks_stacks_raw():
    return load_bat("blocks_stacks_raw.bat")


@pytest.fixture(scope="session")
def decomp_lost():
    return load_bat("decomp_lost.bat")


@pytest.fixture(scope="session")
def insep_lost():
    return load_bat("insep_lost.bat")


@pytest.fixture(scope="session")
def split_lost():
    return load_bat("split_lost.bat")


@pytest.fixture(scope="session")
def chain():
    return load_theory("propositional_chain.bat")


@pytest.fixture(scope="session")
def insep_pair():
    return load_theory("insep_forgetting_t1.bat"), load_theory("insep_forgetting_t2.bat")


def _wide(leaf):
    return conj([leaf] * 10_000), 10_000


def _negations(leaf):
    f = leaf
    for _ in range(3_000):
        f = Not(f)
    return f, 1


def _quantifiers(leaf):
    f = leaf
    for i in range(1_000):
        f = (Forall if i % 2 else Exists)(Var(f"v{i}"), f)
    return f, 1


@pytest.fixture(params=[_wide, _negations, _quantifiers], ids=["wide", "negations", "quantifiers"])
def deep(request):
    """Wraps a leaf formula into a shape past the default recursion limit.

    deep(leaf) returns the formula and the number of leaf copies in it.
    Compare results by set, count or identity, never with == on the whole
    tree: the dataclass __eq__ of a deep tree still recurses.
    """
    return request.param
