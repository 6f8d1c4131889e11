"""Shared fixtures: the running example programs and their configuration set."""

import pytest

from liftcal import abstraction as ab
from liftcal import featexp as fx
from liftcal import lang
from liftcal.lattice import CONST, LiftedStore

S1_SOURCE = """features A, B;
model A | B;
begin
  x := 0; #if (A) { x := x + 1 }; #if (B) { x := 1 }
end
"""

S2_SOURCE = S1_SOURCE.replace("#if (B) { x := 1 }", "#if (B) { x := x - 1 }")

S1_PRIME_SOURCE = """features A, B;
model A | B;
begin
  #if (A) { x := x + 1 }; #if (B) { x := 1 }
end
"""


def chain_source(n):
    """x := 0, then one `#if (Ai) { x := x + 1 }` per feature A1..An, model
    true: x counts the enabled features."""
    names = [f"A{i}" for i in range(1, n + 1)]
    return (
        f"features {', '.join(names)};\nmodel true;\nbegin\n  x := 0; "
        + "; ".join(f"#if ({name}) {{ x := x + 1 }}" for name in names)
        + "\nend\n"
    )


# 2048 configurations and 12 distinct stores
CHAIN_SOURCE = chain_source(11)


@pytest.fixture
def s1():
    return lang.parse_program(S1_SOURCE)


@pytest.fixture
def s2():
    return lang.parse_program(S2_SOURCE)


@pytest.fixture
def s1_prime():
    return lang.parse_program(S1_PRIME_SOURCE)


@pytest.fixture
def space(s1):
    return s1.feature_model.space


@pytest.fixture
def configs(s1):
    return fx.valid_configs(s1.feature_model)


@pytest.fixture
def top_store(configs):
    return LiftedStore.top(configs, CONST)


def parse_phi(text, space=None):
    return fx.parse_featexp(text, space)


def abstraction_of(text, space):
    return ab.parse_abstraction(text, space)
