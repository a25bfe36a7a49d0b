"""The frozen value classes: constructors, ``==``, ``hash``, ``repr`` and
immutability, for each of the twelve.  The expected ``repr`` strings were
captured from the frozen-dataclass versions of these classes."""

import re
from fractions import Fraction

import pytest

from msnlib.distributions import (
    AltNegBinomial,
    Binomial,
    DiscreteUniform,
    NegBinomial,
    PhaseType,
    Poisson,
    Recurrence,
)
from msnlib.identities import IdentityResult
from msnlib.linalg import PartitionedChain, RationalMatrix, partition
from msnlib.simulate import MomentEstimate, SimConfig, SimResult

CHAIN = partition(
    RationalMatrix([["1/2", "1/4", "1/4"], ["1/3", "2/3", 0], [0, "1/2", "1/2"]]), [1]
)
CHAIN_FIELDS = ("p", "m_indices", "n_indices", "p_m", "p_mn", "p_nm", "p_n", "s_m", "s_n")
CHAIN_REPR = (
    "PartitionedChain(p=RationalMatrix[1/2 1/4 1/4; 1/3 2/3 0; 0 1/2 1/2],"
    " m_indices=(1,), n_indices=(2, 3), p_m=RationalMatrix[1/2],"
    " p_mn=RationalMatrix[1/4 1/4], p_nm=RationalMatrix[1/3; 0],"
    " p_n=RationalMatrix[2/3 0; 1/2 1/2], s_m=Fraction(1, 2), s_n=None)"
)
ESTIMATE = MomentEstimate(1, 2.5, 0.25)
ESTIMATE_REPR = "MomentEstimate(order=1, mean=2.5, std_error=0.25)"
PT_A = RationalMatrix([["1/2", "1/3"]])
PT_MAT = RationalMatrix([["1/4", "1/4"], [0, "1/2"]])
VARIABLES = ("N", "R", "Nbar", "Rbar")

# class: (keyword arguments in parameter order, the compared fields, repr,
# one compared field changed)
CASES = {
    PartitionedChain: (
        {name: getattr(CHAIN, name) for name in (*CHAIN_FIELDS, "_resolvents")},
        CHAIN_FIELDS,
        CHAIN_REPR,
        {"s_n": Fraction(1, 2)},
    ),
    IdentityResult: (
        {"label": "a2", "ok": False, "cases": 0, "detail": "a2: boom"},
        ("label", "ok", "cases", "detail"),
        "IdentityResult(label='a2', ok=False, cases=0, detail='a2: boom')",
        {"detail": "a2: bang"},
    ),
    SimConfig: (
        {
            "chain": CHAIN, "variable": "R", "k": 1, "replications": 10, "seed": 3,
            "max_steps": 50, "start": ("1",),
        },
        ("chain", "variable", "k", "replications", "seed", "max_steps", "start"),
        f"SimConfig(chain={CHAIN_REPR}, variable='R', k=1, replications=10, seed=3,"
        " max_steps=50, start=(Fraction(1, 1),))",
        {"seed": 4},
    ),
    MomentEstimate: (
        {"order": 1, "mean": 2.5, "std_error": 0.25},
        ("order", "mean", "std_error"),
        ESTIMATE_REPR,
        {"mean": 2.0},
    ),
    SimResult: (
        {
            "estimates": (ESTIMATE, MomentEstimate(2, 7.0, 1.5)), "replications": 10,
            "completed": 9, "truncated": 1,
        },
        ("estimates", "replications", "completed", "truncated"),
        f"SimResult(estimates=({ESTIMATE_REPR}, MomentEstimate(order=2, mean=7.0,"
        " std_error=1.5)), replications=10, completed=9, truncated=1)",
        {"truncated": 0},
    ),
    Binomial: (
        {"n": 7, "p": "2/5"},
        ("n", "p"),
        "Binomial(n=7, p=Fraction(2, 5))",
        {"n": 8},
    ),
    Poisson: ({"lam": "7/3"}, ("lam",), "Poisson(lam=Fraction(7, 3))", {"lam": 2}),
    NegBinomial: (
        {"p": "3/7", "k": 3},
        ("p", "k"),
        "NegBinomial(p=Fraction(3, 7), k=3)",
        {"k": 2},
    ),
    AltNegBinomial: (
        {"p": "3/7", "q": "2/5", "k": 3},
        ("p", "q", "k"),
        "AltNegBinomial(p=Fraction(3, 7), q=Fraction(2, 5), k=3)",
        {"q": 0},
    ),
    DiscreteUniform: ({"n": 9}, ("n",), "DiscreteUniform(n=9)", {"n": 8}),
    Recurrence: (
        {"chain": CHAIN},
        ("chain",),
        f"Recurrence(chain={CHAIN_REPR})",
        {"chain": partition(CHAIN.p, [2])},
    ),
    PhaseType: (
        {"a": PT_A, "mat": PT_MAT},
        ("a", "mat"),
        "PhaseType(a=RationalMatrix[1/2 1/3], mat=RationalMatrix[1/4 1/4; 0 1/2])",
        {"a": RationalMatrix([["1/2", "1/2"]])},
    ),
}

each_class = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


@each_class
def test_keyword_and_positional_construction_agree(cls):
    kwargs, _, text, _ = CASES[cls]
    by_name = cls(**kwargs)
    by_place = cls(*kwargs.values())
    assert type(by_name) is type(by_place) is cls
    assert repr(by_name) == repr(by_place) == text
    assert by_name == by_place


@each_class
def test_equality_and_hash_read_the_compared_fields_only(cls):
    kwargs, compared, _, changed = CASES[cls]
    one, two = cls(**kwargs), cls(**kwargs)
    key = tuple(getattr(one, name) for name in compared)
    assert one == two and not one != two
    assert hash(one) == hash(two) == hash(key)
    other = cls(**{**kwargs, **changed})
    assert one != other and not one == other
    # a value of another class is never equal, whatever its fields
    assert one.__eq__(key) is NotImplemented
    assert one != key


@each_class
def test_assignment_and_deletion_raise(cls):
    kwargs, compared, text, _ = CASES[cls]
    value = cls(**kwargs)
    for name in (*compared, "not_a_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
    for name in compared:
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == text


def test_defaults():
    result = IdentityResult("a1", True, 5)
    assert repr(result) == "IdentityResult(label='a1', ok=True, cases=5, detail='')"
    config = SimConfig(CHAIN, "Nbar", 2, 100, 7)
    assert (config.max_steps, config.start) == (10_000, None)


@pytest.mark.parametrize(
    "make, message",
    [
        # each constructor checks its fields in the order of its parameters
        (lambda: Binomial(-1, 2), "n must be >= 1"),
        (lambda: NegBinomial(2, 0), "need 0 < p <= 1, got 2"),
        (lambda: AltNegBinomial(2, 1, 0), "need 0 < p <= 1, got 2"),
        (lambda: AltNegBinomial(1, 1, 0), "need 0 <= q < 1, got 1"),
        (lambda: SimConfig(CHAIN, "X", 0, 0, 1), f"variable must be one of {VARIABLES}"),
        (lambda: SimConfig(CHAIN, "N", 1, 0, 1), "replications must be >= 1"),
        (
            lambda: SimConfig(CHAIN, "N", 1, 1, 1, 5, (1, 0)),
            "start vector length 2 != side size 1",
        ),
        (lambda: Recurrence(CHAIN.swapped()), "recurrence law needs |M| = 1"),
        (lambda: PhaseType(PT_MAT, PT_MAT), "initial vector must be a single row"),
        (lambda: PhaseType(PT_A, PT_A), "matrix must be square with the same dimension as a"),
    ],
)
def test_constructors_check_in_order(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_chain_resolvents_and_slots_are_not_compared():
    kwargs = CASES[PartitionedChain][0]
    copy = PartitionedChain(**{**kwargs, "_resolvents": CHAIN.swapped()._resolvents})
    copy._slots["commutable"] = True
    assert (copy, hash(copy), repr(copy)) == (CHAIN, hash(CHAIN), CHAIN_REPR)
    # every chain starts with an empty dict of its own
    fresh = PartitionedChain(**kwargs)
    assert fresh._slots == CHAIN.swapped()._slots == {}
    assert fresh._slots is not PartitionedChain(**kwargs)._slots


def test_phase_type_chain_is_built_and_not_compared():
    law, twin = PhaseType(PT_A, PT_MAT), PhaseType(a=PT_A, mat=PT_MAT)
    assert law.chain == law.embedded_chain().swapped()
    assert law == twin and law.chain is not twin.chain
    # a recurrence law on the same chain is of another class
    assert Recurrence(law.chain) != law and law != Recurrence(law.chain)


def test_a_law_keeps_its_lists_on_itself():
    law = Binomial(7, "2/5")
    assert law._lists == {} and law._lists is law._lists
    assert Binomial(7, "2/5")._lists is not law._lists
