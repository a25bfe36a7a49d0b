import gc
import math
import random
import weakref
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_chain
import msnlib.distributions as distributions
import msnlib.markov as markov
import msnlib.msn as msn
from msnlib.distributions import (
    AltNegBinomial,
    Binomial,
    DiscreteUniform,
    NegBinomial,
    PhaseType,
    Poisson,
    Recurrence,
    central_closed,
    central_from_raw,
    central_via_factorial,
    factorial_moments_from_raw,
    raw_from_factorial,
    raw_moment,
    raw_moments,
    spec_from_dict,
)
from msnlib.linalg import ChainError, RationalMatrix, SingularMatrixError, partition
from msnlib.exact import binom
from msnlib.markov import moment_k_convolved, moment_r1_closed, moment_recursive
from msnlib.msn import msn_direct, msn_row_scaled, msn_row_sweep, stirling2_triangle

P_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
LAM_GRID = (Fraction(1, 2), Fraction(1), Fraction(3))


def random_phase_type(rng: random.Random, dim: int) -> PhaseType:
    """Random substochastic block with strictly positive exit mass."""
    rows = []
    for _ in range(dim):
        total = rng.randint(1, 11)
        cuts = sorted(rng.sample(range(0, total + 1), dim - 1)) if dim > 1 else []
        bounds = [0] + cuts + [total]
        rows.append([Fraction(b - a, 12) for a, b in zip(bounds, bounds[1:])])
    mass = rng.randint(1, 12)
    cuts = sorted(rng.sample(range(0, mass + 1), dim - 1)) if dim > 1 else []
    bounds = [0] + cuts + [mass]
    a = [Fraction(b - x, 12) for x, b in zip(bounds, bounds[1:])]
    return PhaseType(a=RationalMatrix.row_vector(a), mat=RationalMatrix(rows))


def all_specs(rng: random.Random):
    specs = []
    for p in P_GRID:
        for n in (1, 3, 8):
            specs.append(Binomial(n, p))
        for k in (1, 2, 4):
            specs.append(NegBinomial(p, k))
            for q in P_GRID:
                specs.append(AltNegBinomial(p, q, k))
    for lam in LAM_GRID:
        specs.append(Poisson(lam))
    for n in (1, 2, 5, 10):
        specs.append(DiscreteUniform(n))
    for dim in (1, 2, 3):
        specs.append(random_phase_type(rng, dim))
    for n_size in (1, 2, 3):
        specs.append(Recurrence(random_chain(rng, 1, n_size)))
    return specs


class TestRawMoments:
    def test_poisson_second(self):
        lam = Fraction(3, 2)
        assert raw_moment(Poisson(lam), 2) == lam + lam**2

    def test_binomial_mean(self):
        assert raw_moment(Binomial(7, Fraction(1, 4)), 1) == Fraction(7, 4)

    def test_uniform_mean(self):
        for n in range(1, 11):
            assert raw_moment(DiscreteUniform(n), 1) == Fraction(n - 1, 2)

    def test_uniform_brute_force(self):
        for n in (1, 2, 5, 9):
            d = DiscreteUniform(n)
            for m in range(7):
                brute = sum(Fraction(v**m, n) for v in range(n))
                assert raw_moment(d, m) == brute

    def test_binomial_brute_force(self):
        from msnlib.exact import binom

        for n in (1, 4, 8):
            for p in P_GRID:
                d = Binomial(n, p)
                for m in range(7):
                    brute = sum(
                        Fraction(v**m) * binom(n, v) * p**v * (1 - p) ** (n - v)
                        for v in range(n + 1)
                    )
                    assert raw_moment(d, m) == brute

    def test_nb_agrees_with_markov_route(self):
        from conftest import anb_chain

        for p in P_GRID:
            chain = anb_chain(p, p)
            for k in range(1, 5):
                for m in range(7):
                    routed = moment_k_convolved(chain, "N", k, m)[0, 0]
                    assert raw_moment(NegBinomial(p, k), m) == routed

    def test_phase_type_matches_embedded_chain(self):
        rng = random.Random(31)
        for dim in (1, 2, 3):
            ph = random_phase_type(rng, dim)
            chain = ph.embedded_chain()
            for m in range(5):
                from msnlib.markov import moment_recursive

                assert raw_moment(ph, m) == moment_recursive(chain, "Rbar1", m)[0, 0]

    def test_mass_is_one(self):
        rng = random.Random(32)
        for spec in all_specs(rng):
            assert raw_moment(spec, 0) == 1


class TestFactorialTransform:
    def test_first_factorial_is_mean(self):
        raw = [Fraction(1), Fraction(7, 3)]
        assert factorial_moments_from_raw(raw) == [1, Fraction(7, 3)]

    def test_poisson_factorials_are_powers(self):
        lam = Fraction(2, 3)
        raw = raw_moments(Poisson(lam), 6)
        fac = factorial_moments_from_raw(raw)
        assert fac == [lam**j for j in range(7)]

    def test_round_trip_random(self):
        rng = random.Random(33)
        for _ in range(10):
            raw = [Fraction(1)] + [
                Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(8)
            ]
            assert raw_from_factorial(factorial_moments_from_raw(raw)) == raw

    def test_requires_unit_mass(self):
        with pytest.raises(ValueError):
            factorial_moments_from_raw([Fraction(2), Fraction(1)])


class TestCentralTransform:
    def test_centering(self):
        rng = random.Random(34)
        raw = [Fraction(1)] + [
            Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(6)
        ]
        assert central_from_raw(raw)[1] == 0

    def test_degenerate(self):
        mu = Fraction(5, 3)
        assert central_from_raw([Fraction(1), mu, mu**2])[2] == 0

    def test_poisson_low_cumulants(self):
        lam = Fraction(5, 4)
        central = central_from_raw(raw_moments(Poisson(lam), 3))
        assert central[2] == lam
        assert central[3] == lam


class TestCentralViaFactorial:
    def test_first_vanishes(self):
        fac = [Fraction(1), Fraction(9, 2)]
        assert central_via_factorial(fac, 1) == 0

    def test_poisson_variance(self):
        lam = Fraction(3)
        fac = [lam**j for j in range(4)]
        fac[0] = Fraction(1)
        assert central_via_factorial(fac, 2) == lam

    def test_binomial_variance(self):
        n, p = 6, Fraction(1, 3)
        fac = factorial_moments_from_raw(raw_moments(Binomial(n, p), 4))
        assert central_via_factorial(fac, 2) == n * p * (1 - p)

    def test_agrees_with_binomial_transform_on_grid(self):
        rng = random.Random(35)
        for spec in all_specs(rng):
            raw = raw_moments(spec, 6)
            fac = factorial_moments_from_raw(raw)
            central = central_from_raw(raw)
            for m in range(7):
                assert central_via_factorial(fac, m) == central[m]


class TestCentralClosed:
    def test_poisson(self):
        for lam in LAM_GRID:
            assert central_closed(Poisson(lam), 2) == lam

    def test_binomial_third(self):
        for n in (2, 5):
            for p in P_GRID:
                want = n * p * (1 - p) * (1 - 2 * p)
                assert central_closed(Binomial(n, p), 3) == want

    def test_negbinomial_variance(self):
        for p in P_GRID:
            for k in (1, 2, 4):
                assert central_closed(NegBinomial(p, k), 2) == k * (1 - p) / p**2

    def test_uniform_variance(self):
        for n in (2, 5, 10):
            assert central_closed(DiscreteUniform(n), 2) == Fraction(n**2 - 1, 12)

    def test_full_grid_matches_oracle(self):
        rng = random.Random(36)
        for spec in all_specs(rng):
            central = central_from_raw(raw_moments(spec, 6))
            for m in range(7):
                assert central_closed(spec, m) == central[m]

    def test_phase_type_deficient_mass(self):
        # a.e < 1 exercises the defect atom; a.e = 1 kills it
        a_def = RationalMatrix.row_vector([Fraction(1, 4), Fraction(1, 4)])
        a_full = RationalMatrix.row_vector([Fraction(1, 2), Fraction(1, 2)])
        mat = RationalMatrix(
            [[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 4), Fraction(1, 4)]]
        )
        for a, defect in ((a_def, Fraction(1, 2)), (a_full, Fraction(0))):
            ph = PhaseType(a=a, mat=mat)
            mean = raw_moment(ph, 1)
            central = central_from_raw(raw_moments(ph, 4))
            for m in range(5):
                assert central_closed(ph, m) == central[m]
            # the defect atom sits at value 1
            assert raw_moment(ph, 0) == 1
            chain = ph.embedded_chain()
            from msnlib.markov import dist_r1

            assert dist_r1(chain.swapped(), 1)[0, 0] == defect


@st.composite
def phase_type_st(draw) -> PhaseType:
    """Substochastic block (rows may sum to 1) with I - mat invertible, and an
    initial row of mass at most 1."""
    dim = draw(st.integers(1, 3))
    rows = []
    for _ in range(dim + 1):
        nums = draw(st.lists(st.integers(0, 9), min_size=dim, max_size=dim))
        den = draw(st.integers(max(sum(nums), 1), sum(nums) + 6))
        rows.append([Fraction(x, den) for x in nums])
    try:
        return PhaseType(
            a=RationalMatrix.row_vector(rows[0]), mat=RationalMatrix(rows[1:])
        )
    except SingularMatrixError:
        assume(False)


@st.composite
def recurrence_st(draw) -> Recurrence:
    """|M| = 1 on a stochastic matrix with strictly positive entries."""
    size = 1 + draw(st.integers(1, 3))
    rows = []
    for _ in range(size):
        nums = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
        rows.append([Fraction(x, sum(nums)) for x in nums])
    return Recurrence(chain=partition(RationalMatrix(rows), [1]))


def _first_step_raw(law, m):
    """M_0..M_m of a chain law by the first-step recursion, not its b-sum."""
    return [moment_recursive(law.chain, "R1", j)[0, 0] for j in range(m + 1)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(phase_type_st(), recurrence_st()), st.integers(0, 6))
def test_matrix_central_closed_matches_oracle(spec, m):
    assert central_closed(spec, m) == central_from_raw(_first_step_raw(spec, m))[m]


@settings(max_examples=60, deadline=None)
@given(st.one_of(phase_type_st(), recurrence_st()), st.integers(0, 6))
def test_chain_law_raw_moments_match_first_step_recursion(law, m):
    assert raw_moments(law, m) == _first_step_raw(law, m)


def test_phase_type_without_initial_mass_is_the_atom_at_one():
    ph = PhaseType(
        a=RationalMatrix.row_vector([0, 0]),
        mat=RationalMatrix.identity(2) * Fraction(1, 2),
    )
    assert raw_moments(ph, 4) == [1] * 5
    assert [central_closed(ph, m) for m in range(5)] == [1, 0, 0, 0, 0]


class TestSpecParsing:
    def test_negbinomial(self):
        spec = spec_from_dict({"type": "negbinomial", "p": "1/2", "k": 3})
        assert spec == NegBinomial(Fraction(1, 2), 3)

    def test_phasetype(self):
        spec = spec_from_dict(
            {"type": "phasetype", "a": ["1/4", "1/2"], "A": [["1/3", "1/6"], ["1/4", "1/4"]]}
        )
        assert isinstance(spec, PhaseType)
        assert raw_moment(spec, 0) == 1

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            spec_from_dict({"type": "zeta"})

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            Poisson(Fraction(0))
        with pytest.raises(ValueError):
            NegBinomial(Fraction(3, 2), 1)
        with pytest.raises(ValueError):
            DiscreteUniform(0)
        with pytest.raises(ValueError):
            AltNegBinomial(Fraction(1, 2), Fraction(1), 2)
        with pytest.raises(ValueError):
            PhaseType(
                a=RationalMatrix.row_vector([Fraction(3, 4), Fraction(1, 2)]),
                mat=RationalMatrix.identity(2) * Fraction(1, 3),
            )


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: NegBinomial(Fraction(1, 2), Fraction(3, 2)), "k"),
        (lambda: AltNegBinomial(Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)), "k"),
        (lambda: Binomial(n=Fraction(5, 2), p=Fraction(1, 2)), "n"),
        (lambda: DiscreteUniform(Fraction(5, 2)), "n"),
        (lambda: raw_moment(Poisson(Fraction(2)), Fraction(1, 2)), "moment order"),
        (lambda: central_closed(Poisson(Fraction(2)), 1.0), "moment order"),
    ],
    ids=["negbinomial_k", "altnegbinomial_k", "binomial_n", "uniform_n", "raw_m", "central_m"],
)
def test_non_integer_size_or_order_is_a_named_error(make, name):
    # NegBinomial(1/2, 3/2) used to give the raw moment 5/2, the others a late TypeError
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        make()


def test_anb_closed_mean_matches_formula():
    # the closed mean ((k-1)(p-q)+k)/p must agree with the moment formula
    for p in P_GRID:
        for q in (Fraction(0), *P_GRID):
            for k in range(1, 6):
                d = AltNegBinomial(p, q, k)
                assert raw_moment(d, 1) == ((k - 1) * (p - q) + k) / p


def test_phase_type_inverts_its_block_once(monkeypatch):
    inverted = []
    inverse = RationalMatrix.inverse

    def counting(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(RationalMatrix, "inverse", counting)
    ph = random_phase_type(random.Random(37), 3)
    raw = raw_moments(ph, 5)
    central = [central_closed(ph, j) for j in range(6)]
    assert [raw_moment(ph, j) for j in range(7)] == raw_moments(ph, 6)
    assert len(inverted) == 1
    assert central == central_from_raw(raw)


def test_phase_type_with_singular_block_is_a_singular_matrix_error():
    with pytest.raises(SingularMatrixError):
        PhaseType(a=RationalMatrix.row_vector([Fraction(1, 2)]), mat=RationalMatrix([[1]]))


def _fractions(low, high):
    return st.fractions(min_value=low, max_value=high, max_denominator=12)


scalar_law_st = st.one_of(
    st.builds(Binomial, st.integers(1, 8), _fractions(0, 1)),
    st.builds(Poisson, _fractions(Fraction(1, 12), 5)),
    st.builds(NegBinomial, _fractions(Fraction(1, 12), 1), st.integers(1, 4)),
    st.builds(
        AltNegBinomial,
        _fractions(Fraction(1, 12), 1),
        _fractions(0, Fraction(11, 12)),
        st.integers(1, 4),
    ),
    st.builds(DiscreteUniform, st.integers(1, 12)),
)


@settings(max_examples=80, deadline=None)
@given(scalar_law_st, st.integers(0, 8))
def test_scalar_central_closed_matches_oracle(law, m):
    assert central_closed(law, m) == central_from_raw(raw_moments(law, m))[m]


def _support_or_touchard_sum(law, m):
    """M_m by a route that never reads a b row: the support sum of a finite
    law, and the Touchard polynomial sum_j S(m, j) lambda^j for Poisson."""
    if isinstance(law, Binomial):
        p, n = law.p, law.n
        return sum(
            Fraction(v**m) * binom(n, v) * p**v * (1 - p) ** (n - v) for v in range(n + 1)
        )
    if isinstance(law, DiscreteUniform):
        return sum(Fraction(v**m, law.n) for v in range(law.n))
    return sum(s * law.lam**j for j, s in enumerate(stirling2_triangle(m)[m]))


@pytest.mark.parametrize("lam", [Fraction(7, 3), Fraction(999)])
def test_poisson_sums_at_a_rational_shift_match_the_defining_sum(lam):
    # E[(X + s)^m] = sum_j b(m, j, s) lambda^j / j!, orders 0..60 in one sweep
    shift = Fraction(-5, 4)
    got = list(islice(distributions._poisson_sums(lam, shift), 61))
    assert got == [
        sum(
            msn_direct(m, j, shift) * lam**j / math.factorial(j)
            for j in range(m + 1)
        )
        for m in range(61)
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.builds(
            Binomial,
            st.integers(1, 12),
            st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), _fractions(0, 1)),
        ),
        st.builds(DiscreteUniform, st.integers(1, 12)),
        st.builds(Poisson, _fractions(Fraction(1, 12), 12)),
    ),
    st.integers(0, 20),
)
def test_scalar_raw_moments_match_support_and_touchard_sums(law, m):
    assert raw_moment(law, m) == _support_or_touchard_sum(law, m)


def _rebuilt(law):
    """An equal law built by its constructor, so its lists start empty."""
    return type(law)(*(getattr(law, name) for name in law._fields))


@settings(max_examples=80, deadline=None)
@given(st.one_of(scalar_law_st, phase_type_st(), recurrence_st()), st.integers(0, 6))
def test_raw_moments_list_matches_each_order(law, m):
    # the list comes from an equal but separate object, so a law's cached
    # list is not compared with itself
    assert raw_moments(_rebuilt(law), m) == [
        raw_moment(law, j) for j in range(m + 1)
    ]


def _r1_closed(law, m):
    """The law's m-th raw moment by the b-sum closed form of M_m(R_1)."""
    chain = law.embedded_chain().swapped() if isinstance(law, PhaseType) else law.chain
    return moment_r1_closed(chain, m)[0, 0]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(phase_type_st(), recurrence_st()),
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
)
def test_chain_law_orders_in_any_order_extend_one_list(law, orders):
    got = [raw_moment(law, j) for j in orders]
    top = max(orders)
    fresh = raw_moments(_rebuilt(law), top)
    assert got == [fresh[j] for j in orders]
    assert fresh == [_r1_closed(law, j) for j in range(top + 1)]
    # callers get copies: changing one does not change the next answer
    raw_moments(law, top)[0] = 7
    assert raw_moments(law, top) == fresh


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(scalar_law_st, phase_type_st(), recurrence_st()),
    st.lists(
        st.tuples(st.sampled_from(["raw", "central"]), st.integers(0, 10)),
        min_size=1,
        max_size=14,
    ),
)
def test_orders_in_any_order_match_a_fresh_object(law, asks):
    # repeated, descending and interleaved raw and central orders on one
    # object step its sweeps and lists; each answer must be the one a fresh
    # object gives for that order alone
    asks += [(kind, j) for kind, j in reversed(asks)]
    fn = {"raw": raw_moment, "central": central_closed}
    got = [fn[kind](law, j) for kind, j in asks]
    assert got == [fn[kind](_rebuilt(law), j) for kind, j in asks]


# one law of each type, made one at a time so each can be the only reference
LAW_MAKERS = [
    lambda: Binomial(7, Fraction(2, 5)),
    lambda: Poisson(Fraction(7, 3)),
    lambda: NegBinomial(Fraction(3, 7), 3),
    lambda: AltNegBinomial(Fraction(3, 7), Fraction(2, 5), 3),
    lambda: DiscreteUniform(9),
    lambda: random_phase_type(random.Random(41), 2),
    lambda: Recurrence(random_chain(random.Random(43), 1, 2)),
]


def _closed_mean(law) -> Fraction:
    """M_1 by each law type's own closed formula, the oracle for order 1 of
    the raw list that the central moments shift by."""
    if isinstance(law, Binomial):
        return law.n * law.p
    if isinstance(law, Poisson):
        return law.lam
    if isinstance(law, NegBinomial):
        return law.k / law.p
    if isinstance(law, AltNegBinomial):
        p, q, k = law.p, law.q, law.k
        return ((k - 1) * (p - q) + k) / p
    if isinstance(law, DiscreteUniform):
        return Fraction(law.n - 1, 2)
    # a chain law: 1 + P_MN (I-P_N)^-1 e
    chain = law.chain
    ones_n = RationalMatrix.ones_column(chain.p_n.rows)
    return 1 + (chain.p_mn @ chain.complement_resolvent @ ones_n)[0, 0]


@pytest.mark.parametrize("make", LAW_MAKERS)
def test_raw_order_one_is_the_closed_mean(make):
    law = make()
    assert raw_moment(law, 1) == _closed_mean(make())
    assert central_closed(law, 1) == 0


@pytest.mark.parametrize("make", LAW_MAKERS)
def test_central_list_reads_raw_orders_0_and_1_once(monkeypatch, make):
    shifts = []
    sums = distributions._sums

    def counting(law, shift):
        for value in sums(law, shift):
            shifts.append(shift)
            yield value

    monkeypatch.setattr(distributions, "_sums", counting)
    law = make()
    central = [central_closed(law, j) for j in range(17)]
    # the shift -M_1 reads orders 0 and 1 of the raw list once, then each
    # central order is one yield at that shift
    assert shifts == [0, 0] + [-_closed_mean(make())] * 17
    assert central == central_from_raw(raw_moments(_rebuilt(law), 16))


def test_laws_keep_no_reference_cycle():
    # a law keeps its moment generators; one whose frame held the law would
    # make a cycle that only the cyclic collector frees
    gc.disable()
    try:
        for make in LAW_MAKERS:
            law = make()
            raw_moments(law, 6)
            for j in range(7):
                raw_moment(law, j)
                central_closed(law, j)
            ref = weakref.ref(law)
            del law
            assert ref() is None, make()
    finally:
        gc.enable()


@pytest.mark.parametrize("make", [LAW_MAKERS[0], LAW_MAKERS[3], LAW_MAKERS[5]])
def test_lower_orders_are_list_reads(monkeypatch, make):
    law = make()
    calls = []
    row_scaled = msn.msn_row_scaled

    def counting(*args):
        calls.append(args)
        return row_scaled(*args)

    # the markov forms and central_via_factorial reach the difference table here
    monkeypatch.setattr(distributions, "msn_row_scaled", counting)
    monkeypatch.setattr(markov, "msn_row_scaled", counting)
    orders = [*range(11), *reversed(range(11))]
    for fn in (raw_moment, central_closed):
        got = [fn(law, j) for j in orders]
        assert got == got[:11] + got[:11][::-1]
    assert calls == []


def test_a_failed_order_fails_again_with_the_same_error():
    # I - P_N is singular; a generator that raised is finished, so the law
    # must start a fresh one rather than read a short list
    matrix = RationalMatrix([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
    law = Recurrence(partition(matrix, [1]))
    for fn in (raw_moment, raw_moment, central_closed, raw_moments):
        with pytest.raises(ChainError, match="I - P_N is singular"):
            fn(law, 2)


def factorial_b_sum_reference(factorial, m, shift):
    """sum_j b(m, j, shift) F_j / j! as a sum of reduced Fraction terms."""
    return sum(
        (
            msn_direct(m, j, shift) * factorial[j] / math.factorial(j)
            for j in range(m + 1)
        ),
        Fraction(0),
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.fractions(-20, 20, max_denominator=15), min_size=1, max_size=14),
    st.fractions(-8, 8, max_denominator=12),
)
def test_factorial_b_sum_matches_fraction_terms(factorial, shift):
    m = len(factorial) - 1
    want = [factorial_b_sum_reference(factorial, j, shift) for j in range(m + 1)]
    sweep = islice(msn_row_sweep(shift), m + 1)
    assert distributions._factorial_b_sums(factorial, sweep) == want
    one_row = [msn_row_scaled(m, shift)]
    assert distributions._factorial_b_sums(factorial, one_row) == want[-1:]


def test_unknown_law_is_a_type_error():
    for fn in (raw_moment, raw_moments, central_closed):
        with pytest.raises(TypeError, match="unknown distribution spec"):
            fn(object(), 2)
