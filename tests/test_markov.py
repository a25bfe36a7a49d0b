import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    anb_chain,
    circulant_block_chain,
    dense_prime_chain,
    random_chain,
    renewal_chain,
    rowsum_chain,
    scalar_block_chain,
)
import msnlib.markov as markov
from msnlib.exact import binom
from msnlib.linalg import ChainError, PartitionedChain, RationalMatrix, SingularMatrixError
from msnlib.linalg import partition
from msnlib.markov import (
    CommutabilityError,
    PreconditionError,
    _nb_mixture,
    _nb_mixture_sums,
    b_power_sum,
    dist_n1,
    dist_r1,
    moment_anb,
    moment_k_convolved,
    moment_n1_closed,
    moment_nb,
    moment_nk_commutable,
    moment_nk_rowsum,
    moment_recursive,
    moment_renewal,
    moment_r1_closed,
    moment_rk_commutable,
    moment_rk_scalar,
)
from msnlib.msn import msn_direct, msn_row_scaled


fractions_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)),
)


@st.composite
def substochastic_st(draw, dim: int) -> RationalMatrix:
    """Nonnegative rows summing to at most 1 (a row may sum to exactly 1)."""
    rows = []
    for _ in range(dim):
        nums = draw(st.lists(st.integers(0, 9), min_size=dim, max_size=dim))
        den = draw(st.integers(max(sum(nums), 1), sum(nums) + 6))
        rows.append([Fraction(x, den) for x in nums])
    return RationalMatrix(rows)


@st.composite
def positive_chain_st(draw, max_m: int = 3, max_n: int = 3):
    """A stochastic matrix with strictly positive entries, split as (|M|, |N|);
    both diagonal blocks are then strictly substochastic."""
    m_size = draw(st.integers(1, max_m))
    size = m_size + draw(st.integers(1, max_n))
    rows = []
    for _ in range(size):
        nums = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
        rows.append([Fraction(x, sum(nums)) for x in nums])
    return partition(RationalMatrix(rows), list(range(1, m_size + 1)))


def b_power_sum_reference(terms, a):
    """sum_r sum_j c_rj A^j V^j x_r, term by term with explicit powers."""
    v = (RationalMatrix.identity(a.rows) - a).inverse()
    x = terms[0][1]
    acc = RationalMatrix([[0] * x.cols] * x.rows)
    for coeffs, x in terms:
        for j, c in enumerate(coeffs):
            acc = acc + c * (a**j @ v**j @ x)
    return acc


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            substochastic_st(n),
            st.integers(1, 3).flatmap(
                lambda c: st.lists(
                    st.lists(
                        st.lists(fractions_st, min_size=c, max_size=c),
                        min_size=n,
                        max_size=n,
                    ),
                    min_size=1,
                    max_size=3,
                )
            ),
        )
    ),
    st.lists(
        st.lists(st.integers(-60, 60), min_size=1, max_size=8), min_size=3, max_size=3
    ),
    st.integers(1, 12),
)
def test_b_power_sum_matches_reference_loop(a_and_xs, coeffs, scale):
    # the x_r have denominators of their own, and the coefficient lists
    # lengths of their own
    a, xs = a_and_xs
    try:
        v = (RationalMatrix.identity(a.rows) - a).inverse()
    except SingularMatrixError:
        assume(False)
    terms = [(c, RationalMatrix(x)) for c, x in zip(coeffs, xs)]
    want = Fraction(1, scale) * b_power_sum_reference(terms, a)
    assert b_power_sum(terms, v, scale) == want


def nb_sum_reference(w, r, k, m):
    """sum_j C(j+r-1, j) b(m, j, k) w^j by Fraction Horner over the defining sum."""
    total = Fraction(0)
    for j in reversed(range(m + 1)):
        total = total * w + binom(j + r - 1, j) * msn_direct(m, j, k)
    return total


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=12)),
    st.integers(0, 5),
    st.one_of(
        st.fractions(-12, 12, max_denominator=12),
        # central shifts k - M_1 with a NegBinomial mean M_1 = k / p
        st.builds(
            lambda k, p: k - k / p,
            st.integers(1, 5),
            st.fractions(Fraction(1, 12), 1, max_denominator=12),
        ),
    ),
    st.integers(0, 14),
)
def test_one_row_mixture_matches_fraction_horner(w, r, k, m):
    # one row with the integer x = 0 is the plain negative-binomial sum
    want = nb_sum_reference(w, r, k, m)
    assert _nb_mixture(*msn_row_scaled(m, k), w, 0, 0, r) == want


probability_st = st.fractions(Fraction(1, 12), Fraction(11, 12), max_denominator=12)


@st.composite
def anb_sum_args_st(draw):
    """(w, q, k, m, shift) of the alternating sum, with q = 0 or 0 < q < 1 and
    a mixed-sign rational shift or the central shift -M_1 of an AltNegBinomial."""
    k = draw(st.integers(1, 5))
    q = draw(st.one_of(st.just(Fraction(0)), probability_st))
    p = draw(st.one_of(st.just(Fraction(1)), probability_st))
    shift = draw(
        st.one_of(
            st.just(Fraction(0)),
            st.fractions(-12, 12, max_denominator=12),
            st.just(-((k - 1) * (p - q) + k) / p),
        )
    )
    return (1 - p) / p, q, k, draw(st.integers(0, 14)), shift


@settings(max_examples=150, deadline=None)
@given(anb_sum_args_st())
def test_alternating_sum_matches_reference_terms(args):
    w, q, k, m, shift = args
    want = sum(
        binom(k - 1, r) * (1 - q) ** r * q ** (k - 1 - r)
        * nb_sum_reference(w, r + 1, k + r + shift, m)
        for r in range(k)
    )
    assert _nb_mixture(*msn_row_scaled(m, k + shift), w, 1 - q, k - 1, 1) == want


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=12)),
    st.one_of(st.just(0), st.just(Fraction(1)), probability_st),
    st.integers(0, 4),
    st.integers(0, 4),
    st.fractions(-12, 12, max_denominator=12),
)
def test_mixture_sweep_matches_one_order_mixtures(w, x, n, r0, base):
    # orders 0..8 of the swept mixture against one difference table per order
    sweep = _nb_mixture_sums(w, x, n, r0, base)
    for m, got in zip(range(9), sweep):
        assert got == _nb_mixture(*msn_row_scaled(m, base), w, x, n, r0)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.just(Fraction(1)), probability_st),
    st.one_of(st.just(Fraction(0)), probability_st),
    st.integers(1, 5),
    st.integers(0, 14),
)
def test_rk_scalar_matches_reference_terms(p, s_n, k, m):
    # two states: leave M with probability p, stay in N with probability s_n
    chain = anb_chain(p, s_n)
    w = s_n / (1 - s_n)
    want = sum(
        binom(k, r) * p**r * (1 - p) ** (k - r) * nb_sum_reference(w, r, k + r, m)
        for r in range(k + 1)
    )
    assert moment_rk_scalar(chain, k, m) == want


def _count_products(monkeypatch) -> list:
    products = []
    matmul = RationalMatrix.__matmul__

    def counting(self, other):
        products.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counting)
    return products


def test_commutable_forms_at_k1_skip_zero_powers_and_q(monkeypatch):
    chain = random_chain(random.Random(3), 2, 2)
    # invert both resolvents before counting (inversion forms no product anyway)
    chain.resolvent
    chain.complement_resolvent
    products = _count_products(monkeypatch)
    moment_rk_commutable(chain, 1, 4)
    # only V @ P_NM and P_MN @ the sum; no Qbar, no P_M^0 and no I @ P_M
    assert len(products) == 2
    products.clear()
    moment_nk_commutable(chain, 1, 4)
    # only V @ P_MN
    assert len(products) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_commutable_forms_run_one_horner_pass(monkeypatch, k):
    chain = scalar_block_chain(random.Random(40 + k), 2, 3)
    for variable, form in (("N", moment_nk_commutable), ("R", moment_rk_commutable)):
        steps = []
        minus_identity = markov._minus_identity

        def counting(num, s):
            steps.append(s)
            return minus_identity(num, s)

        monkeypatch.setattr(markov, "_minus_identity", counting)
        got = form(chain, k, 4)
        monkeypatch.undo()
        # one step matrix N - sI, so one Horner in it, whatever k is
        assert len(steps) == 1
        assert got == moment_k_convolved(chain, variable, k, 4)


def _count_integer_products(monkeypatch) -> list:
    """Record every matrix product of the recursive route: each ``@`` and
    each integer product of the route's own (one per formed order)."""
    products = _count_products(monkeypatch)
    product = markov._product

    def counting(rows, cols):
        products.append((rows, cols))
        return product(rows, cols)

    monkeypatch.setattr(markov, "_product", counting)
    return products


@pytest.mark.parametrize("m", [0, 1, 6])
def test_first_step_forms_one_product_per_order(monkeypatch, m):
    chain = random_chain(random.Random(5), 2, 3)
    chain.resolvent
    products = _count_integer_products(monkeypatch)
    moments, sums, e, delta = markov._first_step(chain, m)
    # u @ P_MN for M_0, then (U - delta I) Acc_m for each order m >= 1
    assert len(products) == 1 + m
    monkeypatch.undo()
    moments = [RationalMatrix._reduced(x, e * delta**j) for j, x in enumerate(moments)]
    sums = [RationalMatrix._reduced(x, e * delta**j) for j, x in enumerate(sums)]
    assert moments == [moment_n1_closed(chain, j) for j in range(m + 1)]
    assert sums == [
        sum((binom(j, i) * moments[i] for i in range(j)), moments[j])
        for j in range(m + 1)
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 4])
@pytest.mark.parametrize("variable", ["N", "R", "Nbar", "Rbar"])
def test_convolved_forms_one_product_per_order(monkeypatch, variable, k, m):
    chain = scalar_block_chain(random.Random(8), 3, 2)
    chain.resolvent
    chain.complement_resolvent
    closed = moment_nk_commutable if variable[0] == "N" else moment_rk_commutable
    want = closed(chain.swapped() if variable.endswith("bar") else chain, k, m)
    products = _count_integer_products(monkeypatch)
    assert moment_k_convolved(chain, variable, k, m) == want
    counts = [len(products)]
    if k == 1:
        # the first step (1 + m), and R_1's order m only
        expected = 1 + m + (variable[0] == "R")
        products.clear()
        assert moment_recursive(chain, variable + "1", m) == want
        counts.append(len(products))
    else:
        # the first step (1 + m), the right base (m + 1), k - 2 full rounds
        # of m + 1 orders and the last round's order m
        expected = k * (m + 1) + 1
    assert counts == [expected] * len(counts)


def geometric_chain(p: Fraction):
    """Two states, leave M with probability p, Mbar row [2/3, 1/3]."""
    return partition(
        RationalMatrix([[1 - p, p], [Fraction(2, 3), Fraction(1, 3)]]), [1]
    )


class TestDistributions:
    def test_passage_is_geometric(self):
        c = geometric_chain(Fraction(1, 2))
        for n in range(1, 10):
            assert dist_n1(c, n)[0, 0] == Fraction(1, 2) ** n

    def test_passage_at_one_is_exit_block(self, two_state_chain):
        assert dist_n1(two_state_chain, 1) == two_state_chain.p_mn

    def test_total_passage_mass(self):
        rng = random.Random(5)
        for _ in range(5):
            c = random_chain(rng, rng.randint(1, 3), rng.randint(1, 3))
            mass = moment_recursive(c, "N1", 0)
            ones = RationalMatrix.ones_column(len(c.n_indices))
            assert mass @ ones == RationalMatrix.ones_column(len(c.m_indices))

    @pytest.mark.parametrize("law", [dist_n1, dist_r1])
    @pytest.mark.parametrize("n", [2.5, Fraction(5, 2)])
    def test_non_integer_n_is_a_named_error(self, two_state_chain, law, n):
        with pytest.raises(PreconditionError, match=f"^n must be an integer, got {n}$"):
            law(two_state_chain, n)
        with pytest.raises(PreconditionError, match="^n must be >= 1$"):
            law(two_state_chain, 0)

    def test_recurrence_at_one(self, two_state_chain):
        assert dist_r1(two_state_chain, 1) == two_state_chain.p_m

    def test_recurrence_example(self, two_state_chain):
        assert dist_r1(two_state_chain, 3)[0, 0] == Fraction(1, 9)

    def test_recurrence_factors_through_swapped_passage(self):
        rng = random.Random(6)
        c = random_chain(rng, 2, 2)
        for n in range(2, 8):
            assert dist_r1(c, n) == c.p_mn @ dist_n1(c.swapped(), n - 1)

    def test_single_exit_column_form(self):
        # |Mbar| = 1: P(N_1 = n) = P_M^(n-1) (I - P_M) e_M
        rng = random.Random(7)
        c = renewal_chain(rng, 3, absorbing_loop=True)
        ident = RationalMatrix.identity(3)
        ones = RationalMatrix.ones_column(3)
        for n in range(1, 21):
            assert dist_n1(c, n) == c.p_m ** (n - 1) @ (ident - c.p_m) @ ones

    def test_shifted_absorption_identity(self):
        # |Mbar| = 1: P(Rbar_1 = n+1) = P_NM P_M^(n-1) (I - P_M) e_M
        rng = random.Random(8)
        c = renewal_chain(rng, 2, absorbing_loop=True)
        sw = c.swapped()
        ident = RationalMatrix.identity(2)
        ones = RationalMatrix.ones_column(2)
        for n in range(1, 21):
            lhs = dist_r1(sw, n + 1)
            rhs = c.p_nm @ c.p_m ** (n - 1) @ (ident - c.p_m) @ ones
            assert lhs == rhs


class TestRecursiveMoments:
    def test_geometric_mean(self):
        c = geometric_chain(Fraction(1, 2))
        assert moment_recursive(c, "N1", 1) == RationalMatrix([[2]])

    def test_recurrence_mean(self, two_state_chain):
        assert moment_recursive(two_state_chain, "R1", 1) == RationalMatrix(
            [[Fraction(7, 4)]]
        )

    def test_mass(self, two_state_chain):
        u = (RationalMatrix.identity(1) - two_state_chain.p_m).inverse()
        assert moment_recursive(two_state_chain, "N1", 0) == u @ two_state_chain.p_mn

    def test_barred_variables_swap_roles(self, two_state_chain):
        sw = two_state_chain.swapped()
        for m in range(4):
            assert moment_recursive(two_state_chain, "Nbar1", m) == moment_recursive(
                sw, "N1", m
            )
            assert moment_recursive(two_state_chain, "Rbar1", m) == moment_recursive(
                sw, "R1", m
            )

    def test_rejects_unknown_variable(self, two_state_chain):
        with pytest.raises(ValueError):
            moment_recursive(two_state_chain, "N2", 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda chain: moment_recursive(chain, "N2", 1),
            "variable must be one of ('N1', 'R1', 'Nbar1', 'Rbar1'), got 'N2'",
        ),
        (
            lambda chain: moment_k_convolved(chain, "X", 2, 1),
            "variable must be N, R, Nbar or Rbar, got 'X'",
        ),
    ],
    ids=["recursive", "convolved"],
)
def test_unknown_variable_is_a_named_error(two_state_chain, call, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call(two_state_chain)


class TestClosedForms:
    def test_mass_term(self, two_state_chain):
        u = (RationalMatrix.identity(1) - two_state_chain.p_m).inverse()
        assert moment_n1_closed(two_state_chain, 0) == u @ two_state_chain.p_mn

    def test_geometric_first_and_second(self):
        c = geometric_chain(Fraction(1, 2))
        assert moment_n1_closed(c, 1) == RationalMatrix([[2]])
        assert moment_n1_closed(c, 2) == RationalMatrix([[6]])

    def test_recurrence_closed(self, two_state_chain):
        assert moment_r1_closed(two_state_chain, 1) == RationalMatrix(
            [[Fraction(7, 4)]]
        )

    def test_recurrence_second_moment_vs_series(self, two_state_chain):
        # sum_n n^2 P(R_1 = n): the n = 1 atom plus the geometric tail
        # P(R_1 = n) = 1/2 * x^(n-2) * 2/3 for n >= 2, summed with the exact
        # closed forms sum (n+2)^2 x^n = x(1+x)/(1-x)^3 + 4x/(1-x)^2 + 4/(1-x)
        x = Fraction(1, 3)
        tail = (
            x * (1 + x) / (1 - x) ** 3 + 4 * x / (1 - x) ** 2 + 4 / (1 - x)
        )
        want = Fraction(1, 2) + Fraction(1, 2) * Fraction(2, 3) * tail
        assert moment_r1_closed(two_state_chain, 2)[0, 0] == want

    @settings(max_examples=40, deadline=None)
    @given(positive_chain_st(), st.integers(0, 8))
    def test_closed_equals_recursive_on_random_chains(self, c, m):
        assert moment_n1_closed(c, m) == moment_recursive(c, "N1", m)
        assert moment_r1_closed(c, m) == moment_recursive(c, "R1", m)

    def test_mean_passage_solves_first_step_system(self):
        # classical mean-first-passage equations: t = e + P_M t, so the row
        # sums of M_1(N_1) must solve (I - P_M) t = e exactly
        rng = random.Random(20240923)
        for _ in range(8):
            c = random_chain(rng, rng.randint(1, 4), rng.randint(1, 4))
            m_size = len(c.m_indices)
            ones_m = RationalMatrix.ones_column(m_size)
            ones_n = RationalMatrix.ones_column(len(c.n_indices))
            t = moment_recursive(c, "N1", 1) @ ones_n
            assert (RationalMatrix.identity(m_size) - c.p_m) @ t == ones_m


def convolved_reference(chain, variable, k, m):
    """M_m(R_k) / M_m(N_k) by list-based convolution with @, + and scalar *:
    every order 0..m at every level, and N_1 recomputed through the chain
    swapped twice."""

    def n1_list(c, m_max):
        out = [c.resolvent @ c.p_mn]
        for mm in range(1, m_max + 1):
            acc = RationalMatrix([[0] * c.p_mn.cols] * c.p_mn.rows)
            for j in range(mm):
                acc = acc + binom(mm, j) * out[j]
            out.append(c.resolvent @ (c.p_mn + c.p_m @ acc))
        return out

    def r1_list(c, m_max):
        nbar = n1_list(c.swapped(), m_max)
        out = []
        for mm in range(m_max + 1):
            acc = RationalMatrix([[0] * c.p_nm.cols] * c.p_nm.rows)
            for j in range(mm + 1):
                acc = acc + binom(mm, j) * nbar[j]
            out.append(c.p_m + c.p_mn @ acc)
        return out

    def convolve(first, second, mm):
        acc = binom(mm, 0) * (first[mm] @ second[0])
        for j in range(1, mm + 1):
            acc = acc + binom(mm, j) * (first[mm - j] @ second[j])
        return acc

    def rk_list(c, kk):
        base = out = r1_list(c, m)
        for _ in range(kk - 1):
            out = [convolve(out, base, mm) for mm in range(m + 1)]
        return out

    def nk_list(c, kk):
        n1 = n1_list(c, m)
        if kk == 1:
            return n1
        rbar = rk_list(c.swapped(), kk - 1)
        return [convolve(n1, rbar, mm) for mm in range(m + 1)]

    target = chain.swapped() if variable.endswith("bar") else chain
    lists = rk_list if variable[0] == "R" else nk_list
    return lists(target, k)[m]


@settings(max_examples=150, deadline=None)
@given(
    positive_chain_st(),
    st.sampled_from(["N", "R", "Nbar", "Rbar"]),
    st.integers(1, 3),
    st.integers(0, 5),
)
def test_convolved_matches_list_reference(chain, variable, k, m):
    assert moment_k_convolved(chain, variable, k, m) == convolved_reference(
        chain, variable, k, m
    )


@st.composite
def closed_complement_chain_st(draw):
    """Strictly positive rows out of M; N is closed (P_NM = 0, P_N
    stochastic), so I - P_N is singular."""
    m_size = draw(st.integers(1, 3))
    size = m_size + draw(st.integers(1, 3))
    rows = []
    for i in range(size):
        nums = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
        if i >= m_size:
            nums[:m_size] = [0] * m_size
        rows.append([Fraction(x, sum(nums)) for x in nums])
    return partition(RationalMatrix(rows), list(range(1, m_size + 1)))


@settings(max_examples=100, deadline=None)
@given(closed_complement_chain_st(), st.integers(1, 3), st.integers(0, 5))
def test_closed_complement_shifts_n1(chain, k, m):
    """Rbar_1 = 1 surely, so N_k = N_1 + (k - 1) and M_m(N_k) is the binomial
    expansion sum_j C(m,j) (k-1)^j M_(m-j)(N_1) P_N^(k-1)."""
    with pytest.raises(ChainError, match="I - P_N is singular"):
        chain.swapped().resolvent
    assert moment_recursive(chain, "Rbar1", m) == chain.p_n
    n1 = [moment_recursive(chain, "N1", j) for j in range(m + 1)]
    want = RationalMatrix([[0] * chain.p_mn.cols] * chain.p_mn.rows)
    for j in range(m + 1):
        want = want + binom(m, j) * (k - 1) ** j * n1[m - j]
    assert moment_k_convolved(chain, "N", k, m) == want @ chain.p_n ** (k - 1)


class TestConvolvedMoments:
    def test_k1_reduces_to_base(self, two_state_chain):
        for m in range(5):
            assert moment_k_convolved(two_state_chain, "N", 1, m) == moment_recursive(
                two_state_chain, "N1", m
            )
            assert moment_k_convolved(two_state_chain, "R", 1, m) == moment_recursive(
                two_state_chain, "R1", m
            )

    def test_nb_mean(self):
        c = anb_chain(Fraction(1, 2), Fraction(1, 2))
        assert moment_k_convolved(c, "N", 3, 1) == RationalMatrix([[6]])

    def test_mass_row_sums(self):
        rng = random.Random(9)
        for _ in range(5):
            c = random_chain(rng, rng.randint(1, 3), rng.randint(1, 3))
            for k in range(1, 4):
                mass = moment_k_convolved(c, "N", k, 0)
                ones = RationalMatrix.ones_column(len(c.n_indices))
                assert mass @ ones == RationalMatrix.ones_column(len(c.m_indices))

    def test_mass_entries_are_probabilities(self):
        rng = random.Random(14)
        for _ in range(6):
            c = random_chain(rng, rng.randint(1, 3), rng.randint(1, 3))
            for var in ("N", "R", "Nbar", "Rbar"):
                for k in range(1, 4):
                    mass = moment_k_convolved(c, var, k, 0)
                    assert all(0 <= v <= 1 for row in mass.entries for v in row)


class TestCommutableForms:
    def test_k1_matches_base_closed(self, two_state_chain):
        for m in range(5):
            assert moment_rk_commutable(two_state_chain, 1, m) == moment_r1_closed(
                two_state_chain, m
            )
            assert moment_nk_commutable(two_state_chain, 1, m) == moment_n1_closed(
                two_state_chain, m
            )

    def test_against_convolution_oracle(self):
        rng = random.Random(20240919)
        chains = [
            anb_chain(Fraction(1, 2), Fraction(1, 3)),
            scalar_block_chain(rng, 2, 2),
            scalar_block_chain(rng, 1, 3),
            scalar_block_chain(rng, 3, 2),
            scalar_block_chain(rng, 2, 1),
        ]
        # P_M and P_N not multiples of I, so a form that moves P_M^j or P_N^j
        # where the chain's commutations do not allow it fails
        rng = random.Random(20261019)
        sizes = [(2, 3), (3, 2), (3, 4)]
        chains += [circulant_block_chain(rng, *size) for size in sizes]
        for c in chains:
            swapped = c.swapped()
            forms = [
                ("R", moment_rk_commutable, c),
                ("N", moment_nk_commutable, c),
                ("Rbar", moment_rk_commutable, swapped),
                ("Nbar", moment_nk_commutable, swapped),
            ]
            for k in range(1, 5):
                for m in range(6):
                    for variable, form, target in forms:
                        want = moment_k_convolved(c, variable, k, m)
                        assert form(target, k, m) == want, (variable, k, m)

    def test_guard_on_noncommutable(self):
        p = RationalMatrix(
            [
                [Fraction(1, 2), 0, Fraction(1, 4), Fraction(1, 4)],
                [0, Fraction(1, 8), Fraction(1, 2), Fraction(3, 8)],
                [Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)],
                [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
            ]
        )
        c = partition(p, [1, 2])
        with pytest.raises(CommutabilityError):
            moment_rk_commutable(c, 2, 1)
        with pytest.raises(CommutabilityError):
            moment_nk_commutable(c, 2, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(0, 6)
)
def test_commutable_forms_at_k1_hold_on_any_chain(seed, m_size, n_size, m):
    """At k = 1 the commutable forms reduce term for term to the closed forms,
    which need no commutability, so no random chain is refused."""
    chain = random_chain(random.Random(seed), m_size, n_size)
    assert moment_nk_commutable(chain, 1, m) == moment_n1_closed(chain, m)
    assert moment_rk_commutable(chain, 1, m) == moment_r1_closed(chain, m)


class TestScalarForms:
    def test_recurrence_scalar_example(self, two_state_chain):
        assert moment_rk_scalar(two_state_chain, 1, 1) == Fraction(7, 4)

    def test_mass_is_one(self, two_state_chain):
        for k in range(1, 5):
            assert moment_rk_scalar(two_state_chain, k, 0) == 1

    def test_matches_oracle(self):
        rng = random.Random(20240920)
        for n_size in (1, 2, 3):
            c = rowsum_chain(rng, n_size)
            for k in range(1, 5):
                for m in range(6):
                    want = moment_k_convolved(c, "R", k, m)[0, 0]
                    assert moment_rk_scalar(c, k, m) == want

    def test_precondition_errors(self):
        rng = random.Random(10)
        wide = random_chain(rng, 2, 2)
        with pytest.raises(PreconditionError, match=r"\|M\| = 1"):
            moment_rk_scalar(wide, 1, 1)
        uneven = partition(
            RationalMatrix(
                [
                    [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                    [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                    [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)],
                ]
            ),
            [1],
        )
        with pytest.raises(PreconditionError, match="row sums"):
            moment_rk_scalar(uneven, 1, 1)


def twelfths(rows, m_indices):
    matrix = RationalMatrix([[Fraction(v, 12) for v in row] for row in rows])
    return partition(matrix, m_indices)


# |M| = |Mbar| = 2; P_M row sums 1/2 and 3/4; P_M stochastic (s_M = 1), and
# |M| = 1 with P_N stochastic (s_N = 1); P_Mbar = (0) in the middle two
WIDE = random_chain(random.Random(10), 2, 2)
UNEVEN_M = twelfths([[3, 3, 6], [6, 3, 3], [6, 6, 0]], [1, 2])
CLOSED_M = twelfths([[6, 6, 0], [4, 8, 0], [6, 6, 0]], [1, 2])
CLOSED_N = twelfths([[6, 3, 3], [0, 6, 6], [0, 4, 8]], [1])


@pytest.mark.parametrize(
    "form, chain, message",
    [
        (moment_rk_scalar, CLOSED_N, "requires s_N != 1"),
        (moment_renewal, WIDE, "requires |Mbar| = 1, got 2"),
        (moment_renewal, UNEVEN_M, "requires constant row sums in P_M"),
        (moment_renewal, CLOSED_M, "requires s_M != 1"),
        (moment_nk_rowsum, WIDE, "requires |Mbar| = 1, got 2"),
        (moment_nk_rowsum, UNEVEN_M, "requires constant row sums in P_M"),
        (moment_nk_rowsum, CLOSED_M, "requires s_M != 1"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_precondition_messages(monkeypatch, form, chain, message):
    def no_sum(*args):
        raise AssertionError("a moment was formed before the preconditions held")

    # every call checks the hypotheses before it reads or extends a list
    monkeypatch.setattr(markov, "_listed", no_sum)
    for m in (3, 0, 1, 3):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            form(chain, 2, m)


# each scalar chain form, a maker of one chain that meets its hypothesis,
# and the variable of its convolved oracle
SCALAR_FORMS = [
    (moment_rk_scalar, lambda: rowsum_chain(random.Random(31), 2), "R"),
    (moment_renewal, lambda: renewal_chain(random.Random(32), 2), "Rbar"),
    (
        moment_nk_rowsum,
        lambda: renewal_chain(random.Random(33), 2, absorbing_loop=True),
        "N",
    ),
]
scalar_forms = pytest.mark.parametrize(
    "form, make, variable", SCALAR_FORMS, ids=[f.__name__ for f, _, _ in SCALAR_FORMS]
)


def _scalar_oracle(chain, variable, k, m):
    value = moment_k_convolved(chain, variable, k, m)
    return value if variable == "N" else value[0, 0]


def _counting(monkeypatch, name) -> list:
    calls = []
    original = getattr(markov, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(markov, name, counting)
    return calls


@scalar_forms
def test_scalar_form_ascending_orders_build_no_table(monkeypatch, form, make, variable):
    chain = make()
    tables = _counting(monkeypatch, "msn_row_scaled")
    sweeps = _counting(monkeypatch, "msn_row_sweep")
    got = {k: [form(chain, k, j) for j in range(9)] for k in (1, 3)}
    # one sweep per k, at the base shift, whatever the mixture's n
    assert tables == [] and len(sweeps) == 2
    monkeypatch.undo()
    assert got == {
        k: [_scalar_oracle(chain, variable, k, j) for j in range(9)] for k in (1, 3)
    }


@scalar_forms
@settings(max_examples=25, deadline=None)
@given(
    asks=st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 10)), min_size=1, max_size=12
    )
)
def test_scalar_form_orders_in_any_order_match_the_oracle(form, make, variable, asks):
    # ascending, descending, interleaved k and jumps past a list's end on one
    # chain; each answer is the oracle's and a fresh chain's for that order
    asks = asks + sorted(asks) + sorted(asks, reverse=True)
    chain = make()
    got = [form(chain, k, m) for k, m in asks]
    want = {(k, m): _scalar_oracle(chain, variable, k, m) for k, m in set(asks)}
    assert got == [want[ask] for ask in asks]
    assert got == [form(chain.swapped().swapped(), k, m) for k, m in asks]


def test_commutability_is_tested_once_per_chain(monkeypatch):
    chain = scalar_block_chain(random.Random(34), 2, 3)
    tests = _counting(monkeypatch, "is_commutable")
    got = [
        (form(chain, k, m), form(chain, k, m))
        for k in (2, 3)
        for m in range(4)
        for form in (moment_nk_commutable, moment_rk_commutable)
    ]
    assert [side for _, side in tests] == ["M", "Mbar"]
    monkeypatch.undo()
    assert [a for a, _ in got] == [b for _, b in got]
    assert got[-1][0] == moment_k_convolved(chain, "R", 3, 3)


def test_k1_closed_forms_skip_the_commutability_test(monkeypatch):
    chain = dense_prime_chain(random.Random(19), 6)
    tests = _counting(monkeypatch, "is_commutable")
    for m in range(5):
        assert moment_n1_closed(chain, m) == moment_recursive(chain, "N1", m)
        assert moment_r1_closed(chain, m) == moment_recursive(chain, "R1", m)
    assert tests == []
    assert "commutable" not in chain._slots
    # the chain is not commutable, so k = 2 is refused
    with pytest.raises(CommutabilityError):
        moment_nk_commutable(chain, 2, 0)


@pytest.mark.parametrize(
    "m_size, n_size, message",
    [(2, 2, "chain is not M-commutable"), (1, 2, "chain is not Mbar-commutable")],
)
def test_non_commutable_chain_fails_alike_on_every_call(
    monkeypatch, m_size, n_size, message
):
    # with |M| = 1 the M side always commutes, so the Mbar side is the one named
    chain = random_chain(random.Random(35), m_size, n_size)
    tests = _counting(monkeypatch, "is_commutable")
    for _ in range(3):
        for form in (moment_nk_commutable, moment_rk_commutable):
            with pytest.raises(CommutabilityError, match=f"^{message}$"):
                form(chain, 2, 1)
    assert len(tests) <= 2


def _rebuilt(chain):
    """An equal chain built by the constructor, with the same resolvent slots."""
    return PartitionedChain(*(getattr(chain, f) for f in chain._fields), chain._resolvents)


def test_swapped_and_replaced_chains_start_with_empty_slots():
    # |Mbar| = 1 and P_M a multiple of I: both N_k forms hold
    chain = scalar_block_chain(random.Random(36), 2, 1)
    rowsum = [moment_nk_rowsum(chain, 2, j) for j in range(3)]
    assert rowsum[-1] == moment_nk_commutable(chain, 2, 2)
    assert set(chain._slots) == {"commutable", ("nk_rowsum", 2)}
    others = (chain.swapped(), chain.swapped().swapped(), _rebuilt(chain))
    assert [other._slots for other in others] == [{}, {}, {}]
    copy = _rebuilt(chain)
    assert (copy, hash(copy), repr(copy)) == (chain, hash(chain), repr(chain))


class TestRenewal:
    def test_mass_is_one(self):
        rng = random.Random(11)
        c = renewal_chain(rng, 2)
        for k in range(1, 4):
            assert moment_renewal(c, k, 0) == 1

    def test_half_rowsum_example(self):
        # s_M = 1/2 gives mean 3 at k = 1 and 6 at k = 2
        p = RationalMatrix(
            [
                [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)],
                [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)],
                [Fraction(1, 2), Fraction(1, 2), 0],
            ]
        )
        c = partition(p, [1, 2])
        assert moment_renewal(c, 1, 1) == 3
        assert moment_renewal(c, 2, 1) == 6

    def test_matches_oracle(self):
        rng = random.Random(20240921)
        for m_size in (1, 2, 3):
            c = renewal_chain(rng, m_size)
            for k in range(1, 5):
                for m in range(6):
                    want = moment_k_convolved(c, "Rbar", k, m)[0, 0]
                    assert moment_renewal(c, k, m) == want

    def test_preconditions(self):
        rng = random.Random(12)
        c = renewal_chain(rng, 2, absorbing_loop=True)  # P_Mbar != 0
        with pytest.raises(PreconditionError, match=r"P_Mbar"):
            moment_renewal(c, 1, 1)


class TestRowsumPassage:
    def test_matches_oracle(self):
        rng = random.Random(20240922)
        for m_size in (1, 2, 3):
            c = renewal_chain(rng, m_size, absorbing_loop=True)
            for k in range(1, 5):
                for m in range(6):
                    want = moment_k_convolved(c, "N", k, m)
                    assert moment_nk_rowsum(c, k, m) == want

    def test_q_zero_boundary(self):
        rng = random.Random(13)
        c = renewal_chain(rng, 2, absorbing_loop=False)
        for k in range(1, 4):
            for m in range(4):
                assert moment_nk_rowsum(c, k, m) == moment_k_convolved(c, "N", k, m)


class TestAlternatingAndPlain:
    def test_geometric_case_ignores_q(self):
        assert moment_anb(Fraction(1, 2), Fraction(1, 3), 1, 1) == 2

    def test_matches_two_state_oracle(self):
        for p, q in [
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(1, 4), Fraction(3, 4)),
            (Fraction(2, 3), Fraction(0)),
        ]:
            c = anb_chain(p, q)
            for k in range(1, 5):
                for m in range(6):
                    assert moment_anb(p, q, k, m) == moment_k_convolved(c, "N", k, m)[0, 0]

    def test_reduces_to_plain_on_equal_probabilities(self):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for k in range(1, 5):
                for m in range(7):
                    assert moment_anb(p, p, k, m) == moment_nb(p, k, m)

    def test_nb_mean_and_variance(self):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
            for k in range(1, 6):
                mean = moment_nb(p, k, 1)
                second = moment_nb(p, k, 2)
                assert mean == k / p
                assert second - mean**2 == k * (1 - p) / p**2

    def test_nb_second_moment_geometric(self):
        assert moment_nb(Fraction(1, 2), 1, 2) == 6

    def test_deterministic_when_p_is_one(self):
        for k in range(1, 5):
            for m in range(5):
                assert moment_nb(Fraction(1), k, m) == k**m

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            moment_nb(Fraction(0), 1, 1)
        with pytest.raises(ValueError):
            moment_anb(Fraction(1, 2), Fraction(1), 1, 1)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: moment_nb("3/2", 2, 1), "need 0 < p <= 1, got p = 3/2"),
            (lambda: moment_nb(0, 2, 1), "need 0 < p <= 1, got p = 0"),
            (lambda: moment_anb("-1/2", "1/3", 2, 1), "need 0 < p <= 1, got p = -1/2"),
            (lambda: moment_anb("1/2", 1, 2, 1), "need 0 <= q < 1, got q = 1"),
        ],
        ids=["nb_p_above", "nb_p_zero", "anb_p", "anb_q"],
    )
    def test_probability_outside_its_range_is_a_precondition(self, call, message):
        # as for NegBinomial and AltNegBinomial, which raise it for the same p or q
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: moment_nb("1/2", Fraction(3, 2), 1), "k"),
        (lambda: moment_nb("1/2", 2, Fraction(1, 2)), "moment order"),
        (lambda: moment_anb("1/2", "1/3", Fraction(3, 2), 1), "k"),
        (lambda: moment_renewal(renewal_chain(random.Random(32), 2), 1.5, 1), "k"),
        (lambda: moment_rk_scalar(rowsum_chain(random.Random(31), 2), 2.5, 1), "k"),
        (
            lambda: moment_k_convolved(random_chain(random.Random(3), 2, 2), "N", 2, 1.5),
            "moment order",
        ),
    ],
    ids=["nb_k", "nb_m", "anb_k", "renewal_k", "rk_scalar_k", "convolved_m"],
)
def test_non_integer_k_or_order_is_a_named_error(call, name):
    # a non-integer k used to reach the b-sum: moment_nb(1/2, 3/2, 1) read 5/2
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()
