import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_prime_chain, random_chain, scalar_block_chain
from msnlib.exact import PreconditionError, format_rational
from msnlib.linalg import (
    ChainError,
    RationalMatrix,
    SingularMatrixError,
    chain_from_dict,
    combine,
    is_commutable,
    partition,
)


class TestInverse:
    def test_identity(self):
        assert RationalMatrix([[1]]).inverse() == RationalMatrix([[1]])

    def test_scalar(self):
        assert RationalMatrix([[Fraction(1, 2)]]).inverse() == RationalMatrix([[2]])

    def test_singular_reports_column(self):
        with pytest.raises(SingularMatrixError) as err:
            RationalMatrix([[1, 1], [1, 1]]).inverse()
        assert err.value.pivot_col == 1

    def test_needs_pivot_swap(self):
        m = RationalMatrix([[0, 1], [1, 0]])
        assert m.inverse() == m

    def test_random_round_trip(self):
        rng = random.Random(20240917)
        produced = 0
        while produced < 25:
            n = rng.randint(1, 6)
            m = RationalMatrix(
                [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            try:
                inv = m.inverse()
            except SingularMatrixError:
                continue
            produced += 1
            assert m @ inv == RationalMatrix.identity(n)
            assert inv @ m == RationalMatrix.identity(n)

    def test_dense_prime_block_round_trip(self):
        # 32-state blocks; each row of I - P_M over its shared denominator
        # carries the other rows' primes as a common factor
        chain = dense_prime_chain(random.Random(32), 64)
        for block in (chain.p_m, chain.p_n):
            eye = RationalMatrix.identity(block.rows)
            a = eye - block
            assert a @ a.inverse() == eye


class TestMatrixOps:
    def test_power(self):
        m = RationalMatrix([[1, 1], [0, 1]])
        assert (m**5)[0, 1] == 5
        assert m**0 == RationalMatrix.identity(2)

    def test_powers_start_from_the_lowest_set_bit(self, monkeypatch):
        products = []
        matmul = RationalMatrix.__matmul__

        def counting(self, other):
            products.append((self, other))
            return matmul(self, other)

        p = random_chain(random.Random(5), 3, 2).p
        monkeypatch.setattr(RationalMatrix, "__matmul__", counting)
        assert p**0 == RationalMatrix.identity(5) and products == []
        assert p**1 is p and products == []
        want = p
        for n in range(2, 12):
            want = matmul(want, p)
            products.clear()
            assert p**n == want
            # one squaring per bit above the lowest, one product per further set bit
            assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            RationalMatrix([[1]]) @ RationalMatrix([[1, 2], [3, 4]])

    def test_scalar_mul_and_add(self):
        m = RationalMatrix([[1, 2], [3, 4]])
        assert (Fraction(1, 2) * m + m * Fraction(1, 2)) == m

    def test_entries_are_exact(self):
        m = RationalMatrix([["1/3", "2/3"]])
        assert m[0, 0] + m[0, 1] == 1


class TestPartition:
    def test_two_state_blocks(self, two_state_chain):
        c = two_state_chain
        assert c.p_m == RationalMatrix([[Fraction(1, 2)]])
        assert c.p_mn == RationalMatrix([[Fraction(1, 2)]])
        assert c.p_nm == RationalMatrix([[Fraction(2, 3)]])
        assert c.p_n == RationalMatrix([[Fraction(1, 3)]])
        assert c.s_m == Fraction(1, 2)
        assert c.s_n == Fraction(1, 3)

    def test_partition_forms_no_product(self, monkeypatch):
        products = []
        matmul = RationalMatrix.__matmul__

        def counting(self, other):
            products.append((self, other))
            return matmul(self, other)

        monkeypatch.setattr(RationalMatrix, "__matmul__", counting)
        c = random_chain(random.Random(5), 3, 2)
        partition(c.p, [2, 4]).swapped()
        assert products == []

    def test_absorbing_state_rejected(self):
        # partitioning inverts nothing; the first read of I - P_M fails
        chain = partition(RationalMatrix.identity(2), [1])
        with pytest.raises(ChainError, match="I - P_M is singular"):
            chain.resolvent

    def test_bad_row_sum_named(self):
        bad = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [0, 1]])
        with pytest.raises(ChainError, match="row 1 sums to 5/6"):
            partition(bad, [1])

    def test_entry_out_of_range(self):
        bad = RationalMatrix([[Fraction(3, 2), Fraction(-1, 2)], [0, 1]])
        with pytest.raises(ChainError, match="row 1"):
            partition(bad, [1])

    def test_empty_or_full_m_rejected(self):
        p = RationalMatrix([[Fraction(1, 2), Fraction(1, 2)]] * 2)
        with pytest.raises(ChainError):
            partition(p, [])
        with pytest.raises(ChainError):
            partition(p, [1, 2])

    def test_reassembly(self):
        rng = random.Random(7)
        for _ in range(10):
            m_size = rng.randint(1, 3)
            n_size = rng.randint(1, 3)
            c = random_chain(rng, m_size, n_size)
            for bi, gi in enumerate(c.m_indices):
                for bj, gj in enumerate(c.m_indices):
                    assert c.p_m[bi, bj] == c.p[gi - 1, gj - 1]
                for bj, gj in enumerate(c.n_indices):
                    assert c.p_mn[bi, bj] == c.p[gi - 1, gj - 1]
            for bi, gi in enumerate(c.n_indices):
                for bj, gj in enumerate(c.m_indices):
                    assert c.p_nm[bi, bj] == c.p[gi - 1, gj - 1]
                for bj, gj in enumerate(c.n_indices):
                    assert c.p_n[bi, bj] == c.p[gi - 1, gj - 1]

    def test_noncontiguous_m(self):
        rng = random.Random(11)
        c = random_chain(rng, 2, 2)
        shuffled = partition(c.p, [1, 3])
        assert shuffled.m_indices == (1, 3)
        assert shuffled.p_m[0, 1] == c.p[0, 2]

    def test_resolvent_kept(self, two_state_chain):
        c = two_state_chain
        assert c.resolvent == (RationalMatrix.identity(1) - c.p_m).inverse()
        assert c.swapped().resolvent == (RationalMatrix.identity(1) - c.p_n).inverse()

    def test_swapped_names_singular_complement(self):
        # state 2 is absorbing: I - P_M = (1/2) is fine, I - P_N = (0) is not
        c = partition(RationalMatrix([[Fraction(1, 2), Fraction(1, 2)], [0, 1]]), [1])
        with pytest.raises(ChainError, match=r"I - P_N is singular"):
            c.swapped().resolvent

    def test_swapped_roles(self, two_state_chain):
        sw = two_state_chain.swapped()
        assert sw.p_m == two_state_chain.p_n
        assert sw.p_mn == two_state_chain.p_nm
        assert sw.swapped().p_m == two_state_chain.p_m

    def test_json_schema(self):
        c = chain_from_dict({"P": [["1/2", "1/2"], ["2/3", "1/3"]], "M": [1]})
        assert c.p_m[0, 0] == Fraction(1, 2)
        with pytest.raises(ChainError):
            chain_from_dict({"P": [["1"]]})
        with pytest.raises(ChainError):
            chain_from_dict([["1"]])

    def test_absorbing_m_partitions(self):
        # I - P_M = (0) is singular, yet the chain and its complement side work
        c = chain_from_dict({"P": [["1", "0"], ["1/2", "1/2"]], "M": [1]})
        assert c.swapped().resolvent == RationalMatrix([[2]])


def _brute_commutable(chain, side, r_max, s_max):
    if side == "M":
        inner, outer, lift, drop = chain.p_n, chain.p_m, chain.p_mn, chain.p_nm
    else:
        inner, outer, lift, drop = chain.p_m, chain.p_n, chain.p_nm, chain.p_mn
    for s in range(s_max + 1):
        w = lift @ inner**s @ drop
        for r in range(r_max + 1):
            if w @ outer**r != outer**r @ w:
                return False
    return True


def _perturbed(rng, p):
    """``p`` with 1/12 moved from one entry of a row to another, if it has it."""
    rows = p.to_lists()
    row = rng.choice(rows)
    src, dst = rng.sample(range(len(row)), 2)
    if row[src] >= Fraction(1, 12):
        row[src] -= Fraction(1, 12)
        row[dst] += Fraction(1, 12)
    return RationalMatrix(rows)


class TestCommutability:
    def test_single_state_m_side(self, two_state_chain):
        assert is_commutable(two_state_chain, "M")

    def test_scalar_diagonal_blocks(self):
        rng = random.Random(3)
        c = scalar_block_chain(rng, 2, 2)
        assert is_commutable(c, "M")
        assert is_commutable(c, "Mbar")

    def test_non_commuting_blocks(self):
        # P_M has distinct diagonal entries while Q = P_NM @ P_MN is dense,
        # so P_M Q != Q P_M
        p = RationalMatrix(
            [
                [Fraction(1, 2), 0, Fraction(1, 4), Fraction(1, 4)],
                [0, Fraction(1, 8), Fraction(1, 2), Fraction(3, 8)],
                [Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)],
                [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
            ]
        )
        c = partition(p, [1, 2])
        assert not is_commutable(c, "M")
        assert not _brute_commutable(c, "M", 8, 8)

    def test_needs_every_round_trip(self):
        # X_0 = P_MN P_NM commutes with P_M but X_1 = P_MN P_N P_NM does not
        p = RationalMatrix(
            [
                [Fraction(3, 10), 0, Fraction(7, 10), 0],
                [0, Fraction(1, 2), 0, Fraction(1, 2)],
                [Fraction(2, 5), 0, Fraction(3, 10), Fraction(3, 10)],
                [0, Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)],
            ]
        )
        c = partition(p, [1, 2])
        assert _brute_commutable(c, "M", 1, 0)
        assert not is_commutable(c, "M")
        assert not _brute_commutable(c, "M", 8, 8)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(["random", "scalar", "perturbed"]),
        st.sampled_from(["M", "Mbar"]),
    )
    def test_finite_check_matches_brute_force(self, seed, m_size, n_size, family, side):
        rng = random.Random(seed)
        if family == "random":
            c = random_chain(rng, m_size, n_size)
        else:
            c = scalar_block_chain(rng, m_size, n_size)
            if family == "perturbed":
                c = partition(_perturbed(rng, c.p), c.m_indices)
        dim = c.size
        assert is_commutable(c, side) == _brute_commutable(c, side, 2 * dim, 2 * dim)

    def test_bad_side_rejected(self, two_state_chain):
        for side in ("X", "N"):
            with pytest.raises(ValueError, match="side must be 'M' or 'Mbar'"):
                is_commutable(two_state_chain, side)

    def test_bad_side_is_a_named_error(self, two_state_chain):
        with pytest.raises(PreconditionError, match="^side must be 'M' or 'Mbar', got 'N'$"):
            is_commutable(two_state_chain, "N")


# ---------------------------------------------------------------------------
# Differential test against a plain-Fraction reference: lists of lists of
# Fraction, a schoolbook product and Gauss-Jordan elimination with the same
# pivot rule (first row with a nonzero entry in the column).


def ref_matmul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def ref_inverse(a):
    """Inverse over Fraction, or the column where no pivot was found."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return col
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


fractions_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)
scalars_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 9)),
)


def lists_st(rows, cols):
    return st.lists(
        st.lists(fractions_st, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


dims_st = st.integers(1, 6)


@st.composite
def square_st(draw):
    n = draw(dims_st)
    rows = draw(lists_st(n, n))
    if n > 1 and draw(st.booleans()):
        # force singularity: one row a rational multiple of another
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(scalars_st)
        rows[j] = [c * v for v in rows[i]]
    return rows


@st.composite
def row_scaled_st(draw):
    """A square matrix, maybe with a zero row or a row of a common integer
    factor, and a positive diagonal to scale its rows by."""
    rows = draw(square_st())
    n = len(rows)
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["plain", "zero", "factor"]))
    if kind == "zero":
        rows[i] = [Fraction(0)] * n
    elif kind == "factor":
        rows[i] = [draw(st.integers(2, 12)) * v for v in rows[i]]
    diag = draw(
        st.lists(
            st.builds(Fraction, st.integers(1, 30), st.integers(1, 30)),
            min_size=n,
            max_size=n,
        )
    )
    return rows, diag


def assert_matches(matrix, ref):
    """Exact equality with the reference, canonical storage, reduced accessors."""
    assert matrix.den > 0
    assert gcd(matrix.den, *(v for row in matrix.num for v in row)) == 1
    assert matrix.entries == tuple(tuple(row) for row in ref)
    assert matrix.to_lists() == ref
    assert matrix.to_strings() == [[format_rational(v) for v in row] for row in ref]
    for i, row in enumerate(ref):
        for j, v in enumerate(row):
            got = matrix[i, j]
            assert (got.numerator, got.denominator) == (v.numerator, v.denominator)
    assert matrix == RationalMatrix(ref)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(st.tuples(dims_st, dims_st, dims_st).flatmap(
        lambda d: st.tuples(lists_st(d[0], d[1]), lists_st(d[1], d[2]))
    ))
    def test_matmul(self, pair):
        a, b = pair
        assert_matches(RationalMatrix(a) @ RationalMatrix(b), ref_matmul(a, b))

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(dims_st, dims_st).flatmap(
        lambda d: st.tuples(lists_st(*d), lists_st(*d), scalars_st)
    ))
    def test_add_sub_scale(self, triple):
        a, b, s = triple
        ma, mb = RationalMatrix(a), RationalMatrix(b)
        add = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        sub = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        scaled = [[s * x for x in row] for row in a]
        assert_matches(ma + mb, add)
        assert_matches(ma - mb, sub)
        assert_matches(s * ma, scaled)
        assert_matches(ma * s, scaled)
        assert ma.row_sums() == [sum(row, Fraction(0)) for row in a]

    @settings(max_examples=100, deadline=None)
    @given(square_st(), st.integers(0, 5))
    def test_power(self, a, e):
        ref = [[Fraction(int(i == j)) for j in range(len(a))] for i in range(len(a))]
        for _ in range(e):
            ref = ref_matmul(ref, a)
        assert_matches(RationalMatrix(a) ** e, ref)

    @settings(max_examples=200, deadline=None)
    @given(square_st())
    def test_inverse_or_singular_column(self, a):
        ref = ref_inverse(a)
        if isinstance(ref, int):
            with pytest.raises(SingularMatrixError) as err:
                RationalMatrix(a).inverse()
            assert err.value.pivot_col == ref
        else:
            assert_matches(RationalMatrix(a).inverse(), ref)

    @settings(max_examples=200, deadline=None)
    @given(row_scaled_st())
    def test_inverse_commutes_with_positive_row_scaling(self, case):
        a, d = case
        ma = RationalMatrix(a)
        scaled = RationalMatrix([[di * v for v in row] for di, row in zip(d, a)])
        try:
            inv = ma.inverse()
        except SingularMatrixError as err:
            with pytest.raises(SingularMatrixError) as scaled_err:
                scaled.inverse()
            assert scaled_err.value.pivot_col == err.pivot_col
            return
        d_inv = RationalMatrix(
            [[1 / di if i == j else 0 for j in range(len(d))] for i, di in enumerate(d)]
        )
        assert scaled.inverse() == inv @ d_inv

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(dims_st, dims_st).flatmap(lambda d: lists_st(*d)), st.integers(2, 50))
    def test_scaled_inputs_compare_and_hash_equal(self, a, t):
        m = RationalMatrix(a)
        unreduced = RationalMatrix(
            [[f"{v.numerator * t}/{v.denominator * t}" for v in row] for row in a]
        )
        rescaled = (m * t) * Fraction(1, t)
        via_sum = (m + m) - m
        for other in (unreduced, rescaled, via_sum):
            assert other == m
            assert hash(other) == hash(m)
            assert (other.num, other.den) == (m.num, m.den)


coeffs_st = st.one_of(scalars_st, st.integers(-5, 5))


@st.composite
def combine_terms_st(draw):
    """1-5 terms of one shape."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    terms = [
        (draw(coeffs_st), draw(lists_st(rows, cols)))
        for _ in range(draw(st.integers(1, 5)))
    ]
    return rows, cols, terms


def ref_combine(rows, cols, terms):
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for c, a in terms:
        out = [[x + c * y for x, y in zip(ro, ra)] for ro, ra in zip(out, a)]
    return out


def as_matrix_terms(terms):
    return [(c, RationalMatrix(a)) for c, a in terms]


class TestCombine:
    @settings(max_examples=200, deadline=None)
    @given(combine_terms_st())
    def test_matches_fraction_reference(self, case):
        rows, cols, terms = case
        assert_matches(combine(as_matrix_terms(terms)), ref_combine(rows, cols, terms))

    @settings(max_examples=100, deadline=None)
    @given(combine_terms_st(), coeffs_st, st.data())
    def test_shape_mismatch_raises(self, case, c, data):
        rows, cols, terms = case
        # a term of another shape
        bad = (c, data.draw(lists_st(rows, cols + 1)))
        at = data.draw(st.integers(0, len(terms)))
        with pytest.raises(ValueError, match="shape mismatch"):
            combine(as_matrix_terms(terms[:at] + [bad] + terms[at:]))

    def test_zero_coefficients_give_zeros(self):
        a = RationalMatrix([["1/2", "1/3"]])
        b = RationalMatrix([["1/5", "-2"]])
        zeros = RationalMatrix([[0, 0]])
        assert combine([(0, a), (Fraction(0), b)]) == zeros

    def test_no_terms_rejected(self):
        with pytest.raises(ValueError):
            combine([])
