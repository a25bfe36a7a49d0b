import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compositions
import msnlib.identities as identities
from msnlib.identities import (
    Context,
    IDENTITY_CHECKS,
    IdentityFailure,
    K_SET,
    _binomial_convolution,
    _expect,
    run_identity_suite,
)
from msnlib.exact import PreconditionError, multinom
from msnlib.msn import MsnTable

# in the order the battery runs and prints them
EXPECTED_LABELS = [
    "a6", "a7", "a8", "a10", "a11", "a12", "a12a", "a12b", "a13", "a14", "a15",
    "a16", "a17", "a18", "a19", "a20", "a21", "a23", "a24", "a25", "a26", "a27",
    "a28", "a29", "a29a", "a30", "a31", "a32", "a33", "a34", "a36", "a37", "a38",
    "k_i", "k_i_l", "n1", "n2", "n3", "n30", "nonneg", "comb", "sn2_k0", "a46",
    "a46_matrix", "ogf", "egf", "a41", "a42", "bgf", "a44",
]


def test_registry_is_complete():
    assert [label for label, _ in IDENTITY_CHECKS] == EXPECTED_LABELS


def test_default_k_set_mixes_signs_and_integrality():
    assert any(k < 0 for k in K_SET)
    assert any(k < 0 and k.denominator > 1 for k in K_SET)
    assert any(k > 0 and k.denominator > 1 for k in K_SET)
    assert Fraction(0) in K_SET
    assert any(k > 0 and k.denominator == 1 for k in K_SET)


def test_reduced_battery_passes():
    results = run_identity_suite(i_max=8, k_set=K_SET, order=8)
    failed = [r for r in results if not r.ok]
    assert not failed, failed
    assert [r.label for r in results] == EXPECTED_LABELS
    assert all(r.cases > 0 for r in results)


def test_label_filter():
    results = run_identity_suite(i_max=6, order=6, labels={"a8", "bgf"})
    assert {r.label for r in results} == {"a8", "bgf"}


def test_exception_in_one_check_is_reported_against_it(monkeypatch):
    def broken(ctx):
        raise ZeroDivisionError("division by zero in the check")

    monkeypatch.setattr(
        identities,
        "IDENTITY_CHECKS",
        [("a8", identities.check_a8), ("broken", broken), ("a14", identities.check_a14)],
    )
    results = run_identity_suite(i_max=4, order=4)
    assert [(r.label, r.ok) for r in results] == [
        ("a8", True), ("broken", False), ("a14", True),
    ]
    assert results[1].detail.startswith(
        "broken: ZeroDivisionError: division by zero in the check (at test_identities.py:"
    )
    assert results[2].cases > 0


def test_failure_reporting():
    with pytest.raises(IdentityFailure, match="a99: i=3"):
        _expect(False, "a99", "i=3")


@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"i_max": -1}, "i_max must be nonnegative"),
        ({"i_max": 2.5}, "i_max must be an integer, got 2.5"),
        ({"order": -3}, "order must be nonnegative"),
        ({"order": Fraction(8, 3)}, "order must be an integer, got 8/3"),
    ],
)
def test_suite_sizes_are_checked(sizes, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        run_identity_suite(**sizes)


def test_context_table_cache_reused():
    ctx = Context(i_max=6, order=6)
    assert ctx.table(Fraction(1, 3)) is ctx.table(Fraction(1, 3))
    assert ctx.b(4, 4, 5) == 24


def _perturbed_msn_table(delta, i=5, j=2, k=Fraction(1, 3)):
    """msn_table with b(i, j, k), by default b(5, 2, 1/3), moved by delta:
    the table's integer entry q**i b(i, j, k) moves by delta * q**i."""
    real = identities.msn_table
    at = k

    def build(i_max, k, j_max=None):
        tab = real(i_max, k, j_max)
        if k != at:
            return tab
        rows = [list(row) for row in tab.rows]
        moved = rows[i][j] + delta * tab.k.denominator**i
        assert moved.denominator == 1, "delta must be a whole number of scaled units"
        rows[i][j] = moved.numerator
        return MsnTable(tab.k, tab.i_max, tab.j_max, tuple(map(tuple, rows)))

    return build


CAUGHT_BY_INTEGER_COLUMNS = ("a17", "a18", "a21", "a30", "a31")


# 1/3^5 moves b(5, 2, 1/3) by one unit of its scaled integer 3^5 b(5, 2, 1/3)
@pytest.mark.parametrize("delta", [Fraction(1), Fraction(1, 3**5)], ids=["1", "1/3^5"])
def test_perturbed_table_entry_fails_the_convolutions(monkeypatch, delta):
    monkeypatch.setattr(identities, "msn_table", _perturbed_msn_table(delta))
    results = {r.label: r for r in run_identity_suite(i_max=8, order=8)}
    for label in CAUGHT_BY_INTEGER_COLUMNS:
        assert not results[label].ok, label
        assert "1/3" in results[label].detail, results[label].detail
    assert results["a14"].ok


def test_perturbed_table_entry_fails_the_inversion_checks(monkeypatch):
    """a46 and a46_matrix read the Context's own b tables, not fresh ones."""
    monkeypatch.setattr(identities, "msn_table", _perturbed_msn_table(Fraction(1)))
    results = run_identity_suite(i_max=8, order=8, labels={"a46", "a46_matrix"})
    assert [(r.label, r.ok) for r in results] == [("a46", False), ("a46_matrix", False)]
    assert all("1/3" in r.detail for r in results), results


def test_perturbed_k0_entry_fails_a37(monkeypatch):
    """a37's integer sums read the Context's k = 0 table: with b(4, 2, 0)
    moved, its js = (2,) cases at k = 0 still agree (both sides read the
    moved entry), and the first to fail is k = 1, whose right side reads it."""
    monkeypatch.setattr(identities, "msn_table", _perturbed_msn_table(Fraction(1), 4, 2, 0))
    (result,) = run_identity_suite(i_max=8, order=8, labels={"a37"})
    assert not result.ok
    assert result.detail == "a37: i=4, js=(2,), k=1"


# the first failure of each fold check with one entry moved by 1, as the
# composition walks reported it; None where the check reads no entry at that k
FOLD_CASES = {"a36": 90, "a37": 216, "a38": 171}


@pytest.mark.parametrize(
    "entry, details",
    [
        (
            (4, 1, Fraction(1, 3)),
            {"a36": "a36: i=7, js=(2, 1, 1), ks=(0, Fraction(1, 3), 1)", "a37": None, "a38": None},
        ),
        (
            (5, 2, 1),
            {
                "a36": "a36: i=5, js=(1, 1), ks=(Fraction(1, 2), Fraction(1, 2))",
                "a37": "a37: i=5, js=(2,), k=1",
                "a38": "a38: i=5, j=2, k=1",
            },
        ),
    ],
    ids=["b(4,1,1/3)", "b(5,2,1)"],
)
def test_perturbed_entry_fails_the_fold_checks_where_they_read_it(monkeypatch, entry, details):
    monkeypatch.setattr(identities, "msn_table", _perturbed_msn_table(Fraction(1), *entry))
    results = run_identity_suite(i_max=8, order=8, labels=set(details))
    for r in results:
        if details[r.label] is None:
            assert (r.ok, r.cases) == (True, FOLD_CASES[r.label]), r
        else:
            assert (r.ok, r.detail) == (False, details[r.label]), r


def _composition_walk(columns, i):
    """The sum the fold forms, one composition of i at a time."""
    return sum(
        multinom(i, parts) * math.prod(col[part] for col, part in zip(columns, parts))
        for parts in compositions(i, len(columns))
    )


@st.composite
def _columns(draw):
    n = draw(st.integers(0, 10))
    # columns may run past n, as a23's shifted ones do; the fold stops at n
    entry = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
    length = st.integers(n + 1, n + 3)
    column = length.flatmap(lambda m: st.lists(entry, min_size=m, max_size=m))
    return draw(st.lists(column, min_size=1, max_size=4)), n


@settings(max_examples=60, deadline=None)
@given(_columns())
def test_binomial_convolution_is_the_composition_walk(case):
    columns, n = case
    assert _binomial_convolution(columns, n) == [
        _composition_walk(columns, i) for i in range(n + 1)
    ]


def test_a38_columns_make_the_first_parts_positive():
    n = identities.FIXED_I
    for j in range(5):
        for k in range(0 if j else 1, 4):
            columns = [identities._POSITIVE] * j + [identities._ONES] * k
            walk = [
                sum(multinom(i, parts) for parts in compositions(i, j + k, positive_prefix=j))
                for i in range(n + 1)
            ]
            assert _binomial_convolution(columns, n) == walk, (j, k)


def test_scaled_columns_match_the_table():
    ctx = Context(i_max=6, order=6)
    k = Fraction(-1, 2)
    cols = ctx.scaled(k, 6)
    assert ctx.scaled(k, 6) is cols
    for i in range(ctx.table(k).i_max + 1):
        for j in range(i + 1):
            assert cols[j][i] == 6**i * ctx.b(i, j, k)


@pytest.mark.parametrize(
    "k, scale", [(Fraction(-1, 2), 1), (Fraction(1, 3), 2), (Fraction(5, 6), 9)]
)
def test_scale_off_the_denominator_is_a_precondition(k, scale):
    # floor division would lift by (scale // q)**i and return wrong columns
    ctx = Context(i_max=3)
    message = f"scale {scale} is not a multiple of {k}'s denominator"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        ctx.scaled(k, scale)
    assert ctx.scaled(k, 2 * k.denominator)[1][1] == 2 * k.denominator * ctx.b(1, 1, k)


def test_b_values_are_ints_where_integral():
    # the checks then sum and compare integers; the table's values stay Fractions
    ctx = Context(i_max=6, order=6)
    for k in K_SET:
        tab = ctx.table(k)
        for i in range(tab.i_max + 1):
            for j in range(tab.i_max + 2):
                value = ctx.b(i, j, k)
                assert value == tab.value(i, j)
                want = int if tab.value(i, j).denominator == 1 else Fraction
                assert type(value) is want, (i, j, k)
    assert type(ctx.table(1).value(3, 2)) is Fraction
    assert ctx.b(3, 2, "1/3") == ctx.b(3, 2, Fraction(1, 3))
    with pytest.raises(ValueError, match="indices must be nonnegative"):
        ctx.b(-1, 0, 1)
    with pytest.raises(IndexError):
        ctx.b(ctx.table(1).i_max + 1, 0, 1)


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_a_float_case_fails_its_identity(monkeypatch, side):
    # an int / int of two integral b values is a float, equal or not
    monkeypatch.setattr(identities, "IDENTITY_CHECKS", [])

    @identities._identity
    def check_half(ctx):
        yield Fraction(1, 2), Fraction(1, 2), "exact"
        half = ctx.b(1, 1, 0) / 2
        pair = (half, Fraction(1, 2)) if side == "lhs" else (Fraction(1, 2), half)
        yield *pair, "i=1"

    with pytest.raises(IdentityFailure, match="^half: i=1$"):
        check_half(Context(i_max=1, order=1))
