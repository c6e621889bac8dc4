from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brownlab.linearize import build_linearization
from brownlab.ncpoly import (
    NcPoly,
    ParseError,
    StarWord,
    evaluate,
    free_moment,
    parse,
    parse_star_word,
)
from oracles import circular_word_traces, star_word_matrix


# ---------------------------------------------------------------- parsing

def test_parse_anticommutator():
    p = parse("x1*x2 + x2*x1")
    assert p.num_vars == 2
    assert p.terms == {(1, 2): 1.0, (2, 1): 1.0}


def test_parse_zero():
    p = parse("0")
    assert p.terms == {}
    assert p.degree == 0


def test_parse_figure_poly():
    p = parse("x1*x2 - 0.3*x2*x3 + 0.1*x3*x1")
    assert p.num_vars == 3
    assert p.terms == {(1, 2): 1.0, (2, 3): -0.3, (3, 1): 0.1}


def test_parse_complex_coefficients():
    p = parse("(1+2i)*x1 + 0.5i*x2*x2 - 3")
    assert p.terms[(1,)] == 1 + 2j
    assert p.terms[(2, 2)] == 0.5j
    assert p.terms[()] == -3


def test_parse_parentheses_and_precedence():
    p = parse("(x1 + x2)*x1")
    assert p.terms == {(1, 1): 1.0, (2, 1): 1.0}


def test_parse_like_terms_collect():
    assert parse("x1*x2 - x1*x2").terms == {}


def test_ncpoly_is_a_normalized_frozen_value():
    p = NcPoly(2.0, {(1, 2): 1, ("1", "2"): 2, (2,): 0, (): 0.5j})
    assert p.num_vars == 2 and type(p.num_vars) is int
    assert p.terms == {(1, 2): 3 + 0j, (): 0.5j}
    assert all(type(c) is complex for c in p.terms.values())
    assert eval(repr(p)) == p
    with pytest.raises(AttributeError):
        p.terms = {}
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(ValueError, match="positive"):
        NcPoly(0, {})
    with pytest.raises(ValueError, match="outside"):
        NcPoly(1, {(2,): 1})


@st.composite
def polys(draw):
    """(n, terms) of degree <= 3 in up to 4 variables, any finite coefficients."""
    n = draw(st.integers(1, 4))
    words = st.lists(st.integers(1, n), max_size=3).map(tuple)
    coeffs = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.complex_numbers(allow_nan=False, allow_infinity=False),
    )
    return n, draw(st.dictionaries(words, coeffs, max_size=6))


def _render(terms):
    """Plain text of terms: each coefficient as (a+bi), times its letters."""
    parts = []
    for word, coeff in terms.items():
        c = complex(coeff)
        sign = "-" if c.imag < 0 else "+"
        parts.append(f"({c.real!r}{sign}{abs(c.imag)!r}i)" + "".join(f"*x{v}" for v in word))
    return " + ".join(parts) or "0"


@given(polys())
def test_parse_of_rendered_terms_property(poly):
    n, terms = poly
    assert parse(_render(terms), num_vars=n) == NcPoly(n, terms)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("x1*x2 + @")
    assert err.value.offset == 8
    with pytest.raises(ParseError):
        parse("x1 + ")


def test_parse_rejects_variable_zero():
    with pytest.raises(ParseError, match="index 0"):
        parse("x0 + x1")


def test_parse_nesting_bound():
    assert parse("(" * 100 + "x1" + ")" * 100) == parse("x1")
    with pytest.raises(ParseError, match="nest deeper than 100") as err:
        parse("(" * 101 + "x1" + ")" * 101)
    assert err.value.offset == 100


def test_parse_rejects_index_above_declared_n():
    with pytest.raises(ParseError, match="exceeds"):
        parse("x1*x3", num_vars=2)
    # fine without a declaration
    assert parse("x1*x3").num_vars == 3


# ---------------------------------------------------------- quadratic data
# The (A, b, gamma, rank) of a degree-2 polynomial are read back from its
# linearization: b and gamma from the pencil's corner, A from the products
# of its border blocks.

def _quadratic_part(lin):
    A, _ = lin.pencil(0)
    return np.einsum("lk,mk->lm", A[:, 0, 1:], A[:, 1:, 0]), A[:, 0, 0]


def test_quadratic_rank_one():
    lin = build_linearization(parse("x1*x2"))
    A, b = _quadratic_part(lin)
    assert np.abs(A - np.array([[0, 1], [0, 0]])).max() <= 1e-12
    assert np.all(b == 0)
    # oracle: rank by direct SVD of the 2x2 coefficient matrix
    sv = np.linalg.svd(np.array([[0.0, 1.0], [0.0, 0.0]]), compute_uv=False)
    assert lin.rank == int(np.sum(sv > 1e-10 * sv[0])) == 1


def test_quadratic_rejects_degree_three():
    with pytest.raises(ValueError, match="degree"):
        build_linearization(parse("x1*x2*x1"))


def test_quadratic_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = rng.integers(1, 4)
        terms = {(): complex(*rng.normal(size=2))}
        for l in range(1, n + 1):
            terms[(l,)] = complex(*rng.normal(size=2))
            for m in range(1, n + 1):
                terms[(l, m)] = complex(*rng.normal(size=2))
        lin = build_linearization(NcPoly(n, terms))
        A, b = _quadratic_part(lin)
        assert lin.gamma == terms[()]
        for l in range(1, n + 1):
            assert b[l - 1] == terms[(l,)]
            for m in range(1, n + 1):
                assert abs(A[l - 1, m - 1] - terms[(l, m)]) <= 1e-12


# ---------------------------------------------------------------- evaluate

def test_evaluate_identity():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(evaluate(parse("x1"), [M]), M)


def test_evaluate_commutator_of_equal_matrices():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(4, 4))
    out = evaluate(parse("x1*x2 - x2*x1"), [M, M])
    assert np.allclose(out, 0)


def test_evaluate_anticommutator_hand_product():
    X1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    X2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = evaluate(parse("x1*x2 + x2*x1"), [X1, X2])
    assert np.allclose(out, np.eye(2))


def test_evaluate_constant_contributes_identity():
    out = evaluate(parse("2 + x1", num_vars=1), [np.zeros((3, 3))])
    assert np.allclose(out, 2 * np.eye(3))


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(parse("x1*x2"), [np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        evaluate(parse("x1*x2"), [np.eye(2)])


def test_evaluate_linearity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n, N = 3, int(rng.integers(2, 9))
        X = [rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)) for _ in range(n)]

        def rand_poly():
            terms = {}
            for _ in range(6):
                w = tuple(rng.integers(1, n + 1, size=rng.integers(0, 4)))
                terms[w] = complex(*rng.normal(size=2))
            return NcPoly(n, terms)

        p, q = rand_poly(), rand_poly()
        lhs = evaluate(p + q, X)
        rhs = evaluate(p, X) + evaluate(q, X)
        assert np.allclose(lhs, rhs, atol=1e-10)


# ------------------------------------------------------------ free moments

def _all_pairings(positions):
    if not positions:
        yield []
        return
    first = positions[0]
    for k in range(1, len(positions)):
        partner = positions[k]
        rest = positions[1:k] + positions[k + 1:]
        for tail in _all_pairings(rest):
            yield [(first, partner)] + tail


def _brute_moment(letters):
    """Independent oracle: enumerate all (k-1)!! pairings, then filter."""
    k = len(letters)
    if k % 2:
        return 0
    total = 0
    for pairing in _all_pairings(tuple(range(k))):
        crossing = any(
            a < c < b < d or c < a < d < b
            for (a, b) in pairing
            for (c, d) in pairing
        )
        if crossing:
            continue
        ok = all(
            letters[a][0] == letters[b][0] and letters[a][1] != letters[b][1]
            for (a, b) in pairing
        )
        total += ok
    return total


def test_free_moment_single_pair():
    assert free_moment(parse_star_word("c1 c1*")) == 1


def test_free_moment_no_adjoint():
    assert free_moment(parse_star_word("c1 c1")) == 0


def test_free_moment_two_pairs():
    w = parse_star_word("c1 c1* c1 c1*")
    assert _brute_moment(w.letters) == 2
    assert free_moment(w) == 2


def test_free_moment_odd_and_empty():
    assert free_moment(parse_star_word("c1")) == 0
    assert free_moment(StarWord(letters=())) == 1


def test_free_moment_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(60):
        k = int(rng.choice([2, 4, 6, 8, 10]))
        letters = tuple(
            (int(rng.integers(1, 3)), bool(rng.integers(0, 2))) for _ in range(k)
        )
        w = StarWord(letters=letters)
        assert free_moment(w) == _brute_moment(letters)


def test_free_moment_catalan_on_alternating_words():
    # c c* c c* ... has moment Catalan(k): all non-crossing pairings qualify
    catalan = [1, 1, 2, 5, 14, 42]
    for k in range(1, 6):
        letters = ((1, False), (1, True)) * k
        assert free_moment(StarWord(letters=letters)) == catalan[k]


def _recursive_moment(letters):
    """The interval recursion, memoized top-down: the reference for the table."""

    @lru_cache(maxsize=None)
    def count(i, j):
        if i >= j:
            return 1
        return sum(count(i + 1, m) * count(m + 1, j) for m in range(i + 1, j, 2)
                   if letters[i][0] == letters[m][0] and letters[i][1] != letters[m][1])

    return count(0, len(letters)) if len(letters) % 2 == 0 else 0


@given(st.lists(st.tuples(st.integers(1, 3), st.booleans()), max_size=40))
def test_free_moment_equals_the_interval_recursion(letters):
    letters = tuple(letters)
    assert free_moment(StarWord(letters=letters)) == _recursive_moment(letters)


def test_free_moment_length_bound():
    assert free_moment(StarWord(letters=((1, False), (1, True)) * 8)) == 1430
    # the longest word accepted: (c1 c1*)^256 has moment Catalan(256)
    assert free_moment(StarWord(letters=((1, False), (1, True)) * 256)) == comb(512, 256) // 257
    with pytest.raises(ValueError, match="514 letters exceeds 512"):
        free_moment(StarWord(letters=((1, False), (1, True)) * 257))


def test_parse_star_word_errors():
    with pytest.raises(ParseError):
        parse_star_word("c1 d2")
    with pytest.raises(ParseError):
        parse_star_word("c0")


# -------------------------------------------------------- fast trace table

def test_circular_word_traces_match_direct_products():
    rng = np.random.default_rng(5)
    N = 6
    X = [rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)) for _ in range(2)]
    table = circular_word_traces(X, max_len=4)
    assert len(table) == sum(4**k for k in range(5))
    for letters, value in table.items():
        direct = np.trace(star_word_matrix(StarWord(letters=letters), X)) / N
        assert np.isclose(value, direct, rtol=1e-10, atol=1e-12)
