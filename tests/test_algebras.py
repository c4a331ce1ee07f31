import itertools
import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import oracles
from tensoralg.algebras import (AlgebraConfig, MVec, af, atensimp, av,
                                commutator, init_atensor,
                                multiplication_table, parse_mvec, sf)
from tensoralg.scalars import syms


@pytest.fixture(scope="module")
def quaternions():
    return init_atensor("clifford", 0, 0, 2)


@pytest.fixture(scope="module")
def lie3():
    return init_atensor("lie_envelop", 3)


# ---------------------------------------------------------------------------
# initialization


def test_clifford_aform_diag(quaternions):
    assert quaternions.aform == ((-1, 0), (0, -1))
    mixed = init_atensor("clifford", 2, 1, 1)
    assert [mixed.aform[i][i] for i in range(4)] == [1, 1, 0, -1]
    assert mixed.adim == 4


def test_lie_envelop_3_matrix(lie3):
    assert [[int(x) for x in row] for row in lie3.aform] == \
        [[0, 3, -2], [-3, 0, 1], [2, -1, 0]]


def test_grassmann_needs_no_aform():
    g = init_atensor("grassmann")
    assert g.aform is None and g.adim == 2
    assert atensimp(g, MVec.word((1, 2)) + MVec.word((2, 1))).is_zero


def test_symplectic_aform_antisymmetric():
    s = init_atensor("symplectic", 4, 1)
    assert s.adim == 5
    for i in range(5):
        assert s.aform[i][i] == 0
        for j in range(5):
            assert s.aform[i][j] == -s.aform[j][i]
            if i >= 4 or j >= 4:
                assert s.aform[i][j] == 0


def test_lie_envelop_aform_antisymmetric():
    for n in (2, 3):
        cfg = init_atensor("lie_envelop", n)
        for i in range(n):
            assert cfg.aform[i][i] == 0
            for j in range(n):
                assert cfg.aform[i][j] == -cfg.aform[j][i]
                assert abs(int(cfg.aform[i][j])) <= n


def test_init_validation():
    with pytest.raises(ValueError):
        init_atensor("clifford")
    with pytest.raises(ValueError):
        init_atensor("clifford", 1, 2, 3, 4)
    with pytest.raises(ValueError):
        init_atensor("lie_envelop", 2, 2)
    with pytest.raises(ValueError):
        init_atensor("nosuch", 1)


@pytest.mark.parametrize("dims", [(1.7,), (True,), (0, 0, 2.0), ("2",)])
def test_dimension_counts_refuse_bool_and_non_integral_values(dims):
    # clifford 1.7 used to build a 1-dimensional algebra through int(1.7),
    # and True counted as 1
    with pytest.raises(ValueError, match="dimension counts must be integers"):
        init_atensor("clifford", *dims)


# ---------------------------------------------------------------------------
# commutator table values


def test_sf_af_av_values(quaternions, lie3):
    assert sf(quaternions, 1, 1) == -1
    assert sf(quaternions, 1, 2) == 0
    symp = init_atensor("symplectic", 2)
    assert af(symp, 1, 2) == -af(symp, 2, 1) == 1
    assert av(lie3, 1, 2) == MVec.vector(3)
    assert av(lie3, 1, 3) == -MVec.vector(2)  # entry -2 encodes -v2
    assert av(lie3, 2, 3) == MVec.vector(1)


def test_sf_af_av_type_guards(quaternions, lie3):
    with pytest.raises(ValueError):
        af(quaternions, 1, 2)
    with pytest.raises(ValueError):
        sf(lie3, 1, 2)
    with pytest.raises(ValueError):
        av(quaternions, 1, 2)
    with pytest.raises(ValueError):
        sf(quaternions, 0, 1)


# ---------------------------------------------------------------------------
# simplification


def test_grassmann_square_vanishes():
    g = init_atensor("grassmann")
    assert atensimp(g, MVec.word((1, 1))).is_zero


def test_clifford_square(quaternions):
    assert atensimp(quaternions, MVec.word((1, 1))) == -MVec.unit()


def test_clifford_swap(quaternions):
    assert atensimp(quaternions, MVec.word((2, 1))) == \
        MVec(((((1, 2)), -1),))


def test_clifford_word_square(quaternions):
    assert atensimp(quaternions, MVec.word((1, 2, 1, 2))) == -MVec.unit()


def test_universal_words_untouched():
    u = init_atensor("universal")
    e = MVec.word((2, 1))
    assert atensimp(u, e) == e


def test_symmetric_swap():
    s = init_atensor("symmetric")
    assert atensimp(s, MVec.word((2, 1))) == MVec.word((1, 2))


def test_symplectic_swap():
    s = init_atensor("symplectic", 2)
    # v2.v1 = v1.v2 - 2 f_a(1,2)
    assert atensimp(s, MVec.word((2, 1))) == \
        MVec.word((1, 2)) - 2 * MVec.unit()


def test_index_range_checked(quaternions):
    with pytest.raises(ValueError):
        atensimp(quaternions, MVec.word((1, 3)))


def test_quaternion_multiplication_table(quaternions):
    table = multiplication_table(quaternions)
    one, v1, v2, v12 = (MVec.word(w) for w in ((), (1,), (2,), (1, 2)))
    expected = [
        [one, v1, v2, v12],
        [v1, -one, v12, -v2],
        [v2, -v12, -one, v1],
        [v12, v2, -v1, -one],
    ]
    assert table == expected


def test_table_cells_for_other_types():
    s = init_atensor("symmetric")
    assert multiplication_table(s)[2][1] == MVec.word((1, 2))
    u = init_atensor("universal")
    assert multiplication_table(u)[2][1] == MVec.word((2, 1))


# ---------------------------------------------------------------------------
# properties


def _random_mvec(rng, adim, max_len=4, terms=3):
    out = MVec.zero()
    for _ in range(terms):
        word = tuple(rng.randint(1, adim) for _ in range(rng.randint(0, max_len)))
        out = out + MVec.word(word, rng.randint(-3, 3))
    return out


@pytest.mark.parametrize("algebra,dims", [
    ("grassmann", ()), ("symmetric", ()), ("universal", ()),
    ("clifford", (0, 0, 2)), ("clifford", (1, 1, 1)),
    ("symplectic", (2,)), ("lie_envelop", (3,)),
])
def test_atensimp_idempotent(algebra, dims):
    cfg = init_atensor(algebra, *dims)
    rng = random.Random(hash((algebra, dims)) & 0xFFFF)
    for _ in range(30):
        e = _random_mvec(rng, cfg.adim)
        once = atensimp(cfg, e)
        assert atensimp(cfg, once) == once


@st.composite
def _elements(draw, adim, max_len):
    word = st.lists(st.integers(1, adim), max_size=max_len).map(tuple)
    coeff = st.sampled_from([1, -1, 2, sp.Rational(-1, 3), sp.Symbol("c")])
    return MVec(draw(st.lists(st.tuples(word, coeff), min_size=1,
                              max_size=3)))


@pytest.mark.parametrize("algebra,dims", [
    ("universal", (3,)), ("grassmann", (3,)), ("symmetric", (3,)),
    ("clifford", (1, 1, 1)), ("clifford", (0, 0, 2)), ("symplectic", (2, 1)),
    ("lie_envelop", (3,)),
])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_atensimp_matches_stack_reference(algebra, dims, data):
    # the reference rewrites every path to a word separately; collecting
    # each word's coefficient first must give the same element
    cfg = init_atensor(algebra, *dims)
    element = data.draw(_elements(cfg.adim, 10))
    assert atensimp(cfg, element) == oracles.atensimp_reference(cfg, element)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=16, max_size=16).map(tuple))
def test_atensimp_reduces_long_lie_envelop_words(word):
    # 16 letters are out of reach of the one-path-at-a-time reference;
    # the result is canonical and agrees with reducing the halves first
    cfg = init_atensor("lie_envelop", 3)
    out = atensimp(cfg, MVec.word(word))
    assert all(list(w) == sorted(w) for w, _ in out.terms)
    halves = atensimp(cfg, MVec.word(word[:8])) * \
        atensimp(cfg, MVec.word(word[8:]))
    assert atensimp(cfg, halves) == out


def test_commutator_axiom_replay():
    rng = random.Random(5)
    cliff = init_atensor("clifford", 1, 0, 2)
    symp = init_atensor("symplectic", 3)
    lie = init_atensor("lie_envelop", 3)
    gras = init_atensor("grassmann", 3)
    for _ in range(20):
        u = rng.randint(1, 3)
        v = rng.randint(1, 3)
        U, V = MVec.vector(u), MVec.vector(v)
        # u.v + v.u = 2 f_s(u, v)
        assert atensimp(cliff, U * V + V * U) == \
            atensimp(cliff, 2 * sf(cliff, u, v) * MVec.unit())
        # u.v + v.u = 0
        assert atensimp(gras, U * V + V * U).is_zero
        # u.v - v.u = 2 f_a(u, v)
        assert atensimp(symp, U * V - V * U) == \
            atensimp(symp, 2 * af(symp, u, v) * MVec.unit())
        # u.v - v.u = 2 v_a(u, v)
        assert atensimp(lie, U * V - V * U) == \
            atensimp(lie, 2 * av(lie, u, v))


def test_clifford_associativity():
    rng = random.Random(9)
    for dims in ((0, 0, 2), (1, 0, 2), (2, 0, 1)):
        cfg = init_atensor("clifford", *dims)
        for _ in range(25):
            words = [tuple(rng.randint(1, cfg.adim)
                           for _ in range(rng.randint(1, 4)))
                     for _ in range(3)]
            a, b, c = (MVec.word(w) for w in words)
            left = atensimp(cfg, atensimp(cfg, a * b) * c)
            right = atensimp(cfg, a * atensimp(cfg, b * c))
            assert left == right


def test_lie_envelop_jacobi(lie3):
    for u, v, w in itertools.product((1, 2, 3), repeat=3):
        U, V, W = MVec.vector(u), MVec.vector(v), MVec.vector(w)

        def br(x, y):
            return x * y - y * x

        cyclic = br(U, br(V, W)) + br(V, br(W, U)) + br(W, br(U, V))
        assert atensimp(lie3, cyclic).is_zero


@pytest.mark.parametrize("n", [4, 5, 7])
def test_lie_envelop_bracket_failing_jacobi_is_refused(n):
    # at n = 4, atensimp(v3*atensimp(v2.v1)) and atensimp(v3.v2.v1) would
    # be two normal forms of one element
    with pytest.raises(ValueError, match="Jacobi identity on v1, v2, v3"):
        init_atensor("lie_envelop", n)


#: Every algebra type and dims tuple the tests and the benchmark use.
ALGEBRA_CASES = [
    ("universal", ()), ("universal", (3,)), ("grassmann", ()),
    ("grassmann", (2,)), ("grassmann", (3,)), ("grassmann", (4,)),
    ("grassmann", (6,)), ("symmetric", ()), ("symmetric", (3,)),
    ("clifford", (0, 0, 2)), ("clifford", (1, 0, 2)), ("clifford", (2, 0, 1)),
    ("clifford", (1, 1, 1)), ("clifford", (2, 0, 2)), ("symplectic", (2,)),
    ("symplectic", (3,)), ("symplectic", (4,)), ("symplectic", (2, 1)),
    ("symplectic", (4, 1)), ("lie_envelop", (2,)), ("lie_envelop", (3,)),
]


@pytest.mark.parametrize("algebra,dims", ALGEBRA_CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_atensimp_is_associative(algebra, dims, data):
    # the canonical words are a basis, so reducing x.y.z in either grouping
    # gives one normal form, also with coefficients a + b*c in a symbol c
    cfg = init_atensor(algebra, *dims)
    c = syms("c")[0]
    word = st.lists(st.integers(1, cfg.adim), max_size=3).map(tuple)
    coeff = st.builds(lambda a, b: a + b * c, st.integers(-3, 3),
                      st.integers(-1, 1))
    term = st.tuples(word, coeff)
    x, y, z = (MVec(data.draw(st.lists(term, min_size=1, max_size=3)))
               for _ in range(3))
    assert atensimp(cfg, x * atensimp(cfg, y * z)) == \
        atensimp(cfg, atensimp(cfg, x * y) * z)


def test_equal_symbolic_coefficients_compare_equal(lie3):
    # -c*(c + 1) and c*(-c - 1) are one coefficient: the two groupings of
    # x.y.z printed them apart and compared unequal
    c = syms("c")[0]
    x, y, z = (MVec.word((1,), c + 1), MVec.word((2,), -1),
               MVec.word((3,), c))
    left = atensimp(lie3, x * atensimp(lie3, y * z))
    right = atensimp(lie3, atensimp(lie3, x * y) * z)
    assert left == right and str(left) == str(right)


def test_commutator_helper(lie3):
    assert commutator(lie3, MVec.vector(1), MVec.vector(2)) == \
        2 * MVec.vector(3)


# ---------------------------------------------------------------------------
# parsing


def test_parse_mvec():
    assert parse_mvec("v2.v1.v1") == MVec.word((2, 1, 1))
    assert parse_mvec("2*v1.v2 - v2.v1 + 1/2") == \
        2 * MVec.word((1, 2)) - MVec.word((2, 1)) + sp.Rational(1, 2) * MVec.unit()
    with pytest.raises(ValueError):
        parse_mvec("v1 . potato")


@pytest.mark.parametrize("text", [
    "1.5*v1", "2e3*v1", "2.v1", "v1 v2", "3/0*v1"])
def test_parse_mvec_refuses_what_it_misread(text):
    # 1.5*v1 used to read as 5*v1, 2e3*v1 as 2000*v1, 2.v1 as 2*v1 and
    # v1 v2 as v1.v2
    with pytest.raises(ValueError):
        parse_mvec(text)


@pytest.mark.parametrize("text", [
    "v1/(v2-v2)", "v1/v2", "v1^2", "x*v1", "v", "%i*v1", "(v1", ""])
def test_parse_mvec_refuses_malformed_text(text):
    with pytest.raises(ValueError):
        parse_mvec(text)


def test_parse_mvec_shares_signs_parentheses_and_division():
    v1, v2, v3 = (MVec.vector(i) for i in (1, 2, 3))
    assert parse_mvec("(v1+v2).v3") == v1 * v3 + v2 * v3
    assert parse_mvec("--v1 - -v2") == v1 + v2
    assert parse_mvec("v1*v2/4 + 3/4") == \
        sp.Rational(1, 4) * (v1 * v2) + sp.Rational(3, 4) * MVec.unit()
    assert parse_mvec("v12") == MVec.vector(12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.lists(st.integers(1, 12), max_size=4).map(tuple),
    st.fractions(-5, 5, max_denominator=4)), max_size=4))
def test_parse_mvec_round_trips_printed_elements(terms):
    m = MVec((w, sp.Rational(c.numerator, c.denominator)) for w, c in terms)
    assert parse_mvec(str(m)) == m


# ---------------------------------------------------------------------------
# symbolic coefficients


def test_identically_zero_symbolic_coefficient_is_dropped():
    a, b, c = syms("a b c")
    config = init_atensor("grassmann", 2)
    collected = (MVec.word((2, 1), (a + b) * c) - MVec.word((2, 1), a * c)
                 - MVec.word((2, 1), b * c))
    assert collected.is_zero
    # v2.v1 = -v1.v2, so the two words cancel only after the rewrite
    rewritten = atensimp(config, MVec.word((2, 1), (a + b) * c)
                         + MVec.word((1, 2), a * c + b * c))
    assert rewritten.is_zero and str(rewritten) == "0"


def test_sum_coefficient_is_parenthesised():
    a, b = syms("a b")
    assert str(MVec.word((1,), a + b)) == "(a + b)*v1"
    assert str(MVec.unit() + MVec.word((1, 2), a - b)) == "1 + (a - b)*v1.v2"
    assert str(MVec.word((1,), -a - b)) == "(-a - b)*v1"
    assert str(MVec.word((2,), 2 * a) - MVec.vector(1)) == "-v1 + 2*a*v2"
