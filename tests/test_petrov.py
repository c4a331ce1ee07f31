import collections
import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import oracles
from tensoralg import catalog, petrov, scalars
from tensoralg.curvature import setup_frame
from tensoralg.petrov import (NPTetrad, PetrovType, UnclassifiableError,
                              classify, invariant_I, invariant_J, np_tetrad,
                              petrov_of_metric, weyl_scalars)
from tensoralg.scalars import is_zero, parse, sym


def lorentz_eta():
    return [["1", "0", "0", "0"], ["0", "-1", "0", "0"],
            ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]


def minus_plus_eta():
    return [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "1"]]


@pytest.fixture(scope="module")
def minkowski():
    rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    return setup_frame(["t", "x", "y", "z"], rows, lorentz_eta())


def schwarzschild():
    return setup_frame(
        ["t", "r", "theta", "phi"],
        [["sqrt((r-2*m)/r)", "0", "0", "0"],
         ["0", "sqrt(r/(r-2*m))", "0", "0"],
         ["0", "0", "r", "0"],
         ["0", "0", "0", "r*sin(theta)"]],
        minus_plus_eta())


@pytest.fixture(scope="module")
def schwarzschild_frame():
    return schwarzschild()


@pytest.fixture(scope="module")
def anti_de_sitter():
    rows = [["1/z", "0", "0", "0"], ["0", "1/z", "0", "0"],
            ["0", "0", "1/z", "0"], ["0", "0", "0", "1/z"]]
    return setup_frame(["t", "x", "y", "z"], rows, minus_plus_eta())


# ---------------------------------------------------------------------------
# tetrads


def test_minkowski_tetrad_components(minkowski):
    tet = np_tetrad(minkowski)
    s = sp.sqrt(2) / 2
    assert tet.k == (s, s, 0, 0)
    assert tet.l == (s, -s, 0, 0)
    assert tet.m == (0, 0, s, -sp.I * s)
    assert tet.mbar == (0, 0, s, sp.I * s)


def coordinate_dot(ctx, u, v):
    """g(u, v) of two tetrad vectors given in frame components, each mapped
    to coordinates through the contravariant frame."""
    E, g = ctx.frame_contravariant, ctx.lg
    cu, cv = ([sum(w[a] * E[a][i] for a in range(4)) for i in range(4)]
              for w in (u, v))
    return sum(g[i][j] * cu[i] * cv[j] for i in range(4) for j in range(4))


def test_tetrad_is_null(minkowski):
    tet = np_tetrad(minkowski)
    assert is_zero(coordinate_dot(minkowski, tet.k, tet.k))


def test_tetrad_normalization(minkowski, schwarzschild_frame):
    for ctx in (minkowski,):
        tet = np_tetrad(ctx)

        def dot(u, v):
            return coordinate_dot(ctx, u, v)

        assert is_zero(dot(tet.k, tet.l) - 1)
        assert is_zero(dot(tet.m, tet.mbar) + 1)
        for u, v in ((tet.k, tet.k), (tet.l, tet.l), (tet.m, tet.m),
                     (tet.k, tet.m), (tet.k, tet.mbar), (tet.l, tet.m),
                     (tet.l, tet.mbar)):
            assert is_zero(dot(u, v))


def test_schwarzschild_tetrad_k_dot_l(schwarzschild_frame):
    # in the (+,-,-,-) convention k.l = 1
    work = petrov.MetricContext(
        schwarzschild_frame.chart,
        [[-x for x in row] for row in schwarzschild_frame.lg],
        fri=schwarzschild_frame.fri,
        lfg=[[-x for x in row] for row in schwarzschild_frame.lfg])
    tet = np_tetrad(work)
    assert is_zero(coordinate_dot(work, tet.k, tet.l) - 1)


def test_tetrad_in_minus_plus_frame(schwarzschild_frame):
    # the caller's (-,+,+,+) frame is used as is: k.l = -1, m.mbar = 1
    tet = np_tetrad(schwarzschild_frame)

    def dot(u, v):
        return coordinate_dot(schwarzschild_frame, u, v)

    assert is_zero(dot(tet.k, tet.l) + 1)
    assert is_zero(dot(tet.m, tet.mbar) - 1)
    assert is_zero(dot(tet.k, tet.k)) and is_zero(dot(tet.m, tet.m))


def test_np_tetrad_checks_frame_against_metric():
    # a frame that is not orthonormal for the context's metric is refused
    # when the context is built, so np_tetrad never sees one
    eta = lorentz_eta()
    with pytest.raises(ValueError, match="not orthonormal"):
        petrov.MetricContext(
            ["t", "x", "y", "z"],
            [["2", "0", "0", "0"], ["0", "-1", "0", "0"],
             ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
            fri=[["1", "0", "0", "0"], ["0", "1", "0", "0"],
                 ["0", "0", "1", "0"], ["0", "0", "0", "1"]], lfg=eta)


def test_np_tetrad_rejects_non_orthonormal():
    ctx = setup_frame(["t", "x", "y", "z"],
                      [["2", "0", "0", "0"], ["0", "1", "0", "0"],
                       ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                      [["4", "0", "0", "0"], ["0", "-1", "0", "0"],
                       ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]])
    with pytest.raises(ValueError):
        np_tetrad(ctx)


# ---------------------------------------------------------------------------
# Weyl scalars


def test_weyl_scalars_zero_tensor(minkowski):
    zero = [[[[sp.S.Zero] * 4 for _ in range(4)] for _ in range(4)]
            for _ in range(4)]
    psis = weyl_scalars(zero, np_tetrad(minkowski))
    assert all(p == 0 for p in psis.psi)


def test_weyl_scalars_scale_linearly(schwarzschild_frame):
    work = petrov.MetricContext(
        schwarzschild_frame.chart,
        [[-x for x in row] for row in schwarzschild_frame.lg],
        fri=schwarzschild_frame.fri,
        lfg=[[-x for x in row] for row in schwarzschild_frame.lfg])
    tet = np_tetrad(work)
    W = work.weyl_frame
    scaled = [[[[3 * W[a][b][c][d] for d in range(4)] for c in range(4)]
               for b in range(4)] for a in range(4)]
    p1 = weyl_scalars(W, tet)
    p2 = weyl_scalars(scaled, tet)
    for a, b in zip(p1.psi, p2.psi):
        assert is_zero(b - 3 * a)


def test_schwarzschild_psi_pattern(schwarzschild_frame):
    # the type-D signature: only psi2 survives
    work = petrov.MetricContext(
        schwarzschild_frame.chart,
        [[-x for x in row] for row in schwarzschild_frame.lg],
        fri=schwarzschild_frame.fri,
        lfg=[[-x for x in row] for row in schwarzschild_frame.lfg])
    psis = weyl_scalars(work.weyl_frame, np_tetrad(work))
    assert is_zero(psis[0]) and is_zero(psis[1])
    assert is_zero(psis[3]) and is_zero(psis[4])
    assert is_zero(psis[2] - sym("m") / sym("r") ** 3)


def test_kerr_psi_pattern():
    # type D: in the catalog's (-,+,+,+) frame only
    # psi2 = -m/(r + %i*a*cos(theta))^3 survives
    ctx = catalog.load("kerr_newman", frame=True)
    psis = weyl_scalars(ctx.weyl_frame, np_tetrad(ctx))
    assert all(is_zero(psis[k]) for k in (0, 1, 3, 4))
    assert is_zero(psis[2] + parse("m/(r + %i*a*cos(theta))^3"))
    assert scalars.certify_nonzero(psis[2])
    assert classify(psis) is PetrovType.D


@pytest.mark.parametrize("name", ["kerr_newman", "exteriorschwarzschild",
                                  "interiorschwarzschild"])
def test_weyl_scalars_call_no_simplifier(name, monkeypatch):
    # weyl_scalars only contracts; classify is the one place the scalars
    # are normalized, so no trig reduction runs on them twice
    ctx = catalog.load(name, frame=True)
    weyl, tetrad = ctx.weyl_frame, np_tetrad(ctx)
    calls = collections.Counter()
    for owner, attr in ((scalars.KernelField, "reduce_trig"),
                        (scalars, "_reduce_trig_tree")):
        def counted(*args, _run=getattr(owner, attr), _attr=attr):
            calls[_attr] += 1
            return _run(*args)

        monkeypatch.setattr(owner, attr, counted)
    psis = weyl_scalars(weyl, tetrad)
    assert calls == {}
    assert classify(psis) is PetrovType.D


# ---------------------------------------------------------------------------
# invariants I and J


def test_invariants_only_psi2():
    psi = [0, 0, 1, 0, 0]
    assert invariant_I(psi) == 3
    assert invariant_J(psi) == -1


def test_invariants_zero():
    psi = [0, 0, 0, 0, 0]
    assert invariant_I(psi) == 0 and invariant_J(psi) == 0


def test_invariants_edge_pair():
    psi = [1, 0, 0, 0, 1]
    assert invariant_I(psi) == 1 and invariant_J(psi) == 0


def test_invariant_definitions_symbolic():
    p = [sym(f"q{i}") for i in range(5)]
    assert is_zero(invariant_I(p)
                   - (p[0] * p[4] - 4 * p[1] * p[3] + 3 * p[2] ** 2))
    det = sp.Matrix([[p[0], p[1], p[2]], [p[1], p[2], p[3]],
                     [p[2], p[3], p[4]]]).det()
    assert is_zero(invariant_J(p) - det)


# ---------------------------------------------------------------------------
# classification table


def test_classify_table_examples():
    x = sym("x")
    assert classify([0, 0, 0, 0, 0]) is PetrovType.O
    assert classify([0, 0, 0, 0, x]) is PetrovType.N
    assert classify([0, 0, x, 0, 0]) is PetrovType.D
    assert classify([0, 0, 1, 3, 3]) is PetrovType.D  # branch 7 with equality


def test_classify_branch7_inequality():
    assert classify([0, 0, 1, 3, 4]) is PetrovType.II


def symbolic_pattern(bits):
    """Fresh symbols in the nonzero slots of a zero pattern."""
    return [sym(f"q{i}") if bits[i] else sp.S.Zero for i in range(5)]


def test_classify_all_32_zero_patterns_match_reference():
    # fresh symbols in the nonzero slots; the expectation comes from the
    # independent numeric port evaluated at two prime assignments
    primes_a = (3, 5, 7, 11, 13)
    primes_b = (17, 23, 29, 37, 41)
    for bits in itertools.product((0, 1), repeat=5):
        got = classify(symbolic_pattern(bits))
        expect_a = oracles.petrov_reference(
            [primes_a[i] if bits[i] else 0 for i in range(5)])
        expect_b = oracles.petrov_reference(
            [primes_b[i] if bits[i] else 0 for i in range(5)])
        assert expect_a == expect_b, f"oracle unstable at {bits}"
        assert got.value == expect_a, f"mismatch at pattern {bits}"


def test_classification_scale_invariance():
    rng = random.Random(11)
    for _ in range(25):
        bits = [rng.randint(0, 1) for _ in range(5)]
        psi = [sp.Rational(rng.randint(1, 9), rng.randint(1, 5)) if b else 0
               for b in bits]
        base = classify(psi)
        for c in (2, -3, 7):
            assert classify([c * p for p in psi]) is base


# deliberately satisfied branch conditions
SPECIAL_CASES = (
    (0, 0, 1, 3, 3),       # branch 7 -> D
    (1, 1, 0, 0, -2),      # branch 27-ish pattern
    (1, 2, 3, 4, 5),       # full pattern, general block
    (1, 0, 1, 0, 1),
    (0, 1, 0, 1, 0),
)


def test_classify_special_numeric_branches():
    # cross-checked with the oracle
    for psi in SPECIAL_CASES:
        assert classify(psi).value == oracles.petrov_reference(psi)


def test_unclassifiable_raises_with_expression():
    # angle addition sits outside the kernel's trig closure, so this is
    # neither provably zero nor numerically nonzero
    x = sym("x")
    murky = sp.sin(2 * x) - 2 * sp.sin(x) * sp.cos(x)
    with pytest.raises(UnclassifiableError) as err:
        classify([0, 0, murky, 0, 0])
    assert err.value.expression is not None


def test_magnified_rounding_is_refused_not_read_as_nonzero():
    # psi4 is identically 0, so the scalars are (0, 0, 1, 0, 0), type D; the
    # kernel cannot prove the angle addition, and psi4's enclosures hold 0
    # at every point however large the factor: refused, where a float
    # sample read 10^12 times its rounding as nonzero and answered II
    x = sym("x")
    psi4 = 10 ** 12 * (sp.sin(2 * x) - 2 * sp.sin(x) * sp.cos(x))
    with pytest.raises(UnclassifiableError) as err:
        classify([0, 0, 1, 0, psi4])
    assert err.value.expression == psi4


def test_classify_refuses_scalars_that_are_not_finite_exact_values():
    # nan and oo used to give N; floats gave II where the exact tuple
    # (1/90, 1/10, 3/10) is D, so a rounding error decided the type.  A
    # float inside a kernel keeps the scalars out of every kernel field.
    p3, p4 = 0.1, 0.3
    for psi, name in (([sp.nan, 0, 0, 0, 0], "psi0"),
                      ([sp.oo, 0, 0, 0, 0], "psi0"),
                      ([0, 0, p3 ** 2 / (3 * p4), p3, p4], "psi2"),
                      ([0, sym("x"), 0, sp.sin(1.5 * sym("x")), 0], "psi3")):
        with pytest.raises(ValueError, match=f"Weyl scalar {name} .* is "
                           "not a finite exact expression"):
            classify(psi)
    exact = [0, 0, Fraction(1, 90), Fraction(1, 10), Fraction(3, 10)]
    assert classify(exact) is PetrovType.D


def test_tiny_exact_value_certifies_nonzero():
    # every sample of this rational function is an exact nonzero Fraction
    # below 1e-9; it used to be refused as undecidable
    e = parse("(139*x^2+1112*x+2224)^3/(11664*x^4+373248*x^2+2985984)^3"
              " - 27*(-341*x^3-4092*x^2-16368*x-21824)^2"
              "/(1259712*x^6+60466176*x^4+967458816*x^2+5159780352)^2")
    assert not is_zero(e)
    assert scalars.vanishes(e) is False


#: Nonzero scalars of type I in a field that is not canonical, as sin(2x)
#: and sin(x) are both generators.
_DEPENDENT_KERNELS = [sym("x") * sp.sin(sym("x")), 1 + sym("y"),
                      sym("x") * sym("y"), 2 - sp.cos(2 * sym("x")),
                      sym("x") + sym("y")]


def test_classify_certifies_each_expression_once(monkeypatch):
    # the zero cache keeps the certificate's answer, so a nonzero
    # expression is not certified again by the Petrov decision
    monkeypatch.setattr(scalars, "_zero_cache", {})
    original = scalars.certify_nonzero
    calls = collections.Counter()

    def counted(e):
        calls[e] += 1
        return original(e)
    monkeypatch.setattr(scalars, "certify_nonzero", counted)
    x, y = sym("x"), sym("y")
    for psi in (
            # outside every kernel field: decided on expression trees
            [sp.exp(x), 1 + y, x * y, 2 - x, x + y],
            # in a field that is not canonical: the field certifies each
            # numerator that holds a kernel
            _DEPENDENT_KERNELS):
        calls.clear()
        assert classify(psi) is PetrovType.I
        assert calls and max(calls.values()) == 1


def test_classify_runs_the_decision_tree_once(monkeypatch):
    # a field that is not canonical decides each condition itself, by the
    # certificate where it must: the tree runs once, in the field, and not
    # a second time on expression trees
    runs = []
    decide = petrov._decide
    monkeypatch.setattr(petrov, "_decide", lambda psi, dom: (
        runs.append(dom), decide(psi, dom))[1])
    assert classify(_DEPENDENT_KERNELS) is PetrovType.I
    assert len(runs) == 1 and runs[0] is not scalars.TREES


def test_classify_decides_rational_and_symbolic_scalars_in_one_field(
        monkeypatch):
    # symbolic zero patterns are decided on their numerators in one kernel
    # field, plain numbers at once with no field: no certificate and no
    # polynomial gcd
    from sympy.polys.rings import PolyElement
    counts = collections.Counter()
    for module, name, key in ((scalars, "certify_nonzero", "certificates"),
                              (PolyElement, "_gcd_ZZ", "gcds")):
        original = getattr(module, name)

        def counted(*args, original=original, key=key):
            counts[key] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    init = scalars.KernelField.__init__

    def counted_init(self, *args, **kwargs):
        counts["fields"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(scalars.KernelField, "__init__", counted_init)
    monkeypatch.setattr(scalars, "_zero_cache", {})
    symbolic = [symbolic_pattern(bits)
                for bits in itertools.product((0, 1), repeat=5) if any(bits)]
    for psi in [*symbolic, *SPECIAL_CASES, (0, 0, 0, 0, 0)]:
        classify(psi)
    assert counts == {"fields": len(symbolic)}


def test_classify_is_invariant_under_a_common_factor():
    x = sym("x")
    tuples = [*SPECIAL_CASES, (0, 0, 1, 3, 4), (0, 0, 0, 0, 1),
              (0, 0, 1, 0, 0), (2, 0, 3, 0, 9)]
    for factor in ((x + 7) / (x ** 2 + 3), 1 + sp.sin(x) ** 2):
        for psi in tuples:
            scaled = [sp.sympify(p) * factor for p in psi]
            assert classify(scaled) is classify(psi)


def test_classify_refuses_a_denominator_that_is_zero():
    # sin(2x) - 2 sin(x) cos(x) is a nonzero element of its kernel field but
    # 0 as a function, so these scalars are not defined anywhere
    x = sym("x")
    murky = sp.sin(2 * x) - 2 * sp.sin(x) * sp.cos(x)
    for psi in ((0, 0, 1, 0, 0), (1, 2, 3, 4, 5)):
        with pytest.raises(UnclassifiableError):
            classify([p / murky for p in psi])


def test_classify_rejects_a_denominator_that_is_provably_zero():
    # sin(x)^2 + cos(x)^2 - 1 reduces to 0 in the field, so the scalars
    # divide by zero: sympy's bare ZeroDivisionError leaked from the trees
    x = sym("x")
    zero = sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1
    # the field reads (x+1)^2 - x^2 - 2x - 1 as the zero polynomial, and
    # refuses to divide by it
    unexpanded = (x + 1) ** 2 - x ** 2 - 2 * x - 1
    for psi in ([1 / zero, 0, 0, 0, 0], [0, 0, 1 / zero, 0, x],
                [x / unexpanded, 0, 1, 0, 0]):
        with pytest.raises(ValueError) as err:
            classify(psi)
        assert type(err.value) is ValueError
        assert str(err.value) == "the Weyl scalars divide by zero"


@pytest.mark.parametrize("psi4,expected", [
    ("3*sqrt(u)", PetrovType.D), ("3*sqrt(u) + 1", PetrovType.II),
    ("3*sqrt(u)/(u + sqrt(u))", PetrovType.II)])
def test_classify_decides_scalars_with_a_root_in_the_field(
        psi4, expected, monkeypatch):
    # sqrt(u) is a generator with sqrt(u)^2 = u, so branch 7's condition
    # psi3^2 - 3 psi2 psi4 is decided in the field, no tree zero test run
    monkeypatch.setattr(scalars, "vanishes", None)
    root = parse("sqrt(u)")
    assert classify([0, 0, root, 3 * root, parse(psi4)]) is expected


def test_classify_refuses_a_scalar_zero_on_one_branch():
    # y*sqrt(x/y) - x*sqrt(y/x) is 0 wherever x*y > 0 and not elsewhere: its
    # normal form in the field is not 0, yet no certificate proves the
    # value nonzero, so the type is refused, not decided as D
    with pytest.raises(UnclassifiableError, match="whether"):
        classify([0, 0, parse("y*sqrt(x/y) - x*sqrt(y/x)"), 0, 0])


def test_refusal_writes_its_expression_in_the_package_syntax():
    # the message wrote x**2 where the grammar reads x^2
    x = sym("x")
    murky = x ** 2 * (sp.sin(2 * x) - 2 * sp.sin(x) * sp.cos(x))
    with pytest.raises(UnclassifiableError) as err:
        classify([0, 0, 1, 0, murky])
    text = str(err.value).rsplit(": ", 1)[1]
    assert "**" not in text and parse(text) == err.value.expression


_X = sym("x")
_ZERO = sp.sin(_X) ** 2 + sp.cos(_X) ** 2 - 1
_KERNEL_FACTORS = (sp.S.One, sp.sin(_X), sp.cos(_X), 1 + sp.sin(_X) ** 2,
                   1 / (2 + sp.cos(_X)), sp.sin(2 * _X))


@st.composite
def _weyl_tuples(draw):
    # as frame-petrov draws them: psi_k = q_k * w for rationals q_k and one
    # rational function w of x, a zero entry written as
    # (sin(x)^2 + cos(x)^2 - 1) * w; some entries carry a sin/cos factor,
    # and sin(2x) beside sin(x) makes the field not canonical
    a, b = draw(st.integers(1, 16)), draw(st.integers(1, 6))
    w = (_X + a) / (_X ** 2 + b)
    psi = []
    for _ in range(5):
        q = sp.Rational(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        factor = draw(st.sampled_from(_KERNEL_FACTORS)
                      | st.just(sp.S.One) | st.just(sp.S.One))
        psi.append(q * w * factor if q else _ZERO * w)
    return psi


def _outcome(decide, psi):
    try:
        return decide(psi)
    except UnclassifiableError:
        return UnclassifiableError


@settings(max_examples=40, deadline=None)
@given(_weyl_tuples())
def test_field_decision_agrees_with_expression_trees(psi):
    tree = _outcome(lambda p: petrov._decide(p, scalars.TREES), psi)
    assert _outcome(classify, psi) is tree


def _frame_petrov_tuple(qs, a=3, b=2):
    # psi_k = q_k * (x + a)/(x^2 + b), a zero entry written as
    # (sin(x)^2 + cos(x)^2 - 1) * w, as frame-petrov draws them
    w = (_X + a) / (_X ** 2 + b)
    return [sp.Rational(q) * w if q else _ZERO * w for q in qs]


@pytest.mark.parametrize("qs", [(1, 0, 3, -1, 2), (0, 0, 1, 0, 0),
                                (1, 4, 6, 4, 1), (0, -2, 0, 0, 7)])
def test_classify_reads_each_subexpression_once(monkeypatch, qs):
    # the five psi go straight to numerators: no element, no cancellation,
    # the denominator x^2 + b factored once, and w, which all five share,
    # read once
    from sympy.polys.rings import PolyElement
    want = classify(qs)
    psi = _frame_petrov_tuple(qs)

    def forbidden(*args):
        raise AssertionError("classify made an element")
    monkeypatch.setattr(scalars.KernelField, "element", forbidden)
    monkeypatch.setattr(scalars.KernelField, "_cancel", forbidden)
    counts, reads = collections.Counter(), collections.Counter()
    factor_list, read = PolyElement.factor_list, scalars.KernelField._read
    monkeypatch.setattr(PolyElement, "factor_list", lambda self: (
        counts.update(["factor_list"]), factor_list(self))[1])
    monkeypatch.setattr(scalars.KernelField, "_read", lambda self, e: (
        reads.update([e]), read(self, e))[1])
    assert classify(psi) is want
    assert counts["factor_list"] == 1
    assert _X + 3 in reads and set(reads.values()) == {1}


def test_reading_twice_into_one_field_gives_equal_elements():
    # the reads of one field share their exponent maps; had one been
    # changed, a second read would give another element
    w = (_X + 3) ** 2 / (_X ** 2 + 2) ** 3
    psi = [p * (1 + 1 / (_X ** 2 + 2)) for p in _frame_petrov_tuple(
        (1, 0, 3, -1, 2))] + [w, w * sp.sin(_X) / (_X + 1), 1 / w]
    field, fresh = scalars.kernel_field(psi), scalars.kernel_field(psi)
    first = [field.element(p) for p in psi]
    assert first == [field.element(p) for p in psi]
    assert first == [fresh.element(p) for p in psi]
    assert field.numerators(psi) == fresh.numerators(psi)


# ---------------------------------------------------------------------------
# end-to-end classification


def test_petrov_schwarzschild_is_D(schwarzschild_frame):
    assert petrov_of_metric(schwarzschild_frame) is PetrovType.D


def test_petrov_builds_no_second_context(monkeypatch):
    built = []
    init = petrov.MetricContext.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    ctx = schwarzschild()
    monkeypatch.setattr(petrov.MetricContext, "__init__", counting_init)
    assert petrov_of_metric(ctx) is PetrovType.D
    assert built == []
    # the coordinate Weyl tensor carried into the frame: no rotation
    # coefficients are computed
    assert "weyl_frame" in ctx._memo and "weyl" in ctx._memo
    assert "frame_bracket" not in ctx._memo
    assert "rotation_coeffs" not in ctx._memo


def test_petrov_anti_de_sitter_is_O(anti_de_sitter):
    assert petrov_of_metric(anti_de_sitter) is PetrovType.O


def test_petrov_flat_is_O(minkowski):
    assert petrov_of_metric(minkowski) is PetrovType.O


def test_petrov_requires_frame():
    from tensoralg.curvature import setup_metric
    flat = setup_metric(["t", "x", "y", "z"],
                        [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    with pytest.raises(ValueError):
        petrov_of_metric(flat)


def test_petrov_requires_lorentz_frame_metric():
    rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    euclid = setup_frame(["t", "x", "y", "z"], rows,
                         [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                          ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    with pytest.raises(ValueError):
        petrov_of_metric(euclid)
