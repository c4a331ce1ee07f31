import random
from dataclasses import replace
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

import oracles
from tensoralg import indicial as ind
from tensoralg.indicial import (IndexConflictError, IndexExpr, IndexedObject,
                                TensorContext, anti_group, canform, contract,
                                contravariant_indices, covariant_indices,
                                covdiff, equivalent, expand_christoffels,
                                extdiff, ichr1, ichr2, inner, iobj, liediff,
                                parse_tensor_expr, split_indices, sym_group,
                                wedge)


@pytest.fixture()
def ctx():
    return TensorContext()


def obj(*args, **kwargs):
    return IndexExpr.of(iobj(*args, **kwargs))


# ---------------------------------------------------------------------------
# index plumbing


def test_split_indices():
    assert split_indices(["a", "-b", "c"]) == (["a", "c"], ["b"])
    assert split_indices([]) == ([], [])
    assert split_indices(["-a", "-b"]) == ([], ["a", "b"])


def test_covariant_contravariant_lists():
    t = iobj("T", ["a", "-b", "c", "-d"])
    assert covariant_indices(t) == ["a", "c"]
    assert contravariant_indices(t) == ["b", "d"]
    g = iobj("g", ["a", "b"])
    assert covariant_indices(g) == ["a", "b"]
    assert contravariant_indices(g) == []
    t2 = iobj("T", ["a"], ["c"])
    assert covariant_indices(t2) == ["a"]
    assert contravariant_indices(t2) == ["c"]
    # mixed marks and legacy list append
    t3 = iobj("T", ["a", "-b"], ["c"])
    assert contravariant_indices(t3) == ["b", "c"]


def test_index_conflicts_rejected():
    with pytest.raises(IndexConflictError):
        IndexExpr.of(iobj("T", ["a", "a"]))
    with pytest.raises(IndexConflictError):
        IndexExpr.of(iobj("T", ["a"]), iobj("S", ["a"]), iobj("R", ["-a"]))
    with pytest.raises(IndexConflictError):
        obj("T", ["a"]) + obj("T", ["b"])
    with pytest.raises(IndexConflictError):
        obj("T", ["a"]) - obj("S", ["-a"])
    with pytest.raises(IndexConflictError):
        obj("T", ["a"]) * obj("S", ["a"])
    with pytest.raises(IndexConflictError):
        obj("T", ["a", "-b"]) * obj("S", ["b", "-b"])


def test_zero_terms_are_checked_but_carry_no_free_indices():
    with pytest.raises(IndexConflictError):
        IndexExpr.of(iobj("T", ["a"]), iobj("S", ["a"]), coeff=0)
    with pytest.raises(IndexConflictError):
        IndexExpr([ind.Term(1, (iobj("R", ["a"]),)),
                   ind.Term(0, (iobj("T", ["-a", "-a"]),))])
    assert obj("T", ["a"]) + 0 * obj("S", ["b"]) == obj("T", ["a"])
    assert IndexExpr([ind.Term(1, (iobj("T", ["a"]),)),
                      ind.Term(0, (iobj("S", ["b"]),))]) == obj("T", ["a"])


def test_covdiff_and_expand_christoffels_count_labels_linearly(
        monkeypatch, ctx):
    # every sum is built once: the labels of a term are counted a fixed
    # number of times, not again for each term added after it
    census, calls = ind._label_census, [0]

    def counted(factors):
        calls[0] += 1
        return census(factors)

    monkeypatch.setattr(ind, "_label_census", counted)
    counts = {}
    for n in (6, 12):
        e = IndexExpr.of(*(iobj("g", [f"a{i}", f"b{i}"]) for i in range(n)))
        calls[0] = 0
        expand_christoffels(ctx, covdiff(ctx, e, "k"))
        counts[n] = calls[0]
    # linear growth doubles the count; 10% margin
    assert counts[12] <= 2.2 * counts[6], counts


def test_canform_resolves_symmetries_once_per_shape(monkeypatch, ctx):
    # six metrics of one name, notation and variance pattern: one lookup
    declaration_for, calls = TensorContext._declaration_for, [0]

    def counted(self, obj):
        calls[0] += 1
        return declaration_for(self, obj)

    monkeypatch.setattr(TensorContext, "_declaration_for", counted)
    e = IndexExpr.of(*(iobj("g", [f"b{i}", f"a{i}"]) for i in range(6)))
    out = canform(ctx, e)
    assert calls[0] == 1
    assert out == IndexExpr.of(*(iobj("g", [f"a{i}", f"b{i}"])
                                 for i in range(6)))


def test_expand_christoffels_builds_no_expression_per_symbol(
        monkeypatch, ctx):
    init, calls = IndexExpr.__init__, [0]

    def counted(self, terms=()):
        calls[0] += 1
        init(self, terms)

    counts = {}
    for n in (1, 3):
        e = IndexExpr.of(*(iobj("ichr2", [f"a{i}", f"b{i}"], [f"c{i}"],
                                f"d{i}") for i in range(n)))
        monkeypatch.setattr(IndexExpr, "__init__", counted)
        calls[0] = 0
        out = expand_christoffels(ctx, e)
        monkeypatch.undo()
        counts[n] = calls[0]
        assert len(out.terms) == 6 ** n
    assert counts[3] == counts[1], counts


# ---------------------------------------------------------------------------
# contraction


def test_contract_lowers_index(ctx):
    e = IndexExpr.of(iobj("g", ["a", "b"]), iobj("T", [], ["b", "c"]))
    assert contract(ctx, e) == obj("T", ["a"], ["c"])


def test_contract_legacy_reproduces_d_a_ordering(ctx):
    e = IndexExpr.of(iobj("g", [], ["d", "c"]), iobj("g", ["b", "c"]),
                     iobj("T", [], ["a", "b"]))
    assert contract(ctx, e) == obj("T", [], ["d", "a"])


def test_contract_ordered_keeps_slot(ctx):
    e = IndexExpr.of(iobj("g", ["-d", "-c"]), iobj("g", ["b", "c"]),
                     iobj("T", ["a", "-b"]))
    assert contract(ctx, e) == obj("T", ["a", "-d"])


def test_contract_is_idempotent(ctx):
    e = IndexExpr.of(iobj("g", ["a", "b"]), iobj("T", [], ["b", "c"])) \
        + 2 * IndexExpr.of(iobj("g", ["a", "q"]), iobj("S", ["-q", "-c"]))
    once = contract(ctx, e)
    assert contract(ctx, once) == once


def test_contract_metric_with_metric_gives_dim(ctx):
    ctx.dim = 4
    e = IndexExpr.of(iobj("g", ["a", "b"]), iobj("g", [], ["a", "b"]))
    assert contract(ctx, e) == IndexExpr.scalar(4)


def test_contract_mixed_variance_metric(ctx):
    # g_a^b V_b = V_a
    e = parse_tensor_expr("g([a,-b],[])*V([b],[])")
    assert contract(ctx, e) == obj("V", ["a"])


def test_contract_kronecker_delta_renames_a_contravariant_slot(ctx):
    # delta_a^b X^a = X^b
    e = parse_tensor_expr("kdelta([a,-b],[])*X([-a],[])")
    assert contract(ctx, e) == obj("X", ["-b"])


def test_contract_conflicting_dummy_is_an_error(ctx):
    with pytest.raises(IndexConflictError):
        contract(ctx, IndexExpr.of(iobj("g", ["a", "b"]),
                                   iobj("T", ["b"], ["c"]),
                                   iobj("S", ["b"])))


# ---------------------------------------------------------------------------
# symmetry declarations and canform


def test_decsym_sorts_symmetric_metric(ctx):
    assert canform(ctx, obj("g", ["b", "a"])) == obj("g", ["a", "b"])


def test_decsym_antisymmetric_sign(ctx):
    ctx.decsym("e2", 2, 0, [anti_group()])
    assert canform(ctx, obj("e2", ["b", "a"])) == -obj("e2", ["a", "b"])


def test_single_declaration_covers_variance_mixtures(ctx):
    e = obj("g", ["-b", "a"]) - obj("g", ["a", "-b"])
    assert canform(ctx, e).is_zero


def test_decsym_conflict_rejected(ctx):
    ctx.decsym("Q", 2, 0, [sym_group()])
    with pytest.raises(ValueError):
        ctx.decsym("Q", 2, 0, [anti_group()])


def test_sort_group_sign_is_permutation_parity():
    a, b, c = ("a", False), ("b", False), ("c", False)
    assert ind._sort_group([c, a, b], "anti") == ([a, b, c], 1)
    assert ind._sort_group([b, a, c], "anti") == ([a, b, c], -1)
    assert ind._sort_group([c, b, a], "anti") == ([a, b, c], -1)
    assert ind._sort_group([b, a, b], "anti")[1] == 0
    assert ind._sort_group([c, a, b], "sym") == ([a, b, c], 1)
    # one label up and down: a trace over an antisymmetric pair
    up = ("a", True)
    assert ind._sort_group([b, up, a], "anti")[1] == 0
    assert ind._sort_group([b, up, a], "sym") == ([a, up, b], 1)
    # two slots, both orders
    assert ind._sort_group([b, a], "anti") == ([a, b], -1)
    assert ind._sort_group([a, b], "anti") == ([a, b], 1)
    assert ind._sort_group([b, a], "sym") == ([a, b], 1)
    assert ind._sort_group([a, b], "sym") == ([a, b], 1)
    assert ind._sort_group([up, a], "anti")[1] == 0
    assert ind._sort_group([a, up], "anti")[1] == 0
    assert ind._sort_group([up, a], "sym") == ([a, up], 1)
    assert ind._sort_group([a, up], "sym") == ([a, up], 1)


def test_canform_antisymmetric_trace_is_zero(ctx):
    # F_m^m_r W^r: the trace of F over two antisymmetric slots vanishes
    ctx.decsym("F", 3, 0, [anti_group()])
    e = parse_tensor_expr("F([m,-m,-r],[])*W([r],[])")
    assert canform(ctx, e).is_zero
    assert contract(ctx, e).is_zero
    assert equivalent(ctx, e, 0 * e)
    # a trace over slots outside the antisymmetric group stays
    ctx.decsym("G", 3, 0, [anti_group(1, 2)])
    kept = parse_tensor_expr("G([m,-r,-m],[])*W([r],[])")
    assert not canform(ctx, kept).is_zero


def test_canform_antisymmetric_cancellation(ctx):
    ctx.decsym("A", 2, 0, [anti_group()])
    e = obj("A", ["a", "b"]) + obj("A", ["b", "a"])
    assert canform(ctx, e).is_zero
    assert canform(ctx, obj("A", ["j", "i"])) == -obj("A", ["i", "j"])


def test_canform_pre_contraction_sign(ctx):
    # eps^{ab} T_bc vs eps^{ba} T_bc must differ by a sign
    ctx.decsym("eps", 2, 0, [anti_group()])
    e1 = contract(ctx, IndexExpr.of(iobj("eps", ["-a", "-b"]),
                                    iobj("T", ["b", "c"])))
    e2 = contract(ctx, IndexExpr.of(iobj("eps", ["-b", "-a"]),
                                    iobj("T", ["b", "c"])))
    assert canform(ctx, e1 + e2).is_zero
    assert not e1.is_zero


def test_canform_no_rule_keeps_two_terms(ctx):
    e = obj("T", ["a", "b"]) + obj("T", ["b", "a"])
    out = canform(ctx, e)
    assert len(out.terms) == 2


def test_canform_merges_dummy_renamings(ctx):
    e1 = IndexExpr.of(iobj("v", [], ["p"]), iobj("w", ["p"]))
    e2 = IndexExpr.of(iobj("v", [], ["q"]), iobj("w", ["q"]))
    assert canform(ctx, e1 - e2).is_zero


def test_canform_renames_dummies_onto_free_generated_labels(ctx):
    # %1 is free, so the dummy a becomes %2; both raised IndexConflictError
    e = IndexExpr.of(iobj("T", ["%1", "-a"]), iobj("S", ["a"]))
    expected = IndexExpr.of(iobj("S", ["%2"]), iobj("T", ["%1", "-%2"]))
    assert canform(ctx, e) == expected
    assert contract(ctx, e) == expected
    lowered = IndexExpr.of(iobj("g", ["%1", "b"]), iobj("T", ["-b", "-a"]),
                           iobj("S", ["a"]))
    assert contract(ctx, lowered) == expected
    e = IndexExpr.of(iobj("R", ["%2", "a", "-b", "-a"]),
                     iobj("S", ["b", "%1"]), coeff=3)
    assert canform(ctx, e) == IndexExpr.of(
        iobj("R", ["%2", "%3", "-%4", "-%3"]), iobj("S", ["%4", "%1"]),
        coeff=3)


def test_canform_does_its_bookkeeping_once(monkeypatch, ctx):
    # no object is normalized again and each term's labels are counted
    # once: the output is built from relabelings of checked terms
    ctx.decsym("S", 2, 0, [sym_group()])
    ctx.decsym("A", 2, 0, [anti_group()])
    ctx.decsym("R", 4, 0, [anti_group(1, 2), anti_group(3, 4)])
    e = (IndexExpr.of(iobj("R", ["b", "a", "-c", "-d"]), iobj("S", ["e", "c"]),
                      iobj("A", ["-e", "-a"]), iobj("W", ["d"]), coeff=2)
         + IndexExpr.of(iobj("M", ["-f", "b"]), iobj("S", ["f", "h"]),
                        iobj("A", ["-h", "-i"]), iobj("X", ["i"])))
    calls = {"post_init": 0, "census": 0}
    post_init, census = IndexedObject.__post_init__, ind._label_census

    def counted_post_init(self):
        calls["post_init"] += 1
        post_init(self)

    def counted_census(factors):
        calls["census"] += 1
        return census(factors)

    monkeypatch.setattr(IndexedObject, "__post_init__", counted_post_init)
    monkeypatch.setattr(ind, "_label_census", counted_census)
    out = canform(ctx, e)
    assert calls == {"post_init": 0, "census": 2}
    assert str(out) == ("A([-%1,-%2],[])*M([-%3,b],[])*S([%1,%3],[])"
                        "*X([%2],[]) - 2*A([-%1,-%2],[])*R([b,%1,-%3,-%4],[])"
                        "*S([%2,%3],[])*W([%4],[])")


def test_canform_stops_after_a_pass_that_renames_no_dummy(monkeypatch, ctx):
    # one _apply_symmetries call per factor and pass
    ctx.decsym("S", 2, 0, [sym_group()])
    apply, calls = ind._apply_symmetries, [0]

    def counted(obj, groups):
        calls[0] += 1
        return apply(obj, groups)

    monkeypatch.setattr(ind, "_apply_symmetries", counted)

    def passes(text, expected):
        calls[0] = 0
        assert str(canform(ctx, parse_tensor_expr(text))) == expected
        return calls[0] / 2

    # slots and factor order sorted, no dummy: nothing left to confirm
    assert passes("W([b],[])*S([c,a],[])", "S([a,c],[])*W([b],[])") == 1
    assert passes("S([a,c],[])*W([b],[])", "S([a,c],[])*W([b],[])") == 1
    # the dummy e is renamed, so a second pass reads the new names
    assert passes("W([-e],[])*S([c,e],[])", "S([c,%1],[])*W([-%1],[])") == 2


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_ichr1_expansion(ctx):
    half = sp.Rational(1, 2)
    expected = (IndexExpr.of(iobj("g", ["k", "l"], (), "h"), coeff=half)
                + IndexExpr.of(iobj("g", ["l", "h"], (), "k"), coeff=half)
                - IndexExpr.of(iobj("g", ["h", "k"], (), "l"), coeff=half))
    assert equivalent(ctx, ichr1(ctx, ["h", "k", "l"]), expected)


def test_ichr1_with_derivative_label(ctx):
    # Gamma_abc,d = 1/2 (g_bc,ad + g_ca,bd - g_ab,cd)
    half = sp.Rational(1, 2)
    expected = (IndexExpr.of(iobj("g", ["b", "c"], (), "a", "d"),
                             coeff=half)
                + IndexExpr.of(iobj("g", ["c", "a"], (), "b", "d"),
                               coeff=half)
                - IndexExpr.of(iobj("g", ["a", "b"], (), "c", "d"),
                               coeff=half))
    e = ichr1(ctx, ["a", "b", "c"], ["d"])
    assert len(e.terms) == 3
    assert equivalent(ctx, e, expected)
    assert equivalent(ctx, expand_christoffels(
        ctx, obj("ichr1", ["a", "b", "c"], (), "d")), expected)


def test_ichr2_is_raised_ichr1(ctx):
    e = ichr2(ctx, ["h", "k"], ["j"])
    manual = IndexExpr.of(iobj("g", ["-j", "-l"])) * ichr1(ctx, ["h", "k", "l"])
    assert equivalent(ctx, e, manual)


def test_ichr2_with_derivative_label(ctx):
    # the differentiated Christoffel expands by the product rule
    e = ichr2(ctx, ["a", "b"], ["c"], ["d"])
    assert len(e.terms) == 6
    undiff = ichr2(ctx, ["a", "b"], ["c"])
    assert equivalent(ctx, e, ind.partial(undiff, "d"))


def test_expand_christoffels_renames_clashing_dummies(ctx):
    # each ichr2 expands to 1/2 g^cm (g_bm,a + g_ma,b - g_ab,m) with the
    # generated dummy m = %1; in a product the second one's becomes %2
    def gamma(a, b, c, m):
        return IndexExpr.of(iobj("g", ["-" + c, "-" + m]),
                            coeff=sp.Rational(1, 2)) \
            * (obj("g", [b, m], [], a) + obj("g", [m, a], [], b)
               - obj("g", [a, b], [], m))

    out = expand_christoffels(ctx, parse_tensor_expr(
        "ichr2([a,b],[c])*ichr2([c,d],[e])"))
    assert len(out.terms) == 9
    assert out == gamma("a", "b", "c", "%1") * gamma("c", "d", "e", "%2")
    # two derivative labels: 12 terms in the order of partial's Leibniz rule
    out = expand_christoffels(ctx, obj("ichr2", ["a", "b"], ["c"], "e", "d"))
    assert len(out.terms) == 12
    assert out == ind.partial(ind.partial(gamma("a", "b", "c", "%1"), "d"),
                              "e")
    # a generated derivative label is kept as given
    half = sp.Rational(1, 2)
    out = expand_christoffels(ctx, obj("ichr1", ["a", "b", "c"], [], "%1"))
    assert out == (IndexExpr.of(iobj("g", ["b", "c"], [], "a", "%1"),
                                coeff=half)
                   + IndexExpr.of(iobj("g", ["c", "a"], [], "b", "%1"),
                                  coeff=half)
                   - IndexExpr.of(iobj("g", ["a", "b"], [], "c", "%1"),
                                  coeff=half))
    # a traced generated label is renamed away, after the dummy %2
    out = expand_christoffels(ctx, IndexExpr.of(
        iobj("ichr2", ["%1", "e"], ["%1"]), iobj("V", ["f"])))
    assert out == gamma("%3", "e", "%3", "%2") * obj("V", ["f"])
    # clashing generated labels take fresh ones in the order of their text
    out = expand_christoffels(ctx, IndexExpr.of(
        iobj("ichr2", ["%10", "%1"], ["%10"]), iobj("V", ["%2"])))
    assert out == gamma("%3", "%1", "%3", "%4") * obj("V", ["%2"])


def test_expand_christoffels_output_passes_the_checks_it_skips(ctx):
    # the expansion is built unchecked: each symbol becomes terms of its own
    # free indices and of generated dummies fresh to the term
    rng = random.Random(3)
    for _ in range(300):
        pool = rng.sample(["a", "b", "c", "d", "e", "%1", "%2", "%3", "%10"], 9)
        factors = [iobj("V", [pool.pop()])]
        for _ in range(rng.randint(1, 2)):
            h, k, j = pool.pop(), pool.pop(), pool.pop()
            deriv = [pool.pop() for _ in range(rng.randint(0, 1))]
            if rng.random() < 0.3:
                factors.append(iobj("ichr1", [h, k, j], [], *deriv))
                continue
            j = h if rng.random() < 0.3 else j
            factors.append(iobj("ichr2", [h, k], [j], *deriv)
                           if rng.random() < 0.5
                           else iobj("ichr2", [k, "-" + j, h], [], *deriv))
        out = expand_christoffels(ctx, IndexExpr.of(*factors))
        assert IndexExpr(out.terms).terms == out.terms


def test_expand_christoffels_refuses_a_contravariant_ichr1_slot(ctx):
    # its expansion would lower the contravariant slot
    for e in (obj("ichr1", ["a", "-b", "c"]), obj("ichr1", ["a", "b"], ["c"])):
        with pytest.raises(ValueError, match="three covariant"):
            expand_christoffels(ctx, e)


def test_contracted_ichr2_collapses_to_metric_derivative(ctx):
    # g^{jl} Gamma_jkl contracted and canformed stays well-formed
    e = expand_christoffels(ctx, IndexExpr.of(iobj("ichr2", ["i", "k"], ["m"]),
                                              iobj("g", ["m", "j"])))
    out = contract(ctx, e)
    # lowering the upper index must produce the first-kind symbol
    assert equivalent(ctx, out, ichr1(ctx, ["i", "k", "j"]))


# ---------------------------------------------------------------------------
# covariant derivative


def test_covdiff_scalar(ctx):
    f = obj("f")
    assert covdiff(ctx, f, "k") == obj("f", (), (), "k")


def test_covdiff_contravariant(ctx):
    out = covdiff(ctx, obj("X", [], ["j"]), "k")
    expected = obj("X", [], ["j"], "k") \
        + IndexExpr.of(iobj("ichr2", ["h", "k"], ["j"]), iobj("X", [], ["h"]))
    assert equivalent(ctx, out, expected)


def test_covdiff_covariant(ctx):
    out = covdiff(ctx, obj("X", ["j"]), "k")
    expected = obj("X", ["j"], (), "k") \
        - IndexExpr.of(iobj("ichr2", ["j", "k"], ["h"]), iobj("X", ["h"]))
    assert equivalent(ctx, out, expected)


def test_covdiff_rejects_label_collision(ctx):
    with pytest.raises(IndexConflictError):
        covdiff(ctx, obj("X", ["j"]), "j")


def test_covdiff_leibniz(ctx):
    a = iobj("A", ["i"])
    b = iobj("B", [], ["j"])
    product = IndexExpr.of(a, b)
    lhs = covdiff(ctx, product, "k")
    rhs = covdiff(ctx, IndexExpr.of(a), "k") * IndexExpr.of(b) \
        + IndexExpr.of(a) * covdiff(ctx, IndexExpr.of(b), "k")
    assert canform(ctx, lhs - rhs).is_zero


def test_covdiff_leibniz_with_torsion():
    ctx = TensorContext(torsion=True, nonmetricity=True)
    ctx.decsym("tau", 2, 1, [anti_group(1, 2)])
    a = iobj("A", ["i", "-p"])
    b = iobj("B", ["q"])
    lhs = covdiff(ctx, IndexExpr.of(a, b), "k")
    rhs = covdiff(ctx, IndexExpr.of(a), "k") * IndexExpr.of(b) \
        + IndexExpr.of(a) * covdiff(ctx, IndexExpr.of(b), "k")
    assert canform(ctx, lhs - rhs).is_zero


def test_torsion_commutator_identity():
    # f_;ij - f_;ji + tau_ij^k f,k = 0 for antisymmetric torsion
    ctx = TensorContext(torsion=True)
    ctx.decsym("tau", 2, 1, [anti_group(1, 2)])
    f = obj("f")
    fij = covdiff(ctx, covdiff(ctx, f, "i"), "j")
    fji = covdiff(ctx, covdiff(ctx, f, "j"), "i")
    correction = IndexExpr.of(iobj("tau", ["i", "j"], ["k"]),
                              iobj("f", (), (), "k"))
    assert canform(ctx, fij - fji + correction).is_zero


def test_nonmetricity_identity():
    # g_ij;k + mu_k g_ij = 0
    ctx = TensorContext(nonmetricity=True)
    lhs = covdiff(ctx, obj("g", ["i", "j"]), "k") \
        + IndexExpr.of(iobj("mu", ["k"]), iobj("g", ["i", "j"]))
    reduced = contract(ctx, expand_christoffels(ctx, lhs))
    assert reduced.is_zero


def test_plain_covdiff_annihilates_metric(ctx):
    out = contract(ctx, expand_christoffels(
        ctx, covdiff(ctx, obj("g", ["i", "j"]), "k")))
    assert out.is_zero


def test_frame_mode_uses_frame_connection():
    ctx = TensorContext(frame=True)
    out = covdiff(ctx, obj("X", [], ["j"]), "k")
    names = {f.name for t in out.terms for f in t.factors}
    assert "gamma" in names and "ichr2" not in names


# ---------------------------------------------------------------------------
# Lie derivative


def test_liediff_scalar(ctx):
    ctx.declare_vector("V")
    out = liediff(ctx, obj("f"), "V")
    expected = IndexExpr.of(iobj("V", [], ["h"]), iobj("f", (), (), "h"))
    assert canform(ctx, out - expected).is_zero


def test_liediff_contravariant(ctx):
    ctx.declare_vector("V")
    out = liediff(ctx, obj("X", [], ["i"]), "V")
    expected = IndexExpr.of(iobj("V", [], ["h"]), iobj("X", [], ["i"], "h")) \
        - IndexExpr.of(iobj("X", [], ["h"]), iobj("V", [], ["i"], "h"))
    assert canform(ctx, out - expected).is_zero


def test_liediff_covariant(ctx):
    ctx.declare_vector("V")
    out = liediff(ctx, obj("A", ["l"]), "V")
    expected = IndexExpr.of(iobj("V", [], ["h"]), iobj("A", ["l"], (), "h")) \
        + IndexExpr.of(iobj("A", ["h"]), iobj("V", [], ["h"], "l"))
    assert canform(ctx, out - expected).is_zero


def test_liediff_derivative_label_counts_as_covariant(ctx):
    # L_V A_l,k = V^h A_l,kh + A_h,k V^h_,l + A_l,h V^h_,k
    ctx.declare_vector("V")
    out = liediff(ctx, obj("A", ["l"], [], "k"), "V")
    expected = (IndexExpr.of(iobj("V", [], ["h"]),
                             iobj("A", ["l"], [], "k", "h"))
                + IndexExpr.of(iobj("A", ["h"], [], "k"),
                               iobj("V", [], ["h"], "l"))
                + IndexExpr.of(iobj("A", ["l"], [], "h"),
                               iobj("V", [], ["h"], "k")))
    assert len(out.terms) == 3
    assert canform(ctx, out - expected).is_zero


def test_liediff_requires_registered_vector(ctx):
    with pytest.raises(ValueError):
        liediff(ctx, obj("f"), "V")


# ---------------------------------------------------------------------------
# exterior calculus


def test_wedge_tensorial_one_forms():
    ctx = TensorContext(dim=4)
    out = wedge(ctx, obj("a", ["i"]), obj("b", ["j"]))
    half = sp.Rational(1, 2)
    expected = IndexExpr.of(iobj("a", ["i"]), iobj("b", ["j"]), coeff=half) \
        - IndexExpr.of(iobj("a", ["j"]), iobj("b", ["i"]), coeff=half)
    assert canform(ctx, out - expected).is_zero


def test_wedge_geometric_one_forms():
    ctx = TensorContext(dim=4, geometric_wedge=True)
    out = wedge(ctx, obj("a", ["i"]), obj("b", ["j"]))
    expected = IndexExpr.of(iobj("a", ["i"]), iobj("b", ["j"])) \
        - IndexExpr.of(iobj("a", ["j"]), iobj("b", ["i"]))
    assert canform(ctx, out - expected).is_zero


def test_wedge_self_vanishes_both_conventions():
    for geometric in (False, True):
        ctx = TensorContext(dim=4, geometric_wedge=geometric)
        out = wedge(ctx, obj("a", ["i"]), obj("a", ["j"]))
        assert out.is_zero


def test_wedge_convention_bridge_examples():
    # geometric = (p+q)!/(p!q!) * tensorial, term by term
    for p_labels, q_labels in ((["i"], ["j"]), (["i"], ["j", "k"]),
                               (["i", "j"], ["k", "l"])):
        ctx_t = TensorContext(dim=4)
        ctx_g = TensorContext(dim=4, geometric_wedge=True)
        for c in (ctx_t, ctx_g):
            if len(p_labels) > 1:
                c.decsym("A", len(p_labels), 0, [anti_group()])
            if len(q_labels) > 1:
                c.decsym("B", len(q_labels), 0, [anti_group()])
        a, b = obj("A", p_labels), obj("B", q_labels)
        factor = sp.factorial(len(p_labels) + len(q_labels)) / (
            sp.factorial(len(p_labels)) * sp.factorial(len(q_labels)))
        diff = wedge(ctx_g, a, b) - factor * wedge(ctx_t, a, b)
        assert canform(ctx_t, diff).is_zero


def test_wedge_dimension_cutoff():
    ctx = TensorContext(dim=2)
    ctx.decsym("B", 2, 0, [anti_group()])
    assert wedge(ctx, obj("a", ["i"]), obj("B", ["j", "k"])).is_zero


@pytest.mark.parametrize("dim", [True, 1.7, 2.0, "2", 0])
def test_dim_refuses_bool_and_non_integral_values(dim):
    # True used to give dim_scalar 1
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        TensorContext(dim=dim)


def test_dim_takes_an_integer_like_value():
    ctx = TensorContext(dim=sp.Integer(3))
    assert ctx.dim == 3 and type(ctx.dim) is int


def test_extdiff_conventions():
    ctx = TensorContext(dim=4)
    out = extdiff(ctx, obj("a", ["j"]), "i")
    half = sp.Rational(1, 2)
    expected = IndexExpr.of(iobj("a", ["j"], (), "i"), coeff=half) \
        - IndexExpr.of(iobj("a", ["i"], (), "j"), coeff=half)
    assert canform(ctx, out - expected).is_zero
    ctx_g = TensorContext(dim=4, geometric_wedge=True)
    out_g = extdiff(ctx_g, obj("a", ["j"]), "i")
    assert canform(ctx, out_g - 2 * expected).is_zero


def test_extdiff_rejects_derivative_carrying_operands():
    # derivative indices are not form slots; d is applied to plain forms
    ctx = TensorContext(dim=4)
    da = extdiff(ctx, obj("a", ["k"]), "j")
    with pytest.raises(ValueError):
        extdiff(ctx, da, "i")


def test_inner_contracts_first_slot():
    ctx = TensorContext(dim=4)
    ctx.decsym("B", 2, 0, [anti_group()])
    ctx.declare_vector("v")
    out = inner(ctx, "v", obj("B", ["i", "j"]))
    expected = IndexExpr.of(iobj("v", [], ["%1"]), iobj("B", ["%1", "j"]))
    assert canform(ctx, out - canform(ctx, expected)).is_zero


def test_zero_operand_gives_the_zero_expression():
    ctx = TensorContext(dim=4)
    ctx.decsym("B", 2, 0, [anti_group()])
    ctx.declare_vector("v")
    b, c = obj("B", ["i", "j"]), obj("B", ["m", "n"])
    # the empty expression, a scalar 0, and a sum that cancels in canform
    for zero in (IndexExpr(), 0, c - c):
        assert wedge(ctx, zero, obj("a", ["k"])).is_zero
        assert wedge(ctx, b, zero).is_zero
        assert wedge(ctx, zero, IndexExpr()).is_zero
        assert extdiff(ctx, zero, "k").is_zero
        assert inner(ctx, "v", zero).is_zero
    # the other operand is still checked
    with pytest.raises(ValueError, match="not declared fully antisymmetric"):
        wedge(ctx, 0, obj("T", ["i", "j"]))
    with pytest.raises(ValueError, match="fully covariant"):
        wedge(ctx, obj("a", ["-k"]), IndexExpr())


FORMS = {0: ("f", "h"), 1: ("u", "v"), 2: ("A", "B"), 3: ("C", "D"),
         4: ("E", "G")}


def form_context(dim, geometric):
    ctx = TensorContext(dim=dim, geometric_wedge=geometric)
    for p in (2, 3, 4):
        for name in FORMS[p]:
            ctx.decsym(name, p, 0, [anti_group()])
    return ctx


def form_sum(labels, coeffs):
    """A sum of len(labels)-forms, one per coefficient."""
    out = IndexExpr()
    for name, coeff in zip(FORMS[len(labels)], coeffs):
        out = out + IndexExpr.of(iobj(name, labels), coeff=coeff)
    return out


X, Y = sp.Symbol("x"), sp.Symbol("y")


@pytest.mark.parametrize("p, q", [(p, q) for p in range(5) for q in range(5)
                                  if p + q <= 4])
def test_wedge_matches_the_permutation_sum(p, q):
    a_labels, b_labels = list("ijkl"[:p]), list("mnrs"[:q])
    for dim in (4, 3):
        for geometric in (False, True):
            ctx = form_context(dim, geometric)
            a = form_sum(a_labels, (sp.Rational(2, 3), -X))
            b = form_sum(b_labels, (Y / 2, 3))
            assert wedge(ctx, a, b) == oracles.wedge_reference(ctx, a, b)
            # a form wedged with itself
            if p == q:
                a2 = form_sum(b_labels, (sp.Rational(2, 3), -X))
                assert wedge(ctx, a, a2) == \
                    oracles.wedge_reference(ctx, a, a2)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_extdiff_matches_the_permutation_sum(p):
    labels = list("jkl"[:p])
    for dim in (4, 3):
        for geometric in (False, True):
            ctx = form_context(dim, geometric)
            for a in (form_sum(labels, (1,)),
                      form_sum(labels, (sp.Rational(-5, 2), X + 1))):
                assert extdiff(ctx, a, "i") == \
                    oracles.extdiff_reference(ctx, a, "i")


def test_wedge_and_extdiff_hand_canform_one_term_per_shuffle(monkeypatch):
    ctx = form_context(4, False)
    sizes, original = [], ind.canform

    def counted(ctx, e):
        sizes.append(len(e.terms))
        return original(ctx, e)

    monkeypatch.setattr(ind, "canform", counted)
    wedge(ctx, obj("A", ["i", "j"]), obj("B", ["k", "l"]))
    extdiff(ctx, obj("C", ["i", "j", "k"]), "l")
    # C(4, 2) shuffles, not 4! permutations; 3 + 1 derivative slots
    assert sizes == [6, 4]


# ---------------------------------------------------------------------------
# ordered round trip (spot version; the acceptance suite fuzzes 100 cases)


def test_round_trip_raise_lower_keeps_slots(ctx):
    t = iobj("T", ["a", "-b", "c"])
    lowered = contract(ctx, IndexExpr.of(iobj("g", ["x", "b"]), t))
    assert lowered == obj("T", ["a", "x", "c"])
    raised = contract(ctx, IndexExpr.of(iobj("g", ["-b", "-x"])) * lowered)
    assert raised == IndexExpr.of(t)


def test_parse_tensor_expr_round_trip():
    e = parse_tensor_expr(
        "g([a,b],[])*T([],[b,c]) - 1/2*X([a,-c],[],d)*Y([],[d])")
    text = str(e)
    assert parse_tensor_expr(text.replace(" ", "")) == e


def test_parse_tensor_expr_rejects_reserved_labels():
    with pytest.raises(ind.TensorSyntaxError):
        parse_tensor_expr("T([%1],[])")


@pytest.mark.parametrize("text", ["3/0*T([a],[])", "T([a],[])*(1/0)"])
def test_parse_tensor_expr_refuses_zero_divisors(text):
    # these used to give the coefficient zoo
    with pytest.raises(ind.TensorSyntaxError, match="division by zero"):
        parse_tensor_expr(text)


@pytest.mark.parametrize("text", [
    "T([a],[])/(2-2)", "1.5*T([a],[])", "2e3*T([a],[])", "T([a],[])^2",
    "T([a],[]) S([b],[])", "%i*T([a],[])", "x*T([a],[])",
    "T([a],[])/S([],[])", "T([a b],[])", "T([a],[]", "",
])
def test_parse_tensor_expr_refuses_malformed_text(text):
    with pytest.raises(ind.TensorSyntaxError):
        parse_tensor_expr(text)


def test_parse_tensor_expr_shares_signs_and_division():
    t = obj("T", ["a"])
    assert parse_tensor_expr("--T([a],[])") == t
    assert parse_tensor_expr("T([a],[])*-2/4") == sp.Rational(-1, 2) * t
    assert parse_tensor_expr("(1/2)*(T([a],[]) + T([a],[]))") == \
        sp.Rational(1, 2) * t + sp.Rational(1, 2) * t
    assert parse_tensor_expr("T([1,-2],[])") == obj("T", ["1", "-2"])
    assert parse_tensor_expr("3") == IndexExpr.scalar(3)
    # a sum keeps its term order when it starts with a number
    assert parse_tensor_expr("-1/2 + T([a],[])*S([-a],[])") == \
        IndexExpr.scalar(sp.Rational(-1, 2)) + obj("T", ["a"]) * obj("S", ["-a"])


def test_index_expr_keeps_one_scalar_term():
    # the scalar terms are summed where the first of them was
    ts = obj("T", ["a"]) * obj("S", ["-a"])
    assert str(IndexExpr.scalar(1) + 1) == "2"
    assert (IndexExpr.scalar(1) - 1).is_zero
    assert str(ts + 3 - ts * 2 - sp.Rational(1, 2)) == \
        "T([a],[])*S([-a],[]) + 5/2 - 2*T([a],[])*S([-a],[])"
    assert str(IndexExpr.scalar(2) + ts - 2) == "T([a],[])*S([-a],[])"
    assert parse_tensor_expr("1 + T([a],[])*S([-a],[]) + 1") == \
        IndexExpr.scalar(2) + ts


@st.composite
def _tensor_exprs(draw, free_labels=("a", "b", "c", "1")):
    """Sums of rational multiples of products of ordered and legacy
    objects, every term with the same free indices, with dummy pairs and
    derivative labels."""
    free = draw(st.lists(st.sampled_from(free_labels), unique=True,
                         max_size=3))
    ups = {label: draw(st.booleans()) for label in free}
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        slots = [(label, ups[label]) for label in free]
        for d in draw(st.lists(st.sampled_from(["d", "e", "7"]), unique=True,
                               max_size=2)):
            slots += [(d, False), (d, True)]
        slots = draw(st.permutations(slots))
        n = draw(st.integers(1 if slots else 0, 3))
        owners = [draw(st.integers(0, n - 1)) for _ in slots]
        factors = []
        for k in range(n):
            mine = [s for s, o in zip(slots, owners) if o == k]
            deriv = [l for l, up in mine if not up and draw(st.booleans())]
            mine = [s for s in mine if s[1] or s[0] not in deriv]
            name = draw(st.sampled_from(["T", "S", "g"]))
            if draw(st.booleans()) and any(up for _, up in mine):
                factor = iobj(name, [l for l, up in mine if not up],
                              [l for l, up in mine if up], *deriv)
            else:
                factor = iobj(name, [("-" if up else "") + l for l, up in mine],
                              [], *deriv)
            factors.append(factor)
        coeff = draw(st.fractions(-5, 5, max_denominator=4).filter(bool))
        terms.append(ind.Term(sp.Rational(coeff.numerator, coeff.denominator),
                              factors))
    return IndexExpr(terms)


@settings(max_examples=150, deadline=None)
@given(_tensor_exprs())
@example(IndexExpr([ind.Term(1, ()), ind.Term(1, ())]))
@example(IndexExpr([ind.Term(2, (iobj("T", ["a"]), iobj("S", ["-a"]))),
                    ind.Term(3, ()), ind.Term(sp.Rational(-1, 2), ())]))
def test_parse_tensor_expr_round_trips_printed_expressions(e):
    assert parse_tensor_expr(str(e)) == e


def test_index_operations_match_the_golden_record():
    golden = Path(__file__).parent / "golden" / "indicial_ops.txt"
    assert oracles.indicial_ops_golden() == golden.read_text(encoding="utf-8")


_LABELS = st.sampled_from(["a", "b", "%1", "%12", "7"])


@st.composite
def _objects(draw):
    idx = draw(st.lists(st.tuples(_LABELS, st.booleans()), max_size=4))
    deriv = draw(st.lists(_LABELS, max_size=2))
    return IndexedObject(draw(st.sampled_from(["T", "g"])), idx, deriv,
                         draw(st.booleans()))


def _same(a, b):
    # repr also tells a label 7 from "7" and an up flag 1 from True
    return a == b and repr(a) == repr(b) and hash(a) == hash(b)


@settings(max_examples=200, deadline=None)
@given(_objects(), st.data())
def test_copies_equal_what_dataclasses_replace_gives(f, data):
    label = data.draw(st.one_of(_LABELS, st.integers(0, 9)))
    up = data.draw(st.sampled_from([True, False, 1, 0]))
    if f.idx:
        pos = data.draw(st.integers(0, len(f.idx) - 1))
        idx = list(f.idx)
        idx[pos] = (label, up)
        assert _same(f.replace_slot(pos, (label, up)), replace(f, idx=idx))
        rest = [s for i, s in enumerate(f.idx) if i != pos]
        at = (next((i for i, (_, u) in enumerate(rest) if u), len(rest))
              if up else 0)
        rest.insert(at, (label, up))
        assert _same(f.drop_slot_insert(pos, (label, up)),
                     replace(f, idx=rest))
    mapping = data.draw(st.dictionaries(_LABELS, st.one_of(
        _LABELS, st.integers(0, 9))))
    assert _same(f.rename(mapping), replace(
        f, idx=[(mapping.get(l, l), u) for l, u in f.idx],
        deriv=[mapping.get(d, d) for d in f.deriv]))
    assert _same(f.with_deriv(label), replace(f, deriv=f.deriv + (label,)))
    moved = [g for _, _, (g,) in ind._renamed_indices(ind.Term(1, (f,)), "m")]
    expected = [replace(f, idx=f.idx[:p] + (("m", u),) + f.idx[p + 1:])
                for p, (_, u) in enumerate(f.idx)]
    expected += [replace(f, deriv=f.deriv[:p] + ("m",) + f.deriv[p + 1:])
                 for p in range(len(f.deriv))]
    assert len(moved) == len(expected)
    assert all(_same(a, b) for a, b in zip(moved, expected))


def _symmetric_context():
    ctx = TensorContext()
    ctx.decsym("S", 2, 0, [sym_group()])
    ctx.decsym("T", 3, 0, [anti_group()])
    ctx.decsym("T", 0, 2, (), [anti_group()])
    return ctx


@settings(max_examples=150, deadline=None)
@given(st.one_of(_tensor_exprs(), _tensor_exprs(["a", "%3", "%12"])))
def test_canform_output_passes_the_checks_it_skips(e):
    # canform builds its result without checking it again
    out = canform(_symmetric_context(), e)
    assert IndexExpr(out.terms).terms == out.terms
    assert IndexExpr((-out).terms).terms == (-out).terms


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tensor_exprs(), _tensor_exprs(["a", "%3", "%12"])))
# an antisymmetric trace, a dead term beside a live one
@example(parse_tensor_expr("T([m,-m,-r],[])*S([r,a],[])"
                           " + 2*S([a,b],[])*W([-b],[])"))
# legacy slots
@example(parse_tensor_expr("T([],[d,c])*S([d,c],[])"))
# a derivative label as a dummy
@example(parse_tensor_expr("W([-d],[])*S([b,a],[],d)"))
# free generated labels, which the dummies' new names skip
@example(IndexExpr.of(iobj("S", ["%3", "-a"]), iobj("T", ["a", "c", "b"]),
                      iobj("V", ["%2"])))
@example(IndexExpr.of(iobj("S", ["%1", "-a"]), iobj("W", ["a"])))
# three passes: the second renames the dummies again
@example(parse_tensor_expr("T([-a,-d],[],d)*T([e,-e],[])"))
def test_canform_is_the_fixed_point_of_its_three_steps(e):
    ctx = _symmetric_context()
    out = canform(ctx, e)
    assert out == oracles.canform_reference(ctx, e)
    assert canform(ctx, out) == out
