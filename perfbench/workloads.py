"""Seeded inputs and job lists of the three workloads.

Every random choice comes from ``random.Random(seed)``; the program only
sees the generated inputs.  A job is timed from the call into the package
to its return; its check runs later, untimed.  Jobs marked ``isolated``
took longer than the cap at the commit that introduced the benchmark: they
run after all other jobs, each in a child process, so that hitting the cap
leaves the jobs after them unchanged.

Each workload also has negative controls: jobs whose check must fail.  They
prove the oracles can fail and are not counted among the workload's jobs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import sympy as sp

# Package functions are called through their modules, so that the wrappers
# the traced run installs on module attributes see every call.
from tensoralg import algebras, catalog, cli, indicial, petrov
from tensoralg.algebras import MVec, init_atensor
from tensoralg.indicial import (IndexExpr, IndexedObject, TensorContext,
                                anti_group, sym_group)

from oracles import (CheckFailed, check_canonical_words, check_christoffel2,
                     check_quaternion_table, check_vanishes, petrov_type)


@dataclass
class Job:
    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    isolated: bool = False


def cli_call(argv):
    """Run ``tensoralg <argv>`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def build(workload, seed, workdir):
    """(jobs in run order, negative controls) for one seeded run.

    The order is fixed, not seeded: caches persist across jobs as in a
    library session, and with a seeded order the shared caches moved single
    catalog-compute jobs by up to 2.4x and job_p50_s by 10% between seeds.
    """
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)


# ---------------------------------------------------------------------------
# catalog-compute: `tensoralg compute --tensors all` on every catalog entry


VACUUM = ("exteriorschwarzschild", "interiorschwarzschild", "kerr_newman")
OVER_CAP = ("ellipsoidal", "confocalellipsoidal", "kerr_newman")


def read_metric_file(text):
    """Coordinates, constants and metric rows of a metric file."""
    coords, constants, rows = [], [], []
    for line in text.splitlines():
        tag, _, rest = line.partition("]")
        key, _, val = rest.partition("=")
        parts = [p.strip() for p in val.split(",")]
        if tag == "[chart" and key.strip() == "coords":
            coords = parts
        elif tag == "[constants":
            constants = [p.strip() for p in rest.split(",")]
        elif tag == "[metric" and key.strip() == "row":
            rows.append(parts)
    return coords, constants, rows


def compute_job(name, path, expect, rng):
    with open(path, encoding="utf-8") as handle:
        coords, constants, rows = read_metric_file(handle.read())
    point_rng = random.Random(rng.random())

    def run():
        return cli_call(["compute", "--metric", path, "--tensors", "all",
                         "--format", "json"])

    def check(result):
        code, text = result
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        doc = json.loads(text)
        if expect == "flat":
            check_vanishes("riemann", doc["riemann"]["components"])
        elif expect == "vacuum":
            check_vanishes("ricci", doc["ricci"]["components"])
        for _ in range(8):
            names = coords + constants
            values = point_rng.sample(range(110, 390), len(names))
            point = {n: mpmath.mpf(v) / 100 for n, v in zip(names, values)}
            try:
                check_christoffel2(doc["christoffel2"]["components"], rows,
                                   coords, point)
                return
            except ZeroDivisionError:
                continue  # singular sample point; draw another
        raise CheckFailed("no regular sample point found")

    return Job(f"compute:{name}", "compute", run, check,
               isolated=name in OVER_CAP)


SPHERE = """[chart] coords = theta, phi
[metric] row = 1, 0
[metric] row = 0, sin(theta)^2
"""


def catalog_compute(rng, workdir):
    jobs = []
    for name in catalog.list_entries():
        code, text = cli_call(["catalog", "show", name])
        if code != 0:
            raise RuntimeError(f"catalog show {name} exited {code}")
        path = os.path.join(workdir, f"{name}.metric")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        expect = "vacuum" if name in VACUUM else "flat"
        jobs.append(compute_job(name, path, expect, rng))
    path = os.path.join(workdir, "sphere.metric")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(SPHERE)
    control = compute_job("2-sphere-as-flat", path, "flat", rng)
    return jobs, [control]


# ---------------------------------------------------------------------------
# frame-petrov: frame pipeline, classify, and Weyl-scalar tuples


def pipeline_job(name):
    def run():
        ctx = catalog.load(name, frame=True)
        ctx.rotation_coeffs
        ctx.riemann_frame
        return ctx.ricci_frame

    def check(ricci):
        for a, row in enumerate(ricci):
            for b, entry in enumerate(row):
                if entry != 0:
                    raise CheckFailed(f"ricci_frame[{a}][{b}] = {entry}")

    return Job(f"pipeline:{name}", "pipeline", run, check,
               isolated=name == "kerr_newman")


def classify_job(name):
    def run():
        return cli_call(["classify", "--catalog", name, "--format", "json"])

    def check(result):
        code, text = result
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        got = json.loads(text)["petrov_type"]
        if got != "D":
            raise CheckFailed(f"type {got}, expected D")

    return Job(f"classify:{name}", "classify", run, check,
               isolated=name == "kerr_newman")


def _q(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def special_tuples(rng):
    """Tuples on the non-generic side of each numbered branch."""
    q = lambda: _q(rng)  # noqa: E731
    out = {}
    p3, p4 = q(), q()
    out["b7-D"] = (0, 0, p3 ** 2 / (3 * p4), p3, p4)
    p3, p4 = q(), q()
    out["b11-II"] = (0, -64 * p3 ** 3 / (27 * p4 ** 2), 0, p3, p4)
    p1, p2 = q(), q()
    out["b13-II"] = (0, p1, p2, 0, -2 * p2 ** 3 / p1 ** 2)
    p2, p3 = q(), q()
    out["b14-II"] = (0, 9 * p2 ** 2 / (16 * p3), p2, p3, 0)
    p2, p3 = q(), q()
    p1 = 3 * p2 ** 2 / (4 * p3)
    out["b15-II"] = (0, p1, p2, p3, p2 * p3 / (3 * p1))
    out["b15-I"] = (0, p1, p2, p3, p2 * p3 / (3 * p1) + 1)
    p3, p4 = q(), q()
    out["b19-II"] = (27 * p3 ** 4 / p4 ** 3, 0, 0, p3, p4)
    p0, p2 = q(), q()
    out["b21-D"] = (p0, 0, p2, 0, rng.choice((-3, 3)) * p2)
    p3, p4 = q(), q()
    p2 = 3 * p3 ** 2 / (4 * p4)
    out["b23-III"] = (-3 * p2 ** 2 / p4, 0, p2, p3, p4)
    p3, p4 = q(), q()
    p1 = -2 * p3 ** 3 / p4 ** 2
    out["b27-D"] = (p1 ** 2 * p4 / p3 ** 2, p1, 0, p3, p4)
    p1 = 16 * p3 ** 3 / p4 ** 2
    out["b27-II"] = (p1 ** 2 * p4 / p3 ** 2, p1, 0, p3, p4)
    p1 = 2 * p3 ** 3 / p4 ** 2
    out["b27-III"] = (-2 * p1 * p3 / p4, p1, 0, p3, p4)
    # general branch: the quartic psi4 z^4 + 4 psi3 z^3 + 6 psi2 z^2
    # + 4 psi1 z + psi0 with prescribed root multiplicities
    roots = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                      rng.randint(1, 4)) for _ in range(4)]
    while len(set(roots)) < 4:
        roots = [r + i for i, r in enumerate(roots)]
    r1, r2, r3, r4 = roots
    for label, rs in (("quartic-N", (r1, r1, r1, r1)),
                      ("quartic-III", (r1, r1, r1, r2)),
                      ("quartic-D", (r1, r1, r2, r2)),
                      ("quartic-II", (r1, r1, r2, r3)),
                      ("quartic-I", (r1, r2, r3, r4))):
        c = [Fraction(1)]
        for r in rs:
            c = [a - r * b for a, b in zip([0] + c, c + [0])]
        # c[k] is the coefficient of z^k
        out[label] = (c[0], c[1] / 4, c[2] / 6, c[3] / 4, c[4])
    return out


def tuple_job(label, qs, position, expected=None):
    """Weyl scalars psi_k = q_k * w; zero entries are written as
    (sin(x)^2 + cos(x)^2 - 1) * w.  The rational function w differs between
    tuple positions, so no tuple reuses another's cached zero tests."""
    x = sp.Symbol("x", real=True)
    a, b = 1 + position % 16, 1 + position // 16
    w = (x + a) / (x ** 2 + b)
    zero = sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1
    qs = [Fraction(q) for q in qs]
    psi = [sp.Rational(q.numerator, q.denominator) * w if q else zero * w
           for q in qs]
    want = expected or petrov_type(qs)

    def run():
        return petrov.classify(psi)

    def check(got):
        if got.value != want:
            raise CheckFailed(f"type {got.value}, decision tree gives {want}")

    return Job(f"tuple:{label}", "tuple", run, check)


# Draws of every tuple label.  Tuple cost depends on the drawn values; with
# several draws per label the slowest tuples, where job_tail_s falls, are
# many and similar rather than a few outliers.
TUPLE_DRAWS = 6


def frame_petrov(rng, workdir):
    jobs = []
    for name in VACUUM:
        jobs += [pipeline_job(name), classify_job(name)]
    tuples = []
    for draw in range(TUPLE_DRAWS):
        for pattern in range(32):
            qs = [_q(rng) if pattern >> (4 - k) & 1 else 0 for k in range(5)]
            tuples.append((f"pattern{pattern}/{draw}", qs))
        tuples += [(f"{label}/{draw}", qs)
                   for label, qs in special_tuples(rng).items()]
    jobs += [tuple_job(label, qs, i) for i, (label, qs) in enumerate(tuples)]
    qs = (0, 0, 1, 0, 0)
    wrong = next(t for t in ("I", "II", "III", "N", "O")
                 if t != petrov_type(qs))
    control = tuple_job("wrong-expected-type", qs, len(tuples), expected=wrong)
    return jobs, [control]


# ---------------------------------------------------------------------------
# index-algebra: abstract-index operations and algebra word reduction


# name: (slot count, declared symmetry groups)
TENSORS = {"S": (2, [sym_group()]), "A": (2, [anti_group()]),
           "F": (3, [anti_group()]), "R": (4, [anti_group(1, 2),
                                               anti_group(3, 4)]),
           "M": (2, []), "W": (1, []), "X": (1, [])}
FORMS = {1: ("W", "X"), 2: ("A",), 3: ("F",)}
LABELS = "abcdefhijklmnopqrstuvwxyz"


def tensor_context():
    ctx = TensorContext(dim=4)
    for name, (rank, groups) in TENSORS.items():
        if groups:
            ctx.decsym(name, rank, 0, groups)
    ctx.declare_vector("V")
    return ctx


def obj(name, slots):
    return IndexedObject(name, tuple(slots))


def random_product(rng, nfactors):
    """Product of random tensors; most slots pair up as dummies (one slot
    up, one down), the rest are free."""
    names = rng.choices(sorted(TENSORS), k=nfactors)
    slots = [(f, p) for f, n in enumerate(names) for p in range(TENSORS[n][0])]
    rng.shuffle(slots)
    labels = iter(rng.sample(LABELS, len(slots)))
    nfree = len(slots) % 2 + 2 * rng.randint(0, 1)
    assign = {}
    for s in slots[:nfree]:
        assign[s] = (next(labels), rng.random() < 0.5)
    rest = slots[nfree:]
    for s, t in zip(rest[::2], rest[1::2]):
        label, up = next(labels), rng.random() < 0.5
        assign[s], assign[t] = (label, up), (label, not up)
    factors = [obj(n, [assign[(f, p)] for p in range(TENSORS[n][0])])
               for f, n in enumerate(names)]
    coeff = sp.Rational(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))
    return IndexExpr.of(*factors, coeff=coeff)


def _perm_sign(perm):
    return (-1) ** sum(1 for i, j in itertools.combinations(perm, 2) if i > j)


def disguise(rng, expr):
    """The same tensor expression written differently: dummies renamed,
    slots permuted inside declared groups (with the sign for antisymmetric
    ones), factors reordered."""
    (term,) = expr.terms
    free = {l for l, _ in expr.free_indices()}
    dummies = sorted(expr.all_labels() - free)
    fresh = rng.sample([l for l in LABELS if l not in free], len(dummies))
    mapping = dict(zip(dummies, fresh))
    coeff, factors = term.coeff, []
    for f in term.factors:
        idx = [(mapping.get(l, l), up) for l, up in f.idx]
        for kind, positions in TENSORS[f.name][1]:
            positions = (range(len(idx)) if positions == "all"
                         else [p - 1 for p in positions])
            positions = list(positions)
            perm = rng.sample(range(len(positions)), len(positions))
            moved = [idx[positions[i]] for i in perm]
            for p, slot in zip(positions, moved):
                idx[p] = slot
            if kind == "anti":
                coeff *= _perm_sign(perm)
        factors.append(obj(f.name, idx))
    rng.shuffle(factors)
    return IndexExpr.of(*factors, coeff=coeff)


def rename(expr, mapping):
    return IndexExpr(tuple(
        type(t)(t.coeff, tuple(f.rename(mapping) for f in t.factors))
        for t in expr.terms))


def must_vanish(ctx, expr, what):
    rest = indicial.canform(ctx, expr)
    if not rest.is_zero:
        raise CheckFailed(f"{what}: {rest} is left over")


def canform_job(i, rng, ctx):
    expr = random_product(rng, 2 + i % 3)
    other = disguise(rng, expr)

    def check(out):
        if indicial.canform(ctx, out) != out:
            raise CheckFailed(f"canform is not idempotent on {expr}")
        again = indicial.canform(ctx, other)
        if again != out:
            raise CheckFailed(f"{expr} gives {out}, rewritten as {other} it "
                              f"gives {again}")

    return Job(f"canform#{i}", "indicial",
               lambda: indicial.canform(ctx, expr), check)


def contract_job(i, rng, ctx):
    """Index gymnastics with a known result: metric chains that raise or
    lower one slot of a tensor, next to a spectator factor."""
    name = rng.choice(("R", "F", "M", "S"))
    rank = TENSORS[name][0]
    labels = rng.sample(LABELS, rank + 4)
    ups = [rng.random() < 0.5 for _ in range(rank)]
    slot = rng.randrange(rank)
    a, b, c = labels[rank:rank + 3]
    result = [(labels[p], ups[p]) for p in range(rank)]
    given = list(result)
    up = ups[slot]
    if rng.random() < 0.5:          # g_ab g^bc X_c = X_a, or raised
        chain = [obj("g", [(a, up), (b, up)]),
                 obj("g", [(b, not up), (c, not up)])]
        given[slot] = (c, up)
    else:                           # g_ac X^c = X_a, or raised
        chain = [obj("g", [(a, up), (c, up)])]
        given[slot] = (c, not up)
    result[slot] = (a, up)
    spectator = obj("W", [(labels[rank + 3], False)])
    expr = IndexExpr.of(*chain, obj(name, given), spectator)
    expected = indicial.canform(ctx, IndexExpr.of(obj(name, result),
                                                  spectator))

    def check(out):
        if out != expected:
            raise CheckFailed(f"contract({expr}) = {out}, "
                              f"expected {expected}")

    return Job(f"contract#{i}", "indicial",
               lambda: indicial.contract(ctx, expr), check)


def covdiff_job(i, rng, ctx):
    """Covariant derivative of a product of metrics: zero once the
    Christoffel symbols are expanded and the result contracted."""
    labels = iter(rng.sample(LABELS, 5))
    factors = [obj("g", [(next(labels), False), (next(labels), False)])
               for _ in range(1 + i % 2)]
    expr = IndexExpr.of(*factors)
    k = next(labels)

    def run():
        derivative = indicial.covdiff(ctx, expr, k)
        return indicial.contract(
            ctx, indicial.expand_christoffels(ctx, derivative))

    def check(out):
        if not out.is_zero:
            raise CheckFailed(f"nabla_{k} of {expr} contracts to {out}")

    return Job(f"covdiff#{i}", "indicial", run, check)


def liediff_job(i, rng, ctx):
    """Lie derivative of a product; checked by the Leibniz rule."""
    expr = random_product(rng, 2)
    (term,) = expr.terms
    left = IndexExpr.of(term.factors[0], coeff=term.coeff)
    right = IndexExpr.of(*term.factors[1:])

    def check(out):
        must_vanish(ctx, out - indicial.liediff(ctx, left, "V") * right
                    - left * indicial.liediff(ctx, right, "V"),
                    f"Leibniz rule for L_V({expr})")

    return Job(f"liediff#{i}", "indicial",
               lambda: indicial.liediff(ctx, expr, "V"), check)


def random_form(rng, degree):
    """A sum of p-forms with random coefficients, as [(name, coeff)]."""
    names = FORMS[degree]
    return [(name, rng.randint(1, 4))
            for name in rng.sample(names, rng.randint(1, len(names)))]


def form(shape, labels):
    out = IndexExpr()
    for name, coeff in shape:
        out = out + IndexExpr.of(obj(name, [(l, False) for l in labels]),
                                 coeff=coeff)
    return out


def wedge_job(i, rng, ctx):
    """Wedge product; checked by graded commutativity: with the same index
    labels in the same slots, a ^ b = (-1)^(pq) b ^ a."""
    p, q = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))[i % 6]
    labels = rng.sample(LABELS, p + q)
    shape_a, shape_b = random_form(rng, p), random_form(rng, q)
    a, b = form(shape_a, labels[:p]), form(shape_b, labels[p:])

    def check(out):
        swapped = indicial.wedge(ctx, form(shape_b, labels[:q]),
                                 form(shape_a, labels[q:]))
        must_vanish(ctx, out - (-1) ** (p * q) * swapped,
                    f"graded commutativity of ({a}) ^ ({b})")

    return Job(f"wedge#{i}", "indicial",
               lambda: indicial.wedge(ctx, a, b), check)


def extdiff_job(i, rng, ctx):
    """Exterior derivative; the result must be antisymmetric in the new
    index and each old one."""
    p = 1 + i % 3
    labels = rng.sample(LABELS, p + 1)
    a = form(random_form(rng, p), labels[1:])
    new = labels[0]

    def check(out):
        for old in labels[1:]:
            must_vanish(ctx, out + rename(out, {new: old, old: new}),
                        f"antisymmetry of d({a}) in {new}, {old}")

    return Job(f"extdiff#{i}", "indicial",
               lambda: indicial.extdiff(ctx, a, new), check)


ALGEBRAS = {"clifford": ("clifford", 2, 0, 2), "grassmann": ("grassmann", 6),
            "symplectic": ("symplectic", 4), "lie_envelop": ("lie_envelop", 3)}


def random_word(rng, adim):
    """Word of length 6..12 with as many inversions as letters."""
    length = rng.randint(6, 12)
    word = sorted(rng.choices(range(1, adim + 1), k=length))
    for _ in range(length):
        ascents = [p for p in range(length - 1) if word[p] < word[p + 1]]
        if not ascents:
            break
        p = rng.choice(ascents)
        word[p], word[p + 1] = word[p + 1], word[p]
    return tuple(word)


def check_atensimp(config, out):
    check_canonical_words(out)
    again = algebras.atensimp(config, out)
    if again != out:
        raise CheckFailed(f"atensimp is not idempotent: {out} -> {again}")


def atensimp_job(i, rng, kind):
    config = init_atensor(*ALGEBRAS[kind])
    word = (LIE_WORDS[i] if kind == "lie_envelop"
            else random_word(rng, config.adim))
    element = MVec.word(word, coeff=rng.choice((1, 2, -3)))
    return Job(f"atensimp:{kind}#{i}", "algebras",
               lambda: algebras.atensimp(config, element),
               lambda out: check_atensimp(config, out))


def quaternion_job():
    config = init_atensor("clifford", 0, 0, 2)
    return Job("table:clifford(0,0,2)", "algebras",
               lambda: algebras.multiplication_table(config),
               check_quaternion_table)


# Jobs per kind.  Sizes cycle with the job number (not with the seed), so
# the seed changes labels, slots, coefficients and order but not the mix.
INDICIAL_MIX = {canform_job: 400, contract_job: 200, covdiff_job: 250,
                liediff_job: 250, wedge_job: 250, extdiff_job: 250}
ALGEBRA_MIX = {"clifford": 200, "grassmann": 200, "symplectic": 400,
               "lie_envelop": 50}

# Two random lie_envelop words of one length and inversion count can differ
# 100-fold in reduction time, more than any affordable number of jobs
# averages out; so the lie_envelop words are one fixed draw, and the seed
# only sets their coefficients and place in the run order.
LIE_WORDS = [random_word(random.Random(f"lie_envelop:{i}"), 3)
             for i in range(ALGEBRA_MIX["lie_envelop"])]


def index_algebra(rng, workdir):
    ctx = tensor_context()
    jobs = []
    for make, count in INDICIAL_MIX.items():
        jobs += [make(i, rng, ctx) for i in range(count)]
    for kind, count in ALGEBRA_MIX.items():
        jobs += [atensimp_job(i, rng, kind) for i in range(count)]
    jobs.append(quaternion_job())
    config = init_atensor("grassmann", 2)
    control = Job("non-canonical-result", "algebras",
                  lambda: MVec.word((2, 1)),
                  lambda out: check_atensimp(config, out))
    return jobs, [control]


BUILDERS = {"catalog-compute": catalog_compute, "frame-petrov": frame_petrov,
            "index-algebra": index_algebra}
