"""Abstract-index tensor manipulation.

Tensors are opaque symbols carrying an ordered list of variance-marked
indices plus optional partial-derivative indices.  Nothing here knows about
components; expressions are simplified purely through index bookkeeping:
metric contraction, declared symmetries, canonical index ordering, covariant
and Lie differentiation, and exterior calculus.

Two user notations coexist.  In the ordered notation all indices live in a
single list with a minus sign marking contravariant entries
(``T([a,-b],[])`` for T_a^b), and raising or lowering an index keeps its
slot.  In the legacy notation covariant and contravariant indices live in
two separate lists (``T([a],[b])``); there, an index that is lowered and
raised again loses its original position, and this module reproduces that
historical placement.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import sympy as sp

from . import scalars
from .scalars import sym

KDELTA = "kdelta"


class IndexConflictError(ValueError):
    """An index label is used in a way that has no tensorial meaning."""


class TensorSyntaxError(scalars.ExprSyntaxError):
    """Malformed textual tensor expression."""


# ---------------------------------------------------------------------------
# indexed objects


def split_indices(labels):
    """Split a minus-marked label list into (plain, marked) sublists."""
    plus, minus = [], []
    for item in labels:
        text = str(item)
        if text.startswith("-"):
            minus.append(text[1:])
        else:
            plus.append(text)
    return plus, minus


@dataclass(frozen=True)
class IndexedObject:
    """One tensor symbol with its indices.

    ``idx`` holds (label, contravariant?) pairs in slot order; ``deriv``
    holds partial-derivative labels (covariant, kept sorted since partials
    commute).  ``ordered`` records whether the slot order is trusted:
    objects entered with a legacy contravariant list get ``ordered=False``
    and contract with the historical placement rules.
    """

    name: str
    idx: tuple = ()
    deriv: tuple = ()
    ordered: bool = True

    def __post_init__(self):
        object.__setattr__(self, "idx", tuple((str(l), bool(u)) for l, u in self.idx))
        object.__setattr__(self, "deriv", tuple(sorted(str(d) for d in self.deriv)))

    @property
    def covariant(self):
        """Covariant slot labels, in order (the historical covi)."""
        return [l for l, up in self.idx if not up]

    @property
    def contravariant(self):
        """Contravariant slot labels, in order (the historical conti)."""
        return [l for l, up in self.idx if up]

    def labels(self):
        for l, up in self.idx:
            yield l, up
        for d in self.deriv:
            yield d, False

    def _with(self, idx=None, deriv=None):
        """A copy with new slots, or new derivative labels (sorted here),
        both of normalized labels: no ``__post_init__`` runs."""
        new = object.__new__(type(self))
        object.__setattr__(new, "name", self.name)
        object.__setattr__(new, "idx", self.idx if idx is None else idx)
        object.__setattr__(new, "deriv", self.deriv if deriv is None
                           else tuple(sorted(deriv)))
        object.__setattr__(new, "ordered", self.ordered)
        return new

    def replace_slot(self, pos, slot):
        idx = list(self.idx)
        idx[pos] = (str(slot[0]), bool(slot[1]))
        return self._with(idx=tuple(idx))

    def drop_slot_insert(self, pos, slot):
        """Legacy placement: remove slot ``pos`` and prepend the survivor to
        its variance block (covariant block first, contravariant second)."""
        idx = [s for i, s in enumerate(self.idx) if i != pos]
        if slot[1]:
            at = next((i for i, (_, up) in enumerate(idx) if up), len(idx))
        else:
            at = 0
        idx.insert(at, (str(slot[0]), bool(slot[1])))
        return self._with(idx=tuple(idx))

    def rename(self, mapping):
        idx = tuple((str(mapping.get(l, l)), up) for l, up in self.idx)
        deriv = [str(mapping.get(d, d)) for d in self.deriv]
        return self._with(idx=idx, deriv=deriv)

    def with_deriv(self, label):
        return self._with(deriv=self.deriv + (str(label),))

    def sort_key(self):
        """Canonical ordering key; dummy names are masked so that renaming
        generated dummies cannot reorder factors."""
        slots = tuple([("*" if l[:1] == "%" else l, up) for l, up in self.idx])
        ders = tuple(["*" if d[:1] == "%" else d for d in self.deriv])
        return (self.name, len(self.idx), slots, ders, not self.ordered)

    def __str__(self):
        if self.ordered:
            first = ",".join(("-" if up else "") + l for l, up in self.idx)
            parts = [f"[{first}]", "[]"]
        else:
            parts = [f"[{','.join(self.covariant)}]",
                     f"[{','.join(self.contravariant)}]"]
        parts.extend(self.deriv)
        return f"{self.name}({','.join(parts)})"


def iobj(name, first=(), second=(), *deriv):
    """Build an indexed object from the two-list notation.

    ``first`` is the ordered list (a leading minus marks a contravariant
    entry), ``second`` the legacy contravariant list; trailing arguments are
    derivative labels.  A non-empty ``second`` yields a legacy object.
    """
    idx = []
    for item in first:
        text = str(item)
        if text.startswith("-"):
            idx.append((text[1:], True))
        else:
            idx.append((text, False))
    legacy = [str(s) for s in second]
    idx.extend((l, True) for l in legacy)
    return IndexedObject(str(name), tuple(idx), tuple(str(d) for d in deriv),
                         ordered=not legacy)


def covariant_indices(t: IndexedObject):
    return t.covariant


def contravariant_indices(t: IndexedObject):
    return t.contravariant


# ---------------------------------------------------------------------------
# terms and expressions


def _label_census(factors):
    """label -> [covariant count, contravariant count]; a derivative label
    is covariant."""
    counts = {}
    for f in factors:
        for label, up in f.idx:
            counts.setdefault(label, [0, 0])[up] += 1
        for label in f.deriv:
            counts.setdefault(label, [0, 0])[0] += 1
    return counts


def _free_indices(factors):
    """The free (label, up) pairs of a product; checks its index labels."""
    free = []
    for label, (down, up) in _label_census(factors).items():
        if down + up > 2:
            raise IndexConflictError(f"index {label!r} occurs more than twice")
        if down == 2 or up == 2:
            raise IndexConflictError(
                f"index {label!r} repeated with the same variance")
        if down + up == 1:
            free.append((label, up == 1))
    return frozenset(free)


def _nonzero(coeff):
    """``coeff != 0``, without the sympify of ``!=`` for a sympy number."""
    return not coeff.is_zero if isinstance(coeff, sp.Number) else coeff != 0


@dataclass(frozen=True)
class Term:
    coeff: sp.Expr
    factors: tuple

    def __post_init__(self):
        if not isinstance(self.coeff, sp.Basic):
            object.__setattr__(self, "coeff", sp.sympify(self.coeff))
        if type(self.factors) is not tuple:
            object.__setattr__(self, "factors", tuple(self.factors))


class IndexExpr:
    """A sum of scalar-weighted products of indexed objects.  Its scalar
    terms, those without factors, are kept as one, their sum, where the
    first of them was, as the parser folds ``1 + 1`` to ``2``.  Every term
    given is checked for index conflicts, zero ones too; the nonzero terms
    kept must all carry the same free indices."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        terms = tuple(terms)
        at = [i for i, t in enumerate(terms) if not t.factors]
        if len(at) > 1:
            total = Term(sp.Add(*(terms[i].coeff for i in at)), ())
            terms = tuple(total if i == at[0] else t
                          for i, t in enumerate(terms) if i not in at[1:])
        kept, frees = [], set()
        for t in terms:
            free = _free_indices(t.factors)
            if _nonzero(t.coeff):
                kept.append(t)
                frees.add(free)
        if len(frees) > 1:
            raise IndexConflictError(
                "terms of a sum carry different free indices: "
                + "; ".join(sorted(str(sorted(f)) for f in frees)))
        self.terms = tuple(kept)

    @staticmethod
    def _checked(terms):
        """The expression of ``terms`` that already pass ``__init__``'s
        checks: nonzero, conflict-free, one free-index set, at most one
        scalar term."""
        e = object.__new__(IndexExpr)
        e.terms = tuple(terms)
        return e

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(*factors, coeff=1):
        return IndexExpr((Term(coeff, factors),))

    @staticmethod
    def scalar(value):
        value = sp.sympify(value)
        return IndexExpr(() if value == 0 else (Term(value, ()),))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def free_indices(self):
        if not self.terms:
            return frozenset()
        return _free_indices(self.terms[0].factors)

    def all_labels(self):
        out = set()
        for t in self.terms:
            for f in t.factors:
                out.update(l for l, _ in f.labels())
        return out

    def single_object(self):
        """The sole indexed object of a one-term, one-factor expression."""
        if len(self.terms) == 1 and len(self.terms[0].factors) == 1 \
                and self.terms[0].coeff == 1:
            return self.terms[0].factors[0]
        raise ValueError("expression is not a single indexed object")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_expr(other)
        return IndexExpr(self.terms + other.terms)

    def __radd__(self, other):
        return _as_expr(other) + self

    def __neg__(self):
        return IndexExpr._checked(Term(-t.coeff, t.factors) for t in self.terms)

    def __sub__(self, other):
        return self + (-_as_expr(other))

    def __rsub__(self, other):
        return _as_expr(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, IndexedObject):
            other = IndexExpr.of(other)
        if isinstance(other, IndexExpr):
            out = []
            for a in self.terms:
                for b in other.terms:
                    out.append(Term(a.coeff * b.coeff, a.factors + b.factors))
            return IndexExpr(out)
        return IndexExpr(tuple(Term(t.coeff * sp.sympify(other), t.factors)
                               for t in self.terms))

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if not isinstance(other, IndexExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for t in self.terms:
            factors = "*".join(str(f) for f in t.factors)
            if t.coeff == 1 and factors:
                piece = factors
            elif t.coeff == -1 and factors:
                piece = "-" + factors
            else:
                coeff = scalars.render(t.coeff)
                if t.coeff.is_Add:
                    coeff = f"({coeff})"
                piece = coeff + ("*" + factors if factors else "")
            chunks.append(piece)
        text = chunks[0]
        for piece in chunks[1:]:
            text += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return text

    __repr__ = __str__


def _as_expr(x):
    if isinstance(x, IndexExpr):
        return x
    if isinstance(x, IndexedObject):
        return IndexExpr.of(x)
    return IndexExpr.scalar(x)


def _fresh_labels(used, n=1):
    out, i = [], 1
    while len(out) < n:
        cand = f"%{i}"
        if cand not in used:
            out.append(cand)
        i += 1
    return out


# ---------------------------------------------------------------------------
# context, symmetry declarations


@dataclass(frozen=True)
class SymmetryDeclaration:
    ncov: int
    ncontra: int
    cov_groups: tuple
    contra_groups: tuple


def _normalize_groups(groups, bound):
    """Groups are ('sym'|'anti', positions or 'all'); positions are 1-based."""
    out, seen = [], set()
    for kind, positions in groups:
        if kind not in ("sym", "anti"):
            raise ValueError(f"unknown symmetry kind {kind!r}")
        if positions in ("all", None):
            positions = tuple(range(1, bound + 1))
        positions = tuple(int(p) for p in positions)
        if any(p < 1 or p > bound for p in positions):
            raise ValueError(f"symmetry positions {positions} out of range 1..{bound}")
        if len(positions) < 2:
            raise ValueError("a symmetry group needs at least two positions")
        if seen & set(positions):
            raise ValueError("overlapping symmetry groups")
        seen.update(positions)
        out.append((kind, positions))
    return tuple(out)


def sym_group(*positions):
    return ("sym", positions or "all")


def anti_group(*positions):
    return ("anti", positions or "all")


@dataclass
class TensorContext:
    """Mutable-by-value manipulation context: metric name, mode flags, the
    symmetry registry, and registered vectors."""

    metric: str = "g"
    dim: int | None = None
    torsion: bool = False
    nonmetricity: bool = False
    frame: bool = False
    geometric_wedge: bool = False
    symmetries: dict = field(default_factory=dict)
    vectors: set = field(default_factory=set)

    def __post_init__(self):
        dim = self.dim
        if dim is not None and (isinstance(dim, bool) or not hasattr(
                type(dim), "__index__") or dim <= 0):
            raise ValueError(f"dim must be a positive integer: {dim!r}")
        self.dim = dim if dim is None else operator.index(dim)
        self._register_builtins()

    def _register_builtins(self):
        for decl in (
            SymmetryDeclaration(2, 0, (("sym", (1, 2)),), ()),
            SymmetryDeclaration(0, 2, (), (("sym", (1, 2)),)),
        ):
            self.symmetries.setdefault((self.metric, decl.ncov, decl.ncontra), decl)
        # Christoffel symbols are symmetric in their first two (covariant)
        # indices; registering this up front lets canform use it.
        self.symmetries.setdefault(
            ("ichr1", 3, 0), SymmetryDeclaration(3, 0, (("sym", (1, 2)),), ()))
        self.symmetries.setdefault(
            ("ichr2", 2, 1), SymmetryDeclaration(2, 1, (("sym", (1, 2)),), ()))

    def declare_vector(self, name):
        self.vectors.add(str(name))

    @property
    def dim_scalar(self):
        return sp.Integer(self.dim) if self.dim is not None else sym("dim")

    # -- symmetry registry -------------------------------------------------

    def decsym(self, name, ncov, ncontra, cov_groups=(), contra_groups=()):
        """Declare index symmetries for ``name`` at valence (ncov, ncontra)."""
        decl = SymmetryDeclaration(
            int(ncov), int(ncontra),
            _normalize_groups(cov_groups, ncov),
            _normalize_groups(contra_groups, ncontra))
        key = (str(name), decl.ncov, decl.ncontra)
        existing = self.symmetries.get(key)
        if existing is not None and existing != decl:
            raise ValueError(
                f"conflicting symmetry declaration for {name} at valence "
                f"({ncov},{ncontra})")
        self.symmetries[key] = decl

    def _declaration_for(self, obj: IndexedObject):
        """Match a declaration to an object.

        Ordered-notation objects prefer the single all-covariant declaration
        of their total valence (it covers every variance mixture); both fall
        back to the exact (ncov, ncontra) split.
        """
        total = len(obj.idx)
        ncov = len(obj.covariant)
        ncontra = total - ncov
        if obj.ordered:
            decl = self.symmetries.get((obj.name, total, 0))
            if decl is not None:
                return decl, "all"
        decl = self.symmetries.get((obj.name, ncov, ncontra))
        if decl is not None:
            return decl, "split"
        return None, None


# label ordering: named labels first (alphabetically), generated dummies
# (%1, %2, ...) afterwards in numeric order.

def _label_key(label):
    if label.startswith("%"):
        try:
            return (1, int(label[1:]), label)
        except ValueError:
            return (1, 0, label)
    return (0, 0, label)


def _sort_group(slots, kind):
    """Sort (label, up) slots; return (sorted, sign) with sign 0 collapsing
    an antisymmetric group that holds one label twice, a trace, which is 0."""
    keys = [(_label_key(l), up) for l, up in slots]
    # most groups hold two slots: one comparison, no sort
    order = (([1, 0] if keys[1] < keys[0] else [0, 1]) if len(slots) == 2
             else sorted(range(len(slots)), key=keys.__getitem__))
    sorted_slots = [slots[i] for i in order]
    if kind != "anti":
        return sorted_slots, 1
    if any(a[0] == b[0] for a, b in zip(sorted_slots, sorted_slots[1:])):
        return sorted_slots, 0
    return sorted_slots, _perm_sign(order)


def _symmetry_groups(ctx, obj, shapes):
    """The declared groups of ``obj`` as (kind, 0-based slot positions)
    pairs, resolved once per shape (name, notation, variance pattern) into
    the memo ``shapes``.  Sorting inside a group keeps the shape."""
    shape = (obj.name, obj.ordered, tuple([up for _, up in obj.idx]))
    if shape not in shapes:
        decl, mode = ctx._declaration_for(obj)
        cov = [i for i, (_, up) in enumerate(obj.idx) if mode == "all" or not up]
        con = [i for i, (_, up) in enumerate(obj.idx) if up]
        shapes[shape] = () if decl is None else tuple(
            (kind, [at[p - 1] for p in positions])
            for at, groups in ((cov, decl.cov_groups), (con, decl.contra_groups))
            for kind, positions in groups)
    return shapes[shape]


def _apply_symmetries(obj, groups):
    """Sort the slots of one factor inside its ``_symmetry_groups``; returns
    (object, sign), the object itself when no slot moved."""
    idx = list(obj.idx)
    sign = 1
    for kind, positions in groups:
        slots = [idx[p] for p in positions]
        sorted_slots, s = _sort_group(slots, kind)
        if s == 0:
            return obj, 0
        sign *= s
        for p, slot in zip(positions, sorted_slots):
            idx[p] = slot
    idx = tuple(idx)
    return (obj if idx == obj.idx else obj._with(idx=idx)), sign


# ---------------------------------------------------------------------------
# canform


def canform(ctx: TensorContext, e) -> IndexExpr:
    """Canonical form: symmetry-sorted slots (with signs), canonically
    renamed dummies, deterministic factor order, merged terms.  A term
    repeats the three steps, at most 8 times, until a pass renames no
    dummy: sorting inside groups and the stable sort by ``sort_key`` are
    idempotent and the renaming reads only factor order and labels, so a
    further pass would change nothing.  The symmetry groups of a factor
    shape are resolved once per call."""
    e = _as_expr(e)
    shapes, merged, order = {}, {}, {}
    for term in e.terms:
        coeff, factors = term.coeff, list(term.factors)
        groups = [_symmetry_groups(ctx, f, shapes) for f in factors]
        census = _label_census(factors)
        dummies = {label for label, (down, up) in census.items()
                   if down == 1 and up == 1}
        # dummies take the first generated labels that are not free here
        names = _fresh_labels(census.keys() - dummies, len(dummies))
        dead = False
        for _ in range(8):
            # canonical slot order within each factor
            for i, f in enumerate(factors):
                factors[i], s = _apply_symmetries(f, groups[i])
                if s == 0:
                    dead = True
                    break
                if s == -1:
                    coeff = -coeff
            if dead:
                break
            # deterministic factor order; groups and keys move with factors
            keys = [f.sort_key() for f in factors]
            at = sorted(range(len(factors)), key=keys.__getitem__)
            factors, groups = [factors[i] for i in at], [groups[i] for i in at]
            keys = [keys[i] for i in at]
            # canonical dummy names, assigned left to right; a pass that
            # renames none is the last
            seen = []
            for f in factors:
                seen += [l for l, _ in f.idx if l in dummies]
                seen += [l for l in f.deriv if l in dummies]
            seen = list(dict.fromkeys(seen))
            if seen == names:
                break
            mapping = dict(zip(seen, names))
            factors = [f.rename(mapping) for f in factors]
            dummies = set(names)
        if dead:
            continue
        key = tuple(factors)
        if key in merged:
            merged[key] += coeff
        else:
            # the last pass renamed no label, or only generated ones,
            # which sort_key masks: its keys are this product's
            merged[key], order[key] = coeff, tuple(keys)
    out = []
    for key in sorted(merged, key=order.__getitem__):
        coeff = merged[key]
        if coeff.is_Rational:
            if coeff.is_zero:
                continue
        else:
            coeff = scalars.ratsimp(coeff)
            if coeff == 0 or scalars.is_zero(coeff):
                continue
        out.append(Term(coeff, key))
    # the terms are relabelings of checked terms with the same free indices
    return IndexExpr._checked(out)


def equivalent(ctx, a, b) -> bool:
    """True when two expressions agree under canform."""
    return canform(ctx, _as_expr(a) - _as_expr(b)).is_zero


# ---------------------------------------------------------------------------
# contraction


def _is_contraction_metric(ctx, f):
    return (f.name == ctx.metric and len(f.idx) == 2 and not f.deriv)


def _find_dummy(f1, f2):
    """A label occurring in f1's slots and oppositely in f2's slots."""
    slots2 = {}
    for p, (l, up) in enumerate(f2.idx):
        slots2.setdefault((l, up), p)
    for p1, (l, up) in enumerate(f1.idx):
        p2 = slots2.get((l, not up))
        if p2 is not None:
            return p1, p2
    return None


def _metric_to_kdelta(f):
    """A mixed-variance metric is the Kronecker delta."""
    (l1, u1), (l2, u2) = f.idx
    cov, con = (l1, l2) if not u1 else (l2, l1)
    return IndexedObject(KDELTA, ((cov, False), (con, True)))


def contract(ctx: TensorContext, e) -> IndexExpr:
    """Eliminate every dummy pair formed with the metric (or a Kronecker
    delta), honouring ordered-notation slot preservation and legacy
    placement; the result is canonicalized."""
    e = canform(ctx, e)
    out = []
    for term in e.terms:
        coeff, factors = term.coeff, list(term.factors)
        coeff, factors = _contract_term(ctx, coeff, factors)
        if _nonzero(coeff):
            out.append(Term(coeff, tuple(factors)))
    return canform(ctx, IndexExpr(out))


def _contract_term(ctx, coeff, factors):
    while True:
        # mixed-variance metrics become Kronecker deltas
        for i, f in enumerate(factors):
            if _is_contraction_metric(ctx, f):
                ups = [up for _, up in f.idx]
                if ups[0] != ups[1]:
                    factors[i] = _metric_to_kdelta(f)
        kind = (_metric_step(ctx, factors, want_metric_target=False)
                or _metric_step(ctx, factors, want_metric_target=True)
                or _kdelta_step(ctx, factors))
        if kind is None:
            return coeff, factors
        if kind == "dim":
            coeff = coeff * ctx.dim_scalar
        # other steps mutate ``factors`` in place


def _metric_step(ctx, factors, want_metric_target):
    for i, f in enumerate(factors):
        if not _is_contraction_metric(ctx, f):
            continue
        for j, g in enumerate(factors):
            if i == j or g.name == KDELTA:  # deltas contract by renaming
                continue
            if _is_contraction_metric(ctx, g) != want_metric_target:
                continue
            hit = _find_dummy(f, g)
            if hit is None:
                continue
            pm, pt = hit
            survivor = f.idx[1 - pm]
            if want_metric_target and _is_contraction_metric(ctx, g):
                # metric-metric: the two survivors form a Kronecker delta
                other = g.idx[1 - pt]
                pair = (survivor, other)
                cov = next(s for s in pair if not s[1])
                con = next(s for s in pair if s[1])
                delta = IndexedObject(KDELTA, ((cov[0], False), (con[0], True)))
                for k in sorted((i, j), reverse=True):
                    del factors[k]
                factors.append(delta)
            else:
                if g.ordered:
                    factors[j] = g.replace_slot(pt, survivor)
                else:
                    factors[j] = g.drop_slot_insert(pt, survivor)
                del factors[i]
            return "metric"
    return None


def _kdelta_step(ctx, factors):
    for i, f in enumerate(factors):
        if f.name != KDELTA:
            continue
        (cov, _), (con, _) = f.idx
        if cov == con:
            del factors[i]
            return "dim"
        for j, g in enumerate(factors):
            if i == j:
                continue
            # delta^con_cov: rename a covariant occurrence of `con` to `cov`,
            # or a contravariant occurrence of `cov` to `con`.
            for p, (l, up) in enumerate(g.idx):
                if l == con and not up:
                    factors[j] = g.replace_slot(p, (cov, False))
                    del factors[i]
                    return "kdelta"
                if l == cov and up:
                    factors[j] = g.replace_slot(p, (con, True))
                    del factors[i]
                    return "kdelta"
            if con in g.deriv:
                deriv = list(g.deriv)
                deriv[deriv.index(con)] = cov
                factors[j] = g._with(deriv=deriv)
                del factors[i]
                return "kdelta"
    return None


# ---------------------------------------------------------------------------
# partial differentiation (Leibniz over factors; coefficients are constants)


def _leibniz(terms, label):
    """``terms`` differentiated by ``label``: one term per factor, in order."""
    return [Term(t.coeff, t.factors[:i] + (f.with_deriv(label),)
                 + t.factors[i + 1:])
            for t in terms for i, f in enumerate(t.factors)]


def partial(e, label) -> IndexExpr:
    """Append a partial-derivative index to an expression."""
    return IndexExpr(_leibniz(_as_expr(e).terms, label))


# ---------------------------------------------------------------------------
# Christoffel symbols


def _christoffel(ctx, name, cov, con, deriv, used):
    """The one expansion, as a list of terms: ichr1 of (h, k, l) is
    1/2 (g_kl,h + g_lh,k - g_hk,l); ichr2 of (h, k), (j,) is g^jm ichr1 of
    (h, k, m), m the first generated label not among its labels.  Generated
    dummies (m, and j if traced) in ``used`` take the first generated labels
    outside it, which gains j and m; ``deriv`` differentiates as ``partial``."""
    if name == "ichr1" and (len(cov), len(con)) != (3, 0):
        raise ValueError("ichr1 takes exactly three covariant indices")
    if name == "ichr2" and (len(cov), len(con)) != (2, 1):
        raise ValueError("ichr2 takes two covariant and one contravariant index")
    cov, con, deriv = ([str(x) for x in xs] for xs in (cov, con, deriv))
    g, head = IndexedObject(ctx.metric), ()
    if con:
        labels = cov + con + deriv
        (m,) = _fresh_labels(labels)
        clash = sorted(x for x in {m, *con} if x.startswith("%") and x in used
                       and labels.count(x) != 1)
        rename = dict(zip(clash, _fresh_labels(used | {m}, len(clash))))
        cov, (j, m), deriv = ([rename.get(x, x) for x in xs]
                              for xs in (cov, con + [m], deriv))
        used.update((j, m))
        cov, head = cov + [m], (g._with(idx=((j, True), (m, True))),)
    h, k, l = cov
    out = [Term(c, head + (g._with(idx=((a, False), (b, False)), deriv=(d,)),))
           for c, (a, b, d) in ((sp.S.Half, (k, l, h)), (sp.S.Half, (l, h, k)),
                                (-sp.S.Half, (h, k, l)))]
    for d in deriv:
        out = _leibniz(out, d)
    return out


def ichr1(ctx: TensorContext, cov, deriv=()) -> IndexExpr:
    """First-kind Christoffel symbol Gamma_hkl expanded into metric
    derivatives, differentiated by the labels ``deriv`` in turn."""
    return IndexExpr(_christoffel(ctx, "ichr1", cov, (), deriv, set()))


def ichr2(ctx: TensorContext, cov, contra, deriv=()) -> IndexExpr:
    """Second-kind Christoffel symbol Gamma_hk^j = g^jm Gamma_hkm expanded
    as ``ichr1``; m is the first generated label not among the given ones."""
    return IndexExpr(_christoffel(ctx, "ichr2", cov, contra, deriv, set()))


def expand_christoffels(ctx: TensorContext, e) -> IndexExpr:
    """Replace opaque ichr1/ichr2 symbols by the expansions of ``ichr1`` and
    ``ichr2``, with generated dummies renamed away from the labels of the
    term and of the expansions before; an ichr1 with a contravariant slot
    and an ichr2 not of valence (2, 1) are refused."""
    out = []
    for term in _as_expr(e).terms:
        pieces = [(term.coeff, ())]
        used = {l for f in term.factors for l, _ in f.labels()}
        for f in term.factors:
            if f.name not in ("ichr1", "ichr2") or len(f.idx) != 3:
                pieces = [(c, fs + (f,)) for c, fs in pieces]
                continue
            sub = _christoffel(ctx, f.name, f.covariant, f.contravariant,
                               f.deriv, used)
            pieces = [(c * t.coeff, fs + t.factors)
                      for c, fs in pieces for t in sub]
        out += [Term(c, fs) for c, fs in pieces]
    # each symbol became terms of its free indices and of fresh dummies
    return IndexExpr._checked(out)


def _refresh_dummies(e, used):
    """Rename internal dummies of ``e`` away from the labels in ``used``.

    Free indices of ``e`` are left alone even when they are generated
    (%-prefixed) labels: they pair with indices outside the expression.
    """
    free = {l for l, _ in e.free_indices()}
    clash = sorted(l for l in e.all_labels()
                   if l.startswith("%") and l in used and l not in free)
    if not clash:
        return e
    fresh = _fresh_labels(used | e.all_labels(), len(clash))
    mapping = dict(zip(clash, fresh))
    return IndexExpr(tuple(Term(t.coeff, tuple(f.rename(mapping) for f in t.factors))
                           for t in e.terms))


# ---------------------------------------------------------------------------
# covariant and Lie derivatives


def _connection(ctx: TensorContext, a, b, c) -> IndexExpr:
    """Connection coefficient c_ab^c as used by covdiff.

    Plain coordinate mode yields the opaque second-kind Christoffel symbol;
    with torsion/nonmetricity the contortion and nonmetricity contributions
    are emitted expanded (c = Gamma - kappa - nu); in frame mode the frame
    connection replaces the Christoffel symbol (c = gamma - nu).
    """
    g, half = ctx.metric, sp.Rational(1, 2)
    expr = IndexExpr.of(iobj("gamma" if ctx.frame else "ichr2", [a, b], [c]))
    if ctx.torsion and not ctx.frame:
        n, p = _fresh_labels({a, b, c}, 2)
        kt2 = (IndexExpr.of(iobj("tau", [a, b], [c]), coeff=-half)
               + IndexExpr.of(iobj("tau", [n, a], [p]), coeff=-half)
               * iobj(g, [b, p]) * iobj(g, [], [n, c])
               + IndexExpr.of(iobj("tau", [n, b], [p]), coeff=-half)
               * iobj(g, [a, p]) * iobj(g, [], [n, c]))
        expr = expr - kt2
    if ctx.nonmetricity:
        (n,) = _fresh_labels({a, b, c})
        nm2 = (IndexExpr.of(iobj("mu", [b]), coeff=-half)
               * IndexedObject(KDELTA, ((a, False), (c, True)))
               + IndexExpr.of(iobj("mu", [a]), coeff=-half)
               * IndexedObject(KDELTA, ((b, False), (c, True)))
               + IndexExpr.of(iobj("mu", [n]), coeff=half)
               * iobj(g, [a, b]) * iobj(g, [], [n, c]))
        expr = expr - nm2
    return expr


def _renamed_indices(term, m):
    """(label, up, factors) for each index of each factor of ``term`` in
    turn, ``factors`` being the term's with that one index renamed to
    ``m``; derivative indices count as covariant."""
    for i, f in enumerate(term.factors):
        moved = [(x, up, f.replace_slot(p, (m, up)))
                 for p, (x, up) in enumerate(f.idx)]
        for x in f.deriv:
            deriv = list(f.deriv)
            deriv[deriv.index(x)] = m
            moved.append((x, False, f._with(deriv=deriv)))
        for x, up, g in moved:
            yield x, up, term.factors[:i] + (g,) + term.factors[i + 1:]


def covdiff(ctx: TensorContext, e, k) -> IndexExpr:
    """Covariant derivative by index ``k``: the partial-derivative term plus
    one connection term per index (+ for contravariant, - for covariant;
    derivative indices count as covariant)."""
    e = _as_expr(e)
    k = str(k)
    if k in e.all_labels():
        raise IndexConflictError(f"derivative index {k!r} collides with an "
                                 f"existing label")
    out = list(partial(e, k).terms)
    for term in e.terms:
        used = {l for f in term.factors for l, _ in f.labels()} | {k}
        (m,) = _fresh_labels(used)
        for x, up, swapped in _renamed_indices(term, m):
            conn = _connection(ctx, m, k, x) if up else _connection(ctx, x, k, m)
            piece = IndexExpr((Term(term.coeff, swapped),)) \
                * _refresh_dummies(conn, used | {m})
            out += (piece if up else -piece).terms
    return IndexExpr(out)


def liediff(ctx: TensorContext, e, vname) -> IndexExpr:
    """Lie derivative along the registered vector ``vname``."""
    vname = str(vname)
    if vname not in ctx.vectors:
        raise ValueError(f"{vname!r} is not registered as a vector "
                         f"(use TensorContext.declare_vector)")
    e = _as_expr(e)
    out = []
    for term in e.terms:
        used = {l for f in term.factors for l, _ in f.labels()}
        (h,) = _fresh_labels(used)
        # transport term V^h dT/dx^h
        dterm = partial(IndexExpr((term,)), h)
        out += (IndexExpr.of(iobj(vname, [], [h])) * dterm).terms
        for x, up, swapped in _renamed_indices(term, h):
            piece = IndexExpr((Term(term.coeff, swapped),))
            if up:
                out += (-(piece * iobj(vname, [], [x], h))).terms
            else:
                out += (piece * iobj(vname, [], [h], x)).terms
    return IndexExpr(out)


# ---------------------------------------------------------------------------
# exterior calculus


def _form_degree(ctx, e, operand="form"):
    """The degree of a sum of forms, None for the zero expression."""
    e = _as_expr(e)
    degree = None
    for term in e.terms:
        if len(term.factors) != 1:
            raise ValueError(f"{operand} must be a sum of single indexed objects")
        f = term.factors[0]
        if f.deriv or any(up for _, up in f.idx):
            raise ValueError(f"{operand} must be fully covariant")
        p = len(f.idx)
        if degree is None:
            degree = p
        elif degree != p:
            raise ValueError(f"{operand} mixes degrees {degree} and {p}")
        if p >= 2:
            decl, _ = ctx._declaration_for(f)
            ok = decl is not None and any(
                kind == "anti" and len(positions) == p
                for kind, positions in decl.cov_groups)
            if not ok:
                raise ValueError(
                    f"{f.name} is not declared fully antisymmetric")
    return degree


def wedge(ctx: TensorContext, a, b) -> IndexExpr:
    """Wedge product of two forms.

    The tensorial convention divides the alternating sum over the (p+q)!
    permutations of the labels by (p+q)!; with ``ctx.geometric_wedge`` set,
    by p!q! instead.  The p!q! permutations that deal each form the same
    labels are one term once its antisymmetric slots are sorted, so the sum
    is built over the C(p+q, p) shuffles, each weighted by p!q!.
    """
    a, b = _as_expr(a), _as_expr(b)
    p = _form_degree(ctx, a, "left operand")
    q = _form_degree(ctx, b, "right operand")
    if None in (p, q) or ctx.dim is not None and p + q > ctx.dim:
        return IndexExpr()
    norm = (sp.Rational(1, math.factorial(p) * math.factorial(q))
            if ctx.geometric_wedge
            else sp.Rational(1, math.factorial(p + q)))
    blocks = math.factorial(p) * math.factorial(q)
    out = []
    for ta in a.terms:
        fa = ta.factors[0]
        for tb in b.terms:
            fb = tb.factors[0]
            labels = [l for l, _ in fa.idx] + [l for l, _ in fb.idx]
            if len(set(labels)) != len(labels):
                raise IndexConflictError("wedge operands share index labels")
            coeff = ta.coeff * tb.coeff * norm * blocks
            for left in itertools.combinations(range(p + q), p):
                right = tuple(i for i in range(p + q) if i not in left)
                la = tuple((labels[i], False) for i in left)
                lb = tuple((labels[i], False) for i in right)
                out.append(Term(_perm_sign(left + right) * coeff,
                                (fa._with(idx=la), fb._with(idx=lb))))
    return canform(ctx, IndexExpr(out))


def extdiff(ctx: TensorContext, a, label) -> IndexExpr:
    """Exterior derivative; ``label`` becomes the new covariant index.  Of
    the (p+1)! permutations of the alternating sum, the p! that put label k
    in the derivative slot are one term, with sign (-1)^k, weighted by p!."""
    a = _as_expr(a)
    p = _form_degree(ctx, a, "operand")
    label = str(label)
    if label in a.all_labels():
        raise IndexConflictError(f"index {label!r} already appears in the form")
    if p is None or ctx.dim is not None and p + 1 > ctx.dim:
        return IndexExpr()
    norm = (sp.Rational(1, math.factorial(p)) if ctx.geometric_wedge
            else sp.Rational(1, math.factorial(p + 1)))
    out = []
    for term in a.terms:
        f = term.factors[0]
        labels = [label] + [l for l, _ in f.idx]
        for k in range(p + 1):
            slots = tuple((l, False) for l in labels[:k] + labels[k + 1:])
            obj = f._with(idx=slots, deriv=f.deriv + (labels[k],))
            out.append(Term((-1) ** k * term.coeff * norm * math.factorial(p),
                            (obj,)))
    return canform(ctx, IndexExpr(out))


def inner(ctx: TensorContext, vname, a) -> IndexExpr:
    """Contraction of a vector with the first slot of a form."""
    vname = str(vname)
    a = _as_expr(a)
    p = _form_degree(ctx, a, "operand")
    if p is None:
        return IndexExpr()
    if p < 1:
        raise ValueError("cannot contract a vector with a 0-form")
    out = []
    for term in a.terms:
        f = term.factors[0]
        (h,) = _fresh_labels({l for l, _ in f.labels()})
        obj = f.replace_slot(0, (h, False))
        out.append(Term(term.coeff, (iobj(vname, [], [h]), obj)))
    return canform(ctx, IndexExpr(out))


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# textual tensor expressions (CLI surface)


def parse_tensor_expr(text: str) -> IndexExpr:
    """Parse ``T([a,-b],[c],d)``-style expression text."""
    return _as_expr(_IndexParser(text).parse())


class _IndexParser(scalars._Parser):
    """The shared grammar over tensor calls ``Name([labels],[labels],
    derivs)`` and integers, without ``^``.  A label is a name or an
    integer, with a leading minus in the first list for a contravariant
    slot."""

    error = TensorSyntaxError
    powers = False

    def atom(self):
        if self.peek()[0] in ("int", "("):
            return super().atom()
        name = self.expect("name")[1]
        self.expect("(")
        first = self.labels()
        self.expect(",")
        second = self.labels()
        deriv = []
        while self.peek()[0] == ",":
            self.next()
            deriv.append(self.label())
        self.expect(")")
        return IndexExpr.of(iobj(name, first, second, *deriv))

    def labels(self):
        self.expect("[")
        labels = []
        while self.peek()[0] != "]":
            if labels:
                self.expect(",")
            mark = self.next()[0] if self.peek()[0] == "-" else ""
            labels.append(mark + self.label())
        self.expect("]")
        return labels

    def label(self):
        kind, value, start = self.next()
        if kind not in ("name", "int"):
            raise self.error(f"expected an index label, found {value!r}", start)
        return value
