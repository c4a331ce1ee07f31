import time

import pytest
import sympy as sp

from tensoralg import catalog, scalars
from tensoralg.catalog import FLAT_ENTRIES, entry, list_entries, load
from tensoralg.curvature import setup_frame
from tensoralg.scalars import evaluate, is_zero, parse, sym

ALL_NAMES = [
    "cartesian2d", "polar", "elliptic", "confocalelliptic", "bipolar",
    "parabolic", "cartesian3d", "polarcylindrical", "ellipticcylindrical",
    "confocalellipsoidal", "bipolarcylindrical", "paraboliccylindrical",
    "paraboloidal", "conical", "toroidal", "spherical", "oblatespheroidal",
    "oblatespheroidalsqrt", "prolatespheroidal", "prolatespheroidalsqrt",
    "ellipsoidal", "cartesian4d", "spherical4d", "exteriorschwarzschild",
    "interiorschwarzschild", "kerr_newman",
]

# entries whose frames mix distinct radicals; their frame consistency is
# decided symbolically like every other entry's and checked numerically
# too, on the documented coordinate ranges, by an evaluator that shares no
# simplification with the symbolic check
MIXED_RADICAL_FRAMES = {"conical", "confocalellipsoidal"}

SAMPLE_POINTS = {
    "confocalellipsoidal": {"u": 0.5, "v": 2.0, "w": 6.0, "e": 1, "f": 2,
                            "g": 3},
    "conical": {"u": 3.0, "v": 1.0, "w": 1.7, "e": 5, "f": 2},
    "oblatespheroidalsqrt": {"u": 1.6, "v": 0.4, "phi": 0.7, "e": 1.3},
    "prolatespheroidalsqrt": {"u": 0.4, "v": 1.7, "phi": 0.7, "e": 1.3},
    "exteriorschwarzschild": {"t": 1.0, "r": 5.0, "theta": 0.8, "phi": 0.3,
                              "m": 1.0},
    "interiorschwarzschild": {"t": 1.0, "z": 1.0, "u": 0.8, "v": 0.3,
                              "m": 1.0},
    "kerr_newman": {"t": 1.0, "r": 6.0, "theta": 0.8, "phi": 0.3, "a": 0.7,
                    "m": 1.0},
}


def sample_point(ent, shift=0.0):
    base = SAMPLE_POINTS.get(ent.name)
    if base is None:
        names = list(ent.coords) + list(ent.constants)
        return {n: 0.45 + 0.17 * i + shift for i, n in enumerate(names)}
    return {k: v * (1 + shift / 10) for k, v in base.items()}


def test_list_entries_is_definitive():
    assert list_entries() == ALL_NAMES


def test_list_contains_expected_rows():
    names = list_entries()
    assert "polar" in names
    assert "exteriorschwarzschild" in names
    assert "friedmann" not in names


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        load("friedmann")


def test_load_polar():
    ctx = load("polar")
    assert [c.name for c in ctx.coords] == ["r", "phi"]
    assert ctx.lg == [[1, 0], [0, sym("r") ** 2]]


def test_load_spherical():
    ctx = load("spherical")
    r, theta = sym("r"), sym("theta")
    assert ctx.lg[0][0] == 1 and ctx.lg[1][1] == r ** 2
    assert is_zero(ctx.lg[2][2] - r ** 2 * sp.sin(theta) ** 2)


def test_extra_flat_minkowski():
    ctx = load("cartesian2d", extra_flat=(1, "minkowski"))
    assert ctx.dim == 3
    assert ctx.lg == [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    assert ctx.coords[2].name == "w1"


def test_extra_flat_euclidean_with_frame():
    ctx = load("polar", extra_flat=(2, "euclidean"), frame=True)
    assert ctx.dim == 4 and ctx.cframe_flag
    assert ctx.lg[2][2] == 1 and ctx.lg[3][3] == 1


@pytest.mark.parametrize("count", [-2, 1.7, True])
def test_extra_flat_rejects_a_count_that_is_no_non_negative_integer(count):
    # -2 loaded the two-dimensional entry, 1.7 and True added one dimension
    with pytest.raises(ValueError, match="non-negative integer"):
        load("polar", extra_flat=(count, "euclidean"))


def test_extra_flat_rejects_unknown_signature():
    with pytest.raises(ValueError):
        load("polar", extra_flat=(1, "galilean"))


def test_frame_mode_requires_frame():
    with pytest.raises(ValueError):
        load("ellipsoidal", frame=True)


def test_signatures():
    for name in ALL_NAMES:
        ent = entry(name)
        expected = ("lorentzian" if name in ("exteriorschwarzschild",
                                             "interiorschwarzschild",
                                             "kerr_newman")
                    else "euclidean")
        assert ent.signature == expected


def test_kerr_newman_constants_documented():
    ent = entry("kerr_newman")
    assert set(ent.constants) == {"a", "m"}
    assert "charge" in ent.constraints


@pytest.mark.parametrize("name", [n for n in ALL_NAMES
                                  if entry(n).fri is not None])
def test_frame_consistency_symbolic(name):
    ent = entry(name)
    ctx = load(name, frame=True)
    expected = load(name)
    n = ctx.dim
    for i in range(n):
        for j in range(n):
            assert is_zero(ctx.lg[i][j] - expected.lg[i][j]), (name, i, j)


@pytest.mark.parametrize("name", sorted(MIXED_RADICAL_FRAMES))
def test_frame_consistency_numeric(name):
    ent = entry(name)
    n = len(ent.coords)
    lg = [[parse(x) for x in row] for row in ent.lg]
    fri = [[parse(x) for x in row] for row in ent.fri]
    eta = [[parse(x) for x in row] for row in ent.frame_metric]
    for shift in (0.0, 0.3, 0.7):
        values = sample_point(ent, shift)
        for i in range(n):
            for j in range(n):
                want = complex(evaluate(lg[i][j], values))
                got = sum(
                    complex(evaluate(eta[a][b], values))
                    * complex(evaluate(fri[a][i], values))
                    * complex(evaluate(fri[b][j], values))
                    for a in range(n) for b in range(n))
                assert abs(want - got) <= 1e-8 * max(1, abs(want)), \
                    (name, i, j)


def test_confocalellipsoidal_frame_loads_within_budget():
    start = time.monotonic()
    ctx = load("confocalellipsoidal", frame=True)
    seconds = time.monotonic() - start
    assert ctx.cframe_flag
    assert seconds < 15, f"loading the frame took {seconds:.1f}s"


def test_flat_entry_listing():
    assert set(ALL_NAMES) - set(FLAT_ENTRIES) == {
        "exteriorschwarzschild", "interiorschwarzschild", "kerr_newman"}


@pytest.mark.parametrize("name", ["polar", "bipolarcylindrical", "toroidal",
                                  "paraboloidal", "oblatespheroidalsqrt"])
def test_selected_flatness_spot_checks(name):
    # the acceptance suite runs the full flatness sweep; these are the rows
    # that needed reconciliation against the garbled source table
    ctx = load(name)
    n = ctx.dim
    R = ctx.riemann
    for h in range(n):
        for l in range(n):
            for k in range(n):
                for j in range(n):
                    assert is_zero(R[h][l][k][j]), (name, h, l, k, j)


def _components(array, index=()):
    if isinstance(array, list):
        for i, sub in enumerate(array):
            yield from _components(sub, index + (i,))
    else:
        yield index, array


@pytest.mark.parametrize("name", sorted(set(ALL_NAMES) - set(FLAT_ENTRIES)))
def test_antisymmetric_partners_print_as_negatives(name):
    # the partner of a component in an antisymmetric pair of slots prints
    # over the same denominator with every numerator term negated; the
    # flat entries have no nonzero curvature component
    ctx = load(name)
    # riemann_lowered and weyl keep P_abcd at [b][d][c][a], antisymmetric
    # in (a, b) and in (c, d); riemann R[h][l][k]^j is so in (l, k)
    pair_swaps = {"riemann_lowered": ((0, 3), (1, 2)),
                  "weyl": ((0, 3), (1, 2)), "riemann": ((1, 2),)}
    for stage, swaps in pair_swaps.items():
        array = getattr(ctx, stage)
        for index, value in _components(array):
            num, den = sp.fraction(value)
            for i, j in swaps:
                other = list(index)
                other[i], other[j] = index[j], index[i]
                partner = array
                for k in other:
                    partner = partner[k]
                pnum, pden = sp.fraction(partner)
                assert pden == den, (stage, index)
                assert (set(sp.Add.make_args(pnum))
                        == {-t for t in sp.Add.make_args(num)}), (stage, index)
