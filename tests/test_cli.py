import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath
import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from tensoralg import algebras, catalog, cli, indicial, metricfile, scalars
from tensoralg.indicial import TensorContext, anti_group, sym_group

POLAR_FILE = """\
[chart] coords = r, phi
[metric] row = 1, 0
[metric] row = 0, r^2
"""


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_polar_ricci_all_zero(tmp_path, capsys):
    path = tmp_path / "polar.tm"
    path.write_text(POLAR_FILE)
    code, out, err = run_cli("compute", "--metric", str(path),
                             "--tensors", "ricci", capsys=capsys)
    assert code == 0
    assert "ricci: 4 zero components omitted" in out


def test_compute_json_document(capsys):
    code, out, _ = run_cli("compute", "--catalog", "exteriorschwarzschild",
                           "--tensors", "ricci,scalar", "--format", "json",
                           capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ricci"]["zero_components"] == 16
    assert doc["ricci"]["components"] == {}
    assert doc["scalar"]["zero"] is True


def test_compute_christoffel_component_naming(capsys):
    code, out, _ = run_cli("compute", "--catalog", "polar",
                           "--tensors", "christoffel2", "--format", "json",
                           capsys=capsys)
    doc = json.loads(out)
    comps = doc["christoffel2"]["components"]
    assert comps["phi,phi,r"] == "-r"
    assert comps["r,phi,phi"] == "1/r"


@pytest.mark.parametrize("name", catalog.list_entries())
def test_compute_all_matches_golden_output(name, capsys):
    start = time.monotonic()
    code, out, err = run_cli(*oracles.CLI_GOLDENS[f"{name}.json"],
                             capsys=capsys)
    seconds = time.monotonic() - start
    assert code == 0 and err == ""
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    assert out == golden.read_text(encoding="utf-8")
    if name == "kerr_newman":
        assert seconds < 20, f"kerr_newman compute took {seconds:.1f}s"


def test_kerr_curvature_and_rendering_stay_in_the_field(monkeypatch, capsys):
    # once the metric entries are read into the field, no component is read
    # back from an expression, no expression-tree simplifier runs and no
    # component is printed by sympy's printer
    from sympy.polys.fields import FracElement, FracField
    from sympy.printing.str import StrPrinter

    ctx = catalog.load("kerr_newman")
    assert ctx.field is not None
    calls = {}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(FracField, "from_expr")
    counted(StrPrinter, "doprint")
    for name in (*oracles.TREE_SIMPLIFIERS, "is_zero"):
        counted(scalars, name)
    monkeypatch.setattr(cli, "_load_context", lambda args: ctx)
    code, out, _ = run_cli("compute", "--catalog", "kerr_newman", "--tensors",
                           "all", "--format", "json", capsys=capsys)
    assert code == 0
    golden = Path(__file__).parent / "golden" / "kerr_newman.json"
    assert out == golden.read_text(encoding="utf-8")
    assert calls == {}

    def leaves(value):
        if isinstance(value, list):
            return [leaf for sub in value for leaf in leaves(sub)]
        return [value]

    for stage in ("ug", "christoffel1", "christoffel2", "riemann_lowered",
                  "riemann", "ricci", "ricci_scalar", "einstein", "weyl"):
        assert all(isinstance(v, FracElement)
                   for v in leaves(ctx._memo[stage][1])), stage


@pytest.mark.parametrize("name", ["exteriorschwarzschild",
                                  "interiorschwarzschild"])
def test_schwarzschild_frame_stages_run_no_tree_simplifier(name, monkeypatch,
                                                           capsys):
    # the roots of the Schwarzschild frames are field generators: the frame
    # pipeline and classify make no expression-tree ratsimp or trigsimp
    # call inside the frame stages
    from tensoralg.curvature import MetricContext

    inside, calls = [], []
    for stage in ("rotation_coeffs", "riemann_frame", "weyl_frame"):
        prop = MetricContext.__dict__[stage]

        def getter(self, fget=prop.fget, stage=stage):
            inside.append(stage)
            try:
                return fget(self)
            finally:
                inside.pop()
        monkeypatch.setattr(MetricContext, stage,
                            property(getter, doc=prop.__doc__))
    for fn in ("ratsimp", "trigsimp"):
        def counted(e, original=getattr(scalars, fn), fn=fn):
            if inside:
                calls.append((inside[-1], fn))
            return original(e)
        monkeypatch.setattr(scalars, fn, counted)
    ctx = catalog.load(name, frame=True)
    ctx.rotation_coeffs
    ctx.riemann_frame
    assert all(v == 0 for row in ctx.ricci_frame for v in row)
    code, out, _ = run_cli("classify", "--catalog", name, "--format", "json",
                           capsys=capsys)
    assert code == 0 and json.loads(out)["petrov_type"] == "D"
    assert calls == []


@pytest.mark.parametrize("source, most", [("metric", 0), ("frame", 40)])
def test_compute_converts_no_printed_stage_to_expressions(
        source, most, tmp_path, monkeypatch, capsys):
    # stages pass between stages as field records and print from their
    # elements: the Kerr-Newman coordinate stages convert no element to an
    # expression.  Its frame context converts its 16 derived metric entries
    # and the 24 components with roots, which print through render
    _, text, _ = run_cli("catalog", "show", "kerr_newman", capsys=capsys)
    path = tmp_path / "kerr_newman.tm"
    path.write_text(text)
    argv = (("--metric", str(path)) if source == "metric"
            else ("--catalog", "kerr_newman", "--frame"))
    calls = []
    expr = scalars.KernelField.expr
    monkeypatch.setattr(scalars.KernelField, "expr",
                        lambda K, f: calls.append(f) or expr(K, f))
    code, _, _ = run_cli("compute", *argv, "--tensors", "all", capsys=capsys)
    assert code == 0
    assert len(calls) <= most


@pytest.mark.parametrize("name, frame, most", [
    ("confocalellipsoidal", False, 45), ("kerr_newman", True, 180)])
def test_kernel_field_cancels_without_polynomial_gcds(
        name, frame, most, tmp_path, monkeypatch, capsys):
    # the kernel field cancels by trial division over its factor base; the
    # few gcds left are sympy's own field operations, a difference or an
    # inverse written with - or /
    from sympy.polys.rings import PolyElement
    if frame:
        argv = ("--catalog", name, "--frame")
    else:
        _, text, _ = run_cli("catalog", "show", name, capsys=capsys)
        path = tmp_path / f"{name}.tm"
        path.write_text(text)
        argv = ("--metric", str(path))
    calls = []
    gcd = PolyElement._gcd_ZZ
    monkeypatch.setattr(PolyElement, "_gcd_ZZ",
                        lambda f, g: calls.append(f) or gcd(f, g))
    code, _, _ = run_cli("compute", *argv, "--tensors", "all", capsys=capsys)
    assert code == 0
    assert len(calls) <= most


@pytest.mark.parametrize("frame", [(), ("--frame",)])
def test_compute_parses_each_value_of_a_metric_file_once(frame, tmp_path,
                                                         monkeypatch, capsys):
    # the values parsed to report a syntax error with its line are the ones
    # the context computes with
    _, text, _ = run_cli("catalog", "show", "exteriorschwarzschild",
                         capsys=capsys)
    path = tmp_path / "schwarzschild.tm"
    path.write_text(text)
    values = sum(len(line.split("=")[1].split(","))
                 for line in text.splitlines() if "row =" in line
                 or "frame_metric =" in line)
    assert values == 36
    parsed = []
    parse = scalars.parse
    monkeypatch.setattr(scalars, "parse",
                        lambda value: parsed.append(value) or parse(value))
    code, _, _ = run_cli("compute", "--metric", str(path), *frame,
                         "--tensors", "all", capsys=capsys)
    assert code == 0
    assert len(parsed) == values


@pytest.mark.parametrize("indices", ["0, 1, 1", "3, 1, 1"])
def test_compute_refuses_torsion_index_out_of_range(tmp_path, capsys,
                                                    indices):
    path = tmp_path / "torsion.tm"
    path.write_text(POLAR_FILE + f"[torsion] entry = {indices}, r\n")
    code, out, err = run_cli("compute", "--metric", str(path), "--tensors",
                             "ricci", capsys=capsys)
    assert code == 1 and out == ""
    assert "line 4: torsion indices must lie in 1..2" in err


SCHWARZSCHILD_FRAME_FILE = """\
[chart] coords = t, r, theta, phi
[constants] m
[frame] row = sqrt((r-2*m)/r), 0, 0, 0
[frame] row = 0, sqrt(r/(r-2*m)), 0, 0
[frame] row = 0, 0, r, 0
[frame] row = 0, 0, 0, r*sin(theta)
[frame] frame_metric = diag(-1,1,1,1)
"""


SCHWARZSCHILD_METRIC_ROWS = """\
[metric] row = (2*m-r)/r, 0, 0, 0
[metric] row = 0, r/(r-2*m), 0, 0
[metric] row = 0, 0, r^2, 0
[metric] row = 0, 0, 0, r^2*sin(theta)^2
"""


def test_compute_frame_checks_the_metric_rows_of_its_file(tmp_path, capsys):
    # the frame rows give g = diag(1, sin(r)^2), not the metric rows: each
    # alone would print a scalar curvature (0 and 2)
    path = tmp_path / "mixed.tm"
    path.write_text(POLAR_FILE
                    + "[frame] row = 1, 0\n[frame] row = 0, sin(r)\n")
    code, out, _ = run_cli("compute", "--metric", str(path), "--tensors",
                           "scalar", capsys=capsys)
    assert code == 0 and out == "scalar = 0\n"
    code, out, err = run_cli("compute", "--metric", str(path), "--frame",
                             "--tensors", "scalar", capsys=capsys)
    assert code == 1 and out == ""
    assert "frame is not orthonormal for the metric" in err


def test_compute_frame_file_with_matching_metric_rows(tmp_path, capsys):
    path = tmp_path / "schwarzschild.tm"
    path.write_text(SCHWARZSCHILD_FRAME_FILE + SCHWARZSCHILD_METRIC_ROWS)
    code, out, _ = run_cli("compute", "--metric", str(path), "--frame",
                           "--tensors", "ricci", "--format", "json",
                           capsys=capsys)
    assert code == 0
    assert json.loads(out)["ricci"] == {"components": {},
                                        "zero_components": 16}


def test_rotation_coeffs_without_frame_names_the_frame_option(tmp_path,
                                                             capsys):
    # the file has a [frame] section, but without --frame its metric rows
    # make the context
    path = tmp_path / "schwarzschild.tm"
    path.write_text(SCHWARZSCHILD_FRAME_FILE + SCHWARZSCHILD_METRIC_ROWS)
    code, out, err = run_cli("compute", "--metric", str(path), "--tensors",
                             "rotation_coeffs", capsys=capsys)
    assert code == 1 and out == ""
    assert err == ("error: rotation_coeffs needs a frame base: add --frame "
                   "(a metric file needs a [frame] section)\n")
    code, _, _ = run_cli("compute", "--metric", str(path), "--frame",
                         "--tensors", "rotation_coeffs", capsys=capsys)
    assert code == 0


@pytest.mark.parametrize("section", ["[nonmetricity] mu = 0, 0, 0, 0\n",
                                     "[torsion] entry = 1, 2, 3, 0\n"],
                         ids=["nonmetricity", "torsion"])
def test_compute_frame_file_with_zero_torsion_or_nonmetricity_is_vacuum(
        tmp_path, capsys, section):
    # the connection of a frame file is the coordinate one, so a zero
    # torsion or nonmetricity leaves Schwarzschild a vacuum
    path = tmp_path / "frame.tm"
    path.write_text(SCHWARZSCHILD_FRAME_FILE + section)
    code, out, _ = run_cli("compute", "--metric", str(path), "--tensors",
                           "ricci", "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["ricci"] == {"components": {},
                                        "zero_components": 16}


def test_compute_frame_and_coordinate_files_share_the_connection(tmp_path,
                                                                  capsys):
    # the same metric, torsion and nonmetricity entered as a frame and as a
    # metric print the same coordinate tensors
    sections = ("[torsion] entry = 1, 2, 3, z\n[torsion] entry = 2, 3, 1, r\n"
                "[nonmetricity] mu = r, 0, 1\n")
    files = {"frame": "[frame] row = 1, 0, 0\n[frame] row = 0, r, 0\n"
                      "[frame] row = 0, 0, 1\n",
             "metric": "[metric] row = 1, 0, 0\n[metric] row = 0, r^2, 0\n"
                       "[metric] row = 0, 0, 1\n"}
    docs = {}
    for kind, rows in files.items():
        path = tmp_path / f"{kind}.tm"
        path.write_text("[chart] coords = r, phi, z\n" + rows + sections)
        code, out, _ = run_cli("compute", "--metric", str(path), "--tensors",
                               "christoffel2,riemann,ricci,scalar",
                               "--format", "json", capsys=capsys)
        assert code == 0
        docs[kind] = json.loads(out)
    assert docs["frame"] == docs["metric"]
    assert docs["frame"]["riemann"]["components"]


@pytest.mark.parametrize("name", ["conical", "toroidal"])
def test_frame_rotation_coeffs_match_golden_within_budget(name, capsys):
    start = time.monotonic()
    code, out, _ = run_cli(*oracles.CLI_GOLDENS[f"{name}_rotation.json"],
                           capsys=capsys)
    seconds = time.monotonic() - start
    assert code == 0
    golden = Path(__file__).parent / "golden" / f"{name}_rotation.json"
    assert out == golden.read_text(encoding="utf-8")
    assert seconds < 15, f"rotation coefficients took {seconds:.1f}s"


@pytest.mark.parametrize("name", oracles.TREE_FRAMES)
def test_tree_frame_stages_match_golden(name, capsys):
    _check_frame_golden(name, capsys)


@pytest.mark.parametrize("name", oracles.FIELD_FRAMES)
def test_field_frame_stages_match_golden(name, capsys):
    _check_frame_golden(name, capsys)


def _check_frame_golden(name, capsys):
    code, out, err = run_cli(*oracles.CLI_GOLDENS[f"{name}_frame.json"],
                             capsys=capsys)
    assert code == 0 and err == ""
    golden = Path(__file__).parent / "golden" / f"{name}_frame.json"
    assert out == golden.read_text(encoding="utf-8")


def test_compute_all_skips_weyl_with_nonmetricity(tmp_path, capsys):
    path = tmp_path / "nonmetric.tm"
    path.write_text("[chart] coords = t, x, y, z\n"
                    "[metric] row = -1, 0, 0, 0\n[metric] row = 0, 1, 0, 0\n"
                    "[metric] row = 0, 0, 1, 0\n[metric] row = 0, 0, 0, 1\n"
                    "[nonmetricity] mu = 0, x, 0, 0\n")
    code, out, _ = run_cli("compute", "--metric", str(path), "--tensors",
                           "all", "--format", "json", capsys=capsys)
    assert code == 0
    assert "ricci" in json.loads(out) and "weyl" not in json.loads(out)
    code, _, err = run_cli("compute", "--metric", str(path), "--tensors",
                           "weyl", capsys=capsys)
    assert code == 1 and "metric connection" in err


def test_classify_schwarzschild(capsys):
    code, out, _ = run_cli("classify", "--catalog", "exteriorschwarzschild",
                           "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"petrov_type": "D"}


def test_classify_kerr_newman_within_budget(capsys):
    start = time.monotonic()
    code, out, _ = run_cli("classify", "--catalog", "kerr_newman",
                           "--format", "json", capsys=capsys)
    seconds = time.monotonic() - start
    assert code == 0
    assert json.loads(out) == {"petrov_type": "D"}
    assert seconds < 60, f"classifying kerr_newman took {seconds:.1f}s"


def test_catalog_list(capsys):
    code, out, _ = run_cli("catalog", "list", capsys=capsys)
    assert code == 0
    names = out.strip().splitlines()
    assert names[0] == "cartesian2d" and "kerr_newman" in names
    assert len(names) == 26


def test_catalog_show_reingests(tmp_path, capsys):
    code, shown, _ = run_cli("catalog", "show", "polar", capsys=capsys)
    assert code == 0
    path = tmp_path / "polar.tm"
    path.write_text(shown)
    code, out1, _ = run_cli("compute", "--metric", str(path),
                            "--tensors", "christoffel2", "--format", "json",
                            capsys=capsys)
    assert code == 0
    code, out2, _ = run_cli("compute", "--catalog", "polar",
                            "--tensors", "christoffel2", "--format", "json",
                            capsys=capsys)
    assert out1 == out2


def test_catalog_show_round_trip_tensors_all_entries(tmp_path, capsys):
    # show output re-ingested by compute reproduces identical tensors for
    # every catalog entry
    from tensoralg import catalog
    for name in catalog.list_entries():
        code, shown, _ = run_cli("catalog", "show", name, capsys=capsys)
        assert code == 0
        path = tmp_path / f"{name}.tm"
        path.write_text(shown)
        _, direct, _ = run_cli("compute", "--catalog", name,
                               "--tensors", "christoffel1",
                               "--format", "json", capsys=capsys)
        _, via_file, _ = run_cli("compute", "--metric", str(path),
                                 "--tensors", "christoffel1",
                                 "--format", "json", capsys=capsys)
        assert direct == via_file, name


FRAME_ENTRIES = [name for name in catalog.list_entries()
                 if catalog.entry(name).fri is not None]


@pytest.mark.parametrize("name,tensors", [
    *((name, "christoffel1,christoffel2") for name in FRAME_ENTRIES),
    ("spherical", "all")])
def test_frame_routes_print_the_same_tensors(name, tensors, tmp_path, capsys):
    # a frame context derives its metric however it was loaded: the catalog
    # entry and the metric file it shows, metric rows included, print the
    # same components
    code, shown, _ = run_cli("catalog", "show", name, capsys=capsys)
    assert code == 0
    path = tmp_path / f"{name}.tm"
    path.write_text(shown)
    direct = run_cli("compute", "--catalog", name, "--frame", "--tensors",
                     tensors, capsys=capsys)
    via_file = run_cli("compute", "--metric", str(path), "--frame",
                       "--tensors", tensors, capsys=capsys)
    assert direct[0] == 0 and direct == via_file


@pytest.mark.parametrize("name", FRAME_ENTRIES)
def test_frame_and_coordinate_routes_print_the_same_tensors(name, capsys):
    # a frame context takes its relation table from the metric its frame
    # derives, so its coordinate tensors print as without --frame, which
    # the golden record of the entry holds
    tensors = ["christoffel1", "christoffel2", "riemann", "ricci", "scalar",
               "einstein"]
    if len(catalog.entry(name).coords) >= 4:
        tensors.append("weyl")
    code, out, _ = run_cli("compute", "--catalog", name, "--frame",
                           "--tensors", ",".join(tensors), "--format",
                           "json", capsys=capsys)
    assert code == 0
    golden = json.loads((Path(__file__).parent / "golden" / f"{name}.json")
                        .read_text(encoding="utf-8"))
    assert json.loads(out) == {key: golden[key] for key in tensors}


#: sin(y)^2 -> 1 - cos(y)^2 and cosh(x)^2 -> 1 + sinh(x)^2
REWRITES = {"sin(y)^2": "(1 - cos(y)^2)", "cosh(x)^2": "(1 + sinh(x)^2)"}
FACTORS = ("x", "y", "sin(y)^2", "cos(y)^2", "sinh(x)^2", "cosh(x)^2",
           "sin(y)*cos(y)")


@st.composite
def rewritten_metrics(draw):
    """Two texts of one diagonal metric in x, y, the second with one square
    of REWRITES rewritten in one entry.  Every entry is 1 plus terms with
    positive coefficients, so it is positive for small positive x, y and
    the metric is regular."""
    def term(factor):
        return f"{draw(st.integers(1, 3))}*{factor}"

    square = draw(st.sampled_from(sorted(REWRITES)))
    entries = ["1 + " + term(draw(st.sampled_from(FACTORS)))
               for _ in range(2)]
    at = draw(st.integers(0, 1))
    entries[at] += " + " + term(square)
    rewritten = list(entries)
    rewritten[at] = entries[at].replace(square, REWRITES[square], 1)
    return tuple(f"[chart] coords = x, y\n[metric] row = {a}, 0\n"
                 f"[metric] row = 0, {b}\n"
                 for a, b in (entries, rewritten))


@settings(max_examples=15, deadline=None)
@given(rewritten_metrics())
def test_rewriting_a_square_leaves_every_printed_component(texts):
    # a printed component depends on its value only: the relation table is
    # chosen from the values of the metric entries, and each stage prints
    # its canonical form under that table
    outputs = []
    with tempfile.TemporaryDirectory() as folder:
        for i, text in enumerate(texts):
            path = Path(folder) / f"{i}.tm"
            path.write_text(text)
            outputs.append(oracles.cli_output(
                ("compute", "--metric", str(path), "--tensors", "all")))
    assert outputs[0] == outputs[1]
    assert "christoffel2" in outputs[0]


def test_output_is_deterministic(capsys):
    args = ("compute", "--catalog", "spherical", "--tensors", "all",
            "--format", "json")
    _, out1, _ = run_cli(*args, capsys=capsys)
    _, out2, _ = run_cli(*args, capsys=capsys)
    assert out1 == out2


def test_algebra_expr_and_table(capsys):
    code, out, _ = run_cli("algebra", "--type", "clifford", "--dims", "0,0,2",
                           "--expr", "v2.v1.v1", capsys=capsys)
    assert code == 0 and out.strip() == "result = -v2"
    code, out, _ = run_cli("algebra", "--type", "clifford", "--dims", "0,0,2",
                           "--table", capsys=capsys)
    assert code == 0
    rows = [line.split("  ") for line in out.strip().splitlines()]
    assert rows[1] == ["v1", "-1", "v1.v2", "-v2"]
    assert rows[3] == ["v1.v2", "v2", "-v1", "-1"]


def test_indicial_contract(capsys):
    code, out, _ = run_cli("indicial", "--op", "contract",
                           "--expr", "g([a,b],[])*T([],[b,c])",
                           capsys=capsys)
    assert code == 0 and out.strip() == "result = T([a],[c])"


def test_indicial_wedge_flags(capsys):
    code, out, _ = run_cli("indicial", "--op", "wedge", "--expr", "a([i],[])",
                           "--with", "b([j],[])", "--geometric-wedge",
                           capsys=capsys)
    assert code == 0
    assert out.strip() == \
        "result = a([i],[])*b([j],[]) - a([j],[])*b([i],[])"


@pytest.mark.parametrize("argv", [
    ("--op", "wedge", "--expr", "0", "--with", "b([j],[])"),
    ("--op", "wedge", "--expr", "b([j],[])", "--with", "0"),
    ("--op", "extdiff", "--expr", "0", "--wrt", "b"),
    ("--op", "inner", "--vector", "V", "--expr", "0"),
])
def test_indicial_zero_operand_gives_zero(argv, capsys):
    code, out, err = run_cli("indicial", *argv, capsys=capsys)
    assert (code, out, err) == (0, "result = 0\n", "")


def test_indicial_wedge_with_zero_checks_the_other_operand(capsys):
    code, out, err = run_cli("indicial", "--op", "wedge", "--expr", "0",
                             "--with", "T([j,k],[])", capsys=capsys)
    assert code == 1 and out == ""
    assert "T is not declared fully antisymmetric" in err


def test_indicial_covdiff_torsion_flag(capsys):
    code, out, _ = run_cli("indicial", "--op", "covdiff", "--expr",
                           "X([],[j])", "--wrt", "k", "--torsion",
                           "--decsym", "tau:2,1:anti(1,2)", capsys=capsys)
    assert code == 0 and "tau" in out and "ichr2" in out


def _contexts():
    ctx = TensorContext()
    ctx.decsym("T", 2, 0, [sym_group()], [])
    ctx.decsym("F", 2, 0, [anti_group()], [])
    ctx.declare_vector("V")
    return ctx


@pytest.mark.parametrize("argv, expr, op", [
    (("--op", "canform", "--decsym", "T:2,0:sym(all)"), "T([b,a],[])",
     indicial.canform),
    (("--op", "expand"), "ichr2([a,b],[c])",
     lambda ctx, e: indicial.canform(ctx, indicial.contract(
         ctx, indicial.expand_christoffels(ctx, e)))),
    (("--op", "liediff", "--vector", "V"), "A([l],[],k)",
     lambda ctx, e: indicial.liediff(ctx, e, "V")),
    (("--op", "extdiff", "--wrt", "b"), "A([a],[])",
     lambda ctx, e: indicial.extdiff(ctx, e, "b")),
    (("--op", "inner", "--vector", "V", "--decsym", "F:2,0:anti(all)"),
     "F([a,b],[])", lambda ctx, e: indicial.inner(ctx, "V", e)),
])
def test_indicial_operations_match_the_library(argv, expr, op, capsys):
    code, out, err = run_cli("indicial", "--expr", expr, *argv,
                             capsys=capsys)
    expected = op(_contexts(), indicial.parse_tensor_expr(expr))
    assert code == 0 and err == ""
    assert not expected.is_zero
    assert out == f"result = {expected}\n"


def test_compute_text_lists_nonzero_components(capsys):
    code, out, err = run_cli("compute", "--catalog", "polar", "--tensors",
                             "christoffel2,scalar", capsys=capsys)
    ctx = catalog.load("polar")
    names = [c.name for c in ctx.coords]
    c2, zero = ctx.christoffel2, ctx.vanishing("christoffel2")
    lines = sorted(
        f"christoffel2[{names[h]},{names[k]},{names[j]}] = "
        f"{scalars.render(c2[h][k][j])}"
        for h in range(2) for k in range(2) for j in range(2)
        if not zero[h][k][j])
    assert code == 0 and err == "" and len(lines) == 3
    assert out.splitlines() == lines + [
        f"christoffel2: {8 - len(lines)} zero components omitted",
        f"scalar = {scalars.render(ctx.ricci_scalar)}"]


def test_catalog_list_json(capsys):
    code, out, err = run_cli("catalog", "list", "--format", "json",
                             capsys=capsys)
    assert code == 0 and err == ""
    assert json.loads(out) == {"metrics": catalog.list_entries()}


def test_algebra_table_json(capsys):
    code, out, err = run_cli("algebra", "--type", "clifford", "--dims",
                             "0,0,2", "--table", "--format", "json",
                             capsys=capsys)
    table = algebras.multiplication_table(
        algebras.init_atensor("clifford", 0, 0, 2))
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "basis": ["1", "v1", "v2", "v1.v2"],
        "table": [[str(cell) for cell in row] for row in table]}


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_input_errors(tmp_path, capsys):
    code, _, err = run_cli("compute", "--catalog", "nosuch", capsys=capsys)
    assert code == 1 and "unknown catalog metric" in err
    code, _, err = run_cli("compute", "--metric", str(tmp_path / "none.tm"),
                           capsys=capsys)
    assert code == 1 and "cannot read" in err
    bad = tmp_path / "bad.tm"
    bad.write_text("[chart] coords = x, y\n[metric] row = 1, )(\n")
    code, _, err = run_cli("compute", "--metric", str(bad), capsys=capsys)
    assert code == 1 and "line 2: " in err
    code, _, err = run_cli("indicial", "--op", "contract",
                           "--expr", "T([a,a],[])", capsys=capsys)
    assert code == 1
    code, _, err = run_cli("compute", "--catalog", "polar",
                           "--tensors", "frobnicator", capsys=capsys)
    assert code == 1


@pytest.mark.parametrize("argv,message", [
    (("catalog", "show"), "error: catalog show needs a metric name\n"),
    (("compute", "--catalog", "ellipsoidal", "--frame"),
     "error: catalog entry 'ellipsoidal' has no frame base\n"),
    # the first printed the KeyError's quotes, the last listed the catalog
    (("catalog", "show", "nosuch"), "error: unknown catalog metric 'nosuch'\n"),
    (("compute", "--catalog", "nosuch"),
     "error: unknown catalog metric 'nosuch'\n"),
    (("catalog", "list", "polar"), "error: catalog list takes no metric name\n"),
])
def test_exit_code_catalog_input_errors(argv, message, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("argv,message", [
    (("algebra", "--type", "clifford", "--dims", "0,0,2", "--expr", "1.5*v1"),
     "malformed number"),
    (("algebra", "--type", "clifford", "--dims", "0,0,2", "--expr", "v1 v2"),
     "unexpected 'v2'"),
    (("indicial", "--op", "canform", "--expr", "3/0*T([a],[])"),
     "division by zero"),
])
def test_exit_code_misread_expressions(argv, message, capsys):
    # these printed 5*v1, v1.v2 and zoo*T([a],[]) with exit 0
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 1 and out == "" and message in err


def test_exit_code_metric_file_with_zero_divisor(tmp_path, capsys):
    # this printed "ricci: 4 zero components omitted" with exit 0
    path = tmp_path / "pole.tm"
    path.write_text("[chart] coords = x, y\n[metric] row = 1/0, 0\n"
                    "[metric] row = 0, 1\n")
    code, out, err = run_cli("compute", "--metric", str(path), "--tensors",
                             "ricci", capsys=capsys)
    assert code == 1 and out == ""
    assert "line 2: " in err and "division by zero" in err


def test_exit_code_computation_error_unclassifiable(tmp_path, capsys,
                                                    monkeypatch):
    # a metric file without frame rows is an input error (exit 1)
    murky = tmp_path / "murky.tm"
    murky.write_text("""\
[chart] coords = t, x, y, z
[metric] row = -1, 0, 0, 0
[metric] row = 0, 1, 0, 0
[metric] row = 0, 0, 1, 0
[metric] row = 0, 0, 0, 1
""")
    code, _, err = run_cli("classify", "--metric", str(murky), capsys=capsys)
    assert code == 1

    # an unclassifiable Petrov zero test is a computation error (exit 2)
    # and still reports the petrov_type field
    from tensoralg import petrov
    from tensoralg.scalars import sym

    def raise_unclassifiable(ctx):
        raise petrov.UnclassifiableError(sp.sin(2 * sym("x")))

    monkeypatch.setattr(petrov, "petrov_of_metric", raise_unclassifiable)
    code = cli.main(["classify", "--catalog", "exteriorschwarzschild",
                     "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2 and "computation error" in err
    assert json.loads(out) == {"petrov_type": "unclassifiable"}


#: Flat space in spherical coordinates, with g_phiphi = r^2 sin(theta)^2
#: written through sin(2 theta): its kernel field holds sin(2 theta) beside
#: sin(theta) and is not canonical.
SIN_2THETA_FILE = """\
[chart] coords = r, theta, phi
[metric] row = 1, 0, 0
[metric] row = 0, r^2, 0
[metric] row = 0, 0, r^2*sin(2*theta)^2/(4*cos(theta)^2)
"""


@pytest.mark.parametrize("tensors, stage", [
    ("riemann", "riemann[theta,theta,phi,phi]"),
    ("ricci", "ricci[theta,theta]"), ("scalar", "ricci_scalar"),
    ("riemann,ricci,scalar", "riemann[")])
def test_compute_exits_2_on_a_component_it_cannot_decide(tensors, stage,
                                                         tmp_path, capsys):
    # these components are identically 0, but their numerators are not 0
    # in the field and no interval certificate holds: they printed as
    # nonzero with exit 0
    path = tmp_path / "sin2theta.tm"
    path.write_text(SIN_2THETA_FILE)
    code, out, err = run_cli("compute", "--metric", str(path), "--tensors",
                             tensors, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"computation error: cannot decide whether {stage}")


def test_refusal_writes_its_expression_in_the_package_syntax(tmp_path,
                                                             capsys):
    # the message wrote cos(theta)**2, which neither the metric-file grammar
    # nor --expr reads; it is written as scalars.render writes it
    path = tmp_path / "sin2theta.tm"
    path.write_text(SIN_2THETA_FILE)
    code, _, err = run_cli("compute", "--metric", str(path), "--tensors",
                           "ricci", capsys=capsys)
    text = err.strip().rsplit(": ", 1)[1]
    ctx = metricfile.parse_metric_file(SIN_2THETA_FILE).to_context()
    with pytest.raises(scalars.UnclassifiableError) as exc:
        ctx.vanishing("ricci")
    assert code == 2 and "**" not in text
    assert scalars.parse(text) == exc.value.expression


def test_compute_cannot_decide_whether_a_metric_is_symmetric(tmp_path,
                                                              capsys):
    # sin(2x) - 2 sin(x) cos(x) is 0; this was "metric must be symmetric"
    path = tmp_path / "murky.tm"
    path.write_text("[chart] coords = x, y\n"
                    "[metric] row = 1, sin(2*x)-2*sin(x)*cos(x)\n"
                    "[metric] row = 0, 1\n")
    code, out, err = run_cli("compute", "--metric", str(path), capsys=capsys)
    assert code == 2 and out == ""
    assert "cannot decide whether the metric is symmetric" in err


def test_compute_decides_a_component_holding_sign(tmp_path, capsys):
    # christoffel1[z,z,z] = sign(z)/2 exited 2 as undecided; only the first
    # two stages, as the later ones of this tree metric are slow
    path = tmp_path / "abs.tm"
    path.write_text("[chart] coords = x, y, z\n"
                    "[metric] row = 1+tan(x)^2, 0, 0\n"
                    "[metric] row = 0, sqrt(x^2+y^2), log(y)\n"
                    "[metric] row = 0, log(y), abs(z)+2\n")
    code, out, err = run_cli("compute", "--metric", str(path), "--tensors",
                             "christoffel1,christoffel2", capsys=capsys)
    assert code == 0, err
    assert "christoffel1[z,z,z] = sign(z)/2" in out
    assert "christoffel2[z,z,z] = " in out


@pytest.mark.parametrize("dim", ["-2", "0"])
def test_indicial_refuses_a_dimension_that_is_not_positive(dim, capsys):
    # --dim -2 printed "result = -2" with exit 0
    code, out, err = run_cli("indicial", "--dim", dim, "--op", "contract",
                             "--expr", "g([a,-a],[])", capsys=capsys)
    assert code == 1 and out == "" and "positive integer" in err


#: mpmath forms of the functions a printed component holds.
_MP = {sp.Rational: lambda q: mpmath.mpf(q.p) / q.q, scalars.PI: mpmath.pi,
       sp.Pow: lambda base, ex: base ** ex, sp.sin: mpmath.sin,
       sp.cos: mpmath.cos, sp.sinh: mpmath.sinh, sp.cosh: mpmath.cosh}

#: Metric factors; the last is 1 written through sin(2x), sin(x), cos(x).
_FACTORS = ("x", "y", "x^2 + 1", "sin(x)", "cos(x)", "sin(2*x)", "cos(2*x)",
            "sin(x + y)", "cosh(y)", "sinh(2*y)", "sin(2*x)/(2*sin(x)*cos(x))")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=st.lists(st.lists(st.sampled_from(_FACTORS), min_size=1,
                                 max_size=2), min_size=2, max_size=2),
       point=st.tuples(st.fractions(1, 3, max_denominator=7),
                       st.fractions(1, 3, max_denominator=7)))
def test_every_component_printed_as_nonzero_is_nonzero(entries, point,
                                                       capsys):
    # a component compute prints is nonzero at a rational point at 50
    # digits, or certifies; one it cannot decide exits 2 and prints nothing
    metric = "[chart] coords = x, y\n" + "".join(
        f"[metric] row = {row}\n" for row in (
            f"{'*'.join(entries[0])}, 0", f"0, {'*'.join(entries[1])}"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metric.tm"
        path.write_text(metric)
        code, out, err = run_cli(
            "compute", "--metric", str(path), "--tensors",
            "christoffel2,riemann,ricci,scalar", "--format", "json",
            capsys=capsys)
    if code == 2:
        assert out == "" and "cannot decide whether" in err
        return
    assert code == 0, err
    values = {"x": mpmath.mpf(point[0].numerator) / point[0].denominator,
              "y": mpmath.mpf(point[1].numerator) / point[1].denominator}
    document = json.loads(out)
    scalar = document.pop("scalar")
    printed = [] if scalar["zero"] else [scalar["value"]]
    for tensor in document.values():
        printed += tensor["components"].values()
    for text in printed:
        e = scalars.parse(text)
        with mpmath.workdps(50):
            try:
                nonzero = abs(scalars._eval(e, values, _MP)) > 1e-30
            except ZeroDivisionError:
                nonzero = False
        assert nonzero or scalars.certify_nonzero(e), text


def test_trace_logging():
    # The child gets only TENSOR_TRACE, PATH and a PYTHONPATH naming this
    # checkout's src, so it runs this code whether or not tensoralg is
    # installed, and nothing else in the environment can turn tracing on.
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "tensoralg.cli", "compute", "--catalog",
         "polar", "--tensors", "scalar"],
        capture_output=True, text=True,
        env={"TENSOR_TRACE": "1", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert "tensoralg:" in result.stderr
