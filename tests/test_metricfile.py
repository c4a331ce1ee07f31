import pytest

from tensoralg import catalog, metricfile
from tensoralg.metricfile import (MetricFile, MetricFileError, from_entry,
                                  parse_metric_file)
from tensoralg.scalars import is_zero, sym

SCHWARZSCHILD = """\
# exterior Schwarzschild, r > 2m
[chart] coords = t, r, theta, phi
[constants] m
[metric] row = (2*m-r)/r, 0, 0, 0
[metric] row = 0, r/(r-2*m), 0, 0
[metric] row = 0, 0, r^2, 0
[metric] row = 0, 0, 0, r^2*sin(theta)^2
[frame] row = sqrt((r-2*m)/r), 0, 0, 0
[frame] row = 0, sqrt(r/(r-2*m)), 0, 0
[frame] row = 0, 0, r, 0
[frame] row = 0, 0, 0, r*sin(theta)
[frame] frame_metric = diag(-1,1,1,1)
"""


def test_parse_and_build_metric_context():
    mf = parse_metric_file(SCHWARZSCHILD)
    assert mf.coords == ["t", "r", "theta", "phi"]
    assert mf.constants == ["m"]
    ctx = mf.to_context()
    assert ctx.dim == 4 and not ctx.cframe_flag
    assert is_zero(ctx.lg[1][1] - sym("r") / (sym("r") - 2 * sym("m")))


def test_parse_and_build_frame_context():
    ctx = parse_metric_file(SCHWARZSCHILD).to_context(frame=True)
    assert ctx.cframe_flag
    assert ctx.lfg[0][0] == -1


def test_round_trip_through_render():
    mf = parse_metric_file(SCHWARZSCHILD)
    again = parse_metric_file(mf.render())
    assert again.coords == mf.coords
    assert again.metric_rows == mf.metric_rows
    assert again.frame_rows == mf.frame_rows
    assert again.frame_metric == mf.frame_metric


def test_catalog_show_round_trip_all_entries():
    for name in catalog.list_entries():
        mf = from_entry(catalog.entry(name))
        again = parse_metric_file(mf.render())
        assert again.metric_rows == mf.metric_rows, name
        assert again.frame_rows == mf.frame_rows, name


def test_torsion_and_nonmetricity_sections():
    text = """\
[chart] coords = x, y
[metric] row = 1, 0
[metric] row = 0, 1
[torsion] entry = 1, 2, 1, x
[nonmetricity] mu = x, y
"""
    ctx = parse_metric_file(text).to_context()
    assert ctx.torsion_values is not None
    assert is_zero(ctx.torsion_values[0][1][0] - sym("x"))
    assert is_zero(ctx.torsion_values[1][0][0] + sym("x"))
    assert ctx.nonmetricity_values is not None


TORSION_FILE = """\
[chart] coords = x, y
[metric] row = 1, 0
[metric] row = 0, 1
[torsion] entry = {}, x
"""


@pytest.mark.parametrize("indices", ["0, 1, 1", "1, 1, 0", "3, 1, 1",
                                     "1, 2, 3"])
def test_torsion_index_out_of_range_names_its_line(indices):
    # 0 would wrap to the last index and n + 1 would raise IndexError later
    with pytest.raises(MetricFileError, match="line 4: torsion indices"):
        parse_metric_file(TORSION_FILE.format(indices))


def test_torsion_index_in_range_is_read():
    ctx = parse_metric_file(TORSION_FILE.format("1, 2, 2")).to_context()
    assert ctx.torsion_values[0][1][1] == sym("x")
    assert ctx.torsion_values[1][0][1] == -sym("x")


def test_error_messages_carry_line_numbers():
    bad = "[chart] coords = x, y\n[metric] rho = 1, 0\n"
    with pytest.raises(MetricFileError) as err:
        parse_metric_file(bad)
    assert "line 2" in str(err.value)


def test_error_on_content_before_section():
    with pytest.raises(MetricFileError):
        parse_metric_file("coords = x, y\n")


def test_error_on_wrong_row_count():
    text = "[chart] coords = x, y\n[metric] row = 1, 0\n"
    with pytest.raises(MetricFileError):
        parse_metric_file(text).to_context()


def test_bad_expression_rejected_at_parse():
    text = "[chart] coords = x, y\n[metric] row = 1, frob(x)\n" \
           "[metric] row = frob(x), 1\n"
    with pytest.raises(Exception):
        parse_metric_file(text)


@pytest.mark.parametrize("entry", ["x^^2", "frob(x)"])
def test_expression_error_carries_its_line(entry):
    text = ("[chart] coords = x, y\n[metric] row = 1, 0\n"
            f"[metric] row = 0, {entry}\n")
    with pytest.raises(MetricFileError, match="line 3: "):
        parse_metric_file(text)


NULL_FRAME = """\
[chart] coords = x, y
[constants] a
[frame] row = 1, 0
[frame] row = 0, x
[frame] metric_row = 0, 1
[frame] metric_row = 1, 0
[torsion] entry = 1, 2, 1, a*x
[nonmetricity] mu = x, y
"""


def test_round_trip_keeps_torsion_nonmetricity_and_frame_metric_rows():
    # a frame metric that is not diagonal is written as metric_row lines;
    # torsion entries and the nonmetricity vector are written as read
    mf = parse_metric_file(NULL_FRAME)
    assert mf.frame_metric == [["0", "1"], ["1", "0"]]
    assert mf.torsion_entries == [(1, 2, 1, "a*x")]
    assert mf.nonmetricity == ["x", "y"]
    assert mf.render() == NULL_FRAME
    again = parse_metric_file(mf.render())
    assert again == mf
    first, second = mf.to_context(), again.to_context()
    x, y, a = sym("x"), sym("y"), sym("a")
    assert first.cframe_flag and first.lg == [[0, x], [x, 0]]
    assert first.torsion_values[0][1][0] == a * x
    assert first.nonmetricity_values == [x, y]
    for stage in ("christoffel1", "contortion", "nonmetricity_coeffs",
                  "connection2", "riemann", "ricci", "rotation_coeffs",
                  "frame_bracket"):
        assert getattr(first, stage) == getattr(second, stage), stage
