import io
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from glauert_bem import (
    DomainError,
    NoPositiveLiftError,
    PolarFormatError,
    PolarTable,
    ValidationError,
    best_glide_angle,
    load_polar,
    synthetic_polar,
)
from glauert_bem.polar import dump_polar
from scipy.interpolate import PchipInterpolator, PPoly

from conftest import rng

BASIC_CSV = """# demo polar
alpha_rad,cl,cd
-0.1,-0.6,0.01
0,0,0.008
0.1,0.6,0.01
0.2,1.1,0.02
"""


def test_load_sets_stall_to_cl_argmax():
    table = load_polar(io.StringIO(BASIC_CSV))
    assert table.alpha_s == 0.2
    assert table.beta == 0.2  # defaults to alpha_s
    assert [s.alpha for s in table.samples] == [-0.1, 0.0, 0.1, 0.2]


def test_load_empty_stream_is_a_parse_error():
    with pytest.raises(PolarFormatError):
        load_polar(io.StringIO(""))


def test_load_rejects_negative_drag():
    bad = BASIC_CSV.replace("0.1,0.6,0.01", "0.1,0.6,-0.001")
    with pytest.raises(ValidationError):
        load_polar(io.StringIO(bad))


def test_load_rejects_duplicate_alpha():
    bad = BASIC_CSV + "0.2,1.0,0.03\n"
    # one owner of the rule: the table names the repeated angle
    with pytest.raises(ValidationError, match=r"^duplicate alpha abscissa 0\.2 in polar table$"):
        load_polar(io.StringIO(bad))


def test_load_reports_line_number_for_malformed_rows():
    bad = BASIC_CSV + "0.3,oops,0.03\n"
    with pytest.raises(PolarFormatError, match="line 7"):
        load_polar(io.StringIO(bad))


def test_load_needs_four_rows():
    with pytest.raises(PolarFormatError):
        load_polar(io.StringIO("0,0.1,0.01\n0.1,0.2,0.01\n0.2,0.3,0.01\n"))


def test_csv_round_trip():
    table = load_polar(io.StringIO(BASIC_CSV))
    buf = io.StringIO()
    dump_polar(table, buf)
    again = load_polar(io.StringIO(buf.getvalue()))
    assert [s.alpha for s in again.samples] == [s.alpha for s in table.samples]
    assert [s.cl for s in again.samples] == [s.cl for s in table.samples]


def test_load_accepts_byte_streams():
    table = load_polar(io.BytesIO(BASIC_CSV.encode()))
    assert table.alpha_s == 0.2


# ---------------------------------------------------------------------------
# the CSV reader: comments, blank lines, line ends, padded cells, row order

MESSY_CSV = (" # demo polar, rows out of order\r\n"
             "\r\n"
             "alpha_rad , cl , cd   # header\r\n"
             "\t0.1,\t0.6 ,0.01\r\n"
             "# a full-line comment\r\n"
             "  -0.1 , -0.6,\t0.01 # trailing comment\r\n"
             "0.2,1.1,0.02#\r\n"
             "   \r\n"
             "0,0,0.008\r\n")


def _table_bits(table):
    """The samples, stall angle, window and every coefficient of a table, as bits."""
    return ([(s.alpha.hex(), s.cl.hex(), s.cd.hex()) for s in table.samples],
            table.alpha_s.hex(), table.beta.hex(),
            {name: [c.tobytes() for c in cols] for name, cols in table._cols.items()})


def test_load_reads_comments_blank_lines_crlf_and_padded_cells_in_any_order(tmp_path):
    clean = _table_bits(load_polar(io.StringIO(BASIC_CSV)))
    path = tmp_path / "messy.csv"
    path.write_bytes(MESSY_CSV.encode())
    for source in (io.StringIO(MESSY_CSV), io.BytesIO(MESSY_CSV.encode()), path):
        assert _table_bits(load_polar(source)) == clean
    assert load_polar(path).label == "messy"


@pytest.mark.parametrize("text, message", [
    ("", "need at least 4 data rows, got 0"),
    ("# only comments\n\n  \t\n#\n", "need at least 4 data rows, got 0"),
    (BASIC_CSV.replace("0.2,1.1,0.02\n", ""), "need at least 4 data rows, got 3"),
    ("alpha,cl,cd\nname,x,y\n", "line 2: cannot parse row 'name,x,y'"),
    ("0,0,0.008\nalpha_rad,cl,cd\n", "line 2: cannot parse row 'alpha_rad,cl,cd'"),
    (MESSY_CSV + "\t0.3 , oops ,0.03 # bad\r\n", "line 10: cannot parse row '0.3 , oops ,0.03'"),
    ("\r\n# c\r\nalpha_rad,cl,cd\r\n 0.1 ,0.6\r\n", "line 4: expected 3 columns, got 2"),
    ("0,0,0.008\n0.1, 0.6 ,0.01,\t0.5  # four\n", "line 2: expected 3 columns, got 4"),
    ("0,0,0.008\n0.1,0.6,0.01,\n", "line 2: cannot parse row '0.1,0.6,0.01,'"),
    ("0,0,0.008\n\n0.1,,0.01\n", "line 3: cannot parse row '0.1,,0.01'"),
    ("0,0,0.008\n0.1;0.6;0.01\n", "line 2: cannot parse row '0.1;0.6;0.01'"),
    # a lone \r ends a line; a form feed, U+0085 and U+2028 do not, else line 3 would be 0,0
    pytest.param("# lone CR\r# \x0c 0,0 \x85 0,0 \u2028 0,0\r0,0,0.008\r0.1\n",
                 "line 4: expected 3 columns, got 1", id="a-lone-CR-ends-a-line-FF-NEL-LS-do-not"),
])
def test_load_error_texts_name_the_line(text, message):
    for source in (io.StringIO(text), io.BytesIO(text.encode())):
        with pytest.raises(PolarFormatError) as info:
            load_polar(source)
        assert str(info.value) == message


def test_load_rejects_text_that_is_not_utf8(tmp_path):
    data = BASIC_CSV.encode().replace(b"# demo", b"# d\xe9mo")
    path = tmp_path / "latin.csv"
    path.write_bytes(data)
    for source in (io.BytesIO(data), path):
        with pytest.raises(PolarFormatError) as info:
            load_polar(source)
        assert str(info.value) == ("polar is not UTF-8 text: 'utf-8' codec can't decode "
                                   "byte 0xe9 in position 3: invalid continuation byte")


_PAD = st.text(alphabet=" \t", max_size=3)
_COMMENT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                   max_size=8).map(lambda text: "#" + text)
_EXTRA_LINE = st.tuples(_PAD, st.sampled_from(["", "#"]) | _COMMENT).map("".join)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_dump_then_load_of_a_padded_commented_shuffled_text_is_bit_identical(data):
    # angles at least 0.006 apart, each with all the digits a float can have
    nodes = sorted(data.draw(st.lists(st.integers(-100, 140), min_size=4, max_size=30,
                                      unique=True)))
    assume(nodes[-1] > 0)
    alpha = [k / 100 + data.draw(st.floats(0.0, 0.004)) for k in nodes]
    n = len(alpha)
    cl = data.draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
    cl[-1] = 3.0  # the stall estimate, the alpha of the largest cl, lies in (0, 1.41)
    cd = data.draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    table = PolarTable(alpha, cl, cd)
    buf = io.StringIO()
    dump_polar(table, buf)
    header, *rows = buf.getvalue().splitlines()

    lines = []
    for line in [header] + data.draw(st.permutations(rows)):
        lines += data.draw(st.lists(_EXTRA_LINE, max_size=2))
        cells = [data.draw(_PAD) + cell + data.draw(_PAD) for cell in line.split(",")]
        lines.append(",".join(cells) + data.draw(st.just("") | _PAD | _COMMENT))
    text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    source = io.BytesIO(text.encode()) if data.draw(st.booleans()) else io.StringIO(text)
    assert _table_bits(load_polar(source)) == _table_bits(table)


def _outcome(source):
    """The loaded table's bits, or the error's type and text."""
    try:
        return _table_bits(load_polar(source))
    except (PolarFormatError, ValidationError) as exc:
        return type(exc), str(exc)


# str.splitlines() ends a line at each of these; the polar reader does not
_NOT_LINE_ENDS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ODD_COMMENT = st.text(st.sampled_from(_NOT_LINE_ENDS + "0.,x "), max_size=8).map("#".__add__)
_BAD_LINE = st.sampled_from(["0.3,oops,0.03", "0.3,0.9", "0.1;0.6;0.01", "alpha_rad,cl,cd",
                             "0.2,1.0,0.03", "0.1,-0.5,0.01"])


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_text_reads_the_same_from_a_path_a_stream_and_bytes_whatever_its_line_ends(
        tmp_path, data):
    header, *rows = BASIC_CSV.splitlines()[1:]
    content = [header] + data.draw(st.permutations(rows))
    bad = data.draw(st.none() | _BAD_LINE)  # a row that fails, or a second header
    if bad is not None:
        content.insert(data.draw(st.integers(0, len(content))), bad)
    lines = []
    for line in content:
        lines += data.draw(st.lists(_EXTRA_LINE | _ODD_COMMENT, max_size=2))
        lines.append(line + data.draw(st.just("") | _PAD | _COMMENT | _ODD_COMMENT))
    expected = _outcome(io.StringIO("\n".join(lines) + "\n"))
    if bad is None:
        assert expected == _outcome(io.StringIO(BASIC_CSV))
    path = tmp_path / "polar.csv"
    for end in ("\n", "\r\n", "\r"):
        text = end.join(lines) + end
        path.write_bytes(text.encode())
        for source in (path, io.StringIO(text), io.BytesIO(text.encode())):
            assert _outcome(source) == expected, (end, source)


def test_interpolant_exact_at_nodes():
    table = load_polar(io.StringIO(BASIC_CSV))
    for s in table.samples:
        assert abs(table.cl(s.alpha) - s.cl) < 1e-12
        assert abs(table.cd(s.alpha) - s.cd) < 1e-12


def test_symmetric_profile_has_zero_lift_at_zero():
    table = load_polar(io.StringIO(BASIC_CSV))
    assert table.cl(0.0) == 0.0


def test_linear_midpoint_with_three_points():
    # fewer than 4 samples falls back to linear interpolation
    table = PolarTable([0.0, 0.1, 0.2], [0.0, 0.6, 1.1], [0.008, 0.01, 0.02])
    assert abs(table.cl(0.15) - 0.85) < 1e-15


def test_cd_clamps_beyond_sampled_range():
    table = load_polar(io.StringIO(BASIC_CSV))
    assert table.cd(5.0) == table.cd(0.2) == 0.02
    assert table.cd(-5.0) == table.cd(-0.1) == 0.01
    assert table.cd_prime(5.0) == 0.0


def test_cl_domain_error_and_clamp_option():
    table = load_polar(io.StringIO(BASIC_CSV))
    with pytest.raises(DomainError):
        table.cl(0.5)
    clamped = load_polar(io.StringIO(BASIC_CSV), clamp_cl=True)
    assert clamped.cl(0.5) == clamped.cl(0.2)


def test_constant_polar_is_constant():
    table = synthetic_polar("constant", level=1.0, cd0=0.01)
    for a in np.linspace(-1.0, 1.0, 7):
        assert table.cl(a) == 1.0
        assert table.cd(a) == 0.01


def test_cd_nonnegative_at_random_angles(stall_polar):
    gen = rng(1)
    for a in gen.uniform(-2.0, 2.0, size=1000):
        assert stall_polar.cd(a) >= 0.0


def test_interpolant_continuity_at_panel_boundaries(stall_polar):
    for s in stall_polar.samples[1:-1]:
        for h in (1e-3, 1e-6):
            jump = abs(stall_polar.cl(s.alpha + h) - stall_polar.cl(s.alpha))
            assert jump < 10.0 * h * 20.0  # bounded by a crude Lipschitz constant


def test_synthetic_linear_lift_values():
    table = synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=0.01, beta=0.4)
    assert abs(table.cl(0.1) - 0.2 * math.pi) < 1e-13
    assert table.cd(0.3) == 0.01


def test_synthetic_stall_drop_values():
    table = synthetic_polar("linear_lift_with_stall", slope=6.0, alpha_s=0.3,
                            drop=0.5, transition=0.05)
    assert abs(table.cl(0.35) - 0.5 * table.cl(0.3)) < 1e-12
    assert abs(table.cl(0.3) - 6.0 * 0.3) < 1e-12


def _stall_lift(a, slope, alpha_s, drop, transition):
    """The stall polar's lift at one angle, written out per angle: the reference."""
    mag, sign = abs(a), math.copysign(1.0, a)
    if mag <= alpha_s:
        return slope * a
    frac = min(1.0, (mag - alpha_s) / transition)
    return sign * (slope * alpha_s) * (1.0 - drop * frac)


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(4, 300), slope=st.floats(0.5, 8.0), alpha_s=st.floats(0.01, 1.19),
       drop=st.floats(0.0, 0.999), transition=st.floats(1e-4, 1.0))
def test_synthetic_stall_lift_equals_the_per_angle_formula_bit_for_bit(n, slope, alpha_s, drop,
                                                                       transition):
    table = synthetic_polar("linear_lift_with_stall", n=n, slope=slope, alpha_s=alpha_s,
                            drop=drop, transition=transition)
    want = [_stall_lift(a, slope, alpha_s, drop, transition) for a in table._alpha.tolist()]
    assert [c.hex() for c in table._cl.tolist()] == [c.hex() for c in want]


def test_synthetic_rejects_bad_params():
    with pytest.raises(ValidationError):
        synthetic_polar("linear_lift", slope=-1.0)
    with pytest.raises(ValidationError):
        synthetic_polar("constant", level=0.0)
    with pytest.raises(ValidationError):
        synthetic_polar("nonsense")
    with pytest.raises(ValidationError):
        synthetic_polar("linear_lift", slope=1.0, bogus=3)


@pytest.mark.parametrize("kind, params, message", [
    ("linear_lift", dict(span=0.0), "span must be positive"),
    ("constant", dict(n=3), "n must be an integer >= 4"),
    ("linear_lift", dict(span=math.pi / 2.0), "span must stay below pi/2 for linear_lift"),
    ("linear_lift_with_stall", dict(alpha_s=1.2), "inconsistent stall parameters"),
    ("linear_lift_with_stall", dict(alpha_s=0.0), "inconsistent stall parameters"),
    ("linear_lift_with_stall", dict(drop=1.0), "inconsistent stall parameters"),
    ("linear_lift_with_stall", dict(transition=0.0), "inconsistent stall parameters"),
    ("constant", dict(cd0=0.01, cd2=-0.1), "drag law goes negative; adjust cd0/cd2"),
    ("linear_lift", dict(n=4.5), "n must be an integer >= 4"),
    ("linear_lift", dict(n=math.nan), "n must be an integer >= 4"),
    ("linear_lift", dict(n=math.inf), "n must be an integer >= 4"),
])
def test_synthetic_polar_names_each_inconsistent_setting(kind, params, message):
    # the default span is 1.2, so alpha_s = 1.2 leaves no room for the stall; n is
    # a count (4.5 once built 4 samples, and NaN and inf raised bare errors)
    with pytest.raises(ValidationError) as info:
        synthetic_polar(kind, **params)
    assert type(info.value) is ValidationError and str(info.value) == message


@pytest.mark.parametrize("n", [5, 5.0, np.int64(5)])
def test_synthetic_polar_takes_whole_sample_counts(n):
    assert len(synthetic_polar("linear_lift", n=n).samples) == 5


def test_best_glide_matches_brute_force_oracle():
    # cl = 2 pi a, cd = 0.01 + 0.1 a^2 has its ratio minimum at sqrt(0.1)
    table = synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=0.01,
                            cd2=0.1, beta=0.5)
    grid = np.arange(1e-6, 0.5 + 1e-6, 1e-6)
    ratios = table.cd(grid) / table.cl(grid)
    oracle = grid[int(np.argmin(ratios))]
    found = best_glide_angle(table)
    assert abs(found - oracle) < 2e-6
    assert abs(found - math.sqrt(0.01 / 0.1)) < 5e-4  # analytic location


def test_best_glide_monotone_ratio_hits_the_window_edge():
    table = synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=0.02, beta=0.4)
    assert abs(best_glide_angle(table) - 0.4) < 1e-6


def test_best_glide_optimality_property(stall_polar):
    found = best_glide_angle(stall_polar)
    best_ratio = stall_polar.cd(found) / stall_polar.cl(found)
    gen = rng(2)
    for a in gen.uniform(1e-6, stall_polar.beta, size=1000):
        lift = stall_polar.cl(a)
        if lift <= 0.0:
            continue
        assert best_ratio <= stall_polar.cd(a) / lift + 1e-9


@settings(max_examples=60, deadline=None, database=None)
@given(below=st.lists(st.floats(-2.0, 0.5), min_size=2, max_size=2),
       inside=st.floats(0.01, 0.29), lift=st.floats(1e-3, 1.0),
       cd=st.lists(st.floats(0.0, 0.2), min_size=5, max_size=5))
def test_best_glide_angle_has_positive_lift(below, inside, lift, cd):
    # simplified_optimum divides by cl at this angle; the interpolant may be <= 0
    # on part of the window, between the samples below 0 and the one inside it
    table = PolarTable([-0.4, -0.2, inside, 0.35, 0.5], below + [lift, 1.0, 1.2], cd,
                       beta=0.3, alpha_s=0.5)
    found = best_glide_angle(table)
    assert 0.0 < found <= 0.3 and table.cl(found) > 0.0


def test_best_glide_requires_positive_lift():
    # no samples inside (0, beta], surrounding lift negative: the whole
    # glide window interpolates below zero
    table = PolarTable([-0.5, -0.2, 0.4, 0.5], [-1.0, -1.0, -0.1, -0.05],
                       [0.01] * 4, beta=0.3, alpha_s=0.5)
    with pytest.raises(NoPositiveLiftError):
        best_glide_angle(table)


def test_polar_invariants_rejected_at_construction():
    with pytest.raises(ValidationError):
        PolarTable([0.0, 0.1], [0.1, 0.2], [0.01, -0.01])
    with pytest.raises(ValidationError):
        PolarTable([0.0, 0.1, 0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [0.01] * 4)
    with pytest.raises(ValidationError):  # cl <= 0 inside (0, beta]
        PolarTable([-0.2, 0.1, 0.2, 0.3], [0.5, -0.5, 0.5, 0.6], [0.01] * 4,
                   beta=0.25, alpha_s=0.3)


@pytest.mark.parametrize("alpha, cl, kw, message", [
    ([0.1], [0.5], {}, "polar needs at least two samples"),
    ([0.0, 0.1, 0.2], [0.1, 0.2], {}, "alpha, cl, cd must have matching lengths"),
    ([0.0, 0.2, 0.1], [0.1, 0.3, 0.2], {}, "polar samples must be sorted by alpha"),
    ([0.0, 0.1, 0.2], [0.1, 0.2, 0.3], {"alpha_s": 0.0},
     "stall angle estimate 0 outside (0, pi/2); pass alpha_s explicitly"),
    ([0.0, 0.1, 0.2], [0.1, 0.2, 0.3], {"alpha_s": 2.0},
     "stall angle estimate 2 outside (0, pi/2); pass alpha_s explicitly"),
    ([-0.1, 0.0, 0.1], [0.5, 0.2, 0.1], {},  # the default: the argmax of cl
     "stall angle estimate -0.1 outside (0, pi/2); pass alpha_s explicitly"),
    ([0.0, 0.1, 0.2], [0.1, 0.2, 0.3], {"beta": 0.3, "alpha_s": 0.2},
     "beta=0.3 must satisfy 0 < beta <= alpha_s=0.2"),
])
def test_polar_table_input_errors(alpha, cl, kw, message):
    with pytest.raises(ValidationError) as info:
        PolarTable(alpha, cl, [0.01] * len(alpha), **kw)
    assert type(info.value) is ValidationError and str(info.value) == message


# ---------------------------------------------------------------------------
# scalar fast path: bit-identical to the array path

SCALAR_FNS = ("cl", "cd", "cl_prime", "cd_prime")


def _smooth_table(clamp_cl=False):
    """PCHIP table of curved, irregularly spaced samples (all cubic terms live)."""
    alpha = np.sort(rng(5).uniform(-0.4, 0.6, 40))
    return PolarTable(alpha, 1.1 * np.sin(5.0 * alpha) + 0.3 * alpha ** 2,
                      0.008 + 0.4 * alpha ** 2 + 0.05 * alpha ** 3,
                      alpha_s=0.3, clamp_cl=clamp_cl)


def _linear_table(clamp_cl=False):
    return PolarTable([0.0, 0.1, 0.2], [0.0, 0.6, 1.1], [0.008, 0.01, 0.02],
                      clamp_cl=clamp_cl)


TABLES = {"pchip": _smooth_table, "linear": _linear_table}


def _assert_scalar_matches_array(table, a):
    for name in SCALAR_FNS:
        fn = getattr(table, name)
        try:
            ref = float(fn(np.array([a]))[0])
        except DomainError:
            with pytest.raises(DomainError):
                fn(a)
            continue
        got = fn(a)
        assert type(got) is float
        assert got.hex() == ref.hex(), (name, a, got, ref)


@pytest.mark.parametrize("kind", sorted(TABLES))
@pytest.mark.parametrize("clamp_cl", [False, True])
def test_scalar_path_matches_array_path_at_nodes_and_dense_points(kind, clamp_cl):
    table = TABLES[kind](clamp_cl)
    nodes = [s.alpha for s in table.samples]
    dense = rng(6).uniform(nodes[0], nodes[-1], 2000).tolist()
    outside = [nodes[0] - 0.5, nodes[-1] + 0.5, -math.inf, math.inf, math.nan]
    for a in nodes + dense + outside:
        _assert_scalar_matches_array(table, a)


@pytest.mark.parametrize("kind", sorted(TABLES))
@settings(max_examples=300, deadline=None, database=None)
@given(a=st.floats(min_value=-1.0, max_value=1.0), clamp_cl=st.booleans())
def test_scalar_path_matches_array_path_property(kind, a, clamp_cl):
    _assert_scalar_matches_array(TABLES[kind](clamp_cl), a)


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


@pytest.mark.parametrize("kind", sorted(TABLES))
@pytest.mark.parametrize("clamp_cl", [False, True])
@pytest.mark.parametrize("names", [("cl", "cd"), ("cl", "cl_prime"), ("cd", "cd_prime")])
def test_one_interval_search_gives_each_coefficient_its_own_bits(kind, clamp_cl, names):
    """The grid kernels' shared search returns, for each coefficient, the
    bits of its own array call and of the scalar path, and raises as cl."""
    table = TABLES[kind](clamp_cl)
    nodes = [s.alpha for s in table.samples]
    inside = np.concatenate([nodes, rng(8).uniform(nodes[0], nodes[-1], 500), [math.nan]])
    outside = np.array([nodes[0] - 0.5, nodes[-1] + 0.5, -math.inf, math.inf])
    lift = names[0] == "cl"
    alphas = inside if lift and not clamp_cl else np.concatenate([inside, outside])
    for alpha in (alphas, alphas[3]):  # an array and a 0-d value
        got = table._on_array(alpha, *names)
        for name, values in zip(names, got):
            method = getattr(table, name)
            assert _hex(values) == _hex(method(alpha)), name
            assert _hex(values) == [method(float(a)).hex() for a in np.atleast_1d(alpha)], name
    if lift and not clamp_cl:
        with pytest.raises(DomainError, match="outside sampled range"):
            table._on_array(np.concatenate([inside, outside[:1]]), *names)


def _hex_or_error(values):
    """The bits of each value ``values()`` returns, or the type and text of its error."""
    try:
        return [float(v).hex() for v in values()]
    except DomainError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("clamp_cl", [False, True])
@settings(max_examples=150, deadline=None, database=None)
@given(n=st.integers(min_value=2, max_value=30), seed=st.integers(0, 2 ** 32 - 1),
       names=st.lists(st.sampled_from(SCALAR_FNS), min_size=1, max_size=4))
def test_one_search_scalar_lookup_gives_each_public_method_its_bits(clamp_cl, n, seed, names):
    """The lookup behind every public method: for each name, repeated or not,
    the public method's value, bit for bit, or its error, on PCHIP and linear
    tables alike, from the scalar and the array path."""
    gen = rng(seed)
    alpha = np.unique(np.round(gen.uniform(-0.5, 0.8, n), 6))
    if alpha.size < 2:
        return
    lift = gen.normal(size=alpha.size)
    lift[(alpha > 0.0) & (alpha <= 0.2)] = np.abs(lift[(alpha > 0.0) & (alpha <= 0.2)]) + 0.1
    table = PolarTable(alpha, lift, np.abs(gen.normal(0.02, 0.01, alpha.size)), alpha_s=0.2,
                       clamp_cl=clamp_cl)
    lo, hi = table.alpha_min, table.alpha_max
    angles = (alpha.tolist() + gen.uniform(lo, hi, 50).tolist()
              + [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), lo - 0.5,
                 hi + 0.5, -math.inf, math.inf, math.nan])
    for a in angles:
        got = _hex_or_error(lambda: table._on_scalar(a, *names))
        # the public methods, and the array path, which has its own code
        assert got == _hex_or_error(lambda: [getattr(table, name)(a) for name in names])
        assert got == _hex_or_error(lambda: table._on_array(np.array(a), *names)), (names, a)
        if isinstance(got, list):
            assert all(type(v) is float for v in table._on_scalar(a, *names))


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_scalar_edge_behaviour(kind):
    table, clamped = TABLES[kind](), TABLES[kind](clamp_cl=True)
    lo, hi = table.alpha_min, table.alpha_max
    for a in (lo - 1e-9, hi + 1e-9, hi + 1.0):
        with pytest.raises(DomainError):
            table.cl(a)
        with pytest.raises(DomainError):
            table.cl_prime(a)
    assert clamped.cl(hi + 1.0) == clamped.cl(hi) and clamped.cl(lo - 1.0) == clamped.cl(lo)
    assert clamped.cl_prime(hi + 1.0) == clamped.cl_prime(hi)
    assert table.cd(hi + 1.0) == table.cd(hi) and table.cd(lo - 1.0) == table.cd(lo)
    assert table.cd_prime(hi + 1.0) == 0.0 and table.cd_prime(lo - 1.0) == 0.0
    for t in (table, clamped):
        assert math.isnan(t.cl(math.nan)) and math.isnan(t.cl_prime(math.nan))
        assert math.isnan(t.cd(math.nan)) and t.cd_prime(math.nan) == 0.0
    mid = 0.5 * (lo + hi)
    for name in SCALAR_FNS:
        fn = getattr(table, name)
        assert type(fn(np.float64(mid))) is float and fn(np.float64(mid)) == fn(mid)
        assert type(fn(0)) is float and fn(0) == fn(0.0)


def _scipy_interpolants(alpha, cl, cd):
    """scipy's interpolants of a table, as the package built them before it
    computed the coefficients itself: the reference."""
    if alpha.size >= 4:
        return PchipInterpolator(alpha, cl, extrapolate=False), \
            PchipInterpolator(alpha, cd, extrapolate=False)
    dal = np.diff(alpha)
    return (PPoly(np.array([np.diff(cl) / dal, cl[:-1]]), alpha, extrapolate=False),
            PPoly(np.array([np.diff(cd) / dal, cd[:-1]]), alpha, extrapolate=False))


@settings(max_examples=150, deadline=None, database=None)
@given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["random", "monotone", "plateaus"]))
@example(n=2, seed=0, shape="random")  # linear pieces, stored as zero-tailed cubics
def test_interpolants_match_scipy_bit_for_bit(n, seed, shape):
    gen = rng(seed)
    alpha = np.unique(np.round(gen.uniform(-0.5, 0.8, n), 6))
    if alpha.size < 2:
        return
    lift = {"random": gen.normal(size=alpha.size),
            "monotone": np.cumsum(gen.uniform(0.0, 0.3, alpha.size)) - 0.5,
            "plateaus": np.round(gen.normal(size=alpha.size), 0)}[shape]
    lift[(alpha > 0.0) & (alpha <= 0.2)] = np.abs(lift[(alpha > 0.0) & (alpha <= 0.2)]) + 0.1
    drag = np.abs(gen.normal(0.02, 0.01, alpha.size))
    table = PolarTable(alpha, lift, drag, alpha_s=0.2)
    ref_cl, ref_cd = _scipy_interpolants(alpha, lift, drag)
    inside = np.concatenate([alpha, gen.uniform(alpha[0], alpha[-1], 200)])
    pairs = [(table.cl, ref_cl), (table.cl_prime, ref_cl.derivative()),
             (table.cd, ref_cd), (table.cd_prime, ref_cd.derivative())]
    for got, ref in pairs:
        assert np.array_equal(got(inside), ref(inside))
        assert all(got(float(a)).hex() == float(ref(a)).hex() for a in inside)


def test_polar_samples_must_be_finite():
    for bad in ("alpha", "cl", "cd"):
        cols = {"alpha": [-0.1, 0.0, 0.1, 0.2], "cl": [-0.6, 0.0, 0.6, 1.1],
                "cd": [0.01, 0.008, 0.01, 0.02]}
        cols[bad][2] = math.nan
        with pytest.raises(ValidationError, match="finite"):
            PolarTable(cols["alpha"], cols["cl"], cols["cd"])


def test_package_import_does_not_load_scipy():
    code = "import sys, glauert_bem.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# best-glide cache


def _glide_csv():
    buf = io.StringIO()
    dump_polar(synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=0.01, cd2=0.1), buf)
    return buf.getvalue()


def test_best_glide_is_cached_per_table(monkeypatch):
    table = load_polar(io.StringIO(_glide_csv()), beta=0.5)
    first = best_glide_angle(table)
    calls = []
    cl = table.cl
    monkeypatch.setattr(table, "cl", lambda a: calls.append(a) or cl(a))
    assert best_glide_angle(table).hex() == first.hex()
    assert calls == []  # served from the cache
    fresh = load_polar(io.StringIO(_glide_csv()), beta=0.5)
    assert best_glide_angle(fresh).hex() == first.hex()


def test_best_glide_failure_is_raised_on_every_call():
    table = PolarTable([-0.5, -0.2, 0.4, 0.5], [-1.0, -1.0, -0.1, -0.05],
                       [0.01] * 4, beta=0.3, alpha_s=0.5)
    for _ in range(2):
        with pytest.raises(NoPositiveLiftError):
            best_glide_angle(table)
