"""Default floorplan contents and the configuration file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import designs
from srampuf.floorplan import (
    DEFAULT_DESIGNS,
    ConfigError,
    format_config,
    load_config,
    parse_config,
)
from srampuf.layout import Orientation
from srampuf.simchip import ProcessParams


def test_default_floorplan_inventory():
    names = [d.name for d in DEFAULT_DESIGNS]
    assert names == [
        "P1_a", "P1_b", "P2_a", "P2_b", "P3",
        "P4_a", "P4_b", "P4_c", "P5_a", "P5_b", "P6",
    ]
    assert sum(d.geometry.cells for d in DEFAULT_DESIGNS) == 262_144


def test_default_floorplan_orientations_and_patterns():
    by_name = {d.name: d for d in DEFAULT_DESIGNS}
    assert by_name["P1_a"].orientation is Orientation.R0
    assert by_name["P2_a"].orientation is Orientation.R90
    assert by_name["P2_b"].orientation is Orientation.R270
    assert by_name["P3"].orientation is Orientation.R270
    assert all(by_name[n].orientation is Orientation.MX for n in ("P4_a", "P4_b", "P4_c"))
    assert by_name["P5_a"].orientation is Orientation.R270
    assert by_name["P5_b"].orientation is Orientation.MY90
    assert by_name["P6"].orientation is Orientation.R0

    assert by_name["P1_a"].pattern == "0(32)1(64)0(64)"
    assert by_name["P2_b"].pattern == "0(32)1(64)0(64)"
    assert by_name["P3"].pattern == "0(29)1(29)"
    assert by_name["P4_a"].pattern == "0(16)1(16)"
    assert by_name["P6"].pattern == "0(16)1(32)0(32)"

    assert by_name["P1_a"].geometry.speed_class == "fast"
    assert by_name["P1_a"].geometry.depth == 128
    assert by_name["P1_a"].geometry.width == 64
    assert by_name["P3"].geometry.mux == 16
    assert by_name["P6"].geometry.mux == 8


def test_format_parse_round_trip():
    params = ProcessParams()
    text = format_config(params, DEFAULT_DESIGNS)
    got_params, got_designs = parse_config(text)
    assert got_params == params
    assert got_designs == DEFAULT_DESIGNS


def test_empty_config_falls_back_to_defaults():
    params, designs = parse_config("")
    assert params == ProcessParams()
    assert designs == DEFAULT_DESIGNS


def test_params_only_config_keeps_default_designs():
    params, designs = parse_config("params\n  beta 0.1\n")
    assert params.beta == 0.1
    assert params.sigma_mismatch == ProcessParams().sigma_mismatch
    assert designs == DEFAULT_DESIGNS


def test_comments_blanks_and_indentation_are_free_form():
    text = (
        "# heading\n"
        "\n"
        "params\n"
        "\tbeta 0.25\n"
        "   # inline comment line\n"
        "design D\n"
        " depth 64\n"
        "  width 8\n"
        "   mux 4\n"
        "    orient MX\n"
        "     pattern 0(2)1(2)\n"
    )
    params, designs = parse_config(text)
    assert params.beta == 0.25
    assert len(designs) == 1
    assert designs[0].name == "D"
    assert designs[0].orientation is Orientation.MX


MINIMAL = "design D\n depth 64\n width 8\n mux 4\n orient R0\n pattern 0(2)1(2)\n"
TWELVE = "".join(MINIMAL.replace("design D", f"design D{i}") for i in range(12))


@pytest.mark.parametrize(
    "text,line",
    [
        ("depth 64\n", 1),  # key outside any stanza
        ("params extra\n", 1),
        ("params\n beta 0.1\nparams\n beta 0.2\n", 3),
        ("params\n bogus 1\n", 2),
        ("params\n beta 0.1\n beta 0.2\n", 3),
        ("params\n beta\n", 2),
        ("params\n beta x\n", 2),
        ("params\n gradient 1\n", 2),
        ("design\n", 1),
        ("design A B\n", 1),
        (MINIMAL + MINIMAL, 7),  # duplicate design name
        ("design D\n depth 64\n width 8\n mux 4\n orient R0\n", 1),  # missing pattern
        ("design D\n depth 64\n width 8\n mux 4\n orient R45\n pattern 0(2)1(2)\n", 5),
        ("design D\n depth 64\n width 8\n mux 4\n orient R0\n pattern 0(0)\n", 6),
        ("design D\n depth 64\n width 8\n mux 4\n orient R0\n origin 1\n pattern 0(2)1(2)\n", 6),
        ("design D\n depth 64\n width 8\n mux 4\n class medium\n orient R0\n pattern 0(2)1(2)\n", 5),
        ("design D\n depth 65\n width 8\n mux 4\n orient R0\n pattern 0(2)1(2)\n", 1),
        ("design D\n depth x\n width 8\n mux 4\n orient R0\n pattern 0(2)1(2)\n", 2),
        # floorplans the wire protocol cannot carry
        ("design D\n depth 64\n width 128\n mux 4\n orient R0\n pattern 0(2)1(2)\n", 1),
        (MINIMAL + "design E\n depth 2049\n width 8\n mux 1\n orient R0\n pattern 0(2)1(2)\n", 7),
        (TWELVE, 67),  # a twelfth design has no select index
    ],
)
def test_config_errors_carry_line_numbers(text, line):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}:")


def test_bad_params_value_is_a_config_error():
    with pytest.raises(ConfigError):
        parse_config("params\n sigma_mismatch -1\n")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "plan.cfg"
    path.write_text(format_config(ProcessParams(beta=0.5), DEFAULT_DESIGNS[:2]))
    params, designs = load_config(path)
    assert params.beta == 0.5
    assert [d.name for d in designs] == ["P1_a", "P1_b"]


@given(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_parameter_floats_round_trip_exactly(sm, sn, beta, gy):
    params = ProcessParams(sigma_mismatch=sm, sigma_noise=sn, beta=beta,
                           gradient=(1.0, gy))
    # One R0 design: its columns see only the x component, so gy may be 0.
    got, _ = parse_config(format_config(params, DEFAULT_DESIGNS[:1]))
    assert got == params


# A gradient component of 0 leaves R90 and R270 designs without a bias
# direction, and parse_config refuses it.
NONZERO = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(bool)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.builds(ProcessParams,
              sigma_mismatch=st.floats(min_value=1e-6, max_value=1e6),
              sigma_noise=st.floats(min_value=0.0, max_value=1e6),
              beta=st.floats(min_value=0.0, max_value=1e6),
              gradient=st.tuples(NONZERO, NONZERO)),
    designs(),
)
def test_floorplans_round_trip(params, floorplan):
    assert parse_config(format_config(params, floorplan)) == (params, floorplan)


PARAMS_TEXT = "params\n {key} {values}\n"
DESIGN_TEXT = ("design D\n depth 64\n width 8\n mux 4\n class slow\n orient R0\n"
               " origin 0 0\n pattern 0(2)1(2)\n")
# key: (line, a wrong number of values, values holding one unreadable value)
KEY_CASES = {
    "sigma_mismatch": (2, "1 1", "x"),
    "sigma_noise": (2, "", "0.1.2"),
    "beta": (2, "1 1", "1e"),
    "gradient": (2, "1", "1 y"),
    "depth": (2, "64 64", "x"),
    "width": (3, "", "8.0"),
    "mux": (4, "4 4", "four"),
    "class": (5, "fast slow", "medium"),
    "orient": (6, "R0 R0", "R45"),
    "origin": (7, "0", "0 y"),
    "pattern": (8, "0(2)1(2) 0(2)1(2)", "0(0)"),
}


def _with_values(key, values):
    if key in ("sigma_mismatch", "sigma_noise", "beta", "gradient"):
        return PARAMS_TEXT.format(key=key, values=values)
    return "".join(f" {key} {values}\n" if line.split()[0] == key else line + "\n"
                   for line in DESIGN_TEXT.splitlines())


def test_every_key_case_starts_from_a_config_that_parses():
    _, (design,) = parse_config(DESIGN_TEXT)
    assert design.name == "D" and design.orientation is Orientation.R0


@pytest.mark.parametrize("key", list(KEY_CASES))
def test_a_wrong_value_count_is_refused_on_the_key_line(key):
    line, values, _ = KEY_CASES[key]
    with pytest.raises(ConfigError) as exc:
        parse_config(_with_values(key, values))
    assert exc.value.line == line
    assert f"key {key!r} takes " in str(exc.value)


@pytest.mark.parametrize("key", list(KEY_CASES))
def test_an_unreadable_value_is_refused_on_the_key_line(key):
    line, _, values = KEY_CASES[key]
    with pytest.raises(ConfigError) as exc:
        parse_config(_with_values(key, values))
    assert exc.value.line == line
    message = str(exc.value)
    assert f"key {key!r}: " in message and repr(values.split()[-1]) in message


# Values float() reads that are not finite: before they were refused, a NaN
# gradient gave every orientation the sign -1, and so a wrong BD column.
NON_FINITE = ["nan", "-NaN", "inf", "-inf", "Infinity"]
# (key, its values with {} for the one that is not finite)
FLOAT_KEYS = [("sigma_mismatch", "{}"), ("sigma_noise", "{}"), ("beta", "{}"),
              ("gradient", "{} 1"), ("gradient", "1 {}")]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("key, values", FLOAT_KEYS)
def test_a_non_finite_parameter_is_refused_on_the_key_line(key, values, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"# plan\n\nparams\n  {key} {values.format(value)}\n")
    assert exc.value.line == 4
    assert str(exc.value) == f"line 4: key {key!r}: {value!r} is not finite"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["sigma_mismatch", "sigma_noise", "beta", "gradient"])
def test_process_params_refuse_non_finite_values(field, value):
    kwargs = {field: (1.0, value) if field == "gradient" else value}
    with pytest.raises(ValueError, match=f"{field} .* is not finite"):
        ProcessParams(**kwargs)
    if field == "gradient":
        with pytest.raises(ValueError, match="gradient .* is not finite"):
            ProcessParams(gradient=(value, 1.0))


@pytest.mark.parametrize("name", ["../x", "a/b", "a\0b", "x" * 201, "\u00e9" * 101])
def test_a_design_name_that_is_not_one_file_name_is_refused(name):
    with pytest.raises(ConfigError) as exc:
        parse_config("params\n beta 0.1\n" + DESIGN_TEXT.replace("design D", f"design {name}"))
    assert exc.value.line == 3
    assert repr(name) in str(exc.value)


@pytest.mark.parametrize("name", ["x" * 200, "\u00e9" * 100, ".."])
def test_a_design_name_of_one_file_name_is_kept(name):
    _, (design,) = parse_config(DESIGN_TEXT.replace("design D", f"design {name}"))
    assert design.name == name


@pytest.mark.parametrize("text, line, design", [
    ("params\n gradient 1 0\n" + DESIGN_TEXT.replace("R0", "R90"), 3, "D"),
    (DESIGN_TEXT.replace("R0", "MY90") + "params\n gradient 1 0\n", 1, "D"),
    ("params\n gradient 1 0\n", 1, "P2_a"),  # the default designs
    ("\n\nparams\n gradient 0 -2.5\n", 3, "P1_a"),
])
def test_a_gradient_without_a_column_component_is_refused(text, line, design):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert f"design {design!r}: gradient " in str(exc.value)


def test_a_gradient_along_every_design_column_axis_is_kept():
    params, _ = parse_config(DESIGN_TEXT.replace("R0", "R270") + "params\n gradient 0 1\n")
    assert params.gradient == (0.0, 1.0)
