"""Default floorplan contents and the configuration file format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    got, _ = parse_config(format_config(params, ()))
    assert got == params
