"""Default floorplan and the plain-text configuration format.

A configuration file is a sequence of stanzas.  A ``params`` stanza sets
process parameters; each ``design <name>`` stanza adds one macro.  Lines
hold one ``key value...`` pair, blank lines and ``#`` comment lines are
ignored, indentation is free-form:

    params
      sigma_mismatch 1.0
      beta 0.06

    design P1_a
      depth 128
      width 64
      mux 4
      class fast
      orient R0
      origin 0 0
      pattern 0(32)1(64)0(64)

``_PARAM_KEYS`` and ``_DESIGN_KEYS`` list every key with its value count
and reader; ``format_config`` writes the canonical form from the same
tables, in their order.
"""

from __future__ import annotations

import math

from .chipnet import protocol as wire
from .layout import Geometry, LayoutError, Orientation
from .patterns import parse_run_length
from .simchip import DegenerateGradient, DesignEntry, ProcessParams, orientation_sign


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Eleven macros; readout select indices follow this order.  P1 is the
# fast-compile baseline pair, everything else is high-density (class slow).
DEFAULT_DESIGNS: tuple[DesignEntry, ...] = (
    DesignEntry("P1_a", Geometry(128, 64, 4, "fast"), Orientation.R0, "0(32)1(64)0(64)", (0, 0)),
    DesignEntry("P1_b", Geometry(128, 64, 4, "fast"), Orientation.R0, "0(32)1(64)0(64)", (640, 0)),
    DesignEntry("P2_a", Geometry(1024, 32, 8), Orientation.R90, "0(32)1(64)0(64)", (1280, 0)),
    DesignEntry("P2_b", Geometry(1024, 32, 8), Orientation.R270, "0(32)1(64)0(64)", (1920, 0)),
    DesignEntry("P3", Geometry(1024, 32, 16), Orientation.R270, "0(29)1(29)", (2560, 0)),
    DesignEntry("P4_a", Geometry(512, 32, 8), Orientation.MX, "0(16)1(16)", (0, 640)),
    DesignEntry("P4_b", Geometry(512, 32, 8), Orientation.MX, "0(16)1(16)", (640, 640)),
    DesignEntry("P4_c", Geometry(512, 32, 8), Orientation.MX, "0(16)1(16)", (1280, 640)),
    DesignEntry("P5_a", Geometry(1024, 32, 16), Orientation.R270, "0(16)1(16)", (1920, 640)),
    DesignEntry("P5_b", Geometry(1024, 32, 16), Orientation.MY90, "0(16)1(16)", (2560, 640)),
    DesignEntry("P6", Geometry(1024, 32, 8), Orientation.R0, "0(16)1(32)0(32)", (3200, 640)),
)


def _speed(text: str) -> str:
    if text not in ("fast", "slow"):
        raise ValueError(f"{text!r} is neither fast nor slow")
    return text


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value


def _pattern(text: str) -> str:
    parse_run_length(text)
    return text


# A name heads each dump's file name, which most file systems cap at 255
# bytes; the rest of the name takes 24 bytes up to cycle 99, and one more
# per further digit of the cycle count.
_MAX_NAME_BYTES = 200

# key -> (value count, reader of one value); a reader raises ValueError.
_PARAM_KEYS = {
    "sigma_mismatch": (1, _finite),
    "sigma_noise": (1, _finite),
    "beta": (1, _finite),
    "gradient": (2, _finite),
}
# In format_config's output order; class and origin have defaults.
_DESIGN_KEYS = {
    "depth": (1, int),
    "width": (1, int),
    "mux": (1, int),
    "class": (1, _speed),
    "orient": (1, Orientation),
    "origin": (2, int),
    "pattern": (1, _pattern),
}


def _split_stanzas(text: str):
    """Yield (header_line_no, header_tokens, [(line_no, key, rest), ...])."""
    stanza = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] in ("params", "design"):
            if stanza is not None:
                yield stanza
            stanza = (lineno, tokens, [])
        elif stanza is None:
            raise ConfigError(lineno, f"{tokens[0]!r} outside any stanza")
        else:
            stanza[2].append((lineno, tokens[0], tokens[1:]))
    if stanza is not None:
        yield stanza


def _read_keys(body, table) -> dict:
    """{key: value} of a stanza body; two-value keys give a tuple."""
    values = {}
    for lineno, key, rest in body:
        if key not in table:
            raise ConfigError(lineno, f"unknown key {key!r}")
        if key in values:
            raise ConfigError(lineno, f"duplicate key {key!r}")
        count, read = table[key]
        if len(rest) != count:
            raise ConfigError(lineno, f"key {key!r} takes {count} value(s), got {len(rest)}")
        try:
            read_values = tuple(read(v) for v in rest)
        except ValueError as e:
            raise ConfigError(lineno, f"key {key!r}: {e}")
        values[key] = read_values if count > 1 else read_values[0]
    return values


def parse_config(text: str) -> tuple[ProcessParams, tuple[DesignEntry, ...]]:
    """Parse a configuration; absent stanzas fall back to package defaults.

    Refuses, on its line, a floorplan that collect cannot carry: past the
    wire limits, a name that is not one file name, or a degenerate gradient.
    """
    params = ProcessParams()
    params_line = None
    designs: list[DesignEntry] = []
    lines: dict[str, int] = {}
    for header_line, header, body in _split_stanzas(text):
        if header[0] == "params":
            if len(header) != 1:
                raise ConfigError(header_line, "params stanza takes no arguments")
            if params_line is not None:
                raise ConfigError(header_line, "second params stanza")
            params_line = header_line
            values = _read_keys(body, _PARAM_KEYS)
            try:
                params = ProcessParams(**values)
            except ValueError as e:
                raise ConfigError(header_line, str(e))
            continue
        if len(header) != 2:
            raise ConfigError(header_line, "design stanza needs exactly one name")
        name = header[1]
        if "/" in name or "\0" in name or len(name.encode()) > _MAX_NAME_BYTES:
            raise ConfigError(header_line, f"design name {name!r} is not one file name "
                              f"of at most {_MAX_NAME_BYTES} bytes")
        if name in lines:
            raise ConfigError(
                header_line, f"design {name!r} already defined on line {lines[name]}")
        lines[name] = header_line
        values = {"class": "slow", "origin": (0, 0), **_read_keys(body, _DESIGN_KEYS)}
        for key in _DESIGN_KEYS:
            if key not in values:
                raise ConfigError(header_line, f"design {name!r} missing key {key!r}")
        try:
            geometry = Geometry(values["depth"], values["width"], values["mux"], values["class"])
        except LayoutError as e:
            raise ConfigError(header_line, f"design {name!r}: {e}")
        entry = DesignEntry(name, geometry, values["orient"], values["pattern"], values["origin"])
        try:
            wire.check_design(len(designs), entry)
        except ValueError as e:
            raise ConfigError(header_line, str(e))
        designs.append(entry)
    if not designs:
        designs = list(DEFAULT_DESIGNS)
        lines = dict.fromkeys((d.name for d in designs), params_line)
    for d in designs:
        try:
            orientation_sign(params, d.orientation)
        except DegenerateGradient as e:
            raise ConfigError(lines[d.name], f"design {d.name!r}: {e}")
    return params, tuple(designs)


def format_config(params: ProcessParams, designs) -> str:
    """Canonical configuration text; parsing it back reproduces the inputs."""
    stanzas = [("params", _PARAM_KEYS, vars(params).values())]
    stanzas += [(f"design {d.name}", _DESIGN_KEYS, (
        d.geometry.depth, d.geometry.width, d.geometry.mux, d.geometry.speed_class,
        d.orientation.value, d.origin, d.pattern)) for d in designs]
    lines = ["# SRAM PUF workbench floorplan"]
    for header, table, values in stanzas:
        lines += ["", header]
        for (key, (count, _)), value in zip(table.items(), values):
            lines.append(f"  {key} " + (" ".join(map(str, value)) if count > 1 else str(value)))
    return "\n".join(lines) + "\n"


def load_config(path) -> tuple[ProcessParams, tuple[DesignEntry, ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
