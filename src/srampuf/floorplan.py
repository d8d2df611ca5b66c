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
"""

from __future__ import annotations

from .chipnet import protocol as wire
from .layout import Geometry, LayoutError, Orientation, PlacedMacro
from .patterns import ParseError, parse_run_length
from .simchip import DesignEntry, ProcessParams


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _entry(
    name: str,
    depth: int,
    width: int,
    mux: int,
    speed: str,
    orient: Orientation,
    origin: tuple[int, int],
    pattern: str,
) -> DesignEntry:
    g = Geometry(depth=depth, width=width, mux=mux, speed_class=speed)
    return DesignEntry(
        name=name,
        placed=PlacedMacro(geometry=g, orientation=orient, origin=origin),
        pattern=pattern,
    )


# Eleven macros; readout select indices follow this order.  P1 is the
# fast-compile baseline pair, everything else is high-density.
DEFAULT_DESIGNS: tuple[DesignEntry, ...] = (
    _entry("P1_a", 128, 64, 4, "fast", Orientation.R0, (0, 0), "0(32)1(64)0(64)"),
    _entry("P1_b", 128, 64, 4, "fast", Orientation.R0, (640, 0), "0(32)1(64)0(64)"),
    _entry("P2_a", 1024, 32, 8, "slow", Orientation.R90, (1280, 0), "0(32)1(64)0(64)"),
    _entry("P2_b", 1024, 32, 8, "slow", Orientation.R270, (1920, 0), "0(32)1(64)0(64)"),
    _entry("P3", 1024, 32, 16, "slow", Orientation.R270, (2560, 0), "0(29)1(29)"),
    _entry("P4_a", 512, 32, 8, "slow", Orientation.MX, (0, 640), "0(16)1(16)"),
    _entry("P4_b", 512, 32, 8, "slow", Orientation.MX, (640, 640), "0(16)1(16)"),
    _entry("P4_c", 512, 32, 8, "slow", Orientation.MX, (1280, 640), "0(16)1(16)"),
    _entry("P5_a", 1024, 32, 16, "slow", Orientation.R270, (1920, 640), "0(16)1(16)"),
    _entry("P5_b", 1024, 32, 16, "slow", Orientation.MY90, (2560, 640), "0(16)1(16)"),
    _entry("P6", 1024, 32, 8, "slow", Orientation.R0, (3200, 640), "0(16)1(32)0(32)"),
)

_PARAM_KEYS = ("sigma_mismatch", "sigma_noise", "beta", "gradient")
_DESIGN_KEYS = ("depth", "width", "mux", "class", "orient", "origin", "pattern")
_REQUIRED_DESIGN_KEYS = ("depth", "width", "mux", "orient", "pattern")


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


def _collect(body, allowed, header_line):
    seen = {}
    for lineno, key, rest in body:
        if key not in allowed:
            raise ConfigError(lineno, f"unknown key {key!r}")
        if key in seen:
            raise ConfigError(lineno, f"duplicate key {key!r}")
        if not rest:
            raise ConfigError(lineno, f"key {key!r} has no value")
        seen[key] = (lineno, rest)
    return seen


def _one_float(name, lineno, rest):
    if len(rest) != 1:
        raise ConfigError(lineno, f"{name} takes one value")
    try:
        return float(rest[0])
    except ValueError:
        raise ConfigError(lineno, f"{name} value {rest[0]!r} is not a number")


def _one_int(name, lineno, rest):
    if len(rest) != 1:
        raise ConfigError(lineno, f"{name} takes one value")
    try:
        return int(rest[0])
    except ValueError:
        raise ConfigError(lineno, f"{name} value {rest[0]!r} is not an integer")


def parse_config(text: str) -> tuple[ProcessParams, tuple[DesignEntry, ...]]:
    """Parse a configuration; absent stanzas fall back to package defaults."""
    params = ProcessParams()
    designs: list[DesignEntry] = []
    seen_params = False
    names: dict[str, int] = {}
    for header_line, header, body in _split_stanzas(text):
        if header[0] == "params":
            if len(header) != 1:
                raise ConfigError(header_line, "params stanza takes no arguments")
            if seen_params:
                raise ConfigError(header_line, "second params stanza")
            seen_params = True
            fields = _collect(body, _PARAM_KEYS, header_line)
            kwargs = {}
            for key in ("sigma_mismatch", "sigma_noise", "beta"):
                if key in fields:
                    kwargs[key] = _one_float(key, *fields[key])
            if "gradient" in fields:
                lineno, rest = fields["gradient"]
                if len(rest) != 2:
                    raise ConfigError(lineno, "gradient takes two values")
                try:
                    kwargs["gradient"] = (float(rest[0]), float(rest[1]))
                except ValueError:
                    raise ConfigError(lineno, f"bad gradient values {rest}")
            try:
                params = ProcessParams(**kwargs)
            except ValueError as e:
                raise ConfigError(header_line, str(e))
        else:
            if len(header) != 2:
                raise ConfigError(header_line, "design stanza needs exactly one name")
            name = header[1]
            if name in names:
                raise ConfigError(
                    header_line, f"design {name!r} already defined on line {names[name]}"
                )
            names[name] = header_line
            fields = _collect(body, _DESIGN_KEYS, header_line)
            for key in _REQUIRED_DESIGN_KEYS:
                if key not in fields:
                    raise ConfigError(header_line, f"design {name!r} missing key {key!r}")
            depth = _one_int("depth", *fields["depth"])
            width = _one_int("width", *fields["width"])
            mux = _one_int("mux", *fields["mux"])
            speed = "slow"
            if "class" in fields:
                lineno, rest = fields["class"]
                if len(rest) != 1 or rest[0] not in ("fast", "slow"):
                    raise ConfigError(lineno, f"class must be fast or slow, got {rest}")
                speed = rest[0]
            lineno, rest = fields["orient"]
            if len(rest) != 1:
                raise ConfigError(lineno, "orient takes one value")
            try:
                orient = Orientation(rest[0])
            except ValueError:
                raise ConfigError(lineno, f"unknown orientation tag {rest[0]!r}")
            origin = (0, 0)
            if "origin" in fields:
                lineno, rest = fields["origin"]
                if len(rest) != 2:
                    raise ConfigError(lineno, "origin takes two values")
                try:
                    origin = (int(rest[0]), int(rest[1]))
                except ValueError:
                    raise ConfigError(lineno, f"bad origin values {rest}")
            lineno, rest = fields["pattern"]
            if len(rest) != 1:
                raise ConfigError(lineno, "pattern takes one value")
            try:
                parse_run_length(rest[0])
            except ParseError as e:
                raise ConfigError(lineno, str(e))
            try:
                entry = _entry(name, depth, width, mux, speed, orient, origin, rest[0])
            except LayoutError as e:
                raise ConfigError(header_line, f"design {name!r}: {e}")
            try:
                wire.check_design(len(designs), entry)
            except ValueError as e:
                raise ConfigError(header_line, str(e))
            designs.append(entry)
    if not designs:
        designs = list(DEFAULT_DESIGNS)
    return params, tuple(designs)


def format_config(params: ProcessParams, designs) -> str:
    """Canonical configuration text; parsing it back reproduces the inputs."""
    lines = [
        "# SRAM PUF workbench floorplan",
        "",
        "params",
        f"  sigma_mismatch {params.sigma_mismatch!r}",
        f"  sigma_noise {params.sigma_noise!r}",
        f"  beta {params.beta!r}",
        f"  gradient {params.gradient[0]!r} {params.gradient[1]!r}",
    ]
    for d in designs:
        g = d.geometry
        lines += [
            "",
            f"design {d.name}",
            f"  depth {g.depth}",
            f"  width {g.width}",
            f"  mux {g.mux}",
            f"  class {g.speed_class}",
            f"  orient {d.orientation.value}",
            f"  origin {d.placed.origin[0]} {d.placed.origin[1]}",
            f"  pattern {d.pattern}",
        ]
    return "\n".join(lines) + "\n"


def load_config(path) -> tuple[ProcessParams, tuple[DesignEntry, ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
