"""Shape and placement orientation of SRAM macros.

A macro stores ``depth`` words of ``width`` bits and is read out
address-major.  Its column mux ratio ``mux`` is validated and carried in
the dump header, but the cell-level mux fold is not modelled.  A placed
macro is one ``simchip.DesignEntry``; the only placement property the
simulator uses is its orientation, whose operator maps the macro's local
column axis onto the die (see ``simchip.orientation_sign``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class LayoutError(ValueError):
    """Base class for geometry and placement errors."""


class AddressOutOfRange(LayoutError):
    pass


class Orientation(Enum):
    """Placement orientation of a macro on the die.

    ``R*`` are anticlockwise rotations, ``MX`` mirrors along the x axis
    (y -> -y), and ``MY90`` mirrors along the y axis and then rotates 90
    degrees anticlockwise.
    """

    R0 = "R0"
    R90 = "R90"
    R270 = "R270"
    MX = "MX"
    MY90 = "MY90"


# Row-major 2x2 operators: R90 maps (1,0) -> (0,1), R270 maps (1,0) -> (0,-1).
_MATRICES: dict[Orientation, tuple[tuple[int, int], tuple[int, int]]] = {
    Orientation.R0: ((1, 0), (0, 1)),
    Orientation.R90: ((0, -1), (1, 0)),
    Orientation.R270: ((0, 1), (-1, 0)),
    Orientation.MX: ((1, 0), (0, -1)),
    Orientation.MY90: ((0, -1), (-1, 0)),
}


@dataclass(frozen=True)
class Geometry:
    """Word-addressable SRAM macro shape.

    ``depth`` words of ``width`` bits behind a column mux of ratio ``mux``.
    ``speed_class`` tags the timing corner the macro was compiled for and
    has no influence on addressing.
    """

    depth: int
    width: int
    mux: int
    speed_class: str = "slow"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise LayoutError(f"depth must be positive, got {self.depth}")
        if self.width < 2 or self.width % 2:
            raise LayoutError(f"width must be even and >= 2, got {self.width}")
        if self.mux < 1 or self.mux & (self.mux - 1):
            raise LayoutError(f"mux must be a power of two, got {self.mux}")
        if self.depth % self.mux:
            raise LayoutError(
                f"depth {self.depth} is not a multiple of mux {self.mux}"
            )
        if self.speed_class not in ("fast", "slow"):
            raise LayoutError(f"unknown speed class {self.speed_class!r}")

    @property
    def cells(self) -> int:
        return self.depth * self.width


def apply_orientation(o: Orientation, xy: tuple[int, int]) -> tuple[int, int]:
    (a, b), (c, d) = _MATRICES[o]
    x, y = xy
    return a * x + b * y, c * x + d * y
