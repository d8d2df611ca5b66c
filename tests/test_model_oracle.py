"""Closed forms of PAPER.md's process model, held against the simulator.

Mismatch is frozen per chip, so each chip gives one power-up (cycle 0):
its cells are then independent draws, and each tolerance is a multiple of
the binomial standard error over chips x cells in the phase checked.
"""

import math

import numpy as np
import pytest

from oracles import one_probability
from srampuf.floorplan import DEFAULT_DESIGNS
from srampuf.patterns import parse_run_length
from srampuf.simchip import ChipBank, ProcessParams, orientation_sign

CHIPS = 10
Z = 4.0  # standard errors a measured one-fraction may stray from the closed form


def test_one_probability_at_the_defaults():
    params = ProcessParams()
    assert round(one_probability(params, +1), 5) == 0.52369
    assert round(one_probability(params, -1), 5) == 0.47631


def _phase_counts(params, seed):
    """{design name: ((ones, cells) where the imprint is +beta, the same where -beta)}
    over cycle 0 of CHIPS chips."""
    bank = ChipBank(DEFAULT_DESIGNS, params, seed)
    up = {d.name: orientation_sign(params, d.orientation)
          * parse_run_length(d.pattern).signs(d.geometry.cells) > 0 for d in DEFAULT_DESIGNS}
    counts = {d.name: np.zeros((2, 2), dtype=np.int64) for d in DEFAULT_DESIGNS}
    for chip in range(CHIPS):
        for name, snap in bank.snapshots(chip, 0).items():
            bits = snap.readout()
            for row, phase in enumerate((up[name], ~up[name])):
                counts[name][row] += (int(bits[phase].sum()), int(phase.sum()))
    return counts


def _check(ones, cells, p, what):
    tolerance = Z * math.sqrt(p * (1 - p) / cells)
    assert abs(ones / cells - p) <= tolerance, (what, ones / cells, p, tolerance)


@pytest.mark.parametrize("params,seed", [
    (ProcessParams(), 41),
    (ProcessParams(beta=0.5, sigma_noise=0.5), 42),
])
def test_one_fraction_per_imprint_phase_matches_the_closed_form(params, seed):
    counts = _phase_counts(params, seed)
    for row, sign in enumerate((+1, -1)):
        p = one_probability(params, sign)
        for name, count in counts.items():
            _check(*count[row], p, (name, sign))
        _check(*sum(counts.values())[row], p, ("all designs", sign))
