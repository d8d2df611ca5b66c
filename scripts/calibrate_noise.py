#!/usr/bin/env python3
"""Map target WCHD levels to the noise sigma that produces them.

Sweeps the calibration loop over a range of reliability targets on the
standard 1024x32 probe macro, then re-measures each calibrated sigma on a
fresh simulated bank as a sanity check.
"""

import argparse

from srampuf.layout import Geometry, Orientation, PlacedMacro
from srampuf.metrics import calibrate_noise, mean_reconstruction_wchd
from srampuf.simchip import DesignEntry, ProcessParams


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--targets", type=float, nargs="+",
                    default=[0.02, 0.05, 0.065, 0.09, 0.12])
    ap.add_argument("--budget", type=int, default=90,
                    help="chip power-ups the calibration may spend per probe")
    args = ap.parse_args()

    probe = DesignEntry(
        "probe",
        PlacedMacro(Geometry(depth=1024, width=32, mux=8), Orientation.R90),
        "0(16)1(16)",
    )
    print("target   sigma_noise   measured")
    for target in args.targets:
        sigma = calibrate_noise(target, ProcessParams(), probe, args.budget)
        measured = mean_reconstruction_wchd(
            probe, ProcessParams(sigma_noise=sigma), seed=7, chips=10)
        print(f"{target:6.3f}   {sigma:11.6f}   {measured:8.4f}")


if __name__ == "__main__":
    main()
