"""Desk-scale SRAM PUF characterization workbench.

Simulates a bank of test chips carrying SRAM macros with distinct
placement orientations and imprint patterns, exposes them behind a small
serial readout protocol, and analyzes collected power-up dumps for
reliability, masked-weight uniformity, and layout-correlated startup bias.
"""

__version__ = "0.1.0"
