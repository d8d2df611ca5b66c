"""Acceptance gate: one test per shipped guarantee.

Each test carries its criterion number in the name; see conftest for the
per-criterion PASS/FAIL summary printed after the run.
"""

import socket
import time
from math import erf, sqrt

import numpy as np
import pytest

from oracles import assemble_frame, brute_force_period, scripted_commands
from srampuf.analyze import scan_dump_dir
from srampuf.biasdetect import autocorrelation, dominant_period
from srampuf.chipnet import protocol as wire
from srampuf.chipnet.dumpfile import parse_dump, words_to_bits
from srampuf.chipnet.server import ChipServer
from srampuf.cli import main
from srampuf.floorplan import DEFAULT_DESIGNS
from srampuf.layout import Geometry, Orientation
from srampuf.metrics import calibrate_noise, fhw, min_entropy_by_one_probability, wchd
from srampuf.patterns import parse_run_length
from srampuf.report import load_report, render_table
from srampuf.simchip import ChipBank, DesignEntry, ProcessParams

SEED = 20260814
CHIPS = 50
CYCLES = 10

# (MHW endpoint farthest from 0.5, published lower entropy endpoint)
ENTROPY_TABLE = [
    (0.622, 0.685),
    (0.564, 0.826),
    (0.430, 0.811),
    (0.435, 0.824),
    (0.575, 0.798),
    (0.390, 0.713),
]

POSITIVE_ORIENTS = {"R0", "MX", "R90"}

WCHD_BAND = (0.050, 0.091)


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """Full-scale pipeline: gen -> collect (50x10) -> analyze -> render."""
    root = tmp_path_factory.mktemp("acceptance")
    cfg = root / "floorplan.cfg"
    dumps = root / "dumps"
    report_path = root / "report.json"
    start = time.perf_counter()
    assert main(["gen", "--out", str(cfg)]) == 0
    assert main(["collect", "--config", str(cfg), "--seed", str(SEED),
                 "--chips", str(CHIPS), "--cycles", str(CYCLES),
                 "--out", str(dumps)]) == 0
    assert main(["analyze", str(dumps), "--out", str(report_path)]) == 0
    report = load_report(report_path)
    table = render_table(report)
    elapsed = time.perf_counter() - start
    return {"dumps": dumps, "report": report, "table": table, "elapsed": elapsed}


def test_criterion_1_entropy_formula():
    for endpoint, expected in ENTROPY_TABLE:
        got = min_entropy_by_one_probability(endpoint)
        assert abs(got - expected) <= 1e-3, (endpoint, got, expected)


def test_criterion_2_bias_directions(big_run):
    rows = big_run["report"]["rows"]
    assert len(rows) == 11
    for row in rows:
        expected = 1 if row["orientation"] in POSITIVE_ORIENTS else -1
        assert row["direction"] == expected, (row["design"], row["orientation"])
    assert big_run["elapsed"] < 300.0


def test_criterion_3_period_detection():
    period_patterns = {
        32: "0(16)1(16)",
        58: "0(29)1(29)",
        64: "0(16)1(32)0(32)",
        128: "0(32)1(64)0(64)",
    }
    n = 8192
    hits = 0
    for planted, pattern in sorted(period_patterns.items()):
        pat = parse_run_length(pattern)
        cycle = pat.bits(pat.period)
        for k in range(25):
            rng = np.random.default_rng(1000 * planted + k)
            v = np.tile(cycle, -(-n // planted))[:n]
            v = np.roll(v, int(rng.integers(0, planted)))
            flip_p = 0.05 + 0.15 * (k % 5) / 4  # 5% .. 20%
            v ^= (rng.random(n) < flip_p).astype(np.uint8)
            detected = dominant_period(autocorrelation(v), n)
            assert detected == brute_force_period(v), (planted, k)
            hits += detected == planted
    assert hits >= 99, f"planted period recovered on {hits}/100 trials"


def test_criterion_4_reliability_band(big_run):
    probe = DesignEntry("probe", Geometry(depth=1024, width=32, mux=8), Orientation.R90,
                        "0(16)1(16)")
    assert calibrate_noise(0.065, ProcessParams(), probe, 90) == \
        ProcessParams().sigma_noise

    lo, hi = WCHD_BAND
    dumps = big_run["dumps"]
    for name, files in scan_dump_dir(dumps).items():
        in_band = total = 0
        for chip in range(CHIPS):
            header, words = parse_dump((dumps / files[(chip, 0)]).read_text())
            enroll = words_to_bits(words, header.width).reshape(-1)
            for cycle in range(1, CYCLES):
                header, words = parse_dump((dumps / files[(chip, cycle)]).read_text())
                d = wchd(enroll, words_to_bits(words, header.width).reshape(-1))
                in_band += lo <= d <= hi
                total += 1
        assert in_band >= 0.95 * total, (name, in_band, total)

    x = np.random.default_rng(0).integers(0, 2, size=4096).astype(np.uint8)
    assert wchd(x, x) == 0.0
    assert wchd(x, 1 - x) == 1.0


def test_criterion_5_debiasing(big_run):
    for row in big_run["report"]["rows"]:
        assert 0.45 <= row["mhw_min"] <= row["mhw_max"] <= 0.55, row["design"]

    # a duty-skewed imprint at beta = 0.25*sigma_mismatch must push raw FHW
    # visibly off 0.5 (the 50%-duty default designs balance it away instead)
    params = ProcessParams(beta=0.25)
    probe = DesignEntry("skewprobe", Geometry(depth=1024, width=32, mux=8), Orientation.R90,
                        "0(24)1(8)")
    sigma = sqrt(params.sigma_mismatch ** 2 + params.sigma_noise ** 2)
    flip_gain = 0.5 * (1 + erf(params.beta / (sigma * sqrt(2)))) - 0.5
    duty = 8 / 32
    predicted = (1 - 2 * duty) * flip_gain
    bank = ChipBank((probe,), params, 61)
    for chip in range(10):
        bits = bank.snapshots(chip, 0)["skewprobe"].bits.reshape(-1)
        assert abs(fhw(bits) - 0.5) >= 0.8 * predicted, chip


def _recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        assert chunk, "server closed mid-frame"
        buf += chunk
    return buf


def _transcript(endpoint, commands):
    frames = []
    with socket.create_connection(endpoint) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for command in commands:
            sock.sendall(command)
            frames.append(_recv_exact(sock, wire.FRAME_LEN))
    return frames


def test_criterion_6_protocol_bit_exactness():
    for select in range(11):
        for addr in range(2048):
            req = wire.ReadRequest(select, addr)
            blob = wire.encode_request(req)
            assert len(blob) == 2
            assert wire.decode_requests(int.from_bytes(blob, "big")) == (select, addr)

    rng = np.random.default_rng(20260814)
    for width in (1, 7, 16, 32, 64):
        for _ in range(40):
            word = rng.integers(0, 2, size=width, dtype=np.uint8)
            table = wire.frames_for_bits(word[np.newaxis, :])
            frame = table[0].tobytes()
            assert len(frame) == wire.FRAME_LEN == 9
            assert frame == assemble_frame(list(word[::-1]) + [0] * (64 - width))
            assert frame[0] >> 5 == 0b101
            decoded = words_to_bits(wire.decode_data_frames(table, width), width)
            assert list(decoded[0]) == list(word)

    commands = scripted_commands(1000)
    transcripts = []
    for _ in range(2):
        with ChipServer(DEFAULT_DESIGNS, ProcessParams(), 123) as server:
            transcripts.append(_transcript(server.endpoint, commands))
    assert transcripts[0] == transcripts[1]
    starts = {frame[0] >> 5 for frame in transcripts[0]}
    assert starts == {0b101, 0b000}  # both data and error frames exercised
    assert all(len(frame) == 9 for frame in transcripts[0])


def test_criterion_7_pipeline_determinism(tmp_path):
    def pipeline(root):
        root.mkdir()
        cfg = root / "floorplan.cfg"
        dumps = root / "dumps"
        report_path = root / "report.json"
        assert main(["gen", "--out", str(cfg)]) == 0
        assert main(["collect", "--config", str(cfg), "--seed", "31337",
                     "--chips", "6", "--cycles", "3", "--out", str(dumps)]) == 0
        assert main(["analyze", str(dumps), "--out", str(report_path)]) == 0
        return cfg, dumps, report_path

    cfg_a, dumps_a, report_a = pipeline(tmp_path / "a")
    cfg_b, dumps_b, report_b = pipeline(tmp_path / "b")

    assert cfg_a.read_bytes() == cfg_b.read_bytes()
    names_a = sorted(p.name for p in dumps_a.iterdir())
    assert names_a == sorted(p.name for p in dumps_b.iterdir())
    assert len(names_a) == 6 * 3 * 11 + 2  # dumps + manifest + floorplan
    for name in names_a:
        assert (dumps_a / name).read_bytes() == (dumps_b / name).read_bytes(), name
    assert report_a.read_bytes() == report_b.read_bytes()
    assert render_table(load_report(report_a)) == render_table(load_report(report_b))
