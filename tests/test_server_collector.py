"""TCP server and collector client, exercised against in-process servers."""

import socket
import threading
import time

import numpy as np
import pytest

from srampuf.chipnet import protocol as wire
from srampuf.chipnet.collector import (
    FLOORPLAN_NAME,
    MANIFEST_NAME,
    ConnectionLost,
    HarnessClient,
    collect,
)
from srampuf.chipnet.dumpfile import bits_to_words, parse_dump, words_to_bits
from srampuf.chipnet.server import ChipServer
from srampuf.floorplan import load_config
from srampuf.layout import Geometry, Orientation, PlacedMacro
from srampuf.metrics import wchd
from srampuf.simchip import ChipBank, DesignEntry, ProcessParams


def entry(name, depth, width, mux, orient, pattern, origin=(0, 0)):
    g = Geometry(depth=depth, width=width, mux=mux)
    return DesignEntry(name=name, placed=PlacedMacro(g, orient, origin), pattern=pattern)


SMALL_DESIGNS = (
    entry("A", 64, 16, 4, Orientation.R0, "0(8)1(8)"),
    entry("B", 128, 8, 8, Orientation.R270, "0(4)1(4)", origin=(100, 0)),
)
SEED = 1234


@pytest.fixture(scope="module")
def server():
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED) as s:
        yield s


def raw_session(server):
    sock = socket.create_connection(server.endpoint, timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def command(sock, payload):
    sock.sendall(payload)
    buf = b""
    while len(buf) < wire.FRAME_LEN:
        chunk = sock.recv(wire.FRAME_LEN - len(buf))
        assert chunk, "server closed mid-frame"
        buf += chunk
    return wire.decode_response(buf)


def test_select_is_echoed(server):
    sock = raw_session(server)
    try:
        frame = command(sock, bytes([wire.OP_SELECT_CHIP, 0]))
        assert not frame.is_error
        assert frame.data == 0
    finally:
        sock.close()


def test_power_on_reports_per_chip_cycle_indices(server):
    sock = raw_session(server)
    try:
        command(sock, bytes([wire.OP_SELECT_CHIP, 1]))
        assert command(sock, bytes([wire.OP_POWER_ON])).data == 0
        assert command(sock, bytes([wire.OP_POWER_OFF])).data == 0
        assert command(sock, bytes([wire.OP_POWER_ON])).data == 1
    finally:
        sock.close()


def test_error_frames_before_select_and_power(server):
    sock = raw_session(server)
    try:
        read = bytes([wire.OP_READ]) + wire.encode_request(wire.ReadRequest(0, 0))
        frame = command(sock, read)
        assert frame.is_error and frame.data == wire.ERR_NO_CHIP
        assert command(sock, bytes([wire.OP_POWER_ON])).data == wire.ERR_NO_CHIP

        command(sock, bytes([wire.OP_SELECT_CHIP, 4]))
        frame = command(sock, read)
        assert frame.is_error and frame.data == wire.ERR_NOT_POWERED
    finally:
        sock.close()


def test_bad_read_requests_are_in_band_errors(server):
    sock = raw_session(server)
    try:
        command(sock, bytes([wire.OP_SELECT_CHIP, 5]))
        command(sock, bytes([wire.OP_POWER_ON]))
        # reserved bit set
        frame = command(sock, bytes([wire.OP_READ, 0x80, 0x00]))
        assert frame.is_error and frame.data == wire.ERR_BAD_REQUEST
        # select index past the floorplan
        bad_select = bytes([wire.OP_READ]) + wire.encode_request(wire.ReadRequest(2, 0))
        frame = command(sock, bad_select)
        assert frame.is_error and frame.data == wire.ERR_BAD_REQUEST
        # address past the design depth (but fine for the wire format)
        bad_addr = bytes([wire.OP_READ]) + wire.encode_request(wire.ReadRequest(0, 64))
        frame = command(sock, bad_addr)
        assert frame.is_error and frame.data == wire.ERR_BAD_REQUEST
        command(sock, bytes([wire.OP_POWER_OFF]))
    finally:
        sock.close()


def test_unknown_opcode(server):
    sock = raw_session(server)
    try:
        frame = command(sock, b"\x7f")
        assert frame.is_error and frame.data == wire.ERR_UNKNOWN_OPCODE
    finally:
        sock.close()


def test_second_session_gets_chip_busy(server):
    a = raw_session(server)
    b = raw_session(server)
    try:
        assert command(a, bytes([wire.OP_SELECT_CHIP, 2])).data == 2
        frame = command(b, bytes([wire.OP_SELECT_CHIP, 2]))
        assert frame.is_error and frame.data == wire.ERR_CHIP_BUSY
        # selecting elsewhere releases the chip
        assert command(a, bytes([wire.OP_SELECT_CHIP, 3])).data == 3
        assert command(b, bytes([wire.OP_SELECT_CHIP, 2])).data == 2
    finally:
        a.close()
        b.close()


def test_disconnect_releases_the_chip(server):
    a = raw_session(server)
    assert command(a, bytes([wire.OP_SELECT_CHIP, 6])).data == 6
    a.close()
    b = raw_session(server)
    try:
        deadline = time.monotonic() + 2.0
        while True:
            frame = command(b, bytes([wire.OP_SELECT_CHIP, 6]))
            if not frame.is_error:
                break
            assert frame.data == wire.ERR_CHIP_BUSY
            assert time.monotonic() < deadline, "chip 6 never released"
            time.sleep(0.05)
    finally:
        b.close()


def test_reads_match_the_chip_bank(server):
    client = HarnessClient(server.endpoint)
    try:
        client.select_chip(7)
        assert client.power_on() == 0
        words_a = client.read_design(0, 64, 16)
        words_b = client.read_design(1, 128, 8)
        again = client.read_design(0, 64, 16)
        client.power_off()
    finally:
        client.close()
    assert np.array_equal(words_a, again)  # stable within one power cycle
    bank = ChipBank(SMALL_DESIGNS, ProcessParams(), seed=SEED)
    snaps = bank.snapshots(7, 0)
    assert np.array_equal(words_a, bits_to_words(snaps["A"].bits))
    assert np.array_equal(words_b, bits_to_words(snaps["B"].bits))


@pytest.mark.parametrize(
    "designs,message",
    [
        ((entry("W", 64, 128, 4, Orientation.R0, "0(8)1(8)"),), "width 128"),
        ((entry("D", 2049, 8, 1, Orientation.R0, "0(8)1(8)"),), "depth 2049"),
        (tuple(entry(f"D{i}", 64, 8, 4, Orientation.R0, "0(8)1(8)") for i in range(12)),
         "at most 11 designs"),
    ],
)
def test_server_rejects_a_floorplan_the_wire_cannot_carry(designs, message):
    before = threading.active_count()
    with pytest.raises(ValueError, match=message):
        ChipServer(designs, ProcessParams(), seed=0)
    assert threading.active_count() == before


def test_client_side_validation(server):
    client = HarnessClient(server.endpoint)
    try:
        with pytest.raises(ValueError):
            client.select_chip(256)
        with pytest.raises(wire.ProtocolError):
            client.select_chip(8)
            client.read_design(0, 64, 16)  # not powered -> in-band error raised
    finally:
        client.close()


def test_connect_to_dead_endpoint_raises_connection_lost():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    endpoint = probe.getsockname()
    probe.close()
    with pytest.raises(ConnectionLost):
        HarnessClient(endpoint)


def test_server_closing_mid_command_raises_connection_lost():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def accept_and_drop():
        conn, _ = listener.accept()
        conn.recv(1)
        conn.close()

    thread = threading.Thread(target=accept_and_drop, daemon=True)
    thread.start()
    client = HarnessClient(listener.getsockname())
    try:
        with pytest.raises(ConnectionLost):
            client.power_on()
    finally:
        client.close()
        listener.close()
        thread.join(timeout=2)


def test_noiseless_bank_repeats_across_cycles():
    params = ProcessParams(sigma_noise=0.0)
    with ChipServer(SMALL_DESIGNS, params, seed=9) as s:
        client = HarnessClient(s.endpoint)
        try:
            client.select_chip(0)
            client.power_on()
            first = client.read_design(0, 64, 16)
            client.power_off()
            client.power_on()
            second = client.read_design(0, 64, 16)
            client.power_off()
        finally:
            client.close()
    assert np.array_equal(first, second)


def test_collect_writes_dumps_manifest_and_floorplan(tmp_path):
    params = ProcessParams()
    out = tmp_path / "dumps"
    with ChipServer(SMALL_DESIGNS, params, seed=777) as s:
        files = collect(s.endpoint, 2, 2, out,
                        designs=SMALL_DESIGNS, params=params, seed=777)
    assert len(files) == 2 * 2 * 2
    assert sorted(p.name for p in files) == sorted(
        f"{d}_chip{c:03d}_cycle{k:02d}.pufdump"
        for d in ("A", "B") for c in range(2) for k in range(2)
    )

    manifest = (out / MANIFEST_NAME).read_text().splitlines()
    assert manifest == [
        "# collection manifest",
        "seed 777",
        "chips 2",
        "cycles 2",
        "designs 2",
        "total_bits 8192",
    ]

    got_params, got_designs = load_config(out / FLOORPLAN_NAME)
    assert got_params == params
    assert got_designs == SMALL_DESIGNS

    bank = ChipBank(SMALL_DESIGNS, params, seed=777)
    for path in files:
        header, words = parse_dump(path.read_text())
        snap = bank.snapshots(header.chip, header.cycle)[header.design]
        assert np.array_equal(words, bits_to_words(snap.bits))
        assert np.array_equal(words_to_bits(words, header.width), snap.bits)


def test_collect_is_byte_deterministic(tmp_path):
    params = ProcessParams()
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        with ChipServer(SMALL_DESIGNS, params, seed=42) as s:
            collect(s.endpoint, 2, 2, out, designs=SMALL_DESIGNS,
                    params=params, seed=42)
        outs.append(out)
    first, second = outs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_collect_validates_counts(tmp_path):
    with pytest.raises(ValueError):
        collect(("127.0.0.1", 1), 0, 1, tmp_path)
    with pytest.raises(ValueError):
        collect(("127.0.0.1", 1), 1, 0, tmp_path)


def test_reconstruction_flip_rate_matches_calibration(tmp_path):
    designs = (entry("N", 1024, 32, 8, Orientation.R90, "0(16)1(16)"),)
    params = ProcessParams()
    out = tmp_path / "dumps"
    with ChipServer(designs, params, seed=4242) as s:
        collect(s.endpoint, 2, 2, out, designs=designs, params=params)
    rates = []
    for chip in range(2):
        readings = []
        for cycle in range(2):
            path = out / f"N_chip{chip:03d}_cycle{cycle:02d}.pufdump"
            header, words = parse_dump(path.read_text())
            readings.append(words_to_bits(words, header.width).reshape(-1))
        rates.append(wchd(readings[0], readings[1]))
    assert 0.0525 <= np.mean(rates) <= 0.0725
