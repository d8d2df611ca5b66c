"""TCP server and collector client, exercised against in-process servers."""

import itertools
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import scripted_commands
from srampuf.analyze import analyze_dumps
from srampuf.chipnet import collector
from srampuf.chipnet import protocol as wire
from srampuf.chipnet.collector import (
    FLOORPLAN_NAME,
    MANIFEST_NAME,
    ConnectionLost,
    HarnessClient,
    collect,
)
from srampuf.chipnet.dumpdir import dump_filename, read_plan
from srampuf.chipnet.dumpfile import bits_to_words, parse_dump, words_to_bits
from srampuf.chipnet.server import ChipServer, _Session
from srampuf.cli import main
from srampuf.floorplan import DEFAULT_DESIGNS, format_config, load_config
from srampuf.layout import Geometry, Orientation
from srampuf.metrics import wchd
from srampuf import simchip
from srampuf.simchip import ChipBank, DesignEntry, ProcessParams, sample_device


def entry(name, depth, width, mux, orient, pattern, origin=(0, 0)):
    g = Geometry(depth=depth, width=width, mux=mux)
    return DesignEntry(name, g, orient, pattern, origin)


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


def test_sessions_taking_turns_on_two_chips_fabricate_each_chip_once(monkeypatch):
    calls = []

    def counting(entry, params, chip_seed):
        calls.append(entry.name)
        return sample_device(entry, params, chip_seed)

    monkeypatch.setattr(simchip, "sample_device", counting)
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED) as s:
        socks = [raw_session(s) for _ in range(2)]
        try:
            for chip, sock in enumerate(socks):
                command(sock, bytes([wire.OP_SELECT_CHIP, chip]))
            for cycle in range(3):
                for sock in socks:
                    assert command(sock, bytes([wire.OP_POWER_ON])).data == cycle
        finally:
            for sock in socks:
                sock.close()
    assert len(calls) == 2 * len(SMALL_DESIGNS)


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


def test_shutdown_ends_live_sessions_and_joins_their_threads(monkeypatch):
    run = _Session.run

    def slow_to_exit(session):  # a session thread that outlives its socket
        run(session)
        time.sleep(0.3)

    monkeypatch.setattr(_Session, "run", slow_to_exit)
    before = set(threading.enumerate())
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED) as s:
        clients = [raw_session(s) for _ in range(2)]
        for chip, sock in enumerate(clients):
            assert command(sock, bytes([wire.OP_SELECT_CHIP, chip])).data == chip
        sessions = [t for t in threading.enumerate()
                    if t not in before and t.name == "srampuf-session"]
        assert len(sessions) == 2
    try:
        assert not [t for t in sessions if t.is_alive()]
        for sock in clients:
            assert sock.recv(1) == b""  # the server ended the session
    finally:
        for sock in clients:
            sock.close()


def test_shutdown_wakes_the_accept_thread_blocked_in_accept(monkeypatch):
    # A listener with no timeout: only a wake ends its accept(), no poll does.
    monkeypatch.setattr(socket.socket, "settimeout", lambda sock, timeout: None)
    accept = socket.socket.accept
    accepting = []
    entered = threading.Event()

    def accept_and_tell(sock):
        accepting.append(threading.current_thread())
        entered.set()  # the waiter runs once accept() blocks and lets go of the GIL
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept_and_tell)
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED):
        assert entered.wait(timeout=10)
    assert not accepting[0].is_alive()
    assert accepting[0].name == "srampuf-accept"


def test_shutdown_twice_or_before_start_returns():
    ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED).shutdown()
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED) as s:
        s.shutdown()  # and once more on leaving the block


def test_endpoint_after_shutdown_says_not_started_and_start_works_again():
    s = ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED)
    with s:
        s.endpoint
    with pytest.raises(RuntimeError, match="^server not started$"):
        s.endpoint
    with s:
        sock = raw_session(s)
        try:
            assert command(sock, bytes([wire.OP_SELECT_CHIP, 3])).data == 3
        finally:
            sock.close()


def test_reads_match_the_chip_bank(server):
    client = HarnessClient(server.endpoint)
    try:
        client.select_chip(7)
        assert client._control(bytes([wire.OP_POWER_ON])) == 0
        words_a = client.read_design(0, 64, 16)
        words_b = client.read_design(1, 128, 8)
        again = client.read_design(0, 64, 16)
        client._control(bytes([wire.OP_POWER_OFF]))
    finally:
        client.close()
    assert np.array_equal(words_a, again)  # stable within one power cycle
    bank = ChipBank(SMALL_DESIGNS, ProcessParams(), seed=SEED)
    snaps = bank.snapshots(7, 0)
    assert np.array_equal(words_a, bits_to_words(snaps["A"].bits))
    assert np.array_equal(words_b, bits_to_words(snaps["B"].bits))


def _read(select, address):
    return bytes([wire.OP_READ]) + ((select << 11) | address).to_bytes(2, "big")


def _pipelined_session():
    """Criterion 6's scripted commands with runs of reads spliced in.

    Each run follows a power-on and mixes good reads with malformed ones:
    reserved bit set, select 11-15, address past the design's depth.  One
    run reads a whole design.
    """
    rng = np.random.default_rng(2718)
    depths = [d.geometry.depth for d in DEFAULT_DESIGNS]
    commands = scripted_commands(1000)
    runs = []
    for _ in range(30):
        run = [bytes([wire.OP_POWER_ON])]
        for _ in range(int(rng.integers(2, 40))):
            select = int(rng.integers(0, 11))
            depth = depths[select]
            kind = rng.integers(0, 4)
            if kind == 0:  # in range, often the last address
                address = rng.choice([depth - 1, rng.integers(0, depth)])
            elif kind == 1:
                select, address = 0x10 | select, rng.integers(0, 2048)  # bit 15 set
            elif kind == 2:
                select, address = rng.integers(11, 16), rng.integers(0, 2048)
            else:  # past the depth, often just past it
                address = rng.choice([depth, rng.integers(depth, 2048)])
            run.append(_read(int(select), int(address)))
        runs.append(run)
    whole = wire.read_commands(5, depths[5])
    runs.append([bytes([wire.OP_POWER_ON])]
                + [whole[i : i + 3] for i in range(0, len(whole), 3)])
    for run in runs:
        at = int(rng.integers(1, len(commands)))
        commands[at:at] = run
    return commands


def _replies(commands, cuts):
    """Replies of a fresh seed-123 server to the commands sent in pieces.

    The stream is cut at the byte offsets ``cuts``.  After each piece the
    frames of every command it completes are read, so a command cut in two
    waits in the server's buffer for its second half.
    """
    blob = b"".join(commands)
    ends = np.cumsum([len(c) for c in commands])
    replies = b""
    with ChipServer(DEFAULT_DESIGNS, ProcessParams(), 123) as server:
        sock = raw_session(server)
        try:
            for lo, hi in zip([0, *cuts], [*cuts, len(blob)]):
                sock.sendall(blob[lo:hi])
                due = int(np.searchsorted(ends, hi, side="right")) * wire.FRAME_LEN
                while len(replies) < due:
                    chunk = sock.recv(due - len(replies))
                    assert chunk, "server closed mid-session"
                    replies += chunk
        finally:
            sock.close()
    return replies


def test_pipelined_sends_reproduce_the_one_at_a_time_transcript():
    commands = _pipelined_session()
    ends = [int(e) for e in np.cumsum([len(c) for c in commands])]
    reference = _replies(commands, ends[:-1])
    rng = np.random.default_rng(1618)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, ends[-1]), 80, replace=False))
    assert set(cuts) - set(ends), "no cut falls inside a command"
    assert _replies(commands, []) == reference
    assert _replies(commands, cuts) == reference
    frames = [reference[i : i + wire.FRAME_LEN]
              for i in range(0, len(reference), wire.FRAME_LEN)]
    assert len(frames) == len(commands)
    assert frames.count(wire.encode_error(wire.ERR_BAD_REQUEST)) > 100
    assert sum(frame[0] >> 5 == wire.START_DATA for frame in frames) > 1000


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


def test_a_failed_power_up_uses_no_cycle_and_ends_only_its_session(monkeypatch, capsys):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    snapshots = ChipBank.snapshots
    faults = [RuntimeError("simulated fault")]

    def fail_once(bank, chip, cycle):
        if faults:
            raise faults.pop()
        return snapshots(bank, chip, cycle)

    monkeypatch.setattr(ChipBank, "snapshots", fail_once)
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED) as s:
        with raw_session(s) as sock:
            assert command(sock, bytes([wire.OP_SELECT_CHIP, 3])).data == 3
            sock.sendall(bytes([wire.OP_POWER_ON]))
            assert sock.recv(1) == b""  # the server ended the session
        with raw_session(s) as sock:
            assert command(sock, bytes([wire.OP_SELECT_CHIP, 3])).data == 3
            assert command(sock, bytes([wire.OP_POWER_ON])).data == 0
            assert command(sock, bytes([wire.OP_POWER_ON])).data == 1
    assert not faults and not hooked
    assert capsys.readouterr().err == \
        "srampuf serve: session ended: RuntimeError: simulated fault\n"


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
            client._control(bytes([wire.OP_POWER_ON]))
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
            client._control(bytes([wire.OP_POWER_ON]))
            first = client.read_design(0, 64, 16)
            client._control(bytes([wire.OP_POWER_OFF]))
            client._control(bytes([wire.OP_POWER_ON]))
            second = client.read_design(0, 64, 16)
            client._control(bytes([wire.OP_POWER_OFF]))
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
        collect(("127.0.0.1", 1), 0, 1, tmp_path, SMALL_DESIGNS, ProcessParams())
    with pytest.raises(ValueError):
        collect(("127.0.0.1", 1), 1, 0, tmp_path, SMALL_DESIGNS, ProcessParams())


@pytest.mark.parametrize("design, message", [
    (entry("Deep", 4096, 32, 8, Orientation.R0, "0(8)1(8)"),
     "design 'Deep': depth 4096 exceeds the 2048 addresses"),
    (entry("Wide", 64, 80, 4, Orientation.R0, "0(8)1(8)"),
     "design 'Wide': width 80 exceeds the 64-bit data field"),
])
def test_collect_refuses_a_plan_the_wire_cannot_carry_before_writing(tmp_path, design, message):
    out = tmp_path / "dumps"
    with pytest.raises(ValueError, match=f"^{message}"):
        collect(("127.0.0.1", 1), 1, 1, out, (SMALL_DESIGNS[0], design), ProcessParams())
    assert not out.exists()


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


# -- a connection lost at each point of a power-up ----------------------------


def _lose(client):
    client.close()
    raise ConnectionLost("injected drop")


def _cut_reply(reply_bytes):
    """A receive_power_up that reads ``reply_bytes(reads)`` bytes, then loses the connection."""
    def fault(client, reads):
        collector._recv_exact(client.sock, reply_bytes(reads))
        _lose(client)

    return fault


def _drop_after_sending(client, request):
    client._send(request)  # the server powers up; the connection closes before the reply
    _lose(client)


DEPTH_0 = SMALL_DESIGNS[0].geometry.depth

# point -> (HarnessClient method, the fault, the power-up it loses relative to the
# faulty one).  A power-up's reply is a power-on frame, the data frames of each
# design in turn and a power-off frame; every byte of the request went out.
FAULT_POINTS = {
    "power-on": ("receive_power_up", _cut_reply(lambda reads: 0), 0),
    "mid-read": ("receive_power_up",
                 _cut_reply(lambda reads: wire.FRAME_LEN * (1 + DEPTH_0 // 2)), 0),
    "between-designs": ("receive_power_up",
                        _cut_reply(lambda reads: wire.FRAME_LEN * (1 + DEPTH_0)), 0),
    "power-off": ("receive_power_up",
                  _cut_reply(lambda reads: wire.FRAME_LEN * (reads + 1)), 0),
    # The request of the next power-up, sent before this one's dumps are written.
    "after-prefetch": ("send_power_up", _drop_after_sending, 1),
}
CHIPS, CYCLES = 3, 3


def inject(monkeypatch, point, power_up, every_later_power_up=False):
    """Run the fault at the point of one power-up (0-based), or of it and every later one.

    Returns the power-ups the fault ran at, as they are seen.
    """
    method, fault, lost = FAULT_POINTS[point]
    original, calls, fired = getattr(HarnessClient, method), itertools.count(), []

    def faulty(self, *args):
        nth = next(calls) - lost  # a request is sent during the power-up before its own
        if nth == power_up or every_later_power_up and nth > power_up:
            fired.append(nth)
            return fault(self, *args)
        return original(self, *args)

    monkeypatch.setattr(HarnessClient, method, faulty)
    return fired


def server_cycles(out):
    """(chip, cycle) -> server index, from the manifest's server_cycle lines."""
    lines = (out / MANIFEST_NAME).read_text().splitlines()
    return {(int(c), int(k)): int(i)
            for _, c, k, i in (line.split() for line in lines if line.startswith("server_cycle"))}


def check_collection(out, chips, cycles, seed):
    """Whole cycles labelled 0..cycles-1, nothing else, each dump from its server index."""
    names = {dump_filename(d.name, chip, cycle)
             for d in SMALL_DESIGNS for chip in range(chips) for cycle in range(cycles)}
    assert {p.name for p in out.iterdir()} == names | {MANIFEST_NAME, FLOORPLAN_NAME}
    indices = server_cycles(out)
    bank = ChipBank(SMALL_DESIGNS, ProcessParams(), seed=seed)
    for name in names:
        header, words = parse_dump((out / name).read_bytes())
        index = indices.get((header.chip, header.cycle), header.cycle)
        assert np.array_equal(words_to_bits(words, header.width),
                              bank.snapshots(header.chip, index)[header.design].bits)
    analyze_dumps(out, baseline="A")
    return indices


@pytest.mark.parametrize("point,power_up", [
    *((point, power_up) for point in sorted(FAULT_POINTS) if point != "after-prefetch"
      for power_up in (0, 4, 8)),  # first, middle and last of 3 x 3
    *(("after-prefetch", power_up) for power_up in (0, 4, 7)),  # 8 has no next power-up
])
def test_collect_survives_one_lost_connection(tmp_path, monkeypatch, point, power_up):
    # Each retry races the server dropping the dead session, which holds the chip.
    fired = inject(monkeypatch, point, power_up)
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED) as s:
        collect(s.endpoint, CHIPS, CYCLES, tmp_path, SMALL_DESIGNS, ProcessParams(), SEED)
    assert fired == [power_up]
    chip, cycle = divmod(power_up, CYCLES)
    lost = cycle + FAULT_POINTS[point][2]
    # The lost power-up was counted by the server: that chip's later indices move on one.
    assert check_collection(tmp_path, CHIPS, CYCLES, SEED) == {
        (chip, k): k + 1 for k in range(lost, CYCLES)}


@pytest.mark.parametrize("chip", [0, 1])
def test_collect_survives_a_lost_connection_as_it_selects_a_chip(tmp_path, monkeypatch,
                                                                  chip):
    original, calls = HarnessClient.select_chip, itertools.count()

    def faulty(self, selected):
        if next(calls) == chip:
            self._send(bytes([wire.OP_SELECT_CHIP, selected]))  # the dead session holds it
            _lose(self)
        return original(self, selected)

    monkeypatch.setattr(HarnessClient, "select_chip", faulty)
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED) as s:
        collect(s.endpoint, CHIPS, CYCLES, tmp_path, SMALL_DESIGNS, ProcessParams(), SEED)
    assert check_collection(tmp_path, CHIPS, CYCLES, SEED) == {}


def test_a_chip_held_by_another_session_counts_as_a_failed_attempt(tmp_path, monkeypatch):
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED) as s:
        holder = raw_session(s)
        assert command(holder, bytes([wire.OP_SELECT_CHIP, 0])).data == 0
        pauses = []

        def pause(seconds):  # the holder lets chip 0 go in the last pause
            pauses.append(seconds)
            if len(pauses) == collector.RETRIES:
                assert command(holder, bytes([wire.OP_SELECT_CHIP, 99])).data == 99

        monkeypatch.setattr(collector, "time", SimpleNamespace(sleep=pause))
        try:
            collect(s.endpoint, CHIPS, CYCLES, tmp_path, SMALL_DESIGNS, ProcessParams(), SEED)
        finally:
            holder.close()
    assert pauses == [collector.RETRY_PAUSE_S] * collector.RETRIES
    assert check_collection(tmp_path, CHIPS, CYCLES, SEED) == {}


def test_collect_out_of_retries_exits_1_and_keeps_whole_cycles(tmp_path, monkeypatch,
                                                                 capsys):
    config = tmp_path / "small.cfg"
    config.write_text(format_config(ProcessParams(), SMALL_DESIGNS), encoding="utf-8")
    out = tmp_path / "dumps"
    inject(monkeypatch, "between-designs", CYCLES, every_later_power_up=True)  # chip 1
    rc = main(["collect", "--config", str(config), "--chips", str(CHIPS),
               "--cycles", str(CYCLES), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: injected drop\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [dump_filename(d.name, 0, cycle) for d in SMALL_DESIGNS for cycle in range(CYCLES)]
        + [MANIFEST_NAME, FLOORPLAN_NAME])
    assert read_plan(out) == (ProcessParams(), 0)


def test_a_second_collect_from_one_server_labels_its_own_cycles(tmp_path):
    with ChipServer(SMALL_DESIGNS, ProcessParams(), seed=SEED) as s:
        for out in (tmp_path / "first", tmp_path / "second"):
            collect(s.endpoint, 2, 2, out, SMALL_DESIGNS, ProcessParams(), SEED)
    assert check_collection(tmp_path / "first", 2, 2, SEED) == {}
    assert check_collection(tmp_path / "second", 2, 2, SEED) == {
        (chip, cycle): cycle + 2 for chip in range(2) for cycle in range(2)}


def test_collect_at_the_wire_limits(tmp_path):
    # The largest power-up the wire carries: a 67,586-byte request, 202,770 bytes of reply.
    designs = tuple(entry(f"L{select}", wire.MAX_ADDRESS + 1, 64, 4, Orientation.R0,
                          "0(8)1(8)", origin=(100 * select, 0))
                    for select in range(wire.MAX_SELECT + 1))
    assert len(wire.power_up_request([d.geometry.depth for d in designs])) == 67_586
    outcome = []

    def run():
        with ChipServer(designs, ProcessParams(), seed=SEED) as s:
            outcome.append(collect(s.endpoint, 2, 3, tmp_path, designs, ProcessParams(), SEED))

    thread = threading.Thread(target=run, daemon=True)  # no pytest-timeout here
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "collect at the wire limits did not finish in 30 s"
    [files] = outcome
    assert len(files) == len(designs) * 2 * 3
    bank = ChipBank(designs, ProcessParams(), seed=SEED)
    for chip, cycle in itertools.product(range(2), range(3)):
        snaps = bank.snapshots(chip, cycle)
        for d in designs:
            _, words = parse_dump((tmp_path / dump_filename(d.name, chip, cycle)).read_bytes())
            assert np.array_equal(words_to_bits(words, 64), snaps[d.name].bits)
