"""Collector client: power-cycles every chip and writes dump files.

Each power-up is one write: OP_POWER_ON, every read of every design, then
OP_POWER_OFF.  The server answers strictly in order, so the whole reply is
read as one block of frames.  Once a block is in and the chip has another
cycle to go, the next power-up's request goes out before this block is
decoded and written, so the server simulates cycle k+1 while the client
decodes and writes cycle k.  The prefetch has two limits:

- none across chips: a ``select_chip`` answered "busy" leaves the session on
  its previous chip, so a power-on queued behind it would power that chip up
  again.  Each chip's select is its own round trip.
- at most one request in flight: a request goes out only after the previous
  reply has been read in full.  The largest request the wire allows,
  2 + 11 x 2,048 x 3 = 67,586 bytes, fits Linux's 128 KB default loopback
  receive buffer, so the client's write never waits on frames it has not
  read.

A power-up's dumps are written once its whole reply is read, under the
collector's own cycle count, so a power-up retried after a lost
connection rewrites the same names.  ``manifest.txt`` and ``floorplan.cfg``
are written before the first power-up.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path

import numpy as np

from ..simchip import DesignEntry, ProcessParams
from . import protocol as wire
from .dumpdir import FLOORPLAN_NAME, MANIFEST_NAME, write_cycle, write_manifest  # noqa: F401

# Reconnects per power-up; finding the chip still held by the dropped
# session also counts as a failed attempt, after the pause.
RETRIES = 2
RETRY_PAUSE_S = 0.2


class ConnectionLost(ConnectionError):
    pass


class ChipBusy(wire.ProtocolError):
    pass


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 16))
        except OSError as e:
            raise ConnectionLost(str(e)) from e
        if not chunk:
            raise ConnectionLost(f"server closed with {remaining} bytes outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class HarnessClient:
    """One protocol session against a readout server."""

    def __init__(self, endpoint: tuple[str, int]):
        try:
            self.sock = socket.create_connection(endpoint, timeout=30)
        except OSError as e:
            raise ConnectionLost(f"cannot connect to {endpoint}: {e}") from e
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def _send(self, payload: bytes) -> None:
        try:
            self.sock.sendall(payload)
        except OSError as e:
            raise ConnectionLost(str(e)) from e

    def _control(self, payload: bytes) -> int:
        self._send(payload)
        return _acknowledged(_recv_exact(self.sock, wire.FRAME_LEN))

    def select_chip(self, chip: int) -> None:
        if not 0 <= chip <= wire.MAX_CHIP:
            raise ValueError(f"chip id {chip} outside [0, {wire.MAX_CHIP}]")
        echoed = self._control(bytes([wire.OP_SELECT_CHIP, chip]))
        if echoed != chip:
            raise wire.ProtocolError(f"select echoed {echoed}, expected {chip}")

    def read_design(self, select: int, depth: int, width: int) -> np.ndarray:
        """All words of one design as uint64, from one write of all its reads."""
        self._send(wire.read_commands(select, depth))
        frames = _recv_exact(self.sock, wire.FRAME_LEN * depth)
        return wire.decode_data_frames(frames, width)

    def send_power_up(self, request: bytes) -> None:
        """Send a ``protocol.power_up_request``; ``receive_power_up`` takes its reply."""
        self._send(request)

    def receive_power_up(self, reads: int) -> tuple[int, memoryview]:
        """Server cycle index and data frames of a power-up of ``reads`` reads.

        The power-on and power-off acknowledgements are checked here; the
        data frames are left for ``decode_power_up``.
        """
        reply = memoryview(_recv_exact(self.sock, wire.FRAME_LEN * (reads + 2)))
        index = _acknowledged(reply[: wire.FRAME_LEN])
        _acknowledged(reply[-wire.FRAME_LEN :])
        return index, reply[wire.FRAME_LEN : -wire.FRAME_LEN]


def _acknowledged(frame: bytes) -> int:
    """Data field of a control frame; an error frame raises, ChipBusy for a held chip."""
    reply = wire.decode_response(frame)
    if reply.is_error:
        name = wire.ERROR_NAMES.get(reply.data, f"code {reply.data}")
        error = ChipBusy if reply.data == wire.ERR_CHIP_BUSY else wire.ProtocolError
        raise error(f"server rejected command: {name}")
    return reply.data


def decode_power_up(frames, designs: tuple[DesignEntry, ...]) -> list[np.ndarray]:
    """Each design's words from the data frames of one power-up, in select order."""
    words, start = [], 0
    for d in designs:
        end = start + wire.FRAME_LEN * d.geometry.depth
        words.append(wire.decode_data_frames(frames[start:end], d.geometry.width))
        start = end
    return words


def collect(endpoint: tuple[str, int], chips: int, cycles: int, out_dir,
            designs: tuple[DesignEntry, ...], params: ProcessParams,
            seed: int | None = None) -> list[Path]:
    """Dump every (design, chip, cycle) reading from a running server.

    ``designs`` and ``params`` are the server's plan and go to
    ``floorplan.cfg``; ``seed`` goes to ``manifest.txt``, unless it is
    ``None`` (unknown).  Each design must pass the server's
    ``protocol.check_design`` before anything is written.

    Each power-up is one request and one block of reply frames.  The next
    power-up of the same chip is requested before this one's frames are
    decoded and written; see the module docstring for the two limits.  A
    power-up whose reply is cut off is retried on a new connection.
    """
    if chips < 1 or cycles < 1:
        raise ValueError(f"need at least one chip and one cycle, got {chips}/{cycles}")
    if chips > wire.MAX_CHIP + 1:
        raise ValueError(f"chip ids are one byte, so at most {wire.MAX_CHIP + 1} chips, "
                         f"got {chips}")
    for select, d in enumerate(designs):
        wire.check_design(select, d)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # The plan goes down first, so a collect cut short still leaves its
    # seed and floorplan beside the whole cycles it wrote.
    write_manifest(out, chips, cycles, designs, params, seed, ())
    depths = [d.geometry.depth for d in designs]
    request, reads = wire.power_up_request(depths), sum(depths)
    written: list[Path] = []
    server_cycles = []
    sent = False  # this power-up's request went out while the last one was decoded
    client = HarnessClient(endpoint)
    try:
        for chip in range(chips):
            for cycle in range(cycles):
                for attempt in range(RETRIES + 1):
                    try:
                        if attempt:
                            client.close()
                            time.sleep(RETRY_PAUSE_S)
                            client = HarnessClient(endpoint)
                        if attempt or cycle == 0:
                            client.select_chip(chip)
                        if attempt or not sent:
                            client.send_power_up(request)
                        index, frames = client.receive_power_up(reads)
                        break
                    except (ConnectionLost, ChipBusy):
                        if attempt == RETRIES:
                            raise
                sent = cycle + 1 < cycles
                if sent:
                    try:
                        client.send_power_up(request)
                    except ConnectionLost:  # the next power-up's receive fails and retries
                        pass
                words = decode_power_up(frames, designs)
                written.extend(write_cycle(out, chip, cycle, designs, words))
                if index != cycle:
                    server_cycles.append((chip, cycle, index))
    finally:
        client.close()
        if server_cycles:
            write_manifest(out, chips, cycles, designs, params, seed, server_cycles)
    return written
