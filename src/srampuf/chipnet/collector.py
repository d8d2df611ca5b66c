"""Collector client: power-cycles every chip and writes dump files.

Each design is read with one write of all its read commands; the server
answers strictly in order, so the frames are consumed as one block per
design.  A power-up's dumps are written once all its designs are read, under
the collector's own cycle count, so a power-up retried after a lost
connection rewrites the same names.  ``manifest.txt`` and ``floorplan.cfg``
are written before the first power-up.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path

import numpy as np

from ..floorplan import DEFAULT_DESIGNS
from ..simchip import DesignEntry, ProcessParams
from . import protocol as wire
from .dumpdir import FLOORPLAN_NAME, MANIFEST_NAME, write_cycle, write_manifest  # noqa: F401
from .dumpfile import bits_to_words

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
        frame = wire.decode_response(_recv_exact(self.sock, wire.FRAME_LEN))
        if frame.is_error:
            name = wire.ERROR_NAMES.get(frame.data, f"code {frame.data}")
            error = ChipBusy if frame.data == wire.ERR_CHIP_BUSY else wire.ProtocolError
            raise error(f"server rejected command: {name}")
        return frame.data

    def select_chip(self, chip: int) -> None:
        if not 0 <= chip <= 0xFF:
            raise ValueError(f"chip id {chip} outside [0, 255]")
        echoed = self._control(bytes([wire.OP_SELECT_CHIP, chip]))
        if echoed != chip:
            raise wire.ProtocolError(f"select echoed {echoed}, expected {chip}")

    def power_on(self) -> int:
        """Returns the server-side cycle index of this power-up."""
        return self._control(bytes([wire.OP_POWER_ON]))

    def power_off(self) -> None:
        self._control(bytes([wire.OP_POWER_OFF]))

    def read_design(self, select: int, depth: int, width: int) -> np.ndarray:
        """All words of one design as uint64, from one write of all its reads.

        At most 6 KB of commands: the write never waits on unread frames."""
        self._send(wire.read_commands(select, depth))
        frames = np.frombuffer(_recv_exact(self.sock, wire.FRAME_LEN * depth), np.uint8)
        return bits_to_words(wire.decode_data_frames(frames.reshape(depth, -1), width))


def collect(endpoint: tuple[str, int], chips: int, cycles: int, out_dir,
            designs: tuple[DesignEntry, ...] | None = None,
            params: ProcessParams | None = None, seed: int | None = None) -> list[Path]:
    """Dump every (design, chip, cycle) reading from a running server."""
    if chips < 1 or cycles < 1:
        raise ValueError(f"need at least one chip and one cycle, got {chips}/{cycles}")
    designs = designs if designs is not None else DEFAULT_DESIGNS
    params = params if params is not None else ProcessParams()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # The plan goes down first, so a collect cut short still leaves its
    # seed and floorplan beside the whole cycles it wrote.
    write_manifest(out, chips, cycles, designs, params, seed, ())
    written: list[Path] = []
    server_cycles = []
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
                        index = client.power_on()
                        words = [client.read_design(select, d.geometry.depth, d.geometry.width)
                                 for select, d in enumerate(designs)]
                        client.power_off()
                        break
                    except (ConnectionLost, ChipBusy):
                        if attempt == RETRIES:
                            raise
                written.extend(write_cycle(out, chip, cycle, designs, words))
                if index != cycle:
                    server_cycles.append((chip, cycle, index))
    finally:
        client.close()
        if server_cycles:
            write_manifest(out, chips, cycles, designs, params, seed, server_cycles)
    return written

