"""Collector client: power-cycles every chip and writes dump files.

Reads are pipelined in windows of a few hundred commands — the server
answers strictly in order, so responses can be consumed as one block per
window.  A lost connection is retried per chip/cycle: the collector
reconnects, reselects the chip and redoes the power cycle, labelling the
dump with whatever cycle index the server reports.
"""

from __future__ import annotations

import socket
from pathlib import Path

import numpy as np

from ..floorplan import DEFAULT_DESIGNS, format_config
from ..simchip import DesignEntry, ProcessParams
from . import protocol as wire
from .dumpfile import DumpHeader, bits_to_words, dump_filename, format_dump

READ_WINDOW = 512  # commands in flight per burst
MANIFEST_NAME = "manifest.txt"
FLOORPLAN_NAME = "floorplan.cfg"


class ConnectionLost(ConnectionError):
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
        self.endpoint = endpoint
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
            raise wire.ProtocolError(f"server rejected command: {name}")
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
        """All words of one design as uint64, pipelined in windows."""
        commands = [
            bytes([wire.OP_READ]) + wire.encode_request(wire.ReadRequest(select, addr))
            for addr in range(depth)
        ]
        rows = []
        for lo in range(0, depth, READ_WINDOW):
            window = commands[lo : lo + READ_WINDOW]
            self._send(b"".join(window))
            raw = _recv_exact(self.sock, wire.FRAME_LEN * len(window))
            rows.append(np.frombuffer(raw, dtype=np.uint8).reshape(-1, wire.FRAME_LEN))
        frames = np.concatenate(rows, axis=0)
        return bits_to_words(wire.decode_data_frames(frames, width))


def collect(
    endpoint: tuple[str, int],
    chips: int,
    cycles: int,
    out_dir,
    designs: tuple[DesignEntry, ...] | None = None,
    params: ProcessParams | None = None,
    seed: int | None = None,
    retries: int = 2,
) -> list[Path]:
    """Dump every (design, chip, cycle) reading from a running server."""
    if chips < 1 or cycles < 1:
        raise ValueError(f"need at least one chip and one cycle, got {chips}/{cycles}")
    designs = designs if designs is not None else DEFAULT_DESIGNS
    params = params if params is not None else ProcessParams()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    client = HarnessClient(endpoint)
    try:
        for chip in range(chips):
            client.select_chip(chip)
            for _ in range(cycles):
                for attempt in range(retries + 1):
                    try:
                        written.extend(_collect_cycle(client, chip, designs, out))
                        break
                    except ConnectionLost:
                        if attempt == retries:
                            raise
                        client.close()
                        client = HarnessClient(endpoint)
                        client.select_chip(chip)
    finally:
        client.close()
    total_bits = chips * cycles * sum(d.geometry.cells for d in designs)
    manifest = [
        "# collection manifest",
        f"chips {chips}",
        f"cycles {cycles}",
        f"designs {len(designs)}",
        f"total_bits {total_bits}",
    ]
    if seed is not None:
        manifest.insert(1, f"seed {seed}")
    (out / MANIFEST_NAME).write_text("\n".join(manifest) + "\n", encoding="utf-8")
    (out / FLOORPLAN_NAME).write_text(format_config(params, designs), encoding="utf-8")
    return written


def _collect_cycle(
    client: HarnessClient,
    chip: int,
    designs: tuple[DesignEntry, ...],
    out: Path,
) -> list[Path]:
    cycle = client.power_on()
    paths = []
    for select, entry in enumerate(designs):
        g = entry.geometry
        words = client.read_design(select, g.depth, g.width)
        header = DumpHeader(
            design=entry.name,
            depth=g.depth,
            width=g.width,
            mux=g.mux,
            orient=entry.orientation.value,
            speed_class=g.speed_class,
            chip=chip,
            cycle=cycle,
        )
        path = out / dump_filename(entry.name, chip, cycle)
        path.write_text(format_dump(header, words), encoding="utf-8")
        paths.append(path)
    client.power_off()
    return paths
