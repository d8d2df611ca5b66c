"""TCP server exposing a bank of simulated chips over the readout protocol.

Each client session owns at most one selected chip at a time; selecting a
chip held by another live session is rejected in-band.  Commands within a
session are answered strictly in order, so responses of pipelined requests
arrive in request order.  All chip state is a pure function of
(master seed, chip id, cycle index): two servers built from the same seed
answer identical command sequences with identical bytes.
"""

from __future__ import annotations

import socket
import threading

from ..floorplan import DEFAULT_DESIGNS
from ..simchip import ChipBank, DesignEntry, ProcessParams
from . import protocol as wire


class _Session:
    def __init__(self, server: "ChipServer", conn: socket.socket):
        self.server = server
        self.conn = conn
        self.chip: int | None = None
        self.powered = False
        self.frames: list | None = None  # per-design (depth, 9) byte tables

    # -- command handlers ------------------------------------------------

    def select_chip(self, chip: int) -> bytes:
        with self.server._lock:
            owner = self.server._owners.get(chip)
            if owner is not None and owner is not self:
                return wire.encode_error(wire.ERR_CHIP_BUSY)
            if self.chip is not None and self.chip != chip:
                self.server._owners.pop(self.chip, None)
            self.server._owners[chip] = self
        self.chip = chip
        self.powered = False
        self.frames = None
        return wire.encode_control(chip)

    def power_on(self) -> bytes:
        if self.chip is None:
            return wire.encode_error(wire.ERR_NO_CHIP)
        with self.server._lock:
            cycle = self.server._cycles.get(self.chip, 0)
            self.server._cycles[self.chip] = cycle + 1
            snaps = self.server.bank.snapshots(self.chip, cycle)
        self.frames = [
            wire.frames_for_bits(snaps[d.name].bits) for d in self.server.bank.designs
        ]
        self.powered = True
        return wire.encode_control(cycle)

    def power_off(self) -> bytes:
        if self.chip is None:
            return wire.encode_error(wire.ERR_NO_CHIP)
        self.powered = False
        self.frames = None
        return wire.encode_control(0)

    def read(self, payload: bytes) -> bytes:
        if self.chip is None:
            return wire.encode_error(wire.ERR_NO_CHIP)
        if not self.powered:
            return wire.encode_error(wire.ERR_NOT_POWERED)
        try:
            request = wire.decode_request(payload)
        except ValueError:
            return wire.encode_error(wire.ERR_BAD_REQUEST)
        if request.puf_select >= len(self.server.bank.designs):
            return wire.encode_error(wire.ERR_BAD_REQUEST)
        table = self.frames[request.puf_select]
        if request.address >= table.shape[0]:
            return wire.encode_error(wire.ERR_BAD_REQUEST)
        return table[request.address].tobytes()

    # -- stream loop -------------------------------------------------------

    def run(self) -> None:
        buf = b""
        try:
            while True:
                chunk = self.conn.recv(1 << 16)
                if not chunk:
                    break
                buf += chunk
                out = []
                pos = 0
                while pos < len(buf):
                    opcode = buf[pos]
                    if opcode == wire.OP_SELECT_CHIP:
                        if pos + 2 > len(buf):
                            break
                        out.append(self.select_chip(buf[pos + 1]))
                        pos += 2
                    elif opcode == wire.OP_POWER_OFF:
                        out.append(self.power_off())
                        pos += 1
                    elif opcode == wire.OP_POWER_ON:
                        out.append(self.power_on())
                        pos += 1
                    elif opcode == wire.OP_READ:
                        if pos + 3 > len(buf):
                            break
                        out.append(self.read(buf[pos + 1 : pos + 3]))
                        pos += 3
                    else:
                        out.append(wire.encode_error(wire.ERR_UNKNOWN_OPCODE))
                        pos += 1
                buf = buf[pos:]
                if out:
                    self.conn.sendall(b"".join(out))
        except OSError:
            pass
        finally:
            with self.server._lock:
                if self.chip is not None:
                    owner = self.server._owners.get(self.chip)
                    if owner is self:
                        self.server._owners.pop(self.chip, None)
            self.conn.close()


class ChipServer:
    """Serves a simulated chip bank; one thread per client session."""

    def __init__(
        self,
        designs: tuple[DesignEntry, ...] | None = None,
        params: ProcessParams | None = None,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        designs = designs if designs is not None else DEFAULT_DESIGNS
        for select, entry in enumerate(designs):
            wire.check_design(select, entry)
        self.bank = ChipBank(designs, params, seed)
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        self._cycles: dict[int, int] = {}
        self._owners: dict[int, _Session] = {}
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()

    @property
    def endpoint(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(8)
        listener.settimeout(0.25)  # lets the accept loop notice shutdown
        self._listener = listener
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self.endpoint

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _Session(self, conn)
            threading.Thread(target=session.run, daemon=True).start()

    def shutdown(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def __enter__(self) -> "ChipServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve(
    designs: tuple[DesignEntry, ...] | None,
    params: ProcessParams | None,
    seed: int,
    endpoint: tuple[str, int],
) -> None:
    """Run a server on ``endpoint`` until interrupted."""
    server = ChipServer(designs, params, seed, host=endpoint[0], port=endpoint[1])
    host, port = server.start()
    print(f"serving chip bank (seed {seed}) on {host}:{port}")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
