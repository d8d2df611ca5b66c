"""TCP server exposing a bank of simulated chips over the readout protocol.

Each client session owns at most one selected chip at a time; selecting a
chip held by another live session is rejected in-band.  Commands within a
session are answered strictly in order, so responses of pipelined requests
arrive in request order.  A run of reads on a powered chip is answered
by one lookup in the power-up's frame table; every other command goes
through the per-opcode loop.  All chip state is a pure function of
(master seed, chip id, cycle index): two servers built from the same seed
answer identical command sequences with identical bytes.

It stops by shutting its listener down, which on Linux wakes the accept
thread's blocked ``accept()`` (a close alone would not), then ends and
joins every live session.
"""

from __future__ import annotations

import signal
import socket
import sys
import threading
import time

import numpy as np

from ..simchip import ChipBank, DesignEntry, ProcessParams
from . import protocol as wire


class _Session:
    def __init__(self, server: "ChipServer", conn: socket.socket):
        self.server = server
        self.conn = conn
        self.chip: int | None = None
        # Power-up frames, None while the chip is off.
        # Row starts[s] + a: design s, address a; last row: error.
        self.frames = self.starts = self.depths = None

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
        self.frames = None
        return wire.encode_control(chip)

    def power_on(self) -> bytes:
        if self.chip is None:
            return wire.encode_error(wire.ERR_NO_CHIP)
        with self.server._lock:
            cycle = self.server._cycles.get(self.chip, 0)
            snaps = self.server.bank.snapshots(self.chip, cycle)
            self.server._cycles[self.chip] = cycle + 1  # only once simulated
        tables = [wire.frames_for_bits(snaps[d.name].bits)
                  for d in self.server.bank.designs]
        error = np.frombuffer(wire.encode_error(wire.ERR_BAD_REQUEST), dtype=np.uint8)
        self.frames = np.concatenate(tables + [error[np.newaxis]])
        self.depths = np.array([len(t) for t in tables] + [0])
        self.starts = np.cumsum(self.depths) - self.depths
        return wire.encode_control(cycle)

    def power_off(self) -> bytes:
        if self.chip is None:
            return wire.encode_error(wire.ERR_NO_CHIP)
        self.frames = None
        return wire.encode_control(0)

    def read(self, payload: bytes) -> bytes:
        if self.chip is None:
            return wire.encode_error(wire.ERR_NO_CHIP)
        if self.frames is None:
            return wire.encode_error(wire.ERR_NOT_POWERED)
        select, address = wire.decode_requests(int.from_bytes(payload, "big"))
        if select >= len(self.server.bank.designs) or address >= self.depths[select]:
            return wire.encode_error(wire.ERR_BAD_REQUEST)
        return self.frames[self.starts[select] + address].tobytes()

    def read_run(self, buf: bytes, pos: int) -> tuple[bytes, int]:
        """Frames for the (at most 2,048) OP_READ commands at buf[pos], and their count.

        Each frame is what read() answers on a powered chip."""
        count = min((len(buf) - pos) // 3, wire.MAX_ADDRESS + 1)
        commands = np.frombuffer(buf, dtype=wire.READ_COMMAND, count=count, offset=pos)
        count = int(np.logical_and.accumulate(commands["op"] == wire.OP_READ).sum())
        select, addr = wire.decode_requests(commands["request"][:count])
        select = np.minimum(select, len(self.depths) - 1)
        rows = np.where(addr < self.depths[select], self.starts[select] + addr, -1)
        return self.frames[rows].tobytes(), count

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
                        if (self.frames is not None and pos + 6 <= len(buf)
                                and buf[pos + 3] == wire.OP_READ):
                            frames, count = self.read_run(buf, pos)
                        else:
                            frames, count = self.read(buf[pos + 1 : pos + 3]), 1
                        out.append(frames)
                        pos += 3 * count
                    else:
                        out.append(wire.encode_error(wire.ERR_UNKNOWN_OPCODE))
                        pos += 1
                buf = buf[pos:]
                if out:
                    self.conn.sendall(b"".join(out))
        except OSError:
            pass
        except Exception as exc:  # a fault in one session ends only that session
            print(f"srampuf serve: session ended: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        finally:
            with self.server._lock:
                self.server._sessions.pop(self, None)
                if self.chip is not None:
                    owner = self.server._owners.get(self.chip)
                    if owner is self:
                        self.server._owners.pop(self.chip, None)
            self.conn.close()


class ChipServer:
    """Serves ``ChipBank(designs, params, seed)``; one thread per client session.

    The caller chooses the floorplan; each design must pass
    ``protocol.check_design``.
    """

    def __init__(
        self,
        designs: tuple[DesignEntry, ...],
        params: ProcessParams,
        seed: int,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        for select, entry in enumerate(designs):
            wire.check_design(select, entry)
        self.bank = ChipBank(designs, params, seed)
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        self._cycles: dict[int, int] = {}
        self._owners: dict[int, _Session] = {}
        self._sessions: dict[_Session, threading.Thread] = {}  # live ones
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None

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
        self._listener = listener
        self._accept_thread = threading.Thread(target=self._accept_loop, args=(listener,),
                                               name="srampuf-accept", daemon=True)
        self._accept_thread.start()
        return self.endpoint

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:  # the listener was shut down
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _Session(self, conn)
            thread = threading.Thread(target=session.run, name="srampuf-session",
                                      daemon=True)
            with self._lock:
                self._sessions[session] = thread
            thread.start()

    def shutdown(self) -> None:
        """Stop accepting, end every live session and wait for its thread."""
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept thread
            except OSError:  # shut down already
                pass
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        self._listener = None  # the accept thread holds its own reference
        with self._lock:
            live = list(self._sessions.items())
        for session, _ in live:
            try:
                session.conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # the session closed it already
                pass
        for _, thread in live:
            thread.join(timeout=5)

    def __enter__(self) -> "ChipServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve(
    designs: tuple[DesignEntry, ...],
    params: ProcessParams,
    seed: int,
    endpoint: tuple[str, int],
) -> None:
    """Run a server on ``endpoint`` until interrupted."""
    server = ChipServer(designs, params, seed, host=endpoint[0], port=endpoint[1])
    # A shell starts a background job with SIGINT ignored, and Python keeps
    # that; the server stops on SIGINT however it was started.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        host, port = server.start()
        print(f"serving chip bank (seed {seed}) on {host}:{port}")
        # A timed sleep returns to the interpreter, which then raises a
        # SIGINT that the kernel delivered to any other thread.
        while True:
            time.sleep(0.25)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGINT, previous)
        server.shutdown()
