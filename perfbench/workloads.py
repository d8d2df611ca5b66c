"""The benchmark's workloads, their output checks and the golden run.

Each workload generates its inputs from the benchmark seed, drives the
library through the calls the ``srampuf`` CLI makes, and checks every
output after its timed loop.  Library calls go through module
attributes, never through names bound here at import time, so the
tracer's wrappers are seen while they are installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import srampuf.analyze as analyze
import srampuf.chipnet.collector as collector
import srampuf.chipnet.dumpfile as dumpfile
import srampuf.chipnet.protocol as wire
import srampuf.chipnet.server as server
import srampuf.floorplan as floorplan
import srampuf.report as report
import srampuf.simchip as simchip
from tracer import Tracer, covered_seconds, layer_totals

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CYCLES = 10  # power-ups per chip, as in the paper's characterisation
COLLECT_CHIPS = 1  # chips per collect run in collect-bank
# analyze-bank's dump directory: as many bits as 10 chips x 10 cycles, but
# the bias profile averages over chips, and with 10 chips the small baseline
# design's bias direction (so every BD sign) flipped on about 1 seed in 40.
ANALYZE_CHIPS = 25
ANALYZE_CYCLES = 4
PROBE_CHIP_IDS = 256
PROBE_READS = 16
BASELINE = "P1_a"
WCHD_BAND = (0.050, 0.091)
SERVE_STARTS = 5  # serve launches per probe-sessions run; setup_s is their median
# Operations the traced run repeats, each untraced and then traced, after
# one untraced warm-up (fixed, so its counts repeat exactly between commits).
TRACE_OPS = {"collect-bank": 2, "analyze-bank": 2, "probe-sessions": 200}
IO_TIMEOUT_S = 60.0
COLLECT_TIMEOUT_S = 120.0

GOLDEN_SEED = 20260814
GOLDEN_CHIPS = 50
GOLDEN_DUMP_SHA256 = "9f6e5a146ae5d2c5543efd8ac2c8dd9833f57f459be806081701314044048a6d"
GOLDEN_REPORT_SHA256 = "ac4ef9edcf61f4e4a05617f000072e6fb3e413e7a7d349cd732ea1d8338d79dd"

# Per-layer metrics of the traced run: layer -> span statistics reported.
PER_LAYER = {
    "simchip.snapshots": ("calls", "busy_s"),
    "simchip.sample_device": ("calls",),
    "chipnet.protocol.frames_for_bits": ("calls", "busy_s"),
    "chipnet.protocol.encode_request": ("calls", "busy_s"),
    "chipnet.server.read": ("calls", "busy_s"),
    "chipnet.server.power_on": ("busy_s", "self_s"),
    "chipnet.collector.read_design": ("calls", "busy_s", "self_s"),
    "chipnet.dumpfile.format_dump": ("calls", "busy_s"),
    "chipnet.dumpfile.parse_dump": ("calls", "busy_s"),
    "chipnet.dumpfile.words_to_bits": ("calls", "busy_s"),
    "metrics.wchd": ("calls", "busy_s"),
    "metrics.mhw": ("calls", "busy_s"),
    "biasdetect.autocorrelation": ("busy_s",),
    "biasdetect.dominant_period": ("busy_s",),
    "biasdetect.extract_template": ("busy_s",),
    "biasdetect.bias_direction": ("busy_s",),
    "analyze.scan_dump_dir": ("busy_s",),
    "analyze.write_plot_data": ("busy_s",),
    "analyze.analyze_dumps": ("self_s",),
    "report.save_report": ("busy_s",),
    "report.render_table": ("busy_s",),
    "floorplan.format_config": ("busy_s",),
    "floorplan.load_config": ("busy_s",),
}


@dataclass
class Outcome:
    """What one benchmark run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    details: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)  # traced runs only

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        """Record a metric as (value, unit, number of samples behind it)."""
        self.metrics[name] = (float(value), unit, int(samples))

    def op_failed(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {problems[0]}"
                           + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))


# -- statistics ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> float | None:
    """Highest of p99 and p90 that has at least ten of n samples beyond it."""
    for q in (99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def latency_line(label: str, seconds: list[float]) -> str:
    """Median and supported tail of a latency sample, with its count."""
    ms = [s * 1e3 for s in seconds]
    text = f"{label}: p50 {percentile(ms, 50):.4f} ms"
    q = tail_percentile(len(ms))
    if q is not None:
        text += f", p{q:.0f} {percentile(ms, q):.4f} ms"
    return f"{text} (n={len(ms)})"


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, plus its largest reaped child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# -- inputs and checks -------------------------------------------------------

def tree_sha256(directory: Path) -> str:
    """sha256 over ``sha256sum`` lines of every file, names sorted bytewise.

    Equals ``(cd dir && ls | LC_ALL=C sort | xargs sha256sum | sha256sum)``.
    """
    lines = []
    for name in sorted(os.listdir(directory)):
        path = directory / name
        if path.is_dir():
            continue
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}\n")
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def write_floorplan(path: Path) -> None:
    """The default 11-design floorplan, as ``srampuf gen`` writes it."""
    text = floorplan.format_config(simchip.ProcessParams(), floorplan.DEFAULT_DESIGNS)
    path.write_text(text, encoding="utf-8")


def bank_bits(designs) -> int:
    return sum(d.geometry.cells for d in designs)


def check_dumps(out: Path, seed: int, chips: int, params, designs) -> list[str]:
    """Every dump parses back to ChipBank(seed).snapshots(chip, cycle)."""
    problems = []
    bank = simchip.ChipBank(designs, params, seed)
    expected = {collector.MANIFEST_NAME, collector.FLOORPLAN_NAME}
    for chip in range(chips):
        for cycle in range(CYCLES):
            snaps = bank.snapshots(chip, cycle)
            for d in designs:
                name = dumpfile.dump_filename(d.name, chip, cycle)
                expected.add(name)
                try:
                    header, words = dumpfile.parse_dump(
                        (out / name).read_text(encoding="utf-8"))
                except (OSError, ValueError) as e:
                    problems.append(f"{name}: {e}")
                    continue
                if (header.design, header.chip, header.cycle) != (d.name, chip, cycle):
                    problems.append(f"{name}: header says {header.design} "
                                    f"chip {header.chip} cycle {header.cycle}")
                elif not np.array_equal(dumpfile.words_to_bits(words, header.width),
                                        snaps[d.name].bits):
                    problems.append(f"{name}: bits differ from the simulator")
    extra = sorted(set(os.listdir(out)) - expected)
    if extra:
        problems.append(f"unexpected files {extra[:3]}")
    return problems


def check_report(report_dict: dict, table: str, params, designs) -> list[str]:
    """WCHD inside the reliability band and BD signs as the layout predicts."""
    problems = []
    base = next(d for d in designs if d.name == BASELINE)
    base_sign = simchip.orientation_sign(params, base.orientation)
    rows = {r["design"]: r for r in report_dict["rows"]}
    if sorted(rows) != sorted(d.name for d in designs):
        return [f"report rows {sorted(rows)} do not match the floorplan"]
    lo, hi = WCHD_BAND
    for d in designs:
        row = rows[d.name]
        if not (lo <= row["wchd_min"] and row["wchd_max"] <= hi):
            problems.append(f"{d.name}: WCHD {row['wchd_min']:.4f}-{row['wchd_max']:.4f} "
                            f"outside {lo}-{hi}")
        expect = simchip.orientation_sign(params, d.orientation) * base_sign
        if row["direction"] != expect:
            problems.append(f"{d.name}: BD {row['direction']}, layout predicts {expect}")
    if len(table.splitlines()) != 2 + len(designs):
        problems.append("rendered table does not have one line per design")
    return problems


# -- traced runs ------------------------------------------------------------------

def layer_metrics(out: Outcome, records: list[dict], pairs) -> None:
    """Per-layer metrics from spans, plus trace overhead and unattributed time.

    ``pairs`` holds, per operation, its (start, end) untraced and then
    traced; the two ran back to back, so drift in host speed cancels in
    the overhead ratio.  Operations run on the benchmark's main thread,
    which is the thread each workload's result waits on.
    """
    intervals = [traced for _, traced in pairs]
    untraced_s = sum(b - a for (a, b), _ in pairs)
    traced_s = sum(b - a for a, b in intervals)
    out.spans = records
    totals = layer_totals(records)
    for name, keys in PER_LAYER.items():
        t = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key in keys:
            out.metric(f"{name}.{key}", t[key], "count" if key == "calls" else "s",
                       t["calls"])
    snaps = totals.get("simchip.snapshots", {}).get("calls", 0)
    made = totals.get("simchip.sample_device", {}).get("calls", 0)
    designs = len(floorplan.DEFAULT_DESIGNS)
    reuse = 1.0 - made / (snaps * designs) if snaps else 0.0
    out.metric("simchip.device_reuse_ratio", reuse, "ratio", snaps)
    out.metric("trace_overhead_ratio", traced_s / untraced_s, "ratio", len(intervals))
    thread = f"{os.getpid()}:{threading.main_thread().ident}"
    wall = sum(b - a for a, b in intervals)
    loose = wall - sum(covered_seconds(records, thread, a, b) for a, b in intervals)
    out.metric("trace.unattributed_s", loose, "s", len(intervals))
    out.metric("trace.unattributed_ratio", loose / wall, "ratio", len(intervals))
    out.details.append(f"traced {len(intervals)} operations in {traced_s:.3f} s; "
                       f"the same untraced took {untraced_s:.3f} s")


# -- collect-bank -------------------------------------------------------------

def collect_once(out: Path, seed: int, config: Path) -> tuple[float, float, float]:
    """``srampuf collect --config`` with its in-process server.

    Returns perf_counter stamps: start, server ready, collect done.  Set-up
    is loading the floorplan and starting the server; shutdown is in
    neither interval.
    """
    t0 = time.perf_counter()
    params, designs = floorplan.load_config(config)
    srv = server.ChipServer(designs, params, seed)
    srv.start()
    t1 = time.perf_counter()
    try:
        collector.collect(srv.endpoint, COLLECT_CHIPS, CYCLES, out,
                          designs=designs, params=params, seed=seed)
        t2 = time.perf_counter()
    finally:
        srv.shutdown()
    return t0, t1, t2


def collect_bank(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    params, designs = simchip.ProcessParams(), floorplan.DEFAULT_DESIGNS
    config = work / "floorplan.cfg"
    write_floorplan(config)
    rng = np.random.default_rng(seed)
    seeds: list[int] = []

    def op(k: int, tag: str):
        while len(seeds) <= k:
            seeds.append(int(rng.integers(1 << 32)))
        dest = work / f"{tag}{k}"
        return dest, collect_once(dest, seeds[k], config)

    def verify(dest: Path, k: int) -> None:
        out.attempted += 1
        problems = check_dumps(dest, seeds[k], COLLECT_CHIPS, params, designs)
        if problems:
            out.op_failed(dest.name, problems)

    if trace:
        tracer, pairs = Tracer(), []
        verify(op(0, "warm")[0], 0)
        for k in range(1, TRACE_OPS["collect-bank"] + 1):
            ref_dest, ref_t = op(k, "ref")
            with tracer:
                dest, t = op(k, "traced")
            verify(dest, k)
            if tree_sha256(dest) != tree_sha256(ref_dest):
                out.op_failed(dest.name, ["dumps differ from the untraced run"])
            pairs.append(((ref_t[0], ref_t[2]), (t[0], t[2])))
        layer_metrics(out, tracer.records(), pairs)
        return out

    stamps = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        k = len(stamps)
        try:
            stamps.append(op(k, "op")[1])
        except (OSError, ValueError) as e:  # ConnectionLost, ProtocolError
            out.attempted += 1
            out.op_failed(f"op{k}", [repr(e)])
            break
    rss = peak_rss_mb()
    for k in range(len(stamps)):
        verify(work / f"op{k}", k)
    if stamps:
        again, _ = op(0, "repeat")
        if tree_sha256(again) != tree_sha256(work / "op0"):
            out.op_failed("repeat", ["same seed gave different dumps"])
        setups = [t1 - t0 for t0, t1, _ in stamps]
        takes = [t2 - t1 for _, t1, t2 in stamps]
        bits = COLLECT_CHIPS * CYCLES * bank_bits(designs)
        out.metric("setup_s", float(np.median(setups)), "s", len(setups))
        out.metric("mbit_per_s", bits * len(takes) / sum(takes) / 1e6, "Mbit/s", len(takes))
        out.metric("request_p50_ms", percentile(takes, 50) * 1e3, "ms", len(takes))
        out.metric("peak_rss_mb", rss, "MB", 1)
        out.details.append(latency_line(
            f"collect of {COLLECT_CHIPS} chip x {CYCLES} cycles", takes))
    return out


# -- analyze-bank -------------------------------------------------------------

def analyze_once(dumps: Path, dest: Path) -> tuple[tuple[float, float, float], dict, str]:
    """``srampuf analyze`` then ``srampuf report`` on one dump directory.

    Set-up is opening the directory: loading its floorplan and indexing
    its dumps.  Returns (start, set-up done, report rendered), the report
    as loaded back, and the rendered table.
    """
    t0 = time.perf_counter()
    floorplan.load_config(dumps / collector.FLOORPLAN_NAME)
    analyze.scan_dump_dir(dumps)
    t1 = time.perf_counter()
    run = analyze.analyze_dumps(dumps, baseline=BASELINE)
    report.save_report(analyze.analysis_to_report(run), dest / "report.json")
    analyze.write_plot_data(run, dest / "report_plots")
    loaded = report.load_report(dest / "report.json")
    table = report.render_table(loaded)
    t2 = time.perf_counter()
    return (t0, t1, t2), loaded, table


def analyze_bank(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    params, designs = simchip.ProcessParams(), floorplan.DEFAULT_DESIGNS
    config = work / "floorplan.cfg"
    write_floorplan(config)
    rng = np.random.default_rng(seed)
    dumps = work / "dumps"
    # ``srampuf collect`` in its own process, so that neither its memory nor
    # the dumps' write-back to disk lands in the measured passes.
    subprocess.run(
        [sys.executable, "-m", "srampuf.cli", "collect", "--config", str(config),
         "--seed", str(int(rng.integers(1 << 32))), "--chips", str(ANALYZE_CHIPS),
         "--cycles", str(ANALYZE_CYCLES), "--out", str(dumps)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.DEVNULL,
        check=True, timeout=COLLECT_TIMEOUT_S)
    os.sync()
    reference: dict[str, str] = {}

    def op(k: int, tag: str):
        dest = work / f"{tag}{k}"
        dest.mkdir()
        stamps, loaded, table = analyze_once(dumps, dest)
        return dest, stamps, loaded, table

    def verify(dest: Path, loaded: dict, table: str) -> None:
        """Full checks on the first pass; later passes must match it byte for byte."""
        out.attempted += 1
        digest = {"report": tree_sha256(dest), "plots": tree_sha256(dest / "report_plots"),
                  "table": hashlib.sha256(table.encode("utf-8")).hexdigest()}
        if not reference:
            reference.update(digest)
            problems = check_report(loaded, table, params, designs)
        else:
            problems = [f"{key} differs from the first pass"
                        for key in digest if digest[key] != reference[key]]
        if problems:
            out.op_failed(dest.name, problems)
        shutil.rmtree(dest)

    if trace:
        tracer, pairs = Tracer(), []
        dest, _, loaded, table = op(0, "warm")
        verify(dest, loaded, table)
        for k in range(1, TRACE_OPS["analyze-bank"] + 1):
            dest, ref_t, loaded, table = op(k, "ref")
            verify(dest, loaded, table)
            with tracer:
                dest, t, loaded, table = op(k, "traced")
            verify(dest, loaded, table)
            pairs.append(((ref_t[0], ref_t[2]), (t[0], t[2])))
        layer_metrics(out, tracer.records(), pairs)
        return out

    stamps = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        try:
            dest, st, loaded, table = op(len(stamps), "pass")
        except (OSError, ValueError) as e:  # InsufficientData, MissingBaseline, ...
            out.attempted += 1
            out.op_failed(f"pass{len(stamps)}", [repr(e)])
            return out
        stamps.append(st)
        verify(dest, loaded, table)
    rss = peak_rss_mb()
    setups = [t1 - t0 for t0, t1, _ in stamps]
    takes = [t2 - t1 for _, t1, t2 in stamps]
    bits = ANALYZE_CHIPS * ANALYZE_CYCLES * bank_bits(designs)
    out.metric("setup_s", float(np.median(setups)), "s", len(setups))
    out.metric("mbit_per_s", bits * len(takes) / sum(takes) / 1e6, "Mbit/s", len(takes))
    out.metric("request_p50_ms", percentile(takes, 50) * 1e3, "ms", len(takes))
    out.metric("peak_rss_mb", rss, "MB", 1)
    out.details.append(latency_line(
        f"analyze + report of {ANALYZE_CHIPS} chips x {ANALYZE_CYCLES} cycles", takes))
    return out


# -- probe-sessions ----------------------------------------------------------

class ServeProcess:
    """``srampuf serve`` in its own process, plus one client connection.

    ``launcher`` is the argv prefix that runs the CLI: the plain module, or
    the benchmark's traced launcher.
    """

    def __init__(self, launcher: list[str], seed: int, config: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *launcher, "serve", "--config", str(config),
             "--seed", str(seed), "--endpoint", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, env=env)
        self.sock = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], IO_TIMEOUT_S)
            banner = self.proc.stdout.readline() if ready else ""
            if " on " not in banner:
                raise RuntimeError(f"serve printed no banner: {banner!r}")
            host, _, port = banner.rsplit(" on ", 1)[1].strip().rpartition(":")
            self.sock = socket.create_connection((host, int(port)), timeout=IO_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.setup_s = time.perf_counter() - t0

    def command(self, payload: bytes) -> bytes:
        """Send one command and wait for its 9-byte response frame."""
        self.sock.sendall(payload)
        frame = b""
        while len(frame) < wire.FRAME_LEN:
            chunk = self.sock.recv(wire.FRAME_LEN - len(frame))
            if not chunk:
                raise ConnectionError("server closed the connection")
            frame += chunk
        return frame

    def control(self, payload: bytes) -> int:
        frame = wire.decode_response(self.command(payload))
        if frame.is_error:
            raise wire.ProtocolError(wire.ERROR_NAMES.get(frame.data, f"code {frame.data}"))
        return frame.data

    def stop(self) -> None:
        """Close the connection, terminate the server and wait for it to exit.

        SIGTERM, because a server started from a shell that ignores SIGINT
        inherits that and would not stop on it.
        """
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=IO_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Session:
    chip: int
    reads: list[tuple[int, int]]  # (design select, address)
    cycle: int = -1
    frames: list[bytes] = field(default_factory=list)
    power_on_s: float = 0.0
    read_s: list[float] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


def plan_sessions(rng: np.random.Generator, designs, n: int) -> list[Session]:
    depths = np.array([d.geometry.depth for d in designs])
    plans = []
    for _ in range(n):
        chip = int(rng.integers(PROBE_CHIP_IDS))
        selects = rng.integers(len(designs), size=PROBE_READS)
        addrs = (rng.random(PROBE_READS) * depths[selects]).astype(np.int64)
        plans.append(Session(chip, [(int(s), int(a)) for s, a in zip(selects, addrs)]))
    return plans


def run_session(srv: ServeProcess, s: Session) -> None:
    """Select, power on, 16 single-word reads, power off; one round trip each."""
    s.start = time.perf_counter()
    if srv.control(bytes([wire.OP_SELECT_CHIP, s.chip])) != s.chip:
        raise wire.ProtocolError("select echoed another chip")
    t = time.perf_counter()
    s.cycle = srv.control(bytes([wire.OP_POWER_ON]))
    s.power_on_s = time.perf_counter() - t
    for select_, addr in s.reads:
        t = time.perf_counter()
        request = wire.encode_request(wire.ReadRequest(select_, addr))
        s.frames.append(srv.command(bytes([wire.OP_READ]) + request))
        s.read_s.append(time.perf_counter() - t)
    srv.control(bytes([wire.OP_POWER_OFF]))
    s.end = time.perf_counter()


def check_sessions(sessions: list[Session], seed: int, params, designs) -> list[str]:
    """Every read frame equals frames_for_bits of the expected snapshot."""
    bank = simchip.ChipBank(designs, params, seed)
    problems = []
    order = sorted(range(len(sessions)), key=lambda i: (sessions[i].chip, sessions[i].cycle))
    for i in order:
        s = sessions[i]
        snaps = bank.snapshots(s.chip, s.cycle)
        for (select_, addr), frame in zip(s.reads, s.frames):
            bits = snaps[designs[select_].name].bits[addr : addr + 1]
            if wire.frames_for_bits(bits)[0].tobytes() != frame:
                problems.append(f"session {i} chip {s.chip} cycle {s.cycle}: "
                                f"read ({select_}, {addr}) returned a wrong frame")
                break
    return problems


def probe_sessions(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    params, designs = simchip.ProcessParams(), floorplan.DEFAULT_DESIGNS
    config = work / "floorplan.cfg"
    write_floorplan(config)
    rng = np.random.default_rng(seed)
    bank_seed = int(rng.integers(1 << 32))
    plain = ["-m", "srampuf.cli"]
    # Client and server take turns (a closed loop), so they lose nothing by
    # sharing one core, and a round trip no longer depends on whether the
    # scheduler happened to place them on one core or two.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def drive(srv: ServeProcess, plans: list[Session], until: float | None) -> list[Session]:
        done = []
        start = time.perf_counter()
        for s in plans:
            if until is not None and time.perf_counter() - start >= until:
                break
            try:
                run_session(srv, s)
            except (OSError, ValueError) as e:  # ProtocolError is a ValueError
                out.attempted += 1
                out.op_failed(f"session {len(done)}", [repr(e)])
                break
            done.append(s)
        return done

    def verify(sessions: list[Session]) -> None:
        out.attempted += len(sessions)
        for message in check_sessions(sessions, bank_seed, params, designs):
            out.op_failed("probe", [message])

    if trace:
        spans_path = work / "server-spans.json"
        tracer, pairs, done = Tracer(), [], []
        plain_srv = ServeProcess(plain, bank_seed, config)
        try:
            traced_srv = ServeProcess([str(HERE / "serve_traced.py"), str(spans_path)],
                                      bank_seed, config)
            try:
                for s in plan_sessions(rng, designs, TRACE_OPS["probe-sessions"]):
                    twin = Session(s.chip, s.reads)
                    ref = drive(plain_srv, [s], None)
                    with tracer:
                        runs = drive(traced_srv, [twin], None)
                    if out.failed:
                        break
                    done += ref + runs
                    pairs.append(((s.start, s.end), (twin.start, twin.end)))
            finally:
                traced_srv.stop()
        finally:
            plain_srv.stop()
        verify(done)
        server_records = json.loads(spans_path.read_text(encoding="utf-8"))
        offset = len(tracer.spans)
        for r in server_records:
            r["id"] += offset
            if r["parent"] is not None:
                r["parent"] += offset
        layer_metrics(out, tracer.records() + server_records, pairs)
        return out

    setups = []
    for _ in range(SERVE_STARTS - 1):
        warm = ServeProcess(plain, bank_seed, config)
        setups.append(warm.setup_s)
        warm.stop()
    srv = ServeProcess(plain, bank_seed, config)
    setups.append(srv.setup_s)
    try:
        start = time.perf_counter()
        sessions: list[Session] = []
        while time.perf_counter() - start < seconds and out.failed == 0:
            plans = plan_sessions(rng, designs, 64)
            sessions += drive(srv, plans, seconds - (time.perf_counter() - start))
        wall = time.perf_counter() - start
    finally:
        srv.stop()
    rss = peak_rss_mb(children=True)
    verify(sessions)
    power_on = [s.power_on_s for s in sessions]
    reads = [t for s in sessions for t in s.read_s]
    bits = len(sessions) * bank_bits(designs)
    out.metric("setup_s", float(np.median(setups)), "s", len(setups))
    out.metric("mbit_per_s", bits / wall / 1e6, "Mbit/s", len(sessions))
    out.metric("request_p50_ms", percentile(reads, 50) * 1e3, "ms", len(reads))
    out.metric("peak_rss_mb", rss, "MB", 2)
    out.details += [
        f"probe sessions: {len(sessions) / wall:.2f} /s (n={len(sessions)})",
        latency_line("probe power-on", power_on),
        latency_line("probe single-word read", reads),
    ]
    return out


WORKLOADS = {
    "collect-bank": collect_bank,
    "analyze-bank": analyze_bank,
    "probe-sessions": probe_sessions,
}


# -- golden run -----------------------------------------------------------------

def golden(work: Path) -> tuple[bool, list[str]]:
    """The ROADMAP's 50 x 10 run at seed 20260814, checked against its hashes."""
    params, designs = simchip.ProcessParams(), floorplan.DEFAULT_DESIGNS
    dumps, result = work / "dumps", work / "result"
    result.mkdir(parents=True)
    t0 = time.perf_counter()
    with server.ChipServer(designs, params, GOLDEN_SEED) as srv:
        collector.collect(srv.endpoint, GOLDEN_CHIPS, CYCLES, dumps,
                          designs=designs, params=params, seed=GOLDEN_SEED)
    t1 = time.perf_counter()
    run = analyze.analyze_dumps(dumps, baseline=BASELINE)
    report.save_report(analyze.analysis_to_report(run), result / "report.json")
    analyze.write_plot_data(run, result / "report_plots")
    table = report.render_table(report.load_report(result / "report.json"))
    t2 = time.perf_counter()
    dump_hash = tree_sha256(dumps)
    report_hash = hashlib.sha256((result / "report.json").read_bytes()).hexdigest()
    ok = dump_hash == GOLDEN_DUMP_SHA256 and report_hash == GOLDEN_REPORT_SHA256
    lines = table.splitlines() + [
        f"dump directory sha256 {dump_hash} "
        f"({'matches' if dump_hash == GOLDEN_DUMP_SHA256 else 'DIFFERS from'} golden)",
        f"report.json sha256 {report_hash} "
        f"({'matches' if report_hash == GOLDEN_REPORT_SHA256 else 'DIFFERS from'} golden)",
        f"collect {t1 - t0:.2f} s + analyze {t2 - t1:.2f} s = {t2 - t0:.2f} s wall "
        f"({GOLDEN_CHIPS} chips x {CYCLES} cycles, seed {GOLDEN_SEED})",
    ]
    return ok, lines
