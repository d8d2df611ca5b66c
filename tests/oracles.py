"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own code paths: direct
summation instead of FFT, per-phase folding instead of spectral peaks,
string assembly instead of integer shifting.  Slow but obviously correct.
The plot-file writer that formats every value with its own ``%.8f`` gives
the reference bytes for plot files.  A dump read one regex per line, then
held to the text ``format_dump_lines`` writes for what was read, gives the
reference words and errors of the dump reader and, one file at a time, the
reference bits and errors of ``load_bits``, whose packed readings the tests
unpack to compare.  A
glob, a lenient name regex and a round trip through ``dump_filename`` give
the reference index and refusals of ``scan_dump_dir``.
The simulator as it stood with two arrays per device, mismatch and
imprint, summed again at every power-up, gives the reference latent and
bits of ``simchip``.  The scripted session of criterion 6 lives here too:
sent one command at a time, it is the reference transcript that pipelined
sends must reproduce.
So does the strategy for random floorplans inside the wire limits, and
the closed forms of PAPER.md's process model.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from srampuf.biasdetect import InsufficientData
from srampuf.chipnet import protocol as wire
from srampuf.chipnet.dumpdir import _NAMED, _named, dump_filename
from srampuf.chipnet.dumpfile import DumpFormatError, decode_dump, parse_header, words_to_bits
from srampuf.layout import Geometry, Orientation
from srampuf.patterns import parse_run_length
from srampuf.simchip import (
    DesignEntry,
    ProcessParams,
    Snapshot,
    derive_seed,
    orientation_sign,
)


def autocorr_direct(v, lags=None):
    """Mean-removed, biased-normalized autocorrelation by direct summation.

    r(l) = sum_i (v_i - mean)(v_{i+l} - mean) / sum_i (v_i - mean)^2
    over the overlapping samples, matching the zero-padded convention.
    """
    x = np.asarray(v, dtype=np.float64).ravel()
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if lags is None:
        lags = range(x.size // 2 + 1)
    return {int(l): float(np.dot(x[: x.size - l], x[l:])) / denom for l in lags}


def fold_score(v, period):
    """Between-phase variance of phase-folded means, sampling-debiased.

    The raw between-phase variance of the folded means overstates the
    structure by the mean sampling variance sigma_phi^2 / n_phi of each
    phase mean; subtracting it makes pure noise score ~zero so that a
    planted period and its multiples score equal in expectation.
    """
    x = np.asarray(v, dtype=np.float64).ravel()
    grand = x.mean()
    phases = np.arange(x.size) % period
    n = np.bincount(phases, minlength=period)
    s1 = np.bincount(phases, weights=x, minlength=period)
    s2 = np.bincount(phases, weights=x * x, minlength=period)
    mean = s1 / n
    between = (mean - grand) ** 2
    # unbiased per-phase variance, guarded for single-sample phases
    var = np.where(n > 1, (s2 / n - mean**2) * n / np.maximum(n - 1, 1), 0.0)
    return float(np.mean(between - var / n))


def brute_force_period(v, max_period=256):
    """Phase-folding period search: smallest period within 5% of the top score.

    Scores every candidate; multiples of the true period tie with it in
    expectation, so the fundamental is the smallest member of the near-tie
    group.
    """
    x = np.asarray(v, dtype=np.float64).ravel()
    top = min(max_period, x.size // 2)
    scores = {p: fold_score(x, p) for p in range(2, top + 1)}
    best = max(scores.values())
    if best <= 0:
        return None
    for p in sorted(scores):
        if scores[p] >= 0.95 * best:
            return p
    return None


def majority_template(vectors, period):
    """Per-phase majority across vectors, ties to 0; plain Counter loop."""
    counts = [Counter() for _ in range(period)]
    for vec in vectors:
        for i, bit in enumerate(np.asarray(vec).ravel().tolist()):
            counts[i % period][int(bit)] += 1
    return np.array(
        [1 if c[1] > c[0] else 0 for c in counts],
        dtype=np.uint8,
    )


def assemble_frame(data_bits):
    """Hand bit-assembly of a 9-byte frame: 101 + 64 data bits + 010 + 00."""
    stream = "101" + "".join(str(b) for b in data_bits) + "010" + "00"
    assert len(stream) == 72
    return int(stream, 2).to_bytes(9, "big")


def format_dump_lines(header, words):
    """Dump text assembled one f-string per line."""
    digits = -(-header.width // 4)
    lines = [
        "#PUFDUMP v1",
        f"#design {header.design} depth={header.depth} width={header.width} "
        f"mux={header.mux} orient={header.orient} class={header.speed_class}",
        f"#chip {header.chip} cycle {header.cycle}",
    ]
    lines.extend(f"{addr:04x}: {int(word):0{digits}x}" for addr, word in enumerate(words))
    return "\n".join(lines) + "\n"


def parse_dump_lines(text):
    """Word values of a well-formed dump, one int(..., 16) per body line."""
    lines = text.split("\n")
    assert lines[-1] == "", "dump text must end with a newline"
    words = []
    for addr, line in enumerate(lines[3:-1]):
        address, word = line.split(": ")
        assert int(address, 16) == addr
        words.append(int(word, 16))
    return np.array(words, dtype=np.uint64)


_BODY_RE = re.compile(r"([0-9a-f]{4}): ([0-9a-f]+)$")


def parse_lines(text):
    """Header and words of a dump, one regex per line split at any line end, so it also
    takes line ends and header numbers the writer never writes; errors name the line."""
    lines = text.splitlines()
    header = parse_header(lines[:3])
    body = lines[3:]
    if len(body) != header.depth:
        raise DumpFormatError(f"{len(body)} body lines for depth {header.depth}")
    digits = -(-header.width // 4)
    words = np.zeros(header.depth, dtype=np.uint64)
    for addr, line in enumerate(body):
        m = _BODY_RE.match(line)
        if not m or len(m.group(2)) != digits:
            raise DumpFormatError(f"bad body line {addr}: {line!r}")
        if int(m.group(1), 16) != addr:
            raise DumpFormatError(f"address {m.group(1)} out of order at line {addr}")
        value = int(m.group(2), 16)
        if header.width < 64 and value >> header.width:
            raise DumpFormatError(f"word {m.group(2)} wider than {header.width} bits")
        words[addr] = value
    return header, words


def parse_written(text):
    """``parse_lines``, then the text must be what ``format_dump_lines`` writes for the
    header and words read; else the error names the first line that differs."""
    header, words = parse_lines(text)
    written = format_dump_lines(header, words).splitlines(True)
    for n, (got, want) in enumerate(zip(text.splitlines(True), written), 1):
        if got != want:
            raise DumpFormatError(f"line {n} is {got!r}, not {want!r}")
    return header, words


def unpack_octets(octets: np.ndarray, width: int) -> np.ndarray:
    """(words, width) bit matrix of big-endian word bytes; bit b of each word in column b."""
    return np.unpackbits(octets[:, ::-1], axis=1, bitorder="little")[:, :width]


def decode_bits(raw):
    """Header and (depth, width) bit matrix of a dump; bit b of each word in column b."""
    header, octets = decode_dump(raw)
    return header, unpack_octets(octets, header.width)


_NAME_RE = re.compile(r"(?P<design>.+)_chip(?P<chip>\d+)_cycle(?P<cycle>\d+)\.pufdump")


def scan_dump_dir_by_glob(dump_dir):
    """``dumpdir.scan_dump_dir``: a glob, then per path a regex and a round trip of its name."""
    root = Path(dump_dir)
    index = {}
    for path in sorted(root.glob("*.pufdump"), key=lambda p: p.name):
        m = _NAME_RE.fullmatch(path.name)
        key = m and (m["design"], int(m["chip"]), int(m["cycle"]))
        if not key or dump_filename(*key) != path.name:
            raise InsufficientData(f"{path.name}: not a dump name; the collector writes "
                                   f"names like {dump_filename('P1_a', 7, 3)}")
        index.setdefault(key[0], {})[key[1:]] = path.name
    if not index:
        raise InsufficientData(f"no .pufdump files under {root}")
    return index


def load_bits_per_file(dump_dir, design, files, chips, cycles):
    """``dumpdir.load_bits``, unpacked, as one read and one ``parse_written`` per file,
    in grid order."""
    first = bits = None
    for i, chip in enumerate(chips):
        for j, cycle in enumerate(cycles):
            path = Path(dump_dir, files[(chip, cycle)])
            with _named(path):
                header, words = parse_written(path.read_bytes().decode("utf-8"))
            matrix = words_to_bits(words, header.width)
            got = vars(header)  # field name -> value, in field order
            expected = {**vars(first or header), "design": design, "chip": chip, "cycle": cycle}
            if got != expected:
                name = next(key for key in got if got[key] != expected[key])
                source = "its file name" if name in _NAMED else f"other {design} dumps"
                raise InsufficientData(f"{path.name}: {name} disagrees with {source}")
            if first is None:
                first = header
                bits = np.empty((len(chips), len(cycles), header.depth * header.width), np.uint8)
            bits[i, j] = matrix.reshape(-1)
    return first, bits


def write_columns(path, title, values):
    """The plot-file writer that formats every value anew: the reference bytes."""
    values = values.tolist()
    cells = [None] * (2 * len(values))
    cells[0::2] = range(len(values))
    cells[1::2] = values
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(title + "%d %.8f\n" * len(values) % tuple(cells))


def scripted_commands(n=1000):
    """Seeded session commands of every opcode, one bytes object each.

    Reads cover every select and address the wire allows, so many fall past
    a design's depth; chips 0-3 and power cycles interleave with them.
    """
    rng = np.random.default_rng(987654321)
    commands = [bytes([wire.OP_SELECT_CHIP, 0])]
    while len(commands) < n:
        roll = rng.random()
        if roll < 0.10:
            commands.append(bytes([wire.OP_SELECT_CHIP, int(rng.integers(0, 4))]))
        elif roll < 0.22:
            commands.append(bytes([wire.OP_POWER_ON]))
        elif roll < 0.27:
            commands.append(bytes([wire.OP_POWER_OFF]))
        elif roll < 0.30:
            commands.append(bytes([0x7F]))  # unknown opcode
        else:
            req = wire.ReadRequest(int(rng.integers(0, 11)),
                                   int(rng.integers(0, 2048)))
            commands.append(bytes([wire.OP_READ]) + wire.encode_request(req))
    return commands


_ORACLE_RUN = re.compile(r"([01])\((\d+)\)")


def pattern_bit(text, k):
    """Bit k of a run-length pattern, by literal run walking."""
    runs = [(int(b), int(n)) for b, n in _ORACLE_RUN.findall(text)]
    if len(runs) % 2 and len(runs) > 1:
        offset, block = runs[0], runs[1:]
    else:
        offset, block = (0, 0), runs
    if k < offset[1]:
        return offset[0]
    k = (k - offset[1]) % sum(length for _, length in block)
    for bit, length in block:
        if k < length:
            return bit
        k -= length


def parse_rendered_table(text):
    """Cells of a rendered results table as dicts keyed by column header."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    headers = [h.strip() for h in lines[0].split(" | ")]
    assert not set(lines[1]) - set("-+"), "missing header rule"
    rows = []
    for ln in lines[2:]:
        cells = [c.strip() for c in ln.split(" | ")]
        assert len(cells) == len(headers), ln
        rows.append(dict(zip(headers, cells)))
    return rows


@st.composite
def designs(draw):
    """One to four designs inside the wire limits, every orientation and even width."""
    entries = []
    for i in range(draw(st.integers(1, 4))):
        mux = draw(st.sampled_from([1, 2, 4]))
        geometry = Geometry(depth=mux * draw(st.integers(1, 256 // mux)),
                            width=2 * draw(st.integers(1, 32)), mux=mux,
                            speed_class=draw(st.sampled_from(["fast", "slow"])))
        orientation = draw(st.sampled_from(list(Orientation)))
        pattern = f"0({draw(st.integers(1, 40))})1({draw(st.integers(1, 40))})"
        entries.append(DesignEntry(f"D{i}", geometry, orientation, pattern, (100 * i, 0)))
    return tuple(entries)


@dataclass(frozen=True)
class _TwoArrayDevice:
    design: DesignEntry
    mismatch: np.ndarray  # (depth, width) static per-cell mismatch
    imprint: np.ndarray  # (depth*width,) +-beta along readout order


def _sample_device(entry: DesignEntry, params: ProcessParams, chip_seed: int) -> _TwoArrayDevice:
    g = entry.geometry
    sign = orientation_sign(params, entry.orientation)
    rng = np.random.default_rng(derive_seed(chip_seed, "mismatch", entry.name))
    mismatch = rng.standard_normal((g.depth, g.width)) * params.sigma_mismatch
    pattern_signs = parse_run_length(entry.pattern).signs(g.cells)
    imprint = sign * params.beta * pattern_signs
    return _TwoArrayDevice(design=entry, mismatch=mismatch, imprint=imprint)


def _power_up(dev: _TwoArrayDevice, params: ProcessParams, cycle_seed: int) -> Snapshot:
    g = dev.design.geometry
    latent = dev.mismatch.reshape(-1) + dev.imprint
    if params.sigma_noise > 0:
        rng = np.random.default_rng(derive_seed(cycle_seed, "noise", dev.design.name))
        noise = rng.standard_normal(g.cells)
        noise *= params.sigma_noise
        latent += noise
    return Snapshot(bits=np.greater(latent, 0).view(np.uint8).reshape(g.depth, g.width))


def power_up_reference(entry, params, chip_seed, cycle_seed):
    """(mismatch + imprint, power-up bits) of one device by the two-array simulator."""
    dev = _sample_device(entry, params, chip_seed)
    return dev.mismatch.reshape(-1) + dev.imprint, _power_up(dev, params, cycle_seed).bits


def one_probability(params: ProcessParams, imprint_sign: int) -> float:
    """Probability that a cell whose imprint is ``imprint_sign`` * beta powers up to 1:
    Phi(imprint_sign * beta / sqrt(sigma_mismatch^2 + sigma_noise^2)), both Gaussian."""
    z = imprint_sign * params.beta / math.hypot(params.sigma_mismatch, params.sigma_noise)
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
