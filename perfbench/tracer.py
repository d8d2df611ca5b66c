"""In-memory spans recorded around calls into the library's layers.

The library has no tracing of its own yet, so spans come from wrappers
that the benchmark installs over each layer's functions and removes
again.  A span records its layer name, start and end (perf_counter
seconds), the span that was open on the same thread when it started
(its parent) and the thread.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

# Layer name -> (module, attribute path) of the function the span wraps.
# A dotted attribute path names a method, which is wrapped on its class.
# ``layout`` and ``patterns`` run only at fabrication or config time, so
# their cost falls inside the simchip and floorplan spans.
LAYERS = {
    "simchip.snapshots": ("srampuf.simchip", "ChipBank.snapshots"),
    "simchip.sample_device": ("srampuf.simchip", "sample_device"),
    "chipnet.protocol.frames_for_bits": ("srampuf.chipnet.protocol", "frames_for_bits"),
    "chipnet.protocol.encode_request": ("srampuf.chipnet.protocol", "encode_request"),
    "chipnet.server.read": ("srampuf.chipnet.server", "_Session.read"),
    "chipnet.server.power_on": ("srampuf.chipnet.server", "_Session.power_on"),
    "chipnet.collector.read_design": ("srampuf.chipnet.collector", "HarnessClient.read_design"),
    "chipnet.dumpfile.format_dump": ("srampuf.chipnet.dumpfile", "format_dump"),
    "chipnet.dumpfile.parse_dump": ("srampuf.chipnet.dumpfile", "parse_dump"),
    "chipnet.dumpfile.words_to_bits": ("srampuf.chipnet.dumpfile", "words_to_bits"),
    "metrics.wchd": ("srampuf.metrics", "wchd"),
    "metrics.mhw": ("srampuf.metrics", "mhw"),
    "biasdetect.autocorrelation": ("srampuf.biasdetect", "autocorrelation"),
    "biasdetect.dominant_period": ("srampuf.biasdetect", "dominant_period"),
    "biasdetect.extract_template": ("srampuf.biasdetect", "extract_template"),
    "biasdetect.bias_direction": ("srampuf.biasdetect", "bias_direction"),
    "analyze.scan_dump_dir": ("srampuf.analyze", "scan_dump_dir"),
    "analyze.analyze_dumps": ("srampuf.analyze", "analyze_dumps"),
    "analyze.write_plot_data": ("srampuf.analyze", "write_plot_data"),
    "report.save_report": ("srampuf.report", "save_report"),
    "report.render_table": ("srampuf.report", "render_table"),
    "floorplan.format_config": ("srampuf.floorplan", "format_config"),
    "floorplan.load_config": ("srampuf.floorplan", "load_config"),
}


class Tracer:
    """Wraps layer functions while installed and keeps the spans they record.

    Use as a context manager: entering installs every wrapper, leaving
    puts every original function back.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None, thread]
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident()]
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                spans.append(span)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, (module_name, path) in LAYERS.items():
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, path)
            traced = self._wrap(name, original)
            # ``from .x import f`` copies the binding, so every library
            # module holding the same function object gets the wrapper.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "srampuf" or mod_name.startswith("srampuf.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def records(self) -> list[dict]:
        """Spans as plain dicts with integer ids; parents refer to ids."""
        pid = os.getpid()
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2],
             "parent": ids.get(id(s[3])) if s[3] is not None else None,
             "thread": f"{pid}:{s[4]}"}
            for i, s in enumerate(self.spans)
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)


def layer_totals(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy seconds and self seconds.

    Self time is a span's duration minus its children's, which ran on the
    same thread inside it.  Busy time sums durations of the outermost span
    of each layer on a thread, so a layer that recurses is not counted
    twice.
    """
    by_id = {r["id"]: r for r in records}
    child_time: dict[int, float] = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] += r["end"] - r["start"]
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for r in records:
        t = totals[r["name"]]
        dur = r["end"] - r["start"]
        t["calls"] += 1
        t["self_s"] += dur - child_time[r["id"]]
        parent, nested = r["parent"], False
        while parent is not None:
            if by_id[parent]["name"] == r["name"]:
                nested = True
                break
            parent = by_id[parent]["parent"]
        if not nested:
            t["busy_s"] += dur
    return dict(totals)


def covered_seconds(records: list[dict], thread: str, start: float, end: float) -> float:
    """Time inside [start, end] that top-level spans of one thread cover."""
    covered = 0.0
    for r in records:
        if r["thread"] == thread and r["parent"] is None:
            covered += max(0.0, min(r["end"], end) - max(r["start"], start))
    return covered
