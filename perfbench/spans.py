"""In-memory span tracer and the per-module breakdown built from its spans.

``Tracer.install`` replaces public functions of the package's modules with
wrappers that record one span per call and ``uninstall`` puts the originals
back.  This reaches calls made inside the package because it calls these
functions through module attribute lookups (``gemm.gemm_acc(...)``) or module
globals (``tile_decompose`` inside ``layer``), both of which see the
replacement.

The benchmark opens a ``call`` span around each layer call it makes.  The
package's thread pool does not carry context, so a span opened on a worker
thread with nothing open on that thread takes as parent the innermost span
open on the main thread, which is the layer call waiting for its workers.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

CALL = "call"
WINOGRAD = "layer.winograd_layer_conv"
DIRECT = "layer.direct_conv"
PRECOMPUTE = "layer.precompute_filter_transforms"


def _gemm_info(args, kwargs):
    a, b = args[0], args[1]
    stack = int(np.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), dtype=np.int64))
    rows, depth, cols = a.shape[-2], a.shape[-1], b.shape[-1]
    macs = stack * rows * depth * cols
    # Computed, not measured: both operands read once, the int32
    # accumulator read and written once.
    moved = a.nbytes + b.nbytes + 2 * 4 * stack * rows * cols
    return (macs, moved)


def _tile_info(args, kwargs):
    t = args[0]
    side = t.shape[-1]
    return t.size // (side * side)


def _mrc_info(args, kwargs):
    return args[0][0].size


def _reduce_info(args, kwargs):
    ts, system = args[0], args[1]
    return (ts.m, ts.r, tuple(system.moduli))


# (module, attribute, argument summary kept on the span)
WRAPPED = (
    ("gemm", "gemm_acc", _gemm_info),
    ("gemm", "reduce_mod_inplace", None),
    ("kernel", "residue_encode_array", None),
    ("kernel", "input_transform_mod", _tile_info),
    ("kernel", "backward_transform_mod", _tile_info),
    ("kernel", "filter_transform_mod", _tile_info),
    ("residue", "mrc_reconstruct_arrays", _mrc_info),
    ("transforms", "reduce_for_system", _reduce_info),
    ("transforms", "cached_transforms", None),
    ("layer", "tile_decompose", None),
    ("layer", "im2col", None),
    ("layer", "precompute_filter_transforms", None),
    ("layer", "winograd_layer_conv", None),
    ("layer", "direct_conv", None),
)

# Stage of a span whose parent is a call, a winograd layer call or a filter
# precompute; spans deeper down take the stage of that ancestor.
STAGES = {
    "gemm.gemm_acc": "gemm",
    "gemm.reduce_mod_inplace": "gemm_reduce",
    "kernel.residue_encode_array": "encode",
    "kernel.input_transform_mod": "input_transform",
    "kernel.backward_transform_mod": "backward_transform",
    "kernel.filter_transform_mod": "filter_transform",
    "residue.mrc_reconstruct_arrays": "mrc",
    "transforms.reduce_for_system": "transforms",
    "transforms.cached_transforms": "transforms",
    "layer.tile_decompose": "tile_decompose",
    "layer.im2col": "direct",
    PRECOMPUTE: "filter_transform",
    WINOGRAD: "winograd_self",
    DIRECT: "direct",
    CALL: "unexplained",
}
STAGE_NAMES = tuple(dict.fromkeys(STAGES.values()))

# Spans a modulus worker runs; their per-thread extent is that worker's busy time.
PER_MODULUS = frozenset((
    "gemm.gemm_acc", "gemm.reduce_mod_inplace", "kernel.residue_encode_array",
    "kernel.input_transform_mod", "kernel.backward_transform_mod",
))


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    cpu: float
    call: int
    info: object


class Tracer:
    """Records spans in memory until the run ends; not re-entrant across processes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[int, tuple[str, str]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._call = 0
        self._saved = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else 0
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, t0, c0, info) -> None:
        t1 = time.perf_counter()
        c1 = time.thread_time()
        stack.pop()
        self.spans.append(
            Span(sid, name, t0, t1, parent, threading.get_ident(), c1 - c0, self._call, info)
        )

    @contextmanager
    def call(self, kind: str, label: str):
        """Span around one layer call the benchmark makes; kind groups calls."""
        cid = len(self.calls) + 1
        self.calls[cid] = (kind, label)
        self._call = cid
        stack, sid, parent = self._open()
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, parent, CALL, t0, c0, None)
            self._call = 0

    def install(self, mods) -> None:
        """Wrap every attribute in WRAPPED that the given modules still have."""
        for mod_name, attr, summarize in WRAPPED:
            module = getattr(mods, mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn, summarize))
            self._saved.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, name, fn, summarize):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = summarize(args, kwargs) if summarize else None
            stack, sid, parent = self._open()
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, name, t0, c0, info)

        return wrapper


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Breakdown:
    """Span tree of a traced run, with self times and wall attribution."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.kind = {cid: kind for cid, (kind, _) in tracer.calls.items()}
        self.label = {cid: label for cid, (_, label) in tracer.calls.items()}
        self.by_id = {s.id: s for s in self.spans}
        self.children = defaultdict(list)
        self.by_call = defaultdict(list)
        for s in self.spans:
            self.children[s.parent].append(s)
            self.by_call[s.call].append(s)
        self._stage: dict[int, str] = {}

    def parent_name(self, s: Span) -> str | None:
        p = self.by_id.get(s.parent)
        return p.name if p else None

    def stage(self, s: Span) -> str:
        st = self._stage.get(s.id)
        if st is None:
            p = self.by_id.get(s.parent)
            if s.name in (CALL, WINOGRAD, DIRECT, PRECOMPUTE) or p is None or p.name in (CALL, WINOGRAD):
                st = STAGES.get(s.name, s.name)
            else:
                st = self.stage(p)
            self._stage[s.id] = st
        return st

    def self_wall(self, s: Span) -> float:
        """Duration not covered by any child span, on any thread."""
        kids = [(c.start, c.end) for c in self.children[s.id]]
        return (s.end - s.start) - _union(kids, s.start, s.end)

    def stage_time(self, s: Span) -> float:
        """Self time as per-thread stage timers summed over threads count it:
        duration minus the children on the same thread.  A layer call waiting
        for its workers is not a stage, so its self time is its wall self time.
        """
        if s.name == WINOGRAD:
            return self.self_wall(s)
        kids = sum(c.end - c.start for c in self.children[s.id] if c.thread == s.thread)
        return (s.end - s.start) - kids

    def attribute(self, cid: int) -> tuple[dict[str, float], float]:
        """Split one call's wall time over stages.

        Each instant goes to the spans open then that have no open child, on
        any thread, shared equally when there are several; an instant where
        only the call span itself is open is "unexplained".  The parts add
        up to the call's wall time.
        """
        spans = self.by_call[cid]
        root = next(s for s in spans if s.name == CALL)
        events = sorted(
            [(s.start, 0, s) for s in spans] + [(s.end, 1, s) for s in spans],
            key=lambda e: (e[0], e[1]),
        )
        active: dict[int, Span] = {}
        open_children: dict[int, int] = defaultdict(int)
        parts: dict[str, float] = defaultdict(float)
        prev = root.start
        for t, closing, s in events:
            if t > prev and active:
                leaves = [a for a in active.values() if open_children[a.id] == 0]
                share = (t - prev) / len(leaves)
                for a in leaves:
                    parts[self.stage(a)] += share
            prev = t
            if closing:
                del active[s.id]
                open_children[s.parent] -= 1
            else:
                active[s.id] = s
                open_children[s.parent] += 1
        wall = root.end - root.start
        if abs(sum(parts.values()) - wall) > 1e-9 + 1e-9 * wall:
            raise RuntimeError(f"call {cid}: attributed {sum(parts.values())} s of {wall} s")
        return parts, wall

    def modulus_busy(self, w: Span) -> tuple[float, float]:
        """(CPU seconds of the modulus workers' spans, wall of their parallel region)."""
        kids = [c for c in self.children[w.id] if c.name in PER_MODULUS]
        if not kids:
            return 0.0, 0.0
        region = max(c.end for c in kids) - min(c.start for c in kids)
        return sum(c.cpu for c in kids), region


def summarize(tracer: Tracer, n_fast: int, n_direct: int) -> tuple[dict[str, float], list[dict]]:
    """Per-module metrics and a per-layer-call table from a traced run.

    Fast-pass figures are per traced fast pass and direct-pass figures per
    traced direct pass.  The filter transform, derivation and reduction
    figures add the one traced set-up to one fast pass.
    """
    bd = Breakdown(tracer)
    sums = {"setup": defaultdict(float), "fast": defaultdict(float), "direct": defaultdict(float)}
    reduce_keys = set()
    for s in bd.spans:
        kind = bd.kind.get(s.call)
        m = sums.get(kind)
        if m is None:
            continue
        dur = s.end - s.start
        name = s.name
        stage = bd.stage(s)
        if kind == "direct":
            if name == "gemm.gemm_acc":
                m["gemm.direct_s"] += dur
            elif name == "layer.im2col":
                m["layer.im2col_s"] += dur
            continue
        if name == "kernel.filter_transform_mod":
            m["kernel.filter_transform_s"] += dur
        elif name == "transforms.reduce_for_system":
            m["transforms.reduce_s"] += dur
            m["transforms.reduce_calls"] += 1
            reduce_keys.add(s.info)
        elif name == "transforms.cached_transforms":
            m["transforms.derive_s"] += dur
        if kind != "fast":
            continue
        if name == CALL:
            m["layer.calls"] += 1
        else:
            m["layer.stage_thread_sum_s"] += bd.stage_time(s)
        if name == "gemm.gemm_acc" and stage == "gemm":
            macs, moved = s.info
            m["gemm.fast_s"] += dur
            m["gemm.fast_cpu_s"] += s.cpu
            m["gemm.macs"] += macs
            m["gemm.bytes_computed"] += moved
            m["gemm.calls"] += 1
        elif name == "gemm.reduce_mod_inplace" and bd.parent_name(s) == WINOGRAD:
            m["gemm.reduce_s"] += dur
        elif name == "kernel.residue_encode_array" and stage == "encode":
            m["kernel.encode_s"] += dur
            m["kernel.encode_cpu_s"] += s.cpu
        elif name == "kernel.input_transform_mod":
            m["kernel.input_transform_s"] += dur
            m["kernel.input_transform_cpu_s"] += s.cpu
            m["kernel.input_tiles"] += s.info
        elif name == "kernel.backward_transform_mod":
            m["kernel.backward_transform_s"] += dur
            m["kernel.backward_transform_cpu_s"] += s.cpu
            m["kernel.output_tiles"] += s.info
        elif name == "residue.mrc_reconstruct_arrays":
            m["residue.mrc_s"] += dur
            m["residue.mrc_elements"] += s.info
        elif name == "layer.tile_decompose":
            m["layer.tile_decompose_s"] += dur
        elif name == WINOGRAD:
            m["layer.winograd_self_s"] += bd.self_wall(s)
            busy, region = bd.modulus_busy(s)
            m["modulus_busy"] += busy
            m["modulus_region"] += region

    table: dict[str, dict] = {}
    for cid, kind in bd.kind.items():
        if kind != "fast":
            continue
        parts, wall = bd.attribute(cid)
        row = table.setdefault(bd.label[cid], defaultdict(float))
        row["wall_s"] += wall
        row["union_s"] += wall - parts.get("unexplained", 0.0)
        row["thread_sum_s"] += sum(bd.stage_time(s) for s in bd.by_call[cid] if s.name != CALL)
        for stage, t in parts.items():
            sums["fast"][f"wall.{stage}_s"] += t
            row[stage] += t

    fast, direct, setup = sums["fast"], sums["direct"], sums["setup"]
    out = {k: v / n_fast for k, v in fast.items()}
    out.update({k: v / n_direct for k, v in direct.items()})
    for k, v in setup.items():
        out[k] = out.get(k, 0.0) + v
    wall = sum(v for k, v in fast.items() if k.startswith("wall."))
    out["layer.wall_s"] = wall / n_fast
    out["layer.unexplained_share"] = out.pop("wall.unexplained_s", 0.0) * n_fast / wall
    for stage in STAGE_NAMES:
        if stage != "unexplained":
            out.setdefault(f"wall.{stage}_s", 0.0)
    out["gemm.gop_s"] = 2e-9 * fast["gemm.macs"] / fast["gemm.fast_s"] if fast["gemm.fast_s"] else 0.0
    out["residue.mrc_ns_per_elem"] = (
        1e9 * fast["residue.mrc_s"] / fast["residue.mrc_elements"] if fast["residue.mrc_elements"] else 0.0
    )
    calls = setup["transforms.reduce_calls"] + fast["transforms.reduce_calls"] / n_fast
    out["transforms.reduce_useful_ratio"] = len(reduce_keys) / calls if calls else 0.0
    busy = out.pop("modulus_busy", 0.0)
    region = out.pop("modulus_region", 0.0)
    out["layer.modulus_overlap"] = busy / region if region else 0.0
    rows = [
        {"call": label, **{k: round(v / n_fast, 7) for k, v in row.items()}}
        for label, row in table.items()
    ]
    return out, rows
