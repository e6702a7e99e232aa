#!/usr/bin/env python3
"""Benchmark of the rnswinograd package, run from the repository root:

    python3 perfbench/run.py --workload vgg16 --seed 1 --seconds 40 --trace 0

It drives the package in ``src/`` from outside, through its public
functions, in one process; ``RNSW_THREADS`` is left as found.  A run

1. builds the workload's inputs from ``--seed`` and the benchmark's own
   float64 oracle output for every layer (perfbench/oracle.py);
2. sets up once, untimed: a fresh import of the package, transform
   derivation and reduction, and the filter transforms the workload
   precomputes;
3. makes untimed passes through the fast path under ``tracemalloc`` for
   ``peak_alloc_mb``, which also warm the package and the caches;
4. for ``--seconds`` (and at least three rounds) repeats a round of one
   sample each of set-up, fast pass and direct pass, and reports the median
   of each.  A sample is the mean over consecutive repeats lasting at least
   SAMPLE_SECONDS, so a pass or set-up shorter than that is repeated.

With ``--trace 1`` it reports the per-module metrics instead: the first
set-up is traced, and each round adds traced fast and direct samples, with
the package's functions wrapped by perfbench/spans.py, to the untraced ones.

Every layer call is checked against the oracle; a call fails if it raises or
if any element differs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, starting with ``record``, holds the environment and the details.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PKG = "rnswinograd"
PKG_MODULES = ("layer", "transforms", "residue", "gemm", "kernel", "cli")
MIN_ROUNDS = 3
MEMORY_PASSES = 2
# Shortest stretch one sample averages over.  Speed on the reference machine
# switches between two levels for stretches of about a second; a sample
# shorter than that lands on one level, and the median of such samples jumps.
SAMPLE_SECONDS = 1.0


class Tally:
    """Layer calls attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, label: str, out, want: np.ndarray) -> None:
        self.attempted += 1
        if oracle.matches(out, want):
            return
        self.failed += 1
        if len(self.notes) < 5:
            if isinstance(out, BaseException):
                why = f"raised {type(out).__name__}: {out}"
            elif isinstance(out, np.ndarray) and out.shape == want.shape:
                why = f"{int(np.count_nonzero(out != want))} elements differ"
            else:
                why = f"returned {type(out).__name__} {getattr(out, 'shape', '')}"
            self.notes.append(f"{label}: {why}")


def self_check(want: np.ndarray) -> None:
    """An output with a single wrong element must count as a failed call."""
    tally = Tally()
    bad = want.copy()
    bad.flat[bad.size // 2] += 1
    tally.add("exact", want.copy(), want)
    tally.add("one wrong element", bad, want)
    tally.add("raised", RuntimeError("x"), want)
    if (tally.attempted, tally.failed) != (3, 2):
        raise SystemExit("self-check failed: the oracle comparison misses a wrong element")


def fresh_import() -> SimpleNamespace:
    """Import the package from src/ anew, so every set-up pays for the import."""
    for name in [n for n in sys.modules if n == PKG or n.startswith(PKG + ".")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{n: importlib.import_module(f"{PKG}.{n}") for n in PKG_MODULES})
    if SRC not in Path(mods.layer.__file__).resolve().parents:
        raise SystemExit(f"imported {PKG} from {mods.layer.__file__}, not from {SRC}")
    return mods


@dataclass
class Setup:
    mods: SimpleNamespace
    specs: list
    systems: list
    filters: list
    import_s: float
    transforms_s: float
    filter_s: list[float]
    total_s: float


def set_up(wl: workloads.Workload, inputs, tracer: spans.Tracer | None) -> Setup:
    call = tracer.call if tracer else (lambda kind, label: nullcontext())
    t0 = time.perf_counter()
    m = fresh_import()
    t1 = time.perf_counter()
    if tracer:
        tracer.install(m)
    with call("setup", "transforms"):
        systems = {mod: m.residue.RnsSystem(mod) for mod in {L.moduli for L in wl.layers}}
        exact = {key: m.transforms.cached_transforms(*key) for key in {(L.tile_m, L.r) for L in wl.layers}}
        reduced = {
            (t, r, mod): m.transforms.reduce_for_system(exact[t, r], systems[mod])
            for t, r, mod in {(L.tile_m, L.r, L.moduli) for L in wl.layers}
        }
        specs = [
            m.layer.LayerSpec(
                h=L.h, w=L.w, c=L.c, k=L.k, r=L.r,
                batch=L.batch, padding=L.padding, tile_m=L.tile_m,
            )
            for L in wl.layers
        ]
    t2 = time.perf_counter()
    filters, filter_s = [], []
    for L, (w, _) in zip(wl.layers, inputs):
        if L.route != "winograd":
            filters.append(None)
            filter_s.append(0.0)
            continue
        f0 = time.perf_counter()
        with call("setup", L.name):
            filters.append(m.layer.precompute_filter_transforms(w, reduced[L.tile_m, L.r, L.moduli]))
        filter_s.append(time.perf_counter() - f0)
    t3 = time.perf_counter()
    if tracer:
        tracer.uninstall()
    return Setup(
        mods=m,
        specs=specs,
        systems=[systems[L.moduli] for L in wl.layers],
        filters=filters,
        import_s=t1 - t0,
        transforms_s=t2 - t1,
        filter_s=filter_s,
        total_s=t3 - t0,
    )


def sample(measure) -> float:
    """Mean of measure() over consecutive calls lasting at least SAMPLE_SECONDS."""
    values = []
    while sum(values) < SAMPLE_SECONDS or not values:
        values.append(measure())
    return sum(values) / len(values)


def setup_sample(wl: workloads.Workload, inputs) -> dict:
    """Mean timings of consecutive set-ups lasting at least SAMPLE_SECONDS."""
    runs: list[Setup] = []
    while sum(r.total_s for r in runs) < SAMPLE_SECONDS or not runs:
        runs.append(set_up(wl, inputs, None))
    n = len(runs)
    return {
        "total": sum(r.total_s for r in runs) / n,
        "import": sum(r.import_s for r in runs) / n,
        "transforms": sum(r.transforms_s for r in runs) / n,
        "filters": [sum(col) / n for col in zip(*(r.filter_s for r in runs))],
    }


def layer_call(st: Setup, wl: workloads.Workload, i: int, w, x, path: str):
    L = wl.layers[i]
    layer = st.mods.layer
    if path == "direct" or L.route == "direct":
        return layer.direct_conv(st.specs[i], w, x)
    if L.route == "winograd":
        return layer.winograd_layer_conv(
            st.specs[i], w, x, st.systems[i],
            declared_bound=L.declared_bound, filters=st.filters[i],
        )
    return layer.layer_conv(st.specs[i], w, x, st.systems[i], declared_bound=L.declared_bound)


def one_pass(st, wl, inputs, wants, tally, path, tracer=None, peaks=None) -> float:
    """Seconds spent inside the package's layer calls of one pass.

    The oracle comparison runs after each call's timer stops.  With peaks,
    each call's traced allocation peak (tracemalloc must be running) is
    appended to it.
    """
    total = 0.0
    for i, ((w, x), want) in enumerate(zip(inputs, wants)):
        label = wl.layers[i].name
        with tracer.call(path, label) if tracer else nullcontext():
            if peaks is not None:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            t0 = time.perf_counter()
            try:
                out = layer_call(st, wl, i, w, x, path)
            except Exception as exc:  # a raising call is a failed call
                out = exc
            total += time.perf_counter() - t0
            if peaks is not None:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        tally.add(f"{path} {label}", out, want)
        del out
    return total


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "values": [round(v, 6) for v in values]}


def environment(args, wl: workloads.Workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "RNSW_THREADS": os.environ.get("RNSW_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "layer_calls_per_pass": len(wl.layers),
        "direct_macs_per_pass": wl.direct_macs(),
    }


def declared_metrics(section: str) -> dict[str, str]:
    """name -> unit of one metric list in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def emit(section: str, values: dict[str, float], tally: Tally, record: dict) -> None:
    units = declared_metrics(section)
    unknown = set(values) - set(units)
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json {section}: {sorted(unknown)}")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # A span that no longer occurs measures no work.
        "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": units[k]} for k in units},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / PKG / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = workloads.get(args.workload)
    inputs = workloads.make_inputs(wl, args.seed)
    wants = [oracle.conv2d(x, w, L.padding) for L, (w, x) in zip(wl.layers, inputs)]
    self_check(wants[0])
    record = {"env": environment(args, wl)}
    print(f"workload {wl.name}: {len(wl.layers)} layer calls per pass, seed {args.seed}; "
          "self-check passed: an output with one wrong element counts as a failed call")

    tracer = spans.Tracer() if args.trace else None
    # The first set-up also pays for stdlib imports made once per process;
    # it is not a sample.  In a traced run it is the traced set-up.
    st = set_up(wl, inputs, tracer)
    tally = Tally()

    # How far the modulus workers' temporaries overlap varies from pass to
    # pass, so each layer's peak is the largest over a few passes.
    peaks = [0] * len(wl.layers)
    for _ in range(MEMORY_PASSES):
        pass_peaks: list[int] = []
        tracemalloc.start()
        try:
            one_pass(st, wl, inputs, wants, tally, "fast", peaks=pass_peaks)
        finally:
            tracemalloc.stop()
        peaks = [max(a, b) for a, b in zip(peaks, pass_peaks)]

    traced_passes = {"fast": 0, "direct": 0}

    def run_pass(path: str, traced: bool = False) -> float:
        if not traced:
            return one_pass(st, wl, inputs, wants, tally, path)
        traced_passes[path] += 1
        tracer.install(st.mods)
        try:
            return one_pass(st, wl, inputs, wants, tally, path, tracer)
        finally:
            tracer.uninstall()

    # Rounds interleave the measurements so that each one samples the whole
    # run rather than one stretch of it.
    setups, fast, direct, traced = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(fast) < MIN_ROUNDS or time.perf_counter() < deadline:
        setups.append(setup_sample(wl, inputs))
        fast.append(sample(lambda: run_pass("fast")))
        if tracer:
            traced.append(sample(lambda: run_pass("fast", traced=True)))
        direct.append(sample(lambda: run_pass("direct", traced=bool(tracer))))

    setup_total = [s["total"] for s in setups]
    record["setup_s"] = quartiles(setup_total)
    record["setup_split_s"] = {
        "import": statistics.median(s["import"] for s in setups),
        "transforms": statistics.median(s["transforms"] for s in setups),
        "filters": {L.name: statistics.median(s["filters"][i] for s in setups)
                    for i, L in enumerate(wl.layers) if L.route == "winograd"},
    }
    record["fast_pass_s"] = quartiles(fast)
    record["peak_alloc_mb"] = {L.name: p / 1e6 for L, p in zip(wl.layers, peaks)}
    record["fail_rate"] = tally.failed / tally.attempted
    record["failures"] = tally.notes
    print(f"set-up {statistics.median(setup_total):.4f} s, fast pass "
          f"{statistics.median(fast):.4f} s (medians of {len(fast)} samples)")

    if tracer:
        values, rows = spans.summarize(tracer, traced_passes["fast"], traced_passes["direct"])
        values["layer.failures"] = tally.failed
        values["setup.import_s"] = record["setup_split_s"]["import"]
        values["setup.transforms_s"] = record["setup_split_s"]["transforms"]
        values["setup.filters_s"] = statistics.median(sum(s["filters"]) for s in setups)
        info = st.mods.transforms.cached_transforms.cache_info()
        values["transforms.cache_hit_ratio"] = info.hits / max(1, info.hits + info.misses)
        values["trace.fast_pass_s"] = statistics.median(traced)
        values["trace.overhead_share"] = statistics.median(traced) / statistics.median(fast) - 1.0
        explained = values["layer.wall_s"] * (1.0 - values["layer.unexplained_share"])
        record["calls"] = rows
        record["traced_fast_pass_s"] = quartiles(traced)
        print(f"traced fast pass {values['trace.fast_pass_s']:.4f} s, stage self times "
              f"{explained:.4f} s of {values['layer.wall_s']:.4f} s call wall time "
              f"({100 * values['layer.unexplained_share']:.2f}% unexplained); "
              f"thread-summed {values['layer.stage_thread_sum_s']:.4f} s")
        emit("per_layer", values, tally, record)
    else:
        record["direct_pass_s"] = quartiles(direct)
        speedup = statistics.median(direct) / statistics.median(fast)
        record["speedup"] = speedup
        print(f"direct pass {statistics.median(direct):.4f} s, "
              f"speedup direct/fast {speedup:.3f}x, "
              f"fail rate {tally.failed}/{tally.attempted}")
        emit("end_to_end", {
            "fast_pass_s": statistics.median(fast),
            "direct_pass_s": statistics.median(direct),
            "setup_s": statistics.median(setup_total),
            "peak_alloc_mb": max(peaks) / 1e6,
            "exact_rate": (tally.attempted - tally.failed) / tally.attempted,
        }, tally, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
