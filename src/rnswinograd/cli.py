"""Command line front end.

Subcommands:
  gen-transforms   print or dump exact and modular transform matrices
  verify           bit-exact comparison of the fast path against an int64 oracle
  bench            timed layer sweep (default: the packaged VGG16 config)
  analyze          multiplication-reduction and data-width tables

Exit codes: 0 success, 1 usage or configuration errors, 2 verification
mismatch or dynamic range failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, dataclass, replace
from fractions import Fraction
from importlib import resources

import numpy as np

from . import gemm, layer, residue, transforms
from .errors import DynamicRangeExceeded, NotCoprime, RnsError

DEFAULT_SEED = 2020


class ConfigError(ValueError):
    """A config file or argument combination does not make sense."""


# ---------------------------------------------------------------------------
# shared helpers


def parse_points(text: str) -> tuple:
    """Comma list of rationals, 'inf' allowed last: '0,1,-1,1/2,inf'."""
    pts = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok.lower() == "inf":
            pts.append(transforms.INF)
        else:
            try:
                pts.append(Fraction(tok))
            except (ValueError, ZeroDivisionError) as e:
                raise ConfigError(f"bad interpolation point {tok!r}: {e}") from None
    return tuple(pts)


def parse_moduli(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t.strip()) for t in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad moduli list {text!r}: {e}") from None


def _json_scalar(v):
    if isinstance(v, transforms._InfinityPoint):
        return "inf"
    f = Fraction(v)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _json_matrix(rows):
    return [[_json_scalar(v) for v in row] for row in rows]


def _fmt_matrix(rows, indent: str = "  ") -> str:
    cells = [[str(v) for v in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
    return "\n".join(
        indent + "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells
    )


def make_rng(*entropy) -> np.random.Generator:
    """Seeded PCG64 generator; identical streams on every platform.

    Entropy items may be ints or strings; a string becomes the int of all
    its bytes, so every label salts its own stream.
    """
    words = []
    for item in entropy:
        if isinstance(item, str):
            words.append(int.from_bytes(item.encode(), "little"))
        else:
            words.append(int(item) % (1 << 64))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def random_int8(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform int8 over its whole range, -128 included."""
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


def random_operands(spec: layer.LayerSpec, *entropy) -> tuple[np.ndarray, np.ndarray]:
    """A layer's (weights, input), drawn in that order from make_rng(*entropy);
    verify and bench both draw through here, so they see the same tensors."""
    rng = make_rng(*entropy)
    return random_int8(rng, spec.weight_shape()), random_int8(rng, spec.input_shape())


# ---------------------------------------------------------------------------
# config files


@dataclass(frozen=True)
class LayerEntry:
    """One config layer.  algorithm is "direct" where the config says so or
    the stride is above 1, as the fast path covers unit stride only."""

    name: str
    spec: layer.LayerSpec
    algorithm: str = "winograd"
    declared_bound: int | None = None


@dataclass(frozen=True)
class BenchConfig:
    rns: residue.RnsSystem
    seed: int
    iterations: int
    layers: tuple[LayerEntry, ...]


def load_config(path) -> BenchConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return config_from_dict(doc, str(path))


CONFIG_KEYS = frozenset(
    "name rns tile_m batch seed iterations declared_bound layers".split()
)
LAYER_KEYS = frozenset(
    "name h w c k r batch padding stride tile_m algorithm declared_bound".split()
)


def _check_keys(obj, allowed: frozenset) -> None:
    if not isinstance(obj, dict):
        raise ConfigError("not a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")


def _int(value, what: str, least: int | None = None) -> int:
    """A config integer: a decimal string's value, or a JSON integer, under
    residue.as_int's rule (a float or a bool is refused, not truncated)."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            raise ConfigError(f"{what} must be an integer, got {value!r}") from None
    return residue.as_int(value, what, least)


@contextmanager
def _named(where: str):
    """Raise any error of the block as a ConfigError that starts with where
    in the config it arose; a missing key reads as one."""
    try:
        yield
    except KeyError as e:
        raise ConfigError(f"{where}: missing key {e.args[0]!r}") from None
    except (TypeError, ValueError, NotCoprime) as e:
        raise ConfigError(f"{where}: {e}") from None


def config_from_dict(doc: dict, where: str = "config") -> BenchConfig:
    with _named(where):
        _check_keys(doc, CONFIG_KEYS)
        if not isinstance(doc["rns"], list):
            raise ConfigError(f"rns must be a list, got {doc['rns']!r}")
        rns = residue.RnsSystem([_int(m, "rns entry") for m in doc["rns"]])
        tile_m = _int(doc.get("tile_m", layer.DEFAULT_TILE_M), "tile_m")
        batch = _int(doc.get("batch", 1), "batch")
        seed = _int(doc.get("seed", DEFAULT_SEED), "seed")
        iterations = _int(doc.get("iterations", 1), "iterations", 1)
        if not isinstance(doc["layers"], list):
            raise ConfigError(f"layers must be a list, got {doc['layers']!r}")
        if not doc["layers"]:
            raise ConfigError("no layers")
    entries = []
    for i, ent in enumerate(doc["layers"]):
        name = str(ent.get("name", f"layer{i}")) if isinstance(ent, dict) else f"layer{i}"
        with _named(f"{where}: layer {name!r}"):
            if any(e.name == name for e in entries):  # a name is a label and a seed
                raise ConfigError("duplicate layer name")
            _check_keys(ent, LAYER_KEYS)
            spec = layer.LayerSpec(
                *(_int(ent[key], key) for key in ("h", "w", "c", "k", "r")),
                batch=_int(ent.get("batch", batch), "batch"),
                padding=_int(ent.get("padding", 0), "padding"),
                stride=_int(ent.get("stride", 1), "stride"),
                tile_m=_int(ent.get("tile_m", tile_m), "tile_m"),
            )
            algorithm = ent.get("algorithm", "winograd")
            if algorithm not in ("winograd", "direct"):
                raise ConfigError(f"unknown algorithm {algorithm!r}")
            bound = ent.get("declared_bound", doc.get("declared_bound"))
            bound = None if bound is None else _int(bound, "declared_bound", 1)
            if spec.stride > 1:
                algorithm = "direct"
            if algorithm == "winograd":  # cached: the run reuses these
                transforms.cached_modular_transforms(spec.tile_m, spec.r, rns.moduli)
        entries.append(LayerEntry(name, spec, algorithm, bound))
    return BenchConfig(rns, seed, iterations, tuple(entries))


def default_bench_config_path():
    return resources.files("rnswinograd").joinpath("configs/vgg16.cfg")


# ---------------------------------------------------------------------------
# gen-transforms


def cmd_gen_transforms(args) -> int:
    points = parse_points(args.points) if args.points else None
    ts = transforms.derive_transforms(args.m, args.r, points)
    moduli = parse_moduli(args.moduli) if args.moduli else ()
    modular = [transforms.reduce_transforms_mod(ts, m) for m in moduli]

    if args.json:
        head = {"M": ts.m, "R": ts.r, "points": [_json_scalar(p) for p in ts.points]}
        docs = [dict(
            head, AT=_json_matrix(ts.at), G=_json_matrix(ts.g), BT=_json_matrix(ts.bt),
            alpha=_json_scalar(ts.alpha), Gprime=_json_matrix(ts.gprime),
        )]
        docs += [
            dict(head, modulus=mt.modulus, AT=_json_matrix(mt.at.tolist()),
                 G=_json_matrix(mt.g.tolist()), BT=_json_matrix(mt.bt.tolist()))
            for mt in modular
        ]
        text = json.dumps(docs, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as f:
                f.write(text + "\n")
        return 0

    print(f"F({ts.m}x{ts.m}, {ts.r}x{ts.r}),  n = {ts.n}")
    print("points: " + ", ".join(str(p) for p in ts.points))
    print("\nAT (exact):\n" + _fmt_matrix(ts.at))
    print("\nG (exact):\n" + _fmt_matrix(ts.g))
    print("\nBT (exact):\n" + _fmt_matrix(ts.bt))
    print(f"\nalpha = {ts.alpha}")
    print("\nG' = G / alpha:\n" + _fmt_matrix(ts.gprime))
    for mt in modular:
        print(f"\nmodulus {mt.modulus}:")
        print("AT:\n" + _fmt_matrix(mt.at.tolist()))
        print("G:\n" + _fmt_matrix(mt.g.tolist()))
        print("BT:\n" + _fmt_matrix(mt.bt.tolist()))
    return 0


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class VerifyCase:
    label: str
    spec: layer.LayerSpec
    moduli: tuple[int, ...]
    entropy: tuple
    declared_bound: int | None = None


STANDARD_SYSTEMS = ((253, 251, 247), (251, 241, 239), (4001, 4331))
VERIFY_TILES = (
    (2, 3), (4, 3), (8, 3), (10, 3), (12, 3), (14, 3),
    (2, 5), (4, 5), (8, 5), (10, 5), (12, 5), (14, 5),
)
_GEOMETRIES_PER_COMBO = 7


def default_verify_cases(seed: int) -> list[VerifyCase]:
    """Randomized sweep over tile sizes, filter sizes and RNS systems.

    Combos whose transform denominators collide with a modulus factor are
    excluded up front (they are unrepresentable, not failing).  Geometries
    are drawn deterministically from the seed.
    """
    cases = []
    geo = make_rng(seed, "geometry")
    for tile_m, r in VERIFY_TILES:
        ts = transforms.cached_transforms(tile_m, r)
        for moduli in STANDARD_SYSTEMS:
            if not all(transforms.check_modulus_compatibility(ts, m) for m in moduli):
                continue
            for g in range(_GEOMETRIES_PER_COMBO):
                h = int(geo.integers(r, 33))
                w = int(geo.integers(r, 33))
                c = int(geo.integers(1, 17))
                k = int(geo.integers(1, 9))
                padding = int(geo.integers(0, 3))
                batch = int(geo.integers(1, 3))
                spec = layer.LayerSpec(
                    h=h, w=w, c=c, k=k, r=r,
                    batch=batch, padding=padding, tile_m=tile_m,
                )
                cases.append(
                    VerifyCase(
                        label=(
                            f"F({tile_m}x{tile_m},{r}x{r}) rns={moduli} "
                            f"h={h} w={w} c={c} k={k} pad={padding} b={batch}"
                        ),
                        spec=spec,
                        moduli=moduli,
                        entropy=(seed, tile_m, r, *moduli, g),
                    )
                )
    return cases


def oracle_conv(spec: layer.LayerSpec, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Direct correlation in int64 that shares no code with the package."""
    p = spec.padding
    xp = np.pad(x.astype(np.int64), ((0, 0), (p, p), (p, p), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (spec.r, spec.r), axis=(1, 2))
    win = win[:, :: spec.stride, :: spec.stride]
    return np.einsum("bhwcij,ijck->bhwk", win, weights.astype(np.int64))


def range_failure(label: str, error: DynamicRangeExceeded) -> str:
    """The line verify and bench print for a layer refused its output bound."""
    return f"FAIL {label} dynamic range: {error}"


def _verify_layer(label: str, spec, weights, x, system, declared_bound=None):
    """Run one layer on the fast path and check it against oracle_conv.

    Returns (passed, report line, output); a layer refused its output bound
    has no output, and its line is range_failure's.
    """
    try:
        got = layer.winograd_layer_conv(spec, weights, x, system, declared_bound)
    except DynamicRangeExceeded as e:
        return False, range_failure(label, e), None
    want = oracle_conv(spec, weights, x)
    if np.array_equal(want, got):
        return True, f"PASS {label}", got
    bad = np.argwhere(want != got)
    first = tuple(int(v) for v in bad[0])
    return False, (
        f"FAIL {label} mismatches={len(bad)} first at {first}: "
        f"got {int(got[first])}, want {int(want[first])}"
    ), got


def run_verify_case(case: VerifyCase) -> tuple[bool, str]:
    """Run one case; returns (passed, report line)."""
    weights, x = random_operands(case.spec, *case.entropy)
    system = residue.RnsSystem(case.moduli)
    ok, line, _ = _verify_layer(case.label, case.spec, weights, x, system, case.declared_bound)
    return ok, line


def cmd_verify(args) -> int:
    file_mode = bool(args.input or args.weights)
    unused = "config seed" if file_mode else "tile padding moduli declared_bound output"
    given = [dest for dest in unused.split() if getattr(args, dest) is not None]
    if given:
        where = "does not apply to file mode" if file_mode else "applies to file mode only"
        raise ConfigError(f"--{given[0].replace('_', '-')} {where} (--input and --weights)")
    if file_mode:
        if not (args.input and args.weights):
            raise ConfigError("file mode needs both --input and --weights")
        return _verify_files(args)
    if args.config:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        cases = [
            VerifyCase(f"{ent.name} rns={cfg.rns.moduli}", ent.spec, cfg.rns.moduli,
                       (seed, ent.name), ent.declared_bound)
            for ent in cfg.layers if ent.algorithm == "winograd"
        ]
        if not cases:
            raise ConfigError(f"{args.config}: no winograd layers to verify")
    else:
        cases = default_verify_cases(args.seed if args.seed is not None else DEFAULT_SEED)

    failures = 0
    for case in cases:
        ok, line = run_verify_case(case)
        print(line)
        failures += 0 if ok else 1
    print(f"{len(cases) - failures}/{len(cases)} cases passed")
    return 0 if failures == 0 else 2


def _verify_files(args) -> int:
    # refused before any work; the verdict line is printed before the write
    if args.output and os.path.isdir(args.output):
        raise ConfigError(f"--output {args.output}: is a directory")
    if args.output and not os.path.isdir(os.path.dirname(args.output) or "."):
        raise ConfigError(f"--output {args.output}: no such directory")
    x = layer.read_tensor(args.input)
    weights = layer.read_tensor(args.weights)
    if weights.ndim != 4 or x.ndim != 4:
        raise ConfigError("tensors must be rank 4: input NHWC, weights (r, r, c, k)")
    r, r2, c, k = weights.shape
    if r != r2 or x.shape[3] != c:
        raise ConfigError(
            f"weights {weights.shape} do not describe square filters on "
            f"{x.shape[3]} input channels"
        )
    spec = layer.LayerSpec(
        h=x.shape[1], w=x.shape[2], c=c, k=k, r=r, batch=x.shape[0],
        padding=args.padding or 0,
        tile_m=layer.DEFAULT_TILE_M if args.tile is None else args.tile,
    )
    moduli = "251,241,239" if args.moduli is None else args.moduli
    system = residue.RnsSystem(parse_moduli(moduli))
    ok, line, got = _verify_layer(
        f"{args.input} * {args.weights}", spec, weights, x, system, args.declared_bound
    )
    print(line)
    if args.output and ok:
        layer.write_tensor(args.output, got)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# bench


@dataclass
class BenchRow:
    name: str
    algorithm: str
    spec: layer.LayerSpec
    direct_ms: float
    rns_ms: float
    timings: layer.StageTimings
    reduction: Fraction
    exact: bool

    @property
    def speedup(self) -> float:
        return self.direct_ms / self.rns_ms if self.rns_ms else float("nan")


def run_bench(cfg: BenchConfig) -> list[BenchRow]:
    """Time every layer of cfg on data drawn as verify --config draws it."""
    system = cfg.rns
    rows = []
    for ent in cfg.layers:
        weights, x = random_operands(ent.spec, cfg.seed, ent.name)

        def best_ms(call):
            """Fastest of cfg.iterations calls, in ms, and the last output."""
            best = float("inf")
            for _ in range(cfg.iterations):
                t0 = time.perf_counter()
                out = call()
                best = min(best, time.perf_counter() - t0)
            return best * 1e3, out

        direct_ms, want = best_ms(lambda: layer.direct_conv(ent.spec, weights, x))
        # stage times summed over the iterations; only their shares are shown
        timings = layer.StageTimings()
        if ent.algorithm == "direct":
            rns_ms, got = direct_ms, want
        else:
            # Filter transforms depend only on the weights, so inference reuses
            # them across every input; precompute outside the timed region.
            mts = transforms.cached_modular_transforms(ent.spec.tile_m, ent.spec.r, system.moduli)
            filters = layer.PreparedFilters(weights, mts)
            rns_ms, got = best_ms(lambda: layer.winograd_layer_conv(
                ent.spec, weights, x, system, declared_bound=ent.declared_bound,
                filters=filters, timings=timings,
            ))
        reduction = layer.count_operations(ent.spec, system).reduction_ratio
        rows.append(BenchRow(ent.name, ent.algorithm, ent.spec, direct_ms, rns_ms, timings,
                             reduction, bool(np.array_equal(want, got))))
    return rows


# (CSV name, table heading or "" for a CSV-only column, table format, CSV format)
BENCH_COLUMNS = (
    ("layer", "layer", "<10", ""),
    ("algorithm", "alg", "<8", ""),
    *((dim, "", "", "d") for dim in "hwckr"),
    ("direct_ms", "direct ms", ">10.1f", ".3f"),
    ("rns_ms", "rns ms", ">10.1f", ".3f"),
    ("speedup", "speedup", ">8.2f", ".4f"),
    ("mult_reduction", "mult red", ">9.2f", ".4f"),
    ("tiling_pct", "tile%", ">6.1f", ".2f"),
    ("input_transform_pct", "inp%", ">6.1f", ".2f"),
    ("gemm_pct", "gemm%", ">6.1f", ".2f"),
    ("backward_pct", "bwd%", ">6.1f", ".2f"),
    ("crt_pct", "crt%", ">6.1f", ".2f"),
    ("scatter_pct", "scat%", ">6.1f", ".2f"),
    ("exact", "exact", "", "d"),
)


def _bench_fields(row: BenchRow) -> list:
    """One row's values in BENCH_COLUMNS order, for the table and the CSV.

    A layer run direct has no fast path, so its multiplication reduction and
    stage shares are None, which print blank.
    """
    s, t = row.spec, row.timings
    total = t.total()
    stages = astuple(t)  # the table's six stages, in its order
    figures = [float(row.reduction)] + [100.0 * v / total if total > 0 else 0.0 for v in stages]
    if row.algorithm == "direct":
        figures = [None] * len(figures)
    return [row.name, row.algorithm, s.h, s.w, s.c, s.k, s.r,
            row.direct_ms, row.rns_ms, row.speedup, *figures, row.exact]


def _cell(value, spec: str) -> str:
    """value formatted to spec; a missing value is blank at the spec's width."""
    return format("", spec.split(".")[0]) if value is None else format(value, spec)


def reconstruction_route(system: residue.RnsSystem, n: int) -> str:
    """How a layer of transform size n that range_check admits rebuilds its
    outputs: the float64 CRT sum over unfolded rows where RnsSystem.crt_fits
    admits them, over folded rows otherwise, with the bound that picked the
    route.  The bound's log2 shows three decimals, rounded down, so the
    printed comparison holds."""
    folded = not system.crt_fits(n, folded=False)
    bound = math.floor(math.log2(system.crt_bound(n, folded)) * 1000) / 1000
    edge = f"2**{math.log2(gemm.FLOAT64_FOLD):.0f}"
    route = "CRT" if folded else "CRT, unfolded rows"
    return f"{route} (bound 2**{bound:.3f} <= {edge} at n={n})"


def cmd_bench(args) -> int:
    path = args.config if args.config else default_bench_config_path()
    cfg = load_config(path)
    if args.iterations is not None:
        cfg = replace(cfg, iterations=residue.as_int(args.iterations, "--iterations", 1))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    with open(args.csv, "w", newline="") if args.csv else nullcontext() as out:
        return _bench_report(cfg, out)


def _bench_report(cfg: BenchConfig, out) -> int:
    """Run cfg and print its table, and write it to out, the CSV file if one
    was named: cmd_bench opens it first, so an unwritable path runs no layer."""
    system = cfg.rns
    # a layer's data depend on its name alone, so leaving out the layers
    # range_check refuses leaves every other layer's data as they were
    runnable, refusals = [], []
    for ent in cfg.layers:
        try:
            if ent.algorithm == "winograd":
                layer.range_check(ent.spec, system, ent.declared_bound)
            runnable.append(ent)
        except DynamicRangeExceeded as e:
            refusals.append(range_failure(f"{ent.name} rns={system.moduli}", e))
    rows = run_bench(replace(cfg, layers=tuple(runnable)))

    # tile sizes and routes of the fast-path layers that ran: a refused one has none
    fast = [row.spec for row in rows if row.algorithm == "winograd"]
    tiles = ",".join(str(m) for m in sorted({s.tile_m for s in fast})) or "none"
    sizes = sorted({s.n for s in fast})
    routes = "; ".join(reconstruction_route(system, n) for n in sizes) or "none"
    print(f"rns={system.moduli}  tile_m={tiles}  seed={cfg.seed}  "
          f"iterations={cfg.iterations}  reconstruction={routes}")
    print("filter transforms are precomputed per layer and excluded from rns ms")
    header = " ".join(format(head, fmt.split(".")[0]) for _, head, fmt, _ in BENCH_COLUMNS if head)
    print(header)
    print("-" * len(header))
    total_direct = sum(r.direct_ms for r in rows)
    total_rns = sum(r.rns_ms for r in rows)
    speedup = total_direct / total_rns if total_rns else float("nan")
    totals = ["total", "", *[None] * 5, total_direct, total_rns, speedup]
    for fields in [_bench_fields(row) for row in rows] + [totals]:
        cells = (_cell(v, fmt) for (_, head, fmt, _), v in zip(BENCH_COLUMNS, fields) if head)
        print(" ".join(cells).rstrip())
    for line in refusals:
        print(line)

    if out is not None:
        wr = csv.writer(out)
        wr.writerow([name for name, *_ in BENCH_COLUMNS])
        for row in rows:
            fields = zip(BENCH_COLUMNS, _bench_fields(row))
            wr.writerow([_cell(v, csv_fmt) for (*_, csv_fmt), v in fields])
    return 0 if all(r.exact for r in rows) and not refusals else 2


# ---------------------------------------------------------------------------
# analyze


REDUCTION_TILES = (
    (2, 3), (4, 3), (6, 3), (8, 3), (8, 5), (9, 3), (9, 5),
    (10, 3), (10, 5), (11, 3), (11, 5), (12, 3), (12, 5), (14, 3),
)
WIDTH_TILES = ((2, 3), (4, 3), (6, 3), (8, 3), (8, 5), (10, 3), (10, 5))


def cmd_analyze(args) -> int:
    # the growth rows first, so an unusable input width fails before any output
    tss = [transforms.cached_transforms(m, r) for m, r in WIDTH_TILES]
    growth = [transforms.data_width_analysis(ts, args.input_bits) for ts in tss]
    print("multiplication reduction per output tile (direct / fast):")
    print(f"{'tile':<16} {'n':>4} {'2 moduli':>10} {'3 moduli':>10}")
    for m, r in REDUCTION_TILES:
        n = m + r - 1
        red2 = float(transforms.arithmetic_reduction(m, r, 2))
        red3 = float(transforms.arithmetic_reduction(m, r, 3))
        print(f"F({m}x{m},{r}x{r})".ljust(16) + f" {n:>4} {red2:>10.2f} {red3:>10.2f}")

    print(f"\ntransform growth at {args.input_bits}-bit inputs:")
    print(f"{'tile':<16} {'filter mag':>11} {'input mag':>10} {'bits':>5}")
    for (m, r), rep in zip(WIDTH_TILES, growth):
        print(
            f"F({m}x{m},{r}x{r})".ljust(16)
            + f" {rep.filter_magnification:>11.4g} {rep.input_magnification:>10.4g} "
            f"{rep.required_bits:>5}"
        )
    print(
        "\n(growth bounds assume worst-case inputs; residue channels replace"
        "\nwide words, so the fast path never materializes these widths)"
    )

    print("\nstandard residue systems:")
    for moduli in STANDARD_SYSTEMS:
        system = residue.RnsSystem(moduli)
        print(
            f"  {moduli}: dynamic range {system.dynamic_range}, "
            f"signed +/-{system.signed_bound}"
        )
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnswino",
        description="Exact integer Winograd convolution over residue number systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-transforms", help="derive transform matrices")
    p.add_argument("--m", type=int, required=True, help="outputs per tile side")
    p.add_argument("--r", type=int, required=True, help="filter taps per side")
    p.add_argument("--points", help="comma list of interpolation points, e.g. 0,1,-1,inf")
    p.add_argument("--moduli", help="also print matrices reduced mod each modulus")
    p.add_argument("--json", help="write JSON to this path ('-' for stdout)")
    p.set_defaults(func=cmd_gen_transforms)

    p = sub.add_parser("verify", help="compare the fast path against an int64 oracle")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="verify the layers of a bench config")
    p.add_argument("--input", help="QTNS int8 input tensor (NHWC)")
    p.add_argument("--weights", help="QTNS int8 weight tensor (r, r, c, k)")
    p.add_argument("--output", help="write the verified output tensor here")
    p.add_argument("--tile", type=int,
                   help=f"tile size for file mode (default {layer.DEFAULT_TILE_M})")
    p.add_argument("--padding", type=int, help="padding for file mode (default 0)")
    p.add_argument("--moduli", help="moduli for file mode (default 251,241,239)")
    p.add_argument("--declared-bound", type=int, help="output bound for file mode")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timed sweep over a layer config")
    p.add_argument("--config", help="JSON layer config (default: packaged VGG16)")
    p.add_argument("--csv", help="also write results to this CSV file")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="reduction and data width tables")
    p.add_argument("--input-bits", type=int, default=8)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; fold into our scheme
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except (RnsError, ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
