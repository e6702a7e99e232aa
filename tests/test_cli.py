"""Command line behavior: output content, determinism, exit codes, file IO."""

import csv
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import golden_transforms as gold
from rnswinograd import cli, gemm, layer, residue
from rnswinograd.cli import ConfigError
from rnswinograd.errors import DynamicRangeExceeded


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def as_fractions(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def as_ints(rows):
    return tuple(tuple(int(v) for v in row) for row in rows)


# ---------------------------------------------------------------------------
# gen-transforms


def test_gen_transforms_json_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "gen-transforms", "--m", "2", "--r", "3", "--json", "-")
    assert code == 0
    (doc,) = json.loads(out)
    assert (doc["M"], doc["R"]) == (2, 3)
    assert doc["points"] == [0, 1, -1, "inf"]
    assert as_fractions(doc["AT"]) == as_fractions(gold.F2_AT)
    assert as_fractions(doc["BT"]) == as_fractions(gold.F2_BT)
    assert as_fractions(doc["G"]) == as_fractions(gold.F2_G)
    assert as_fractions(doc["Gprime"]) == as_fractions(gold.F2_GPRIME)
    assert Fraction(doc["alpha"]) == Fraction(gold.F2_ALPHA)


def test_gen_transforms_modular_json_matches_reference(capsys):
    moduli = ",".join(str(m) for m in sorted(gold.F10_MOD))
    code, out, _ = run_cli(
        capsys, "gen-transforms", "--m", "10", "--r", "3",
        "--moduli", moduli, "--json", "-",
    )
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 1 + len(gold.F10_MOD)
    assert as_fractions(docs[0]["G"]) == as_fractions(gold.F10_G)
    for doc in docs[1:]:
        want_at, want_g, want_bt = gold.F10_MOD[doc["modulus"]]
        assert as_ints(doc["AT"]) == as_ints(want_at)
        assert as_ints(doc["G"]) == as_ints(want_g)
        assert as_ints(doc["BT"]) == as_ints(want_bt)


def test_gen_transforms_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "f43.json"
    code, out, _ = run_cli(
        capsys, "gen-transforms", "--m", "4", "--r", "3", "--json", str(out_path)
    )
    assert code == 0 and out == ""
    (doc,) = json.loads(out_path.read_text())
    assert Fraction(doc["alpha"]) == Fraction(gold.F4_ALPHA)


def test_gen_transforms_text_output(capsys):
    code, out, _ = run_cli(capsys, "gen-transforms", "--m", "4", "--r", "3")
    assert code == 0
    assert "F(4x4, 3x3),  n = 6" in out
    assert "alpha = 1/24" in out
    assert "G' = G / alpha:" in out


def test_gen_transforms_custom_points_match_default(capsys):
    code, default_out, _ = run_cli(
        capsys, "gen-transforms", "--m", "2", "--r", "3", "--json", "-"
    )
    assert code == 0
    code, custom_out, _ = run_cli(
        capsys, "gen-transforms", "--m", "2", "--r", "3",
        "--points", "0,1,-1,inf", "--json", "-",
    )
    assert code == 0
    assert json.loads(default_out) == json.loads(custom_out)


def test_gen_transforms_rejects_shared_factor_modulus(capsys):
    code, _, err = run_cli(
        capsys, "gen-transforms", "--m", "10", "--r", "3", "--moduli", "21"
    )
    assert code == 1
    assert "shares factor 21" in err
    assert "3628800" in err
    # a modulus that is no modulus is named as such, not as a factor clash
    code, _, err = run_cli(
        capsys, "gen-transforms", "--m", "2", "--r", "3", "--moduli", "0"
    )
    assert code == 1
    assert err == "error: modulus must be odd and in [3, 32767], got 0\n"


def test_gen_transforms_rejects_bad_points(capsys):
    code, _, err = run_cli(
        capsys, "gen-transforms", "--m", "2", "--r", "3", "--points", "0,1,1,inf"
    )
    assert code == 1
    assert "distinct" in err
    code, _, err = run_cli(
        capsys, "gen-transforms", "--m", "2", "--r", "3", "--points", "0,x,1,inf"
    )
    assert code == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_default_sweep_passes_and_is_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "verify", "--seed", "2020")
    assert code == 0
    lines = out1.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    total = lines[-1].split()[0]
    passed, ran = total.split("/")
    assert passed == ran and int(ran) >= 200
    code, out2, _ = run_cli(capsys, "verify", "--seed", "2020")
    assert code == 0 and out2 == out1
    code, out3, _ = run_cli(capsys, "verify", "--seed", "99")
    assert code == 0 and out3 != out1


def test_verify_config_mode(tmp_path, capsys):
    cfg = {
        "rns": [251, 241, 239],
        "tile_m": 4,
        "seed": 5,
        "layers": [
            {"name": "a", "h": 10, "w": 10, "c": 4, "k": 3, "r": 3, "padding": 1},
            {"name": "skip", "h": 10, "w": 10, "c": 4, "k": 3, "r": 3, "algorithm": "direct"},
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "verify", "--config", str(path))
    assert code == 0
    assert "PASS a rns=(251, 241, 239)" in out
    assert "skip" not in out
    assert out.strip().endswith("1/1 cases passed")


def test_verify_config_range_failure_exits_2(tmp_path, capsys):
    cfg = {
        "rns": [251, 241, 239],
        "tile_m": 4,
        "layers": [
            {"name": "big", "h": 8, "w": 8, "c": 512, "k": 2, "r": 3, "padding": 1},
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2
    assert "FAIL big" in out and "dynamic range" in out
    assert "static bound 75497472" in out  # 9 * 512 * 128**2
    assert "signed bound 7228674" in out


def test_verify_config_reports_an_int32_refusal_and_goes_on(tmp_path, capsys):
    # 9 * 14564 * 128**2 = 2,147,549,184 fits the signed bound 2,155,263,798
    # of (1601, 1619, 1663) but not the int32 output
    cfg = {
        "rns": [1601, 1619, 1663],
        "tile_m": 4,
        "layers": [
            {"name": "ok", "h": 8, "w": 8, "c": 4, "k": 2, "r": 3, "padding": 1},
            {"name": "wide", "h": 4, "w": 4, "c": 14564, "k": 1, "r": 3},
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2 and err == ""
    ok, wide, total = out.splitlines()
    assert ok == "PASS ok rns=(1601, 1619, 1663)"
    assert wide.startswith("FAIL wide rns=(1601, 1619, 1663) dynamic range: ")
    assert "worst case 2147549184 exceeds the int32 maximum 2147483647" in wide
    assert total == "1/2 cases passed"


def write_bound_config(tmp_path, bound):
    cfg = {
        "rns": [251, 241, 239],
        "tile_m": 4,
        "declared_bound": bound,
        "layers": [{"name": "deep", "h": 6, "w": 6, "c": 64, "k": 2, "r": 3}],
    }
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(cfg))
    return path


def test_verify_config_declared_bound_is_parsed_and_checked(tmp_path, capsys):
    # c=64 fails the static bound, so only the parsed declaration lets it run
    path = str(write_bound_config(tmp_path, "300000"))
    code, out, _ = run_cli(capsys, "verify", "--config", path)
    assert code == 0 and out.strip().endswith("1/1 cases passed")
    path = str(write_bound_config(tmp_path, 0))
    code, _, err = run_cli(capsys, "verify", "--config", path)
    assert code == 1 and "'deep'" in err and "declared_bound" in err
    path = str(write_bound_config(tmp_path, "big"))
    code, _, err = run_cli(capsys, "verify", "--config", path)
    assert code == 1 and "big" in err


def test_oracle_conv_matches_direct_conv_with_padding_and_stride():
    rng = np.random.default_rng(57)
    for kw in (dict(padding=0, stride=1), dict(padding=2, stride=1), dict(padding=1, stride=2)):
        spec = layer.LayerSpec(h=11, w=9, c=3, k=2, r=3, batch=2, **kw)
        w = rng.integers(-128, 128, spec.weight_shape()).astype(np.int8)
        x = rng.integers(-128, 128, spec.input_shape()).astype(np.int8)
        want = layer.direct_conv(spec, w, x)
        assert np.array_equal(cli.oracle_conv(spec, w, x), want)


def test_verify_oracle_shares_no_engine_code(monkeypatch):
    # an engine that returns zeros makes the fast path and direct_conv agree
    # on a wrong answer; only an oracle outside the package sees it
    real = gemm.exact_matmul
    case = cli.default_verify_cases(2020)[0]
    assert cli.run_verify_case(case)[0]
    monkeypatch.setattr(gemm, "exact_matmul", lambda *a, **kw: real(*a, **kw) * 0)
    ok, line = cli.run_verify_case(case)
    assert not ok and line.startswith("FAIL") and "mismatches=" in line


def test_verify_file_mode_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(55)
    x = rng.integers(-127, 128, (1, 8, 8, 3)).astype(np.int8)
    w = rng.integers(-127, 128, (3, 3, 3, 2)).astype(np.int8)
    xp, wp, op = tmp_path / "x.qtns", tmp_path / "w.qtns", tmp_path / "y.qtns"
    layer.write_tensor(xp, x)
    layer.write_tensor(wp, w)
    code, out, _ = run_cli(
        capsys, "verify", "--input", str(xp), "--weights", str(wp),
        "--tile", "4", "--padding", "1", "--output", str(op),
    )
    assert code == 0
    assert out.startswith("PASS")
    spec = layer.LayerSpec(h=8, w=8, c=3, k=2, r=3, padding=1, tile_m=4)
    assert np.array_equal(layer.read_tensor(op), layer.direct_conv(spec, w, x))


def test_verify_file_mode_argument_errors(tmp_path, capsys):
    rng = np.random.default_rng(56)
    x = rng.integers(-127, 128, (1, 8, 8, 3)).astype(np.int8)
    w = rng.integers(-127, 128, (3, 3, 5, 2)).astype(np.int8)  # channel mismatch
    xp, wp = tmp_path / "x.qtns", tmp_path / "w.qtns"
    layer.write_tensor(xp, x)
    layer.write_tensor(wp, w)
    code, _, err = run_cli(capsys, "verify", "--input", str(xp))
    assert code == 1 and "both --input and --weights" in err
    code, _, err = run_cli(
        capsys, "verify", "--input", str(xp), "--weights", str(wp), "--tile", "4"
    )
    assert code == 1 and "square filters" in err
    for raw in (
        b"QTNS\x01",
        b"QTNS\x01\x04\x01\x00",
        b"QTNS\x01\x04" + (2).to_bytes(4, "little") * 4,
    ):
        xp.write_bytes(raw)  # truncated header: an error line, no traceback
        code, out, err = run_cli(
            capsys, "verify", "--input", str(xp), "--weights", str(wp), "--tile", "4"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "x.qtns: header truncated" in err
        assert "Traceback" not in err


def test_verify_file_mode_rejects_negative_dimensions(tmp_path, capsys):
    wp = tmp_path / "w.qtns"
    layer.write_tensor(wp, np.zeros((3, 3, 1, 1), np.int8))
    xp = tmp_path / "x.qtns"
    for dims, payload, named in (
        ((-1, -2, -3, 1), 6, "-1 on axis 0"),
        ((-2, -1), 2, "-2 on axis 0"),
        ((0, -5), 0, "-5 on axis 1"),
    ):
        head = b"QTNS" + bytes([1, len(dims)])
        head += b"".join(d.to_bytes(4, "little", signed=True) for d in dims)
        xp.write_bytes(head + bytes([8]) + bytes(payload))
        code, out, err = run_cli(
            capsys, "verify", "--input", str(xp), "--weights", str(wp), "--tile", "4"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and f"x.qtns: negative dimension {named}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "dims,expected",
    [
        # 2**64 elements: an int64 product wraps to 0 and matched the empty payload
        ((2**30, 2**30, 16), 2**64),
        ((2**17, 2**17), 17179869184),
    ],
)
def test_verify_file_mode_names_a_file_cut_short(tmp_path, capsys, dims, expected):
    wp = tmp_path / "w.qtns"
    layer.write_tensor(wp, np.zeros((3, 3, 1, 1), np.int8))
    xp = tmp_path / "x.qtns"
    head = b"QTNS" + bytes([1, len(dims)]) + b"".join(d.to_bytes(4, "little") for d in dims)
    xp.write_bytes(head + bytes([8]))  # the header alone, no payload
    code, out, err = run_cli(capsys, "verify", "--input", str(xp), "--weights", str(wp))
    assert (code, out) == (1, "")
    assert err == f"error: {xp}: payload is 0 bytes, expected {expected}\n"


def test_verify_file_mode_rejects_bound_below_one(tmp_path, capsys):
    rng = np.random.default_rng(57)
    xp, wp = tmp_path / "x.qtns", tmp_path / "w.qtns"
    layer.write_tensor(xp, rng.integers(-128, 128, (1, 8, 8, 3)).astype(np.int8))
    layer.write_tensor(wp, rng.integers(-128, 128, (3, 3, 3, 2)).astype(np.int8))
    for bound in ("-5", "0"):
        code, out, err = run_cli(
            capsys, "verify", "--input", str(xp), "--weights", str(wp),
            "--tile", "4", "--declared-bound", bound,
        )
        assert code == 2 and err == ""
        assert out == (
            f"FAIL {xp} * {wp} dynamic range: worst case {bound} is below 1 "
            f"(static bound 442368, declared {bound}, signed bound 7228674)\n"
        )
    code, out, _ = run_cli(
        capsys, "verify", "--input", str(xp), "--weights", str(wp),
        "--tile", "4", "--declared-bound", "1000000",
    )
    assert code == 0 and out.startswith("PASS")


def test_verify_file_mode_range_failure(tmp_path, capsys):
    # the sweep's FAIL line with the bounds, and no output written
    rng = np.random.default_rng(58)
    xp, wp, op = tmp_path / "x.qtns", tmp_path / "w.qtns", tmp_path / "y.qtns"
    layer.write_tensor(xp, rng.integers(-128, 128, (1, 8, 8, 512)).astype(np.int8))
    layer.write_tensor(wp, rng.integers(-128, 128, (3, 3, 512, 2)).astype(np.int8))
    code, out, err = run_cli(
        capsys, "verify", "--input", str(xp), "--weights", str(wp),
        "--tile", "4", "--padding", "1", "--output", str(op),
    )
    assert code == 2 and err == ""
    (line,) = out.splitlines()
    assert line.startswith(f"FAIL {xp} * {wp} dynamic range: ")
    assert "static bound 75497472" in line  # 9 * 512 * 128**2
    assert "signed bound 7228674" in line
    assert not op.exists()


FILE_ONLY_FLAGS = ("--tile", "--padding", "--moduli", "--declared-bound", "--output")


@pytest.mark.parametrize(
    "mode,flag",
    [(mode, flag) for mode in ("sweep", "config") for flag in FILE_ONLY_FLAGS]
    + [("file", "--config"), ("file", "--seed")],
)
def test_verify_modes_refuse_the_flags_they_would_ignore(tmp_path, capsys, mode, flag):
    xp, wp, op = tmp_path / "x.qtns", tmp_path / "w.qtns", tmp_path / "o.qtns"
    layer.write_tensor(xp, np.ones((1, 8, 8, 3), np.int8))
    layer.write_tensor(wp, np.ones((3, 3, 3, 2), np.int8))
    cfg = str(write_small_bench_config(tmp_path))
    argv = {"sweep": [], "config": ["--config", cfg],
            "file": ["--input", str(xp), "--weights", str(wp)]}[mode]
    value = {"--moduli": "4001,4331", "--output": str(op), "--config": cfg}.get(flag, "4")
    code, out, err = run_cli(capsys, "verify", *argv, flag, value)
    assert code == 1 and out == "" and not op.exists()
    where = "does not apply to file mode" if mode == "file" else "applies to file mode only"
    assert err == f"error: {flag} {where} (--input and --weights)\n"


def test_verify_file_mode_defaults(tmp_path, capsys, monkeypatch):
    # F(14x14, 3x3), no padding, on (251, 241, 239) when no flag says otherwise
    rng = np.random.default_rng(59)
    xp, wp = tmp_path / "x.qtns", tmp_path / "w.qtns"
    layer.write_tensor(xp, rng.integers(-128, 128, (1, 18, 18, 3)).astype(np.int8))
    layer.write_tensor(wp, rng.integers(-128, 128, (3, 3, 3, 2)).astype(np.int8))
    seen = []
    real = layer.winograd_layer_conv

    def record(spec, weights, x, system, *args):
        seen.append((spec.tile_m, spec.padding, system.moduli))
        return real(spec, weights, x, system, *args)

    monkeypatch.setattr(layer, "winograd_layer_conv", record)
    code, out, _ = run_cli(capsys, "verify", "--input", str(xp), "--weights", str(wp))
    assert code == 0 and out.startswith("PASS")
    assert seen == [(14, 0, (251, 241, 239))]


def test_random_int8_reaches_both_extremes():
    x = cli.random_int8(np.random.default_rng(3), 4096)
    assert x.dtype == np.int8
    assert int(x.min()) == -128 and int(x.max()) == 127


# ---------------------------------------------------------------------------
# bench


def write_small_bench_config(tmp_path):
    cfg = {
        "rns": [251, 241, 239],
        "tile_m": 4,
        "seed": 9,
        "iterations": 1,
        "layers": [
            {"name": "tiny", "h": 12, "w": 12, "c": 4, "k": 4, "r": 3, "padding": 1},
            {"name": "plain", "h": 12, "w": 12, "c": 4, "k": 4, "r": 3, "algorithm": "direct"},
        ],
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    return path


def test_bench_small_config(tmp_path, capsys):
    path = write_small_bench_config(tmp_path)
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--config", str(path), "--csv", str(csv_path)
    )
    assert code == 0
    assert "tiny" in out and "plain" in out and "total" in out
    with open(csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["layer"] for r in rows] == ["tiny", "plain"]
    assert all(r["exact"] == "1" for r in rows)
    assert rows[0]["algorithm"] == "winograd"
    assert float(rows[0]["mult_reduction"]) == pytest.approx(
        4 * 4 * 9 / (36 * 3), abs=1e-4
    )


def test_bench_iteration_and_seed_overrides(tmp_path, capsys):
    path = write_small_bench_config(tmp_path)
    code, out, _ = run_cli(
        capsys, "bench", "--config", str(path), "--iterations", "2", "--seed", "123"
    )
    assert code == 0
    assert "seed=123" in out and "iterations=2" in out


@pytest.mark.parametrize("iterations", ["0", "-2"])
def test_bench_rejects_iterations_below_one(tmp_path, capsys, iterations):
    # the flag overrides the config's own iterations >= 1 check
    path = write_small_bench_config(tmp_path)
    code, out, err = run_cli(capsys, "bench", "--config", str(path), "--iterations", iterations)
    assert code == 1 and out == ""
    assert err.startswith("error: --iterations") and "Traceback" not in err


def test_bench_header_names_the_reconstruction(tmp_path, capsys):
    # tile_m=4 and r=3: n=6.  (251, 241, 239) sums unfolded rows within
    # 36 * (57599 * 125**3 + 59989 * 120**3 + 60491 * 119**3) = 2**43.380;
    # (4001, 4331) folded ones within 6 * (4331 * 2000**2 + 4001 * 2165**2);
    # (32749, 32719, 32717) is past 2**51 even folded, so its one fast layer
    # is refused and none is left to name
    path = write_small_bench_config(tmp_path)
    code, out, _ = run_cli(capsys, "bench", "--config", str(path))
    assert code == 0
    head = out.splitlines()[0]
    assert head.startswith("rns=(251, 241, 239)  tile_m=4")
    assert head.endswith("reconstruction=CRT, unfolded rows (bound 2**43.380 <= 2**51 at n=6)")
    cfg = json.loads(path.read_text())
    for rns, route in (
        ([4001, 4331], "CRT (bound 2**37.655 <= 2**51 at n=6)"),
        ([32749, 32719], "CRT (bound 2**46.580 <= 2**51 at n=6)"),
    ):
        cfg["rns"] = rns
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "bench", "--config", str(path))
        assert code == 0
        assert out.splitlines()[0].endswith(f"reconstruction={route}")
    cfg["rns"] = [32749, 32719, 32717]
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert lines[0].endswith("reconstruction=none")
    bound = residue.RnsSystem(cfg["rns"]).crt_bound(6)  # 2**62.163
    assert lines[-1] == (
        "FAIL tiny rns=(32749, 32719, 32717) dynamic range: CRT sum bound "
        f"{bound} exceeds the float64 fold's 2**51 (system (32749, 32719, 32717) at n=6)"
    )


def test_reconstruction_route_prints_apart_at_the_edge():
    # (32749, 32719) folded: 2**50.9954 at n = 128, 2**51.0066 at n = 129;
    # one decimal printed 2**51.0 on both sides.  Past the edge range_check
    # refuses the system, so no route is printed for it
    system = residue.RnsSystem((32749, 32719))
    assert cli.reconstruction_route(system, 128) == "CRT (bound 2**50.995 <= 2**51 at n=128)"
    edge = layer.LayerSpec(h=4, w=4, c=1, k=1, r=3, tile_m=126)
    assert layer.range_check(edge, system) == 9 * 128**2
    with pytest.raises(DynamicRangeExceeded, match=r"2\*\*51 \(system \(32749, 32719\) at n=129\)"):
        layer.range_check(replace(edge, tile_m=127), system)


def test_bench_header_names_each_transform_size(tmp_path, capsys):
    # a per-layer tile_m sets that layer's n; layers run direct have none.
    # (4001, 4331) sums unfolded rows at n=4 and folded ones at n=16
    cfg = {
        "rns": [4001, 4331],
        "tile_m": 2,
        "layers": [
            {"name": "small", "h": 8, "w": 8, "c": 2, "k": 2, "r": 3, "padding": 1},
            {"name": "big", "h": 16, "w": 16, "c": 2, "k": 2, "r": 3, "tile_m": 14},
            {"name": "plain", "h": 8, "w": 8, "c": 2, "k": 2, "r": 5, "algorithm": "direct"},
        ],
    }
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "bench", "--config", str(path))
    assert code == 0
    # the tile sizes the fast-path layers ran at, not the config's default
    assert "  tile_m=2,14  " in out.splitlines()[0]
    assert out.splitlines()[0].endswith(
        "reconstruction=CRT, unfolded rows (bound 2**50.096 <= 2**51 at n=4); "
        "CRT (bound 2**39.070 <= 2**51 at n=16)"
    )


def test_bench_runs_strided_layers_direct(tmp_path, capsys):
    # the fast path covers unit stride; the config marks a strided layer
    # direct, so bench runs it direct and verify does not count it
    cfg = {
        "rns": [251, 241, 239],
        "tile_m": 4,
        "layers": [
            {"name": "strided", "h": 12, "w": 12, "c": 3, "k": 2, "r": 3, "stride": 2},
        ],
    }
    path = tmp_path / "strided.json"
    path.write_text(json.dumps(cfg))
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "bench", "--config", str(path), "--csv", str(csv_path))
    assert code == 0
    assert out.splitlines()[0].endswith("reconstruction=none")
    row = next(l for l in out.splitlines() if l.startswith("strided")).split()
    assert row[1] == "direct" and row[-1] == "True" and len(row) == 6
    with open(csv_path, newline="") as f:
        (rec,) = csv.DictReader(f)
    assert rec["algorithm"] == "direct" and rec["crt_pct"] == "" and rec["exact"] == "1"
    cfg["layers"].append({"name": "unit", "h": 12, "w": 12, "c": 3, "k": 2, "r": 3})
    path.write_text(json.dumps(cfg))
    assert [ent.algorithm for ent in cli.load_config(path).layers] == ["direct", "winograd"]
    code, out, _ = run_cli(capsys, "verify", "--config", str(path))
    assert code == 0 and out.strip().endswith("1/1 cases passed")
    assert "PASS unit" in out and "strided" not in out


def test_standard_systems_take_the_fused_route():
    # verify's whole sweep runs on the CRT route
    for moduli in cli.STANDARD_SYSTEMS:
        system = residue.RnsSystem(moduli)
        assert all(system.crt_fits(m + r - 1) for m, r in cli.VERIFY_TILES), moduli


def write_refused_bench_config(tmp_path):
    # "big" is refused: 9 * 512 * 128**2 = 75,497,472 past the signed
    # bound 7,228,674
    cfg = {
        "rns": [251, 241, 239],
        "tile_m": 4,
        "layers": [
            {"name": "tiny", "h": 12, "w": 12, "c": 4, "k": 4, "r": 3, "padding": 1},
            {"name": "big", "h": 8, "w": 8, "c": 512, "k": 2, "r": 3, "padding": 1},
        ],
    }
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(cfg))
    return path


def test_bench_reports_a_refused_layer_and_times_the_rest(tmp_path, capsys, monkeypatch):
    path = write_refused_bench_config(tmp_path)
    timed = []
    real = layer.winograd_layer_conv
    monkeypatch.setattr(layer, "winograd_layer_conv",
                        lambda spec, *a, **kw: timed.append(spec.c) or real(spec, *a, **kw))
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 2 and err == "" and "Traceback" not in out
    assert timed == [4]  # the refused layer is never run
    lines = out.splitlines()
    tiny = next(l for l in lines if l.startswith("tiny"))
    assert tiny.split()[-1] == "True"
    assert not any(l.startswith("big") for l in lines)
    # the line verify --config prints for the same layer
    _, verified, _ = run_cli(capsys, "verify", "--config", str(path))
    fail = verified.splitlines()[1]
    assert fail.startswith("FAIL big rns=(251, 241, 239) dynamic range: ")
    assert lines[-1] == fail
    # with every fast-path layer refused, only the empty total is left
    cfg = json.loads(path.read_text())
    cfg["layers"] = cfg["layers"][1:]
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 2 and err == ""
    assert out.splitlines()[-2:] == ["total                      0.0        0.0      nan", fail]
    # and the header names no tile size or route, as no layer ran
    assert "  tile_m=none  " in out.splitlines()[0]
    assert out.splitlines()[0].endswith("reconstruction=none")


def test_bench_draws_the_operands_verify_checks(tmp_path, capsys, monkeypatch):
    # two same-shaped layers whose names share their first 8 bytes
    cfg = {
        "rns": [251, 241, 239],
        "tile_m": 4,
        "seed": 11,
        "layers": [
            {"name": name, "h": 10, "w": 10, "c": 3, "k": 2, "r": 3, "padding": 1}
            for name in ("block1_conv1", "block1_conv2")
        ],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(cfg))
    seen = []
    real = layer.winograd_layer_conv

    def record(spec, weights, x, *args, **kwargs):
        seen.append((weights.copy(), x.copy()))
        return real(spec, weights, x, *args, **kwargs)

    monkeypatch.setattr(layer, "winograd_layer_conv", record)
    assert run_cli(capsys, "verify", "--config", str(path))[0] == 0
    verified, seen[:] = seen[:], []
    assert run_cli(capsys, "bench", "--config", str(path))[0] == 0
    assert len(verified) == len(seen) == 2
    for (vw, vx), (bw, bx) in zip(verified, seen):
        assert np.array_equal(vw, bw) and np.array_equal(vx, bx)
    assert not np.array_equal(verified[0][1], verified[1][1])


def test_bench_names_a_modulus_that_shares_a_transform_factor(tmp_path, capsys):
    # the F(14x14, 3x3) transforms have denominator 14! = 87178291200, and
    # 253 = 11 * 23; the config is refused when it is read, so an F(2x2, 3x3)
    # layer before the clash prints nothing either
    big = {"name": "big", "h": 16, "w": 16, "c": 2, "k": 2, "r": 3}
    small = {"name": "small", "h": 8, "w": 8, "c": 2, "k": 2, "r": 3, "tile_m": 2}
    path = tmp_path / "f14.json"
    for layers in ([big], [small, big]):
        path.write_text(json.dumps({"rns": [253, 251, 247], "tile_m": 14, "layers": layers}))
        for command in ("bench", "verify"):
            code, out, err = run_cli(capsys, command, "--config", str(path))
            assert code == 1 and out == ""
            assert err.startswith(
                f"error: {path}: layer 'big': modulus 253 shares factor 11 with "
                "transform denominator 87178291200; "
            ), err


def test_config_refuses_a_layer_that_cannot_run_when_read(tmp_path, capsys):
    # a layer whose tile cannot run is refused before any layer runs
    cfg = {"rns": [251, 241, 239],
           "layers": [dict(SMALL_LAYER, tile_m=2), dict(SMALL_LAYER, name="tiny", r=1, tile_m=1)]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    for command in ("bench", "verify"):
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: layer 'tiny': tile_m + r - 1 must be at least 2, got 1\n"
    # a layer run direct derives no transforms: an F(14, 3) layer on a
    # system that F(14, 3) refuses still loads, strided or marked direct
    for ent in (dict(SMALL_LAYER, stride=2), dict(SMALL_LAYER, algorithm="direct")):
        cli.config_from_dict({"rns": [253], "layers": [ent]})


def test_bench_config_declared_bound_is_parsed_and_checked(tmp_path, capsys):
    path = str(write_bound_config(tmp_path, "300000"))
    code, out, _ = run_cli(capsys, "bench", "--config", path)
    assert code == 0 and "deep" in out
    path = str(write_bound_config(tmp_path, -5))
    code, _, err = run_cli(capsys, "bench", "--config", path)
    assert code == 1 and "'deep'" in err and "declared_bound" in err


def test_bench_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 1 and "not valid JSON" in err
    path.write_text(json.dumps({"rns": [251], "layers": []}))
    code, _, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 1 and "no layers" in err


def test_packaged_vgg16_config_parses():
    cfg = cli.load_config(cli.default_bench_config_path())
    assert cfg.rns.moduli == (251, 241, 239)
    assert all(ent.spec.tile_m == 14 for ent in cfg.layers)
    assert len(cfg.layers) == 13
    assert cfg.layers[0].name == "conv1_1"
    assert cfg.layers[0].algorithm == "direct"
    assert all(ent.declared_bound == 300_000 for ent in cfg.layers)
    names = [ent.name for ent in cfg.layers]
    assert names[-1] == "conv5_3"


def test_config_from_dict_errors():
    with pytest.raises(ConfigError):
        cli.config_from_dict({"layers": [{"h": 4}]})  # no rns
    with pytest.raises(ConfigError):
        cli.config_from_dict(
            {"rns": [251], "layers": [
                {"h": 8, "w": 8, "c": 1, "k": 1, "r": 3, "algorithm": "fancy"}
            ]}
        )
    with pytest.raises(ConfigError):
        cli.config_from_dict(
            {"rns": [251], "iterations": 0,
             "layers": [{"h": 8, "w": 8, "c": 1, "k": 1, "r": 3}]}
        )


SMALL_LAYER = {"name": "small", "h": 8, "w": 8, "c": 1, "k": 1, "r": 3}


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"rns": [251]}, "missing key 'layers'"),
        ({"layers": [SMALL_LAYER]}, "missing key 'rns'"),
        ({"rns": [251], "layers": SMALL_LAYER}, "layers must be a list, got {"),
        ({"rns": [251], "layers": [dict(name="a", h=8, c=1, k=1, r=3)]},
         "layer 'a': missing key 'w'"),
        ({"rns": [251], "layers": [dict(SMALL_LAYER, name="a", padding=-1)]},
         "layer 'a': padding must be a non-negative integer, got -1"),
        ({"rns": [251], "layers": [dict(SMALL_LAYER, name="a", tile_m=0)]},
         "layer 'a': tile_m must be a positive integer, got 0"),
        ({"rns": [251], "layers": [dict(SMALL_LAYER, name="a", h=2)]},
         "layer 'a': padded input smaller than the filter"),
        ({"rns": [251], "layers": [dict(SMALL_LAYER, name="a", mode="direct")]},
         "layer 'a': unknown key 'mode'"),
        # a layer without a name goes by its position
        ({"rns": [251], "layers": [SMALL_LAYER, {"h": 8, "w": 8, "c": 1, "k": 1}]},
         "layer 'layer1': missing key 'r'"),
        ({"rns": [251], "layers": [[8, 8, 1, 1, 3]]}, "layer 'layer0': not a JSON object"),
        # the rns list must make a residue system
        ({"rns": [251, 251], "layers": [SMALL_LAYER]}, "moduli 251 and 251 share factor 251"),
        ({"rns": [], "layers": [SMALL_LAYER]}, "an RNS system needs at least one modulus"),
        ({"rns": [251, 241, 32771], "layers": [SMALL_LAYER]},
         "modulus must be odd and in [3, 32767], got 32771"),
        ({"rns": [251], "layers": [dict(SMALL_LAYER, name="a", tile_m=1, r=1)]},
         "layer 'a': tile_m + r - 1 must be at least 2, got 1"),
    ],
)
def test_config_errors_name_the_layer_and_the_key(doc, message):
    with pytest.raises(ConfigError) as info:
        cli.config_from_dict(doc)
    assert str(info.value).startswith(f"config: {message}"), str(info.value)


def test_bench_config_error_names_the_layer(tmp_path, capsys):
    path = tmp_path / "missing.json"
    layer_ent = {k: v for k, v in SMALL_LAYER.items() if k != "w"}
    path.write_text(json.dumps({"rns": [251], "layers": [layer_ent]}))
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: layer 'small': missing key 'w'\n"


@pytest.mark.parametrize(
    "top,ent,names",
    [
        # each was once truncated or coerced: an 8-row layer, tile 4, 2
        # iterations, c = 1 and the system (3, 5, 7)
        ({}, {"h": 8.9}, ("'small'", "h", "8.9")),
        ({}, {"tile_m": 4.5}, ("'small'", "tile_m", "4.5")),
        ({"iterations": 2.9}, {}, ("iterations", "2.9")),
        ({}, {"c": True}, ("'small'", "c", "True")),
        ({"rns": "357"}, {}, ("rns", "'357'")),
        ({"rns": [251.0]}, {}, ("rns", "251.0")),
        ({}, {"declared_bound": 1e5}, ("'small'", "declared_bound", "100000.0")),
        ({}, {"padding": "1.5"}, ("'small'", "padding", "'1.5'")),
    ],
)
def test_config_refuses_inexact_integers(top, ent, names):
    doc = dict({"rns": [251], "layers": [dict(SMALL_LAYER, **ent)]}, **top)
    with pytest.raises(ConfigError) as info:
        cli.config_from_dict(doc)
    assert all(name in str(info.value) for name in names), str(info.value)


def test_config_keeps_decimal_strings():
    doc = {"rns": ["251", 241], "iterations": "2",
           "layers": [dict(SMALL_LAYER, h="9", declared_bound="300000")]}
    cfg = cli.config_from_dict(doc)
    assert cfg.rns.moduli == (251, 241) and cfg.iterations == 2
    assert cfg.layers[0].spec.h == 9 and cfg.layers[0].declared_bound == 300000


def test_verify_config_refuses_a_float_integer(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"rns": [251, 241, 239], "tile_m": 4,
                                "layers": [dict(SMALL_LAYER, h=8.9)]}))
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 1 and "cases passed" not in out
    assert err.startswith("error:") and "'small'" in err and "8.9" in err
    assert "Traceback" not in err


def test_config_rejects_unknown_keys_naming_them():
    layer_ent = {"h": 8, "w": 8, "c": 1, "k": 1, "r": 3}
    # the README once documented "mode"; it must not silently run winograd
    with pytest.raises(ConfigError, match="'mode'"):
        cli.config_from_dict({"rns": [251], "layers": [dict(layer_ent, mode="direct")]})
    with pytest.raises(ConfigError, match="'tile'"):
        cli.config_from_dict({"rns": [251], "tile": 4, "layers": [layer_ent]})
    with pytest.raises(ConfigError):
        cli.config_from_dict({"rns": [251], "layers": [[8, 8, 1, 1, 3]]})


def test_config_top_level_batch_is_a_layer_default():
    cfg = cli.config_from_dict({
        "name": "smoke", "batch": 3, "rns": [251],
        "layers": [
            {"h": 8, "w": 8, "c": 1, "k": 1, "r": 3},
            {"h": 8, "w": 8, "c": 1, "k": 1, "r": 3, "batch": 1},
        ],
    })
    assert [ent.spec.batch for ent in cfg.layers] == [3, 1]


def test_bench_leaves_fast_path_figures_blank_for_direct_layers(tmp_path, capsys):
    path = write_small_bench_config(tmp_path)
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "bench", "--config", str(path), "--csv", str(csv_path))
    assert code == 0
    plain = next(l for l in out.splitlines() if l.startswith("plain"))
    # layer, alg, direct ms, rns ms, speedup, exact: nothing in between
    assert len(plain.split()) == 6 and plain.split()[-1] == "True"
    tiny = next(l for l in out.splitlines() if l.startswith("tiny"))
    assert len(tiny.split()) == 13
    with open(csv_path, newline="") as f:
        rows = {r["layer"]: r for r in csv.DictReader(f)}
    figures = ["mult_reduction", "tiling_pct", "input_transform_pct", "gemm_pct",
               "backward_pct", "crt_pct", "scatter_pct"]
    assert all(rows["plain"][k] == "" for k in figures)
    assert all(rows["tiny"][k] != "" for k in figures)
    assert rows["plain"]["exact"] == "1"


# ---------------------------------------------------------------------------
# analyze


def test_analyze_tables(capsys):
    code, out, _ = run_cli(capsys, "analyze")
    assert code == 0
    line14 = next(l for l in out.splitlines() if l.startswith("F(14x14,3x3)"))
    assert line14.split() == ["F(14x14,3x3)", "16", "3.45", "2.30"]
    line2 = next(
        l for l in out.splitlines()
        if l.startswith("F(2x2,3x3)") and len(l.split()) == 4 and "." in l.split()[1]
    )
    assert line2.split() == ["F(2x2,3x3)", "3.5", "2", "12"]
    assert "(253, 251, 247): dynamic range 15685241, signed +/-7842620" in out
    assert "(4001, 4331): dynamic range 17328331, signed +/-8664165" in out


def test_analyze_two_bit(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--input-bits", "2")
    assert code == 0
    line2 = next(
        l for l in out.splitlines()
        if l.startswith("F(2x2,3x3)") and len(l.split()) == 4 and "." in l.split()[1]
    )
    assert line2.split()[-1] == "5"


# ---------------------------------------------------------------------------
# plumbing


def test_exit_codes_for_usage(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()


def test_make_rng_deterministic_with_string_salt():
    a = cli.make_rng(7, "weights").integers(0, 1 << 30, 4)
    b = cli.make_rng(7, "weights").integers(0, 1 << 30, 4)
    c = cli.make_rng(7, "inputs").integers(0, 1 << 30, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # labels that share their first 8 bytes still salt apart
    d = cli.make_rng(2020, "block1_conv1").integers(0, 1 << 30, 4)
    e = cli.make_rng(2020, "block1_conv2").integers(0, 1 << 30, 4)
    assert not np.array_equal(d, e)


def test_parse_points_and_moduli():
    pts = cli.parse_points("0,1,-1,1/2,inf")
    assert pts[3] == Fraction(1, 2)
    assert pts[-1] is cli.transforms.INF
    assert cli.parse_moduli(" 251, 241 ,239 ") == (251, 241, 239)
    with pytest.raises(ConfigError):
        cli.parse_points("0,1/0")
    with pytest.raises(ConfigError):
        cli.parse_moduli("251,x")
