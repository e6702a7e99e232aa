"""Symmetric residue arithmetic and RNS encode/decode.

Expected values here are either worked out by hand or recovered through a
brute force search over the full dynamic range, never by calling the code
under test twice.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnswinograd import residue
from rnswinograd.errors import NotCoprime, OutOfRange, SystemMismatch


def brute_force_reconstruct(values, moduli):
    """The unique signed integer in the symmetric range with these residues."""
    total = math.prod(moduli)
    for x in range(-(total - 1) // 2, (total - 1) // 2 + 1):
        if all((x - v) % m == 0 for v, m in zip(values, moduli)):
            return x
    raise AssertionError(f"no preimage for {values} mod {moduli}")


# ---------------------------------------------------------------------------
# scalar helpers


def test_check_modulus_accepts_odd_15_bit():
    assert residue.check_modulus(3) == 3
    assert residue.check_modulus(251) == 251
    assert residue.check_modulus(32767) == 32767


@pytest.mark.parametrize("bad", [1, -7, 0, 2, 10, 32768, 32769 + 2])
def test_check_modulus_rejects(bad):
    with pytest.raises(ValueError):
        residue.check_modulus(bad)


def test_check_modulus_rejects_non_integers():
    with pytest.raises(TypeError):
        residue.check_modulus(7.0)


def test_mod_reduce_hand_values():
    assert residue.mod_reduce(48, 7) == -1
    assert residue.mod_reduce(14400, 253) == -21
    assert residue.mod_reduce(-5, 7) == 2
    assert residue.mod_reduce(3, 7) == 3
    assert residue.mod_reduce(4, 7) == -3
    assert residue.mod_reduce(0, 251) == 0


def test_mod_reduce_is_congruent_and_symmetric():
    for m in (3, 7, 9, 251, 4001):
        half = (m - 1) // 2
        for x in (-3 * m - 2, -m, -1, 0, 1, half, half + 1, m, 5 * m + 3):
            r = residue.mod_reduce(x, m)
            assert (x - r) % m == 0
            assert -half <= r <= half


def test_mod_inverse_hand_values():
    # 14400 = 120**2, the scale factor cleared out of a 10-point transform
    assert residue.mod_inverse(14400, 253) == 12
    assert residue.mod_inverse(14400, 251) == 27
    assert residue.mod_inverse(14400, 247) == -10


def test_mod_inverse_is_an_inverse():
    for m in (7, 9, 253, 251, 247, 4001, 4331):
        for x in (1, 2, -2, 120, 14400, m - 1):
            if math.gcd(x, m) != 1:
                continue
            inv = residue.mod_inverse(x, m)
            assert (x * inv) % m == 1
            assert abs(inv) <= (m - 1) // 2


def test_mod_inverse_rejects_shared_factors():
    with pytest.raises(NotCoprime):
        residue.mod_inverse(6, 9)
    with pytest.raises(NotCoprime):
        residue.mod_inverse(253, 11 * 23)


# ---------------------------------------------------------------------------
# systems


def test_system_range_small():
    sys79 = residue.RnsSystem((7, 9))
    assert sys79.moduli == (7, 9)
    assert sys79.dynamic_range == 63
    assert sys79.signed_bound == 31
    assert len(sys79) == 2


def test_system_rejects_bad_moduli():
    with pytest.raises(NotCoprime):
        residue.RnsSystem((7, 21))
    with pytest.raises(NotCoprime):
        residue.RnsSystem((9, 11, 15))  # 9 and 15 share 3
    with pytest.raises(ValueError):
        residue.RnsSystem((7, 8))
    with pytest.raises(ValueError):
        residue.RnsSystem(())


def test_system_equality_and_hash():
    a = residue.RnsSystem((7, 9))
    b = residue.RnsSystem((7, 9))
    c = residue.RnsSystem((9, 7))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_to_rns_hand_values():
    sys79 = residue.RnsSystem((7, 9))
    assert sys79.to_rns(-8).values == (-1, 1)
    assert sys79.to_rns(0).values == (0, 0)
    assert sys79.to_rns(31).values == (3, 4)
    assert sys79.to_rns(-31).values == (-3, -4)


def test_to_rns_rejects_out_of_range():
    sys79 = residue.RnsSystem((7, 9))
    with pytest.raises(OutOfRange):
        sys79.to_rns(32)
    with pytest.raises(OutOfRange):
        sys79.to_rns(-32)
    # 48 is representable only as a congruent wraparound, not as itself
    with pytest.raises(OutOfRange):
        sys79.to_rns(48)


def test_reconstruct_accepts_any_congruent_representatives():
    # residues of 48 in standard (non-negative) form; the decoder answers
    # with the symmetric-range member of the same residue class
    sys79 = residue.RnsSystem((7, 9))
    got = sys79.reconstruct((6, 3))
    assert got == -15
    assert (got - 48) % 63 == 0


def test_round_trip_exhaustive_small_system():
    sys79 = residue.RnsSystem((7, 9))
    for x in range(-31, 32):
        vec = sys79.to_rns(x)
        assert brute_force_reconstruct(vec.values, (7, 9)) == x
        assert sys79.reconstruct(vec) == x
        assert int(vec) == x


def test_round_trip_three_moduli_spot_checks():
    sys3 = residue.RnsSystem((7, 9, 11))
    for x in (-346, -100, -1, 0, 1, 77, 346):
        vec = sys3.to_rns(x)
        assert sys3.reconstruct(vec) == x
        assert brute_force_reconstruct(vec.values, (7, 9, 11)) == x


def test_reconstruct_wrong_arity_or_system():
    sys79 = residue.RnsSystem((7, 9))
    with pytest.raises(SystemMismatch):
        sys79.reconstruct((1, 2, 3))
    other = residue.RnsSystem((7, 11))
    with pytest.raises(SystemMismatch):
        sys79.reconstruct(other.to_rns(5))


# ---------------------------------------------------------------------------
# vectors


def test_vector_arithmetic_exact_when_in_range():
    sys79 = residue.RnsSystem((7, 9))
    a, b = 5, 6
    assert int(sys79.to_rns(a) + sys79.to_rns(b)) == a + b
    assert int(sys79.to_rns(a) - sys79.to_rns(b)) == a - b
    assert int(sys79.to_rns(a) * sys79.to_rns(b)) == a * b
    assert int(-sys79.to_rns(a)) == -a


def test_vector_arithmetic_wraps_by_congruence():
    # 20 * 20 = 400 does not fit +/-31; the result is its residue class
    sys79 = residue.RnsSystem((7, 9))
    got = int(sys79.to_rns(20) * sys79.to_rns(20))
    assert got == 22
    assert (got - 400) % 63 == 0


def test_vector_product_large_system():
    sys3 = residue.RnsSystem((253, 251, 247))
    a, b = 1234, -567
    assert int(sys3.to_rns(a) * sys3.to_rns(b)) == a * b


def test_vector_system_mismatch():
    a = residue.RnsSystem((7, 9)).to_rns(3)
    b = residue.RnsSystem((7, 11)).to_rns(3)
    with pytest.raises(SystemMismatch):
        a + b


@pytest.mark.parametrize(
    "moduli", [(7, 9, 11), (251, 241, 239), (4001, 4331), (32749, 32719, 32717, 32713)]
)
def test_reconstruct_at_symmetric_range_edges(moduli):
    # every combination of residues -(m-1)/2, 0 and (m-1)/2, the CRT sum's
    # widest terms, and the same residues one modulus further out
    system = residue.RnsSystem(moduli)
    for combo in itertools.product(*[(-(m - 1) // 2, 0, (m - 1) // 2) for m in moduli]):
        x = system.reconstruct(combo)
        assert abs(x) <= system.signed_bound
        assert all((x - v) % m == 0 for v, m in zip(combo, moduli))
        assert system.reconstruct([v - m if v > 0 else v + m for v, m in zip(combo, moduli)]) == x


# ---------------------------------------------------------------------------
# CRT cofactors and the float64 CRT bound


def crt_weights(system):
    """c_i = M_i * (M_i^-1 mod m_i), the weight that selects channel i."""
    return tuple(c * inv for c, inv in zip(system.cofactors, system.inverses))


def test_crt_weights_hand_values():
    # (7, 9): 9 * (9^-1 mod 7 = 4, balanced -3) = -27; 7 * (7^-1 mod 9) = 7 * 4 = 28
    sys79 = residue.RnsSystem((7, 9))
    assert sys79.cofactors == (9, 7) and sys79.inverses == (-3, 4)
    assert crt_weights(sys79) == (-27, 28)
    assert crt_weights(residue.RnsSystem((7,))) == (1,)
    assert crt_weights(residue.RnsSystem((4001, 4331))) == (-8454112, 8454113)


@pytest.mark.parametrize(
    "moduli",
    [(7, 9, 11), (251, 241, 239), (253, 251, 247), (4001, 4331), (32749, 32719, 32717)],
)
def test_crt_weights_select_one_modulus(moduli):
    system = residue.RnsSystem(moduli)
    total = math.prod(moduli)
    for i, c in enumerate(crt_weights(system)):
        assert system.cofactors[i] * moduli[i] == total
        assert 2 * abs(system.inverses[i]) < moduli[i]
        assert 2 * abs(c) <= total
        for j, m in enumerate(moduli):
            assert c % m == (1 if i == j else 0)


def test_crt_bound_picks_the_route():
    # folded rows: sum_i M_i * n * h_i**2 against 2**51 (gemm.FLOAT64_FOLD)
    for moduli in [(251, 241, 239), (253, 251, 247), (4001, 4331), (32749, 32719)]:
        system = residue.RnsSystem(moduli)
        assert all(system.crt_fits(n) for n in range(2, 19)), moduli
    system = residue.RnsSystem((32749, 32719, 32717))
    assert not any(system.crt_fits(n) for n in range(2, 19))
    system = residue.RnsSystem((4001, 4331))
    assert system.crt_bound(16) == 16 * (4331 * 2000**2 + 4001 * 2165**2)  # 2**39.1
    system = residue.RnsSystem((32749, 32719))
    per_depth = 32719 * 16374**2 + 32749 * 16359**2
    assert system.crt_bound(16) == 16 * per_depth  # 2**48.0
    assert system.crt_fits(128)  # 2,244,660,074,331,264
    assert not system.crt_fits(129)  # 2,262,196,481,161,977 > 2**51
    # a system whose signed bound covers every int32 output fits far past
    # any tile in use: 2**47.6 at n = 40
    system = residue.RnsSystem((1601, 1619, 1663))
    assert system.signed_bound == 2_155_263_798 > 2**31 - 1
    assert system.crt_fits(40)


def test_crt_bound_of_unfolded_rows():
    # unfolded rows reach n * h_i**2, so the bound is n**2 * sum_i M_i * h_i**3
    system = residue.RnsSystem((251, 241, 239))
    per_depth2 = 241 * 239 * 125**3 + 251 * 239 * 120**3 + 251 * 241 * 119**3
    assert system.crt_bound(16, folded=False) == 256 * per_depth2  # 2**46.2
    assert system.crt_fits(84, folded=False)  # 2,244,485,319,156,864
    assert not system.crt_fits(85, folded=False)  # 2,298,243,541,795,400 > 2**51
    assert system.crt_fits(85)
    # (4001, 4331) keeps its rows folded at the vgg16 tile, unfolded up to n = 5
    wide = residue.RnsSystem((4001, 4331))
    assert wide.crt_fits(16) and not wide.crt_fits(16, folded=False)
    assert wide.crt_fits(5, folded=False) and not wide.crt_fits(6, folded=False)


def test_range_checks_survive_optimized_mode(tmp_path):
    # python -O strips assert statements; these checks must still raise
    short = tmp_path / "short.qtns"
    short.write_bytes(b"QTNS\x01")
    code = (
        "import numpy as np\n"
        "from rnswinograd import residue\n"
        "from rnswinograd.errors import DynamicRangeExceeded, OutOfRange\n"
        "system = residue.RnsSystem((7, 9))\n"
        "try:\n"
        "    residue.RnsVector((5, 0), system)\n"
        "    raise SystemExit('RnsVector accepted an out-of-range residue')\n"
        "except OutOfRange:\n"
        "    pass\n"
        "from rnswinograd import layer\n"
        "spec = layer.LayerSpec(h=8, w=8, c=2, k=1, r=3, tile_m=4)\n"
        "x = np.zeros(spec.input_shape(), np.int8)\n"
        "w = np.zeros(spec.weight_shape(), np.int8)\n"
        "wide = residue.RnsSystem((32749, 32719, 32717, 307, 857))\n"
        "try:\n"
        "    layer.winograd_layer_conv(spec, w, x, wide)\n"
        "    raise SystemExit('range_check accepted a system past the CRT bound')\n"
        "except DynamicRangeExceeded:\n"
        "    pass\n"
        "try:\n"
        "    layer.range_check(spec, residue.RnsSystem((251, 241, 239)), -5)\n"
        "    raise SystemExit('range_check accepted a declared bound below 1')\n"
        "except DynamicRangeExceeded:\n"
        "    pass\n"
        "try:\n"
        f"    layer.read_tensor({str(short)!r})\n"
        "    raise SystemExit('read_tensor accepted a truncated header')\n"
        "except ValueError:\n"
        "    pass\n"
    )
    src = str(Path(residue.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# properties

COPRIME_POOL = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 247, 251, 253]


def pairwise_coprime(moduli):
    return all(
        math.gcd(a, b) == 1
        for i, a in enumerate(moduli)
        for b in moduli[i + 1 :]
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_round_trip(data):
    moduli = tuple(
        data.draw(
            st.lists(
                st.sampled_from(COPRIME_POOL), min_size=1, max_size=3, unique=True
            ).filter(pairwise_coprime)
        )
    )
    system = residue.RnsSystem(moduli)
    x = data.draw(
        st.integers(min_value=-system.signed_bound, max_value=system.signed_bound)
    )
    vec = system.to_rns(x)
    assert all(
        abs(v) <= (m - 1) // 2 and (x - v) % m == 0
        for v, m in zip(vec.values, moduli)
    )
    assert int(vec) == x


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_ring_homomorphism(data):
    moduli = tuple(
        data.draw(
            st.lists(
                st.sampled_from(COPRIME_POOL), min_size=2, max_size=3, unique=True
            ).filter(pairwise_coprime)
        )
    )
    system = residue.RnsSystem(moduli)
    bound = system.signed_bound
    x = data.draw(st.integers(min_value=-bound, max_value=bound))
    y = data.draw(st.integers(min_value=-bound, max_value=bound))
    total = system.dynamic_range
    for op, ref in (
        (system.to_rns(x) + system.to_rns(y), x + y),
        (system.to_rns(x) - system.to_rns(y), x - y),
        (system.to_rns(x) * system.to_rns(y), x * y),
    ):
        got = int(op)
        assert (got - ref) % total == 0
        if abs(ref) <= bound:
            assert got == ref
