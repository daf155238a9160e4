import numpy as np
import pytest

from pcdec.gf import (
    DEFAULT_PRIMITIVE_POLYS,
    NotPrimitiveError,
    alpha_pow,
    build_field,
    gf_div,
    gf_mul,
)


def polymul_mod(a: int, b: int, poly: int, m: int) -> int:
    """Carry-less multiply then reduce mod poly; independent of the tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
    for deg in range(2 * m - 2, m - 1, -1):
        if (acc >> deg) & 1:
            acc ^= poly << (deg - m)
    return acc


def test_build_field_gf16_group_order():
    f = build_field(4, 0b10011)
    assert f.size == 16
    # alpha^15 = 1: antilog table wraps back to the unit element
    assert alpha_pow(f, 15) == 1
    assert alpha_pow(f, 0) == 1


def test_build_field_gf256_orbit():
    f = build_field(8, 0b100011101)
    assert f.order == 255
    assert len(np.unique(f.antilog_table)) == 255
    # antilog[log[x]] = x for every nonzero x
    for x in range(1, 256):
        assert f.antilog_table[f.log_table[x]] == x


def test_build_field_rejects_non_primitive():
    # x^4+x^3+x^2+x+1 is irreducible but alpha has order 5
    x = 1
    orbit = 0
    for _ in range(1, 16):
        x = polymul_mod(x, 2, 0b11111, 4)
        orbit += 1
        if x == 1:
            break
    assert orbit == 5
    with pytest.raises(NotPrimitiveError):
        build_field(4, 0b11111)


def test_build_field_rejects_bad_degree():
    with pytest.raises(ValueError):
        build_field(4, 0b1011)
    with pytest.raises(ValueError):
        build_field(1, 0b11)


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_mul_absorbing_and_identity(m):
    f = build_field(m)
    for x in range(f.size):
        assert gf_mul(f, x, 0) == 0
        assert gf_mul(f, 0, x) == 0
        assert gf_mul(f, x, 1) == x
        assert gf_mul(f, 1, x) == x


def test_mul_matches_polynomial_arithmetic_gf16():
    f = build_field(4, 0b10011)
    a3 = alpha_pow(f, 3)
    a13 = alpha_pow(f, 13)
    assert gf_mul(f, a3, a13) == alpha_pow(f, 1)
    assert gf_mul(f, a3, a13) == polymul_mod(a3, a13, 0b10011, 4)
    for a in range(16):
        for b in range(16):
            assert gf_mul(f, a, b) == polymul_mod(a, b, 0b10011, 4)


def test_mul_matches_polynomial_arithmetic_gf256_sampled():
    f = build_field(8)
    rng = np.random.default_rng(12345)
    for _ in range(2000):
        a, b = rng.integers(0, 256, size=2)
        assert gf_mul(f, int(a), int(b)) == polymul_mod(int(a), int(b), f.primitive_poly, 8)


def test_inverse():
    f = build_field(8)
    # exhaustive: a * (1 / a) = 1 over all 255 nonzero elements
    for a in range(1, 256):
        assert gf_mul(f, a, gf_div(f, 1, a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf_div(f, 3, 0)
    assert gf_div(f, 0, 7) == 0
    assert gf_div(f, gf_mul(f, 9, 7), 7) == 9


@pytest.mark.parametrize("m", [2, 3, 4])
def test_field_axioms_exhaustive_small(m):
    f = build_field(m)
    q = f.size
    for a in range(q):
        for b in range(q):
            assert gf_mul(f, a, b) == gf_mul(f, b, a)
            for c in range(q):
                assert gf_mul(f, gf_mul(f, a, b), c) == gf_mul(f, a, gf_mul(f, b, c))
                assert gf_mul(f, a, b ^ c) == gf_mul(f, a, b) ^ gf_mul(f, a, c)


def test_field_axioms_sampled_gf256():
    f = build_field(8)
    rng = np.random.default_rng(7)
    abc = rng.integers(0, 256, size=(100_000, 3))
    for a, b, c in abc:
        a, b, c = int(a), int(b), int(c)
        assert gf_mul(f, gf_mul(f, a, b), c) == gf_mul(f, a, gf_mul(f, b, c))
        assert gf_mul(f, a, b ^ c) == gf_mul(f, a, b) ^ gf_mul(f, a, c)
        assert gf_mul(f, a, b) == gf_mul(f, b, a)


def test_frobenius_squaring():
    for m in (4, 8):
        f = build_field(m)
        for a in range(f.size):
            square = alpha_pow(f, 2 * int(f.log_table[a])) if a else 0
            assert gf_mul(f, a, a) == square
