"""GF(2^m) arithmetic backing BCH syndrome computation and decoding.

Field elements are plain ints in [0, 2^m): bit i is the coefficient of
alpha^i in the polynomial basis. Addition is XOR; multiplication and
division go through log/antilog tables built once at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotPrimitiveError(ValueError):
    """The polynomial does not generate the full multiplicative group."""


# Conventional primitive polynomials, bit i = coefficient of x^i.
# m=8 is x^8+x^4+x^3+x^2+1, the usual choice for (255,k) BCH codes.
DEFAULT_PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
}


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """GF(2^m) with log/antilog tables; immutable and shareable."""

    m: int
    primitive_poly: int
    log_table: np.ndarray      # log_table[x] = k with alpha^k = x (log_table[0] unused)
    antilog_table: np.ndarray  # antilog_table[k] = alpha^k, k in [0, 2^m - 1)

    @property
    def size(self) -> int:
        return 1 << self.m

    @property
    def order(self) -> int:
        """Order of the multiplicative group, 2^m - 1."""
        return (1 << self.m) - 1


def build_field(m: int, primitive_poly: int | None = None) -> FieldSpec:
    """Build GF(2^m) tables, verifying that primitive_poly is primitive.

    Raises NotPrimitiveError if the orbit of alpha closes before covering
    all 2^m - 1 nonzero elements.
    """
    if not 2 <= m <= 10:
        raise ValueError(f"extension degree must be in [2, 10], got {m}")
    if primitive_poly is None:
        primitive_poly = DEFAULT_PRIMITIVE_POLYS[m]
    if primitive_poly >> m != 1:
        raise ValueError(
            f"polynomial 0b{primitive_poly:b} does not have degree {m}"
        )

    order = (1 << m) - 1
    antilog = np.zeros(order, dtype=np.int64)
    log = np.zeros(order + 1, dtype=np.int64)
    x = 1
    for k in range(order):
        if x == 1 and k > 0:
            raise NotPrimitiveError(
                f"orbit of alpha under 0b{primitive_poly:b} has size {k} < {order}"
            )
        antilog[k] = x
        log[x] = k
        x <<= 1
        if x >> m:
            x ^= primitive_poly
    if x != 1 or len(set(antilog.tolist())) != order:
        raise NotPrimitiveError(
            f"0b{primitive_poly:b} does not generate GF(2^{m})*"
        )
    return FieldSpec(m=m, primitive_poly=primitive_poly,
                     log_table=log, antilog_table=antilog)


def gf_mul(field: FieldSpec, a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    k = field.log_table[a] + field.log_table[b]
    if k >= field.order:
        k -= field.order
    return int(field.antilog_table[k])


def gf_div(field: FieldSpec, a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^m)")
    if a == 0:
        return 0
    k = (field.log_table[a] - field.log_table[b]) % field.order
    return int(field.antilog_table[k])


def alpha_pow(field: FieldSpec, e: int) -> int:
    """alpha**e for any integer exponent."""
    return int(field.antilog_table[e % field.order])
