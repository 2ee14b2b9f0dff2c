"""Exact arithmetic in small finite fields F_q.

Supports prime fields (direct modular arithmetic) and binary extension
fields GF(2^k), k <= 16 (log/antilog tables for O(1) multiply).  Elements
are plain Python ints in [0, q); a Field instance owns the arithmetic.
Field objects are immutable after construction and safe to share.
"""

from __future__ import annotations

# Conventional primitive polynomials for GF(2^k), packed as bitmasks
# (bit i = coefficient of x^i): x generates each field's multiplicative
# group.  Every GF(2^k) uses its entry here, so runs are reproducible
# across machines.
DEFAULT_MODULI = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}

MAX_ORDER = 1 << 16


class FieldError(ValueError):
    """Invalid field construction or arithmetic request."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class Field:
    """A finite field F_q with q prime or q = 2^k, k <= 16.

    Use :func:`field_new` to construct; the constructor itself validates
    its arguments and builds multiplication tables where appropriate.
    """

    __slots__ = ("q", "kind", "modulus", "_exp", "_log")

    def __init__(self, q: int):
        if q < 2 or q > MAX_ORDER:
            raise FieldError(f"field order {q} out of supported range [2, 2^16]")
        self.q = q
        self._exp = self._log = None
        if q & (q - 1) == 0:  # power of two
            k = q.bit_length() - 1
            self.kind = "binary-extension" if k > 1 else "prime"
            self.modulus = DEFAULT_MODULI[k]
            if k > 1:
                self._build_tables()
        else:
            if not _is_prime(q):
                raise FieldError(f"{q} is neither prime nor a power of 2")
            self.kind = "prime"
            self.modulus = None

    def _build_tables(self):
        """Log/antilog tables for the generator x (every modulus is primitive)."""
        q = self.q
        exp = [0] * (2 * q)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & q:                 # degree k: reduce by the modulus
                x ^= self.modulus
        for i in range(q - 1, 2 * q - 2):
            exp[i] = exp[i - (q - 1)]
        self._exp = exp
        self._log = log

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a + b) % self.q
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a - b) % self.q
        return a ^ b

    def neg(self, a: int) -> int:
        if self.kind == "prime":
            return (-a) % self.q
        return a

    def mul(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a * b) % self.q
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.kind == "prime":
            return pow(a, self.q - 2, self.q)
        return self._exp[(self.q - 1) - self._log[a]]

    # -- helpers ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        if self.kind == "binary-extension":
            return f"Field(GF(2^{self.q.bit_length() - 1}), modulus={bin(self.modulus)})"
        return f"Field(GF({self.q}))"

    def __reduce__(self):
        return (Field, (self.q,))


def field_new(q: int) -> Field:
    """Construct F_q; q prime or 2^k (k <= 16, modulus from DEFAULT_MODULI)."""
    return Field(q)
