"""Finite-field arithmetic: axioms, known values, construction errors."""

import pickle
import random

import pytest

from arcnc.gf import DEFAULT_MODULI, FieldError, field_new


SMALL_Q = [2, 3, 4, 5, 7, 8, 11, 13, 16]


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    f = field_new(q)
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(f.add(a, b), b) == a
            if b != 0:
                assert f.mul(f.mul(a, f.inv(b)), b) == a
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("q", [256, 4096, 65536, 101])
def test_field_axioms_sampled(q):
    f = field_new(q)
    rng = random.Random(q)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        assert f.sub(f.add(a, b), b) == a


def test_gf8_known_values():
    f = field_new(8)
    assert f.mul(3, 7) == 2
    assert f.inv(2) == 5
    assert f.add(5, 3) == 6  # xor in characteristic 2


def test_gf2_is_xor_and_mod2():
    f = field_new(2)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1
    assert f.neg(1) == 1


def test_prime_field_values():
    f = field_new(5)
    assert f.mul(3, 4) == 2
    assert f.inv(3) == 2
    assert f.neg(2) == 3


def test_default_moduli_make_x_primitive():
    # x has multiplicative order q - 1 modulo each default polynomial, by
    # shift-and-reduce independent of the field's tables; so the modulus is
    # irreducible and primitive, and x generates the log/antilog tables.
    for k, mod in DEFAULT_MODULI.items():
        q = 1 << k
        f = field_new(q)
        assert f.modulus == mod
        x = 1
        for order in range(1, q):
            x <<= 1
            if x & q:
                x ^= mod
            if x == 1:
                break
        assert order == q - 1 and x == 1, f"x has order {order} for k={k}"
        if k > 1:
            assert all(f.mul(2, a) == (a << 1) ^ (mod if a & (q >> 1) else 0)
                       for a in range(q))


def test_construction_errors():
    with pytest.raises(FieldError):
        field_new(1)
    with pytest.raises(FieldError):
        field_new(6)
    with pytest.raises(FieldError):
        field_new(9)   # prime power but not a prime or power of two
    with pytest.raises(FieldError):
        field_new(1 << 17)  # above the table-size cap
    f = field_new(4)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_field_equality_and_pickle():
    a = field_new(16)
    b = field_new(16)
    assert a == b and hash(a) == hash(b)
    assert a != field_new(17)
    c = pickle.loads(pickle.dumps(a))
    assert c == a
    assert c.mul(7, 9) == a.mul(7, 9)
