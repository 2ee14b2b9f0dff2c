"""Finite-field arithmetic: axioms, known values, construction errors."""

import pickle
import random

import pytest

from arcnc.gf import DEFAULT_MODULI, Field, FieldError, field_new, is_irreducible_gf2


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


def test_irreducibility_oracle():
    assert is_irreducible_gf2(0b111)        # x^2 + x + 1
    assert not is_irreducible_gf2(0b101)    # x^2 + 1 = (x+1)^2
    assert is_irreducible_gf2(0b1011)       # x^3 + x + 1
    assert not is_irreducible_gf2(0b1111)   # divisible by x + 1
    for k, mod in DEFAULT_MODULI.items():
        assert is_irreducible_gf2(mod), f"default modulus for k={k}"


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
    with pytest.raises(FieldError):
        field_new(4, modulus=0b101)  # reducible modulus


def test_field_equality_and_pickle():
    a = field_new(16)
    b = field_new(16)
    assert a == b and hash(a) == hash(b)
    assert a != field_new(17)
    c = pickle.loads(pickle.dumps(a))
    assert c == a
    assert c.mul(7, 9) == a.mul(7, 9)


def test_custom_modulus_changes_arithmetic():
    # Two distinct irreducible degree-4 moduli give distinct (isomorphic)
    # coordinate representations.
    f1 = field_new(16, modulus=0b10011)
    f2 = field_new(16, modulus=0b11001)
    assert any(f1.mul(a, a) != f2.mul(a, a) for a in range(2, 16))
