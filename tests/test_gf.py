import itertools

import numpy as np
import pytest

from grasscodes.gf import GF, _is_irreducible

ALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
              (11, 1), (13, 1), (2, 4)]


def test_char2_addition(f2):
    assert f2.add(1, 1) == 0


def test_mod3_addition(f3):
    assert f3.add(2, 2) == 1


def test_f4_addition_is_coefficientwise(f4):
    # x + (x+1) = 1
    assert f4.add(2, 3) == 1


def test_mod3_product(f3):
    assert f3.mul(2, 2) == 1


def test_f4_square_of_x(f4):
    # x*x reduces to x+1 modulo x^2+x+1
    assert f4.mul(2, 2) == 3


@pytest.mark.parametrize("p,e", ALL_ORDERS)
def test_one_is_identity(p, e):
    field = GF(p, e)
    for a in range(field.q):
        assert field.mul(a, 1) == a


def test_inverse_mod5(f5):
    assert f5.inv(2) == 3


def test_inverse_f2(f2):
    assert f2.inv(1) == 1


def test_inverses_f9_exhaustive():
    f9 = GF(3, 2)
    for a in range(1, 9):
        assert f9.mul(a, f9.inv(a)) == 1


def test_zero_has_no_inverse(f3):
    with pytest.raises(ZeroDivisionError):
        f3.inv(0)


def _check_axioms(field):
    q = field.q
    for a, b, c in itertools.product(range(q), repeat=3):
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                          field.mul(a, c))
    for a, b in itertools.product(range(q), repeat=2):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
    for a in range(q):
        assert field.add(a, 0) == a and field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
    for a in range(1, q):
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("p,e", ALL_ORDERS)
def test_field_axioms_exhaustive(p, e):
    _check_axioms(GF(p, e))


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_frobenius_matches_coefficientwise_power(p, e):
    """a^p equals substituting x -> x^p in the polynomial representative."""
    field = GF(p, e)
    x = p  # the element represented by the polynomial x
    xp = 1
    for _ in range(p):
        xp = field.mul(xp, x)
    for a in range(field.q):
        frob = 1
        for _ in range(p):
            frob = field.mul(frob, a)
        # coefficientwise: sum c_i * (x^p)^i  (c_i^p = c_i in F_p)
        acc = 0
        power = 1
        for c in field.coeffs(a):
            acc = field.add(acc, field.mul(c, power))
            power = field.mul(power, xp)
        assert frob == acc


def test_element_wrapper_arithmetic(f4):
    x = 2  # the polynomial x
    assert f4.mul(x, x) == 3
    assert f4.add(x, x) == 0
    assert f4.mul(x, f4.inv(x)) == 1
    assert f4.add(f4.neg(x), x) == 0
    assert f4.format_element(x) == "(0,1)"
    assert f4.format_element(3) == "(1,1)"


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(0, 0, 1))  # x^2 = x*x
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2


def test_prime_field_rejects_modulus():
    with pytest.raises(ValueError, match="no modulus"):
        GF(3, 1, modulus=(2, 1))


def test_order_cap():
    with pytest.raises(ValueError):
        GF(5, 2)


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        GF(4)


def test_from_string():
    assert GF.from_string("2").q == 2
    assert GF.from_string("2^2").q == 4
    assert GF.from_string("3^2").q == 9
    for order, p, e in [("4", 2, 2), ("8", 2, 3), ("9", 3, 2), ("16", 2, 4)]:
        assert GF.from_string(order) == GF(p, e)
    for bad in ("six", "6", "1", "0", "-4", "25"):
        with pytest.raises(ValueError):
            GF.from_string(bad)


def test_from_string_one_field_per_spelling():
    # the CLI reads its field with every call: one instance per spelling,
    # and two spellings of one field are equal
    assert GF.from_string("3^2") is GF.from_string("3^2")
    assert GF.from_string("4") == GF.from_string("2^2")
    for _ in range(2):  # a bad spelling is not remembered
        with pytest.raises(ValueError, match="bad field spec '6'"):
            GF.from_string("6")


def _monic_polys(p, deg):
    """All monic polynomials of degree deg over F_p, constant term first."""
    return [tuple(c) + (1,) for c in itertools.product(range(p), repeat=deg)]


def _products(p, deg):
    """Every product of two monic polynomials of positive degree summing
    to deg: the reducible monic polynomials of degree deg."""
    out = set()
    for d in range(1, deg):
        for a in _monic_polys(p, d):
            for b in _monic_polys(p, deg - d):
                prod = [0] * (deg + 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        prod[i + j] = (prod[i + j] + x * y) % p
                out.add(tuple(prod))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_irreducibility_matches_factorisation(p):
    for deg in range(1, 5):
        reducible = _products(p, deg)
        for mod in _monic_polys(p, deg):
            assert _is_irreducible(mod, p) == (mod not in reducible), mod


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_tables_are_arithmetic_mod_p(p):
    field = GF(p)
    for a in range(p):
        assert field.neg(a) == -a % p
        for b in range(p):
            assert field.add(a, b) == (a + b) % p
            assert field.mul(a, b) == a * b % p


@pytest.mark.parametrize("p,e", ALL_ORDERS)
def test_array_tables_match_list_tables(p, e):
    field = GF(p, e)
    for arr, table in ((field.add_array, field._add),
                       (field.mul_array, field._mul),
                       (field.neg_array, field._neg),
                       (field.inv_array, field._inv)):
        assert isinstance(table, tuple)
        assert arr.dtype == np.uint8 and arr.tolist() == \
            np.array(table).tolist()
        with pytest.raises(ValueError):  # shared by every user of the field
            arr[0] = 1
    # the flat gathers: every pair, so F_16 reaches entry 15 * 16 + 15 = 255
    q = field.q
    a = np.arange(q, dtype=np.uint8)
    for op, table in ((field.vadd, field.add_array),
                      (field.vmul, field.mul_array)):
        every = op(a[:, None], a[None, :])
        assert every.dtype == np.uint8 and np.array_equal(every, table)
        # broadcast shapes, and equal shapes
        x = np.random.default_rng(q).integers(0, q, (3, 1, 5), dtype=np.uint8)
        y = np.random.default_rng(q + 1).integers(0, q, (4, 1), dtype=np.uint8)
        assert np.array_equal(op(x, y), table[x, y])
        assert op(x, y).shape == (3, 4, 5)
        assert np.array_equal(op(x, x[::-1]), table[x, x[::-1]])
        # non-contiguous operands: a transpose and a strided slice
        z = np.random.default_rng(q + 2).integers(0, q, (6, 10), dtype=np.uint8)
        for u, v in ((z.T, z[::2].T[:, :1]), (z[:3, ::3], z[3:, ::3])):
            out = op(u, v)
            assert out.dtype == np.uint8 and np.array_equal(out, table[u, v])
    assert field.vmul(a[-1:], a[-1:])[0] == field.mul(q - 1, q - 1)
    for flat in (field._add_flat, field._mul_flat):
        assert flat.shape == (q * q,)
        with pytest.raises(ValueError):
            flat[0] = 1


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_axioms_under_every_irreducible_modulus(p, e):
    moduli = [mod for mod in _monic_polys(p, e) if _is_irreducible(mod, p)]
    # Gauss: the number of monic irreducibles of degree e over F_p
    assert len(moduli) == {(2, 2): 1, (2, 3): 2, (2, 4): 3, (3, 2): 3}[(p, e)]
    for mod in moduli:
        field = GF(p, e, modulus=mod)
        _check_axioms(field)
        # the array kernels (XOR in characteristic 2) on all q^2 pairs
        a = np.arange(field.q, dtype=np.uint8)
        assert np.array_equal(field.vadd(a[:, None], a), field.add_array)
        assert np.array_equal(field.vmul(a[:, None], a), field.mul_array)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_prime_fold_exact_at_largest_sum(p):
    # (p-1) + (p-1) = 2p - 2 is the largest uint8 sum the fold reduces
    top = np.full(4, p - 1, dtype=np.uint8)
    total = GF(p).vadd(top, top)
    assert total.dtype == np.uint8 and total.tolist() == [p - 2] * 4
    assert GF(p).vadd(top, np.ones(4, dtype=np.uint8)).tolist() == [0] * 4
