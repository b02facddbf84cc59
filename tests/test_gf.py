import itertools

import pytest

from grasscodes.gf import GF

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


def test_enumeration_small():
    assert [el.idx for el in GF(2).elements()] == [0, 1]
    assert [el.idx for el in GF(3).elements()] == [0, 1, 2]
    assert len(list(GF(3, 2).elements())) == 9


def test_enumeration_deterministic():
    a = [el.idx for el in GF(2, 3).elements()]
    b = [el.idx for el in GF(2, 3).elements()]
    assert a == b and a[0] == 0


@pytest.mark.parametrize("p,e", ALL_ORDERS)
def test_field_axioms_exhaustive(p, e):
    field = GF(p, e)
    q = field.q
    for a, b, c in itertools.product(range(q), repeat=3):
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                          field.mul(a, c))
    for a, b in itertools.product(range(q), repeat=2):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
    for a in range(1, q):
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_frobenius_matches_coefficientwise_power(p, e):
    """a^p equals substituting x -> x^p in the polynomial representative."""
    field = GF(p, e)
    x = p  # the element represented by the polynomial x
    xp = 1
    for _ in range(p):
        xp = field.mul(xp, x)
    for a in range(field.q):
        frob = field.element(a) ** p
        # coefficientwise: sum c_i * (x^p)^i  (c_i^p = c_i in F_p)
        acc = 0
        power = 1
        for c in field.coeffs(a):
            acc = field.add(acc, field.mul(c, power))
            power = field.mul(power, xp)
        assert frob.idx == acc


def test_element_wrapper_arithmetic(f4):
    x = f4.element(2)
    assert (x * x).idx == 3
    assert (x + x).idx == 0
    assert (x / x).idx == 1
    assert (-x + x).idx == 0
    assert str(x) == "(0,1)"
    assert str(f4.element(3)) == "(1,1)"


def test_mismatched_fields_rejected(f2, f3):
    with pytest.raises(ValueError):
        f2.one + f3.one


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(0, 0, 1))  # x^2 = x*x
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2


def test_order_cap():
    with pytest.raises(ValueError):
        GF(5, 2)
    GF(5, 2, max_order=25)  # explicit override works


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
