import itertools

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


def test_enumeration_small():
    assert [el.idx for el in GF(2).elements()] == [0, 1]
    assert [el.idx for el in GF(3).elements()] == [0, 1, 2]
    assert len(list(GF(3, 2).elements())) == 9


def test_enumeration_deterministic():
    a = [el.idx for el in GF(2, 3).elements()]
    b = [el.idx for el in GF(2, 3).elements()]
    assert a == b and a[0] == 0


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


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_axioms_under_every_irreducible_modulus(p, e):
    moduli = [mod for mod in _monic_polys(p, e) if _is_irreducible(mod, p)]
    # Gauss: the number of monic irreducibles of degree e over F_p
    assert len(moduli) == {(2, 2): 1, (2, 3): 2, (2, 4): 3, (3, 2): 3}[(p, e)]
    for mod in moduli:
        _check_axioms(GF(p, e, modulus=mod))
