from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import divide_by_scan
from hibiring import grid, polynomials
from hibiring.errors import HibiError, ZeroInput
from hibiring.ideal import buchberger_check, hibi_ideal
from hibiring.polynomials import (
    DivisorIndex,
    Polynomial,
    RevLex,
    _div,
    mono_div,
    mono_lcm,
    mono_mul,
    normal_form,
    s_polynomial,
)

NV = 4
ORDER = RevLex(NV)


def P(coeffs):
    return Polynomial({m: Fraction(c) for m, c in coeffs.items()})


def monos(max_deg=8):
    return st.lists(st.integers(0, NV - 1), max_size=max_deg).map(
        lambda vs: tuple(sorted(vs)))


def polys():
    return st.dictionaries(monos(), st.integers(-5, 5), max_size=5).map(P)


# -- coefficients ----------------------------------------------------------

def rationals():
    return st.one_of(st.integers(-50, 50),
                     st.fractions(min_value=-50, max_value=50,
                                  max_denominator=12))


@given(rationals(), rationals())
@settings(max_examples=200, deadline=None)
def test_rational_field_is_exact(a, b):
    """_div agrees with Fraction division on ints and Fractions, and returns
    a whole quotient as an int."""
    if not b:
        with pytest.raises(ZeroDivisionError):
            _div(a, b)
        return
    q = _div(a, b)
    assert q == Fraction(a) / Fraction(b)
    assert type(q) is (int if q.denominator == 1 else Fraction)


def test_whole_fraction_coefficient_is_the_int():
    m = (0,)
    f, g = Polynomial({m: Fraction(2)}), Polynomial({m: 2})
    assert f == g and hash(f) == hash(g)


# -- order -----------------------------------------------------------------

def test_revlex_basic():
    # x2*x3 > x1*x4 in degrevlex with x1 > x2 > x3 > x4
    a = (1, 2)
    b = (0, 3)
    assert ORDER.greater(a, b)
    assert not ORDER.greater(b, a)
    # degree dominates
    assert ORDER.greater((3, 3), (0, 1, 2)) is False
    assert ORDER.greater((0, 0, 1), (0, 1))


def test_revlex_rank_permutation():
    # reversing the variable order flips which monomial leads
    rev = RevLex(NV, rank=[3, 2, 1, 0])
    a = (0, 1)
    b = (2, 3)
    assert ORDER.greater(a, b)
    assert rev.greater(b, a)


def test_leading_monomial_follows_order():
    rev = RevLex(NV, rank=[3, 2, 1, 0])
    f = P({(0, 1): 1, (2, 3): 1})
    assert f.leading_monomial(ORDER) == (0, 1)
    assert f.leading_monomial(rev) == (2, 3)
    assert f.leading_monomial(ORDER) == (0, 1)


def test_revlex_bad_rank():
    with pytest.raises(HibiError):
        RevLex(3, rank=[0, 0, 1])


@given(monos(), monos(), monos())
@settings(max_examples=100, deadline=None)
def test_revlex_total_and_multiplicative(a, b, c):
    if a != b:
        assert ORDER.greater(a, b) != ORDER.greater(b, a)
        assert ORDER.greater(mono_mul(a, c), mono_mul(b, c)) == ORDER.greater(a, b)


def _exponents(m):
    return [m.count(v) for v in range(NV)]


def _degrevlex_greater(a, b, rank):
    """The reference order on exponent vectors: the higher total degree
    wins; on equal degrees, the smaller exponent of the highest-ranked
    variable where the two differ wins."""
    ea, eb = _exponents(a), _exponents(b)
    if sum(ea) != sum(eb):
        return sum(ea) > sum(eb)
    for v in sorted(range(NV), key=rank.__getitem__, reverse=True):
        if ea[v] != eb[v]:
            return ea[v] < eb[v]
    return False


@given(monos(), monos(), st.permutations(range(NV)))
@settings(max_examples=200, deadline=None)
def test_revlex_key_is_degrevlex_on_exponents(a, b, rank):
    order = RevLex(NV, rank)
    assert order.greater(a, b) == _degrevlex_greater(a, b, rank)
    assert (order.key(a) == order.key(b)) == (a == b)


@given(monos(), monos())
@settings(max_examples=100, deadline=None)
def test_monomial_operations_on_exponents(a, b):
    """mono_mul, mono_div and mono_lcm are the sum, the difference (when
    every exponent of b is at most a's) and the maximum of exponent
    vectors, and keep their variables sorted."""
    ea, eb = _exponents(a), _exponents(b)
    assert _exponents(mono_mul(a, b)) == [x + y for x, y in zip(ea, eb)]
    assert _exponents(mono_lcm(a, b)) == [max(x, y) for x, y in zip(ea, eb)]
    q = mono_div(a, b)
    if all(y <= x for x, y in zip(ea, eb)):
        assert _exponents(q) == [x - y for x, y in zip(ea, eb)]
    else:
        assert q is None
    for m in (mono_mul(a, b), mono_lcm(a, b), q or ()):
        assert list(m) == sorted(m)


# -- arithmetic ------------------------------------------------------------

def test_poly_basics():
    x1 = Polynomial.variable(0)
    x2 = Polynomial.variable(1)
    f = (x1 + x2) * (x1 - x2)
    assert f == x1 * x1 - x2 * x2
    assert f.degree() == 2
    assert f.is_homogeneous()
    assert (f - f).is_zero()
    assert (f - f).degree() == -1
    assert Polynomial({(0,): 0, (1,): 2, (): Fraction(0)}).coeffs == {(1,): 2}


def test_leading_term():
    f = P({(1, 2): 2, (0, 3): -3})
    m, c = f.leading_term(ORDER)
    assert m == (1, 2) and c == 2
    with pytest.raises(ZeroInput):
        Polynomial.zero().leading_monomial(ORDER)


def test_render():
    f = P({(0, 1): 1, (2, 3): -1})
    assert f.render(["a", "b", "c", "d"], ORDER) == "a*b-c*d"
    assert Polynomial.zero().render(["a", "b", "c", "d"]) == "0"
    # a repeated variable is a power; repr names variables up to the largest
    g = P({(0, 0, 2): 3, (): -1})
    assert g.render(["a", "b", "c", "d"], ORDER) == "3*a^2*c-1"
    assert repr(g) == "Polynomial(3*x1^2*x3-1)"


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert (f - f).is_zero()


# -- division --------------------------------------------------------------

def test_divide_remainder_irreducible():
    f = P({(0, 1): 1, (3,): 1})
    g = P({(0,): 1, (2,): -1})  # lead x1
    r = normal_form(f, DivisorIndex([g], ORDER))
    # x1*x2 reduces to x2*x3; x4 stays
    assert r == P({(1, 2): 1, (3,): 1})
    lm = g.leading_monomial(ORDER)
    assert all(mono_div(m, lm) is None for m in r.coeffs)


@given(polys(), st.lists(polys().filter(lambda p: not p.is_zero()),
                         min_size=1, max_size=3), monos(3), rationals())
@settings(max_examples=60, deadline=None)
def test_built_polynomials_hold_no_zero(f, gs, mono, coeff):
    """mul_term and normal_form keep the dicts they build, unfiltered; none
    holds a zero coefficient."""
    r = normal_form(f, DivisorIndex(gs, ORDER))
    for p in [r, f.mul_term(mono, coeff)]:
        assert all(p.coeffs.values())
    assert f.mul_term(mono, 0).is_zero()


def test_divide_first_divisor_wins():
    # both leads divide x1*x2; they sit under different variables of the index
    x1, x2 = P({(0,): 1}), P({(1,): 1})
    m = (0, 1)
    assert DivisorIndex([x1, x2], ORDER).first_divisor(m) == 0
    assert DivisorIndex([x2, x1], ORDER).first_divisor(m) == 0
    # the smallest dividing index wins, whichever bucket it sits in
    x3 = P({(2,): 1})
    assert DivisorIndex([x3, x2, x1], ORDER).first_divisor(m) == 1
    assert DivisorIndex([x3], ORDER).first_divisor(m) == 1  # none divides


@given(polys(), st.lists(polys().filter(lambda p: not p.is_zero()),
                         min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_normal_form_is_the_division_remainder(f, gs):
    """normal_form equals the remainder of the full-scan reference division,
    and no monomial of it is divisible by a divisor's lead."""
    remainder = normal_form(f, DivisorIndex(gs, ORDER))
    assert remainder == divide_by_scan(f, gs, ORDER)[1]
    leads = [g.leading_monomial(ORDER) for g in gs]
    for m in remainder.coeffs:
        assert all(mono_div(m, lm) is None for lm in leads)


def test_buchberger_builds_one_index(monkeypatch):
    """One DivisorIndex serves all 900 reductions of grid 4x4, where
    indexing on each call would build 900."""
    built = []
    init = DivisorIndex.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(polynomials.DivisorIndex, "__init__", counted)
    report = buchberger_check(hibi_ideal(grid(4, 4)))
    assert report.pairs_checked == 900
    assert len(built) == 1


def test_buchberger_builds_no_quotients(count_calls):
    """The certificate keeps only remainders: its 900 reductions of grid 4x4
    are normal forms, which build no quotient."""
    forms = count_calls(polynomials, "normal_form")
    report = buchberger_check(hibi_ideal(grid(4, 4)))
    assert (report.pairs_checked, report.pairs_skipped) == (900, 4050)
    assert len(forms) == 900


def test_certificate_builds_no_fraction(monkeypatch):
    """Over unit-coefficient binomials every coefficient is a whole number,
    so certifying grid 4x4 constructs no Fraction at all."""
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)
    monkeypatch.setattr(polynomials, "Fraction", Counted)
    assert _div(1, 2) == Fraction(1, 2) and len(built) == 1
    built.clear()
    report = buchberger_check(hibi_ideal(grid(4, 4)))
    assert report.pairs_checked == 900
    assert built == []


def test_normal_form():
    g = P({(0,): 1})
    f = P({(0, 1): 1, (2,): 2})
    assert normal_form(f, DivisorIndex([g], ORDER)) == P({(2,): 2})


# -- S-polynomials ---------------------------------------------------------

def test_s_polynomial_cancels_leads():
    f = P({(1, 2): 1, (0, 3): -1})
    g = P({(1, 3): 1, (0, 3): -2})
    s = s_polynomial(f, g, ORDER)
    lcm = mono_lcm(f.leading_monomial(ORDER), g.leading_monomial(ORDER))
    assert lcm not in s.coeffs


@given(polys().filter(lambda p: not p.is_zero()),
       polys().filter(lambda p: not p.is_zero()))
@settings(max_examples=60, deadline=None)
def test_s_polynomial_antisymmetric(f, g):
    assert s_polynomial(f, g, ORDER) == -s_polynomial(g, f, ORDER)
