from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    divide_by_scan,
    leading_term,
    relation_poly,
    s_polynomial,
    standard_form,
)
from hibiring import grid
from hibiring.errors import HibiError
from hibiring.ideal import Rewriting, buchberger_check, hibi_ideal
from hibiring.polynomials import RevLex, mono_div, mono_lcm, mono_mul

NV = 4
ORDER = RevLex(NV, range(NV))


def monos(max_deg=8):
    return st.lists(st.integers(0, NV - 1), max_size=max_deg).map(
        lambda vs: tuple(sorted(vs)))


def polys():
    """Polynomial dicts of the general reference, zeros dropped."""
    return st.dictionaries(monos(), st.integers(-5, 5), max_size=5).map(
        lambda f: {m: c for m, c in f.items() if c})


def greater(order, a, b):
    return order.key(a) > order.key(b)


# -- order -----------------------------------------------------------------

def test_revlex_basic():
    # x2*x3 > x1*x4 in degrevlex with x1 > x2 > x3 > x4
    a = (1, 2)
    b = (0, 3)
    assert greater(ORDER, a, b)
    assert not greater(ORDER, b, a)
    # degree dominates
    assert greater(ORDER, (3, 3), (0, 1, 2)) is False
    assert greater(ORDER, (0, 0, 1), (0, 1))


def test_revlex_rank_permutation():
    # reversing the variable order flips which monomial leads
    rev = RevLex(NV, rank=[3, 2, 1, 0])
    a = (0, 1)
    b = (2, 3)
    assert greater(ORDER, a, b)
    assert greater(rev, b, a)


def test_leading_monomial_follows_order():
    rev = RevLex(NV, rank=[3, 2, 1, 0])
    f = ((0, 1), (2, 3))
    assert ORDER.max(f) == (0, 1)
    assert rev.max(f) == (2, 3)
    assert ORDER.max(f[::-1]) == (0, 1)


def test_revlex_bad_rank():
    with pytest.raises(HibiError):
        RevLex(3, rank=[0, 0, 1])


@given(monos(), monos(), monos())
@settings(max_examples=100, deadline=None)
def test_revlex_total_and_multiplicative(a, b, c):
    if a != b:
        assert greater(ORDER, a, b) != greater(ORDER, b, a)
        assert (greater(ORDER, mono_mul(a, c), mono_mul(b, c))
                == greater(ORDER, a, b))


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
    assert greater(order, a, b) == _degrevlex_greater(a, b, rank)
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


# -- rendering -------------------------------------------------------------

def test_render():
    """A relation prints its leading monomial first, a repeated variable as
    a power."""
    I = hibi_ideal(grid(1, 1))
    r = I.relations[0]
    assert I.render(r) == "x2*x3-x1*x4"
    assert I.render(r, "m2") == "x_2*x_3-x_1*x_4"
    # x1^2 leads x2*x3, so it is printed first, with its sign
    assert I.render(r._replace(jm=(0, 0))) == "-x1^2+x2*x3"
    assert (I.render(r._replace(jm=(1, 1, 3)), "singular")
            == "-x(2)^2*x(4)+x(2)*x(3)")


# -- rewriting and the reference division -----------------------------------

def test_divide_remainder_irreducible():
    """The reference division (conftest), which the certificate is checked
    against, leaves a remainder no divisor's lead divides."""
    f = {(0, 1): 1, (3,): 1}
    g = {(0,): 1, (2,): -1}  # lead x1
    r = divide_by_scan(f, [g], ORDER)[1]
    # x1*x2 reduces to x2*x3; x4 stays
    assert r == {(1, 2): 1, (3,): 1}
    lm = leading_term(g, ORDER)[0]
    assert all(mono_div(m, lm) is None for m in r)


def test_normal_form():
    g = {(0,): 1}
    f = {(0, 1): 1, (2,): 2}
    assert divide_by_scan(f, [g], ORDER)[1] == {(2,): 2}


def test_divide_first_divisor_wins():
    """Rewriting.divisor is the smallest index whose lead divides the
    monomial, whichever variable the lead shares with it."""
    I = hibi_ideal(grid(1, 2))  # leads x2*x3, x2*x5, x4*x5
    divisor = Rewriting(I).divisor
    assert divisor((1, 2, 4)) == 0  # x2*x3 and x2*x5 divide
    assert divisor((1, 3, 4)) == 1  # x2*x5 and x4*x5 divide
    assert divisor((0, 3, 4)) == 2
    assert divisor((0, 5)) is None  # none divides
    I.relations.reverse()  # leads x4*x5, x2*x5, x2*x3
    assert Rewriting(I).divisor((1, 2, 4)) == 1
    # a lead that occurs twice is found at its first index
    I.relations[0] = I.relations[0]._replace(pair=(1, 2))
    assert Rewriting(I).divisor((1, 2, 4)) == 0


@given(st.lists(st.integers(0, 8), max_size=6))
@settings(max_examples=60, deadline=None)
def test_normal_form_is_the_division_remainder(vs):
    """Rewriting a monomial by the relations of grid 2x2 until no lead
    divides it gives the remainder of the full-scan reference division, and
    no lead divides what is left."""
    I = hibi_ideal(grid(2, 2))
    m = tuple(sorted(vs))
    rewriting = Rewriting(I)
    standard = standard_form(rewriting, m)
    polys = [relation_poly(r) for r in I.relations]
    assert divide_by_scan({m: 1}, polys, I.order)[1] == {standard: 1}
    assert all(mono_div(standard, lead) is None for lead, _ in rewriting.rules)


def test_buchberger_builds_one_index(count_calls):
    """One lead lookup serves all 900 reductions of grid 4x4, where
    building it on each call would build 900."""
    built = count_calls(Rewriting, "__init__")
    report = buchberger_check(hibi_ideal(grid(4, 4)))
    assert report.pairs_checked == 900
    assert len(built) == 1


def test_certificate_builds_no_fraction(monkeypatch):
    """Over unit-coefficient binomials every coefficient is a whole number,
    so certifying grid 4x4 constructs no Fraction at all."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    half = Fraction(1, 2)
    assert len(built) == 1 and half.denominator == 2
    built.clear()
    report = buchberger_check(hibi_ideal(grid(4, 4)))
    assert report.pairs_checked == 900
    assert built == []


def test_buchberger_builds_no_quotients(count_calls):
    """The certificate keeps only remainders: its 900 reductions of grid 4x4
    are walks that rewrite two monomials, which build no quotient."""
    walks = count_calls(Rewriting, "meets")
    report = buchberger_check(hibi_ideal(grid(4, 4)))
    assert (report.pairs_checked, report.pairs_skipped) == (900, 4050)
    assert len(walks) == 900


# -- S-polynomials of the general reference (conftest) ----------------------

def test_s_polynomial_cancels_leads():
    f = {(1, 2): 1, (0, 3): -1}
    g = {(1, 3): 1, (0, 3): -2}
    s = s_polynomial(f, g, ORDER)
    lcm = mono_lcm(leading_term(f, ORDER)[0], leading_term(g, ORDER)[0])
    assert lcm not in s


@given(polys().filter(bool), polys().filter(bool))
@settings(max_examples=60, deadline=None)
def test_s_polynomial_antisymmetric(f, g):
    assert s_polynomial(f, g, ORDER) == {
        m: -c for m, c in s_polynomial(g, f, ORDER).items()}
