"""Exact multivariate polynomial arithmetic.

A monomial is a sorted tuple of variables, a variable repeated once per power
of it: x1^2*x3 is (0, 0, 2) and the constant monomial is ().  That is how
syzygy rows, fibers and phi write monomials too, so no module converts.  The
term order is degree-reverse-lexicographic with respect to a variable
ordering supplied as a rank permutation: among monomials of equal total
degree, the larger one has the smaller exponent at the highest-ranked
variable where they differ.  Coefficients are exact rationals: Python ints,
and Fractions only where a quotient is not whole.  An int equals and hashes
like the Fraction of the same value, so coefficient dicts compare alike
either way.
"""

from fractions import Fraction
from itertools import groupby

from .errors import HibiError, ZeroInput


# -- coefficients ----------------------------------------------------------


def _div(a, b):
    """a / b exactly, for ints and Fractions: an int when the quotient is
    whole, else a Fraction.  Over unit-coefficient binomials no Fraction is
    ever built."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


# -- monomials -------------------------------------------------------------


def mono_mul(a, b):
    return tuple(sorted(a + b))


def mono_div(a, b):
    """a / b as a monomial, or None when b does not divide a: the variables
    of a less those of b, as multisets."""
    rest = list(a)
    try:
        for v in b:
            rest.remove(v)
    except ValueError:
        return None
    return tuple(rest)


def mono_lcm(a, b):
    """The multiset union: each variable to the larger of its two powers."""
    rest = list(b)
    for v in a:
        if v in rest:
            rest.remove(v)
    return mono_mul(a, tuple(rest))


class RevLex:
    """Degree-reverse-lexicographic order.

    rank[v] gives the position of variable v in the variable ordering; the
    variable at rank 0 is the largest.  With rank equal to a linear extension
    of a lattice (bottom first), the incomparable product of every lattice
    binomial x_a x_b - x_{a|b} x_{a&b} is its leading monomial.
    """

    def __init__(self, nvars, rank=None):
        if rank is None:
            rank = list(range(nvars))
        if sorted(rank) != list(range(nvars)):
            raise HibiError("rank must be a permutation of the variables")
        self.rank = tuple(rank)
        self._neg_rank = tuple(-r for r in rank)

    def key(self, m):
        """Sort key: bigger key = bigger monomial.  After the degree come the
        negated ranks of m's variables in ascending order: equal degrees
        compare on the highest-ranked variables first, and the monomial with
        the smaller power of the first variable where they differ is the
        bigger."""
        return (len(m), tuple(sorted(map(self._neg_rank.__getitem__, m))))

    def greater(self, a, b):
        return self.key(a) > self.key(b)

    def max(self, monos):
        return max(monos, key=self.key)

    def __eq__(self, other):
        return isinstance(other, RevLex) and other.rank == self.rank

    def __hash__(self):
        return hash(("revlex", self.rank))


# -- polynomials -----------------------------------------------------------


class Polynomial:
    """Immutable polynomial: a monomial-to-coefficient map.

    The leading monomial is remembered for the last order it was asked for;
    immutability keeps that memo valid.
    """

    __slots__ = ("coeffs", "_lead")

    def __init__(self, coeffs):
        self.coeffs = {m: c for m, c in coeffs.items() if c}
        self._lead = None  # (order, leading monomial)

    @classmethod
    def _nonzero(cls, coeffs):
        """The polynomial of a coefficient dict that holds no zero, taken
        over as it is: no copy, no filter."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        p._lead = None
        return p

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def term(cls, mono, coeff=1):
        return cls({mono: coeff})

    @classmethod
    def variable(cls, v):
        return cls.term((v,))

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return Polynomial(out)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial({m: other * v for m, v in self.coeffs.items()})
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def mul_term(self, mono, coeff=1):
        # distinct monomials stay distinct, and nonzero products are nonzero
        if not coeff:
            return Polynomial.zero()
        return Polynomial._nonzero({mono_mul(m, mono): coeff * v
                                    for m, v in self.coeffs.items()})

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(map(len, self.coeffs), default=-1)

    def is_homogeneous(self):
        return len(set(map(len, self.coeffs))) <= 1

    def leading_monomial(self, order):
        if self._lead is not None and self._lead[0] == order:
            return self._lead[1]
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading monomial")
        self._lead = (order, order.max(self.coeffs))
        return self._lead[1]

    def leading_term(self, order):
        m = self.leading_monomial(order)
        return m, self.coeffs[m]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def render(self, names, order=None):
        if not self.coeffs:
            return "0"
        monos = list(self.coeffs)
        if order is not None:
            monos.sort(key=order.key, reverse=True)
        parts = []
        for m in monos:
            c = self.coeffs[m]
            powers = ((v, len(list(run))) for v, run in groupby(m))
            vars_ = "*".join(names[v] if e == 1 else f"{names[v]}^{e}"
                             for v, e in powers)
            if vars_ == "":
                body = str(c)
            elif c == 1:
                body = vars_
            elif c == -1:
                body = "-" + vars_
            else:
                body = f"{c}*{vars_}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self):
        top = max((m[-1] for m in self.coeffs if m), default=-1)
        names = [f"x{v + 1}" for v in range(top + 1)]
        return f"Polynomial({self.render(names)})"


class DivisorIndex:
    """The leading terms of a divisor list under one order, indexed for
    division.

    Divisors with a constant lead divide every monomial; the others are
    bucketed under the first variable of their lead, so a division step tests
    only the buckets of the variables of the current monomial.  Each bucket is
    in list order.  The leads are read from the polynomials once, when the
    index is built; polynomials are immutable, so the index stays valid.
    """

    __slots__ = ("divisors", "order", "leads", "constant", "by_var")

    def __init__(self, divisors, order):
        self.divisors = list(divisors)
        self.order = order
        self.leads = [g.leading_term(order) for g in self.divisors]
        self.constant = []
        self.by_var = {}
        for i, (lm, _) in enumerate(self.leads):
            if lm:
                self.by_var.setdefault(lm[0], []).append(i)
            else:
                self.constant.append(i)

    def first_divisor(self, m):
        """The smallest list index whose lead divides m, or the number of
        divisors when none does."""
        leads = self.leads
        best = self.constant[0] if self.constant else len(leads)
        by_var = self.by_var
        for v in set(m):
            for i in by_var.get(v, ()):
                if i >= best:
                    break
                if mono_div(m, leads[i][0]) is not None:
                    best = i
                    break
        return best


def normal_form(f, index):
    """The remainder of dividing f by the divisors of a DivisorIndex, under
    the order it was built for: no remainder monomial is divisible by any
    divisor's leading monomial.  Deterministic: at each step the first
    divisor in the list whose leading monomial divides the current leading
    monomial is used (DivisorIndex.first_divisor); no quotient is built.

    The dividend is reduced in place as one coefficient dict: a step pops its
    leading term and subtracts q times the divisor's tail, since the lead
    cancels exactly in exact arithmetic.  A coefficient that cancels is
    deleted, so the work dict, and the remainder drawn from it, hold no zero.
    """
    leads = index.leads
    polys = index.divisors
    key = index.order.key
    remainder = {}
    work = dict(f.coeffs)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        best = index.first_divisor(m)
        if best == len(leads):
            remainder[m] = c
            continue
        lm, lc = leads[best]
        q = mono_div(m, lm)
        qc = _div(c, lc)
        for tm, tc in polys[best].coeffs.items():
            if tm != lm:
                t = mono_mul(q, tm)
                v = work.get(t, 0) - qc * tc
                if v:
                    work[t] = v
                else:
                    del work[t]
    return Polynomial._nonzero(remainder)


def s_polynomial(f, g, order):
    """S(f, g) = (lcm/lt(f)) f - (lcm/lt(g)) g."""
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = mono_lcm(mf, mg)
    return (f.mul_term(mono_div(lcm, mf), _div(1, cf))
            - g.mul_term(mono_div(lcm, mg), _div(1, cg)))
