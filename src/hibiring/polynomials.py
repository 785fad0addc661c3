"""Monomials and the term order.

A monomial is a sorted tuple of variables, a variable repeated once per power
of it: x1^2*x3 is (0, 0, 2) and the constant monomial is ().  That is how
relations, syzygy rows, fibers and phi write monomials, so no module
converts.  The term order is degree-reverse-lexicographic with respect to a
variable ordering supplied as a rank permutation: among monomials of equal
total degree, the larger one has the smaller exponent at the highest-ranked
variable where they differ.  No polynomial type is needed: every relation is
a difference of two monomials, and the Groebner certificate only rewrites
monomials (see `ideal`).
"""

from .errors import HibiError


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

    def __init__(self, nvars, rank):
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

    def max(self, monos):
        return max(monos, key=self.key)
