"""The lattice binomial ideal of a finite distributive lattice.

Each incomparable pair (a, b) contributes the diamond relation
x_a x_b - x_{a|b} x_{a&b}.  Under the degree-reverse-lexicographic order whose
variable ranking follows a linear extension of the lattice (bottom ranked
highest), these relations are a reduced Groebner basis of the ideal, and the
leading monomial of each is its incomparable product x_a x_b.  The relations
have unit coefficients and unit leads, so Buchberger's reductions never divide
and the certificate holds over every field; only the exporters name one.

`buchberger_check` certifies that claim with Buchberger's criterion refined
by his first criterion (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
ch. 2 sec. 9): a finite set G is a Groebner basis exactly when every
S-polynomial of two of its elements has a standard representation over G
(Thm. 6), and an S-polynomial of two elements with coprime leading monomials
always has one (Prop. 4).  So only pairs whose leads share a variable are
reduced; a zero remainder is a standard representation, and the coprime pairs
need no computation.
"""

from typing import NamedTuple

from .errors import NotGroebner
from .polynomials import (
    DivisorIndex,
    Polynomial,
    RevLex,
    normal_form,
    s_polynomial,
)


class DiamondRelation(NamedTuple):
    """One generator: the incomparable pair, its binomial, and its position in
    the canonical generator list."""
    pair: tuple
    poly: Polynomial
    index: int


class HibiIdeal:
    """The diamond relations of a lattice, in canonical (min, max) pair order,
    together with the term order that certifies them as a Groebner basis."""

    def __init__(self, lattice):
        self.lattice = lattice
        n = lattice.n
        rank = [0] * n
        for pos, v in enumerate(lattice.linear_extension()):
            rank[v] = pos
        self.order = RevLex(n, rank)
        self.relations = []
        self.index_of = {}
        self._term_codes = {}
        meet, join = lattice.meet, lattice.join
        for k, (a, b) in enumerate(lattice.incomparable_pairs()):
            jm = tuple(sorted((meet[a][b], join[a][b])))
            poly = Polynomial({(a, b): 1, jm: -1})
            self.relations.append(DiamondRelation((a, b), poly, k))
            self.index_of[(a, b)] = k

    def __len__(self):
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)

    def generator(self, a, b):
        """The relation for an incomparable pair, in either element order."""
        return self.relations[self.index_of[(a, b) if a < b else (b, a)]]

    @property
    def polys(self):
        return [r.poly for r in self.relations]

    def term_codes(self, base):
        """(units, codes) for monomials written as one int, a base-`base`
        digit per variable: units[v] = base**v is x_v, and codes[i] holds the
        terms of relation i as (code, coefficient) pairs.  Built once per
        base."""
        cached = self._term_codes.get(base)
        if cached is None:
            units = [base ** v for v in range(self.lattice.n)]
            codes = [tuple((sum(map(units.__getitem__, mono)), c)
                           for mono, c in r.poly.coeffs.items())
                     for r in self.relations]
            cached = self._term_codes[base] = (units, codes)
        return cached

    def variable_names(self, style="plain"):
        n = self.lattice.n
        if style == "m2":
            return [f"x_{v + 1}" for v in range(n)]
        if style == "singular":
            return [f"x({v + 1})" for v in range(n)]
        return [f"x{v + 1}" for v in range(n)]

    def render(self, poly, style="plain"):
        return poly.render(self.variable_names(style), self.order)


def hibi_ideal(lattice):
    return HibiIdeal(lattice)


class CertificateReport(NamedTuple):
    """pairs_checked + pairs_skipped is the number of generator pairs."""
    pairs_checked: int
    pairs_skipped: int
    max_intermediate_terms: int
    passed: bool = True


def buchberger_check(ideal):
    """Certify the Groebner property: every S-polynomial of two generators
    whose leading monomials share a variable reduces to zero against the full
    generator list.

    Pairs with coprime leading monomials are skipped: by Buchberger's first
    criterion their S-polynomials have a standard representation, so with the
    checked remainders all zero the generators are a Groebner basis (see the
    module docstring).  The leads are read from the polynomials themselves, so
    a relation whose lead was changed is paired by its actual lead, and
    reduced against the actual leads: every reduction is a normal_form
    against one DivisorIndex of the generator list, built here.  Each lead's
    support is a bitmask, so the coprime test is one AND per pair.  Raises
    NotGroebner naming the first checked pair that leaves a remainder.
    """
    polys = ideal.polys
    order = ideal.order
    index = DivisorIndex(polys, order)
    supports = [sum(1 << v for v in set(lm)) for lm, _ in index.leads]
    checked = skipped = 0
    max_terms = 0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not supports[i] & supports[j]:
                skipped += 1
                continue
            s = s_polynomial(polys[i], polys[j], order)
            max_terms = max(max_terms, len(s.coeffs))
            r = normal_form(s, index)
            checked += 1
            if not r.is_zero():
                raise NotGroebner((ideal.relations[i].pair, ideal.relations[j].pair))
    return CertificateReport(checked, skipped, max_terms)


# -- exporters -------------------------------------------------------------


# p is the characteristic of the exported ring: 0 for the rationals, else a
# prime.


def to_macaulay2(ideal, p=0):
    n = ideal.lattice.n
    coeff = f"ZZ/{p}" if p else "QQ"
    lines = [f"R = {coeff}[x_1..x_{n}];"]
    if ideal.relations:
        gens = ",\n  ".join(ideal.render(r.poly, "m2") for r in ideal.relations)
        lines.append(f"I = ideal(\n  {gens}\n);")
    else:
        lines.append("I = ideal(0_R);")
    lines.append("betti res I")
    return "\n".join(lines) + "\n"


def to_singular(ideal, p=0):
    n = ideal.lattice.n
    lines = [f"ring r = {p}, x(1..{n}), dp;"]
    if ideal.relations:
        gens = ",\n  ".join(ideal.render(r.poly, "singular") for r in ideal.relations)
        lines.append(f"ideal I =\n  {gens};")
    else:
        lines.append("ideal I = 0;")
    lines += ["resolution re = mres(I, 0);", "print(betti(re), \"betti\");", "exit;"]
    return "\n".join(lines) + "\n"


def to_json_dict(ideal, p=0):
    return {
        "lattice": ideal.lattice.to_json_dict(),
        "field": f"FP({p})" if p else "QQ",
        "generators": [
            {"pair": list(r.pair), "index": r.index,
             "text": ideal.render(r.poly)}
            for r in ideal.relations
        ],
    }
