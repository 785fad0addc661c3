"""The lattice binomial ideal of a finite distributive lattice.

Each incomparable pair (a, b) contributes the diamond relation
x_a x_b - x_{a|b} x_{a&b}, stored as its two monomials.  Under the
degree-reverse-lexicographic order whose variable ranking follows a linear
extension of the lattice (bottom ranked highest), these relations are a
reduced Groebner basis of the ideal, and the leading monomial of each is its
incomparable product x_a x_b.  The relations have unit coefficients, so the
certificate never divides and holds over every field; only the exporters name
one.

`buchberger_check` certifies that claim with Buchberger's criterion refined
by his first criterion (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
ch. 2 sec. 9): a finite set G is a Groebner basis exactly when every
S-polynomial of two of its elements has a standard representation over G
(Thm. 6), and an S-polynomial of two elements with coprime leading monomials
always has one (Prop. 4).  So only pairs whose leads share a variable are
reduced; a zero remainder is a standard representation, and the coprime pairs
need no computation.

The reduction rewrites monomials (Eisenbud-Sturmfels, Binomial ideals, Duke
Math. J. 84, 1996).  Write each relation as lead - tail, its lead the larger
of its two monomials.  The S-polynomial of relations i and j is v - u, with
u = (lcm/lead_i) tail_i and v = (lcm/lead_j) tail_j.  A division step on a
polynomial c m - c m' whose leading monomial m is divisible by lead_k
subtracts c (m/lead_k)(lead_k - tail_k): it leaves c (m/lead_k) tail_k - c m',
again two terms with opposite coefficients, or zero when they are equal.  So
every step of the division leaves such a pair, and its remainder is zero
exactly when rewriting the larger of u and v, lead to tail, reaches u = v
before the larger has no lead dividing it (`Rewriting.meets`).
"""

from itertools import combinations, groupby
from typing import NamedTuple

from .errors import NotGroebner
from .polynomials import RevLex, mono_div, mono_lcm, mono_mul


class DiamondRelation(NamedTuple):
    """One generator x_pair - x_jm: the incomparable pair, the sorted (meet,
    join), and its position in the canonical generator list."""
    pair: tuple
    jm: tuple
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
        self._names = {}
        meet, join = lattice.meet, lattice.join
        for k, (a, b) in enumerate(lattice.incomparable_pairs()):
            jm = tuple(sorted((meet[a][b], join[a][b])))
            self.relations.append(DiamondRelation((a, b), jm, k))
            self.index_of[(a, b)] = k

    def __len__(self):
        return len(self.relations)

    def generator(self, a, b):
        """The relation for an incomparable pair, in either element order."""
        return self.relations[self.index_of[(a, b) if a < b else (b, a)]]

    def term_codes(self, base):
        """(units, codes) for monomials written as one int, a base-`base`
        digit per variable: units[v] = base**v is x_v, and codes[i] holds the
        terms of relation i as (code, coefficient) pairs.  Built once per
        base."""
        cached = self._term_codes.get(base)
        if cached is None:
            units = [base ** v for v in range(self.lattice.n)]
            codes = [tuple((sum(map(units.__getitem__, mono)), c)
                           for mono, c in ((r.pair, 1), (r.jm, -1)))
                     for r in self.relations]
            cached = self._term_codes[base] = (units, codes)
        return cached

    def variable_names(self, style="plain"):
        """The variable names in an exporter's style, built once per style."""
        names = self._names.get(style)
        if names is None:
            form = {"m2": "x_{}", "singular": "x({})"}.get(style, "x{}")
            names = self._names[style] = tuple(
                form.format(v + 1) for v in range(self.lattice.n))
        return names

    def render(self, relation, style="plain"):
        """The relation as text, its leading monomial first; a repeated
        variable is written as a power."""
        names = self.variable_names(style)

        def text(m):
            return "*".join(names[v] if e == 1 else f"{names[v]}^{e}"
                            for v, e in ((v, len(list(run)))
                                         for v, run in groupby(m)))
        pair, jm = relation.pair, relation.jm
        if self.order.max((pair, jm)) == pair:
            return f"{text(pair)}-{text(jm)}"
        return f"-{text(jm)}+{text(pair)}"


def hibi_ideal(lattice):
    return HibiIdeal(lattice)


class Rewriting:
    """The relations of an ideal as rewriting rules lead -> tail on monomials.

    Each lead is read from its relation as the larger of its two monomials
    under the ideal's order, so a relation whose monomials were changed is
    ruled by its actual lead.  A dividing lead is found by lookup, not by
    scan: each lead is filed under the smallest index it occurs at, and a
    monomial is probed with its sub-multisets of degree 2, the degree of
    every relation's monomials.
    """

    __slots__ = ("key", "rules", "_first")

    def __init__(self, ideal):
        order = ideal.order
        self.key = order.key
        self.rules = []
        self._first = {}
        for r in ideal.relations:
            lead = order.max((r.pair, r.jm))
            self._first.setdefault(lead, len(self.rules))
            self.rules.append((lead, r.jm if lead == r.pair else r.pair))

    def divisor(self, m):
        """The smallest rule index whose lead divides m, or None when no lead
        does."""
        first = self._first
        return min((first[s] for s in combinations(m, 2) if s in first),
                   default=None)

    def step(self, m):
        """m rewritten once by the first rule whose lead divides it, or None
        when no lead divides m."""
        i = self.divisor(m)
        if i is None:
            return None
        lead, tail = self.rules[i]
        return mono_mul(mono_div(m, lead), tail)

    def meets(self, u, v):
        """Whether u - v reduces to zero: the larger of the two is rewritten
        until they are equal, or until no lead divides it."""
        key = self.key
        while u != v:
            if key(u) < key(v):
                u, v = v, u
            u = self.step(u)
            if u is None:
                return False
        return True


class CertificateReport(NamedTuple):
    """pairs_checked + pairs_skipped is the number of generator pairs;
    max_intermediate_terms is the most terms of a checked S-polynomial, 2 or
    0."""
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
    module docstring).  The leads are read from the relations themselves
    (`Rewriting`), so a relation whose lead was changed is paired by its
    actual lead, and reduced against the actual leads.  Each lead's support is
    a bitmask, so the coprime test is one AND per pair.  Raises NotGroebner
    naming the first checked pair that leaves a remainder.
    """
    rewriting = Rewriting(ideal)
    rules = rewriting.rules
    supports = [sum(1 << v for v in set(lead)) for lead, _ in rules]
    checked = skipped = 0
    max_terms = 0
    for i, (lead_i, tail_i) in enumerate(rules):
        for j in range(i + 1, len(rules)):
            if not supports[i] & supports[j]:
                skipped += 1
                continue
            lead_j, tail_j = rules[j]
            lcm = mono_lcm(lead_i, lead_j)
            u = mono_mul(mono_div(lcm, lead_i), tail_i)
            v = mono_mul(mono_div(lcm, lead_j), tail_j)
            if u != v:
                max_terms = 2
            checked += 1
            if not rewriting.meets(u, v):
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
        gens = ",\n  ".join(ideal.render(r, "m2") for r in ideal.relations)
        lines.append(f"I = ideal(\n  {gens}\n);")
    else:
        lines.append("I = ideal(0_R);")
    lines.append("betti res I")
    return "\n".join(lines) + "\n"


def to_singular(ideal, p=0):
    n = ideal.lattice.n
    lines = [f"ring r = {p}, x(1..{n}), dp;"]
    if ideal.relations:
        gens = ",\n  ".join(ideal.render(r, "singular") for r in ideal.relations)
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
             "text": ideal.render(r)}
            for r in ideal.relations
        ],
    }
