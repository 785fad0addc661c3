"""Shared fixture lattices used across the test suites."""

import sys
from fractions import Fraction

import pytest

from hibiring import enumerate_distributive, from_covers, from_points
from hibiring.errors import HibiError, NotGroebner
from hibiring.ideal import CertificateReport
from hibiring.polynomials import mono_div, mono_lcm, mono_mul


def chain(k):
    return from_covers([str(i) for i in range(k)],
                       [(i, i + 1) for i in range(k - 1)])


def row(ideal, *terms):
    """The row of sign * x_v * e_{(a, b)} summed over the terms
    (a, b, v, sign), elements and variables numbered from 1; e_{(a, b)} is the
    basis vector of the relation of the pair {a, b}."""
    out = {}
    for a, b, v, sign in terms:
        key = (a - 1, b - 1) if (a - 1, b - 1) in ideal.index_of else (b - 1, a - 1)
        col = ((v - 1,), ideal.index_of[key])
        out[col] = out.get(col, 0) + sign
    return {col: c for col, c in out.items() if c}


def combine(*terms):
    """The row sum of c * x_nu * r over the terms (r, nu, c), nu a sorted
    tuple of variables numbered from 0; zeros dropped."""
    out = {}
    for r, nu, c in terms:
        for (mu, i), v in r.items():
            col = (tuple(sorted(mu + nu)), i)
            out[col] = out.get(col, 0) + c * v
    return {col: v for col, v in out.items() if v}


def signs(r):
    """A row and its negative."""
    return r, {col: -c for col, c in r.items()}


# -- the general reference: polynomials as dicts, division by scan ------------
#
# Reference constructions the package does not run: a polynomial is a dict
# {monomial: coefficient}, zeros dropped.  The certificate test, the
# non-Groebner remark and the Schreyer-pair tests read them.


def relation_poly(r):
    """The relation x_pair - x_jm as a polynomial dict."""
    return add({r.pair: 1}, {r.jm: -1})


def add(*polys):
    """The sum of polynomial dicts, zeros dropped."""
    out = {}
    for f in polys:
        for m, c in f.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def mul_term(f, mono, coeff):
    """coeff * mono * f."""
    return add({mono_mul(m, mono): coeff * c for m, c in f.items()})


def leading_term(f, order):
    m = order.max(f)
    return m, f[m]


def s_polynomial(f, g, order):
    """S(f, g) = (lcm/lt(f)) f - (lcm/lt(g)) g, in Fraction arithmetic."""
    mf, cf = leading_term(f, order)
    mg, cg = leading_term(g, order)
    lcm = mono_lcm(mf, mg)
    return add(mul_term(f, mono_div(lcm, mf), Fraction(1) / cf),
               mul_term(g, mono_div(lcm, mg), Fraction(-1) / cg))


def divide_by_scan(f, divisors, order):
    """Reference division in Fraction arithmetic: (quotients, remainder),
    scanning the whole divisor list at every step for the first divisor
    whose lead divides the current leading monomial, and subtracting whole
    polynomials."""
    quotients = [{} for _ in divisors]
    remainder = {}
    work = f
    while work:
        m, c = leading_term(work, order)
        for i, g in enumerate(divisors):
            lm, lc = leading_term(g, order)
            q = mono_div(m, lm)
            if q is not None:
                qc = Fraction(c) / lc
                quotients[i] = add(quotients[i], {q: qc})
                work = add(work, mul_term(g, q, -qc))
                break
        else:
            remainder[m] = c
            work = add(work, {m: -c})
    return quotients, remainder


def standard_form(rewriting, m):
    """m rewritten by an ideal's Rewriting until no lead divides it."""
    while (step := rewriting.step(m)) is not None:
        m = step
    return m


def reference_certificate(ideal):
    """buchberger_check by the general route: the S-polynomial of every pair
    whose leads share a variable, divided by scan against all relations.
    The report, or NotGroebner naming the first pair with a remainder."""
    polys, order = [relation_poly(r) for r in ideal.relations], ideal.order
    leads = [set(leading_term(f, order)[0]) for f in polys]
    checked = skipped = max_terms = 0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not leads[i] & leads[j]:
                skipped += 1
                continue
            s = s_polynomial(polys[i], polys[j], order)
            max_terms = max(max_terms, len(s))
            checked += 1
            if divide_by_scan(s, polys, order)[1]:
                raise NotGroebner((ideal.relations[i].pair,
                                   ideal.relations[j].pair))
    return CertificateReport(checked, skipped, max_terms)


def position_key(ideal):
    """Position-over-term sort key of a column (mu, i): later basis vectors
    first, ties broken by the ring order on mu.  Under it both strip
    generators of a shared diamond lead on their common third component."""
    key = ideal.order.key
    return lambda col: (col[1], key(col[0]))


def schreyer_key(ideal):
    """Schreyer sort key of a column (mu, i): mu * in(f_i) in the ring order,
    ties broken by preferring the smaller generator index."""
    order = ideal.order
    leads = [order.max((r.pair, r.jm)) for r in ideal.relations]
    return lambda col: (order.key(mono_mul(col[0], leads[col[1]])), -col[1])


def s_vector(u, v, key):
    """(lcm/lt(u)) u - (lcm/lt(v)) v for rows whose leading columns under the
    sort key lie on one basis vector and lead with 1 or -1."""
    (mu, i), (nu, j) = max(u, key=key), max(v, key=key)
    cu, cv = u[mu, i], v[nu, j]
    if i != j:
        raise HibiError("leading terms lie on different basis vectors")
    if {abs(cu), abs(cv)} != {1}:
        raise HibiError("leading coefficients must be 1 or -1")
    lcm = mono_lcm(mu, nu)
    return combine((u, mono_div(lcm, mu), cu), (v, mono_div(lcm, nu), -cv))


def divide_row(row, divisors, key):
    """(quotients, remainder) with row = remainder + sum of quotients[k] *
    divisors[k], each quotient a polynomial {nu: c} over sorted variable
    tuples, and no remainder column divisible by a divisor's leading column
    (same basis vector, dividing monomial).  The first such divisor is used;
    its leading coefficient must divide the current one exactly."""
    leads = [(max(d, key=key), d) for d in divisors]
    quotients = [{} for _ in divisors]
    remainder = {}
    work = {k: c for k, c in row.items() if c}
    while work:
        mu, i = col = max(work, key=key)
        for k, ((lm, li), d) in enumerate(leads):
            nu = mono_div(mu, lm) if li == i else None
            if nu is not None:
                q, r = divmod(work[col], d[lm, li])
                if r:
                    raise HibiError(f"{d[lm, li]} does not divide {work[col]}")
                quotients[k][nu] = quotients[k].get(nu, 0) + q
                work = combine((work, (), 1), (d, nu, -q))
                break
        else:
            remainder[col] = work.pop(col)
    return [{nu: c for nu, c in q.items() if c} for q in quotients], remainder


def schreyer_pair(i, j, ideal):
    """The syzygy read off from reducing S(f_i, f_j) to zero, as a row.

    (lcm/in f_i) e_i - (lcm/in f_j) e_j - sum q_k e_k, where the q_k are the
    quotients of divide_by_scan of the S-polynomial by the full generator
    list.  Every relation leads with coefficient 1, so each quotient
    coefficient is a whole number; one that is not raises HibiError.
    """
    polys, order = [relation_poly(r) for r in ideal.relations], ideal.order
    mi = leading_term(polys[i], order)[0]
    mj = leading_term(polys[j], order)[0]
    lcm = mono_lcm(mi, mj)
    quotients, r = divide_by_scan(s_polynomial(polys[i], polys[j], order),
                                  polys, order)
    if r:
        raise HibiError("S-polynomial did not reduce to zero")
    row = {(mono_div(lcm, mi), i): 1, (mono_div(lcm, mj), j): -1}
    for k, q in enumerate(quotients):
        for m, c in q.items():
            whole = int(c)
            if whole != c:
                raise HibiError(f"quotient coefficient {c} of S({i}, {j}) "
                                "is not a whole number")
            col = (m, k)
            row[col] = row.get(col, 0) - whole
    return {col: c for col, c in row.items() if c}


# The five degree-3 syzygies of bridged_diamonds whose combination with the
# multipliers (variable, sign) is the diamond syzygy of the pairs (2,3) and
# (11,12), as row() terms.
BRIDGED_GROUPS = (
    ((2, 3, 12, 1), (2, 8, 6, -1), (6, 8, 2, 1), (6, 10, 1, -1)),
    ((2, 3, 9, 1), (2, 5, 6, -1), (5, 6, 2, 1), (6, 7, 1, -1)),
    ((2, 5, 13, 1), (2, 8, 11, -1), (8, 11, 2, 1), (10, 11, 1, -1)),
    ((5, 6, 13, 1), (6, 8, 11, -1), (8, 11, 6, 1), (11, 12, 3, -1)),
    ((6, 7, 13, 1), (6, 10, 11, -1), (10, 11, 6, 1), (11, 12, 4, -1)),
)
BRIDGED_MULTIPLIERS = ((11, 1), (13, -1), (6, -1), (2, 1), (1, -1))


def bridged_combination(groups, multipliers):
    """The sum of sign * x_v * group over the groups and their multipliers."""
    return combine(*[(g, (v - 1,), sign)
                     for g, (v, sign) in zip(groups, multipliers)])


@pytest.fixture(scope="session")
def stacked_diamonds():
    """Seven elements: two diamonds where the join of the lower pair is the
    meet of the upper pair.  The smallest lattice with a nonlinear first
    syzygy."""
    return from_covers([str(i) for i in range(7)],
                       [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5),
                        (4, 6), (5, 6)])


@pytest.fixture(scope="session")
def bridged_diamonds():
    """Thirteen elements, labels "1".."13": two comparable disjoint diamonds
    (2,3) and (11,12) joined through a chain of overlapping grids, so the
    diamond syzygy reduces to degree-3 types."""
    covers = [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (4, 7), (5, 7),
              (5, 8), (6, 9), (7, 9), (7, 10), (8, 10), (9, 11), (9, 12),
              (10, 12), (11, 13), (12, 13)]
    return from_covers([str(i + 1) for i in range(13)],
                       [(a - 1, b - 1) for a, b in covers])


@pytest.fixture(scope="session")
def diamond_counterexample():
    """Ten elements, labels "0".."9": the smallest planar lattice on which
    the bridge criterion (bridge_reducible) is wrong.  Two of its comparable
    disjoint diamond pairs have a bridging diamond, so that criterion drops
    them and counts 2 against the oracle's degree-4 count of 3, yet they
    still add rank: no bridge has an element on the spine, and
    syzygy.diamond_reducible counts 3."""
    covers = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (3, 6), (4, 5),
              (5, 7), (5, 8), (6, 7), (7, 9), (8, 9)]
    return from_covers([str(i) for i in range(10)], covers)


@pytest.fixture(scope="session")
def l_overcount():
    """Fourteen elements, labels "0".."13", k = 4: a planar lattice on which
    the closed-form L count is too large, 16 against the typed minimal
    histogram's 14, so planar_formula gives 32 + 16 + 4 + 9 = 61 against the
    oracle's 50 + 9 = 59.  Its diamond count, 9, is the oracle's degree-4
    row; the bridge criterion counts 4 there."""
    covers = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (3, 7),
              (4, 6), (5, 7), (6, 8), (6, 9), (7, 8), (7, 10), (8, 11),
              (8, 12), (9, 11), (10, 12), (11, 13), (12, 13)]
    return from_covers([str(i) for i in range(14)], covers)


def bridge_reducible(L, lo, hi):
    """The diamond criterion syzygy.diamond_reducible replaced: a comparable
    pair (lo, hi) reduces when any diamond bridges it, its meet an element
    of lo and its join one of hi.  It calls 13 pairs of census <= 12
    reducible whose degree-4 fiber still has H~_1 = 1; tests put it back to
    reach a disagreement with the oracle."""
    return any((x, y) in L.diamonds() for x in lo for y in hi)


@pytest.fixture(scope="session")
def census_to_twelve():
    """Every distributive lattice with at most 12 elements, one per
    isomorphism class, smallest first."""
    return list(enumerate_distributive(12))


@pytest.fixture(scope="session")
def shared_corner():
    """Thirteen elements realizing the shared-element pair families: the
    witness (7, 5, 9) classifies as G3, the same triple with the b's swapped
    satisfies the G6 conditions, and on the dual lattice it gives G4."""
    covers = [(0, 1), (1, 4), (4, 7), (7, 10), (10, 12), (11, 12), (9, 11),
              (6, 9), (3, 6), (0, 3), (0, 2), (2, 4), (4, 8), (8, 10),
              (2, 6), (6, 8), (8, 11), (1, 5), (5, 8), (3, 5)]
    return from_covers([str(i) for i in range(13)], covers)


@pytest.fixture(scope="session")
def shared_corner_dual(shared_corner):
    return from_covers(list(shared_corner.labels),
                       [(b, a) for (a, b) in shared_corner.covers])


def overlapping_grids(m, n, p, q):
    """Union of the integer grids [0,m]x[0,n] and [p,m]x[0,q] (with q > n):
    two grid regions overlapping in a smaller grid.  The three JM elements
    are (0,n), (m,0) and (p,q)."""
    pts = [(i, j) for i in range(m + 1) for j in range(n + 1)]
    pts += [(i, j) for i in range(p, m + 1) for j in range(n + 1, q + 1)]
    return from_points(pts)


@pytest.fixture(scope="session")
def boolean_cube():
    """The 8-element Boolean lattice: distributive but not planar."""
    from itertools import product
    pts = sorted(product([0, 1], repeat=3), key=lambda p: (sum(p), p))
    idx = {p: i for i, p in enumerate(pts)}
    covers = []
    for p in pts:
        for k in range(3):
            if p[k] == 0:
                q = list(p)
                q[k] = 1
                covers.append((idx[p], idx[tuple(q)]))
    return from_covers(["".join(map(str, p)) for p in pts], covers)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps the function module.name in a counter,
    rebound under every name a hibiring module binds the function to, and
    returns the list of argument tuples its calls append to.  Given a class
    instead of a module, it wraps the method on the class."""
    def install(module, name):
        fn = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        if isinstance(module, type):
            monkeypatch.setattr(module, name, counted)
            return calls
        for modname, mod in list(sys.modules.items()):
            if modname.partition(".")[0] != "hibiring":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
        return calls
    return install
