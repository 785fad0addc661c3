"""Closed-form first-Betti-number formulas for grid and planar lattices,
the linearity criterion, and reconciliation against the linear-algebra oracle.

Conventions: grid(m, n) is the product of chains with m+1 and n+1 elements;
ht is the rank of an element.  For two incomparable elements t1, t2 that are
both join- and meet-irreducible (JM), the interval [t1 & t2, t1 | t2] is a
grid, which is what reduces planar counting to the grid formulas.
"""

from collections import defaultdict
from math import comb
from typing import NamedTuple

from .errors import NotPlanar, OracleMismatch
from .oracle import (
    GradedBetti,
    RowSpan,
    TOP_DEGREE,
    fiber_codes,
    fiber_kernels,
    graded_betti_oracle,
    graded_betti_row,
    standard_monomial,
)
from .syzygy import FINE_KINDS, KINDS, diamond_reducible

# -- grid formulas -----------------------------------------------------------


def strip_1d(n):
    """Number of strip-type generators of the 1 x n grid: 2*C(n+1, 3)."""
    return 2 * comb(n + 1, 3)


def strip_grid(m, n):
    """S(m, n) = C(m+1, 2) T(n) + C(n+1, 2) T(m)."""
    return comb(m + 1, 2) * strip_1d(n) + comb(n + 1, 2) * strip_1d(m)


def l_2n(n):
    """L-type count of the 2 x n grid: n(n^2 - 1)/3."""
    return n * (n * n - 1) // 3


def l_grid(m, n):
    """L(m, n) = L(2, m) L(2, n) / 2."""
    return l_2n(m) * l_2n(n) // 2


def box_grid(m, n):
    """B(m, n) = B(2, m) B(2, n) / 2 with the base row B(2, k) = L(2, k)."""
    return l_grid(m, n)


# -- planar formulas ----------------------------------------------------------


def _pair_dims(L, ti, tj):
    h = L.height
    base = h[L.meet[ti][tj]]
    return h[ti] - base, h[tj] - base


def _jm_pairs(L):
    jm = sorted(L.jm_set())
    return [(a, b) for i, a in enumerate(jm) for b in jm[i + 1:]
            if L.incomparable(a, b)]


def _jm_triples(L):
    """(ti, tj, tk): tj a JM element, (ti, tk) consecutive in the chain of JM
    elements incomparable to tj, with ti below tk."""
    jm = sorted(L.jm_set())
    triples = []
    for tj in jm:
        chain = sorted((t for t in jm if L.incomparable(t, tj)),
                       key=lambda t: L.height[t])
        for ti, tk in zip(chain, chain[1:]):
            triples.append((ti, tj, tk))
    return triples


def _overlap_dims(L, ti, tj, tk):
    # the two grid intervals around tj overlap in the interval
    # [tj & tk, (ti | (tj & tk)) | tj]; its dimensions:
    x = L.join[ti][L.meet[tj][tk]]
    base = L.height[L.meet[x][tj]]
    return L.height[x] - base, L.height[tj] - base


def n_diamond_planar(L):
    """Number of comparable diamond pairs whose diamond-type syzygy is not
    reducible (syzygy.diamond_reducible) to shared-element types.

    A pair is counted as (lo, hi), two incomparable pairs with the join of lo
    below the meet of hi, as Lattice.comparable_pairs lists them.  That forces
    them to be element-disjoint and fixes which one is lower, so each
    comparable pair is counted exactly once; pairs that are not comparable are
    reducible and never looked at.

    The count is the rank they add beyond the shifted degree-3 kernel: a
    planar diamond is fixed by its meet and join, so for comparable pairs the
    fiber of x_a1 x_b1 x_a2 x_b2 (standard monomial x_m1 x_j1 x_m2 x_j2, Hibi
    1987) holds no other candidate, and the shift span is multigraded.  A
    pair counts when no bridge (an incomparable pair with its meet in lo and
    its join in hi) has an element on the spine, the elements comparable to
    both join(lo) and meet(hi).  That criterion is a conjecture: it is
    checked pair by pair against H~_1 of the degree-4 fiber on every planar
    lattice of at most 12 elements, and the count equals the oracle's
    degree-4 row there.  planar_betti's degree-4 oracle check reports any
    lattice where they part.
    """
    if not L.is_planar():
        raise NotPlanar("formula counting needs a planar lattice")
    return sum(1 for lo, hi in L.comparable_pairs()
               if not diamond_reducible(L, lo, hi))


class PlanarBettiBreakdown(NamedTuple):
    nS: int
    nL: int
    nB: int
    nD: int
    oracle: GradedBetti | None

    @property
    def total(self):
        return self.nS + self.nL + self.nB + self.nD


def planar_formula(L):
    """The closed-form breakdown nS + nL + nB + nD of a planar lattice, with
    no oracle (its oracle is None).

    One pass: planarity is checked once, by n_diamond_planar, and the JM
    pairs and triples are each walked once.  Each pair adds the grid counts
    of its interval [ti & tj, ti | tj]; each triple subtracts those of the
    overlap of its two intervals around tj, and adds the L generators that
    reach across it.
    """
    nD = n_diamond_planar(L)
    h, join, meet = L.height, L.join, L.meet
    nS = nL = nB = 0
    for ti, tj in _jm_pairs(L):
        dims = _pair_dims(L, ti, tj)
        nS += strip_grid(*dims)
        nL += l_grid(*dims)
        nB += box_grid(*dims)
    for ti, tj, tk in _jm_triples(L):
        dims = _overlap_dims(L, ti, tj, tk)
        nS -= strip_grid(*dims)
        nL -= l_grid(*dims)
        nB -= box_grid(*dims)
        r = h[join[ti][tj]] - h[tj]
        s = h[tj] - h[meet[tj][tk]]
        nL += ((h[join[tj][tk]] - h[join[ti][tj]])
               * (h[meet[tj][tk]] - h[meet[ti][tj]])
               * comb(r + 1, 2) * comb(s + 1, 2))
    return PlanarBettiBreakdown(nS, nL, nB, nD, None)


def planar_betti(ideal):
    """First Betti number breakdown by generator type of the Hibi ideal of a
    planar lattice: planar_formula of ideal.lattice, checked against one run
    of the exact oracle on ideal (degrees 3 and 4), whose rows the breakdown
    carries as oracle.

    A disagreement of the diamond count with degree 4, then of the total,
    raises OracleMismatch with the numbers rather than being reconciled
    silently.
    """
    formula = planar_formula(ideal.lattice)
    oracle = graded_betti_oracle(ideal)
    oracle_deg4 = oracle[-1].minimal_generators
    if formula.nD != oracle_deg4:
        raise OracleMismatch(
            f"diamond count {formula.nD} disagrees with oracle degree-4 "
            f"count {oracle_deg4}",
            breakdown={"diamond": formula.nD, "oracle": oracle_deg4})
    breakdown = formula._replace(oracle=oracle)
    if breakdown.total != oracle.total:
        raise OracleMismatch(
            f"formula total {breakdown.total} disagrees with oracle "
            f"{oracle.total}",
            breakdown={"formula": breakdown, "oracle": oracle.total})
    return breakdown


# -- minimalization of the typed generating set -------------------------------


def typed_minimal_histogram(ideal, gens):
    """Greedy minimal generating set drawn from gens, the typed generators.

    Only degree-3 rows are read: a degree-4 row (kind D) in gens is skipped,
    so a caller may pass the degree-3 generators alone, as cmd_syzygy does.
    Degree-3 elements are admitted in the kind order of syzygy.KINDS (strip,
    L, box, G), each one kept only if it enlarges the span, and the kept ones
    must span the whole degree-3 kernel (OracleMismatch otherwise, naming the
    first fiber they fall short in).  Returns the counts of the kept
    generators by their family in KINDS.

    Every row is multihomogeneous: all its columns (mu, i) share the
    multidegree of mu * x_a x_b, (a, b) the pair of relation i.  So spans and
    ranks split by fiber.  Each fiber b keeps its own span, stopped at
    kernel_b (oracle.fiber_kernels), the dimension of all syzygies of
    multidegree b: every row is a phi-checked syzygy of its fiber, so once
    the span is that large any further row there is provably dependent and is
    not eliminated.  reduced_h1 stops at its cycle count by the same argument.

    The degree-4 count is read from the oracle rather than eliminated.  D is
    the only typed kind above degree 3, and by the graded Nakayama lemma
    every minimal homogeneous generating set has exactly beta_{1,4} elements
    of degree 4, the oracle's degree-4 row.  That the typed set reaches it
    (the paper's completeness theorem) is what test_4_typed_completeness and
    the uncapped reference in tests/test_betti.py check.
    """
    gens = sorted(gens, key=lambda t: (FINE_KINDS.index(t.kind), t.witness))
    hist = dict.fromkeys(KINDS.values(), 0)
    L = ideal.lattice
    pairs = [r.pair for r in ideal.relations]
    codes = fiber_codes(L, 3)

    def fiber(row):
        mu, i = next(iter(row))
        a, b = pairs[i]
        return sum(map(codes.__getitem__, mu)) + codes[a] + codes[b]

    kernels = fiber_kernels(ideal, 3)
    spans = defaultdict(RowSpan)
    for t in gens:
        if len(next(iter(t.row))[0]) == 2:
            continue
        b = fiber(t.row)
        if spans[b].rank < kernels[b] and spans[b].add(t.row):
            hist[KINDS[t.kind]] += 1
    short = next((b for b, k in kernels.items() if spans[b].rank < k), None)
    if short is not None:
        rank = sum(span.rank for span in spans.values())
        kernel = sum(kernels.values())
        chain = ", ".join(L.labels[v] for v in standard_monomial(L, 3, short))
        raise OracleMismatch(
            f"typed degree-3 rank {rank} disagrees with oracle kernel "
            f"{kernel}; first short fiber: that of ({chain}), typed rank "
            f"{spans[short].rank} of kernel {kernels[short]}",
            breakdown={"typed": rank, "oracle": kernel})
    hist["diamond"] = graded_betti_row(ideal, TOP_DEGREE).minimal_generators
    return hist


# -- linearity ----------------------------------------------------------------


def k_of(L):
    """Number of incomparable pairs of JM elements."""
    return len(_jm_pairs(L))


class LinearityVerdict(NamedTuple):
    k: int
    verdict: str  # "linear" or "nonlinear"
    reason: str


def planar_linearity(L):
    """Linearity of the first syzygy of a planar lattice: nonlinear exactly
    when n_diamond_planar(L) > 0, that is when some minimal generator sits in
    degree 4.  k is reported alongside but decides nothing.

    nD counts the comparable diamond pairs with no bridge on the spine
    (n_diamond_planar), and that criterion is a conjecture checked pair by
    pair on census <= 12, not a theorem.  So both directions are checked
    rather than proven: nD equals the oracle's degree-4 row on all 299 planar
    lattices of 2-12 elements, and on all 1295 of 13-15 elements in a run
    with the enumeration cap raised.  If the count and the oracle ever part,
    planar_betti raises OracleMismatch and the census fails that lattice's
    row.
    """
    nD = n_diamond_planar(L)
    noun = "pair" if nD == 1 else "pairs"
    return LinearityVerdict(k_of(L), "nonlinear" if nD else "linear",
                            f"{nD} unbridged comparable diamond {noun}")
