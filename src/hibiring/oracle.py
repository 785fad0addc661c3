"""Independent graded Betti-number oracle for the first syzygy.

The Hibi ring R[L] = S/I is an affine semigroup ring: x_a maps to
s * prod(t_j for each join-irreducible j <= a) (Hibi 1987), so the
multidegree of x_a is (1, the indicator of the join-irreducibles below a).
The degree-d monomials with one multidegree b form the fiber of b; R_d has
one basis element per degree-d fiber.  By the fiber theorem for semigroup
rings (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 9.2;
Briales-Campillo-Marijuan-Pison, JPAA 124 (1998)) the minimal first
syzygies of I in multidegree b number

  beta_{1,b}(I) = dim H~_1(Delta_b),

where Delta_b is the simplicial complex on the variables generated by the
supports of the monomials in the fiber of b.  H~_1 is the cycle space of the
1-skeleton, #edges - #vertices + #components, less the rank of the boundary
map d2 from triangles to edges.  That rank is first bounded mod 2: a square
minor of an integer matrix that is odd is nonzero, so rank over F_2 <= rank
over Q, and d1 d2 = 0 gives rank over Q <= dim ker d1 = #cycles.  When the
boundaries reduced mod 2 reach #cycles, H~_1 = 0 over the rationals.  Only the
other fibers, a positive H~_1 or 2-torsion (where the two ranks differ), go
on to fraction-free integer elimination, so every count is exact (over the
rationals).  On grid 4x5 the mod-2 bound settles all 141 fiber shapes
graded_betti_row meets, so no exact elimination runs there.

Every multidegree is written as one integer (fiber_codes), a digit per
join-irreducible in base TOP_DEGREE + 1.  No digit of a monomial of degree
at most TOP_DEGREE reaches the base, so one code keys the degree-3 fibers
(fiber_kernels, and the typed histogram in betti) and the degree-4 ones.

H~_1 is invariant under a bijection of the vertices, so it is computed once
per fiber shape (face_shape): the fiber's vertices relabelled 0..k-1 in
order, each support written as a bit mask, and the distinct masks sorted.
Equal shapes are isomorphic complexes with equal H~_1; two isomorphic fibers
whose shapes differ only cost one more computation.  shape_h1 computes H~_1
on the masks themselves and memoises it by shape for the life of the
process; reduced_h1 puts a complex given by vertex sets through the same
path.  The memo stays small because a shape is a local configuration of the
lattice (the supports of one multidegree), not the lattice itself: the 525
fibers that graded_betti_row examines on grid 4x5 have 141 shapes, and the
341 lattices of the census up to 12 elements have 61 between them.

The presentation F -> I sends the column (mu, i), a monomial mu of degree d-2
times the i-th relation, to mu * relation_i.  In degree d it maps onto I_d,
whose dimension is dim S_d - dim R_d, so by rank-nullity

  kernel_dim = #relations * C(n+d-3, d-2) - (C(n+d-1, d) - dim R_d),

where dim R_d, the number of fibers, is the number of multichains
c_1 <= ... <= c_d: each fiber holds exactly one standard monomial, and the
standard monomials are the multichains (Hibi 1987).  The part of that kernel
which is not minimal, the span of the variable multiples of lower-degree
syzygies, has dimension kernel_dim - sum_b beta_{1,b}.

Which fibers can carry a minimal first syzygy.  The diamond relations are a
quadratic Groebner basis (Hibi 1987; buchberger_check certifies it), and the
initial ideal in(I) is generated by the squarefree x_a x_b over the
incomparable pairs {a, b}.  Betti numbers can only grow on passing to the
initial ideal, in any positive multigrading in which I is homogeneous
(Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 8.29), so
beta_{1,b}(I) is at most the sum of beta_{1,m}(in I) over the monomials m of
the fiber of b.  By the upper Koszul complex (same book, Thm 1.34),
beta_{1,m}(in I) = dim H~_0(K^m) with K^m = {F in supp m : m / x^F in in(I)}.
It is 0 unless m is squarefree: whether a monomial lies in the squarefree
in(I) depends on its support only, so if x_v^2 divides m, adding v to a face
of K^m gives a face, and K^m is a cone over v or void.  For m the product
of the variables of a set M of elements, F is a face of K^m iff M - F is not
a chain, so the vertices of K^m are the v with M - v not a chain and its
edges are the {u, v} with M - {u, v} not a chain.  Then:

- |M| <= 2: K^m has no vertex and H~_0 = 0.
- |M| = 3: K^m has no edge; its vertices are the complements of the
  incomparable pairs in M, so H~_0 = (#incomparable pairs in M - 1)^+.
- |M| = 4: the edges are the complements of the incomparable pairs in M,
  and every vertex v lies on one (an incomparable pair that avoids v has a
  complement that contains v).  A graph on four vertices without isolated
  vertices is disconnected only as two disjoint edges, so H~_0 = 1 when the
  incomparable pairs in M are two disjoint pairs, and 0 otherwise.  Then M
  is ordered as a 4-cycle of comparabilities, and the only transitive
  orientation puts one pair, lo, below the other, hi: join(lo) <= meet(hi),
  a comparable pair (Lattice.comparable_pairs).
- |M| >= 5, M not a chain: take an incomparable pair {p, q}.  The at least
  three other elements are vertices and pairwise adjacent, since removing
  two of them leaves {p, q}.  If p is a vertex, M - p holds an incomparable
  pair P; some u outside {p, q} and P remains, and M - {p, u} holds P, so p
  is adjacent to u.  The same goes for q, so K^m is connected: H~_0 = 0.

Hence beta_{1,j}(I) = 0 for every j other than 3 and 4, and the public
functions report degrees 3..TOP_DEGREE only.  In degree 4 only a fiber that
holds x_a x_b x_c x_e for a comparable pair ((a, b), (c, e)) can carry a
minimal syzygy, so graded_betti_row examines the comparable-pair fibers of
degree 4 (525 of the 8,820 on grid 4x5) and no other fiber; S_4 is never
enumerated.  Each such fiber holds at least four monomials: for a
comparable pair (lo, hi) write lo' = (meet lo, join lo) and likewise hi';
then lo hi, lo' hi, lo hi' and lo' hi' are four distinct monomials of one
multidegree.

No such fiber is a cone.  Write lo = (a, b) and hi = (c, e).  The supports
of lo hi and lo' hi' are {a, b, c, e} and {a&b, a|b, c&e, c|e}.  Since a
and b are incomparable, neither equals a&b or a|b, and both lie strictly
below a|b <= c&e; likewise c and e lie strictly above c&e >= a|b.  So the
two supports are disjoint, and no vertex lies in every face of Delta_b.
shape_h1 has no cone shortcut to take here, and on a cone its general path
returns 0 anyway: a cone is contractible, so its boundaries fill the cycles
mod 2.

Degree 3 needs no fiber at all.  The relation of {a, b} has the leading
monomial x_a x_b, so the relations have pairwise distinct leading monomials
and are linearly independent: F_2 -> I_2 is injective, and no syzygy has
degree 2.  By graded Nakayama the syzygies that are not minimal are spanned
by the variable multiples of syzygies of lower degree, and below degree 3
there are none.  So every degree-3 syzygy is minimal: the degree-3 row is
(kernel_dim, 0, kernel_dim), and fiber by fiber beta_{1,b} = kernel_b
(fiber_kernels).  S_3 is enumerated only to build the degree-4 fibers.
"""

from collections import Counter
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import comb, gcd
from typing import NamedTuple

# The degree bound proved in the module docstring.
TOP_DEGREE = 4

# A row is a sparse vector over column keys with integer entries.  For a
# syzygy the key (mu, i) is the column mu * relation_i, with the monomial mu
# written as a sorted tuple of variables, as _monomials_by_code writes
# monomials.


class GradedBettiRow(NamedTuple):
    degree: int
    kernel_dim: int
    trivial_dim: int
    minimal_generators: int


class GradedBetti(tuple):
    """GradedBettiRows of degrees 3..TOP_DEGREE; total counts the minimal
    first-syzygy generators, linear holds iff none lies beyond degree 3."""

    @property
    def total(self):
        return sum(r.minimal_generators for r in self)

    @property
    def linear(self):
        return all(r.minimal_generators == 0 for r in self if r.degree > 3)


class RowSpan:
    """Integer span of sparse rows, grown one row at a time by fraction-free
    elimination; add reports whether the row enlarged the span."""

    def __init__(self, rows=()):
        self.pivots = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        row = {k: v for k, v in row.items() if v}
        while row:
            c = min(row)
            p = self.pivots.get(c)
            if p is None:
                g = gcd(*row.values())
                self.pivots[c] = ({k: v // g for k, v in row.items()}
                                  if g > 1 else row)
                return True
            a, b = row[c], p[c]
            new = {k: v * b for k, v in row.items()}
            for k, v in p.items():
                new[k] = new.get(k, 0) - v * a
            row = {k: v for k, v in new.items() if v}
        return False


# -- fibers --------------------------------------------------------------------


def fiber_codes(lattice):
    """The multidegree of each variable as one integer.

    Element a gets the sum of (TOP_DEGREE+1)**k over the k-th
    join-irreducible j <= a.  A monomial's fiber key is the sum of the codes
    of its variables, with multiplicity.  In a degree up to TOP_DEGREE no
    join-irreducible is counted more than TOP_DEGREE times, so the sum never
    carries, and two monomials of one such degree share a key exactly when
    they share a fiber.  One code serves degrees 3 and 4 alike.
    """
    base = TOP_DEGREE + 1
    ji = sorted(lattice.join_irreducibles())
    return [sum(base ** k for k, j in enumerate(ji) if lattice.le(j, a))
            for a in range(lattice.n)]


def _cubics_by_code(codes):
    """The degree-3 monomials, as sorted tuples of variables, grouped by the
    sum of their variables' codes."""
    table = {}
    for mono in combinations_with_replacement(range(len(codes)), 3):
        table.setdefault(sum(map(codes.__getitem__, mono)), []).append(mono)
    return table


def _comparable_pair_fibers(lattice):
    """The degree-TOP_DEGREE fibers of the comparable pairs, the only ones
    that can carry a minimal first syzygy (module docstring).

    A degree-4 monomial of code c with least variable y is y times a
    degree-3 monomial of code c - code(y) with no variable below y, so one
    table of the degree-3 monomials builds every fiber whole.  With no
    comparable pair there is no fiber, and the table is not built.
    """
    comparable = lattice.comparable_pairs()
    if not comparable:
        return []
    codes = fiber_codes(lattice)
    cubics = _cubics_by_code(codes)
    pairs = {codes[a] + codes[b] + codes[c] + codes[e]
             for (a, b), (c, e) in comparable}
    return [[(y,) + rest for y in range(lattice.n)
             for rest in cubics.get(code - codes[y], ()) if rest[0] >= y]
            for code in pairs]


def face_shape(faces):
    """The sorted distinct bit masks of the faces, after relabelling their
    vertices 0..k-1 in increasing order; a face is any iterable of vertices,
    repeats allowed."""
    vertices = sorted(set().union(*faces))
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    return tuple(sorted({sum(map(bit.__getitem__, set(face)))
                         for face in faces}))


@cache
def shape_h1(shape):
    """dim H~_1, over the rationals, of the simplicial complex generated by
    the faces of a shape (face_shape), computed on its bit masks.

    An edge is the mask of its two vertices, a triangle the tuple of its
    three vertex bits, lowest first, and a component the mask of its
    vertices.  H~_1 = cycles - rank d2, where d2 maps triangles to edges and
    cycles = dim ker d1 is the cycle space of the 1-skeleton: #edges less the
    #vertices - #components edges of a spanning forest.  Since d1 d2 = 0,
    rank_Q d2 <= cycles; since a minor that is nonzero mod 2 is nonzero,
    rank_F2 d2 <= rank_Q d2.  So the boundaries are reduced mod 2 first, and
    when that rank reaches cycles, H~_1 = 0.  Otherwise the exact rank comes
    from RowSpan, which covers a positive H~_1 and 2-torsion alike.
    """
    edges, triangles, components = set(), set(), []
    for face in shape:
        bits = [1 << k for k in range(face.bit_length()) if face >> k & 1]
        edges.update(map(sum, combinations(bits, 2)))
        triangles.update(combinations(bits, 3))
        touching = [c for c in components if c & face]
        components = [c for c in components if not c & face]
        components.append(face | sum(touching))  # components are disjoint
    cycles = len(edges) - sum(c.bit_count() - 1 for c in components)
    if _boundaries_fill_cycles_mod2(edges, triangles, cycles):
        return 0
    boundaries = RowSpan()
    for u, v, w in triangles:
        if boundaries.rank == cycles:
            break
        boundaries.add({v | w: 1, u | w: -1, u | v: 1})
    return cycles - boundaries.rank


def _boundaries_fill_cycles_mod2(edges, triangles, cycles):
    """True when the triangle boundaries, reduced mod 2, reach rank cycles.

    Each boundary is an int bit mask over the edges, and a row is reduced by
    XOR against the pivot of its lowest set bit.  A True settles H~_1 = 0 over
    the rationals (see shape_h1); a False settles nothing.
    """
    bit = {e: 1 << k for k, e in enumerate(edges)}
    pivots = {}  # lowest set bit -> row
    for u, v, w in triangles:
        if len(pivots) == cycles:
            break
        row = bit[v | w] | bit[u | w] | bit[u | v]
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return len(pivots) == cycles


def reduced_h1(faces):
    """dim H~_1, over the rationals, of the simplicial complex generated by
    the given vertex sets: shape_h1 of their face_shape."""
    return shape_h1(face_shape(faces))


def multichains(lattice, d):
    """Number of multichains c_1 <= ... <= c_d (d >= 1) of the lattice, which
    is dim R_d: every degree-d fiber holds exactly one standard monomial, and
    the standard monomials are the multichains (Hibi 1987).  Counted by how
    many end at each element, in O(n^2 d); the b <= a are read off the join
    row of a."""
    below = [[b for b, x in enumerate(row) if x == a]
             for a, row in enumerate(lattice.join)]
    ending = [1] * lattice.n
    for _ in range(d - 1):
        ending = [sum(ending[b] for b in bs) for bs in below]
    return sum(ending)


def graded_betti_row(ideal, d):
    """The GradedBettiRow of degree d (module docstring): every degree-3
    syzygy is minimal, the degree-TOP_DEGREE ones are counted by one H~_1
    per shape of the comparable-pair fibers, and none beyond is."""
    kernel = kernel_dim(ideal, d)
    if d == 3:
        minimal = kernel
    elif d == TOP_DEGREE:
        minimal = sum(shape_h1(face_shape(f))
                      for f in _comparable_pair_fibers(ideal.lattice))
    else:
        minimal = 0
    return GradedBettiRow(d, kernel, kernel - minimal, minimal)


def kernel_dim(ideal, d):
    """Dimension of the degree-d first syzygies, by rank-nullity: the
    presentation maps its #relations * C(n+d-3, d-2) columns onto I_d, whose
    dimension is dim S_d - dim R_d = C(n+d-1, d) - multichains(lattice, d)."""
    n = ideal.lattice.n
    columns = len(ideal.relations) * comb(n + d - 3, d - 2)
    return columns - (comb(n + d - 1, d) - multichains(ideal.lattice, d))


def graded_betti_oracle(ideal):
    """Exact minimal-generator counts of the first syzygy, one GradedBettiRow
    for each degree 3..TOP_DEGREE."""
    return GradedBetti(graded_betti_row(ideal, d)
                       for d in range(3, TOP_DEGREE + 1))


def first_betti_oracle(ideal):
    """Total number of minimal first-syzygy generators."""
    return graded_betti_oracle(ideal).total


def is_linear_first_syzygy(ideal):
    """True iff the first syzygy needs no minimal generator beyond degree 3."""
    return graded_betti_oracle(ideal).linear


# -- per-fiber kernels -------------------------------------------------------


def fiber_kernels(ideal):
    """The dimension kernel_b of the syzygies of multidegree b, for every
    degree-3 fiber b, keyed by the fiber's code (fiber_codes summed over any
    monomial of the fiber).

    F_b -> I_b is onto and R_b is one-dimensional, so by rank-nullity
    kernel_b = columns_b - |fiber_b| + 1, where columns_b counts the columns
    (v, i), a variable times relation i, of multidegree b.  Summed over b
    this is kernel_dim(ideal, 3).
    """
    codes = fiber_codes(ideal.lattice)
    columns = Counter(codes[a] + codes[b] + shift
                      for a, b in (r.pair for r in ideal.relations)
                      for shift in codes)
    return {code: columns[code] - len(fiber) + 1
            for code, fiber in _cubics_by_code(codes).items()}


def standard_monomial(lattice, code):
    """The standard monomial of the degree-3 fiber with the given code: the
    one chain of three elements, bottom first, whose codes sum to it.  The
    k-th join-irreducible occurs in it as often as code's k-th digit in base
    TOP_DEGREE + 1 says, so the t-th element from the top holds the
    join-irreducibles of digit at least t."""
    base = TOP_DEGREE + 1
    codes = fiber_codes(lattice)
    digits = []
    while code:
        code, digit = divmod(code, base)
        digits.append(digit)
    return tuple(codes.index(sum(base ** k for k, digit in enumerate(digits)
                                 if digit >= t))
                 for t in range(3, 0, -1))
