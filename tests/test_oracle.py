from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, overlapping_grids
from hibiring import enumerate_distributive, grid, oracle
from hibiring.ideal import hibi_ideal
from hibiring.oracle import (
    GradedBettiRow,
    RowSpan,
    face_shape,
    fiber_codes,
    fiber_kernels,
    first_betti_oracle,
    graded_betti_oracle,
    graded_betti_row,
    is_linear_first_syzygy,
    kernel_dim,
    multichains,
    reduced_h1,
    shape_h1,
    standard_monomial,
)
from hibiring.polynomials import mono_mul

CENSUS = list(enumerate_distributive(8))


def test_chain_has_no_syzygies():
    rows = graded_betti_oracle(hibi_ideal(chain(5)))
    assert all(r.kernel_dim == 0 for r in rows)
    assert first_betti_oracle(hibi_ideal(chain(5))) == 0


def test_single_diamond():
    rows = graded_betti_oracle(hibi_ideal(grid(1, 1)))
    # one binomial generator: the presentation has no relations at all
    assert all(r.minimal_generators == 0 for r in rows)


def test_small_grid_values():
    rows = graded_betti_oracle(hibi_ideal(grid(1, 2)))
    assert [(r.degree, r.minimal_generators) for r in rows] == [(3, 2), (4, 0)]
    assert rows[1].kernel_dim == 12 and rows[1].trivial_dim == 12


def test_worked_example_grid_2_3():
    rows = graded_betti_oracle(hibi_ideal(grid(2, 3)))
    assert [(r.degree, r.minimal_generators) for r in rows] == [(3, 52), (4, 0)]


def test_stacked_diamonds_degree_four(stacked_diamonds):
    rows = graded_betti_oracle(hibi_ideal(stacked_diamonds))
    assert [(r.degree, r.minimal_generators) for r in rows] == [(3, 0), (4, 1)]
    assert not is_linear_first_syzygy(hibi_ideal(stacked_diamonds))


def test_nothing_minimal_beyond_degree_four(stacked_diamonds):
    """Witness of the degree bound stated in hibiring.oracle: walking the
    per-degree step past it finds no minimal generator in degrees 5 and 6,
    and neither does enumerating every fiber of S_5 and S_6, which the
    oracle no longer examines."""
    lattices = [grid(2, 3), stacked_diamonds, overlapping_grids(3, 1, 2, 4)]
    lattices += enumerate_distributive(9)
    for L in lattices:
        I = hibi_ideal(L)
        assert [graded_betti_row(I, d).minimal_generators
                for d in (5, 6)] == [0, 0]
        assert not any(shape_h1(face_shape(f))
                       for d in (5, 6) for f in _reference_fibers(L, d)
                       if len(f) > 2)


def test_grids_are_linear():
    for (m, n) in [(1, 1), (1, 3), (2, 2), (2, 3)]:
        assert is_linear_first_syzygy(hibi_ideal(grid(m, n)))


def test_kernel_dim_euler_formula(stacked_diamonds):
    """The rank-nullity kernel dimension equals #columns - rank of the
    presentation matrix, built here column by column: the column (mu, i) is
    mu * lead_i - mu * tail_i."""
    for L in [grid(1, 3), grid(2, 2), stacked_diamonds] + CENSUS[:12]:
        I = hibi_ideal(L)
        binomials = []
        for r in I.relations:
            lead = I.order.max((r.pair, r.jm))
            (tail,) = [m for m in (r.pair, r.jm) if m != lead]
            binomials.append((lead, tail))
        for d in (3, 4):
            columns = []
            for combo in combinations_with_replacement(range(L.n), d - 2):
                columns += [{mono_mul(combo, lead): 1, mono_mul(combo, tail): -1}
                            for lead, tail in binomials]
            assert kernel_dim(I, d) == len(columns) - RowSpan(columns).rank


def test_fiber_kernels_sum_to_kernel_dim(stacked_diamonds):
    """Per-fiber kernel dimensions are nonnegative and sum to the
    rank-nullity kernel dimension of degree 3."""
    lattices = [grid(2, 3), grid(3, 3), stacked_diamonds]
    lattices += enumerate_distributive(9)
    for L in lattices:
        I = hibi_ideal(L)
        kernels = fiber_kernels(I)
        assert min(kernels.values()) >= 0
        assert sum(kernels.values()) == kernel_dim(I, 3)


def test_standard_monomial_is_the_chain_of_its_fiber(stacked_diamonds):
    for L in [grid(2, 3), stacked_diamonds, overlapping_grids(3, 1, 2, 4)]:
        codes = fiber_codes(L)
        for mono in combinations_with_replacement(range(L.n), 3):
            code = sum(codes[v] for v in mono)
            chain = standard_monomial(L, code)
            assert sum(codes[v] for v in chain) == code
            assert all(L.le(u, v) for u, v in zip(chain, chain[1:]))


def test_reduced_h1_small_complexes():
    hollow = [{0, 1}, {1, 2}, {0, 2}]
    assert reduced_h1(hollow) == 1
    assert reduced_h1([{0, 1, 2}]) == 0
    assert reduced_h1([face | {3} for face in hollow]) == 0  # cone over 3
    bouquet = hollow + [{0, 3}, {3, 4}, {0, 4}]
    assert reduced_h1(bouquet) == 2
    assert reduced_h1([{0, 1}, {2, 3}]) == 0  # two components, no cycle
    # two faces are a cone or two contractible components
    faces = [set(f) for k in (1, 2, 3) for f in combinations(range(5), k)]
    assert all(reduced_h1([f, g]) == 0 for f, g in combinations(faces, 2))


# The 6-vertex real projective plane: H~_1 is Z/2, so it vanishes over the
# rationals, while mod 2 the triangle boundaries have rank 9 against 10 cycles.
RP2 = [{1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 6, 2}, {2, 3, 5},
       {3, 4, 6}, {4, 5, 2}, {5, 6, 3}, {6, 2, 4}]


def _rank_mod2(rows):
    """Rank over F_2 of integer sparse rows."""
    pivots = {}
    for r in rows:
        bits = {k for k, v in r.items() if v % 2}
        while bits:
            p = pivots.get(min(bits))
            if p is None:
                pivots[min(bits)] = bits
                break
            bits ^= p
    return len(pivots)


def _boundary_rows(faces):
    """The boundary rows of every edge and every triangle of the complex."""
    edges = {e for f in faces for e in combinations(sorted(f), 2)}
    triangles = {t for f in faces for t in combinations(sorted(f), 3)}
    d1 = [{u: -1, v: 1} for u, v in edges]
    d2 = [{(v, w): 1, (u, w): -1, (u, v): 1} for u, v, w in triangles]
    return d1, d2


def _reference_h1(faces):
    """dim H~_1 over the rationals by exact rank of both boundary maps:
    #edges - rank d1 - rank d2, every triangle ranked."""
    d1, d2 = _boundary_rows(faces)
    return len(d1) - RowSpan(d1).rank - RowSpan(d2).rank


def test_rp2_falls_back_to_exact_rank(count_calls):
    """2-torsion: the mod-2 bound stops short of the cycle count, so the
    exact elimination runs and finds H~_1 = 0 over the rationals."""
    d1, d2 = _boundary_rows(RP2)
    assert len(d1) - RowSpan(d1).rank == 10
    assert _rank_mod2(d2) == 9 and RowSpan(d2).rank == 10
    shape_h1.cache_clear()
    exact = count_calls(oracle, "RowSpan")
    assert reduced_h1(RP2) == 0
    assert len(exact) == 1


def test_mod2_bound_settles_a_disk(count_calls):
    """A strip of four triangles with no common vertex: its boundaries are
    independent mod 2, so H~_1 = 0 with no exact elimination."""
    strip = [{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}]
    shape_h1.cache_clear()
    exact = count_calls(oracle, "RowSpan")
    assert reduced_h1(strip) == 0
    assert exact == []
    assert reduced_h1([{0, 1}, {1, 2}, {0, 2}, {2, 3, 4}]) == 1
    assert len(exact) == 1


def _faces(shape):
    """The vertex sets encoded by a shape's bit masks."""
    return [{k for k in range(mask.bit_length()) if mask >> k & 1}
            for mask in shape]


def _shapes(L, degrees):
    """The shapes of the fibers of more than two monomials."""
    codes = fiber_codes(L)
    shapes = set()
    for d in degrees:
        fibers = {}
        for mono in combinations_with_replacement(range(L.n), d):
            fibers.setdefault(sum(codes[v] for v in mono), []).append(mono)
        shapes.update(face_shape(f) for f in fibers.values() if len(f) > 2)
    return shapes


def test_shape_h1_matches_exact_reference():
    """shape_h1 against full exact ranks on every fiber shape of degrees 3
    and 4 of the census up to 10 elements (212 shapes, 29 with H~_1 > 0) and
    of grid 4x5 (567 shapes, 28 positive)."""
    shapes = set()
    for L in list(enumerate_distributive(10)) + [grid(4, 5)]:
        shapes |= _shapes(L, (3, 4))
    positive = 0
    for shape in shapes:
        h1 = shape_h1(shape)
        assert h1 == _reference_h1(_faces(shape))
        positive += h1 > 0
    assert (len(shapes), positive) == (718, 48)


complexes = st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4),
                     min_size=1, max_size=8)


@given(complexes, st.data())
@settings(max_examples=200, deadline=None)
def test_shape_is_sound(faces, data):
    """H~_1 computed on a complex's shape is its H~_1 by exact ranks on the
    vertex sets, and an order-preserving relabelling of the vertices keeps
    the shape."""
    shape = face_shape(faces)
    assert shape_h1(shape) == _reference_h1(faces)
    vertices = sorted(set().union(*faces))
    labels = sorted(data.draw(st.sets(st.integers(0, 40),
                                      min_size=len(vertices),
                                      max_size=len(vertices))))
    relabel = dict(zip(vertices, labels))
    assert face_shape([{relabel[v] for v in f} for f in faces]) == shape


def _reference_fibers(L, d):
    """Every degree-d fiber, by enumerating S_d: lists of monomials given as
    sorted tuples of variables, keyed by multidegree codes in base d + 1,
    which a degree-d sum never carries past."""
    ji = sorted(L.join_irreducibles())
    codes = [sum((d + 1) ** k for k, j in enumerate(ji) if L.le(j, a))
             for a in range(L.n)]
    fibers = {}
    for mono in combinations_with_replacement(range(L.n), d):
        fibers.setdefault(sum(codes[v] for v in mono), []).append(mono)
    return list(fibers.values())


def _reference_row(ideal, d):
    """graded_betti_row without shapes, memo, mod-2 bound or the
    initial-ideal bound: H~_1 by exact ranks of every degree-d fiber."""
    minimal = sum(_reference_h1([set(m) for m in f])
                  for f in _reference_fibers(ideal.lattice, d))
    kernel = kernel_dim(ideal, d)
    return GradedBettiRow(d, kernel, kernel - minimal, minimal)


def test_rows_match_unmemoised_reference(stacked_diamonds,
                                         diamond_counterexample):
    small = [grid(2, 3), stacked_diamonds, diamond_counterexample]
    small += enumerate_distributive(9)
    cases = [(L, (3, 4, 5)) for L in small] + [(grid(3, 3), (3, 4))]
    for L, degrees in cases:
        I = hibi_ideal(L)
        for d in degrees:
            assert graded_betti_row(I, d) == _reference_row(I, d)


def _koszul_h0(leads, M):
    """dim H~_0 of the upper Koszul complex K^m of the initial ideal, for m
    the product of the variables of the set M, from its definition: F in M
    is a face iff m / x^F lies in in(I), that is iff M - F contains the
    support of a lead in leads."""
    def face(F):
        rest = M - F
        return any(lead <= rest for lead in leads)
    if not face(frozenset()):
        return 0  # m is not in in(I): K^m is void
    vertices = [v for v in M if face({v})]
    component = {v: {v} for v in vertices}
    for u, v in combinations(vertices, 2):
        if face({u, v}) and component[u] is not component[v]:
            merged = component[u] | component[v]
            for w in merged:
                component[w] = merged
    return max(len({id(c) for c in component.values()}) - 1, 0)


def test_initial_ideal_bounds_the_fibers(diamond_counterexample):
    """The bound in the oracle module docstring, apart from the shortcut it
    licenses.  For every squarefree m of degree 3-5, beta_{1,m}(in I) =
    dim H~_0(K^m) is (#incomparable pairs in m - 1)^+ in degree 3, 1 exactly
    on the comparable pairs in degree 4, and 0 in degree 5; and every fiber
    with H~_1 > 0, found by enumerating S_d, holds such an m with
    beta_{1,m}(in I) > 0.  Census <= 10, grid 2x3 and the 10-element
    counterexample."""
    examined = positive = 0
    for L in list(enumerate_distributive(10)) + [grid(2, 3),
                                                 diamond_counterexample]:
        I = hibi_ideal(L)
        leads = []
        for r in I.relations:
            lead = I.order.max((r.pair, r.jm))
            assert len(lead) == len(set(lead)) == 2  # squarefree
            leads.append(frozenset(lead))
        comparable = {frozenset(lo + hi) for lo, hi in L.comparable_pairs()}
        h0 = {}
        for d in (3, 4, 5):
            for M in map(frozenset, combinations(range(L.n), d)):
                h0[M] = _koszul_h0(leads, M)
                incomparable = sum(L.incomparable(a, b)
                                   for a, b in combinations(M, 2))
                expected = {3: max(incomparable - 1, 0),
                            4: int(M in comparable), 5: 0}[d]
                assert h0[M] == expected, (L.covers, sorted(M))
        examined += len(h0)
        for d in (3, 4, 5):
            for f in _reference_fibers(L, d):
                if len(f) > 2 and reduced_h1([set(m) for m in f]) > 0:
                    positive += 1
                    assert any(h0.get(frozenset(m), 0) > 0 for m in f
                               if len(set(m)) == d)
    assert (examined, positive) == (41901, 400)


def test_multichains_count_the_fibers():
    """dim R_d as the number of multichains equals the number of fibers
    found by enumerating S_d, for d = 2..5 on census <= 10."""
    for L in enumerate_distributive(10):
        for d in (2, 3, 4, 5):
            assert multichains(L, d) == len(_reference_fibers(L, d))


def test_oracle_computes_h1_once_per_shape():
    """On grid 4x5 the 525 comparable-pair fibers of degree 4 have 141
    shapes, and the degree-3 row computes no H~_1: shape_h1 misses its memo
    141 times and hits it 384.  One H~_1 per fiber would make 525, and one
    per fiber of all of S_3 and S_4 9,300."""
    shape_h1.cache_clear()
    assert first_betti_oracle(hibi_ideal(grid(4, 5))) == 1500
    info = shape_h1.cache_info()
    assert (info.misses, info.hits) == (141, 384)


def test_degree_four_row_builds_comparable_pair_fibers_only(count_calls):
    """The degree-4 row of grid 4x5 builds one fiber per comparable-pair
    multidegree (525 of its 8,820), each whole, and enumerates no degree-4
    monomial."""
    L = grid(4, 5)
    I = hibi_ideal(L)
    shapes = count_calls(oracle, "face_shape")
    enumerations = count_calls(oracle, "combinations_with_replacement")
    row = graded_betti_row(I, 4)
    assert row.minimal_generators == 0
    assert len(shapes) == 525 == len(L.comparable_pairs())
    assert multichains(L, 4) == 8820
    assert [args[1] for args in enumerations] == [3]
    codes = fiber_codes(L)
    comparable = {sum(codes[v] for v in lo + hi)
                  for lo, hi in L.comparable_pairs()}
    expected = sorted(sorted(f) for f in _reference_fibers(L, 4)
                      if sum(codes[v] for v in f[0]) in comparable)
    assert sorted(sorted(args[0]) for args in shapes) == expected
    assert min(len(args[0]) for args in shapes) >= 4


def test_comparable_pair_fibers_are_not_cones(census_to_twelve,
                                              count_calls):
    """The lemma of the oracle module docstring: for every comparable pair
    ((a, b), (c, e)) the supports {a, b, c, e} and {a&b, a|b, c&e, c|e} of
    two monomials of its fiber are disjoint, so no comparable-pair fiber is
    a cone.  Census <= 12 and the grids m x n, 1 <= m <= n <= 6: 11,834
    pairs, whose fibers number 11,814."""
    shaped = count_calls(oracle, "face_shape")
    lattices = census_to_twelve + [grid(m, n) for m in range(1, 7)
                                   for n in range(m, 7)]
    pairs = 0
    for L in lattices:
        for (a, b), (c, e) in L.comparable_pairs():
            primed = {L.meet[a][b], L.join[a][b], L.meet[c][e], L.join[c][e]}
            assert primed.isdisjoint((a, b, c, e))
            pairs += 1
        graded_betti_row(hibi_ideal(L), 4)
    fibers = [args[0] for args in shaped]
    assert not any(set.intersection(*map(set, f)) for f in fibers)
    assert (pairs, len(fibers)) == (11834, 11814)


def test_degree_three_row_is_the_kernel(count_calls):
    """Every degree-3 syzygy is minimal, so the degree-3 row of grid 4x5 is
    read off rank-nullity: no monomial is enumerated, no fiber shaped and no
    H~_1 computed."""
    I = hibi_ideal(grid(4, 5))
    shape_h1.cache_clear()
    calls = [count_calls(oracle, name) for name in
             ("combinations_with_replacement", "face_shape")]
    k = kernel_dim(I, 3)
    assert graded_betti_row(I, 3) == GradedBettiRow(3, k, 0, k)
    assert k == 1500
    assert calls == [[], []]
    assert shape_h1.cache_info().misses == 0


def test_oracle_enumerates_s3_once(count_calls):
    """graded_betti_oracle enumerates S_3 once, for the degree-4 fibers, and
    on the linear grid 4x5 the mod-2 bound settles every shape, so no exact
    elimination runs."""
    shape_h1.cache_clear()
    enumerations = count_calls(oracle, "combinations_with_replacement")
    exact = count_calls(oracle, "RowSpan")
    rows = graded_betti_oracle(hibi_ideal(grid(4, 5)))
    assert rows.linear
    assert [args[1] for args in enumerations] == [3]
    assert exact == []


def test_no_comparable_pair_enumerates_nothing(count_calls, stacked_diamonds):
    """The degree-4 row enumerates S_3 only for a lattice with a comparable
    pair: grid 1x2 has none and enumerates no monomial, stacked_diamonds has
    one and enumerates S_3 once."""
    enumerations = count_calls(oracle, "combinations_with_replacement")
    assert grid(1, 2).comparable_pairs() == ()
    assert graded_betti_row(hibi_ideal(grid(1, 2)), 4).minimal_generators == 0
    assert enumerations == []
    assert graded_betti_row(hibi_ideal(stacked_diamonds), 4).minimal_generators == 1
    assert [args[1] for args in enumerations] == [3]


def test_degree_three_fibers_carry_their_kernel():
    """The fiberwise form of the degree-3 row: on every degree-3 fiber b of
    the census up to 9 elements and of grid 2x3, kernel_b equals
    dim H~_1(Delta_b), computed on the fiber itself."""
    fibers = positive = 0
    for L in list(enumerate_distributive(9)) + [grid(2, 3)]:
        kernels = fiber_kernels(hibi_ideal(L))
        codes = fiber_codes(L)
        for f in _reference_fibers(L, 3):
            b = sum(codes[v] for v in f[0])
            assert kernels[b] == reduced_h1([set(m) for m in f])
            fibers += 1
            positive += kernels[b] > 0
    assert (fibers, positive) == (6292, 140)


def test_row_rank_simple():
    assert RowSpan([]).rank == 0
    assert RowSpan([{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 1}]).rank == 2
    assert RowSpan([{0: 1}, {1: 1}, {0: 1, 1: 1}]).rank == 2


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_row_rank_matches_dense_elimination(matrix):
    rows = [{j: v for j, v in enumerate(r) if v} for r in matrix]
    dense = [[Fraction(v) for v in r] for r in matrix]
    rank = 0
    for c in range(4):
        piv = next((i for i in range(rank, len(dense)) if dense[i][c]), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        for i in range(len(dense)):
            if i != rank and dense[i][c]:
                f = dense[i][c] / dense[rank][c]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[rank])]
        rank += 1
    assert RowSpan(rows).rank == rank


def test_census_trivial_dim_never_exceeds_kernel():
    for L in CENSUS:
        for r in graded_betti_oracle(hibi_ideal(L)):
            assert 0 <= r.trivial_dim <= r.kernel_dim
            assert r.minimal_generators == r.kernel_dim - r.trivial_dim


def test_census_sums_to_twelve(census_to_twelve):
    """Row sums over the 341 lattices of 2-12 elements, pinned from the
    spanning-forest oracle this one replaced."""
    sums = {3: [0, 0, 0], 4: [0, 0, 0]}
    examined = nonlinear = 0
    for L in census_to_twelve:
        if L.n < 2:
            continue
        examined += 1
        rows = graded_betti_oracle(hibi_ideal(L))
        for r in rows:
            for k, v in enumerate((r.kernel_dim, r.trivial_dim,
                                   r.minimal_generators)):
                sums[r.degree][k] += v
        nonlinear += not rows.linear
    assert sums == {3: [2414, 0, 2414], 4: [26557, 26045, 512]}
    assert (examined, nonlinear) == (341, 157)
