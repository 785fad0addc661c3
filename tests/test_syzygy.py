import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain
from hibiring import enumerate_distributive, grid
from hibiring.errors import ConditionViolated, HibiError
from hibiring.ideal import hibi_ideal
from hibiring.oracle import kernel_dim, module_vec_row, row_rank
from hibiring.polynomials import QQ, Polynomial
from hibiring.syzygy import (
    PositionOrder,
    SchreyerOrder,
    all_typed_generators,
    apply_phi,
    classify_pair,
    diamond_comparable,
    diamond_reducible,
    module_divide,
    module_s_vector,
    schreyer_cmp,
    schreyer_pair,
    typed_generator,
    typed_generators_for_pair,
    vec_add,
    vec_equal_up_to_sign,
    vec_is_zero,
    vec_mul_term,
    vec_sub,
)

CENSUS = list(enumerate_distributive(8))


def _vec(ideal, *terms):
    """Module vector from (a, b, variable, sign) terms using 1-based labels."""
    n = ideal.lattice.n
    out = {}
    for a, b, v, sign in terms:
        key = (a - 1, b - 1) if (a - 1, b - 1) in ideal.index_of else (b - 1, a - 1)
        t = {ideal.index_of[key]: Polynomial.term(
            ideal.field, n, tuple(1 if k == v - 1 else 0 for k in range(n)), sign)}
        out = vec_add(out, t)
    return out


# -- vector helpers ------------------------------------------------------------


def test_vec_arithmetic():
    I = hibi_ideal(grid(1, 2))
    u = _vec(I, (2, 3, 5, 1))
    v = _vec(I, (2, 5, 3, -1))
    assert vec_is_zero(vec_sub(vec_add(u, v), vec_add(v, u)))
    assert vec_equal_up_to_sign(u, {i: -p for i, p in u.items()})
    assert not vec_equal_up_to_sign(u, v)
    shifted = vec_mul_term(u, (1, 0, 0, 0, 0, 0))
    assert next(iter(shifted.values())).degree() == 2


# -- Schreyer pairs ------------------------------------------------------------


def test_schreyer_pair_is_syzygy():
    for L in CENSUS:
        I = hibi_ideal(L)
        for i in range(len(I)):
            for j in range(i + 1, len(I)):
                row = module_vec_row(schreyer_pair(i, j, I))
                assert apply_phi(row, I) == {}


def test_schreyer_pairs_span_kernel():
    for L in CENSUS:
        I = hibi_ideal(L)
        if len(I) < 2:
            continue
        rows = [module_vec_row(schreyer_pair(i, j, I))
                for i in range(len(I)) for j in range(i + 1, len(I))]
        # Schreyer's generators span all syzygies; in particular all of
        # degrees 3 and 4 graded by total degree
        deg3 = [r for r in rows
                if len(next(iter(r))[0]) == 1]
        assert row_rank(deg3) == kernel_dim(I, 3)


def test_schreyer_order_leading_terms():
    I = hibi_ideal(grid(1, 2))
    so = SchreyerOrder(I)
    # x1*e0 vs x1*e1: in(x1*g0) = x1x2x3 > x1x2x5 = in(x1*g1), since lower
    # lattice elements are larger variables
    x1 = (1, 0, 0, 0, 0, 0)
    assert schreyer_cmp(so, (x1, 0), (x1, 1)) == 1
    # same component: ring order decides
    x3 = (0, 0, 1, 0, 0, 0)
    assert schreyer_cmp(so, (x1, 0), (x3, 0)) == 1
    assert schreyer_cmp(so, (x1, 0), (x1, 0)) == 0


# -- classification ------------------------------------------------------------


def test_classify_grid_1_2():
    L = grid(1, 2)
    pairs = L.incomparable_pairs()
    assert pairs == [(1, 2), (1, 4), (3, 4)]
    assert classify_pair(L, (1, 2), (1, 4)) == "strip"
    assert classify_pair(L, (1, 4), (3, 4)) == "strip"
    assert classify_pair(L, (1, 2), (3, 4)) == "D"


def test_classify_same_pair_rejected():
    L = grid(1, 2)
    with pytest.raises(HibiError):
        classify_pair(L, (1, 2), (1, 2))


def test_classification_histogram_grid_2_3():
    I = hibi_ideal(grid(2, 3))
    counts = {}
    for t in all_typed_generators(I):
        counts[t.kind] = counts.get(t.kind, 0) + 1
    assert counts == {"S1": 36, "S2": 36, "L": 8, "B1": 8, "B2": 8,
                      "G": 4, "D": 97}


def test_shared_corner_families(shared_corner, shared_corner_dual):
    L = shared_corner
    assert classify_pair(L, (7, 5), (7, 9)) == "G3"
    assert classify_pair(shared_corner_dual, (7, 5), (7, 9)) == "G4"
    I = hibi_ideal(L)
    # the swapped witness satisfies the G6 profile on the same lattice
    g6 = typed_generator(I, "G6", (7, 9, 5))
    assert apply_phi(g6.row, I) == {}
    g3 = typed_generator(I, "G3", (7, 5, 9))
    assert apply_phi(g3.row, I) == {}
    g4 = typed_generator(hibi_ideal(shared_corner_dual), "G4", (7, 5, 9))
    assert apply_phi(g4.row, hibi_ideal(shared_corner_dual)) == {}


def test_condition_violated():
    I = hibi_ideal(grid(1, 2))
    with pytest.raises(ConditionViolated):
        typed_generator(I, "S1", (1, 4, 2))  # needs b1 below b2
    with pytest.raises(ConditionViolated):
        typed_generator(I, "G1", (1, 2, 4))
    with pytest.raises(ConditionViolated):
        typed_generator(I, "D", (1, 2, 1, 4))  # not four distinct elements


def test_unknown_kind():
    with pytest.raises(HibiError):
        typed_generator(hibi_ideal(grid(1, 2)), "Z9", (1, 2, 3))


# -- typed generators: phi = 0 and completeness --------------------------------


def test_typed_generators_are_syzygies():
    for L in CENSUS:
        I = hibi_ideal(L)
        for t in all_typed_generators(I):
            assert apply_phi(t.row, I) == {}


def _phi_reference(row, I):
    """phi of a row by Polynomial arithmetic: sum of c * mu * relation_i,
    returned as {sorted variables: coefficient}."""
    n = I.lattice.n
    total = Polynomial.zero(I.field, n)
    for (mu, i), c in row.items():
        mono = tuple(mu.count(v) for v in range(n))
        term = Polynomial.term(I.field, n, mono, c)
        total = total + term * I.relations[i].poly
    return {tuple(v for v, e in enumerate(m) for _ in range(e)): int(c)
            for m, c in total.coeffs.items()}


def test_integer_phi_matches_polynomial_reference():
    """The integer phi equals the Polynomial image on every typed row of
    census <= 8 and grid 2x3 (both empty), and on each row with one sign
    flipped (both nonempty)."""
    for L in CENSUS + [grid(2, 3)]:
        I = hibi_ideal(L)
        for t in all_typed_generators(I):
            assert apply_phi(t.row, I) == _phi_reference(t.row, I) == {}
            for key in t.row:
                flipped = dict(t.row)
                flipped[key] = -flipped[key]
                image = apply_phi(flipped, I)
                assert image and image == _phi_reference(flipped, I)


def test_typed_span_equals_kernel_census():
    for L in CENSUS:
        I = hibi_ideal(L)
        gens = all_typed_generators(I)
        deg3 = [module_vec_row(t.element) for t in gens
                if next(iter(t.element.values())).degree() == 1]
        assert row_rank(deg3) == kernel_dim(I, 3)


def test_strip_pair_matches_worked_example():
    I = hibi_ideal(grid(1, 2))
    s1 = typed_generator(I, "S1", (1, 2, 4))  # witness a=x2, b1=x3, b2=x5
    s2 = typed_generator(I, "S2", (1, 2, 4))
    expected1 = _vec(I, (2, 3, 5, 1), (2, 5, 3, -1), (4, 5, 1, 1))
    expected2 = _vec(I, (2, 3, 6, -1), (2, 5, 4, 1), (4, 5, 2, -1))
    assert vec_equal_up_to_sign(s1.element, expected1)
    assert vec_equal_up_to_sign(s2.element, expected2)


def test_degenerate_terms_drop_out():
    # on some lattices a formula references a comparable auxiliary pair; the
    # corresponding relation is zero and the element still satisfies phi = 0,
    # never raising through typed_generators_for_pair
    for L in CENSUS:
        I = hibi_ideal(L)
        pairs = [r.pair for r in I.relations]
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                for t in typed_generators_for_pair(I, pairs[i], pairs[j]):
                    assert t.element  # empty elements are omitted
                    assert apply_phi(t.row, I) == {}


# -- diamond comparability / reducibility --------------------------------------


def test_diamond_comparable(stacked_diamonds, bridged_diamonds):
    assert diamond_comparable(stacked_diamonds, (1, 2), (4, 5))
    assert diamond_comparable(bridged_diamonds, (1, 2), (10, 11))
    L = grid(1, 2)
    assert not diamond_comparable(L, (1, 2), (3, 4))


def test_diamond_reducible(stacked_diamonds, bridged_diamonds):
    # non-comparable disjoint diamonds always reduce
    assert diamond_reducible(grid(1, 2), (1, 2), (3, 4))
    # the bridged pair reduces through a diamond whose meet and join lie in
    # the lower and upper diamonds
    assert diamond_reducible(bridged_diamonds, (1, 2), (10, 11))
    # stacked diamonds with nothing in between do not
    assert not diamond_reducible(stacked_diamonds, (1, 2), (4, 5))


def test_diamond_reducible_matches_bridge_scan(census_to_twelve):
    """The bridge lookup agrees with a scan of every incomparable pair for
    its meet in the lower diamond and its join in the upper one, on every
    comparable disjoint pair of the census up to 12 elements."""
    checked = 0
    for L in census_to_twelve:
        pairs = L.incomparable_pairs()
        for i, d1 in enumerate(pairs):
            for d2 in pairs[i + 1:]:
                if set(d1) & set(d2) or not diamond_comparable(L, d1, d2):
                    continue
                lo, hi = ((d1, d2) if L.le(L.join[d1[0]][d1[1]],
                                           L.meet[d2[0]][d2[1]]) else (d2, d1))
                scan = any(L.meet[a][b] in lo and L.join[a][b] in hi
                           for a, b in pairs)
                assert diamond_reducible(L, d1, d2) == scan
                checked += 1
    assert checked == 708


def test_diamond_reducible_requires_disjoint():
    with pytest.raises(HibiError):
        diamond_reducible(grid(1, 2), (1, 2), (1, 4))


# -- the non-Groebner remark ---------------------------------------------------


def test_strip_pair_not_groebner_in_module():
    """The two strip generators of grid(1,2) are not a Groebner basis of the
    syzygy module they generate: their S-vector does not reduce to zero
    against them under the position-over-term order."""
    I = hibi_ideal(grid(1, 2))
    s1 = typed_generator(I, "S1", (1, 2, 4)).element
    s2 = typed_generator(I, "S2", (1, 2, 4)).element
    order = PositionOrder(I)
    # both lead on their shared third component
    assert order.leading_term(s1)[1] == order.leading_term(s2)[1] == 2
    s = module_s_vector(s1, s2, order)
    assert not vec_is_zero(s)
    quotients, remainder = module_divide(s, [s1, s2], order)
    assert not vec_is_zero(remainder)
    # the S-vector is itself irreducible: nothing was subtracted at all
    assert all(q.is_zero() for q in quotients)
    assert vec_equal_up_to_sign(remainder, s)


def test_strip_pair_s_vector_value():
    I = hibi_ideal(grid(1, 2))
    s1 = typed_generator(I, "S1", (1, 2, 4)).element
    s2 = typed_generator(I, "S2", (1, 2, 4)).element
    s = module_s_vector(s1, s2, PositionOrder(I))
    x = lambda v: Polynomial.variable(QQ, 6, v - 1)
    expected = {0: x(2) * x(5) - x(1) * x(6), 1: -(x(2) * x(3)) + x(1) * x(4)}
    assert vec_equal_up_to_sign(s, expected)
    assert apply_phi(module_vec_row(s), I) == {}


def test_true_schreyer_leads_differ():
    """Under the order induced by the ring leading monomials, the two strip
    generators lead on different components, so no S-vector is defined."""
    I = hibi_ideal(grid(1, 2))
    s1 = typed_generator(I, "S1", (1, 2, 4)).element
    s2 = typed_generator(I, "S2", (1, 2, 4)).element
    order = SchreyerOrder(I)
    assert order.leading_term(s1)[1] != order.leading_term(s2)[1]
    with pytest.raises(HibiError):
        module_s_vector(s1, s2, order)


# -- module division invariants ------------------------------------------------


def test_module_divide_reconstruction():
    I = hibi_ideal(grid(2, 2))
    gens = [t.element for t in all_typed_generators(I)
            if t.kind in ("S1", "S2")]
    order = SchreyerOrder(I)
    target = vec_add(vec_mul_term(gens[0], (1, 0, 0, 0, 0, 0, 0, 0, 0)),
                     gens[-1])
    quotients, remainder = module_divide(target, gens, order)
    rebuilt = dict(remainder)
    for q, g in zip(quotients, gens):
        for m, c in q.coeffs.items():
            rebuilt = vec_add(rebuilt, vec_mul_term(g, m, c))
    assert vec_is_zero(vec_sub(rebuilt, target))


def test_module_divide_zero_input():
    quotients, remainder = module_divide({}, [], SchreyerOrder(hibi_ideal(grid(1, 1))))
    assert quotients == [] and remainder == {}


# -- the bridged-diamond identity ---------------------------------------------


def _l_groups(I):
    """The five degree-3 syzygies whose combination expresses the bridged
    diamond syzygy, with their multipliers (variable, sign)."""
    groups = [
        _vec(I, (2, 3, 12, 1), (2, 8, 6, -1), (6, 8, 2, 1), (6, 10, 1, -1)),
        _vec(I, (2, 3, 9, 1), (2, 5, 6, -1), (5, 6, 2, 1), (6, 7, 1, -1)),
        _vec(I, (2, 5, 13, 1), (2, 8, 11, -1), (8, 11, 2, 1), (10, 11, 1, -1)),
        _vec(I, (5, 6, 13, 1), (6, 8, 11, -1), (8, 11, 6, 1), (11, 12, 3, -1)),
        _vec(I, (6, 7, 13, 1), (6, 10, 11, -1), (10, 11, 6, 1), (11, 12, 4, -1)),
    ]
    multipliers = [(11, 1), (13, -1), (6, -1), (2, 1), (1, -1)]
    return groups, multipliers


def test_bridged_diamond_identity(bridged_diamonds):
    I = hibi_ideal(bridged_diamonds)
    groups, multipliers = _l_groups(I)
    assert len(groups) == 5
    for g in groups:
        assert apply_phi(module_vec_row(g), I) == {}
    n = bridged_diamonds.n
    rhs = {}
    for (v, sign), g in zip(multipliers, groups):
        mono = tuple(1 if k == v - 1 else 0 for k in range(n))
        rhs = vec_add(rhs, vec_mul_term(g, mono, sign))
    d = typed_generator(I, "D", (1, 2, 10, 11))
    assert vec_is_zero(vec_sub(rhs, d.element))


def test_bridged_diamond_identity_flipped_sign_fails(bridged_diamonds):
    # with +1 on the third multiplier instead of -1 the combination misses
    # the diamond element by exactly twice that group
    I = hibi_ideal(bridged_diamonds)
    groups, multipliers = _l_groups(I)
    multipliers = list(multipliers)
    multipliers[2] = (6, 1)
    n = bridged_diamonds.n
    rhs = {}
    for (v, sign), g in zip(multipliers, groups):
        mono = tuple(1 if k == v - 1 else 0 for k in range(n))
        rhs = vec_add(rhs, vec_mul_term(g, mono, sign))
    d = typed_generator(I, "D", (1, 2, 10, 11))
    diff = vec_sub(rhs, d.element)
    x6 = tuple(1 if k == 5 else 0 for k in range(n))
    assert vec_is_zero(vec_sub(diff, vec_mul_term(groups[2], x6, 2)))


# -- property tests ------------------------------------------------------------


@given(st.sampled_from([L for L in CENSUS if len(L.incomparable_pairs()) >= 2]))
@settings(max_examples=25, deadline=None)
def test_typed_generators_homogeneous(L):
    I = hibi_ideal(L)
    for t in all_typed_generators(I):
        degs = {p.degree() for p in t.element.values()}
        assert len(degs) == 1
        assert degs <= {1, 2}
        for p in t.element.values():
            assert p.is_homogeneous()


@given(st.sampled_from(CENSUS), st.data())
@settings(max_examples=30, deadline=None)
def test_classification_is_symmetric(L, data):
    pairs = L.incomparable_pairs()
    if len(pairs) < 2:
        return
    p1 = data.draw(st.sampled_from(pairs))
    p2 = data.draw(st.sampled_from([p for p in pairs if p != p1]))
    assert classify_pair(L, p1, p2) == classify_pair(L, p2, p1)
