from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    BRIDGED_GROUPS,
    BRIDGED_MULTIPLIERS,
    bridged_combination,
    combine,
    divide_row,
    position_key,
    relation_poly,
    row,
    s_vector,
    schreyer_key,
    schreyer_pair,
    signs,
)
from hibiring import enumerate_distributive, grid
from hibiring.errors import ConditionViolated, HibiError
from hibiring.ideal import hibi_ideal
from hibiring.oracle import RowSpan, fiber_codes, kernel_dim
from hibiring.polynomials import mono_mul
from hibiring.syzygy import (
    apply_phi,
    classify_full,
    diamond_reducible,
    iter_typed_generators,
    typed_generator,
)

CENSUS = list(enumerate_distributive(8))


# -- Schreyer pairs ------------------------------------------------------------


def test_schreyer_pair_is_syzygy():
    for L in CENSUS:
        I = hibi_ideal(L)
        for i in range(len(I)):
            for j in range(i + 1, len(I)):
                assert apply_phi(schreyer_pair(i, j, I), I) == {}


def test_schreyer_pairs_span_kernel():
    for L in CENSUS:
        I = hibi_ideal(L)
        if len(I) < 2:
            continue
        rows = [schreyer_pair(i, j, I)
                for i in range(len(I)) for j in range(i + 1, len(I))]
        # Schreyer's generators span all syzygies; in particular all of
        # degrees 3 and 4 graded by total degree
        deg3 = [r for r in rows
                if len(next(iter(r))[0]) == 1]
        assert RowSpan(deg3).rank == kernel_dim(I, 3)


def test_schreyer_pair_rejects_fractional_quotient(monkeypatch):
    """Quotient coefficients are converted to integers exactly: a fraction
    raises instead of being truncated or scaled away."""
    I = hibi_ideal(grid(1, 2))
    half = {(0,): Fraction(1, 2)}
    monkeypatch.setattr(conftest, "divide_by_scan",
                        lambda s, polys, order: ([half, {}, {}], {}))
    with pytest.raises(HibiError, match="not a whole number"):
        schreyer_pair(0, 1, I)


def test_schreyer_order_leading_terms():
    I = hibi_ideal(grid(1, 2))
    key = schreyer_key(I)
    # x1*e0 vs x1*e1: in(x1*g0) = x1x2x3 > x1x2x5 = in(x1*g1), since lower
    # lattice elements are larger variables
    assert key(((0,), 0)) > key(((0,), 1))
    # same component: ring order decides
    assert key(((0,), 0)) > key(((2,), 0))
    assert key(((0,), 0)) == key(((0,), 0))


# -- classification ------------------------------------------------------------


def test_classify_grid_1_2():
    L = grid(1, 2)
    pairs = L.incomparable_pairs()
    assert pairs == [(1, 2), (1, 4), (3, 4)]
    assert classify_full(L, (1, 2), (1, 4))[0] == "strip"
    assert classify_full(L, (1, 4), (3, 4))[0] == "strip"
    assert classify_full(L, (1, 2), (3, 4))[0] == "D"


def test_classify_same_pair_rejected():
    L = grid(1, 2)
    with pytest.raises(HibiError):
        classify_full(L, (1, 2), (1, 2))


def test_classification_histogram_grid_2_3():
    I = hibi_ideal(grid(2, 3))
    counts = {}
    for t in iter_typed_generators(I):
        counts[t.kind] = counts.get(t.kind, 0) + 1
    # one S1 and one S2 per strip witness, though two diamond pairs give each
    assert counts == {"S1": 18, "S2": 18, "L": 8, "B1": 8, "B2": 8,
                      "G": 4, "D": 97}


def test_shared_corner_families(shared_corner, shared_corner_dual):
    L = shared_corner
    assert classify_full(L, (7, 5), (7, 9))[0] == "G3"
    assert classify_full(shared_corner_dual, (7, 5), (7, 9))[0] == "G4"
    I = hibi_ideal(L)
    # the swapped witness satisfies the G6 profile on the same lattice
    g6 = typed_generator(I, "G6", (7, 9, 5))
    assert apply_phi(g6.row, I) == {}
    g3 = typed_generator(I, "G3", (7, 5, 9))
    assert apply_phi(g3.row, I) == {}
    g4 = typed_generator(hibi_ideal(shared_corner_dual), "G4", (7, 5, 9))
    assert apply_phi(g4.row, hibi_ideal(shared_corner_dual)) == {}


def test_condition_violated(shared_corner):
    """The message names the kind, the witness labels and the configuration
    the witness has, or says it is not two diamonds on a."""
    I = hibi_ideal(grid(1, 2))
    not_two = r"is not two diamonds \(a, b1\), \(a, b2\) with b2 not below b1$"
    with pytest.raises(ConditionViolated,
                       match=r"^S1 witness \(2, 5, 3\) " + not_two):
        typed_generator(I, "S1", (1, 4, 2))  # needs b1 below b2
    with pytest.raises(ConditionViolated,
                       match=r"^L witness \(1, 2, 3\) " + not_two):
        typed_generator(I, "L", (0, 1, 2))
    with pytest.raises(ConditionViolated, match=r"^G1 witness \(2, 3, 5\) "
                                                r"is a strip configuration$"):
        typed_generator(I, "G1", (1, 2, 4))
    with pytest.raises(ConditionViolated,
                       match="^witness violates: four distinct elements$"):
        typed_generator(I, "D", (1, 2, 1, 4))
    # read the other way round, a G3 witness is a G6 configuration
    with pytest.raises(ConditionViolated, match=r"^G3 witness \(7, 9, 5\) "
                                                r"is a G6 configuration$"):
        typed_generator(hibi_ideal(shared_corner), "G3", (7, 9, 5))


# The conditions each shared-element kind puts on its witness (a, b1, b2),
# written out kind by kind as a reference for typed_generator, which reads
# them off the family of the witness.  The profile bits are (b1 <= a|b2,
# b1 >= a&b2, b2 <= a|b1, b2 >= a&b1).
_REFERENCE_PROFILE = {
    "B1": (True, True, False, False), "B2": (True, True, False, False),
    "G1": (False, True, False, True), "G2": (True, False, True, False),
    "G3": (True, False, False, False), "G4": (False, True, False, False),
    "G5": (False, False, False, True), "G6": (False, False, True, False),
    "G": (False, False, False, False)}


def _reference_conditions(L, kind, a, b1, b2):
    j, m = L.join, L.meet
    if not (L.incomparable(a, b1) and L.incomparable(a, b2) and b1 != b2):
        return False
    if kind in ("S1", "S2", "L"):
        return (L.le(b1, b2) and j[a][b1] != j[a][b2]
                and (m[a][b1] == m[a][b2]) == (kind != "L"))
    return L.incomparable(b1, b2) and _REFERENCE_PROFILE[kind] == (
        L.le(b1, j[a][b2]), L.le(m[a][b2], b1),
        L.le(b2, j[a][b1]), L.le(m[a][b1], b2))


def test_typed_generator_accepts_as_the_reference_conditions(
        shared_corner, shared_corner_dual):
    """typed_generator accepts a shared-element witness exactly when the
    kind's own conditions hold, on every (kind, witness) of census <= 8 and
    grid 2x3 (165,252 cases, 117 accepted) and of the shared-corner lattice
    and its dual, which have every G kind (52,728 cases, 176 accepted)."""
    cases = accepted = 0
    for L in CENSUS + [grid(2, 3), shared_corner, shared_corner_dual]:
        I = hibi_ideal(L)
        for kind in ("S1", "S2", "L", *_REFERENCE_PROFILE):
            for w in product(range(L.n), repeat=3):
                try:
                    typed_generator(I, kind, w)
                    ok = True
                except ConditionViolated:
                    ok = False
                assert ok == _reference_conditions(L, kind, *w), (kind, w)
                cases += 1
                accepted += ok
    assert (cases, accepted) == (165252 + 52728, 117 + 176)


def test_unknown_kind():
    with pytest.raises(HibiError):
        typed_generator(hibi_ideal(grid(1, 2)), "Z9", (1, 2, 3))


# -- typed generators: phi = 0 and completeness --------------------------------


def test_typed_generators_are_syzygies():
    for L in CENSUS:
        I = hibi_ideal(L)
        for t in iter_typed_generators(I):
            assert apply_phi(t.row, I) == {}


def _phi_reference(row, I):
    """phi of a row by the general reference: sum of c * mu * relation_i,
    term by term, as {sorted variables: coefficient}, zeros dropped."""
    total = {}
    for (mu, i), c in row.items():
        for m, s in relation_poly(I.relations[i]).items():
            m = mono_mul(mu, m)
            total[m] = total.get(m, 0) + c * s
    return {m: c for m, c in total.items() if c}


def test_integer_phi_matches_polynomial_reference():
    """The integer phi equals the reference image on every typed row of
    census <= 8 and grid 2x3 (both empty), and on each row with one sign
    flipped (both nonempty)."""
    for L in CENSUS + [grid(2, 3)]:
        I = hibi_ideal(L)
        for t in iter_typed_generators(I):
            assert apply_phi(t.row, I) == _phi_reference(t.row, I) == {}
            for key in t.row:
                flipped = dict(t.row)
                flipped[key] = -flipped[key]
                image = apply_phi(flipped, I)
                assert image and image == _phi_reference(flipped, I)


@pytest.mark.parametrize("power", [3, 6])
def test_integer_phi_on_shifted_rows(power):
    """The integer phi equals the reference image on the typed rows of grid
    2x3 shifted by x_v**power, for each variable v of the row: degrees 6-7
    and 9-10, empty as shifted and nonempty with one sign flipped.  An
    exponent reaches power + 2 there, so a digit base fitted to the unshifted
    degree would carry into the next variable and the flipped images would
    differ."""
    I = hibi_ideal(grid(2, 3))
    for t in iter_typed_generators(I):
        for v in {v for mu, _ in t.row for v in mu}:
            shifted = {(tuple(sorted(mu + (v,) * power)), i): c
                       for (mu, i), c in t.row.items()}
            assert apply_phi(shifted, I) == _phi_reference(shifted, I) == {}
            key = next(iter(shifted))
            flipped = {**shifted, key: -shifted[key]}
            image = apply_phi(flipped, I)
            assert image and image == _phi_reference(flipped, I)


def test_typed_span_equals_kernel_census():
    for L in CENSUS:
        I = hibi_ideal(L)
        gens = list(iter_typed_generators(I))
        deg3 = [t.row for t in gens if len(next(iter(t.row))[0]) == 1]
        assert RowSpan(deg3).rank == kernel_dim(I, 3)


def _typed_generators_reference(I):
    """Every typed generator, built the two-pass way: classify every pair of
    diamonds, deduplicate all classifications with dict.fromkeys, then build
    each family's kinds in order, dropping rows that vanish."""
    pairs = [r.pair for r in I.relations]
    classified = dict.fromkeys(classify_full(I.lattice, p, q)
                               for k, p in enumerate(pairs)
                               for q in pairs[k + 1:])
    fines = {"strip": ("S1", "S2"), "box": ("B1", "B2")}
    built = (typed_generator(I, fine, witness)
             for family, witness in classified
             for fine in fines.get(family, (family,)))
    return [t for t in built if t.row]


@pytest.mark.parametrize("lattices", [
    CENSUS, [grid(m, n) for m in (1, 2, 3) for n in range(m, 4)]],
    ids=["census8", "grids3x3"])
def test_iter_typed_generators_matches_reference(lattices):
    """The one-pass iterator yields the (kind, witness, row) sequence of
    classifying every pair first and deduplicating all classifications."""
    for L in lattices:
        I = hibi_ideal(L)
        expected = _typed_generators_reference(I)
        got = iter_typed_generators(I)
        assert iter(got) is got  # a stream, not a list
        assert list(got) == expected


def test_strip_pair_matches_worked_example():
    I = hibi_ideal(grid(1, 2))
    s1 = typed_generator(I, "S1", (1, 2, 4))  # witness a=x2, b1=x3, b2=x5
    s2 = typed_generator(I, "S2", (1, 2, 4))
    expected1 = row(I, (2, 3, 5, 1), (2, 5, 3, -1), (4, 5, 1, 1))
    expected2 = row(I, (2, 3, 6, -1), (2, 5, 4, 1), (4, 5, 2, -1))
    assert s1.row in signs(expected1)
    assert s2.row in signs(expected2)


def test_degenerate_terms_drop_out():
    # on some lattices a formula references a comparable auxiliary pair; the
    # corresponding relation is zero and the element still satisfies phi = 0,
    # and a row left empty is not yielded
    for L in CENSUS:
        I = hibi_ideal(L)
        for t in iter_typed_generators(I):
            assert t.row
            assert apply_phi(t.row, I) == {}


# -- diamond reducibility -----------------------------------------------------


def test_diamond_reducible(stacked_diamonds, bridged_diamonds):
    # the bridged pair reduces through a diamond whose meet and join lie in
    # the lower and upper diamonds
    assert diamond_reducible(bridged_diamonds, (1, 2), (10, 11))
    # stacked diamonds with nothing in between do not
    assert not diamond_reducible(stacked_diamonds, (1, 2), (4, 5))


def test_diamond_reducible_matches_bridge_scan(census_to_twelve):
    """The indexed lookup agrees with a scan of every incomparable pair for a
    bridge, its meet in the lower diamond and its join in the upper one, with
    an element on the spine, on every comparable pair of the census up to 12
    elements.  The spine, the elements comparable to both j = join(lo) and
    m = meet(hi), is written here as those below j, above m or in [j, m]."""
    checked = 0
    for L in census_to_twelve:
        pairs = L.incomparable_pairs()
        for lo, hi in L.comparable_pairs():
            j, m = L.join[lo[0]][lo[1]], L.meet[hi[0]][hi[1]]
            spine = {v for v in range(L.n)
                     if L.le(v, j) or L.le(m, v) or L.le(j, v) and L.le(v, m)}
            scan = any(L.meet[a][b] in lo and L.join[a][b] in hi
                       and (a in spine or b in spine) for a, b in pairs)
            assert diamond_reducible(L, lo, hi) == scan
            checked += 1
    assert checked == 708


# -- the non-Groebner remark ---------------------------------------------------


def test_strip_pair_not_groebner_in_module():
    """The two strip generators of grid(1,2) are not a Groebner basis of the
    syzygy module they generate: their S-vector does not reduce to zero
    against them under the position-over-term order."""
    I = hibi_ideal(grid(1, 2))
    s1 = typed_generator(I, "S1", (1, 2, 4)).row
    s2 = typed_generator(I, "S2", (1, 2, 4)).row
    key = position_key(I)
    # both lead on their shared third component
    assert max(s1, key=key)[1] == max(s2, key=key)[1] == 2
    s = s_vector(s1, s2, key)
    assert s
    quotients, remainder = divide_row(s, [s1, s2], key)
    assert remainder
    # the S-vector is itself irreducible: nothing was subtracted at all
    assert quotients == [{}, {}]
    assert remainder == s


def test_strip_pair_s_vector_value():
    I = hibi_ideal(grid(1, 2))
    s1 = typed_generator(I, "S1", (1, 2, 4)).row
    s2 = typed_generator(I, "S2", (1, 2, 4)).row
    s = s_vector(s1, s2, position_key(I))
    # (x2 x5 - x1 x6) e_0 + (x1 x4 - x2 x3) e_1
    assert s == {((1, 4), 0): 1, ((0, 5), 0): -1,
                 ((1, 2), 1): -1, ((0, 3), 1): 1}
    assert apply_phi(s, I) == {}


def test_true_schreyer_leads_differ():
    """Under the order induced by the ring leading monomials, the two strip
    generators lead on different components, so no S-vector is defined."""
    I = hibi_ideal(grid(1, 2))
    s1 = typed_generator(I, "S1", (1, 2, 4)).row
    s2 = typed_generator(I, "S2", (1, 2, 4)).row
    key = schreyer_key(I)
    assert max(s1, key=key)[1] != max(s2, key=key)[1]
    with pytest.raises(HibiError):
        s_vector(s1, s2, key)


# -- row division invariants ---------------------------------------------------


def test_divide_row_reconstruction():
    I = hibi_ideal(grid(2, 2))
    gens = [t.row for t in iter_typed_generators(I) if t.kind in ("S1", "S2")]
    target = combine((gens[0], (0,), 1), (gens[-1], (), 1))
    quotients, remainder = divide_row(target, gens, schreyer_key(I))
    rebuilt = combine((remainder, (), 1),
                      *[(g, nu, c) for q, g in zip(quotients, gens)
                        for nu, c in q.items()])
    assert rebuilt == target


def test_divide_row_zero_input():
    quotients, remainder = divide_row({}, [], schreyer_key(hibi_ideal(grid(1, 1))))
    assert quotients == [] and remainder == {}


# -- the bridged-diamond identity ---------------------------------------------


def test_bridged_diamond_identity(bridged_diamonds):
    I = hibi_ideal(bridged_diamonds)
    groups = [row(I, *terms) for terms in BRIDGED_GROUPS]
    assert len(groups) == 5
    for g in groups:
        assert apply_phi(g, I) == {}
    d = typed_generator(I, "D", (1, 2, 10, 11))
    assert bridged_combination(groups, BRIDGED_MULTIPLIERS) == d.row


def test_bridged_diamond_identity_flipped_sign_fails(bridged_diamonds):
    # with +1 on the third multiplier instead of -1 the combination misses
    # the diamond element by exactly twice that group
    I = hibi_ideal(bridged_diamonds)
    groups = [row(I, *terms) for terms in BRIDGED_GROUPS]
    multipliers = list(BRIDGED_MULTIPLIERS)
    multipliers[2] = (6, 1)
    rhs = bridged_combination(groups, multipliers)
    d = typed_generator(I, "D", (1, 2, 10, 11))
    assert rhs != d.row
    assert rhs == combine((d.row, (), 1), (groups[2], (5,), 2))


# -- property tests ------------------------------------------------------------


def test_typed_generators_homogeneous():
    """Every typed row is multihomogeneous, on all of census <= 8: its columns
    (mu, i) share one degree len(mu) + 2, 3 or 4, and one fiber, the code of
    mu * x_a x_b for (a, b) the pair of relation i."""
    checked = 0
    for L in CENSUS:
        I = hibi_ideal(L)
        pairs = [r.pair for r in I.relations]
        codes = {d: fiber_codes(L, d) for d in (3, 4)}
        for t in iter_typed_generators(I):
            degrees = {len(mu) + 2 for mu, _ in t.row}
            assert len(degrees) == 1 and degrees <= {3, 4}
            code = codes[degrees.pop()]
            fibers = {sum(code[v] for v in mu + pairs[i]) for mu, i in t.row}
            assert len(fibers) == 1
            checked += 1
    assert checked > 0


@given(st.sampled_from(CENSUS), st.data())
@settings(max_examples=30, deadline=None)
def test_classification_is_symmetric(L, data):
    pairs = L.incomparable_pairs()
    if len(pairs) < 2:
        return
    p1 = data.draw(st.sampled_from(pairs))
    p2 = data.draw(st.sampled_from([p for p in pairs if p != p1]))
    assert classify_full(L, p1, p2)[0] == classify_full(L, p2, p1)[0]
