"""First syzygies of the diamond relations.

A syzygy is an integer row {(mu, i): c} over the columns mu * e_i, mu a
sorted tuple of variables (the row format of oracle); apply_phi substitutes
each e_i by its binomial and sums in integers.

This module constructs the named typed generators attached to pairs of
diamonds: strip (S1/S2), L, box (B1/B2), the G family (G1..G6, G) for pairs
of diamonds sharing an element, and the Koszul diamond type D for
element-disjoint pairs.  classify_full decides which family a pair of
diamonds falls into from its relation profile, and iter_typed_generators
builds every family's generators in one pass.
"""

from typing import NamedTuple

from .errors import ConditionViolated, HibiError, InconsistentProfile, NotASyzygy


def apply_phi(row, ideal):
    """phi of an integer row {(mu, i): c}: the sum of c * mu * relation_i, as
    {monomial: coefficient} over sorted variable tuples, zeros dropped.  A row
    is a syzygy exactly when its image is empty.

    The image is summed over monomials written as one int each, a digit per
    variable in a base one above the row's degree (HibiIdeal.term_codes).  No
    exponent reaches the base, so two monomials share a code only when they
    are equal.  Only the nonzero entries are decoded to sorted tuples.
    """
    if not row:
        return {}
    base = 3 + max([len(mu) for mu, _ in row])
    units, codes = ideal.term_codes(base)
    image = {}
    get = image.get
    for (mu, i), c in row.items():
        shift = 0
        for v in mu:
            shift += units[v]
        for code, sign in codes[i]:
            code += shift
            image[code] = get(code, 0) + sign * c
    return {_decode(code, base): c for code, c in image.items() if c}


def _decode(code, base):
    """The sorted variable tuple whose base-`base` digits are code."""
    mono = []
    v = 0
    while code:
        code, e = divmod(code, base)
        mono += [v] * e
        v += 1
    return tuple(mono)


# -- pair classification -------------------------------------------------------


# relation profile bits (r1, r2, r3, r4) for a shared-element pair with
# incomparable b1, b2: r1 = b1 <= a|b2, r2 = b1 >= a&b2, r3 = b2 <= a|b1,
# r4 = b2 >= a&b1; True means the comparison holds, False means incomparable.
# Swapping b1 and b2 swaps (r1, r2) with (r3, r4): G3 with G6, G4 with G5,
# and box with box-swapped, the box read with its b's the other way round.
_INCOMPARABLE_TABLE = {
    (False, False, False, False): "G",
    (False, False, False, True): "G5",
    (False, False, True, False): "G6",
    (False, False, True, True): "box-swapped",
    (False, True, False, False): "G4",
    (False, True, False, True): "G1",
    (True, False, False, False): "G3",
    (True, False, True, False): "G2",
    (True, True, False, False): "box",
}


def _family(L, a, b1, b2):
    """The family of the diamonds (a, b1) and (a, b2), read in that order,
    or None when they are not two distinct diamonds on a or when b2 < b1.
    With b1 < b2 and equal joins with a, not equal meets, it is strip-dual:
    a strip whose generators are built on the witness (b1, a & b2, a)."""
    if not (L.incomparable(a, b1) and L.incomparable(a, b2)):
        return None
    j, m = L.join, L.meet
    if L.incomparable(b1, b2):
        bits = (L.le(b1, j[a][b2]), L.le(m[a][b2], b1),
                L.le(b2, j[a][b1]), L.le(m[a][b1], b2))
        family = _INCOMPARABLE_TABLE.get(bits)
        if family is None:
            raise InconsistentProfile(
                f"profile {bits} for elements ({L.labels[a]},{L.labels[b1]},"
                f"{L.labels[b2]}) matches no family")
        return family
    if L.le(b2, b1):
        return None
    joins_equal = j[a][b1] == j[a][b2]
    meets_equal = m[a][b1] == m[a][b2]
    if joins_equal and meets_equal:
        raise InconsistentProfile(
            "equal joins and meets force equal elements in a distributive lattice")
    if joins_equal:
        return "strip-dual"
    return "strip" if meets_equal else "L"


def classify_full(L, p1, p2):
    """(kind, witness): the family of the typed generators for two diamonds.

    The witness is the canonical element tuple the typed formulas plug into:
    (a, b1, b2) for shared-element families, (a1, b1, a2, b2) for D.
    """
    if p1 == p2:
        raise HibiError("the two diamonds must be distinct")
    shared = set(p1) & set(p2)
    if not shared:
        return "D", (*p1, *p2)
    a = next(iter(shared))
    b1 = p1[0] if p1[1] == a else p1[1]
    b2 = p2[0] if p2[1] == a else p2[1]
    # b1 before b2: by index when incomparable, in the lattice otherwise
    if b2 < b1 if L.incomparable(b1, b2) else L.le(b2, b1):
        b1, b2 = b2, b1
    family = _family(L, a, b1, b2)
    if family == "box-swapped":
        return "box", (a, b2, b1)
    if family == "strip-dual":
        return "strip", (b1, L.meet[a][b2], a)
    return family, (a, b1, b2)


# -- typed generators -----------------------------------------------------------


class TypedSyzygy(NamedTuple):
    """A typed generator as an integer row {(mu, i): coefficient}: the column
    mu * e_i, mu a sorted tuple of variables (oracle's row keys)."""
    kind: str
    row: dict
    witness: tuple


# Every kind with its histogram family, in the order the minimal histogram
# admits them (betti.typed_minimal_histogram).
KINDS = {"S1": "strip", "S2": "strip", "L": "L", "B1": "box", "B2": "box",
         "G1": "G", "G2": "G", "G3": "G", "G4": "G", "G5": "G", "G6": "G",
         "G": "G", "D": "diamond"}
FINE_KINDS = tuple(KINDS)

# the kinds of strip and box; every other family is the one kind of its name
_SPLIT = {"strip": ("S1", "S2"), "box": ("B1", "B2")}

# The terms of each shared-element kind on its witness (a, b1, b2), given the
# join j and meet m: (x, y, v, sign) is sign * x_v * e_{(x, y)}, e_{(x, y)}
# the basis vector of the relation of the pair {x, y}.
_TERMS = {
    "S1": lambda a, b1, b2, j, m: (
        (a, b1, b2, -1), (a, b2, b1, 1), (b2, j(a, b1), m(a, b1), -1)),
    "S2": lambda a, b1, b2, j, m: (
        (a, b1, j(a, b2), 1), (a, b2, j(a, b1), -1), (b2, j(a, b1), a, 1)),
    "L": lambda a, b1, b2, j, m: (
        (a, b1, b2, -1), (a, b2, b1, 1), (b1, m(a, b2), j(a, b2), 1),
        (b2, j(a, b1), m(a, b1), -1)),
    "B1": lambda a, b1, b2, j, m: (
        (a, b1, b2, -1), (a, b2, b1, 1), (b2, m(a, b1), j(a, b1), -1),
        (j(a, b1), j(b1, b2), m(a, b2), -1)),
    "B2": lambda a, b1, b2, j, m: (
        (a, b2, b1, -1), (b1, b2, a, 1), (a, m(b1, b2), j(b1, b2), 1),
        (j(a, b1), j(b1, b2), m(a, b2), 1)),
    "G1": lambda a, b1, b2, j, m: (
        (a, b1, b2, 1), (a, b2, b1, -1), (b1, j(a, b2), m(a, b1), -1),
        (b2, j(a, b1), m(a, b1), 1)),
    "G2": lambda a, b1, b2, j, m: (
        (a, b1, b2, 1), (a, b2, b1, -1), (b1, m(a, b2), j(a, b1), -1),
        (b2, m(a, b1), j(a, b1), 1)),
    "G3": lambda a, b1, b2, j, m: (
        (a, b1, b2, 1), (a, b2, b1, -1), (b1, m(a, b2), j(a, b2), -1),
        (b2, m(a, b1), j(a, b1), 1),
        (j(a, b1), j(b1, b2), m(m(a, b1), b2), 1)),
    "G4": lambda a, b1, b2, j, m: (
        (a, b1, b2, 1), (a, b2, b1, -1), (b2, j(a, b1), m(a, b1), 1),
        (b1, j(a, b2), m(a, b2), -1),
        (m(a, b1), m(b1, b2), j(j(a, b1), b2), 1)),
    "G5": lambda a, b1, b2, j, m: (
        (a, b1, b2, 1), (a, b2, b1, -1), (b1, m(a, b2), j(a, b2), -1),
        (b2, j(a, b1), m(a, b1), 1),
        (j(b1, m(a, b2)), j(a, b2), m(a, b1), -1)),
    "G6": lambda a, b1, b2, j, m: (
        (a, b1, b2, 1), (a, b2, b1, -1), (b1, m(a, b2), j(a, b2), -1),
        (b2, m(a, b1), j(a, b1), 1),
        (j(a, b2), j(b1, b2), m(m(a, b1), b2), -1)),
    "G": lambda a, b1, b2, j, m: (
        (a, b1, b2, 1), (a, b2, b1, -1), (b1, m(a, b2), j(a, b2), -1),
        (b2, m(a, b1), j(a, b1), 1),
        (j(b1, m(a, b2)), j(a, b2), m(m(a, b1), b2), -1),
        (j(b2, m(a, b1)), j(a, b1), m(m(a, b1), b2), 1)),
}


def _require(cond, name):
    if not cond:
        raise ConditionViolated(f"witness violates: {name}")


def typed_generator(ideal, kind, witness):
    """The named first-syzygy element of the given kind on the given witness.

    A shared-element witness (a, b1, b2) is accepted when kind is one of the
    kinds of _family(L, a, b1, b2); a D witness when it is two
    element-disjoint incomparable pairs.  Raises ConditionViolated otherwise,
    and NotASyzygy when the result fails phi = 0.
    """
    L = ideal.lattice
    if kind not in KINDS:
        raise HibiError(f"unknown kind {kind!r}")
    if kind == "D":
        a1, b1, a2, b2 = witness
        _require(len({a1, b1, a2, b2}) == 4, "four distinct elements")
        _require(L.incomparable(a1, b1), "a1 incomparable to b1")
        _require(L.incomparable(a2, b2), "a2 incomparable to b2")
        f1 = ideal.generator(a1, b1)
        f2 = ideal.generator(a2, b2)
        i1, i2 = f1.index, f2.index
        row = {(f2.pair, i1): 1, (f2.jm, i1): -1,
               (f1.pair, i2): -1, (f1.jm, i2): 1}
    else:
        a, b1, b2 = witness
        family = _family(L, a, b1, b2)
        if kind not in _SPLIT.get(family, (family,)):
            labels = ", ".join(L.labels[v] for v in witness)
            raise ConditionViolated(f"{kind} witness ({labels}) is " + (
                f"a {family} configuration" if family else
                "not two diamonds (a, b1), (a, b2) with b2 not below b1"))
        index_of = ideal.index_of
        row = {}
        j = lambda x, y: L.join[x][y]
        m = lambda x, y: L.meet[x][y]
        for x, y, v, sign in _TERMS[kind](*witness, j, m):
            i = index_of.get((x, y) if x < y else (y, x))
            if i is None:
                # the auxiliary pair collapsed to a comparable one; its
                # relation is the zero polynomial, so the term contributes
                # nothing
                continue
            key = ((v,), i)
            row[key] = row.get(key, 0) + sign
        row = {k: c for k, c in row.items() if c}
    if apply_phi(row, ideal):
        raise NotASyzygy(kind, witness, [L.labels[v] for v in witness])
    return TypedSyzygy(kind, row, witness)


def iter_typed_generators(ideal):
    """The typed generators of every pair of diamonds, classified and built
    in one pass over the pairs in relation order, each phi-checked where it
    is built (typed_generator).

    Each (family, witness) is built once, at its first pair: a strip pair and
    its dual configuration share a witness.  Only shared-element witnesses
    can repeat, so only they enter the seen-set; a D witness is its own pair
    of relations.  When an auxiliary pair a formula references collapses to
    a comparable one, its relation is identically zero and the term drops
    out.

    No row comes out empty.  A D row has four distinct nonzero entries: its
    two relations differ, and each relation's pair differs from its jm.
    Every shared-element kind in _TERMS has one term on the relation of
    (a, b2), a pair of incomparable elements since the witness is two
    diamonds on a, so that term never collapses.  No other term of the kind
    is on that relation: every other term's pair is (a, b1) or (b1, b2), or
    holds an element that is none of a, b1, b2.  Such an element is a | b_k
    or a & b_k, which is not a, since b_k and a are incomparable, and no
    b_i, since a | b_k = b_i would put a <= b_i and a & b_k = b_i would put
    b_i <= a.  Or it is b1 & b2, in B2: not b1 or b2, since a box has b1
    and b2 incomparable, and not a, which is incomparable to b1.  So the
    coefficient of that term survives.
    """
    L = ideal.lattice
    pairs = [r.pair for r in ideal.relations]
    seen = set()
    for k, p in enumerate(pairs):
        for q in pairs[k + 1:]:
            family, witness = fw = classify_full(L, p, q)
            if family != "D":
                if fw in seen:
                    continue
                seen.add(fw)
            for kind in _SPLIT.get(family, (family,)):
                yield typed_generator(ideal, kind, witness)


# -- diamond reducibility -----------------------------------------------------


def diamond_reducible(L, lo, hi):
    """Whether the diamond-type syzygy of a comparable pair of diamonds is a
    combination of the shared-element typed generators.

    (lo, hi) must be a comparable pair as Lattice.comparable_pairs lists it:
    two incomparable pairs with j = join(lo) <= m = meet(hi), hence
    element-disjoint with lo the lower one.  This is not checked.

    A bridge of the pair is an incomparable pair (a, b) with its meet in lo
    and its join in hi; the spine is the set of elements comparable to both
    j and m.  The pair is called reducible iff some bridge has a or b on the
    spine.  That is a conjecture, not a theorem: on every comparable pair of
    the planar lattices of at most 12 elements (587 pairs) it says reducible
    exactly when the pair's degree-4 fiber has H~_1 = 0
    (tests/test_betti.py::test_diamond_criteria_pair_by_pair).  The proof
    would show that a bridge element on the spine fills that fiber's cycle
    (the fiber's complex is never a cone: oracle module docstring), and that
    with no such bridge the cycle survives.  A bridge alone is not enough:
    13 of those pairs have a bridge and H~_1 = 1.

    The bridges are looked up in Lattice.diamonds, the incomparable pairs by
    (meet, join), at the four (x, y) with x in lo and y in hi.
    """
    join, diamonds = L.join, L.diamonds()
    j, m = join[lo[0]][lo[1]], L.meet[hi[0]][hi[1]]
    # v is comparable to j exactly when v | j is v or j
    with_j, with_m = join[j], join[m]
    for x in lo:
        for y in hi:
            for bridge in diamonds.get((x, y), ()):
                for v in bridge:
                    if with_j[v] in (v, j) and with_m[v] in (v, m):
                        return True
    return False
