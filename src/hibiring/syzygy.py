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


def _cross_relations(L, a, b1, b2):
    j, m = L.join, L.meet
    return (L.le(b1, j[a][b2]), L.le(m[a][b2], b1),
            L.le(b2, j[a][b1]), L.le(m[a][b1], b2))


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
    if L.incomparable(b1, b2):
        if b2 < b1:
            b1, b2 = b2, b1
        bits = _cross_relations(L, a, b1, b2)
        kind = _INCOMPARABLE_TABLE.get(bits)
        if kind is None:
            raise InconsistentProfile(
                f"profile {bits} for elements ({L.labels[a]},{L.labels[b1]},"
                f"{L.labels[b2]}) matches no family")
        if kind == "box-swapped":
            return "box", (a, b2, b1)
        return kind, (a, b1, b2)
    # comparable side elements: normalize b1 <= b2
    if L.le(b2, b1):
        b1, b2 = b2, b1
    joins_equal = L.join[a][b1] == L.join[a][b2]
    meets_equal = L.meet[a][b1] == L.meet[a][b2]
    if joins_equal and meets_equal:
        raise InconsistentProfile(
            "equal joins and meets force equal elements in a distributive lattice")
    if joins_equal:
        # dual strip configuration: relabel to the standard strip witness
        return "strip", (b1, L.meet[a][b2], a)
    if meets_equal:
        return "strip", (a, b1, b2)
    return "L", (a, b1, b2)


# -- typed generators -----------------------------------------------------------


class TypedSyzygy(NamedTuple):
    """A typed generator as an integer row {(mu, i): coefficient}: the column
    mu * e_i, mu a sorted tuple of variables (oracle's row keys)."""
    kind: str
    row: dict
    witness: tuple


FINE_KINDS = ("S1", "S2", "L", "B1", "B2",
              "G1", "G2", "G3", "G4", "G5", "G6", "G", "D")

_FAMILY_TO_FINE = {"strip": ("S1", "S2"), "L": ("L",), "box": ("B1", "B2"),
                   "G1": ("G1",), "G2": ("G2",), "G3": ("G3",), "G4": ("G4",),
                   "G5": ("G5",), "G6": ("G6",), "G": ("G",), "D": ("D",)}

# the relation profile each incomparable-side kind (B1, B2, G1..G6, G) requires
_PROFILE_OF_FINE = {fine: bits for bits, family in _INCOMPARABLE_TABLE.items()
                    for fine in _FAMILY_TO_FINE.get(family, ())}

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


def _check_conditions(L, kind, witness):
    if kind == "D":
        a1, b1, a2, b2 = witness
        _require(len({a1, b1, a2, b2}) == 4, "four distinct elements")
        _require(L.incomparable(a1, b1), "a1 incomparable to b1")
        _require(L.incomparable(a2, b2), "a2 incomparable to b2")
        return
    a, b1, b2 = witness
    j, m = L.join, L.meet
    _require(L.incomparable(a, b1), "a incomparable to b1")
    _require(L.incomparable(a, b2), "a incomparable to b2")
    _require(b1 != b2, "b1 distinct from b2")
    if kind in ("S1", "S2"):
        _require(L.le(b1, b2), "b1 below b2")
        _require(j[a][b1] != j[a][b2], "joins differ")
        _require(m[a][b1] == m[a][b2], "meets equal")
        return
    if kind == "L":
        _require(L.le(b1, b2), "b1 below b2")
        _require(j[a][b1] != j[a][b2], "joins differ")
        _require(m[a][b1] != m[a][b2], "meets differ")
        return
    _require(L.incomparable(b1, b2), "b1 incomparable to b2")
    names = ("b1 vs a|b2", "b1 vs a&b2", "b2 vs a|b1", "b2 vs a&b1")
    for got, expect, name in zip(_cross_relations(L, a, b1, b2),
                                 _PROFILE_OF_FINE[kind], names):
        _require(got == expect, f"{name} relation ({'comparable' if expect else 'incomparable'} expected)")


def typed_generator(ideal, kind, witness):
    """The named first-syzygy element of the given kind on the given witness.

    Raises ConditionViolated when the witness fails the kind's defining
    relations, and NotASyzygy when the result fails phi = 0.
    """
    L = ideal.lattice
    if kind not in FINE_KINDS:
        raise HibiError(f"unknown kind {kind!r}")
    _check_conditions(L, kind, witness)
    if kind == "D":
        a1, b1, a2, b2 = witness
        f1 = ideal.generator(a1, b1)
        f2 = ideal.generator(a2, b2)
        i1, i2 = f1.index, f2.index
        row = {(f2.pair, i1): 1, (f2.jm, i1): -1,
               (f1.pair, i2): -1, (f1.jm, i2): 1}
    else:
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


def _family_generators(ideal, family, witness):
    """The typed generators of a classified family on its witness.

    When an auxiliary pair a formula references collapses to a comparable
    one, its relation is identically zero and the term drops out; an element
    that degenerates to zero entirely is omitted.
    """
    gens = (typed_generator(ideal, f, witness) for f in _FAMILY_TO_FINE[family])
    return [t for t in gens if t.row]


def iter_typed_generators(ideal):
    """The typed generators of every pair of diamonds, classified and built
    in one pass over the pairs in relation order, each phi-checked where it
    is built (typed_generator).

    Each (family, witness) is built once, at its first pair: a strip pair and
    its dual configuration share a witness.  Only shared-element witnesses
    can repeat, so only they enter the seen-set; a D witness is its own pair
    of relations.
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
            yield from _family_generators(ideal, family, witness)


# -- diamond reducibility -----------------------------------------------------


def diamond_reducible(L, lo, hi):
    """Whether the diamond-type syzygy of a comparable pair of diamonds is a
    combination of the shared-element typed generators.

    (lo, hi) must be a comparable pair as Lattice.comparable_pairs lists it:
    two incomparable pairs with join(lo) <= meet(hi), hence element-disjoint
    with lo the lower one.  This is not checked.  The pair is called
    reducible iff some diamond (a, b) bridges it: its meet is an element of
    lo and its join an element of hi.  That is too generous: on the planar
    lattices of at most 12 elements it calls 13 pairs reducible whose
    degree-4 fiber still carries a minimal syzygy
    (tests/test_betti.py::test_diamond_criteria_pair_by_pair).
    """
    diamonds = L.diamonds()
    return any((x, y) in diamonds for x in lo for y in hi)
