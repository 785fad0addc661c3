import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_certificate, standard_form
from hibiring import enumerate_distributive, from_covers, grid
from hibiring.errors import NotGroebner
from hibiring.ideal import (
    CertificateReport,
    Rewriting,
    buchberger_check,
    hibi_ideal,
    to_json_dict,
    to_macaulay2,
    to_singular,
)
from hibiring.polynomials import mono_div

CENSUS = list(enumerate_distributive(8))


def chain(k):
    return from_covers([str(i) for i in range(k)], [(i, i + 1) for i in range(k - 1)])


def test_chain_empty_ideal():
    I = hibi_ideal(chain(4))
    assert len(I) == 0
    report = buchberger_check(I)
    assert (report.pairs_checked, report.pairs_skipped) == (0, 0)


def test_grid_1_2_generators():
    I = hibi_ideal(grid(1, 2))
    texts = [I.render(r) for r in I.relations]
    assert texts == ["x2*x3-x1*x4", "x2*x5-x1*x6", "x4*x5-x3*x6"]
    assert [r.pair for r in I.relations] == [(1, 2), (1, 4), (3, 4)]


def test_grid_2_3_generators():
    I = hibi_ideal(grid(2, 3))
    expected = {
        "x2*x3-x1*x5", "x2*x6-x1*x8", "x2*x9-x1*x11", "x3*x4-x1*x7",
        "x4*x5-x2*x7", "x4*x6-x1*x10", "x4*x8-x2*x10", "x4*x9-x1*x12",
        "x4*x11-x2*x12", "x5*x6-x3*x8", "x5*x9-x3*x11", "x6*x7-x3*x10",
        "x7*x8-x5*x10", "x7*x9-x3*x12", "x7*x11-x5*x12", "x8*x9-x6*x11",
        "x9*x10-x6*x12", "x10*x11-x8*x12",
    }
    assert {I.render(r) for r in I.relations} == expected
    assert len(I) == 18


def test_generator_lookup():
    I = hibi_ideal(grid(1, 2))
    assert I.generator(1, 2).index == 0
    assert I.generator(2, 1).index == 0


def test_leading_monomial_is_incomparable_product():
    for L in CENSUS:
        I = hibi_ideal(L)
        for r in I.relations:
            a, b = r.pair
            assert I.order.max((r.pair, r.jm)) == (a, b)


def test_binomial_shape():
    """Each relation is the unit binomial x_a x_b - x_{a&b} x_{a|b} of degree
    2, its monomials sorted variable tuples."""
    for L in CENSUS:
        I = hibi_ideal(L)
        for r in I.relations:
            a, b = r.pair
            jm = tuple(sorted((L.meet[a][b], L.join[a][b])))
            assert (r.pair, r.jm) == ((a, b), jm)
            assert list(r.pair) == sorted(r.pair) and list(r.jm) == sorted(r.jm)
            assert len(r.pair) == len(r.jm) == 2


def test_buchberger_census():
    for L in CENSUS:
        buchberger_check(hibi_ideal(L))


def test_buchberger_grids():
    # (checked, skipped, most terms of a checked S-polynomial, passed): only
    # pairs whose leads share a variable are reduced
    pinned = {(3, 3): (176, 454, 2, True), (4, 4): (900, 4050, 2, True),
              (5, 5): (3200, 22000, 2, True), (6, 6): (9065, 87955, 2, True)}
    for (m, n) in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (4, 4), (5, 5),
                   (6, 6)]:
        I = hibi_ideal(grid(m, n))
        report = buchberger_check(I)
        assert report.passed
        assert report.pairs_checked + report.pairs_skipped == len(I) * (len(I) - 1) // 2
        if (m, n) in pinned:
            assert report == CertificateReport(*pinned[(m, n)])


def test_buchberger_failure_detected():
    I = hibi_ideal(grid(1, 2))
    # corrupt one tail so the basis is no longer a Groebner basis
    I.relations[0] = I.relations[0]._replace(jm=(5, 5))
    with pytest.raises(NotGroebner):
        buchberger_check(I)


def test_buchberger_failure_with_changed_lead():
    I = hibi_ideal(grid(1, 2))
    bad = I.relations[0]._replace(jm=(0, 0))
    assert I.order.max((bad.pair, bad.jm)) == (0, 0)
    I.relations[0] = bad
    # x1^2 is coprime to both other leads, so the first criterion settles
    # those pairs; the failure shows on the one pair whose leads share x5
    with pytest.raises(NotGroebner) as info:
        buchberger_check(I)
    assert info.value.pair == ((1, 4), (3, 4))


def test_reducedness():
    """No tail monomial of any generator is divisible by another generator's
    leading monomial."""
    for L in CENSUS:
        I = hibi_ideal(L)
        leads = [I.order.max((r.pair, r.jm)) for r in I.relations]
        for r in I.relations:
            lead = I.order.max((r.pair, r.jm))
            for m in (r.pair, r.jm):
                if m != lead:
                    assert all(mono_div(m, lm) is None for lm in leads)


def test_normal_form_rewrites():
    I = hibi_ideal(grid(1, 2))
    rewriting = Rewriting(I)

    def nf(*xs):
        return standard_form(rewriting, tuple(sorted(v - 1 for v in xs)))
    assert nf(2, 3) == nf(1, 4) == (0, 3)
    assert nf(1) == (0,)
    out = nf(2, 5, 4)
    # fully rewritten: no monomial divisible by any incomparable product
    leads = [I.order.max((r.pair, r.jm)) for r in I.relations]
    assert all(mono_div(out, lm) is None for lm in leads)
    assert out == nf(1, 6, 4)
    # u - v reduces to zero exactly when both rewrite to one monomial
    assert rewriting.meets((1, 3, 4), (0, 3, 5))
    assert not rewriting.meets((1, 3, 4), (0, 1, 5))


def test_macaulay2_export():
    s = to_macaulay2(hibi_ideal(grid(1, 2)))
    assert s.startswith("R = QQ[x_1..x_6];")
    assert "x_2*x_3-x_1*x_4" in s
    assert s.rstrip().endswith("betti res I")


def test_macaulay2_zero_ideal():
    s = to_macaulay2(hibi_ideal(chain(3)))
    assert "ideal(0_R)" in s


def test_singular_export():
    s = to_singular(hibi_ideal(grid(1, 2)), 32003)
    assert s.startswith("ring r = 32003, x(1..6), dp;")
    assert "x(2)*x(3)-x(1)*x(4)" in s


def test_json_export():
    d = to_json_dict(hibi_ideal(grid(1, 2)))
    assert d["field"] == "QQ"
    assert [g["text"] for g in d["generators"]] == [
        "x2*x3-x1*x4", "x2*x5-x1*x6", "x4*x5-x3*x6"]


def test_certificate_matches_general_reference():
    """buchberger_check equals the general reference (S-polynomials divided
    by scan, conftest) on census <= 9 and grid 2x3, clean and with seeded
    corruptions of one relation's (meet, join) monomial: the same report, or
    NotGroebner on the same pair."""
    def outcome(check, I):
        try:
            return check(I)
        except NotGroebner as exc:
            return exc.pair
    start = time.perf_counter()
    rng = random.Random(26)
    failed = 0
    for L in list(enumerate_distributive(9)) + [grid(2, 3)]:
        I = hibi_ideal(L)
        assert outcome(buchberger_check, I) == outcome(reference_certificate, I)
        for _ in range(4 if len(I) else 0):
            J = hibi_ideal(L)
            k = rng.randrange(len(J))
            jm = tuple(sorted(rng.choices(range(L.n), k=2)))
            if jm == J.relations[k].pair:
                continue
            J.relations[k] = J.relations[k]._replace(jm=jm)
            got = outcome(buchberger_check, J)
            assert got == outcome(reference_certificate, J)
            failed += not isinstance(got, CertificateReport)
    assert failed > 50
    assert time.perf_counter() - start < 2


@given(st.sampled_from(CENSUS))
@settings(max_examples=36, deadline=None)
def test_relation_count_matches_pairs(L):
    assert len(hibi_ideal(L)) == len(L.incomparable_pairs())
