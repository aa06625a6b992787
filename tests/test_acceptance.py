"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion re-derives its expected values through routes independent of
the code under test wherever the contract calls for it, and asserts a wall
clock budget so the suite stays honest about scan sizes.
"""
import time
from contextlib import contextmanager
from fractions import Fraction

from binomsum.dsl import parse_document, serialize_document
from binomsum.exact import binomial as C
from binomsum.hyperterm import TermDocument, eval_term
from binomsum.pairs import builtin_document_names, builtin_document_text, \
    builtin_pair, builtin_pair_names
from binomsum.polyalg import BivarPoly
from binomsum.verify import RATIO_IDENTITIES, check_divisibility, \
    check_divisibility_valuations, eval_sum, iter_sums, lemma22_point, \
    lemma23_point, lemma24_scan, lemma25_scan, lemma26_ineq_scan, \
    lemma26_point, ratio_identity, ratio_k_values
from binomsum.wz import telescope_audit, wz_grid_rows, wz_symbolic_check


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    within = elapsed < limit_seconds
    status = "PASS" if within else "FAIL"
    print(f"criterion {number}: {status} - {description} "
          f"({elapsed:.1f}s of {limit_seconds:.0f}s budget)")
    assert within, f"criterion {number} took {elapsed:.1f}s"


def _divisible_scan(name: str, kind: str, n_max: int) -> None:
    recurrence = dict(iter_sums(name, n_max))
    for n in range(2, n_max + 1):
        result = check_divisibility(name, kind, n)
        assert result.ok, (name, n, result.remainder)
        assert result.value == recurrence[n], (name, n)


def test_criterion_1_first_quintic_sum_strong_divisibility():
    with criterion(1, "alternating quintic-central sum divisible by "
                      "2n^2*C(2n,n)^2 for n <= 200", 30):
        _divisible_scan("guillera1", "strong", 200)
        assert eval_sum("guillera1", 2) == -3168
        assert check_divisibility("guillera1", "strong", 2).quotient == -11
        assert check_divisibility("guillera1", "strong", 3).quotient == 1907


def test_criterion_2_second_quartic_sum_strong_divisibility():
    with criterion(2, "positive quartic-central sum divisible by "
                      "2n^2*C(2n,n)^2 for n <= 200", 30):
        _divisible_scan("guillera2", "strong", 200)
        assert eval_sum("guillera2", 2) == 211680
        assert check_divisibility("guillera2", "strong", 2).quotient == 735


def test_criterion_3_five_cubic_sums_weak_divisibility():
    with criterion(3, "five cubic-central sums divisible by 2n*C(2n,n) "
                      "for n <= 200", 30):
        spots = {"sun_a": 1, "sun_b": 2, "sun_c": 13, "sun_d": -19,
                 "sun_e": 869}
        for name, q in spots.items():
            _divisible_scan(name, "weak", 200)
            assert check_divisibility(name, "weak", 2).quotient == q


def test_criterion_4_pair_difference_grid_and_symbolic():
    with criterion(4, "pair difference identity on the k <= n <= 60 grid, "
                      "symbolically, and under perturbation", 60):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            rows = wz_grid_rows(pair, range(1, 61))
            checked = sum(c for c, _, _ in rows)
            violations = [v for _, vs, _ in rows for v in vs]
            skipped = [s for _, _, ss in rows for s in ss]
            assert checked == 60 * 61 // 2
            assert not violations and not skipped
            ok, residual, _ = wz_symbolic_check(pair)
            assert ok and residual.render() == "0"

        pair1 = builtin_pair("guillera1")
        f, g = pair1.f.term, pair1.g.term
        lhs = eval_term(f, 1, 0) - eval_term(f, 1, 1)
        rhs = eval_term(g, 2, 1) - eval_term(g, 1, 1)
        assert lhs == rhs == Fraction(-209, 128)

        # changing a single factor of the companion must flip the verdict
        bad_term = g._replace(numer_poly=BivarPoly({(3, 0): 3}))
        bad_doc = TermDocument(name=pair1.g.name, term=bad_term)
        bad_pair = pair1._replace(g=bad_doc)
        flipped, residual, _ = wz_symbolic_check(bad_pair)
        assert not flipped and not residual.is_zero()


def test_criterion_5_telescoping_audits_match_sums():
    with criterion(5, "scaled telescoping audits pass for 2 <= N <= 60 and "
                      "reproduce the partial sums", 60):
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            for big_n in range(2, 61):
                audit = telescope_audit(pair, big_n)
                assert audit.ok, (name, big_n)
                assert all(part.ok for _, part in audit.g_terms)
                assert audit.g_sum.ok and audit.corner.ok
                assert audit.conclusion.value == eval_sum(pair.name, big_n)


def test_criterion_6_supporting_divisibility_lemmas():
    with criterion(6, "supporting quotient/valuation lemmas over their "
                      "full scan ranges", 120):
        for n in range(1, 201):
            for k in range(0, n + 1):
                assert lemma22_point(n, k).ok, (n, k)

        assert lemma23_point(3).division.quotient == 675
        for n in range(2, 501):
            assert lemma23_point(n).ok, n

        audit = lemma25_scan(200)
        assert audit.ok and audit.checked == 200 * 201 // 2

        for n in range(1, 301):
            assert lemma26_point(n).ok, n
        ineq = lemma26_ineq_scan(200)
        assert ineq.ok and not ineq.violations


def test_criterion_7_eight_floor_inequality_boundaries():
    with criterion(7, "eight-floor inequality: boundary violations located, "
                      "restricted regions clean to m <= 200", 120):
        default = lemma24_scan(2)
        assert not default.ok
        assert [(r.m, r.n, r.k, r.margin)
                for r in default.violations] == [(2, 1, 1, -1)]

        ranged = lemma24_scan(2, full_range=3)
        found = {(r.m, r.n, r.k): r.margin for r in ranged.violations}
        assert found[(2, 1, 1)] == -1
        assert found[(2, 3, 1)] == -1

        assert lemma24_scan(200, region="k0").ok
        assert lemma24_scan(200, region="case3a").ok


def test_criterion_8_scaled_term_closed_forms():
    with criterion(8, "closed forms for scaled pair terms hold for "
                      "2 <= N <= 100 at all admissible k", 60):
        assert ratio_identity("g1_col1", 2).lhs == 9
        assert ratio_identity("f1_corner", 2).lhs == -20
        assert ratio_identity("catalan_split", 3).lhs == 14
        assert ratio_identity("g1_gen", 3, 2).lhs == -2800
        assert ratio_identity("g2_gen", 2, 1).lhs == 315
        assert ratio_identity("f2_corner", 2).lhs == 420
        for identity in RATIO_IDENTITIES:
            for big_n in range(2, 101):
                k_range = ratio_k_values(identity, big_n)
                if k_range is None:
                    assert ratio_identity(identity, big_n).equal, \
                        (identity, big_n)
                else:
                    for k in k_range:
                        assert ratio_identity(identity, big_n, k).equal, \
                            (identity, big_n, k)


def _hand_formula(name: str, n: int, k: int) -> Fraction:
    if name == "guillera1.F":
        return (Fraction(-1) ** (n + k) * Fraction(4) ** (-6 * n + 2 * k)
                * C(2 * n, n) ** 3 * C(2 * n + 2 * k, n + k)
                * C(2 * n - 2 * k, n - k) * C(n + k, n - k)
                * Fraction(20 * n * n - 12 * n * k + 8 * n - 2 * k + 1,
                           C(2 * k, k)))
    if name == "guillera1.G":
        return (Fraction(-1) ** (n + k) * Fraction(16) ** (-3 * n + k + 1)
                * C(2 * n, n) ** 3 * C(2 * n + 2 * k, n + k)
                * C(2 * n - 2 * k, n - k) * C(n + k, n - k)
                * Fraction(2 * n ** 3, C(2 * k, k) * (2 * n + 2 * k - 1)))
    if name == "guillera2.F":
        return (Fraction(16) ** (-4 * n + k) * C(2 * n, n) ** 3
                * C(4 * n + 2 * k, 2 * n + k) * C(2 * n + k, n)
                * C(n + k, 2 * k) * C(n, k)
                * Fraction(120 * n * n - 84 * n * k + 34 * n - 10 * k + 3,
                           C(2 * k, k) ** 2))
    if name == "guillera2.G":
        return (Fraction(2) ** (-16 * n + 4 * k + 10) * C(2 * n, n) ** 3
                * C(n, k) * C(n + k, n - k) * C(2 * n + k - 1, n - 1)
                * C(4 * n + 2 * k - 2, 2 * n + k - 1)
                * Fraction(n * n, C(2 * k, k) ** 2))
    raise AssertionError(name)


def test_criterion_9_term_documents_parse_eval_round_trip():
    with criterion(9, "all four built-in term documents parse, match their "
                      "formulas at 20 points, and round-trip", 30):
        names = builtin_document_names()
        assert len(names) == 4
        points = [(n, k) for n in range(1, 6) for k in range(0, n + 1)]
        assert len(points) == 20
        for name in names:
            text = builtin_document_text(name)
            doc = parse_document(text)
            assert doc.name == name
            for n, k in points:
                assert eval_term(doc.term, n, k) == _hand_formula(name, n, k), \
                    (name, n, k)
            assert serialize_document(doc) == text
