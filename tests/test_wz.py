from fractions import Fraction

import pytest

from binomsum.cli import main
from binomsum.dsl import parse_document
import binomsum.hyperterm as hyperterm_module
import binomsum.wz as wz_module
from binomsum.hyperterm import BaseFactor, BinomFactor, HypergeometricTerm, \
    LinearForm, NotProportionalError, TermDocument, TermEvalError, \
    eval_term, term_quotient
from binomsum.pairs import SUM_SPECS, WZPairSpec, builtin_pair, \
    builtin_pair_names
from binomsum.polyalg import BivarPoly
from binomsum.verify import _summand, eval_sum
from binomsum.wz import telescope_audit, telescope_audits, wz_certificate, \
    wz_grid_row, wz_grid_rows, wz_symbolic_check


def test_builtin_pair_names():
    assert builtin_pair_names() == ["guillera1", "guillera2"]


def _grid_totals(pair: WZPairSpec, n_max: int) -> tuple[int, list, list]:
    """(points checked, violations, skipped) over 1 <= k <= n <= n_max."""
    rows = wz_grid_rows(pair, range(1, n_max + 1))
    return (sum(checked for checked, _, _ in rows),
            [v for _, violations, _ in rows for v in violations],
            [s for _, _, skipped in rows for s in skipped])


def test_grid_check_clean_small():
    for name in builtin_pair_names():
        checked, violations, skipped = _grid_totals(builtin_pair(name), 20)
        assert violations == []
        assert skipped == []
        assert checked == sum(n for n in range(1, 21))


def test_grid_row_matches_difference_identity():
    pair = builtin_pair("guillera1")
    f, g = pair.f.term, pair.g.term
    checked, violations, skipped = wz_grid_row(pair, 4)
    assert (checked, violations, skipped) == (4, [], [])
    for k in range(1, 5):
        lhs = eval_term(f, 4, k - 1) - eval_term(f, 4, k)
        rhs = eval_term(g, 5, k) - eval_term(g, 4, k)
        assert lhs == rhs


def test_first_pair_point_value():
    pair = builtin_pair("guillera1")
    f, g = pair.f.term, pair.g.term
    lhs = eval_term(f, 1, 0) - eval_term(f, 1, 1)
    rhs = eval_term(g, 2, 1) - eval_term(g, 1, 1)
    assert lhs == rhs == Fraction(-209, 128)


def test_symbolic_check_both_pairs():
    for name in builtin_pair_names():
        pair = builtin_pair(name)
        ok, residual, certificate = wz_symbolic_check(pair)
        assert ok
        assert residual.is_zero()
        assert residual.render() == "0"
        assert certificate == wz_certificate(pair)


def test_certificates_render_canonically():
    cert1 = wz_certificate(builtin_pair("guillera1"))
    assert cert1.render() == (
        "(40*n^3+16*n^2*k-4*n^2-24*n*k^2+24*n*k-6*n-4*k^2+4*k-1)/(32*n^3)")
    assert cert1.evaluate(2, 1) == Fraction(355, 256)
    cert2 = wz_certificate(builtin_pair("guillera2"))
    assert cert2.render() == (
        "(480*n^3-96*n^2*k+16*n^2-168*n*k^2+112*n*k-22*n-20*k^2+16*k-3)"
        "/(512*n^3)")


def _perturb_g_poly(pair: WZPairSpec, poly: BivarPoly) -> WZPairSpec:
    g_term = pair.g.term._replace(numer_poly=poly)
    g_doc = TermDocument(name=pair.g.name, term=g_term, note=pair.g.note)
    return pair._replace(g=g_doc)


def test_single_factor_perturbation_flips_symbolic_result():
    pair = builtin_pair("guillera1")
    bad = _perturb_g_poly(pair, BivarPoly({(3, 0): 3}))  # 2n^3 -> 3n^3
    ok, residual, _ = wz_symbolic_check(bad)
    assert not ok
    assert not residual.is_zero()


def test_perturbation_also_breaks_the_grid():
    pair = builtin_pair("guillera2")
    bad = _perturb_g_poly(pair, BivarPoly({(2, 0): 3}))  # n^2 -> 3n^2
    _, violations, _ = _grid_totals(bad, 6)
    assert violations


def test_non_proportional_pair_raises():
    f_doc = builtin_pair("guillera1").f
    g_doc = builtin_pair("guillera2").g
    mismatched = WZPairSpec(name="mixed", f=f_doc, g=g_doc,
                            scale_base=-4096, divisor_kind="strong")
    with pytest.raises(NotProportionalError):
        wz_symbolic_check(mismatched)


def test_telescope_audit_first_pair_small():
    audit = telescope_audit(builtin_pair("guillera1"), 2)
    assert audit.ok
    assert audit.divisor == 288
    assert audit.scale_exp == 1
    assert audit.g_sum.quotient == 9
    assert audit.corner.quotient == -20
    assert audit.conclusion.quotient == -11

    audit3 = telescope_audit(builtin_pair("guillera1"), 3)
    assert audit3.ok
    assert audit3.divisor == 7200
    assert audit3.conclusion.quotient == 1907
    assert audit3.g_terms[0][1].value == 675 * 7200


def test_telescope_audit_second_pair_small():
    audit = telescope_audit(builtin_pair("guillera2"), 2)
    assert audit.ok
    assert audit.g_sum.quotient == 315
    assert audit.corner.quotient == 420
    assert audit.conclusion.quotient == 735


def test_telescope_conclusion_matches_sum_route():
    for name in builtin_pair_names():
        pair = builtin_pair(name)
        for big_n in range(2, 13):
            audit = telescope_audit(pair, big_n)
            assert audit.ok
            assert audit.conclusion.value == eval_sum(pair.name, big_n)


# The telescope concludes with B^(N-1) * sum(F(n, 0) for n < N), which is
# the sum S(N) of the same name exactly when F(n, 0) * B^n = t(n), its
# summand, for every n >= 0.  Both sides are hypergeometric in n, so their
# term_quotient proves that link once it is the constant 1.

def _at_k0(form: LinearForm) -> LinearForm:
    return LinearForm(form.a, 0, form.c)


def _scaled_k0_row(pair: WZPairSpec) -> HypergeometricTerm:
    """F(n, 0) * B^n as a term in n alone: k = 0 in every linear form of F,
    its polynomials without their k-monomials, and the base B^n."""
    f = pair.f.term
    return HypergeometricTerm(
        _at_k0(f.sign_exponent),
        tuple(BaseFactor(base, _at_k0(e)) for base, e in f.base_factors)
        + (BaseFactor(pair.scale_base, LinearForm(1, 0, 0)),),
        tuple(BinomFactor(_at_k0(top), _at_k0(bottom), power)
              for top, bottom, power in f.binom_factors),
        *(BivarPoly({(i, 0): c for (i, j), c in poly.items() if j == 0})
          for poly in (f.numer_poly, f.denom_poly)))


def _summand_term(spec) -> HypergeometricTerm:
    """t(n), the summand of spec at k = n, as a term in n."""
    c2, c1, c0 = spec.coeff
    return HypergeometricTerm(
        binom_factors=tuple(BinomFactor(LinearForm(a, 0, a0),
                                        LinearForm(b, 0, b0), p)
                            for (a0, a), (b0, b), p in spec.binomials),
        numer_poly=BivarPoly({(2, 0): c2, (1, 0): c1, (0, 0): c0}))


@pytest.mark.parametrize("name", builtin_pair_names())
def test_k0_row_times_base_power_is_the_summand_for_all_n(name):
    pair, spec = builtin_pair(name), SUM_SPECS[name]
    row, summand = _scaled_k0_row(pair), _summand_term(spec)
    # the proof: the quotient of the two terms is the constant 1 ...
    assert term_quotient(row, summand) == 1
    # ... on a domain where both are products of factorials of arguments
    # >= 0 for every n >= 0, with polynomials that do not vanish there
    for term in (row, summand):
        for top, bottom, _ in term.binom_factors:
            for form in (top, bottom, top - bottom):
                assert form.b == 0 and form.a >= 0 and form.c >= 0, form
    assert row.denom_poly == 1
    assert min(spec.coeff) >= 0 and spec.coeff[2] > 0
    # the same link along a second, numeric route
    for n in range(40):
        assert eval_term(pair.f.term, n, 0) * pair.scale_base ** n \
            == eval_term(row, n, 0) == eval_term(summand, n, 0) \
            == _summand(spec, n)


def _c1_plus_one(pair, spec):
    c2, c1, c0 = spec.coeff
    return pair, spec._replace(coeff=(c2, c1 + 1, c0))


def _f_n_coefficient_plus_one(pair, spec):
    f = pair.f.term
    poly = f.numer_poly + BivarPoly({(1, 0): 1})
    return pair._replace(f=pair.f._replace(
        term=f._replace(numer_poly=poly))), spec


def _entry_replaced(old, new):
    def plant(pair, spec):
        assert old in spec.binomials
        return pair, spec._replace(binomials=tuple(
            new if entry == old else entry for entry in spec.binomials))
    return plant


@pytest.mark.parametrize("name,plant,match", [
    ("guillera1", _c1_plus_one, None),
    ("guillera2", _c1_plus_one, None),
    ("guillera1", _f_n_coefficient_plus_one, None),
    ("guillera2", _entry_replaced(((0, 4), (0, 2), 1), ((1, 4), (0, 2), 1)),
     None),                                            # C(4k+1, 2k)
    ("guillera2", _entry_replaced(((0, 2), (0, 1), 4), ((0, 2), (0, 1), 3)),
     r"slope \(1,0\) do not cancel"),                  # C(2k, k)^3
    ("guillera1", lambda pair, spec: (
        pair._replace(scale_base=2 * pair.scale_base), spec),
     "base 2 carries a non-constant exponent n"),
    ("guillera2", lambda pair, spec: (
        pair._replace(scale_base=-pair.scale_base), spec),
     "sign exponent n is not constant"),
], ids=["g1-c1", "g2-c1", "g1-f-poly", "g2-quad-top", "g2-central-power", "g1-double-base",
        "g2-flip-base"])
def test_k0_link_proof_fails_on_each_planted_fault(name, plant, match):
    pair, spec = plant(builtin_pair(name), SUM_SPECS[name])
    row, summand = _scaled_k0_row(pair), _summand_term(spec)
    if match is None:
        assert term_quotient(row, summand) != 1
    else:
        with pytest.raises(NotProportionalError, match=match):
            term_quotient(row, summand)


def _telescoped_equation_holds(audit) -> bool:
    """The scaled sum of F(n, 0) over n < N equals the scaled G sum of row
    N plus the scaled corner F(N-1, N-1)."""
    return audit.conclusion.value == audit.g_sum.value + audit.corner.value


def test_telescoped_equation_holds_and_breaks_under_perturbation():
    perturbed = {"guillera1": BivarPoly({(3, 0): 3}),   # 2n^3 -> 3n^3
                 "guillera2": BivarPoly({(2, 0): 3})}   # n^2 -> 3n^2
    for name in builtin_pair_names():
        pair = builtin_pair(name)
        bad = _perturb_g_poly(pair, perturbed[name])
        for big_n in range(2, 25):
            assert _telescoped_equation_holds(telescope_audit(pair, big_n))
            assert not _telescoped_equation_holds(telescope_audit(bad, big_n))


def test_telescope_parts_are_g_values():
    pair = builtin_pair("guillera1")
    big_n = 5
    audit = telescope_audit(pair, big_n)
    scale = pair.scale_base ** (big_n - 1)
    assert [k for k, _ in audit.g_terms] == list(range(1, big_n))
    for k, part in audit.g_terms:
        assert part.value == scale * eval_term(pair.g.term, big_n, k)
    assert audit.corner.value == scale * eval_term(pair.f.term,
                                                   big_n - 1, big_n - 1)


def test_telescope_weak_divisor_override():
    audit = telescope_audit(builtin_pair("guillera1"), 3,
                            divisor_kind="weak")
    assert audit.divisor == 120
    assert audit.ok


def test_telescope_requires_n_at_least_two():
    with pytest.raises(ValueError):
        telescope_audit(builtin_pair("guillera1"), 1)


@pytest.mark.parametrize("big_ns", [range(0, 12), range(1, 12),
                                    range(7, 20), range(5, 5)])
def test_k0_prefix_sums_equal_the_summed_terms(monkeypatch, big_ns):
    for name in builtin_pair_names():
        term = builtin_pair(name).f.term
        calls = []
        real = hyperterm_module.eval_term_pair

        def counting(t, n, k):
            calls.append((n, k))
            return real(t, n, k)

        monkeypatch.setattr(hyperterm_module, "eval_term_pair", counting)
        got = list(hyperterm_module.k0_prefix_sums(term, big_ns))
        monkeypatch.undo()
        assert [Fraction(*pair) for pair in got] == [
            sum((eval_term(term, n, 0) for n in range(big_n)), Fraction(0))
            for big_n in big_ns]
        # Each term(n, 0) below the last N once, from n = 0; none if empty.
        assert calls == ([(n, 0) for n in range(big_ns.stop - 1)]
                         if big_ns else [])


@pytest.mark.parametrize("big_ns", [range(2, 9, 2), range(-1, 4)])
def test_k0_prefix_sums_reject_bad_ranges(big_ns):
    term = builtin_pair("guillera1").f.term
    with pytest.raises(ValueError):
        list(hyperterm_module.k0_prefix_sums(term, big_ns))


@pytest.mark.parametrize("name", ["guillera1", "guillera2"])
def test_telescope_audits_whole_or_split_equal_single_audits(name):
    pair = builtin_pair(name)
    single = [telescope_audit(pair, big_n) for big_n in range(2, 31)]
    for audit in single:
        n = audit.big_n
        assert audit.ok
        assert audit.conclusion.value == pair.scale_base ** (n - 1) * sum(
            eval_term(pair.f.term, j, 0) for j in range(n))
    assert list(telescope_audits(pair, range(2, 31))) == single
    for cut in range(3, 31):
        assert (list(telescope_audits(pair, range(2, cut)))
                + list(telescope_audits(pair, range(cut, 31)))) == single
    with pytest.raises(ValueError):
        list(telescope_audits(pair, range(2, 9, 2)))


def test_telescope_pole_in_conclusion_propagates():
    f_doc = parse_document("term p.F\npoly 1\ndenompoly n+k-3\nend\n")
    pair = WZPairSpec(name="pole", f=f_doc, g=builtin_pair("guillera1").g,
                      scale_base=2, divisor_kind="strong")
    with pytest.raises(TermEvalError) as pole:
        eval_term(f_doc.term, 3, 0)
    for big_n in (5, 3, 4, 6):
        audit = telescope_audit(pair, big_n)
        if big_n > 3:
            assert isinstance(audit.conclusion, TermEvalError)
            assert str(audit.conclusion) == str(pole.value)
            assert audit.failure == ("conclusion", audit.conclusion)
        else:
            assert audit.conclusion.value == 4 * (Fraction(-1, 3)
                                                  + Fraction(-1, 2) - 1)


def test_telescope_undefined_entries_fail_in_order():
    # G is undefined on all of row 4; F at (2, 2), the corner of N = 3,
    # and at (4, 0), in the conclusion of every N >= 5.
    f_doc = parse_document("term u.F\npoly 1\ndenompoly n+k-4\nend\n")
    g_doc = parse_document("term u.G\npoly 1\ndenompoly n-4\nend\n")
    pair = WZPairSpec(name="undefined", f=f_doc, g=g_doc, scale_base=2,
                      divisor_kind="strong")
    vanishes = "denominator polynomial vanishes at "
    expected = {3: ("corner", vanishes + "(n=2, k=2)"),
                4: ("g_term_k1", vanishes + "(n=4, k=1)"),
                5: ("conclusion", vanishes + "(n=4, k=0)"),
                6: ("conclusion", vanishes + "(n=4, k=0)")}
    for audits in ([telescope_audit(pair, n) for n in range(3, 7)],
                   list(telescope_audits(pair, range(3, 7))),
                   [*telescope_audits(pair, range(3, 5)),
                    *telescope_audits(pair, range(5, 7))]):
        for audit in audits:
            label, entry = audit.failure
            assert isinstance(entry, TermEvalError)
            assert (label, str(entry)) == expected[audit.big_n]
            assert not audit.ok
    row4 = telescope_audit(pair, 4)
    assert row4.g_sum is row4.g_terms[0][1]
    assert row4.corner.integral  # F(3, 3) = 1/2, scaled by 8


# guillera1 with F and G each multiplied by a removable factor: F by
# (k-5)(k-6)/((k-5)(k-6)) and G by (k-3)/(k-3). The pair still telescopes
# wherever it is defined, and the grid meets both poles.
SKIP_PAIR_F = """term s.F
sign (-1)^(n+k)
base 4^(-6*n+2*k)
factor binom(2*n,n)^3
factor binom(2*n+2*k,n+k)
factor binom(2*n-2*k,n-k)
factor binom(n+k,n-k)
factor binom(2*k,k)^-1
poly 20*n^2*k^2-220*n^2*k+600*n^2-12*n*k^3+140*n*k^2-448*n*k+240*n-2*k^3+23*k^2-71*k+30
denompoly k^2-11*k+30
end
"""

SKIP_PAIR_G = """term s.G
sign (-1)^(n+k)
base 16^(-3*n+k+1)
factor binom(2*n,n)^3
factor binom(2*n+2*k,n+k)
factor binom(2*n-2*k,n-k)
factor binom(n+k,n-k)
factor binom(2*k,k)^-1
poly 2*n^3*k-6*n^3
denompoly 2*n*k-6*n+2*k^2-7*k+3
end
"""

SKIP_PAIR_CSV = r'''check,params,status,witness
wzcheck,"{""mode"":""grid"",""n_max"":7,""pair"":""skips""}",pass,"{""points"":""17"",""skipped"":""11"",""violations"":""0""}"
wzcheck,"{""k"":3,""mode"":""grid"",""n"":3,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=4, k=3)""}"
wzcheck,"{""k"":3,""mode"":""grid"",""n"":4,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=5, k=3)""}"
wzcheck,"{""k"":3,""mode"":""grid"",""n"":5,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=6, k=3)""}"
wzcheck,"{""k"":5,""mode"":""grid"",""n"":5,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=5, k=5)""}"
wzcheck,"{""k"":3,""mode"":""grid"",""n"":6,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=7, k=3)""}"
wzcheck,"{""k"":5,""mode"":""grid"",""n"":6,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=6, k=5)""}"
wzcheck,"{""k"":6,""mode"":""grid"",""n"":6,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=6, k=5)""}"
wzcheck,"{""k"":3,""mode"":""grid"",""n"":7,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=8, k=3)""}"
wzcheck,"{""k"":5,""mode"":""grid"",""n"":7,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=7, k=5)""}"
wzcheck,"{""k"":6,""mode"":""grid"",""n"":7,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=7, k=5)""}"
wzcheck,"{""k"":7,""mode"":""grid"",""n"":7,""pair"":""skips""}",skipped,"{""reason"":""denominator polynomial vanishes at (n=7, k=6)""}"
'''


@pytest.fixture
def skip_pair_dir(tmp_path):
    pair_dir = tmp_path / "skips"
    pair_dir.mkdir()
    (pair_dir / "s.F").write_text(SKIP_PAIR_F, "utf-8")
    (pair_dir / "s.G").write_text(SKIP_PAIR_G, "utf-8")
    return pair_dir


def test_grid_row_skip_reasons_follow_evaluation_order(skip_pair_dir):
    pair = WZPairSpec(
        name="skips",
        f=parse_document((skip_pair_dir / "s.F").read_text("utf-8")),
        g=parse_document((skip_pair_dir / "s.G").read_text("utf-8")),
        scale_base=-4096, divisor_kind="strong")
    # k=3: G(n+1,3) fails first; k=5: F(n,5); k=6: F(n,5) again as
    # F(n,k-1) although F(n,6) fails too; k=7: F(n,6) as F(n,k-1).
    assert wz_grid_row(pair, 7) == (3, [], [
        ((7, 3), "denominator polynomial vanishes at (n=8, k=3)"),
        ((7, 5), "denominator polynomial vanishes at (n=7, k=5)"),
        ((7, 6), "denominator polynomial vanishes at (n=7, k=5)"),
        ((7, 7), "denominator polynomial vanishes at (n=7, k=6)"),
    ])
    assert wz_grid_row(pair, 2) == (2, [], [])


def test_grid_skips_csv_pinned_and_identical_across_jobs(skip_pair_dir,
                                                         tmp_path):
    outputs = []
    for jobs in ("1", "2"):
        target = tmp_path / f"grid{jobs}.csv"
        code = main(["wzcheck", "--pair", str(skip_pair_dir), "--mode",
                     "grid", "--n-max", "7", "--format", "csv",
                     "--jobs", jobs, "--output", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == SKIP_PAIR_CSV.encode("utf-8")
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("rows", [range(1, 8), range(3, 8), range(5, 6),
                                  range(6, 8)])
def test_grid_block_matches_single_rows(skip_pair_dir, rows):
    pair = WZPairSpec(
        name="skips",
        f=parse_document((skip_pair_dir / "s.F").read_text("utf-8")),
        g=parse_document((skip_pair_dir / "s.G").read_text("utf-8")),
        scale_base=-4096, divisor_kind="strong")
    assert wz_grid_rows(pair, rows) == [wz_grid_row(pair, n) for n in rows]


def test_grid_block_evaluates_each_term_once(monkeypatch):
    # rows 1..N need F(n, k) for 0 <= k <= n and G(n, k) for 1 <= k <= n,
    # n <= N + 1: N(N+1) + 2N values, each requested once from the row
    # kernel.
    pair = builtin_pair("guillera1")
    calls = []
    real = wz_module.eval_term_row

    def counting(term, n, ks):
        calls.extend((term is pair.f.term, n, k) for k in ks)
        return real(term, n, ks)

    monkeypatch.setattr(wz_module, "eval_term_row", counting)
    big_n = 45
    wz_grid_rows(pair, range(1, big_n + 1))
    assert len(calls) == len(set(calls)) == big_n * (big_n + 1) + 2 * big_n


def test_passing_grid_and_telescope_build_no_fraction(monkeypatch):
    # A passing audit prints no term value, so it reduces none: values
    # stay unreduced integer pairs, and only a witness becomes a Fraction.
    pair = builtin_pair("guillera1")  # parsed before counting
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    rows = wz_grid_rows(pair, range(1, 21))
    audits = [telescope_audit(pair, big_n) for big_n in range(2, 21)]
    audits += telescope_audits(pair, range(2, 21))
    monkeypatch.undo()
    assert all(not violations for _, violations, _ in rows)
    assert all(audit.ok for audit in audits)
    assert built == []
