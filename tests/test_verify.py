import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

import binomsum.verify as verify_module
from binomsum.cli import main
from binomsum.exact import binomial, factorial, int_text, int_valuation, \
    legendre_valuation, primes_upto, rat_valuation, smallest_prime_factors
from binomsum.pairs import SumSpec
from binomsum.verify import RATIO_IDENTITIES, SUM_SPECS, MarginRecord, \
    check_divisibility, check_divisibility_valuations, divide, divisor, \
    divisors, eval_sum, floor_margin, floor_margin_fractional, iter_sums, \
    lemma22_point, lemma22_row, lemma23_point, lemma23_rows, \
    lemma24_scan, lemma25_row, lemma25_scan, lemma25_valuations, lemma25_w, \
    lemma26_floor_margin, lemma26_ineq_scan, lemma26_point, lemma26_rows, \
    ratio_identity, ratio_k_values, ratio_row_failures, sum_spec, sums, \
    valuation_failures


# ---------------------------------------------------------------------------
# Sums and divisors
# ---------------------------------------------------------------------------

def test_sum_spec_registry_order():
    assert list(SUM_SPECS) == ["sun_a", "sun_b", "sun_c", "sun_d", "sun_e",
                               "guillera1", "guillera2"]
    assert sum_spec("guillera1").divisor_kind == "strong"
    assert sum_spec("sun_a").divisor_kind == "weak"
    with pytest.raises(ValueError):
        sum_spec("nope")


def test_eval_sum_hand_computed_points():
    # n = 2 partial sums: t(0)*base + t(1)
    assert eval_sum("sun_a", 2) == 1 * -8 + 4 * 8       # 24
    assert eval_sum("sun_a", 2) == 24
    assert eval_sum("sun_b", 2) == 48
    assert eval_sum("sun_c", 2) == 312
    assert eval_sum("sun_d", 2) == -456
    assert eval_sum("sun_e", 2) == 20856
    assert eval_sum("guillera1", 1) == 1
    assert eval_sum("guillera1", 2) == -3168
    assert eval_sum("guillera1", 3) == 13730400
    assert eval_sum("guillera2", 1) == 3
    assert eval_sum("guillera2", 2) == 211680


def test_iter_sums_matches_direct_evaluation():
    for name in SUM_SPECS:
        direct = [eval_sum(name, n) for n in range(1, 31)]
        recurrent = [s for _, s in iter_sums(name, 30)]
        assert direct == recurrent


# Sums declared for the tests alone, outside SUM_SPECS and its reports:
# Guillera's series for 128/pi^2, and a Chudnovsky-shaped sum, whose
# (6k)!/((3k)! k!^3) = C(6k,3k) C(3k,k) C(2k,k) no central power states.
G820 = SumSpec("g820", (820, 180, 13), (((0, 2), (0, 1), 5),), -2 ** 20,
               divisor_kind="strong")
CHUDNOVSKY = SumSpec("chudnovsky", (0, 545140134, 13591409),
                     (((0, 6), (0, 3), 1), ((0, 3), (0, 1), 1),
                      ((0, 2), (0, 1), 1)), -640320 ** 3)

# Each summand's binomials as the paper's formulas state them, apart from
# the SumSpec.binomials that sums and iter_sums both read.
_BINOMIALS_BY_HAND = {
    **dict.fromkeys(("sun_a", "sun_b", "sun_c", "sun_d", "sun_e"),
                    lambda k: math.comb(2 * k, k) ** 3),
    "guillera1": lambda k: math.comb(2 * k, k) ** 5,
    "guillera2": lambda k: math.comb(2 * k, k) ** 4 * math.comb(4 * k, 2 * k),
    "g820": lambda k: math.comb(2 * k, k) ** 5,
    "chudnovsky": lambda k: math.factorial(6 * k)
    // (math.factorial(3 * k) * math.factorial(k) ** 3),
}


def _direct_sum(spec, n):
    """sum t(k)*base**(n-1-k) term by term, each t(k) stated by hand and
    only coeff and base read from spec."""
    c2, c1, c0 = spec.coeff
    binomials = _BINOMIALS_BY_HAND[spec.name]
    return sum((c2 * k * k + c1 * k + c0) * binomials(k)
               * spec.base ** (n - 1 - k) for k in range(n))


def test_eval_sum_matches_recurrence_and_the_direct_sum():
    # eval_sum's stepped binomials against iter_sums' factorial quotients
    # and the term-by-term sum stated by hand
    n_max = 80
    assert set(_BINOMIALS_BY_HAND) == {*SUM_SPECS, G820.name, CHUDNOVSKY.name}
    for spec in (*SUM_SPECS.values(), G820, CHUDNOVSKY):
        expected = dict(iter_sums(spec, n_max))
        ns = range(1, n_max + 1)
        assert [expected[n] for n in ns] == [_direct_sum(spec, n) for n in ns] \
            == [eval_sum(spec, n) for n in ns] == list(sums(spec, ns)), \
            spec.name
    spec = sum_spec("guillera2")
    assert eval_sum(spec, 400) == _direct_sum(spec, 400) \
        == dict(iter_sums(spec, 400))[400]


def test_g820_strong_divisor_divides_its_sum():
    ns = range(2, 151)
    assert [n for n, value, div in zip(ns, sums(G820, ns),
                                       divisors("strong", ns))
            if value % div] == []


def test_eval_sum_holds_nothing_once_it_returns():
    # A table of every prefix S(k), k <= 2000, held 4.15 MB here.
    tracemalloc.start()
    try:
        eval_sum("guillera2", 2000)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 500_000


def _row_values(table, ts, head=()):
    return [num for num, den in verify_module._binomial_rows(table, head, ts)]


def test_stepped_binomials_match_factorial_quotients():
    central, quad = (((0, 2), (0, 1), 1),), (((0, 4), (0, 2), 1),)
    ks = range(2001)
    assert _row_values(central, ks) == [binomial(2 * k, k) for k in ks]
    assert _row_values(quad, ks) == [binomial(4 * k, 2 * k) for k in ks]
    for p in (1, 3, 4, 5):
        assert _row_values((((0, 2), (0, 1), p),), ks[:301]) \
            == [binomial(2 * k, k) ** p for k in ks[:301]], p


def test_inexact_binomial_step_raises(monkeypatch):
    # Each row is anchored at k = 3 one above its binomial, and its first
    # step leaves a remainder.
    monkeypatch.setattr(verify_module, "binomial",
                        lambda a, b: binomial(a, b) + 1)
    for table in ((((0, 2), (0, 1), 1),), (((0, 2), (0, 1), 3),),
                  (((0, 4), (0, 2), 1),), (((0, 2), (0, 1), -1),)):
        with pytest.raises(ArithmeticError, match="inexact binomial step"):
            _row_values(table, range(3, 5))


WINDOW = 8


def _table_rows(table, ts, head=()):
    return zip(ts, verify_module._binomial_rows(table, head, ts))


@pytest.mark.parametrize("start", [1, 2, 340])
def test_tables_match_their_per_point_references(start):
    ts = range(start, start + WINDOW)
    n = start + 2 * WINDOW  # a lemma 2.2 or 2.5 row that holds the window
    rows = _table_rows(verify_module._LEMMA22_TABLE, ts, (n,))
    assert [divide(n * num, (2 * n + 2 * k - 1) * den)
            for k, (num, den) in rows] == [lemma22_point(n, k) for k in ts]
    rows = _table_rows(verify_module._LEMMA25_TABLE, ts, (n,))
    assert [(Fraction(num, den), den) for k, (num, den) in rows] \
        == [(lemma25_w(n, k), binomial(2 * k, k) ** 2) for k in ts]
    if start > 1:  # C(2n-3, n-1) starts at n = 2
        rows = _table_rows(verify_module._LEMMA23_TABLE, ts)
        assert [(divide(n * n * (n + 1) * num, 64 * (2 * n + 1)),
                 (2 * n - 1) ** 2 * den) for n, (num, den) in rows] \
            == [tuple(lemma23_point(n)) for n in ts]
    for kind, table in verify_module._DIVISOR_TABLES.items():
        e = 1 if kind == "weak" else 2
        assert [(2 * n ** e * num, den) for n, (num, den)
                in _table_rows(table, ts)] \
            == [(divisor(kind, n), 1) for n in ts], kind
    for spec in (*SUM_SPECS.values(), CHUDNOVSKY):
        c2, c1, c0 = spec.coeff
        rows = _table_rows(spec.binomials, ts)
        assert [((c2 * k * k + c1 * k + c0) * num, den)
                for k, (num, den) in rows] \
            == [(verify_module._summand(spec, k), 1) for k in ts], spec.name


def test_eval_sum_resumes_its_row_without_a_binomial(monkeypatch):
    # However late its range starts, sums builds its row's binomials at the
    # anchor k = 0 alone and steps every later one.
    ns = range(340, 340 + WINDOW)
    for name, spec in SUM_SPECS.items():
        expected = dict(iter_sums(spec, ns[-1]))
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(verify_module, "binomial",
                          lambda a, b: built.append((a, b)) or binomial(a, b))
            assert list(sums(spec, ns)) == [expected[n] for n in ns], name
        assert built == [(0, 0)] * len(spec.binomials), name


def test_lemma25_table_cancels_to_the_eight_floor_forms():
    # Each C(a, b)**p as a!**p / (b!**p (a-b)!**p), over affine forms.
    weights = {}
    for top, bottom, p in verify_module._LEMMA25_TABLE:
        rest = tuple(x - y for x, y in zip(top, bottom))
        for form, w in ((top, p), (bottom, -p), (rest, -p)):
            weights[form] = weights.get(form, 0) + w
    assert {form: w for form, w in weights.items() if w} \
        == dict(verify_module._EIGHT_FLOOR_FORMS)


@pytest.mark.parametrize("table,head,ts", [
    ("_LEMMA23_TABLE", (), range(1, 5)),      # C(-1, 0) at n = 1
    ("_LEMMA22_TABLE", (6,), range(1, 8)),    # C(13, 14) at k = 7
    ("_LEMMA25_TABLE", (6,), range(-1, 3)),   # C(6, -1) at k = -1
])
def test_binomial_rows_reject_a_row_that_leaves_a_support(table, head, ts):
    with pytest.raises(ValueError, match="leaves 0 <= b <= a"):
        verify_module._binomial_rows(getattr(verify_module, table), head, ts)


def test_divisor_values():
    assert divisor("weak", 2) == 24
    assert divisor("weak", 3) == 120
    assert divisor("strong", 2) == 288
    assert divisor("strong", 3) == 7200
    assert divisor("strong", 4) == 2 * 16 * binomial(8, 4) ** 2
    with pytest.raises(ValueError):
        divisor("medium", 2)


@pytest.mark.parametrize("kind", ["weak", "strong"])
@pytest.mark.parametrize("ns", [range(1, 40), range(2, 3), range(2, 30),
                                range(340, 370), range(5, 5)])
def test_divisors_step_the_per_point_divisor(kind, ns):
    assert list(divisors(kind, ns)) \
        == [divisor(kind, n) for n in ns]
    # sums steps the sums stated with this kind over the same window
    for name, spec in SUM_SPECS.items():
        if spec.divisor_kind == kind:
            expected = dict(iter_sums(spec, ns.stop - 1))
            assert list(sums(spec, ns)) == [expected[n] for n in ns], name


@pytest.mark.parametrize("kind,ns", [("medium", range(2, 5)),
                                     ("weak", range(2, 9, 2)),
                                     ("strong", range(0, 5))])
def test_divisors_reject_bad_input(kind, ns):
    with pytest.raises(ValueError):
        list(divisors(kind, ns))
    # sums rejects the same ranges, and a name that is no sum
    with pytest.raises(ValueError):
        list(sums(kind if kind == "medium" else "guillera2", ns))


def test_sumcheck_divisor_chain_shares_nothing_with_eval_sum(monkeypatch,
                                                            capsys):
    # A divisor chain that steps to C(2n, n)**e + 1 fails every record past
    # its anchor at --n-min, while S(n) keeps its value.
    real = verify_module._binomial_rows

    def planted(table, head, ts):
        rows = real(table, head, ts)
        if table not in verify_module._DIVISOR_TABLES.values():
            return rows
        return ((num + (t > ts.start), den) for t, (num, den) in zip(ts, rows))

    monkeypatch.setattr(verify_module, "_binomial_rows", planted)
    code = main(["sumcheck", "--n-min", "5", "--n-max", "14",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert len(records) == 10 * len(SUM_SPECS)
    for record in records:
        name, n = record["params"]["sum"], record["params"]["n"]
        assert record["status"] == ("pass" if n == 5 else "fail"), (name, n)
        assert int(record["witness"]["value"]) \
            == dict(iter_sums(name, n))[n] == eval_sum(name, n)


def test_check_divisibility_known_quotients():
    expected = {"sun_a": 1, "sun_b": 2, "sun_c": 13, "sun_d": -19,
                "sun_e": 869}
    for name, q in expected.items():
        result = check_divisibility(name, None, 2)
        assert result.ok
        assert result.quotient == q
        assert result.remainder == 0
    assert check_divisibility("guillera1", "strong", 2).quotient == -11
    assert check_divisibility("guillera1", "strong", 3).quotient == 1907
    assert check_divisibility("guillera2", "strong", 2).quotient == 735


def test_check_divisibility_detects_failures():
    # sun sums are not, in general, divisible by the strong divisor
    result = check_divisibility("sun_a", "strong", 2)
    assert not result.ok
    assert result.quotient is None
    assert result.remainder != 0


@pytest.mark.parametrize("value,ok,integral,quotient,remainder", [
    (84, True, True, 12, 0),
    (Fraction(-84), True, True, -12, 0),
    (Fraction(85), False, True, None, 1),
    (Fraction(85, 2), False, False, None, None),
    (-85, False, True, None, 6),
])
def test_divide_takes_an_int_or_a_fraction(value, ok, integral, quotient,
                                           remainder):
    check = divide(value, 7)
    assert (check.ok, check.integral, check.quotient, check.remainder) == (
        ok, integral, quotient, remainder)
    assert (check.value, check.divisor) == (value, 7)


def test_valuation_route_agrees_with_division():
    for name in SUM_SPECS:
        for n in range(2, 25):
            division = check_divisibility(name, None, n)
            val_ok, failures = check_divisibility_valuations(name, None, n)
            assert division.ok == val_ok
            assert failures == ()


def test_planted_legendre_valuation_makes_the_routes_disagree(monkeypatch,
                                                              capsys):
    # One more 3 in (2n)! raises v_3 of the divisor by the sum's exponent,
    # which the sum does not carry; division still passes.
    original = verify_module.legendre_valuation
    monkeypatch.setattr(verify_module, "legendre_valuation",
                        lambda p, m: original(p, m) + ((p, m) == (3, 8)))
    code = main(["sumcheck", "--sum", "sun_a", "--n-min", "3", "--n-max",
                 "5", "--valuation-check", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [(r["params"]["n"], r["status"], r["witness"]["valuation"])
            for r in records] == [(3, "pass", "agree"),
                                  (4, "fail", "disagree"),
                                  (5, "pass", "agree")]
    assert all("quotient" in r["witness"] for r in records)


def test_valuation_route_reports_failing_prime():
    ok, failures = check_divisibility_valuations("sun_a", "strong", 2)
    assert not ok
    assert failures
    for p, v_div, v_val in failures:
        assert v_val < v_div


def _full_valuation_failures(value, kind, n):
    """Reference: v_p(value) counted in full at every prime p <= 2n."""
    if value == 0:
        return ()
    e = 1 if kind == "weak" else 2
    failures = []
    for p in primes_upto(2 * n):
        v_div = e * (int_valuation(p, n) + legendre_valuation(p, 2 * n)
                     - 2 * legendre_valuation(p, n))
        if p == 2:
            v_div += 1
        v_val = int_valuation(p, value)
        if v_div > v_val:
            failures.append((p, v_div, v_val))
    return tuple(failures)


def _planted_values(value, n):
    """value itself, value + 1, value * p and every exact value // p**j for
    a few primes p <= 2n, and 0."""
    primes = primes_upto(2 * n)
    yield value
    yield value + 1
    yield 0
    for p in {primes[0], primes[len(primes) // 2], primes[-1]}:
        yield value * p
        q = value
        while q % p == 0:
            q //= p
            yield q


@pytest.mark.parametrize("kind", ["weak", "strong"])
def test_valuation_failures_match_full_valuations(kind):
    seen_failures = 0
    for name in SUM_SPECS:
        for n in range(2, 61):
            value = eval_sum(name, n)
            for planted in _planted_values(value, n):
                expected = _full_valuation_failures(planted, kind, n)
                assert valuation_failures(planted, kind, n) == expected, \
                    (name, n, planted == value)
                seen_failures += bool(expected)
    assert seen_failures > 1000


# ---------------------------------------------------------------------------
# Lemma 2.2 and 2.3
# ---------------------------------------------------------------------------

def test_lemma22_hand_points():
    assert lemma22_point(1, 1).quotient == 2
    assert lemma22_point(2, 1).quotient == 72
    assert lemma22_point(2, 2).quotient == 20
    assert lemma22_point(1, 0).ok


def test_lemma22_grid_clean():
    for n in range(1, 40):
        for k in range(0, n + 1):
            assert lemma22_point(n, k).ok


def test_lemma22_row_matches_the_points():
    for n in range(1, 81):
        assert lemma22_row(n) == [lemma22_point(n, k)
                                  for k in range(1, n + 1)], n
    with pytest.raises(ValueError):
        lemma22_row(0)


def test_lemma23_points_and_closed_form():
    point = lemma23_point(2)
    assert point.ok
    assert point.division.quotient == 9
    assert point.closed_form == 9
    assert lemma23_point(3).division.quotient == 675
    assert lemma23_point(4).closed_form == 49000
    for n in range(2, 60):
        assert lemma23_point(n).ok


def test_lemma23_rows_match_the_points():
    for n_max in (2, 3, 500):
        assert list(lemma23_rows(n_max)) == [
            lemma23_point(n) for n in range(2, n_max + 1)], n_max
    with pytest.raises(ValueError):
        lemma23_rows(1)


# ---------------------------------------------------------------------------
# Lemma 2.4: the eight-floor inequality
# ---------------------------------------------------------------------------

def test_floor_margin_spot_values():
    assert floor_margin(2, 2, 1).margin == 0
    assert floor_margin(3, 2, 1).margin == 2
    assert floor_margin(2, 1, 1).margin == -1
    assert floor_margin(2, 1, 1).violation


def test_floor_margin_fractional_route_agrees():
    for m in range(2, 12):
        for n in range(0, m + 1):
            for k in range(0, n + 1):
                frac = floor_margin_fractional(m, n, k)
                assert frac.denominator == 1
                assert frac == floor_margin(m, n, k).margin


def test_lemma24_scan_finds_the_residue_violation():
    audit = lemma24_scan(2)
    assert not audit.ok
    assert [(r.m, r.n, r.k) for r in audit.violations] == [(2, 1, 1)]
    assert audit.violations[0].margin == -1


def test_lemma24_full_range_exposes_periodic_copies():
    audit = lemma24_scan(2, full_range=3)
    points = {(r.m, r.n, r.k) for r in audit.violations}
    assert points == {(2, 1, 1), (2, 3, 1), (2, 3, 3)}
    assert all(r.margin == -1 for r in audit.violations)


def test_lemma24_restricted_regions_are_clean():
    assert lemma24_scan(60, region="k0").ok
    assert lemma24_scan(60, region="case3a").ok


def test_lemma24_case3a_filter_is_enforced():
    audit = lemma24_scan(40, region="case3a")
    assert audit.checked > 0
    # (2,1,1) fails the case filter: 2(2n+k-1) = 4 < 6 = 3m
    assert 2 * (2 * 1 + 1 - 1) < 3 * 2


def test_lemma24_rejects_bad_region():
    with pytest.raises(ValueError):
        lemma24_scan(5, region="everything")


def _pointwise_lemma24(m_max, region, full_range):
    """lemma24_scan's (checked, violations), one point at a time through
    floor_margin, with floor_margin_fractional required to agree."""
    checked, violations = 0, []
    for m in range(2, m_max + 1):
        for n in range((m if full_range is None else full_range) + 1):
            for k in range(1 if region == "k0" else n + 1):
                if region == "case3a" and 2 * (2 * n + k - 1) < 3 * m:
                    continue
                record = floor_margin(m, n, k)
                assert floor_margin_fractional(m, n, k) == record.margin
                checked += 1
                if record.violation:
                    violations.append(record)
    return checked, tuple(violations)


def _pointwise_lemma26(m_max):
    margins = [(m, n, lemma26_floor_margin(m, n))
               for m in range(2, m_max + 1) for n in range(1, m + 1)]
    return len(margins), tuple(MarginRecord(m, n, 0, margin)
                               for m, n, margin in margins if margin < 0)


@pytest.mark.parametrize("full_range", [None, 13])
@pytest.mark.parametrize("region", ["all", "k0", "case3a"])
def test_lemma24_scan_matches_pointwise_margins(region, full_range):
    # m runs over odd and even values, so case3a rows start at both
    # roundings of (3m - 4n + 2) / 2.
    audit = lemma24_scan(40, region=region, full_range=full_range)
    assert (audit.checked, audit.violations) \
        == _pointwise_lemma24(40, region, full_range)


def test_lemma26_ineq_scan_matches_pointwise_margins():
    audit = lemma26_ineq_scan(100)
    assert (audit.checked, audit.violations) == _pointwise_lemma26(100)


def test_lemma24_exceptional_set_is_one_point_per_even_m():
    assert lemma24_scan(64).violations == tuple(
        MarginRecord(m, m // 2, m // 2, -1) for m in range(2, 65, 2))


def test_affine_forms_merge_equal_arguments_into_weights():
    forms = dict(verify_module._EIGHT_FLOOR_FORMS)
    # k x3, 2k x3 and n-k x2 merge; coefficients are (c0, c_n, c_k).
    assert forms == {(-2, 4, 2): 1, (0, 0, 1): 3, (0, 2, 0): 1,
                     (0, 0, 2): -3, (0, 1, 0): -1, (-1, 1, 0): -1,
                     (0, 1, -1): -2, (-1, 2, 1): -1}
    five = dict(verify_module._FIVE_FLOOR_FORMS)
    assert five == {(-5, 6): 1, (-1, 1): 1, (-1, 2): -1, (-2, 2): -1,
                    (-3, 3): -1}
    for weighted in (forms, five):  # the weighted forms sum to zero
        assert all(sum(w * form[i] for form, w in weighted.items()) == 0
                   for i in range(len(next(iter(weighted)))))


def test_floor_tables_state_the_factorial_ratios():
    # Each table, read as a product of factorials, is the ratio that the
    # typed statement of its lemma computes independently.
    def product(forms, *point):
        ratio = Fraction(1)
        for x, w in verify_module._form_values(forms, *point):
            ratio *= Fraction(factorial(x)) ** w
        return ratio

    for n in range(1, 61):
        point = lemma26_point(n)
        assert product(verify_module._FIVE_FLOOR_FORMS, n) \
            == Fraction(point.value, point.divisor), n
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert product(verify_module._EIGHT_FLOOR_FORMS, n, k) \
                == lemma25_w(n, k), (n, k)


def test_planted_argument_changes_reach_the_scans(monkeypatch):
    def planted(forms, changes):
        return tuple((changes.get(form, form), w) for form, w in forms)

    eight = verify_module._EIGHT_FLOOR_FORMS
    clean24, clean26 = lemma24_scan(12), lemma26_ineq_scan(12)
    # One argument alone unbalances the weighted sum: the routes disagree.
    monkeypatch.setattr(verify_module, "_EIGHT_FLOOR_FORMS",
                        planted(eight, {(0, 2, 0): (1, 2, 0)}))
    with pytest.raises(ArithmeticError, match="mismatch"):
        lemma24_scan(3)
    # 2n -> 2n+1 balanced by n-1 -> n: new violations, as the pointwise
    # margins, which read the same table, predict.
    monkeypatch.setattr(verify_module, "_EIGHT_FLOOR_FORMS", planted(
        eight, {(0, 2, 0): (1, 2, 0), (-1, 1, 0): (0, 1, 0)}))
    planted24 = lemma24_scan(12)
    assert planted24.violations != clean24.violations
    assert (planted24.checked, planted24.violations) \
        == _pointwise_lemma24(12, "all", None)
    # 6n-5 -> 6n-4 balanced by 2n-1 -> 2n.
    monkeypatch.setattr(verify_module, "_FIVE_FLOOR_FORMS", planted(
        verify_module._FIVE_FLOOR_FORMS, {(-5, 6): (-4, 6), (-1, 2): (0, 2)}))
    planted26 = lemma26_ineq_scan(12)
    assert planted26.violations != clean26.violations
    assert (planted26.checked, planted26.violations) == _pointwise_lemma26(12)


# ---------------------------------------------------------------------------
# Lemma 2.5: W(n,k) integrality by valuations
# ---------------------------------------------------------------------------

def test_lemma25_w_hand_values():
    assert lemma25_w(1, 1) == 3
    assert lemma25_w(2, 1) == 2520
    assert lemma25_w(2, 2) == 210
    assert lemma25_w(3, 1) == 1247400
    assert lemma25_w(3, 3) == 18018


def test_lemma25_valuation_routes_agree_pointwise():
    for n in range(1, 12):
        for k in range(1, n + 1):
            w = lemma25_w(n, k)
            for p, margin_sum, direct in lemma25_valuations(n, k):
                assert margin_sum == direct
                assert margin_sum >= 0
                assert direct == rat_valuation(p, w) if w != 0 else True


def test_lemma25_single_power_margin_can_dip_negative():
    # at (n,k) = (3,3) the 2-adic count comes from floors at 2, 4 and 8:
    # the m=2 term alone is -1 but the total valuation is still 1
    assert floor_margin(2, 3, 3).margin == -1
    entries = {p: (s, d) for p, s, d in lemma25_valuations(3, 3)}
    assert entries[2] == (1, 1)
    assert rat_valuation(2, Fraction(18018)) == 1


def test_lemma25_scan_clean():
    audit = lemma25_scan(10)
    assert audit.ok
    assert audit.checked == 55
    assert audit.violations == ()


def _stepped_vectors(n, start, spf):
    """(k, exponent vector, negatives, R) at each k, vectors copied."""
    return [(k, list(start), negatives, r)
            for k, negatives, r in verify_module._lemma25_steps(n, start, spf)]


def test_lemma25_stepped_exponents_match_legendre_sums():
    spf = smallest_prime_factors(6 * 40 + 2)
    for n in range(1, 41):
        start = verify_module._lemma25_start(n, len(spf))
        for k, exps, negatives, r in _stepped_vectors(n, start, spf):
            expected = [0] * len(spf)
            for p, margin_sum, _ in lemma25_valuations(n, k):
                expected[p] = margin_sum
            assert exps == expected, (n, k)
            assert negatives == 0 and r == lemma25_w(n, k), (n, k)


def test_lemma25_stepper_tracks_signs_and_product():
    # Lower every exponent by 3, so entries cross zero in both directions
    # as k steps; the count and R must follow the vector exactly.
    spf = smallest_prime_factors(6 * 9 + 2)
    n = 9
    start = verify_module._lemma25_start(n, len(spf))
    for p in range(2, len(spf)):
        if spf[p] == p:
            start[p] -= 3
    crossings = set()
    for k, exps, negatives, r in _stepped_vectors(n, start, spf):
        assert negatives == sum(1 for e in exps if e < 0), k
        product = 1
        for p, e in enumerate(exps):
            product *= p ** max(e, 0)
        assert r == product, k
        crossings.add(negatives)
    assert len(crossings) > 2


def test_lemma25_planted_w_times_p_is_a_valuation_mismatch(monkeypatch):
    real = verify_module.lemma25_row

    def planted(n):  # P(5, 2) times 7
        row = real(n)
        if n == 5:
            product, central_sq = row[1]
            row[1] = (product * 7, central_sq)
        return row

    monkeypatch.setattr(verify_module, "lemma25_row", planted)
    direct = rat_valuation(7, lemma25_w(5, 2))
    assert lemma25_scan(6).violations == (
        ("valuation-mismatch", 5, 2, 7, direct, direct + 1),)


def test_lemma25_planted_w_over_p_is_non_integral(monkeypatch):
    real = verify_module.lemma25_row
    w = lemma25_w(4, 3) / 101

    def planted(n):  # D(4, 3) times 101
        row = real(n)
        if n == 4:
            product, central_sq = row[2]
            row[2] = (product, central_sq * 101)
        return row

    monkeypatch.setattr(verify_module, "lemma25_row", planted)
    assert w.denominator == 101
    assert lemma25_scan(5).violations == (("non-integral", 4, 3, w),)


def test_lemma25_planted_negative_start_exponent(monkeypatch):
    # For n = 3 the step integers stay below 17, so v_17 keeps its
    # planted -1 at every k.
    real = verify_module._lemma25_start

    def planted(n, size):
        exps = real(n, size)
        if n == 3:
            exps[17] = -1
        return exps

    monkeypatch.setattr(verify_module, "_lemma25_start", planted)
    assert lemma25_scan(3).violations == tuple(
        ("negative-valuation", 3, k, ((17, -1),)) for k in (1, 2, 3))


def test_lemma25_wrong_stepping_is_an_internal_error(monkeypatch):
    real = verify_module._lemma25_start

    def planted(n, size):
        exps = real(n, size)
        exps[2] += 1
        return exps

    monkeypatch.setattr(verify_module, "_lemma25_start", planted)
    with pytest.raises(ArithmeticError, match=r"at \(1, 1\)"):
        lemma25_scan(3)


def test_lemma25_row_matches_the_points():
    for n in range(1, 61):
        row = lemma25_row(n)
        assert [Fraction(product, central_sq) for product, central_sq in row] \
            == [lemma25_w(n, k) for k in range(1, n + 1)], n
        assert [central_sq for _, central_sq in row] \
            == [binomial(2 * k, k) ** 2 for k in range(1, n + 1)], n
    with pytest.raises(ValueError):
        lemma25_row(0)


LEMMA25_FAILS = ("non-integral", "negative-valuation", "valuation-mismatch")


def _failed_points(audit):
    assert {v[0] for v in audit.violations} <= set(LEMMA25_FAILS)
    return sorted({tuple(v[1:3]) for v in audit.violations})


def test_lemma25_planted_binomial_step_fails_where_it_differs(monkeypatch):
    # The table's C(k+n, 2k) written as C(k+n, 2k-1): the Legendre route
    # fails exactly the points where the two binomials differ.
    monkeypatch.setattr(verify_module, "_LEMMA25_TABLE", tuple(
        (a, (-1, 0, 2), p) if b == (0, 0, 2) and p > 0 else (a, b, p)
        for a, b, p in verify_module._LEMMA25_TABLE))
    assert _failed_points(lemma25_scan(12)) == [
        (n, k) for n in range(1, 13) for k in range(1, n + 1)
        if binomial(k + n, 2 * k - 1) != binomial(k + n, 2 * k)]
    assert (2, 1) not in _failed_points(lemma25_scan(3))  # C(3, 1) = C(3, 2)


def test_lemma25_planted_floor_form_fault_is_a_fail_record(monkeypatch):
    # (n-1)! in place of (n-k)!: the same factorial at k = 1, but one that
    # no longer moves along k.  The binomial route does not read the floor
    # forms, so the Legendre route fails every point where the two
    # factorials differ, as FAIL records and not as an error.
    row = lemma25_row(6)
    monkeypatch.setattr(verify_module, "_EIGHT_FLOOR_FORMS", tuple(
        ((-1, 1, 0) if form == (0, 1, -1) else form, w)
        for form, w in verify_module._EIGHT_FLOOR_FORMS))
    assert lemma25_row(6) == row
    assert _failed_points(lemma25_scan(6)) == [
        (n, k) for n in range(1, 7) for k in range(1, n + 1)
        if factorial(n - 1) != factorial(n - k)]


# ---------------------------------------------------------------------------
# Lemma 2.6: factorial quotient and five-floor inequality
# ---------------------------------------------------------------------------

def test_lemma26_points():
    assert lemma26_point(1).quotient == 1
    assert lemma26_point(2).quotient == 70
    assert lemma26_point(3).quotient == 6006
    for n in range(1, 80):
        assert lemma26_point(n).ok


@pytest.fixture(scope="module")
def lemma26_points():
    return [lemma26_point(n) for n in range(1, 301)]


def division_text(check) -> tuple:
    """Every field of a DivisionCheck as its decimal text, or None.  An int
    and a Decimal compare by == through a conversion that is quadratic in
    the digits; their texts compare in linear time."""
    return tuple(None if number is None
                 else str(number) if isinstance(number, Decimal)
                 else int_text(number) for number in check)


@pytest.fixture(scope="module")
def lemma26_texts(lemma26_points):
    return [division_text(point) for point in lemma26_points]


@pytest.mark.parametrize("n_max", [0, 1, 2, 300])
def test_lemma26_rows_match_the_factorial_quotients(lemma26_texts, n_max):
    rows = list(lemma26_rows(n_max))
    assert len(rows) == n_max
    assert [division_text(row) for row in rows] == lemma26_texts[:n_max]


def test_lemma26_rows_look_up_no_factorial(monkeypatch):
    def no_factorial(n):
        raise AssertionError(f"factorial({n}) looked up")

    monkeypatch.setattr(verify_module, "factorial", no_factorial)
    assert all(check.ok for check in lemma26_rows(300))


def test_lemma26_rows_catch_a_planted_one_off_step(lemma26_texts,
                                                   monkeypatch):
    # One step of one form multiplies by x..x+c-1 instead of x+1..x+c: the
    # (3n-3)! factor moving from n = 150 to 151, so every point from 151 on
    # is wrong.
    rising = verify_module._rising

    def planted(x, c):
        return rising(x - 1, c) if (x, c) == (3 * 150 - 3, 3) else rising(x, c)

    monkeypatch.setattr(verify_module, "_rising", planted)
    wrong = [n for n, (check, text) in enumerate(
        zip(lemma26_rows(300), lemma26_texts), 1)
        if division_text(check) != text]
    assert wrong == list(range(151, 301))


DIVISION_FIELDS = ("value", "divisor", "quotient", "remainder")


def test_lemma26_rows_are_decimals_that_print_as_the_quotients(
        lemma26_points, lemma26_texts):
    rows = list(lemma26_rows(300))
    assert len(str(rows[-1].value)) > 4300  # past the int-to-str limit
    for n, (row, text) in enumerate(zip(rows, lemma26_texts), 1):
        for field, number, expected in zip(DIVISION_FIELDS, row, text):
            assert isinstance(number, Decimal), (n, field)
            assert str(number) == expected, (n, field)
    assert rows[-1].exact_quotient == lemma26_points[-1].exact_quotient \
        == int(rows[-1].quotient)


def test_lemma26_row_1000_matches_math_factorial():
    n, f = 1000, math.factorial
    value = f(6 * n - 5) * f(n - 1)
    div = f(2 * n - 1) * f(2 * n - 2) * f(3 * n - 3)
    quotient, remainder = divmod(value, div)
    assert remainder == 0
    row = list(lemma26_rows(n))[-1]
    assert [str(getattr(row, field)) for field in DIVISION_FIELDS] \
        == [int_text(number) for number in (value, div, quotient, 0)]


def test_lemma26_rows_fail_with_a_remainder_when_the_divisor_gains_a_factor(
        capsys, monkeypatch):
    # 10007 is prime and above 6n - 5 for n <= 20, so it divides no
    # numerator: from n = 5 on, every point is non-integral.
    step = verify_module._step_factors

    def planted(moving, t):
        up, down = step(moving, t)
        return (up, down * 10007) if t == 4 else (up, down)

    monkeypatch.setattr(verify_module, "_step_factors", planted)
    rows = list(lemma26_rows(20))
    assert [row.ok for row in rows] == [True] * 4 + [False] * 16
    assert all(row.quotient is None and row.remainder > 0 for row in rows[4:])
    assert rows[4].exact_quotient == Fraction(lemma26_point(5).quotient, 10007)
    code = main(["lemma", "--id", "2.6", "--n-max", "20", "--m-max", "2",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    fails = [record for record in map(json.loads, captured.out.splitlines())
             if record["status"] == "fail"]
    assert [record["params"]["n"] for record in fails] == list(range(5, 21))
    assert [int(record["witness"]["remainder"]) for record in fails] \
        == [int(row.remainder) for row in rows[4:]]


def test_lemma26_floor_margin_spots():
    assert lemma26_floor_margin(2, 3) == 0
    assert lemma26_floor_margin(3, 4) == 0
    assert lemma26_floor_margin(5, 3) == 0


@pytest.mark.parametrize("margin,args", [
    (floor_margin, (1, 2, 1)), (floor_margin, (0, 2, 1)),
    (floor_margin, (3, 1, 2)), (floor_margin_fractional, (1, 2, 1)),
    (floor_margin_fractional, (3, 1, 2)), (lemma26_floor_margin, (1, 3)),
    (lemma26_floor_margin, (-2, 3)), (lemma26_floor_margin, (3, 0))])
def test_floor_margins_reject_bad_arguments(margin, args):
    with pytest.raises(ValueError):
        margin(*args)


def test_lemma26_ineq_scan_clean():
    audit = lemma26_ineq_scan(100)
    assert audit.ok
    assert audit.checked == sum(m for m in range(2, 101))


# ---------------------------------------------------------------------------
# Ratio identities
# ---------------------------------------------------------------------------

def test_ratio_identity_registry():
    assert RATIO_IDENTITIES == ("g1_col1", "g1_gen", "f1_corner",
                                "catalan_split", "g2_gen", "f2_corner",
                                "telescoped_sum")
    assert ratio_k_values("g1_gen", 5) == range(2, 6)
    assert ratio_k_values("g2_gen", 5) == range(0, 6)
    assert ratio_k_values("g1_col1", 5) is None


def test_ratio_identity_spot_values():
    assert ratio_identity("g1_col1", 2).lhs == 9
    assert ratio_identity("f1_corner", 2).lhs == -20
    assert ratio_identity("catalan_split", 3).lhs == 14
    assert ratio_identity("g1_gen", 3, 2).lhs == -2800
    assert ratio_identity("g2_gen", 2, 1).lhs == 315
    assert ratio_identity("g2_gen", 2, 0).lhs == Fraction(45, 16)
    assert ratio_identity("g2_gen", 2, 2).lhs == 420
    assert ratio_identity("f2_corner", 2).lhs == 420
    assert ratio_identity("f2_corner", 3).lhs == 576576


def test_ratio_identities_hold_on_range():
    for identity in RATIO_IDENTITIES:
        for big_n in range(2, 15):
            k_range = ratio_k_values(identity, big_n)
            if k_range is None:
                check = ratio_identity(identity, big_n)
                assert check.equal, (identity, big_n)
            else:
                for k in k_range:
                    assert ratio_identity(identity, big_n, k).equal, \
                        (identity, big_n, k)


def test_ratio_corner_identities_carry_alt_forms():
    check = ratio_identity("f1_corner", 4)
    assert check.alt is not None
    assert check.alt == check.lhs == check.rhs
    check = ratio_identity("f2_corner", 4)
    assert check.alt == check.lhs == check.rhs
    assert ratio_identity("g1_col1", 4).alt is None


def test_ratio_identity_argument_validation():
    with pytest.raises(ValueError):
        ratio_identity("nonsense", 3)
    with pytest.raises(ValueError):
        ratio_identity("g1_col1", 1)
    with pytest.raises(ValueError):
        ratio_identity("g1_gen", 3)        # k required
    with pytest.raises(ValueError):
        ratio_identity("g1_gen", 3, 1)     # k out of range
    with pytest.raises(ValueError):
        ratio_identity("g1_col1", 3, 1)    # k not a parameter


def test_telescoped_sum_ties_routes_together():
    for big_n in range(2, 10):
        check = ratio_identity("telescoped_sum", big_n)
        assert check.equal
        assert check.rhs == eval_sum("guillera2", big_n)


def test_ratio_rows_hold_and_validate_their_arguments():
    for identity in ("g1_gen", "g2_gen"):
        for big_n in range(2, 30):
            assert ratio_row_failures(identity, big_n) == [], \
                (identity, big_n)
    with pytest.raises(ValueError):
        ratio_row_failures("g1_col1", 3)   # not a row identity
    with pytest.raises(ValueError):
        ratio_row_failures("g2_gen", 1)


def _doubled(division):
    return verify_module.divide(2 * division.value, division.divisor)


# identity: (the lemma function its right side reads, that function's
# quantity doubled, a point of the identity)
DOUBLED_LEMMAS = {
    "g1_col1": ("lemma23_point",
                lambda q: q._replace(division=_doubled(q.division)), (5,)),
    "g1_gen": ("lemma22_point", _doubled, (5, 3)),
    "g2_gen": ("lemma25_w", lambda w: 2 * w, (5, 3)),
    "f2_corner": ("lemma26_point", _doubled, (5,)),
}


@pytest.mark.parametrize("identity", DOUBLED_LEMMAS)
def test_lemma_faults_reach_the_ratio_identities(monkeypatch, identity):
    # The right side reads the lemma's quantity, so a lemma function that
    # audits the wrong quantity breaks the identity with the pair's term.
    lemma, doubled, point = DOUBLED_LEMMAS[identity]
    assert ratio_identity(identity, *point).equal
    real = getattr(verify_module, lemma)
    monkeypatch.setattr(verify_module, lemma,
                        lambda *args: doubled(real(*args)))
    assert not ratio_identity(identity, *point).equal


# identity: (the stepped row its right side reads, that row doubled)
DOUBLED_ROWS = {
    "g1_gen": ("lemma22_row", lambda row: [_doubled(d) for d in row]),
    "g2_gen": ("lemma25_row",
               lambda row: [(2 * p, d) for p, d in row]),
}


@pytest.mark.parametrize("identity", DOUBLED_ROWS)
def test_row_faults_reach_the_ratio_rows(monkeypatch, identity):
    # The row kernel reads the stepped lemma rows, so a wrong row fails
    # every k it covers (g2_gen's k = 0 reads lemma25_w).
    lemma, doubled = DOUBLED_ROWS[identity]
    real = getattr(verify_module, lemma)
    monkeypatch.setattr(verify_module, lemma,
                        lambda n: doubled(real(n)))
    failed = [check.k for check in ratio_row_failures(identity, 5)]
    assert failed == list(range(2 if identity == "g1_gen" else 1, 6))
