"""Scenario files: literal grammar, validation, and defaults."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from plectic.errors import ParseError, ValidationError
from plectic.padic import INF, PadicScalar
from plectic.scenario import (
    MAX_PRECISION,
    SUITES,
    load_scenario,
    parse_padic,
    parse_quad,
    parse_scenario,
)

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios"


def test_parse_padic_literals():
    x = parse_padic("2.1.2.1e0", 5, 10)
    assert x.agreement(PadicScalar.from_int(2 + 5 + 2 * 25 + 125, 5, 10)) >= 4
    y = parse_padic("3e-1", 5, 10)
    assert y.v == -1 and y.unit % 5 == 3
    assert parse_padic("1e2", 5, 10).agreement(
        PadicScalar.from_int(25, 5, 10)) >= 3


def test_parse_padic_rejects_garbage():
    for bad in ("", "e0", "1.2", "1.2e", "5e0", "1.7e0", "x", "1e0 w"):
        with pytest.raises(ParseError):
            parse_padic(bad, 5, 10)


def _digit_sum(digits, p):
    return sum(d * p ** i for i, d in enumerate(digits))


@pytest.mark.parametrize("text,v,unit", [
    ("0.0.0e3", INF, 0),  # a zero to the working precision, not an exact zero
    ("1.2.3.4.0.1.2.3.4.0.1.2e0", 0,
     _digit_sum([1, 2, 3, 4, 0, 1, 2, 3, 4, 0], 5)),  # 12 digits, 10 kept
    ("4.4e0", 0, 24),  # digit p - 1
    ("3.1e-2", -2, 8),
    ("0.0.3e-4", -2, 3),  # leading zero digits raise the valuation
    # past int()'s 4300-digit strings: read by length, as a zero to precision
    ("1e" + "9" * 5000, INF, 0),
    ("0" * 5000 + "3e-1", -1, 3),  # zeros that lead one digit are not digits
    ("1e0000000000000000000002", 2, 1),  # leading zeros, read by length too
], ids=["all-zero", "past-precision", "digit-p-minus-one", "negative-valuation",
        "leading-zeros", "long-valuation", "long-digit", "long-zero-valuation"])
def test_parse_padic_decodes_the_digit_sum(text, v, unit):
    x = parse_padic(text, 5, 10)
    assert (x.v, x.unit, x.prec) == (v, unit, 10)


@pytest.mark.parametrize("text", ["5e0", "4.5e0", "1.2.7e1", "1" * 5000 + "e0"],
                         ids=["5e0", "4.5e0", "1.2.7e1", "5000-digit"])
def test_parse_padic_rejects_digit_p(text):
    with pytest.raises(ParseError, match="digit >= p"):
        parse_padic(text, 5, 10)


def test_parse_padic_matches_the_digit_sum_on_random_literals():
    # the interval of sum(d_i p^i) * p^v known mod p^prec, read off directly
    rng = random.Random(30)
    for _ in range(200):
        p = rng.choice([5, 7, 11, 1009])
        prec = rng.randrange(10, 61)
        digits = [rng.choice([0, rng.randrange(p)]) for _ in range(rng.randrange(1, prec + 6))]
        v = rng.randrange(-5, prec + 3)
        x = parse_padic("%se%d" % (".".join(map(str, digits)), v), p, prec)
        assert x.prec == prec
        total = _digit_sum(digits, p) % p ** max(prec - v, 0)
        if total == 0:
            assert x.is_zero()
            continue
        shift = 0
        while total % p ** (shift + 1) == 0:
            shift += 1
        assert x.v == v + shift
        assert x.unit % p and x.unit * p ** shift == total


def _bound_digits(p):
    """The largest k with p^k at most 5^MAX_PRECISION."""
    k = 0
    while p ** (k + 1) <= 5 ** MAX_PRECISION:
        k += 1
    return k


@pytest.mark.parametrize("p,prec", [(5, 40), (7, 40), (1009, 10)])
def test_parse_padic_keeps_only_the_digits_below_the_bound(p, prec):
    # at the bound p^(prec - v) = p^k is at most 5^MAX_PRECISION; the digits
    # past the first prec - v do not change the scalar
    k = _bound_digits(p)
    rng = random.Random(p)
    digits = [rng.randrange(1, p) for _ in range(k + 50)]
    v = prec - k
    x = parse_padic("%se%d" % (".".join(map(str, digits)), v), p, prec)
    first = parse_padic("%se%d" % (".".join(map(str, digits[:k])), v), p, prec)
    assert (x.v, x.unit, x.prec) == (first.v, first.unit, first.prec)
    assert (x.v, x.prec) == (v, prec) and x.unit % p == digits[0]
    with pytest.raises(ValidationError, match=r"at most 5\^%d$" % MAX_PRECISION):
        parse_padic("%se%d" % (".".join(map(str, digits)), v - 1), p, prec)


@pytest.mark.parametrize("text,shown", [
    ("1e-991", "-991"),  # p^1001 at p = 5, precision 10
    ("1e-4000000", "below -%d" % MAX_PRECISION),
    ("1e-" + "9" * 5000, "below -%d" % MAX_PRECISION),
], ids=["991", "4000000", "5000-digit"])
def test_parse_padic_refuses_a_valuation_far_past_the_bound(text, shown):
    with pytest.raises(ValidationError, match=r"^a p-adic literal of valuation "
                       r"%s needs p\^\(precision - v\) at most 5\^%d$"
                       % (shown, MAX_PRECISION)):
        parse_padic(text, 5, 10)


@pytest.mark.parametrize("text", ["\u0660\u0660\u0660\u0663e0", "1e\u0665",
                                  "1.\u0663e0"])
def test_parse_padic_reads_only_ascii_digits(text):
    with pytest.raises(ParseError, match="bad p-adic literal"):
        parse_padic(text, 5, 10)


@pytest.mark.parametrize("value,expected", [
    ("-3/2", Fraction(-3, 2)),
    ("0042/0007", Fraction(6)),
    (str(5 ** MAX_PRECISION), Fraction(5 ** MAX_PRECISION)),
    ("1/" + str(5 ** MAX_PRECISION), Fraction(1, 5 ** MAX_PRECISION)),
    # past int()'s 4300-digit strings, but read by length as -7/2
    ("-" + "0" * 5000 + "7/" + "0" * 5000 + "2", Fraction(-7, 2)),
    (str(5 ** MAX_PRECISION + 1), None),
    ("1/" + "0" * 5000 + str(5 ** MAX_PRECISION + 1), None),
    ("1e-80000", None),  # Fraction alone would build 10^80000
    ("1.5", None),
    ("+3", None),
    ("1/0", None),
    ("1/-2", None),
    ("\u0663/2", None),  # a non-ASCII digit
], ids=["negative", "leading-zeros", "N-at-bound", "D-at-bound",
        "long-leading-zeros", "N-past-bound", "D-past-bound", "exponent",
        "decimal", "plus", "zero-D", "negative-D", "non-ascii-digit"])
def test_rationals_are_bounded_integers_or_quotients(value, expected):
    text = (GOLDEN / "t1-split.kv").read_text() + "k_eta.1 = %s\n" % value
    text = text.replace("k_eta.1 = 1\n", "", 1)
    if expected is not None:
        assert parse_scenario(text).family[0][1] == expected
    else:
        with pytest.raises(ParseError, match=r"k_eta\.1 = .* is not a "
                           r"rational \[-\]N or \[-\]N/D with D > 0 and N, D "
                           r"at most 5\^%d$" % MAX_PRECISION):
            parse_scenario(text)


@pytest.mark.parametrize("key,value,expected", [
    ("precision", "+40", 40), ("precision", "040", 40),
    ("eps", "+1", 1), ("eps", "-1", -1), ("reduction_sign", "+1", 1),
    ("seed", "-7", -7),
])
def test_int_keys_take_a_sign_and_leading_zeros(key, value, expected):
    sc = parse_scenario("tate_period = 1e1\n%s = %s\n" % (key, value))
    assert getattr(sc, key) == expected


def test_error_messages_cut_a_long_value_to_forty_characters():
    with pytest.raises(ParseError) as err:
        parse_padic("1" * 5000 + "e0", 5, 10)
    assert str(err.value) == "digit >= p in %r..." % ("1" * 40)
    # a short value is quoted whole, as before
    with pytest.raises(ParseError) as err:
        parse_padic("1" * 39 + "x", 5, 10)
    assert str(err.value) == "bad p-adic literal %r" % ("1" * 39 + "x")


def test_parse_quad_literals():
    a = parse_quad("3e0", 5, 10)
    assert a.b.is_zero() and not a.a.is_zero()
    b = parse_quad("3e0 w", 5, 10)
    assert b.a.is_zero() and not b.b.is_zero()
    s = parse_quad("1e0 + 2e0 w", 5, 10)
    d = parse_quad("1e0 - 2e0 w", 5, 10)
    assert (s.b + d.b).is_zero()
    assert s.a.agreement(d.a) >= 9


def test_parse_quad_rejects_garbage():
    for bad in ("w", "1e0 2e0", "1e0 * 2e0 w", "1e0 + w"):
        with pytest.raises(ParseError):
            parse_quad(bad, 5, 10)


def test_golden_scenarios_parse():
    sc = load_scenario(GOLDEN / "t1-split.kv")
    assert sc.name == "t1-split"
    assert (sc.p, sc.t, sc.r) == (5, 1, 2)
    assert sc.q.v == 1
    assert len(sc.family) == 2
    assert sc.c_chi == Fraction(4)
    assert not sc.invariant.is_zero()
    assert sc.suites == SUITES

    sc2 = load_scenario(GOLDEN / "t2-split.kv")
    assert (sc2.t, sc2.r, len(sc2.family)) == (2, 4, 4)


def test_minimal_scenario_defaults():
    sc = parse_scenario("tate_period = 1e1\n")
    assert sc.name == "unnamed"
    assert (sc.p, sc.t, sc.precision, sc.seed) == (5, 1, 40, 0)
    assert sc.shape.degree == 2 * sc.r + 2
    assert sc.shape.s == sc.r
    # identity suites needing committed data are dropped, not failed
    assert "factorization" not in sc.suites
    assert "algebraicity" not in sc.suites
    assert "units" in sc.suites


def test_missing_period_rejected():
    with pytest.raises(ValidationError, match="tate_period required"):
        parse_scenario("name = x\n")


def test_period_must_have_positive_valuation():
    with pytest.raises(ValidationError):
        parse_scenario("tate_period = 1e0\n")


@pytest.mark.parametrize("literal,message", [
    ("0e0", "tate_period is zero to the working precision 40"),
    ("1e40", "tate_period is zero to the working precision 40"),
    ("1e1000", "tate_period is zero to the working precision 40"),
    ("1e0", "tate_period must have positive valuation"),
])
def test_a_period_that_vanishes_at_the_working_precision_says_so(literal, message):
    text = (GOLDEN / "t1-split.kv").read_text().replace(
        "tate_period = 1e1", "tate_period = " + literal)
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert str(err.value) == message


def test_parameter_validation():
    with pytest.raises(ValidationError):
        parse_scenario("p = 4\ntate_period = 1e1\n")
    with pytest.raises(ValidationError):
        parse_scenario("p = 3\ntate_period = 1e1\n")
    with pytest.raises(ValidationError):
        parse_scenario("t = 4\ntate_period = 1e1\n")
    with pytest.raises(ValidationError):
        parse_scenario("reduction_sign = 0\ntate_period = 1e1\n")
    with pytest.raises(ValidationError):
        parse_scenario("precision = 5\ntate_period = 1e1\n")


def test_modulus_is_bounded_not_only_the_digit_count():
    # a run costs by the size of p^precision: the bound is 5^MAX_PRECISION
    with pytest.raises(ValidationError, match=r"p\^precision must be at most"):
        parse_scenario("p = 1009\nprecision = 1000\ntate_period = 1e1\n")
    with pytest.raises(ValidationError, match=r"p\^precision must be at most"):
        parse_scenario("p = 1009\nprecision = 233\ntate_period = 1e1\n")
    sc = parse_scenario("p = 1009\nprecision = 232\ntate_period = 1e1\n")
    assert sc.precision == 232


@pytest.mark.parametrize("key", ["free_rank", "trunc_degree"])
def test_the_group_shape_is_fixed_by_t(key):
    # s = r and D = 2r + 2: the suites read the degree-r graded pieces
    with pytest.raises(ValidationError, match="unknown key '%s'" % key):
        parse_scenario("%s = 100\ntate_period = 1e1\n" % key)


def test_line_grammar():
    with pytest.raises(ParseError, match="duplicate"):
        parse_scenario("p = 5\np = 7\ntate_period = 1e1\n")
    with pytest.raises(ParseError, match="key = value"):
        parse_scenario("just some words\n")
    with pytest.raises(ParseError, match="empty"):
        parse_scenario("p =\ntate_period = 1e1\n")
    # comments and blank lines are ignored
    sc = parse_scenario("# header\n\ntate_period = 1e1  # trailing\n")
    assert sc.q.v == 1


def test_suite_selection():
    sc = parse_scenario("tate_period = 1e1\nsuites = units tate\n")
    assert sc.suites == ("units", "tate")
    with pytest.raises(ValidationError, match="unknown suite"):
        parse_scenario("tate_period = 1e1\nsuites = units bogus\n")
    with pytest.raises(ValidationError):
        parse_scenario("tate_period = 1e1\nsuites = factorization\n")


def test_char_table_and_tau():
    # both are functions of t, so neither is a key: even the canonical
    # values are an unknown key
    for line in ("char_table = 1 1; 1 -1", "tau = 0;1"):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scenario("tate_period = 1e1\n%s\n" % line)


def test_family_validation():
    base = "tate_period = 1e1\n"
    with pytest.raises(ValidationError, match="u_eta.1 .. u_eta.2"):
        parse_scenario(base + "u_eta.2 = 1e0 + 1e1 w\n")
    with pytest.raises(ValidationError, match="must be a unit"):
        parse_scenario(base + "u_eta.1 = 1e1\nu_eta.2 = 1e0 + 1e1 w\n")
    with pytest.raises(ValidationError, match="period lattice"):
        parse_scenario(base + "u_eta.1 = 1e0\nu_eta.2 = 1e0 + 1e1 w\n")
    with pytest.raises(ValidationError, match="nonzero"):
        parse_scenario(base + "u_eta.1 = 1e0 + 1e1 w\nu_eta.2 = 2e0 + 1e1 w\n"
                       + "k_eta.1 = 0\n")
    # a family is complete when it has r keys, in any order
    lines = (GOLDEN / "t3-split.kv").read_text().splitlines()
    family = [line for line in lines if line.startswith("u_eta.")]
    rest = [line for line in lines if not line.startswith("u_eta.")]
    assert len(family) == 8
    reverse = parse_scenario("\n".join(rest + family[::-1]) + "\n")
    assert [u.agreement(v) for (u, _), (v, _) in zip(
        reverse.family, load_scenario(GOLDEN / "t3-split.kv").family)] == [40] * 8
    with pytest.raises(ValidationError, match=r"need u_eta\.1 \.\. u_eta\.8"):
        parse_scenario("\n".join(rest + family[:7]) + "\n")
