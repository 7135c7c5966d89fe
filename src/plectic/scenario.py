"""Scenario files: flat key-value text describing one verification run.

Grammar (UTF-8, one `key = value` per line, `#` comments, blank lines ok):

    name           string
    p              prime, 5 <= p <= MAX_P
    t              tower exponent, r = 2^t
    reduction_sign +1 or -1
    eps            +1 or -1 (global sign; default 1)
    precision      base-p digits of working precision (default 40, at most
                   MAX_PRECISION, and p^precision at most 5^MAX_PRECISION)
    seed           RNG seed for property checks (default 0)
    tate_period    p-adic literal (required)
    u_eta.K        quadratic-extension literal, K = 1..r
    k_eta.K        rational [-]N or [-]N/D (default 1)
    C_chi          rational [-]N or [-]N/D: the factorization constant
    Q_S            p-adic literal: the committed invariant coordinate
    suites         subset of the suite names (default: all)

The int keys (p, t, reduction_sign, eps, precision, seed) are an optional
sign and ASCII decimal digits.  Any other key is an unusable input.  The
character table and the twists it is read at are those of (Z/2)^t, so
neither is a key.

p-adic literals are base-p digit lists, low digit first, joined by '.',
followed by 'e' and the valuation: `2.1.2.1e0` means 2 + p + 2p^2 + p^3.
A literal of valuation v needs p^(precision - v) at most 5^MAX_PRECISION,
as a rational's N and D are.  Quadratic literals are `A`, `A + B w`, or
`A - B w` with A, B p-adic literals.
"""

import re
from fractions import Fraction

from .errors import ParseError, ValidationError
from .padic import PadicScalar, QuadExtScalar
from .plectic_ops import tower_shape
from .units import PointCompletion, UnitCompletion

# in run order: the arithmetic layers before the identity layers
SUITES = ("units", "tate", "grpalg", "symalg", "gz", "sign",
          "factorization", "algebraicity")
# the keys of the grammar above, besides u_eta.K and k_eta.K
KEYS = ("name", "p", "t", "reduction_sign", "eps", "precision", "seed",
        "tate_period", "C_chi", "Q_S", "suites")
# suites that read the committed family u_eta, C_chi, Q_S
FAMILY_SUITES = ("factorization", "algebraicity")

# every scalar computes p^precision, so an unbounded precision can hang the
# first constructor; 1000 leaves room above the 40..640 precision grid.  The
# cost of a run grows with the size of the modulus p^precision, not with the
# digit count, so the modulus is bounded too, by the largest one at p = 5.
MAX_PRECISION = 1000
MAX_MODULUS = 5 ** MAX_PRECISION
# `_is_prime` trial-divides up to sqrt(p): under 50 k steps below 2^31
MAX_P = 2 ** 31

# ASCII digits only: `_capped` strips leading zeros as the character '0'
_PADIC = re.compile(r"^(\d+(?:\.\d+)*)e(-?)(\d+)$", re.ASCII)
_RATIONAL = re.compile(r"^-?(\d+)(?:/(0*[1-9]\d*))?$", re.ASCII)  # D > 0
_INT = re.compile(r"^[+-]?\d+$", re.ASCII)


def _quote(text):
    """repr(text) for an error message, cut to 40 characters and `...`."""
    return repr(text) if len(text) <= 40 else "%r..." % text[:40]


def _capped(digits, limit):
    """min(int(digits), limit + 1) for a decimal string.  A decimal digit
    holds more than 3 bits, so a string of limit.bit_length() // 3 + 2
    significant digits is past `limit`: int() reads no more than that."""
    digits = digits.lstrip("0")[:limit.bit_length() // 3 + 2]
    return min(int(digits or "0"), limit + 1)


def parse_padic(text, p, prec):
    m = _PADIC.match(text.strip())
    if not m:
        raise ParseError("bad p-adic literal %s" % _quote(text))
    digits = [_capped(d, p - 1) for d in m.group(1).split(".")]
    if any(d >= p for d in digits):
        raise ParseError("digit >= p in %s" % _quote(text))
    # a |v| past MAX_PRECISION >= prec is a zero to prec or past the bound
    v = _capped(m.group(3), MAX_PRECISION) * (-1 if m.group(2) else 1)
    keep = max(prec - v, 0)  # the scalar keeps its unit mod p^keep
    if p ** keep > MAX_MODULUS:
        # v is capped, so past -MAX_PRECISION it stands for a longer number
        shown = v if v >= -MAX_PRECISION else "below -%d" % MAX_PRECISION
        raise ValidationError("a p-adic literal of valuation %s needs "
                              "p^(precision - v) at most 5^%d"
                              % (shown, MAX_PRECISION))
    unit = 0  # by Horner's rule, on the digits kept
    for d in reversed(digits[:keep]):
        unit = unit * p + d
    # an all-zero digit list normalises to the zero to prec
    return PadicScalar(p, v, unit, prec)


def parse_quad(text, p, prec):
    parts = text.strip().split()
    if parts and parts[-1] == "w":
        if len(parts) == 2:  # "B w"
            a = PadicScalar.zero(p, prec)
            b = parse_padic(parts[0], p, prec)
        elif len(parts) == 4 and parts[1] in ("+", "-"):
            a = parse_padic(parts[0], p, prec)
            b = parse_padic(parts[2], p, prec)
            if parts[1] == "-":
                b = -b
        else:
            raise ParseError("bad extension literal %s" % _quote(text))
    elif len(parts) == 1:
        a = parse_padic(parts[0], p, prec)
        b = PadicScalar.zero(p, prec)
    else:
        raise ParseError("bad extension literal %s" % _quote(text))
    return QuadExtScalar(a, b)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def read_int(text, label, error):
    """text as an int in the int keys' grammar, else `error` quoting it."""
    if _INT.match(text):
        try:
            return int(text)
        except ValueError:  # past int()'s limit on the digits it reads
            pass
    raise error("%s%s is not a valid int" % (label, _quote(text)))


def _int(raw, key, default):
    """raw[key] (or `default`) read by `read_int`."""
    return read_int(raw.get(key, default), "%s = " % key, ParseError)


def _rational(raw, key, default=None):
    """raw[key] (or `default`) as a Fraction; None when both are missing."""
    text = raw.get(key, default)
    if text is None:
        return None
    m = _RATIONAL.match(text)
    n, d = (_capped(x, MAX_MODULUS) for x in m.groups("1")) if m else (0, 0)
    if not m or max(n, d) > MAX_MODULUS:
        raise ParseError("%s = %s is not a rational [-]N or [-]N/D with D > 0 "
                         "and N, D at most 5^%d"
                         % (key, _quote(text), MAX_PRECISION))
    # from the integers read by length: Fraction(text) would int() it all
    return Fraction(-n if text.startswith("-") else n, d)


class Scenario:
    """A parsed, validated scenario with its runtime objects built."""

    def __init__(self, raw):
        self.name = raw.get("name", "unnamed")
        self.p = _int(raw, "p", "5")
        if not 5 <= self.p <= MAX_P or not _is_prime(self.p):
            raise ValidationError("p must be a prime between 5 and %d" % MAX_P)
        self.t = _int(raw, "t", "1")
        if self.t < 0 or self.t > 3:
            raise ValidationError("t must be between 0 and 3")
        self.r = 2 ** self.t
        family_keys = {"%s.%d" % (k, i) for k in ("u_eta", "k_eta")
                       for i in range(1, self.r + 1)}
        unknown = sorted(set(raw).difference(KEYS, family_keys))
        if unknown:
            raise ValidationError("unknown key %s" % _quote(unknown[0]))
        self.reduction_sign = _int(raw, "reduction_sign", "1")
        if self.reduction_sign not in (1, -1):
            raise ValidationError("reduction_sign must be +1 or -1")
        self.eps = _int(raw, "eps", "1")
        if self.eps not in (1, -1):
            raise ValidationError("eps must be +1 or -1")
        self.precision = _int(raw, "precision", "40")
        if not 10 <= self.precision <= MAX_PRECISION:
            raise ValidationError("precision must be between 10 and %d"
                                  % MAX_PRECISION)
        if self.p ** self.precision > MAX_MODULUS:
            raise ValidationError("p^precision must be at most 5^%d"
                                  % MAX_PRECISION)
        self.seed = _int(raw, "seed", "0")

        if "tate_period" not in raw:
            raise ValidationError("tate_period required")
        self.q = parse_padic(raw["tate_period"], self.p, self.precision)
        if self.q.is_zero():
            raise ValidationError("tate_period is zero to the working precision %d"
                                  % self.precision)
        if self.q.v < 1:
            raise ValidationError("tate_period must have positive valuation")
        if self.q.v % self.p == 0:
            raise ValidationError("tate_period valuation must be prime to p")

        self.shape = tower_shape(self.t, self.p, self.precision)
        self.units = UnitCompletion(self.p, self.precision)
        self.points = PointCompletion(self.units, self.q)

        self.family = None  # (completed point of u_eta.K, k_eta.K) pairs
        # unknown keys are rejected above, so r of them are u_eta.1 .. u_eta.r
        u_count = sum(k.startswith("u_eta.") for k in raw)
        if u_count:
            if u_count != self.r:
                raise ValidationError("need u_eta.1 .. u_eta.%d" % self.r)
            self.family = []
            for i in range(self.r):
                u = parse_quad(raw["u_eta.%d" % (i + 1)], self.p,
                               self.precision)
                if u.is_zero() or u.valuation != 0:
                    raise ValidationError("u_eta.%d must be a unit" % (i + 1))
                point = self.points.complete(u)
                if point.is_zero():
                    raise ValidationError("u_eta.%d lies in the period lattice"
                                          % (i + 1))
                k = _rational(raw, "k_eta.%d" % (i + 1), "1")
                if k == 0:
                    raise ValidationError("k_eta.%d must be nonzero" % (i + 1))
                self.family.append((point, k))

        self.c_chi = _rational(raw, "C_chi")
        self.invariant = None  # the committed invariant coordinate Q_S
        if "Q_S" in raw:
            self.invariant = parse_padic(raw["Q_S"], self.p, self.precision)

        if "suites" in raw:
            names = raw["suites"].split()
            for n in names:
                if n not in SUITES:
                    raise ValidationError("unknown suite %s" % _quote(n))
            self.suites = tuple(names)
            self.check_suites(names)
        elif self.has_family:
            self.suites = SUITES
        else:
            self.suites = tuple(s for s in SUITES if s not in FAMILY_SUITES)

    @property
    def has_family(self):
        return not (self.family is None or self.c_chi is None
                    or self.invariant is None)

    def check_suites(self, names):
        """Raise ValidationError unless every suite in `names` can run on
        this scenario."""
        if not self.has_family and set(FAMILY_SUITES) & set(names):
            raise ValidationError(
                "factorization/algebraicity need u_eta, C_chi, Q_S")


def _key_values(text):
    """The key = value pairs of a scenario text, by the line grammar."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("line %d: expected key = value" % lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError("line %d: empty key or value" % lineno)
        if key in raw:
            raise ParseError("line %d: duplicate key %s"
                             % (lineno, _quote(key)))
        raw[key] = value
    return raw


def parse_scenario(text):
    return Scenario(_key_values(text))


def load_scenario(path, precision=None):
    """The scenario in the file at `path`, its precision set to `precision`
    unless that is None.  The override follows the line grammar, so a
    malformed or repeated line is still an unusable input."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if precision is not None:
        raw = dict(_key_values(text), precision=str(precision))
        text = "".join("%s = %s\n" % kv for kv in raw.items())
    return parse_scenario(text)
