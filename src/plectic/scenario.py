"""Scenario files: flat key-value text describing one verification run.

Grammar (UTF-8, one `key = value` per line, `#` comments, blank lines ok):

    name           string
    p              odd prime >= 5
    t              tower exponent, r = 2^t
    reduction_sign +1 or -1
    eps            +1 or -1 (global sign; default 1)
    precision      base-p digits of working precision (default 40)
    trunc_degree   group-algebra truncation (default 2r + 2)
    free_rank      free rank of the group shape (default r)
    seed           RNG seed for property checks (default 0)
    tate_period    p-adic literal (required)
    char_table     rows of +-1 separated by ';' (default: canonical table)
    tau            r group elements as bit strings, ';'-separated (default:
                   the group elements in order)
    u_eta.K        quadratic-extension literal, K = 1..r
    k_eta.K        rational (default 1)
    C_chi          rational factorization constant
    Q_S            p-adic literal: the committed invariant coordinate
    suites         subset of the suite names (default: all)

p-adic literals are base-p digit lists, low digit first, joined by '.',
followed by 'e' and the valuation: `2.1.2.1e0` means 2 + p + 2p^2 + p^3.
Quadratic literals are `A`, `A + B w`, or `A - B w` with A, B p-adic
literals.
"""

import re
from fractions import Fraction

from .errors import ParseError, ValidationError
from .padic import PadicScalar, QuadExtScalar
from .plectic_ops import PlecticConfig, PlecticInvariant
from .units import PointCompletion, UnitCompletion

SUITES = ("units", "tate", "grpalg", "symalg", "gz", "sign",
          "factorization", "algebraicity")

_PADIC = re.compile(r"^(\d+(?:\.\d+)*)e(-?\d+)$")


def parse_padic(text, p, prec):
    m = _PADIC.match(text.strip())
    if not m:
        raise ParseError("bad p-adic literal %r" % text)
    digits = [int(d) for d in m.group(1).split(".")]
    if any(d >= p for d in digits):
        raise ParseError("digit >= p in %r" % text)
    return PadicScalar.from_digits(digits, int(m.group(2)), p, prec)


def parse_quad(text, p, prec, c):
    parts = text.strip().split()
    if parts and parts[-1] == "w":
        if len(parts) == 2:  # "B w"
            a = PadicScalar.zero(p, prec)
            b = parse_padic(parts[0], p, prec)
        elif len(parts) == 4 and parts[1] in "+-":
            a = parse_padic(parts[0], p, prec)
            b = parse_padic(parts[2], p, prec)
            if parts[1] == "-":
                b = -b
        else:
            raise ParseError("bad extension literal %r" % text)
    elif len(parts) == 1:
        a = parse_padic(parts[0], p, prec)
        b = PadicScalar.zero(p, prec)
    else:
        raise ParseError("bad extension literal %r" % text)
    return QuadExtScalar(a, b, c)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _number(kind, raw, key, default=None):
    """raw[key] (or `default`) read as `kind`; None when both are missing."""
    text = raw.get(key, default)
    if text is None:
        return None
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("%s = %r is not a valid %s" % (key, text, kind.__name__))


class Scenario:
    """A parsed, validated scenario with its runtime objects built."""

    def __init__(self, raw):
        self.name = raw.get("name", "unnamed")
        self.p = _number(int, raw, "p", "5")
        if not _is_prime(self.p) or self.p < 5:
            raise ValidationError("p must be a prime >= 5")
        self.t = _number(int, raw, "t", "1")
        if self.t < 0 or self.t > 3:
            raise ValidationError("t must be between 0 and 3")
        self.r = 2 ** self.t
        self.reduction_sign = _number(int, raw, "reduction_sign", "1")
        self.eps = _number(int, raw, "eps", "1")
        self.precision = _number(int, raw, "precision", "40")
        if self.precision < 10:
            raise ValidationError("precision must be at least 10")
        self.seed = _number(int, raw, "seed", "0")
        self.trunc_degree = _number(int, raw, "trunc_degree")
        self.free_rank = _number(int, raw, "free_rank")

        if "tate_period" not in raw:
            raise ValidationError("tate_period required")
        self.q = parse_padic(raw["tate_period"], self.p, self.precision)
        if self.q.is_zero() or self.q.v < 1:
            raise ValidationError("tate_period must have positive valuation")
        if self.q.v % self.p == 0:
            raise ValidationError("tate_period valuation must be prime to p")

        table = None
        if "char_table" in raw:
            try:
                table = [[int(v) for v in row.split()]
                         for row in raw["char_table"].split(";")]
            except ValueError:
                raise ParseError("char_table entries must be integers")
        tau = None
        if "tau" in raw:
            tau = []
            for part in raw["tau"].split(";"):
                bits = part.split()
                if len(bits) == 1 and len(bits[0]) == self.t:
                    bits = list(bits[0])
                if len(bits) != self.t:
                    raise ParseError("tau entry %r needs %d bits" % (part, self.t))
                try:
                    tau.append(tuple(int(b) for b in bits))
                except ValueError:
                    raise ParseError("tau entry %r must be bits" % part)

        self.config = PlecticConfig(
            self.t, self.p, self.reduction_sign, self.q, self.eps,
            char_table=table, tau=tau, prec=self.precision,
            trunc_degree=self.trunc_degree, free_rank=self.free_rank)
        self.units = UnitCompletion(self.p, self.precision)
        self.points = PointCompletion(self.units, self.q, self.reduction_sign)

        self.family = None
        u_keys = sorted(k for k in raw if k.startswith("u_eta."))
        if u_keys:
            expect = ["u_eta.%d" % (i + 1) for i in range(self.r)]
            if u_keys != expect:
                raise ValidationError("need u_eta.1 .. u_eta.%d" % self.r)
            self.family = []
            for i in range(self.r):
                u = parse_quad(raw["u_eta.%d" % (i + 1)], self.p,
                               self.precision, self.units.c)
                if u.is_zero() or u.valuation != 0:
                    raise ValidationError("u_eta.%d must be a unit" % (i + 1))
                if self.points.complete(u).is_zero():
                    raise ValidationError("u_eta.%d lies in the period lattice"
                                          % (i + 1))
                k = _number(Fraction, raw, "k_eta.%d" % (i + 1), "1")
                if k == 0:
                    raise ValidationError("k_eta.%d must be nonzero" % (i + 1))
                self.family.append((u, k))

        self.c_chi = _number(Fraction, raw, "C_chi")
        self.invariant = None
        if "Q_S" in raw:
            c = parse_padic(raw["Q_S"], self.p, self.precision)
            self.invariant = PlecticInvariant.scalar(
                self.r, c, self.config.shape.q_identity())

        if "suites" in raw:
            names = raw["suites"].split()
            for n in names:
                if n not in SUITES:
                    raise ValidationError("unknown suite %r" % n)
            self.suites = tuple(names)
        else:
            self.suites = SUITES

        needs_family = {"factorization", "algebraicity"}
        if needs_family & set(self.suites):
            if self.family is None or self.c_chi is None or self.invariant is None:
                if "suites" in raw:
                    raise ValidationError(
                        "factorization/algebraicity need u_eta, C_chi, Q_S")
                self.suites = tuple(s for s in self.suites
                                    if s not in needs_family)


def parse_scenario(text):
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
            raise ParseError("line %d: duplicate key %r" % (lineno, key))
        raw[key] = value
    return Scenario(raw)


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
