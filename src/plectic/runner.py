"""Executes verification suites on a parsed scenario and renders reports."""

import math
import random
import time

from . import plectic_ops as po
from .errors import (InconsistentSigns, NotProportional, PlecticError,
                     ValidationError)
from .grpalg import GroupAlgebraElem, check_lemma_free_graded_injectivity
from .linalg import rank
from .padic import INF, PadicScalar, QuadExtScalar
from .scenario import SUITES
from .symalg import FreeModule, SymTensor, collapse, mu, sqrt_ratio
from .tate import TateCurve, tate_period_from_j, j_invariant

DEFAULT_FLOOR = 30


class CheckResult:
    def __init__(self, name, passed, margin, note=""):
        self.name = name
        self.passed = passed
        self.margin = margin
        self.note = note


class Report:
    def __init__(self, scenario_name, floor, precision):
        if floor < 0:
            # a diverged check reports margin -1, which such a floor passes
            raise ValidationError("floor %d is negative" % floor)
        self.scenario_name = scenario_name
        self.floor = floor
        self.precision = precision
        self.checks = []
        self.elapsed = 0.0

    def add(self, name, margin, note=""):
        """Record one check, its margin clamped to [-1, precision]."""
        if math.isinf(margin):
            margin = -1 if margin < 0 else self.precision
        margin = max(-1, min(int(margin), self.precision))
        self.checks.append(CheckResult(name, margin >= self.floor, margin, note))

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def render_kv(self):
        lines = []
        for c in self.checks:
            lines.append("%s=%s margin=%d" % (c.name,
                                              "pass" if c.passed else "fail",
                                              c.margin))
        lines.append("summary=%s checks=%d" % ("pass" if self.ok else "fail",
                                               len(self.checks)))
        return "\n".join(lines) + "\n"

    def render_human(self):
        width = max((len(c.name) for c in self.checks), default=10) + 2
        lines = ["scenario %s (floor %d digits)" % (self.scenario_name, self.floor)]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = "  %-*s %s  margin=%d" % (width, c.name, status, c.margin)
            if c.note:
                line += "  (%s)" % c.note
            lines.append(line)
        lines.append("%d/%d checks passed in %.2fs"
                     % (sum(c.passed for c in self.checks), len(self.checks),
                        self.elapsed))
        return "\n".join(lines) + "\n"


def _random_unit(rng, units):
    """A unit u with v(u - 1) <= 2, so series lose few digits."""
    p, prec = units.p, units.prec
    one = units.ext(1, 0)
    while True:
        a = rng.randrange(p ** prec)
        b = rng.randrange(p ** prec)
        u = QuadExtScalar.from_parts(a, b, p, prec, units.c)
        if u.valuation == 0 and (u - one).valuation <= 2:
            return u


# -- individual suites --------------------------------------------------------

def suite_units(sc, report, rng):
    units = sc.units
    prec = sc.precision
    c = units.complete(QuadExtScalar.from_base(
        PadicScalar.from_int(sc.p, sc.p, prec), units.c))
    exact = (c.val.agreement(PadicScalar.one(sc.p, prec)) >= prec
             and c.log_a.is_zero() and c.log_b.is_zero())
    report.add("units.uniformizer", prec if exact else -1)

    from .padic import quad_teichmuller
    zeta = quad_teichmuller(units.ext(2, 0))
    report.add("units.torsion_dies",
               prec if units.complete(zeta).is_zero() else -1)

    margin = INF
    for _ in range(25):
        u, v = _random_unit(rng, units), _random_unit(rng, units)
        lhs = units.complete(u * v)
        rhs = units.complete(u) + units.complete(v)
        margin = min(margin, lhs.agreement(rhs))
    report.add("units.homomorphism", margin)

    u = _random_unit(rng, units)
    cu = units.complete(u)
    m1 = units.sigma(units.sigma(cu)).agreement(cu)
    m2 = units.complete(u.frobenius()).agreement(units.sigma(cu))
    report.add("units.sigma_involution", min(m1, m2))

    gen = units.norm_one_generator()
    coord = units.minus_project(gen)
    report.add("units.minus_generator",
               coord.agreement(PadicScalar.one(sc.p, prec)))

    one = PadicScalar.one(sc.p, prec)
    zero = PadicScalar.zero(sc.p, prec)
    sigma = units.sigma_matrix()
    ident = [[one if i == j else zero for j in range(3)] for i in range(3)]
    minus = [[ident[i][j] - sigma[i][j] for j in range(3)] for i in range(3)]
    plus = [[ident[i][j] + sigma[i][j] for j in range(3)] for i in range(3)]
    ranks_ok = rank(minus) == 1 and rank(plus) == 2
    prod = [[sum((minus[i][k] * plus[k][j] for k in range(3)),
                 start=zero) for j in range(3)] for i in range(3)]
    ann = all(prod[i][j].is_zero() for i in range(3) for j in range(3))
    report.add("units.eigenspace_ranks", prec if ranks_ok and ann else -1)


def suite_tate(sc, report, rng):
    units = sc.units
    prec = sc.precision
    curve = TateCurve(sc.q)
    q_ext = QuadExtScalar.from_base(sc.q, units.c)
    kernel_ok = all(curve.phi(q_ext ** k if k else units.ext(1, 0)).is_infinity()
                    for k in range(-2, 3))
    report.add("tate.kernel", prec if kernel_ok else -1)

    margin = INF
    for _ in range(20):
        u, v = _random_unit(rng, units), _random_unit(rng, units)
        lhs = curve.phi(u * v)
        rhs = curve.add(curve.phi(u), curve.phi(v))
        margin = min(margin, lhs.agreement(rhs), curve.on_curve_margin(lhs))
    report.add("tate.homomorphism", margin)

    u = _random_unit(rng, units)
    pt = curve.phi(u)
    report.add("tate.negation",
               curve.phi(u.inverse()).agreement(curve.negate(pt)))
    report.add("tate.frobenius",
               curve.phi(u.frobenius()).agreement(curve.sigma(pt)))
    report.add("tate.j_roundtrip",
               tate_period_from_j(j_invariant(sc.q)).agreement(sc.q))

    u0 = units.norm_one_unit()
    inj = not curve.phi(u0).is_infinity() and not sc.points.complete(u0).is_zero()
    report.add("tate.minus_injective", prec if inj else -1)


def suite_grpalg(sc, report, rng):
    shape = sc.config.shape
    inj_degree = min(sc.r, 3)
    top = min(4, 2 * sc.r)  # an exponent in {0, 1, 2}^r has sum <= 2r
    one = GroupAlgebraElem.one(shape)
    if shape.s >= 2:
        g = GroupAlgebraElem.group_elem(shape, None, (1,) + (0,) * (shape.s - 1))
        h = GroupAlgebraElem.group_elem(shape, None, (0, 1) + (0,) * (shape.s - 2))
        gh = GroupAlgebraElem.group_elem(shape, None, (1, 1) + (0,) * (shape.s - 2))
        lhs = (g - one) * (h - one)
        rhs = gh - g - h + one
        report.add("grpalg.expansion", lhs.agreement(rhs))

    def rand_elem(min_deg):
        out = GroupAlgebraElem.zero(shape)
        for _ in range(4):
            while True:
                e = tuple(rng.randrange(3) for _ in range(shape.s))
                if sum(e) >= min_deg:
                    break
            q = tuple(rng.randrange(d) for d in shape.divisors)
            out = out + GroupAlgebraElem.monomial(shape, q, e,
                                                  rng.randrange(1, sc.p ** 6))
        return out

    x = rand_elem(0)
    y = rand_elem(0)
    m = min(x.involution().involution().agreement(x),
            (x * y).involution().agreement(x.involution() * y.involution()))
    report.add("grpalg.involution", m)

    margin = INF
    for n in range(1, top + 1):
        for _ in range(6):
            z = rand_elem(n)
            margin = min(margin, z.involution_leading_term(n).agreement(
                z.leading_term(n).dual()))
    report.add("grpalg.diagram_sign", margin)

    try:
        check_lemma_free_graded_injectivity(shape, inj_degree)
        report.add("grpalg.injectivity", sc.precision)
    except PlecticError as e:
        report.add("grpalg.injectivity", -INF, str(e))


def suite_symalg(sc, report, rng):
    p, prec = sc.p, sc.precision
    samples = 40
    mk = lambda n: PadicScalar.from_int(n, p, prec)
    M1 = FreeModule(["e1", "e2"])
    M2 = FreeModule(["f1", "f2"])
    images = []
    for i in range(2):
        for j in range(2):
            vi = [mk(1 if k == i else 0) for k in range(2)]
            vj = [mk(1 if k == j else 0) for k in range(2)]
            images.append(mu([M1, M2], [(mk(1), [vi, vj])]))
    monos = sorted(set().union(*[set(b.coeffs) for b in images]))
    zero = PadicScalar.zero(p, prec)
    matrix = [[b.coeffs.get(mo, zero) for b in images] for mo in monos]
    report.add("symalg.mu_injective", prec if rank(matrix) == 4 else -1)

    def rand_vec():
        return [mk(rng.randrange(p ** 6)), mk(rng.randrange(1, p ** 6))]

    v, w = rand_vec(), rand_vec()
    m = collapse(M1, [(mk(1), [v, w])]).agreement(collapse(M1, [(mk(1), [w, v])]))
    report.add("symalg.collapse_commutes", m)

    margin = INF
    fails = 0
    # the certification floor comes from the precision alone: at 0 a tensor
    # off by a unit would pass, whatever floor the report applies
    cert_floor = prec // 2
    for _ in range(samples):
        y = collapse(M1, [(mk(rng.randrange(1, p ** 4)), [rand_vec(), rand_vec()])])
        a = mk(rng.randrange(1, p ** 8))
        got = sqrt_ratio(y.scale(a), y, cert_floor)
        margin = min(margin, got.agreement(a))
        bad = y.scale(a) + SymTensor(M1, 2, {(2, 0): mk(1 + rng.randrange(p - 1))})
        try:
            sqrt_ratio(bad, y, cert_floor)
        except NotProportional:
            fails += 1
    report.add("symalg.sqrt_roundtrip", margin)
    report.add("symalg.sqrt_rejects", prec if fails == samples else -1)

    nz = all(not (collapse(M1, [(mk(1), [rand_vec(), rand_vec()])])
                  * collapse(M1, [(mk(1), [rand_vec(), rand_vec()])])).is_zero()
             for _ in range(samples))
    report.add("symalg.no_zero_divisors", prec if nz else -1)


def suite_gz(sc, report, rng):
    shape = sc.config.shape
    prec = sc.precision
    if sc.invariant is not None and not sc.invariant.is_zero():
        c = sc.invariant
    else:
        c = PadicScalar.from_int(1 + rng.randrange(sc.p ** 6), sc.p, prec)
    piece = po.gz_leading_term(c, sc.r, shape)
    ell = piece.as_elem()
    lhs = ell.leading_term(sc.r).scale(
        PadicScalar.from_int(2 ** sc.r, sc.p, INF))
    rhs = po.theta(c, sc.r, shape).involution_leading_term(sc.r)
    report.add("gz.leading_term", lhs.agreement(rhs))


def suite_sign(sc, report, rng):
    c = sc.invariant
    if c is None:
        c = PadicScalar.one(sc.p, sc.precision)
    try:
        verdict = po.sign_check(sc.config, c)
        report.add("sign.consistency", sc.precision, note=verdict["verdict"])
    except InconsistentSigns as e:
        report.add("sign.consistency", -INF, "inconsistent: %s" % e)


def suite_factorization(sc, report, rng):
    try:
        res = po.factorization_check(sc.family, sc.c_chi, sc.invariant,
                                     sc.units)
        report.add("factorization.square", res["square_margin"])
        report.add("factorization.sqrt",
                   min(res["linear_margin"], res["root_square_margin"]))
        square = res["c_chi_is_padic_square"]
        report.add("factorization.c_chi_square", sc.precision if square else -1,
                   note="square in Z_p" if square else "not a square in Z_p")
    except PlecticError as e:
        report.add("factorization.identity", -INF, str(e))


def suite_algebraicity(sc, report, rng):
    try:
        res = po.algebraicity_check(sc.family, sc.config, sc.invariant,
                                    sc.units, sc.points)
        want = sc.r ** (sc.r // 2)
        report.add("algebraicity.char_det",
                   sc.precision if abs(res["c_g"]) == want else -1,
                   note="C_G=%d" % res["c_g"])
        report.add("algebraicity.norm_det", res["step2_margin"])
        report.add("algebraicity.plectic_point", res["step3_margin"])
    except PlecticError as e:
        report.add("algebraicity.identity", -INF, str(e))


SUITE_FUNCS = {
    "units": suite_units,
    "tate": suite_tate,
    "grpalg": suite_grpalg,
    "symalg": suite_symalg,
    "gz": suite_gz,
    "sign": suite_sign,
    "factorization": suite_factorization,
    "algebraicity": suite_algebraicity,
}


def run(scenario, suites=None, floor=DEFAULT_FLOOR, seed=None):
    chosen = suites if suites else scenario.suites
    seed = scenario.seed if seed is None else seed
    report = Report(scenario.name, floor, scenario.precision)
    start = time.monotonic()
    for name in SUITES:
        if name not in chosen:
            continue
        # string seeds hash deterministically across processes
        rng = random.Random("%d:%s" % (seed, name))
        SUITE_FUNCS[name](scenario, report, rng)
    report.elapsed = time.monotonic() - start
    return report
