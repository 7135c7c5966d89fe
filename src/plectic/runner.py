"""Executes verification suites on a parsed scenario and renders reports."""

import itertools
import random
import time

from . import plectic_ops as po
from .errors import NotProportional, PlecticError, ValidationError
from .grpalg import GroupAlgebraElem, check_lemma_free_graded_injectivity
from .kernel import certified_rank
from .padic import INF, PadicScalar, QuadExtScalar, quad_teichmuller
from .scenario import SUITES
from .symalg import SymTensor, collapse, mu, sqrt_ratio
from .tate import TateCurve, tate_period_from_j, j_invariant
from .units import CompletedUnit

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
        if floor > precision:
            # margins are capped at the precision, so no check could pass
            raise ValidationError("floor %d exceeds the working precision %d"
                                  % (floor, precision))
        self.scenario_name = scenario_name
        self.floor = floor
        self.precision = precision
        self.checks = []
        self.elapsed = 0.0

    def add(self, name, verdict, note=""):
        """Record one check.  A bool `verdict` is an exact predicate, worth
        the working precision or -1; otherwise it is (lhs, rhs) pairs, worth
        their least agreement (INF for none), clamped to [-1, precision]."""
        if isinstance(verdict, bool):
            margin = self.precision if verdict else -1
        else:
            # starmap drops each pair once its agreement is taken
            margin = min(itertools.starmap(lambda lhs, rhs: lhs.agreement(rhs),
                                           verdict), default=INF)
            margin = int(max(-1, min(margin, self.precision)))
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
        u = QuadExtScalar.from_parts(a, b, p, prec)
        if u.valuation == 0 and (u - one).valuation <= 2:
            return u


# -- individual suites --------------------------------------------------------

def suite_units(sc, report, rng):
    units = sc.units
    prec = sc.precision
    one = PadicScalar.one(sc.p, prec)
    c = units.complete(QuadExtScalar.from_base(
        PadicScalar.from_int(sc.p, sc.p, prec)))
    report.add("units.uniformizer", c.val == one and c.log.is_zero())

    zeta = quad_teichmuller(units.ext(2, 0))
    report.add("units.torsion_dies", units.complete(zeta).is_zero())

    draws = ((_random_unit(rng, units), _random_unit(rng, units))
             for _ in range(25))
    report.add("units.homomorphism",
               ((units.complete(u * v), units.complete(u) + units.complete(v))
                for u, v in draws))

    u = _random_unit(rng, units)
    cu = units.complete(u)
    report.add("units.sigma_involution",
               [(units.sigma(units.sigma(cu)), cu),
                (units.complete(u.frobenius()), units.sigma(cu))])

    gen = units.norm_one_generator()
    report.add("units.minus_generator", [(units.minus_project(gen), one)])

    zero = PadicScalar.zero(sc.p, prec)
    ident = [[one if i == j else zero for j in range(3)] for i in range(3)]
    basis = [CompletedUnit(v, QuadExtScalar(a, b)) for v, a, b in ident]
    # an involution of trace 1 has rank(1 - sigma) = 1, rank(1 + sigma) = 2
    images = [units.sigma(c) for c in basis]
    involution = all(units.sigma(image) == c for image, c in zip(images, basis))
    trace = images[0].val + images[1].log.a + images[2].log.b - one
    report.add("units.eigenspace_ranks", involution and trace.is_zero(),
               "sigma^2 = 1 and tr sigma = 1")


def suite_tate(sc, report, rng):
    units = sc.units
    curve = TateCurve(sc.q)
    q_ext = QuadExtScalar.from_base(sc.q)
    report.add("tate.kernel", all(
        curve.phi(q_ext ** k if k else units.ext(1, 0)).is_infinity()
        for k in range(-2, 3)))

    def homomorphism():
        for _ in range(20):
            u, v = _random_unit(rng, units), _random_unit(rng, units)
            lhs = curve.phi(u * v)
            yield lhs, curve.add(curve.phi(u), curve.phi(v))
            yield curve.curve_equation(lhs)
    report.add("tate.homomorphism", homomorphism(),
               "units with v(u - 1) <= 2; the margin is prec - 4*v(u - 1)")

    u = _random_unit(rng, units)
    pt = curve.phi(u)
    report.add("tate.negation", [(curve.phi(u.inverse()), curve.negate(pt))])
    report.add("tate.frobenius", [(curve.phi(u.frobenius()), curve.sigma(pt))])
    report.add("tate.j_roundtrip",
               [(tate_period_from_j(j_invariant(sc.q)), sc.q)])

    u0 = units.norm_one_unit()
    report.add("tate.minus_injective", not curve.phi(u0).is_infinity()
               and not sc.points.complete(u0).is_zero())


def suite_grpalg(sc, report, rng):
    shape = sc.shape
    inj_degree = min(sc.r, 3)
    top = min(4, 2 * sc.r)  # an exponent in {0, 1, 2}^r has sum <= 2r
    one = GroupAlgebraElem.one(shape)
    if shape.s >= 2:
        g = GroupAlgebraElem.group_elem(shape, None, (1,) + (0,) * (shape.s - 1))
        h = GroupAlgebraElem.group_elem(shape, None, (0, 1) + (0,) * (shape.s - 2))
        gh = GroupAlgebraElem.group_elem(shape, None, (1, 1) + (0,) * (shape.s - 2))
        report.add("grpalg.expansion",
                   [((g - one) * (h - one), gh - g - h + one)])

    def rand_elem(min_deg, exact=False):
        # four monomials of degree >= min_deg, exponents in {0, 1, 2}^s; with
        # `exact` the first takes min_deg <= 2s of 2s slots, two a variable
        out = {}
        for i in range(4):
            if exact and i == 0:
                picks = rng.sample(range(2 * shape.s), min_deg)
                e = tuple(sum(k // 2 == j for k in picks) for j in range(shape.s))
            else:
                while True:
                    e = tuple(rng.randrange(3) for _ in range(shape.s))
                    if sum(e) >= min_deg:
                        break
            k = tuple(rng.randrange(d) for d in shape.divisors), e
            c = PadicScalar.from_int(rng.randrange(1, sc.p ** 6), sc.p, shape.prec)
            out[k] = out[k] + c if k in out else c
        return GroupAlgebraElem(shape, out)

    x = rand_elem(0)
    y = rand_elem(0)

    ix = x.involution()
    pairs = [(ix.involution(), x), ((x * y).involution(), ix * y.involution())]
    report.add("grpalg.involution", pairs, "iota o iota factor by factor; "
               "truncation only where iota(xy) = iota(x) iota(y) is compared, t <= 3")

    zs = ((n, rand_elem(n, True)) for n in range(1, top + 1) for _ in range(6))
    report.add("grpalg.diagram_sign",
               ((z.involution().leading_term(n), z.leading_term(n).dual())
                for n, z in zs))

    try:
        check_lemma_free_graded_injectivity(shape, inj_degree)
        report.add("grpalg.injectivity", True, "degree %d = min(r, 3)" % inj_degree)
    except PlecticError as e:
        report.add("grpalg.injectivity", False, str(e))


def suite_symalg(sc, report, rng):
    p, prec = sc.p, sc.precision
    samples = 40
    mk = lambda n: PadicScalar.from_int(n, p, prec)
    basis = [[mk(1), mk(0)], [mk(0), mk(1)]]
    images = (mu([2, 2], [(mk(1), [vi, vj])]) for vi in basis for vj in basis)
    report.add("symalg.mu_injective", certified_rank(images) == 4,
               "permutation certificate: 4 unit monomials, no two alike")

    def rand_vec():
        return [mk(rng.randrange(p ** 6)), mk(rng.randrange(1, p ** 6))]

    v, w = rand_vec(), rand_vec()
    report.add("symalg.collapse_commutes", [(collapse(2, [(mk(1), [v, w])]),
                                             collapse(2, [(mk(1), [w, v])]))])

    roundtrips = []
    fails = 0
    # the certification floor comes from the precision alone: at 0 a tensor
    # off by a unit would pass, whatever floor the report applies
    cert_floor = prec // 2
    for _ in range(samples):
        y = collapse(2, [(mk(rng.randrange(1, p ** 4)), [rand_vec(), rand_vec()])])
        a = mk(rng.randrange(1, p ** 8))
        roundtrips.append((sqrt_ratio(y.scale(a), y, cert_floor), a))
        bad = y.scale(a) + SymTensor(2, 2, {(2, 0): mk(1 + rng.randrange(p - 1))})
        try:
            sqrt_ratio(bad, y, cert_floor)
        except NotProportional:
            fails += 1
    report.add("symalg.sqrt_roundtrip", roundtrips)
    report.add("symalg.sqrt_rejects", fails == samples)

    report.add("symalg.no_zero_divisors", all(
        not (collapse(2, [(mk(1), [rand_vec(), rand_vec()])])
             * collapse(2, [(mk(1), [rand_vec(), rand_vec()])])).is_zero()
        for _ in range(samples)))


def suite_gz(sc, report, rng):
    shape = sc.shape
    prec = sc.precision
    if sc.invariant is not None and not sc.invariant.is_zero():
        c = sc.invariant
    else:
        c = PadicScalar.from_int(1 + rng.randrange(sc.p ** 6), sc.p, prec)
    lhs = po.gz_leading_term(c, sc.r, shape).scale(
        PadicScalar.from_int(2 ** sc.r, sc.p, INF))
    rhs = po.theta(c, sc.r, shape).involution().leading_term(sc.r)
    report.add("gz.leading_term", [(lhs, rhs)])


def suite_sign(sc, report, rng):
    c = sc.invariant
    if c is None:
        c = PadicScalar.one(sc.p, sc.precision)
    _add_named(report, "sign", po.sign_check,
               sc.eps, sc.reduction_sign, sc.r, c)


def _add_named(report, suite, check, *args):
    """Record each check that `check(*args)` names, as name -> (verdict,
    note), or its error as the one failed check `<suite>.identity`."""
    try:
        checks = check(*args)
    except PlecticError as e:
        checks = {"identity": (False, str(e))}
    for name, (verdict, note) in checks.items():
        report.add(suite + "." + name, verdict, note)


def suite_factorization(sc, report, rng):
    _add_named(report, "factorization", po.factorization_check,
               sc.family, sc.c_chi, sc.invariant, sc.units)


def suite_algebraicity(sc, report, rng):
    _add_named(report, "algebraicity", po.algebraicity_check,
               sc.family, sc.t, sc.invariant, sc.units)


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
    scenario.check_suites(chosen)  # an unrunnable suite is reported before a bad floor
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
