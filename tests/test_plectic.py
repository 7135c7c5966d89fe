"""Plectic operators: projectors, the r!-term expansion oracle, and the verdicts."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import expansion_oracle as oracle
from plectic import plectic_ops as po
from plectic.cli import main
from plectic.padic import INF, PadicScalar
from plectic.runner import run
from plectic.scenario import load_scenario, parse_scenario
from plectic.symalg import linear_form
from plectic.units import PointCompletion, UnitCompletion

P = 5
N = 40
U = UnitCompletion(P, N)
Q = PadicScalar(P, 1, 1, N)
PTS = PointCompletion(U, Q)
SHAPE = po.tower_shape(1, P, N)
MODULE = 2  # the (x, y) module, by its rank
GOLDEN = Path(__file__).resolve().parent.parent / "scenarios"


def mk(n):
    return PadicScalar.from_int(n, P, N)


def agreements(checks):
    """name -> each pair's agreement (uncapped), or the predicate, of the
    named checks a verdict function returns."""
    return {name: v if isinstance(v, bool) else [a.agreement(b) for a, b in v]
            for name, (v, _) in checks.items()}


def step2_margins(family, t):
    """The agreements of det W with C_G * prod L(v_i) at the r + 1 points."""
    return [a.agreement(b) for a, b in oracle.det_w_at_points(family, t)]


def rand_tensor(rng, r, dim, terms=3):
    ts = []
    for _ in range(terms):
        vecs = tuple(tuple(mk(rng.randrange(P ** 6)) for _ in range(dim))
                     for _ in range(r))
        ts.append((mk(rng.randrange(1, P ** 4)), vecs))
    return oracle.PlecticTensor(r, dim, ts)


# -- character tables ------------------------------------------------------------

def test_character_table_determinants():
    # the closed form C_G, sign included, against an exact determinant
    import sympy

    for t in (0, 1, 2, 3):
        assert po.char_table_det(t) == sympy.Matrix(po.character_table(t)).det()
    assert [po.char_table_det(t) for t in (0, 1, 2, 3)] == [1, -2, 16, 4096]


def test_int_det_and_the_oracle_determinant_match_sympy():
    # exact on small integer matrices, singular ones and ones that need a
    # row swap included; the oracle's alternating sum agrees on p-adic entries
    import sympy

    rng = random.Random(0)
    for n in range(1, 7):
        for _ in range(15):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            want = sympy.Matrix(m).det()
            assert po.int_det(m) == want
            assert oracle.leibniz_det([[mk(x) for x in row] for row in m]) \
                .agreement(mk(int(want))) >= N
    assert po.int_det([[0, 1], [1, 0]]) == -1
    assert po.int_det([[1, 2], [2, 4]]) == 0
    for t in (0, 1, 2, 3):
        assert po.int_det(po.character_table(t)) == po.char_table_det(t)


def test_a_flipped_character_fails_char_det_and_norm_det(monkeypatch):
    # char_det reads the table, not the closed form: one flipped entry
    # breaks H H^T = r I, and the twisted determinants stop being C_G * prod
    sc = load_scenario(GOLDEN / "t2-split.kv")
    assert run(sc, suites=("algebraicity",)).ok
    table = po.character_table

    def flipped(t):
        rows = table(t)
        rows[1][2] = -rows[1][2]
        return rows
    monkeypatch.setattr(po, "character_table", flipped)
    report = run(sc, suites=("algebraicity",))
    failed = {c.name for c in report.checks if not c.passed}
    assert {"algebraicity.char_det", "algebraicity.norm_det"} <= failed


def test_default_table_is_orthogonal():
    for t in (0, 1, 2, 3):
        tab = po.character_table(t)
        r = 2 ** t
        assert len(tab) == r and all(len(row) == r for row in tab)
        assert all(v in (1, -1) for row in tab for v in row)
        for i in range(r):
            for j in range(r):
                dot = sum(tab[i][k] * tab[j][k] for k in range(r))
                assert dot == (r if i == j else 0)


CONSISTENT = {"consistency": (True, "consistent")}
INCONSISTENT = {"consistency": (False, "inconsistent: nonzero invariant with "
                                "eps*eps_S*(-1)^r = -1")}


def test_sign_check_follows_the_paper_sign_rule():
    # consistent iff (-1)^r = eps * eps_S with eps_S = (-a)^r
    for t in (0, 1, 2, 3):
        r = 2 ** t
        for a in (1, -1):
            for eps in (1, -1):
                want = CONSISTENT if eps * (-a) ** r * (-1) ** r == 1 \
                    else INCONSISTENT
                assert po.sign_check(eps, a, r, mk(3)) == want


# -- projectors -------------------------------------------------------------------

def test_projectors_annihilate_each_other():
    rng = random.Random(29)
    for r in (2, 4):
        for a in (1, -1):
            sigma = oracle.make_sigma_point(a)
            x = rand_tensor(rng, r, 2)
            plus = oracle.projector(x, "+", a, sigma)
            assert oracle.projector(plus, "-", a, sigma).is_zero()
            minus = oracle.projector(x, "-", a, sigma)
            assert oracle.projector(minus, "+", a, sigma).is_zero()


def test_projector_squares_to_power_of_two():
    rng = random.Random(31)
    for r in (2, 4):
        for a in (1, -1):
            sigma = oracle.make_sigma_point(a)
            x = rand_tensor(rng, r, 2)
            for sign in ("+", "-"):
                once = oracle.projector(x, sign, a, sigma)
                twice = oracle.projector(once, sign, a, sigma)
                assert twice.agreement(once.scale(mk(2 ** r))) >= N


def test_unit_sigma_projector_kills_fixed_tensor():
    rng = random.Random(37)
    vecs = tuple((mk(rng.randrange(P ** 6)), mk(rng.randrange(P ** 6)), mk(0))
                 for _ in range(2))
    x = oracle.PlecticTensor.pure(mk(1), vecs)
    # Frobenius on completed-unit coordinates is diag(1, 1, -1)
    assert oracle.projector(x, "-", 1, lambda v: (v[0], v[1], -v[2])).is_zero()


# -- determinant map (the test oracle) ---------------------------------------------

def test_det_map_alternating():
    v1, v2 = (mk(1), mk(2)), (mk(3), mk(5))
    assert oracle.det_map([[v1, v2], [v1, v2]]).is_zero()
    v3, v4 = (mk(7), mk(11)), (mk(13), mk(4))
    d = oracle.det_map([[v1, v2], [v3, v4]])
    swapped = oracle.det_map([[v3, v4], [v1, v2]])
    assert d.agreement(swapped.scale(mk(-1))) >= N


def test_det_map_rank_one_case():
    v = (mk(9), mk(2))
    out = oracle.det_map([[v]])
    assert out.agreement(oracle.PlecticTensor.pure(mk(1), (v,))) >= N


def test_det_map_matches_cofactor_expansion():
    v1, v2 = (mk(1), mk(2)), (mk(3), mk(5))
    v3, v4 = (mk(7), mk(11)), (mk(13), mk(4))
    d = oracle.det_map([[v1, v2], [v3, v4]])
    cofactor = oracle.PlecticTensor(2, 2, [(mk(1), (v1, v4)), (mk(-1), (v3, v2))])
    assert d.agreement(cofactor) >= N


# -- norm map (the test oracle) ----------------------------------------------------

def test_norm_map_of_diagonal_tensor():
    v = (mk(3), mk(1))
    x = oracle.PlecticTensor.pure(mk(1), (v, v))
    out = oracle.norm_map(x, MODULE)
    want = linear_form(MODULE, list(v)) * linear_form(MODULE, list(v))
    assert out.agreement(want) >= N


def test_norm_map_symmetrizes():
    v, w = (mk(1), mk(0)), (mk(0), mk(1))
    x = oracle.PlecticTensor(2, 2, [(mk(1), (v, w)), (mk(1), (w, v))])
    out = oracle.norm_map(x, MODULE)
    assert out.coeffs[(1, 1)].agreement(mk(2)) >= N


def test_norm_map_injective_on_minus_line():
    m = oracle.phi_minus(mk(5), 2, U)
    assert not oracle.norm_map(m, MODULE).is_zero()


def test_phi_minus_is_the_projected_base_point():
    # the plectic point built by hand: c * (pr^- of the point of 1 + p w)^r
    rng = random.Random(41)
    base = PTS.complete(U.ext(1, P))
    for t, a in ((1, 1), (1, -1), (2, 1), (2, -1)):
        r = 2 ** t
        c = mk(rng.randrange(1, P ** 10))
        by_hand = oracle.PlecticTensor.pure(c, ((base.a, base.b),) * r)
        by_hand = oracle.projector(by_hand, "-", a, oracle.make_sigma_point(a))
        image = oracle.phi_minus(c, r, U)
        assert oracle.norm_map(image, MODULE).agreement(
            oracle.norm_map(by_hand, MODULE)) >= N


def _rand_entry(rng):
    """A zero-to-precision, unit or non-unit scalar of many digits, certified
    to a few digits below N."""
    prec = N - rng.randrange(6)
    kind = rng.randrange(3)
    if kind == 0:
        return PadicScalar.zero(P, prec)
    v = 0 if kind == 1 else rng.randrange(-2, 4)
    return PadicScalar(P, v, rng.randrange(1, P ** 12), prec)


def test_minus_projection_after_the_norm_matches_the_tensor_projector():
    # 1 - a*sigma = diag(0, 2) factor-wise, so projecting every factor and
    # then taking the norm keeps 2^r times the y^r coefficient of the norm
    rng = random.Random(43)
    for r in (1, 2, 4):
        for a in (1, -1):
            sigma = oracle.make_sigma_point(a)
            for _ in range(15):
                terms = []
                for _ in range(3):
                    coeff = (PadicScalar.from_int(rng.choice((1, -1)), P, INF)
                             if rng.randrange(2) else _rand_entry(rng))
                    terms.append((coeff, tuple(
                        (_rand_entry(rng), _rand_entry(rng)) for _ in range(r))))
                x = oracle.PlecticTensor(r, 2, terms)
                got = oracle.minus_projection(oracle.norm_map(x, MODULE))
                want = oracle.norm_map(oracle.projector(x, "-", a, sigma), MODULE)
                assert set(got.coeffs) == set(want.coeffs) <= {(0, r)}
                for k, c in want.coeffs.items():
                    assert got.coeffs[k].prec >= c.prec
                    assert got.coeffs[k].agreement(c) >= min(
                        got.coeffs[k].prec, c.prec)


# -- reciprocity and leading terms ----------------------------------------------------

def test_drec_of_zero():
    assert po.drec(PadicScalar.zero(P, N), 2, SHAPE).is_zero()


def test_drec_degree_one():
    lt = po.drec(mk(9), 1, po.tower_shape(0, P, N))
    assert set(lt.coeffs) == {((0,), (1,))}
    assert lt.coeffs[((0,), (1,))].agreement(mk(9)) >= N


def test_drec_degree_two_monomial():
    lt = po.drec(mk(1), 2, SHAPE)
    assert set(lt.coeffs) == {((0,), (1, 1))}


def test_gz_sign_is_parity_of_degree():
    # degree 1: the involution contributes a -1; degree 2: a +1
    piece = po.gz_leading_term(mk(10), 1, po.tower_shape(0, P, N))
    want = PadicScalar.from_fraction(Fraction(-10, 2), P, N)
    assert piece.coeffs[((0,), (1,))].agreement(want) >= N - 2

    piece2 = po.gz_leading_term(mk(12), 2, SHAPE)
    want2 = PadicScalar.from_fraction(Fraction(12, 4), P, N)
    assert piece2.coeffs[((0,), (1, 1))].agreement(want2) >= N - 2


def test_gz_reconstruction_contract():
    for t in (1, 2):
        shape, r = po.tower_shape(t, P, N), 2 ** t
        lhs = po.gz_leading_term(mk(77), r, shape).scale(mk(2 ** r))
        rhs = po.theta(mk(77), r, shape).involution().leading_term(r)
        assert lhs.agreement(rhs) >= N - 2


# -- sign corollary --------------------------------------------------------------------

def test_sign_check_accepts_consistent_configs():
    assert po.sign_check(1, 1, 2, mk(1)) == CONSISTENT
    # degenerate r = 1 case: (-1)^1 = eps * eps_S with eps_S = -a
    assert po.sign_check(1, 1, 1, mk(1)) == CONSISTENT


def test_sign_check_flags_contradictions():
    assert po.sign_check(-1, 1, 2, mk(1)) == INCONSISTENT


def test_sign_check_vacuous_for_zero():
    assert po.sign_check(-1, 1, 2, PadicScalar.zero(P, N)) == \
        {"consistency": (True, "vacuous")}


# -- factorization and algebraicity ------------------------------------------------------

def _golden_units(t, seed=77):
    rng = random.Random(seed)
    r = 2 ** t
    fam = []
    ks = [Fraction(1), Fraction(3, 2), Fraction(1, 3), Fraction(5, 7)]
    for i in range(r):
        fam.append((U.ext(1 + P * rng.randrange(1, P ** 8),
                          P * rng.randrange(1, P ** 8)), ks[i % 4]))
    return fam


def _golden_family(t, seed=77):
    """The units' completed points (point, k_eta), as `Scenario.family`
    holds them, with C_chi = 4 and Q_S = 2 * prod Q_eta."""
    fam = [(PTS.complete(u), k) for u, k in _golden_units(t, seed)]
    coords = po.minus_coordinates(fam, U)
    root = mk(2)
    c_s = root
    for c in coords:
        c_s = c_s * c
    return fam, Fraction(4), c_s


def test_factorization_round_trip():
    for t in (1, 2):
        fam, c_chi, c_s = _golden_family(t)
        res = agreements(po.factorization_check(fam, c_chi, c_s, U))
        assert min(res["square"]) >= 30
        linear, root_square = res["sqrt"]
        assert linear >= 30
        assert root_square >= 30


def test_factorization_detects_mutations():
    _, c_chi, c_s = _golden_family(1)
    (u1, k1), (u2, k2) = _golden_units(1)
    mutated = [(PTS.complete(u1), k1), (PTS.complete(u2 * U.ext(1, P ** 3)), k2)]
    res = agreements(po.factorization_check(mutated, c_chi, c_s, U))
    assert res["square"][0] < 30 and res["sqrt"][1] < 30


def test_factorization_wrong_constant_fails():
    fam, c_chi, c_s = _golden_family(1)
    res = agreements(po.factorization_check(fam, c_chi + 1, c_s, U))
    assert res["square"][0] < 30 and res["sqrt"][1] < 30


def test_algebraicity_pipeline():
    for t in (1, 2):
        fam, c_chi, c_s = _golden_family(t)
        res = po.algebraicity_check(fam, t, c_s, U)
        assert res["char_det"] == (True, "C_G=%d" % po.char_table_det(t))
        res = agreements(res)
        assert res["norm_det"] is True
        assert min(res["plectic_point"]) >= 25
        assert min(step2_margins(fam, t)) >= 25


@pytest.mark.parametrize("name,prec,step2,step3", [
    ("t1-split.kv", 40, 41, 41),
    ("t2-split.kv", 40, 43, 42),
    ("t1-split.kv", 160, 161, 161),
    ("t2-split.kv", 160, 163, 162),
    ("t3-split.kv", 40, 47, 47),
])
def test_algebraicity_margins_on_the_golden_scenarios(name, prec, step2, step3):
    # the uncapped margins, for both reduction signs; step 2 is evaluated
    # here, as norm_det checks det H = C_G
    text = (GOLDEN / name).read_text()
    for a in (1, -1):
        lines = [ln for ln in text.splitlines() if ln.split("=")[0].strip()
                 not in ("precision", "reduction_sign")]
        sc = parse_scenario("\n".join(
            lines + ["precision = %d" % prec, "reduction_sign = %d" % a]))
        res = agreements(po.algebraicity_check(
            sc.family, sc.t, sc.invariant, sc.units))
        assert res["norm_det"] is True
        assert (min(step2_margins(sc.family, sc.t)), res["plectic_point"]) \
            == (step2, [step3])


def _seeded_family(rng, r):
    """r units with v(b) from 1 to 5, some with a = 1 exactly, and an
    invariant root * prod Q_eta certified to 36..39 relative digits, like a
    committed Q_S.  The family holds the units' completed points."""
    ks = [Fraction(1), Fraction(3, 2), Fraction(1, 3), Fraction(5, 7),
          Fraction(2, 5)]
    fam = []
    for _ in range(r):
        b = P ** rng.randint(1, 5) * rng.choice(
            (rng.randrange(1, P), P * rng.randrange(P ** 7) + rng.randrange(1, P)))
        a = rng.choice((1, rng.randrange(1, P) + P * rng.randrange(P ** 8)))
        fam.append((PTS.complete(U.ext(a, b)), rng.choice(ks)))
    c_s = mk(rng.choice((2, 3)))
    for c in po.minus_coordinates(fam, U):
        c_s = c_s * c
    return fam, c_s.truncate(c_s.v + N - 1 - rng.randrange(4))


def _factorization_case(rng, case):
    """C_chi and Q_S for one seeded family: a square C_chi (right or
    wrong), one off by p^k, a non-square, a p-divisible one, Q_S shifted
    by p^k, and Q_S = 0."""
    square = rng.choice((4, 9))
    c_chi = [square, square + P ** rng.randint(1, 45) * rng.randrange(1, P),
             rng.choice((2, 3, 7, 8)), square * P ** rng.randint(1, 3),
             square, square][case]
    return Fraction(c_chi)


def test_factorization_check_matches_the_tensor_reference():
    # the same uncapped margins and root as the rank-one tensor check, or
    # the same failed nonvanishing equivalence
    margins, violated = [], 0
    for seed in range(72):
        rng = random.Random(seed)
        t, case = 1 + seed % 3, seed // 3 % 6
        fam, c_s = _seeded_family(rng, 2 ** t)
        c_chi = _factorization_case(rng, case)
        if case == 4:
            c_s = c_s + mk(P ** rng.randint(0, 45))
        elif case == 5:
            c_s = PadicScalar.zero(P, N)
        want = oracle.factorization_by_tensor(fam, c_chi, c_s, U)
        if "identity" in want:
            assert want == {"identity": (False, "nonvanishing equivalence "
                                         "violated")}
            assert po.factorization_check(fam, c_chi, c_s, U) == want
            violated += 1
            continue
        got = agreements(po.factorization_check(fam, c_chi, c_s, U))
        (square,), (linear, root_square) = got["square"], got["sqrt"]
        assert (square, linear, root_square, got["c_chi_square"]) == \
            (want["square_margin"], want["linear_margin"],
             want["root_square_margin"], want["c_chi_is_padic_square"])
        _, root = po._root(fam, c_s, U)
        want_root = want["root"]
        assert (root.v, root.unit, root.prec) == \
            (want_root.v, want_root.unit, want_root.prec)
        margins += [square, root_square]
    # every Q_S = 0 violates it; the margins reach from diverged to exact
    assert violated == 12
    assert min(margins) < 1 and max(margins) >= N


def test_algebraicity_check_matches_the_expansion_oracle():
    # step 2 evaluated at r + 1 points and step 3's y-column product
    # against the r!-term expansion of the whole forms, uncapped margins
    # included
    margins = []
    for seed in range(60):
        rng = random.Random(seed)
        t = 1 + seed % 2
        fam, c_s = _seeded_family(rng, 2 ** t)
        c_g, step2, step3 = oracle.algebraicity_by_expansion(fam, t, c_s, U)
        got = po.algebraicity_check(fam, t, c_s, U)
        assert got["char_det"] == (True, "C_G=%d" % c_g)
        got = agreements(got)
        assert got["norm_det"] is True
        assert (min(step2_margins(fam, t)), got["plectic_point"]) \
            == (step2, [step3])
        margins += [step2, step3]
    # the families reach below the working precision and above it
    assert min(margins) < N < max(margins)


def test_the_identity_suites_complete_no_unit(monkeypatch):
    # the scenario completes the period and each u_eta once, at parse; the
    # factorization and algebraicity suites read those completed points
    calls = []
    complete = UnitCompletion.complete

    def counted(self, u):
        calls.append(u)
        return complete(self, u)

    monkeypatch.setattr(UnitCompletion, "complete", counted)
    sc = load_scenario(GOLDEN / "t2-split.kv")
    assert len(calls) == sc.r + 1
    report = run(sc, suites=("factorization", "algebraicity"))
    assert report.ok and len(calls) == sc.r + 1


def test_algebraicity_keeps_its_margin_on_a_lossy_unit(tmp_path, capsys):
    # v(b) = 5 in u_eta.1 costs step 3 two digits, as the expansion did
    text = (GOLDEN / "t2-split.kv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("u_eta.1 ")]
    lossy = tmp_path / "lossy.kv"
    lossy.write_text("\n".join(lines + ["u_eta.1 = 1e0 + 1e5 w"]) + "\n")
    assert main(["verify", str(lossy), "--suite", "algebraicity",
                 "--format", "kv"]) == 0
    assert "algebraicity.plectic_point=pass margin=38\n" in capsys.readouterr().out

