import hashlib
import json
import math

import mpmath
import pytest

from deadline import deadline
from setcensus import asymptotics as asy
from setcensus import exact, species
from setcensus.errors import DomainError, PrecisionError
from test_imports import run_child

SQRT_2PI = math.sqrt(2 * math.pi)


def egf_sums(cls, x, terms, head=40):
    """Independent head-sum oracle for C, xC', x^2 C'' with Hurwitz-zeta tails.

    Only synthetic classes: sizes up to head use their rounded integer
    counts; above it the count is the growth formula b n^-(1+alpha) rho^-n n!,
    which the rounding changes by far less than float precision there, so
    those terms are summed unrounded from float logs.
    """
    assert cls.coeff_source is species.CoeffSource.SYNTHETIC
    g = cls.growth
    counts = species.coefficients(cls, min(head, terms))
    C = A = D = 0.0
    for n in range(1, terms + 1):
        if n <= head:
            if counts[n - 1] == 0:
                continue
            log_c = math.log(counts[n - 1]) - math.lgamma(n + 1)
        else:
            log_c = math.log(g.b) - (1 + g.alpha) * math.log(n) - n * math.log(g.rho)
        t = math.exp(log_c + n * math.log(x))
        C += t
        A += n * t
        D += n * (n - 1) * t
    if abs(x - g.rho) <= 1e-15 * g.rho:
        a = terms + 1
        C += g.b * float(mpmath.zeta(1 + g.alpha, a))
        A += g.b * float(mpmath.zeta(g.alpha, a))
        D += g.b * float(mpmath.zeta(g.alpha - 1, a) - mpmath.zeta(g.alpha, a))
    return C, A, D


class TestGamma:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.5, 4.0, 7.3, -0.5, -2.3, -1.0 / 3.0])
    def test_matches_math_gamma(self, z):
        assert asy.gamma_fn(z) == pytest.approx(math.gamma(z), rel=1e-12)

    def test_half_integer_values(self):
        assert asy.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert asy.gamma_fn(-0.5) == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(DomainError):
            asy.gamma_fn(z)


class TestRecipe:
    def test_trees_recipe(self):
        rc = asy.recipe_constants(species.builtin("trees"))
        assert rc.zeta == pytest.approx(1.0, abs=1e-12)
        assert rc.b == pytest.approx(1 / SQRT_2PI, abs=1e-12)
        assert rc.rho == pytest.approx(math.exp(-1), abs=1e-12)
        assert rc.lambda_star == pytest.approx(0.5, abs=1e-12)
        assert rc.C_rho == pytest.approx(0.5, abs=1e-12)

    def test_cacti_recipe(self):
        rc = asy.recipe_constants(species.builtin("cacti"))
        assert rc.zeta == pytest.approx(0.456310987308, abs=1e-9)
        assert rc.b == pytest.approx(0.120149812501, abs=1e-9)
        assert rc.rho == pytest.approx(0.238740143685, abs=1e-9)
        assert rc.lambda_star == pytest.approx(0.634000977801, abs=1e-9)
        assert rc.C_rho == pytest.approx(0.289301612134, abs=1e-9)

    def test_husimi_recipe(self):
        rc = asy.recipe_constants(species.builtin("husimi"))
        # zeta solves zeta*e^zeta = 1, i.e. the omega constant W(1)
        assert rc.zeta == pytest.approx(0.567143290410, abs=1e-9)
        assert rc.b == pytest.approx(0.180737599797, abs=1e-9)
        assert rc.rho == pytest.approx(0.264380447350, abs=1e-9)
        assert rc.lambda_star == pytest.approx(0.582509094876, abs=1e-9)
        assert rc.C_rho == pytest.approx(0.330366124762, abs=1e-9)

    def test_recipe_identities(self):
        for name in ("cacti", "husimi"):
            cls = species.builtin(name)
            rc = asy.recipe_constants(cls)
            spec = cls.block_spec
            assert rc.zeta * spec.Bpp(rc.zeta) == pytest.approx(1.0, abs=1e-10)
            assert rc.rho == pytest.approx(rc.zeta * math.exp(-spec.Bp(rc.zeta)), rel=1e-12)
            assert rc.C_rho == pytest.approx(rc.zeta * rc.lambda_star, rel=1e-12)

    def test_not_subcritical(self):
        # B = u^2/4 capped at R = 1/4 keeps t*B'' = t/2 below 1
        spec = species.BlockSpec(
            kind="poly",
            B=lambda t: t * t / 4,
            Bp=lambda t: t / 2,
            Bpp=lambda t: 0.5,
            Bppp=lambda t: 0.0,
            R=0.25,
            gap=None,
        )
        cls = species.ConnectedClass("flat", species.CoeffSource.BLOCK_DERIVED, None, spec)
        with pytest.raises(asy.NotSubcriticalError):
            asy.solve_zeta(cls)

    def test_root_far_below_one(self, tmp_path):
        # B' = u + 1e300 u^2: zeta + 2e300 zeta^2 = 1 puts zeta near 2^-1/2 1e-150,
        # 500 halvings below the bracket end 1 that the upward search finds.  There
        # 1e300 zeta^2 = 1/2, so lambda* = 1/2 + 1/6 up to O(zeta), B' = 1/2 and
        # zeta^2 B''' = 1, while zeta^3 alone lies below the float range
        path = tmp_path / "steep.json"
        doc = {"name": "steep", "block": {"kind": "poly", "bprime": ["0", "1", "1e300"]}}
        path.write_text(json.dumps(doc))
        rc = asy.recipe_constants(species.from_file(path))
        zeta = 2**-0.5 * 1e-150
        assert rc.zeta == pytest.approx(zeta, rel=1e-12)
        assert rc.lambda_star == pytest.approx(2 / 3, rel=1e-12)
        assert rc.C_rho == pytest.approx(2 / 3 * zeta, rel=1e-12)
        assert rc.rho == pytest.approx(zeta * math.exp(-0.5), rel=1e-12)
        assert rc.b == pytest.approx(zeta / math.sqrt(4 * math.pi), rel=1e-12)


class TestScalarEvaluation:
    def test_lambda_star_trees(self):
        assert asy.lambda_star(species.builtin("trees")) == pytest.approx(0.5, abs=1e-12)

    def test_lambda_star_synthetic_against_head_sum(self):
        cls = species.synthetic(1, 0.5, 2.5)
        C, A, _ = egf_sums(cls, cls.growth.rho, 3000)
        assert asy.lambda_star(cls) == pytest.approx(C / A, abs=1e-7)

    def test_alpha2_evaluation_against_head_sum(self):
        cls = species.synthetic(1, 0.5, 2)
        C, A, _ = egf_sums(cls, cls.growth.rho, 3000)
        Cm, Am, _ = asy._egf_at(cls, cls.growth.rho)
        assert Cm == pytest.approx(C, rel=1e-8)
        assert asy.lambda_star(cls) == pytest.approx(C / A, abs=1e-7)

    def test_explicit_list_lambda_star(self):
        # declared growth extends the list by the formula tail beyond its reach
        cls = species.from_coefficients("single", [1], species.GrowthParams(1, 1, 1.5))
        lam_star = asy.lambda_star(cls)
        assert 0 < lam_star < 1
        # a bare list has no radius of convergence to work with
        with pytest.raises(DomainError):
            asy.lambda_star(species.from_coefficients("bare", [1]))

    def test_bare_list_has_no_scalar_egf(self):
        with pytest.raises(DomainError, match="supports no scalar EGF evaluation"):
            asy._egf_at(species.from_coefficients("bare", [1, 1, 3]), 0.3)

    def test_count_past_the_float_range_is_a_precision_error(self):
        cls = species.from_coefficients("big", [1, 10**400], species.GrowthParams(1, 0.5, 2))
        with pytest.raises(PrecisionError, match="size 2 at x = 0.5 exceeds") as info:
            asy.lambda_star(cls)
        assert info.value.suggested is None

    def test_huge_rho_fails_fast(self):
        with deadline(5), pytest.raises(DomainError, match="256"):
            asy.lambda_star(species.synthetic(1, 1e300, 2))

    def test_numpy_and_fraction_points(self):
        from fractions import Fraction

        import numpy as np

        cls = species.builtin("cacti")
        want = asy._egf_at(cls, 0.2)
        assert asy._egf_at(cls, np.float64(0.2)) == want
        assert asy._egf_at(cls, Fraction(1, 5)) == want
        assert asy._egf_at(cls, np.float32(0.2)) == asy._egf_at(cls, float(np.float32(0.2)))
        with pytest.raises(DomainError):
            asy._egf_at(cls, "0.2")

    def test_ratio_monotone_on_disk(self):
        cls = species.builtin("husimi")
        rho = cls.growth.rho
        last = 0.0
        for i in range(1, 11):
            C, A, _ = asy._egf_at(cls, rho * i / 10.5)
            assert A / C > last
            last = A / C


class TestFloatTail:
    """The float64 tail against mpmath's Lerch transcendent and Hurwitz zeta."""

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.7])
    @pytest.mark.parametrize(
        "z", [0.01, 0.3, 0.7, 0.9, 1 - asy._TAIL_BAND, 1 - asy._TAIL_BAND / 2, 1.0]
    )
    def test_matches_mpmath(self, z, alpha):
        for s in (alpha - 1, alpha, alpha + 1):
            for H in (1, 64):
                got = asy._tail(z, s, H)
                if z == 1.0 and s <= 1:
                    assert got == math.inf
                    continue
                with mpmath.workdps(40):
                    if z == 1.0:
                        want = mpmath.zeta(s, H + 1)
                    else:
                        want = mpmath.mpf(z) ** (H + 1) * mpmath.lerchphi(z, s, H + 1)
                    assert abs(got - want) <= 1e-12 * want, (z, s, H)


def _zeta40(s, H):
    """float(zeta(s, H + 1)) from mpmath, with 40 of its digits exact.

    For s below half its working precision in bits, mpmath sums the first
    terms in fixed point, 40 digits after the point and not 40 digits of the
    sum; a sum below 1 there gets its decimal exponent added to the digits.
    """
    with mpmath.workdps(40):
        value = mpmath.zeta(s, H + 1)
    if 0 < value < 1 and s < 100:
        with mpmath.workdps(41 - int(mpmath.log10(value))):
            value = mpmath.zeta(s, H + 1)
    return float(value)


_HURWITZ_S = (1 + 1e-6, 1.05, 1.1, 1.5, 2, 2.5, 3, 3.7, 4.7, 6, 10, 30, 60)
_HURWITZ_H = (0, 1, 2, 10, 47, 48, 64, 65, 240, 1000, 10**5)
_HURWITZ_HUGE_S = (1e3, 1e6, 1e300)


class TestHurwitzTail:
    """The tail at z = 1 is the double nearest 40-digit mpmath.zeta(s, H + 1), exactly."""

    @pytest.mark.parametrize("s", _HURWITZ_S)
    def test_grid(self, s):
        for H in _HURWITZ_H:
            assert asy._tail(1.0, s, H) == _zeta40(s, H), (s, H)

    @pytest.mark.parametrize(
        "s, H",
        [(s, H) for s in _HURWITZ_HUGE_S for H in _HURWITZ_H + (species._MAX_TABLE,)]
        + [(s, species._MAX_TABLE) for s in _HURWITZ_S],
    )
    def test_huge_s_and_longest_head(self, s, H):
        want = _zeta40(s, H)
        with deadline(5):
            got = asy._tail(1.0, s, H)
        assert got == want

    def test_no_decimal_context_setting_reaches_the_sums(self):
        # the tail sets every field of its decimal context and count_log's exact
        # tier uses no decimal, so odd defaults and an odd thread context change nothing
        cells = [(1.5, 0), (1.5, 1), (2.5, 64), (3.0, 64), (30.0, 47), (1e300, 1)]
        code = (
            "import decimal, json\n"
            "from setcensus import asymptotics, exact, species\n"
            "odd = dict(prec=3, rounding=decimal.ROUND_FLOOR, Emin=-9, Emax=9)\n"
            "for field, value in odd.items():\n"
            "    setattr(decimal.DefaultContext, field, value)\n"
            "decimal.DefaultContext.traps[decimal.Inexact] = True\n"
            "decimal.setcontext(decimal.Context(**odd, traps=[decimal.Inexact, "
            "decimal.Underflow, decimal.FloatOperation]))\n"
            "trees = species.builtin('trees')\n"
            "print(json.dumps([exact.count_log(trees, 10, 3), exact.count_log(trees, 40, 30)]\n"
            f"    + [asymptotics._tail(1.0, s, H) for s, H in {cells!r}]))"
        )
        trees = species.builtin("trees")
        want = [exact.count_log(trees, 10, 3), exact.count_log(trees, 40, 30)]
        want += [asy._tail(1.0, s, H) for s, H in cells]
        assert run_child(code) == want


# (alpha, lambda, x_lambda, C(x_lambda), sigma2) of synthetic(1, 0.5, alpha),
# computed by the 70-step bisection and Newton polish the saddle used before;
# the first lambda of each alpha is lambda* + 1e-6.
FROZEN_LAMBDA_STAR = {2.5: 0.8227462569866653, 1.5: 0.5143694339697948}
FROZEN_SADDLES = [
    (2.5, 0.8227472569866653, 0.49999916976477476, 1.1628594879626746, 0.8883803386373257),
    (2.5, 0.85, 0.4626143344285044, 1.0598428929207213, 0.3704939587445726),
    (2.5, 0.9, 0.34944574222695746, 0.7699168417493379, 0.1561564593921554),
    (2.5, 0.99, 0.039709960203838005, 0.08021912002646608, 0.010284272815056283),
    (1.5, 0.5143704339697949, 0.4999999999990568, 1.2881500603617688, 1001824.5948959847),
    (1.5, 0.85, 0.33421459652584395, 0.7535046247060162, 0.3640304745195939),
    (1.5, 0.9, 0.2598593756197001, 0.5655684493176418, 0.1850305170521931),
    (1.5, 0.99, 0.037775014438575644, 0.07629152084399883, 0.010793145957319394),
]


class TestSupercritical:
    @pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
    def test_trees_closed_forms(self, lam):
        sp = asy.solve_supercritical(species.builtin("trees"), lam)
        y = 2 * (1 - lam)
        assert sp.y_lambda == pytest.approx(y, abs=1e-11)
        assert sp.x_lambda == pytest.approx(y * math.exp(-y), abs=1e-11)
        assert sp.C_x_lambda == pytest.approx(2 * lam * (1 - lam), abs=1e-11)
        assert sp.sigma2 == pytest.approx(
            (1 - lam) / (lam * lam * (2 * lam - 1)), rel=1e-10
        )

    def test_boundary_approach(self):
        sp = asy.solve_supercritical(species.builtin("trees"), 0.5 + 1e-6)
        assert abs(sp.y_lambda - 1.0) < 1e-5

    def test_cacti_residual(self):
        cls = species.builtin("cacti")
        sp = asy.solve_supercritical(cls, 0.8)
        spec = cls.block_spec
        y = sp.y_lambda
        assert abs(1 - spec.Bp(y) + spec.B(y) / y - 0.8) < 1e-10
        assert sp.x_lambda == pytest.approx(y * math.exp(-spec.Bp(y)), rel=1e-12)
        assert sp.C_x_lambda == pytest.approx(0.8 * y, rel=1e-12)

    @pytest.mark.parametrize(
        "name,lam",
        [
            pytest.param(name, lam, id=f"{lam}-{name}")
            for name, lams in [
                ("cacti", [0.9, 0.95, 0.99, 0.999]),
                ("husimi", [0.9, 0.95, 0.99, 0.999]),
                ("poly", [0.99, 0.999, 0.9999]),
            ]
            for lam in lams
        ],
    )
    def test_block_saddle_near_one(self, tmp_path, name, lam):
        # against the root of g(t) = B'(t) - B(t)/t = 1 - lambda at 40 digits
        def g(t):
            if name == "husimi":
                return mpmath.expm1(t) - (mpmath.exp(t) - t - 1) / t
            if name == "poly":  # B' = u + u^2/2 + u^3/2
                return t + t**2 / 2 + t**3 / 2 - (t**2 / 2 + t**3 / 6 + t**4 / 8) / t
            Bp = t / 2 - mpmath.mpf(1) / 2 + 1 / (2 * (1 - t))
            return Bp - (t * t / 4 - t / 2 - mpmath.log1p(-t) / 2) / t

        if name == "poly":
            path = tmp_path / "c4.json"
            path.write_text(
                '{"name": "c4", "block": {"kind": "poly", "bprime": ["0", "1", "1/2", "1/2"]}}'
            )
            cls = species.from_file(str(path))
        else:
            cls = species.builtin(name)
        with mpmath.workdps(40):
            target = 1 - mpmath.mpf(lam)
            want = mpmath.findroot(lambda t: g(t) - target, 2 * target)
            got = asy.solve_supercritical(cls, lam).y_lambda
            assert float(abs(got - want) / want) <= 1e-14

    def test_scalar_class_residual(self):
        cls = species.synthetic(1, 0.5, 2.5)
        sp = asy.solve_supercritical(cls, 0.9)
        C, A, _ = asy._egf_at(cls, sp.x_lambda)
        assert abs(A / C - 1 / 0.9) < 1e-9

    @pytest.mark.parametrize("alpha,lam,x,C,sigma2", FROZEN_SADDLES)
    def test_scalar_saddle_grid(self, monkeypatch, alpha, lam, x, C, sigma2):
        cls = species.synthetic(1, 0.5, alpha)
        assert asy.lambda_star(cls) == pytest.approx(FROZEN_LAMBDA_STAR[alpha], rel=1e-12)
        calls = []
        egf_at = asy._egf_at

        def counting(*args, **kwargs):
            calls.append(args[1])
            return egf_at(*args, **kwargs)

        monkeypatch.setattr(asy, "_egf_at", counting)
        sp = asy.solve_supercritical(cls, lam)
        assert len(calls) <= 40
        assert sp.x_lambda == pytest.approx(x, rel=1e-12)
        assert sp.C_x_lambda == pytest.approx(C, rel=1e-12)
        assert sp.sigma2 == pytest.approx(sigma2, rel=1e-12)

    def test_scalar_cache_is_bounded(self):
        cls = species.synthetic(1, 0.5, 2.5)
        lam_star = asy.lambda_star(cls)
        for i in range(200):
            asy.solve_supercritical(cls, lam_star + 0.01 + (0.98 - lam_star) * i / 200)
            asy._egf_at(cls, 0.45 * (i + 1) / 200)
            assert len(cls._scalar_cache) <= species._SCALAR_CACHE_MAX
        cacti = species.builtin("cacti")
        rc = asy.recipe_constants(cacti)
        for i in range(200):
            asy._egf_at(cacti, rc.rho * (i + 1) / 201)
            assert len(cacti._scalar_cache) <= species._SCALAR_CACHE_MAX
        assert asy.recipe_constants(cacti) == rc

    def test_saddle_is_solved_once_per_lambda(self, monkeypatch):
        trees = species.builtin("trees")
        trees._scalar_cache.clear()
        calls = []
        block = asy._supercritical_block

        def counting(cls, lam):
            calls.append(lam)
            return block(cls, lam)

        monkeypatch.setattr(asy, "_supercritical_block", counting)
        first = asy.solve_supercritical(trees, 0.75)
        assert asy.solve_supercritical(trees, 0.75) is first
        assert calls == [0.75]

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.99999999, 1.0, 1.5])
    def test_domain(self, lam):
        trees = species.builtin("trees")
        if 0 < lam < 1 and lam > 0.5 + 1e-9:
            asy.solve_supercritical(trees, lam)
        else:
            with pytest.raises(DomainError):
                asy.solve_supercritical(trees, lam)


# Block files B' = u + u^2/2 + u^3/2 (c4) and u + u^3/3 (p3)
_FROZEN_BLOCK_FILES = {
    "c4": ["0", "1", "1/2", "1/2"],
    "p3": ["0", "1", "0", "1/3"],
}
_FROZEN_BLOCK_LAMBDAS = (0.6, 0.75, 0.85, 0.9, 0.95, 0.99, 0.999, 0.9999)

# SHA-256 prefixes of repr(recipe_constants) and repr(solve_supercritical) at
# every lambda of _FROZEN_BLOCK_LAMBDAS above lambda*, newline-joined, as the
# block route gave them before the block specs lost their series copies
_FROZEN_BLOCK_ROUTE = {
    "trees": "ac61181ecb50bf2d",
    "cacti": "9f958804c9160080",
    "husimi": "433c709c0315fa42",
    "c4": "fd1d68323ba920cb",
    "p3": "4508560d64d2a3de",
}


class TestFrozenBlockRoute:
    """The float block route (recipe and saddle), bit for bit."""

    @pytest.mark.parametrize("name", sorted(_FROZEN_BLOCK_ROUTE))
    def test_recipe_and_saddles(self, tmp_path, name):
        if name in _FROZEN_BLOCK_FILES:
            path = tmp_path / f"{name}.json"
            doc = {"name": name, "block": {"kind": "poly", "bprime": _FROZEN_BLOCK_FILES[name]}}
            path.write_text(json.dumps(doc))
            cls = species.from_file(str(path))
        else:
            cls = species.builtin(name)
        rc = asy.recipe_constants(cls)
        lines = [repr(rc)] + [
            repr(asy.solve_supercritical(cls, lam))
            for lam in _FROZEN_BLOCK_LAMBDAS
            if lam > rc.lambda_star
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert digest == _FROZEN_BLOCK_ROUTE[name]


class TestConstants:
    def test_below_trees(self):
        want = math.sqrt(2 / math.pi) * 0.25 / 0.5**2.5
        assert asy.constant_below(species.builtin("trees"), 0.25) == pytest.approx(
            want, abs=1e-9
        )

    def test_below_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            asy.constant_below(species.builtin("trees"), 0.5)

    def test_critical_trees(self):
        want = 3 ** (-1 / 3) / math.gamma(1 / 3)
        assert asy.constant_critical(species.builtin("trees")) == pytest.approx(
            want, abs=1e-8
        )

    def test_critical_formula_shape(self):
        # alpha = 3/2 with alpha*C(rho)/(lambda_star*b) = 1.5 gives
        # (1.5/|Gamma(-1/2)|)^{2/3}/|Gamma(-2/3)|
        val = (1.5 / abs(asy.gamma_fn(-0.5))) ** (2 / 3) / abs(asy.gamma_fn(-2 / 3))
        assert val == pytest.approx(0.1402609823732296, abs=1e-9)

    def test_critical_alpha2_matches_head_sum(self):
        cls = species.synthetic(1, 0.5, 2)
        C, A, _ = egf_sums(cls, cls.growth.rho, 3000)
        want = math.sqrt(C / (1.0 * math.pi * (C / A)))
        assert asy.constant_critical(cls) == pytest.approx(want, rel=1e-6)

    def test_critical_rejects_large_alpha(self):
        with pytest.raises(DomainError):
            asy.constant_critical(species.synthetic(1, 0.5, 3))

    @pytest.mark.parametrize(
        "lam,want",
        [
            (0.75, math.sqrt(0.75 * 0.5 / (2 * math.pi * 0.25))),
            (0.9, math.sqrt(0.9 * 0.8 / (2 * math.pi * 0.1))),
        ],
    )
    def test_above_trees(self, lam, want):
        assert asy.constant_above(species.builtin("trees"), lam) == pytest.approx(
            want, abs=1e-9
        )

    def test_above_at_lambda_star_needs_alpha_gt_2(self):
        with pytest.raises(DomainError):
            asy.constant_above(species.builtin("trees"), 0.5)

    def test_finite_variance_alpha3(self):
        cls = species.synthetic(1, 0.5, 3)
        s2 = asy._sigma2_at_rho(cls)
        assert math.isfinite(s2) and s2 > 0
        assert asy.constant_above(cls, asy.lambda_star(cls)) > 0


class TestEstimate:
    def test_regime_tags(self):
        trees = species.builtin("trees")
        assert asy.estimate(trees, 100, 0.25).regime is asy.Regime.BELOW
        assert asy.estimate(trees, 100, 0.5).regime is asy.Regime.CRITICAL
        assert asy.estimate(trees, 100, 0.75).regime is asy.Regime.ABOVE

    def test_critical_window_is_tight(self):
        trees = species.builtin("trees")
        assert asy.estimate(trees, 100, 0.5 + 5e-10).regime is asy.Regime.CRITICAL
        assert asy.estimate(trees, 100, 0.5 + 1e-6).regime is asy.Regime.ABOVE

    def test_component_count_floor(self):
        est = asy.estimate(species.builtin("trees"), 10, 0.25)
        assert est.N == 2
        # floor guard: lambda*n hitting an integer boundary from below
        assert asy.estimate(species.builtin("trees"), 10, 0.3).N == 3

    @pytest.mark.parametrize("n,lam", [(1, 0.5), (2.5, 0.5), (100, 0.0), (100, 1.0)])
    def test_domain(self, n, lam):
        with pytest.raises(DomainError):
            asy.estimate(species.builtin("trees"), n, lam)

    def test_too_few_components(self):
        with pytest.raises(DomainError):
            asy.estimate(species.builtin("trees"), 5, 0.1)

    def test_factor_sum_reproduces_log_count(self):
        for lam in (0.25, 0.5, 0.75):
            est = asy.estimate(species.builtin("trees"), 200, lam)
            f = est.factors
            total = (
                f.log_constant
                + f.n_power_exponent * math.log(est.n)
                + (
                    f.log_power_exponent * math.log(math.log(est.lambda_star * est.n))
                    if f.log_power_exponent
                    else 0.0
                )
                + f.log_rho_inv_n
                + f.N_log_h
                + f.log_factorial_ratio
            )
            assert total == est.log_count

    def test_alpha_cases(self):
        assert (
            asy.estimate(species.synthetic(1, 0.5, 1.5), 100, 0.5).alpha_case
            is asy.AlphaCase.LT2
        )
        cls2 = species.synthetic(1, 0.5, 2)
        est2 = asy.estimate(cls2, 100, asy.lambda_star(cls2))
        assert est2.alpha_case is asy.AlphaCase.EQ2
        assert est2.factors.log_power_exponent == -0.5
        cls3 = species.synthetic(1, 0.5, 3)
        est3 = asy.estimate(cls3, 100, asy.lambda_star(cls3))
        assert est3.alpha_case is asy.AlphaCase.GT2
        assert est3.factors.log_power_exponent == 0.0

    def test_close_to_exact_supercritical(self):
        from setcensus import exact

        trees = species.builtin("trees")
        est = asy.estimate(trees, 100, 0.75)
        lg = exact.count_log(trees, 100, est.N)
        assert abs(math.exp(est.log_count - lg) - 1) < 0.01
