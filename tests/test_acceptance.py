"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Each test prints ``ACCEPTANCE <nn> <name> PASS|FAIL (<elapsed> / <budget>)``
with capture suspended so the verdicts are visible in ordinary pytest runs,
then asserts.  Statistical checks run on fixed seeds with margins validated
ahead of time, so the suite is deterministic.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

import bruteforce
from chisquare import chi_square_sf
from setcensus import asymptotics as asy
from setcensus import exact, sampler, species, weights

BUILTINS = ("trees", "cacti", "husimi")


def criterion(num, name, budget_s):
    """Wrap a test body: measure elapsed time, print one verdict line, assert."""

    def deco(fn):
        def wrapper(capsys):
            t0 = time.perf_counter()
            try:
                detail = fn() or ""
            except BaseException:
                elapsed = time.perf_counter() - t0
                _verdict(capsys, num, name, False, elapsed, budget_s, "")
                raise
            elapsed = time.perf_counter() - t0
            on_time = elapsed < budget_s
            _verdict(capsys, num, name, on_time, elapsed, budget_s, detail)
            assert on_time, f"{name} took {elapsed:.1f}s, budget {budget_s}s"

        # keep the original test name for pytest, but not __wrapped__:
        # fixture resolution must see wrapper's capsys parameter
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return deco


def _verdict(capsys, num, name, ok, elapsed, budget, detail):
    line = "ACCEPTANCE %02d %-28s %s (%5.1fs / %ds)" % (
        num,
        name,
        "PASS" if ok else "FAIL",
        elapsed,
        budget,
    )
    if detail:
        line += "  " + detail
    with capsys.disabled():
        print(line, flush=True)


def _check_recipe(name, shown, frozen):
    # cold rebuild so the verdict time covers the whole computation
    species._builtin_cache.pop(name, None)
    rc = asy.recipe_constants(species.builtin(name))
    for field_name, disp in shown.items():
        got = getattr(rc, field_name)
        # the reference prints are truncated (not rounded) to five decimals
        assert math.floor(got * 1e5) == round(disp * 1e5), (
            f"{name} {field_name} = {got!r} does not start with the digits of {disp}"
        )
        assert abs(got - frozen[field_name]) < 1e-9, (
            f"{name} {field_name} = {got!r} drifts from the frozen oracle "
            f"{frozen[field_name]}"
        )


@criterion(1, "cactus-recipe-constants", 1)
def test_criterion_01_cactus_constants():
    _check_recipe(
        "cacti",
        {"zeta": 0.45631, "b": 0.12014, "rho": 0.23874, "lambda_star": 0.63400,
         "C_rho": 0.28930},
        {"zeta": 0.456310987308, "b": 0.120149812501, "rho": 0.238740143685,
         "lambda_star": 0.634000977801, "C_rho": 0.289301612134},
    )
    return "five constants match the printed digits and 12-digit oracles"


@criterion(2, "husimi-recipe-constants", 1)
def test_criterion_02_husimi_constants():
    _check_recipe(
        "husimi",
        {"zeta": 0.56714, "b": 0.18073, "rho": 0.26438, "lambda_star": 0.58250,
         "C_rho": 0.33036},
        {"zeta": 0.567143290410, "b": 0.180737599797, "rho": 0.264380447350,
         "lambda_star": 0.582509094876, "C_rho": 0.330366124762},
    )
    return "five constants match the printed digits and 12-digit oracles"


@criterion(3, "tree-closed-forms", 1)
def test_criterion_03_tree_closed_forms():
    trees = species.builtin("trees")
    assert abs(asy.lambda_star(trees) - 0.5) < 1e-9
    for lam in (0.6, 0.75, 0.9):
        sp = asy.solve_supercritical(trees, lam)
        y = 2 * (1 - lam)
        assert abs(sp.x_lambda - y * math.exp(-y)) < 1e-9
        assert abs(sp.C_x_lambda - 2 * lam * (1 - lam)) < 1e-9
    below = math.sqrt(2 / math.pi) * 0.25 / 0.5**2.5
    assert abs(asy.constant_below(trees, 0.25) - below) < 1e-9
    crit = 3 ** (-1 / 3) / math.gamma(1 / 3)
    assert abs(asy.constant_critical(trees) - crit) < 1e-8
    above = math.sqrt(0.75 * 0.5 / (2 * math.pi * 0.25))
    assert abs(asy.constant_above(trees, 0.75) - above) < 1e-9
    return "lambda*, saddle points and all three regime constants match"


@criterion(4, "exhaustive-graph-census", 120)
def test_criterion_04_counts_vs_brute_force():
    checked = 0
    for n in range(1, 7):
        want = bruteforce.census(n)
        for name in BUILTINS:
            table = exact.count_table(species.builtin(name), n)
            got = {k: c for k, c, _lg in table.rows if c}
            assert got == want[name], f"{name} at n = {n}: {got} != {want[name]}"
            checked += len(got)
    return f"{checked} (class, n, k) cells match the 2^15-graph enumeration"


@criterion(5, "supercritical-accuracy", 120)
def test_criterion_05_supercritical_accuracy():
    trees = species.builtin("trees")
    errs = []
    for n in (100, 200, 400):
        est = asy.estimate(trees, n, 0.75)
        lg = exact.count_log(trees, n, est.N)
        errs.append(abs(math.exp(est.log_count - lg) - 1.0))
    assert errs[0] > errs[1] > errs[2], f"errors not decreasing: {errs}"
    assert errs[2] < 0.05, f"relative error {errs[2]} at n = 400"
    return "relative errors %.4f > %.4f > %.4f" % tuple(errs)


@criterion(6, "subcritical-convergence", 300)
def test_criterion_06_subcritical_convergence():
    trees = species.builtin("trees")
    devs = []
    for n in (200, 400, 800):
        est = asy.estimate(trees, n, 0.25)
        lg = exact.count_log(trees, n, est.N)
        devs.append(abs(math.exp(est.log_count - lg) - 1.0))
    assert devs[0] > devs[1] > devs[2], f"ratios not approaching 1: {devs}"
    assert devs[2] < 0.2, f"ratio off by {devs[2]} at n = 800"
    return "|ratio-1| %.4f > %.4f > %.4f" % tuple(devs)


@criterion(7, "log-corrected-critical-fit", 600)
def test_criterion_07_log_correction_helps():
    cls = species.synthetic(1, 0.5, 2)
    lam_star = asy.lambda_star(cls)
    pairs = []
    for n in (500, 1000, 2000):
        est = asy.estimate(cls, n, lam_star)
        assert est.regime is asy.Regime.CRITICAL
        assert est.alpha_case is asy.AlphaCase.EQ2
        lg = exact.count_log(cls, n, est.N)
        # the plain power law drops the (log lambda* n)^{-1/2} factor
        plain = est.log_count - est.factors.log_power_exponent * math.log(
            math.log(lam_star * n)
        )
        err_corrected = abs(math.exp(est.log_count - lg) - 1.0)
        err_plain = abs(math.exp(plain - lg) - 1.0)
        assert err_corrected < err_plain, (
            f"n = {n}: corrected {err_corrected} not better than plain {err_plain}"
        )
        pairs.append((err_corrected, err_plain))
    return "corrected vs plain: " + " ".join(
        "%.3f<%.2f" % p for p in pairs
    )


@criterion(8, "sum-probability-identity", 60)
def test_criterion_08_sum_probability_identity():
    trees = species.builtin("trees")
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 3)):
        for x in (Fraction(1, 10), Fraction(1, 5)):
            P = sampler.sum_size_probability_exact(trees, x, k, n)
            counts = species.coefficients(trees, n - k + 1)
            C_trunc = sum(
                Fraction(counts[j - 1], math.factorial(j)) * x**j
                for j in range(1, n - k + 2)
            )
            lhs = Fraction(math.factorial(k), math.factorial(n)) * exact.count(trees, n, k)
            rhs = C_trunc**k * x**-n * P
            assert abs(lhs - rhs) < Fraction(1, 10**10), (n, k, x, lhs, rhs)
    want = float(sampler.sum_size_probability_exact(trees, Fraction(1, 10), 2, 4))
    mc = sampler.mc_sum_probability(
        trees, 0.1, 2, 4, 100000, np.random.default_rng(2026)
    )
    dev = abs(mc.estimate - want)
    assert dev <= 3 * mc.stderr, f"MC {mc.estimate} vs exact {want}, 3se = {3 * mc.stderr}"
    return "8 exact identities hold; MC within %.2f stderr" % (dev / mc.stderr)


@criterion(9, "forest-sampler-uniformity", 60)
def test_criterion_09_forest_uniformity():
    bins = bruteforce.forests_with_components(4, 2)
    assert len(bins) == 15
    rng = np.random.default_rng(2026)
    counts = Counter()
    for _ in range(100000):
        f = sampler.sample_forest(4, 2, rng=rng)
        counts[frozenset(e for t in f.trees for e in t)] += 1
    assert set(counts) == set(bins), "sampler reached a non-forest edge set"
    expected = 100000 / 15
    chi2 = sum((counts[b] - expected) ** 2 / expected for b in bins)
    p = chi_square_sf(chi2, 14)
    assert p > 1e-3, f"chi2 = {chi2:.2f}, p = {p:.2e}"
    # fixed seed, fixed stream: the draw is reproducible
    again = sampler.sample_forest(4, 2, rng=np.random.default_rng(2026))
    first = sampler.sample_forest(4, 2, rng=np.random.default_rng(2026))
    assert again == first
    return "chi2 = %.1f on 14 df, p = %.3f" % (chi2, p)


@criterion(10, "growth-constant-consistency", 60)
def test_criterion_10_growth_consistency():
    details = []
    for name in BUILTINS:
        cls = species.builtin(name)
        g = cls.growth
        if cls.coeff_source is species.CoeffSource.BLOCK_DERIVED:
            w = weights._weights(cls, g.rho, 600)

            def ratio(n, _w=w, _g=g):
                # w[n-1] = |C_n| rho^n / n!
                return _w[n - 1] * n ** (1 + _g.alpha)

        else:

            def ratio(n, _g=g):
                c = 1 if n <= 2 else n ** (n - 2)
                return math.exp(
                    math.log(c)
                    + (1 + _g.alpha) * math.log(n)
                    + n * math.log(_g.rho)
                    - math.lgamma(n + 1)
                )

        r300, r600 = ratio(300), ratio(600)
        assert abs(r600 - g.b) <= 0.1 * g.b, f"{name}: ratio {r600} vs b {g.b}"
        assert abs(r600 - g.b) < abs(r300 - g.b), f"{name}: no improvement by n = 600"
        details.append("%s %.4f->%.4f (b %.4f)" % (name, r300, r600, g.b))
    return "; ".join(details)
