"""The regime classifier: one closed critical window and one alpha-case rule.

TestFrozenRegime records classify and estimate as they were before the
window, alpha-case and growth-constant rules were gathered into one place
each; TestWindowEdges checks that every caller of the window agrees on it.
"""

import hashlib
import json
import math

import pytest

from setcensus import asymptotics as asy
from setcensus import exact, species
from setcensus.errors import SetCensusError

_W = 1e-9  # the critical half-width that classify documents
_POLY_FILES = {"c4": ["0", "1", "1/2", "1/2"], "p3": ["0", "1", "0", "1/3"]}
_LAMBDAS = (0.1, 0.3, 0.6, 0.75, 0.9, 0.99)
_OFFSETS = (-2, -1, 0, 1, 2)  # lambda* + offset * _W


def _make(name, tmp_path):
    if name in ("trees", "cacti", "husimi"):
        return species.builtin(name)
    if name in _POLY_FILES:
        path = tmp_path / f"{name}.json"
        doc = {"name": name, "block": {"kind": "poly", "bprime": _POLY_FILES[name]}}
        path.write_text(json.dumps(doc))
        return species.from_file(str(path))
    if name == "list-growth":
        trees = species.builtin("trees")
        counts = species.coefficients(trees, 240)
        return species.from_coefficients("trees-list", counts, trees.growth)
    return species.synthetic(1, 0.5, float(name.split("-")[1]))


def _outcome(call):
    """repr of call(), or the name of the package error it raises."""
    try:
        return repr(call())
    except SetCensusError as e:
        return type(e).__name__


# SHA-256 prefixes of the newline-joined lines "lambda classify estimate(n = 300)"
# over _LAMBDAS and lambda* + _OFFSETS * _W, after the line repr(lambda*)
_FROZEN_REGIME = {
    "trees": "e72ba2af71774342",
    "cacti": "eb534f158365ce97",
    "husimi": "38941ac1c3c1b0b6",
    "c4": "c74b8c7d329a58e1",
    "p3": "acb170d3cd8ca446",
    "syn-1.5": "ddbf100a39ec8e2b",
    "syn-2": "7c0a17a9350a7787",
    "syn-3": "81c51b5b00eecd65",
    "list-growth": "d11352e438e99fae",
}


class TestFrozenRegime:
    @pytest.mark.parametrize("name", sorted(_FROZEN_REGIME))
    def test_classify_and_estimate(self, tmp_path, name):
        cls = _make(name, tmp_path)
        lam_star = asy.lambda_star(cls)
        lines = [repr(lam_star)]
        for lam in _LAMBDAS + tuple(lam_star + o * _W for o in _OFFSETS):
            lines.append(
                f"{lam!r} {_outcome(lambda: asy.classify(cls, lam))} "
                f"{_outcome(lambda: asy.estimate(cls, 300, lam))}"
            )
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert digest == _FROZEN_REGIME[name]


class TestWindowEdges:
    """classify, estimate and the float tier's tilt put lambda in the same regime."""

    @pytest.mark.parametrize("name", ["trees", "syn-1.5", "syn-2", "syn-3"])
    def test_callers_agree(self, tmp_path, monkeypatch, name):
        cls = _make(name, tmp_path)
        lam_star, rho = asy.lambda_star(cls), cls.growth.rho

        # a stand-in saddle with a recognisable x, so that the check does not
        # depend on the saddle solve near lambda*, which is slow for scalar classes
        def saddle(_cls, lam):
            return asy.SupercriticalPoint(lam, 1.0, rho / 2, 0.5, 1.0)

        monkeypatch.setattr(asy, "solve_supercritical", saddle)
        lo, hi = lam_star - _W, lam_star + _W
        edges = [
            (math.nextafter(lo, 0), asy.Regime.BELOW),
            (lo, asy.Regime.CRITICAL),
            (math.nextafter(lo, 1), asy.Regime.CRITICAL),
            (math.nextafter(hi, 0), asy.Regime.CRITICAL),
            (hi, asy.Regime.CRITICAL),
            (math.nextafter(hi, 1), asy.Regime.ABOVE),
        ]
        for lam, want in edges:
            regime, _case, _const, sp = asy.classify(cls, lam)
            assert regime is want
            assert asy.estimate(cls, 10**6, lam).regime is want
            # k/n = lam exactly with n = 1; the tilt reads only that ratio here
            assert exact._tilt(cls, 1, lam) == (rho / 2 if want is asy.Regime.ABOVE else rho)
            assert (sp is not None) == (want is asy.Regime.ABOVE)

    def test_tilt_is_the_saddle_above_the_window(self):
        trees = species.builtin("trees")
        for lam in (math.nextafter(0.5 + _W, 1), 0.75):
            assert exact._tilt(trees, 1, lam) == asy.solve_supercritical(trees, lam).x_lambda
        assert exact._tilt(trees, 1, 0.5 + _W) == trees.growth.rho
        assert exact._tilt(trees, 7, 7) == trees.growth.rho  # lambda = 1
