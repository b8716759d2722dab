import hashlib
import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import pytest
import recurrences
from deadline import deadline

from setcensus import powerseries as ps
from setcensus import species
from setcensus.errors import (
    DomainError,
    ModelViolationError,
    UnknownClassError,
    ValidationError,
)

TREES6 = [1, 1, 3, 16, 125, 1296]
CACTI6 = [1, 1, 4, 31, 362, 5676]
HUSIMI6 = [1, 1, 4, 29, 311, 4447]


class TestBuiltins:
    def test_names(self):
        for name in ("trees", "cacti", "husimi"):
            assert species.builtin(name).name == name

    def test_unknown_name(self):
        with pytest.raises(UnknownClassError):
            species.builtin("widgets")

    def test_builtin_is_cached(self):
        assert species.builtin("trees") is species.builtin("trees")

    @pytest.mark.parametrize(
        "name,want",
        [("trees", TREES6), ("cacti", CACTI6), ("husimi", HUSIMI6)],
    )
    def test_first_coefficients(self, name, want):
        assert species.coefficients(species.builtin(name), 6) == want

    def test_cayley_closed_form(self):
        got = species.coefficients(species.builtin("trees"), 10)
        for n in range(3, 11):
            assert got[n - 1] == n ** (n - 2)

    def test_trees_growth(self):
        g = species.builtin("trees").growth
        assert g.b == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)
        assert g.rho == pytest.approx(math.exp(-1), abs=1e-15)
        assert g.alpha == 1.5

    def test_block_derived_growth(self):
        cacti = species.builtin("cacti").growth
        assert cacti.b == pytest.approx(0.120149812501, abs=1e-9)
        assert cacti.rho == pytest.approx(0.238740143685, abs=1e-9)
        husimi = species.builtin("husimi").growth
        assert husimi.b == pytest.approx(0.180737599797, abs=1e-9)
        assert husimi.rho == pytest.approx(0.264380447350, abs=1e-9)

    def test_memoization_is_monotone(self):
        cls = species.builtin("cacti")
        a = species.coefficients(cls, 8)
        b = species.coefficients(cls, 3)
        assert b == a[:3]
        assert species.coefficients(cls, 12)[:8] == a

    def test_coefficients_domain(self):
        with pytest.raises(DomainError):
            species.coefficients(species.builtin("trees"), 0)
        for name in ("trees", "cacti"):
            with pytest.raises(DomainError):
                species.coefficients(species.builtin(name), 2.5)

    def test_y_series_needs_blocks(self):
        with pytest.raises(DomainError):
            species.y_series(species.synthetic(1, 0.5, 2), 4)


class TestSynthetic:
    def test_formula_values(self):
        cls = species.synthetic(1, 0.5, 2)
        assert species.coefficients(cls, 8) == [2, 1, 2, 6, 31, 213, 1881, 20160]

    def test_half_rounds_away_from_zero(self):
        # n = 2 value is exactly 1/2 here; round-half-away gives 1, not 0
        cls = species.synthetic(2, 1, 2)
        assert species.coefficients(cls, 2) == [2, 1]

    def test_single_vertex_floor(self):
        # formula value at n = 1 rounds to 0; the class still gets |C_1| = 1
        cls = species.synthetic(0.1, 2.0, 3.0)
        assert species.coefficients(cls, 1) == [1]

    def test_integral_alpha_matches_exact_recomputation(self):
        from fractions import Fraction

        got = species.coefficients(species.synthetic(1, 0.5, 2), 40)
        for n in range(2, 41):
            q = Fraction(math.factorial(n) * 2**n, n**3)
            want = (q.numerator * 2 + q.denominator) // (2 * q.denominator)
            assert got[n - 1] == want

    def test_fractional_alpha_matches_high_precision_recomputation(self):
        import mpmath

        got = species.coefficients(species.synthetic(1, 0.5, 1.5), 40)
        with mpmath.workdps(80):
            for n in range(2, 41):
                v = mpmath.factorial(n) * mpmath.power(2, n) / mpmath.power(n, 2.5)
                want = int(mpmath.floor(v + mpmath.mpf("0.5")))
                assert got[n - 1] == want

    @pytest.mark.parametrize("guard", [0, 64])
    @pytest.mark.parametrize(
        "b, rho",
        [(1 / 64, 0.25), (1 / math.sqrt(2 * math.pi), math.exp(-1))],
        ids=["dyadic", "trees"],
    )
    @pytest.mark.parametrize("alpha", [1.5, 2, 2.5])
    def test_integer_route_matches_exact_squares(self, guard, b, rho, alpha):
        # with no guard bits, floor(2V) at half-integer alpha often takes the full-square test
        got = species._synthetic_vector(species.synthetic(b, rho, alpha).growth, 1, 80, guard)
        for n in range(2, 81):
            # (2V)^2 = 4 b^2 (n!)^2 rho^(-2n) / n^(2 + 2 alpha), exactly
            x = (2 * Fraction(b) * math.factorial(n) / Fraction(rho) ** n) ** 2
            x /= n ** int(2 + 2 * alpha)
            assert got[n - 1] == (math.isqrt(x.numerator // x.denominator) + 1) // 2

    @pytest.mark.parametrize("b,rho,alpha", [(0, 1, 2), (1, 0, 2), (1, 1, 1), (1, 1, 0.5)])
    def test_parameter_validation(self, b, rho, alpha):
        with pytest.raises(ValidationError):
            species.synthetic(b, rho, alpha)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            species.synthetic(math.nan, 1, 2)

    @pytest.mark.parametrize("b", ["a", None, 10**400], ids=["str", "None", "10**400"])
    def test_non_reals_are_validation_errors(self, b):
        with pytest.raises(ValidationError, match="bad growth parameters"):
            species.synthetic(b, 0.5, 2)


class TestExplicitList:
    def test_provider_and_bounds(self):
        cls = species.from_coefficients("tiny", [1, 0, 6])
        assert species.coefficients(cls, 3) == [1, 0, 6]
        with pytest.raises(DomainError):
            species.coefficients(cls, 4)

    def test_rejects_bad_lists(self):
        with pytest.raises(ValidationError):
            species.from_coefficients("neg", [1, -2])
        with pytest.raises(ValidationError):
            species.from_coefficients("empty", [])
        with pytest.raises(ValidationError):
            species.from_coefficients("nosingle", [0, 5])

    @pytest.mark.parametrize("bad", [1.5, 2.25, math.nan, math.inf, "3", 3.0], ids=repr)
    def test_non_integer_counts_are_not_truncated(self, bad):
        with pytest.raises(ValidationError, match=r"\|C_2\|"):
            species.from_coefficients("frac", [1, bad, 7])

    def test_growth_must_be_growth_params(self):
        with pytest.raises(ValidationError, match="growth must be a GrowthParams, not tuple"):
            species.from_coefficients("x", [1, 2], growth=(1, 2, 3))

    def test_numpy_integer_counts(self):
        import numpy as np

        cls = species.from_coefficients("np", [np.int64(1), np.int32(2), 7])
        assert species.coefficients(cls, 3) == [1, 2, 7]

    def test_name_validation(self):
        with pytest.raises(ValidationError):
            species.from_coefficients("has space", [1])
        with pytest.raises(ValidationError):
            species.from_coefficients("", [1])
        with pytest.raises(ValidationError):
            species.from_coefficients("x" * 101, [1])


class TestFiles:
    def test_export_document_shape(self):
        doc = species.export(species.builtin("trees"), 5)
        assert doc["schema_version"] == "1"
        assert doc["name"] == "trees"
        assert doc["coefficients"] == ["1", "1", "3", "16", "125"]
        assert set(doc["growth"]) == {"b", "rho", "alpha"}

    def test_round_trip_coefficient_list(self, tmp_path):
        path = tmp_path / "trees.json"
        species.to_file(species.builtin("trees"), 8, path)
        loaded = species.from_file(path)
        assert species.coefficients(loaded, 8) == TREES6 + [16807, 262144]
        assert loaded.growth.alpha == 1.5

    def test_block_file_matches_builtin(self, tmp_path):
        path = tmp_path / "cacti.json"
        path.write_text(json.dumps({"name": "my-cacti", "block": {"kind": "cactus"}}))
        loaded = species.from_file(path)
        assert species.coefficients(loaded, 6) == CACTI6

    def test_poly_block_reproduces_trees(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(
            json.dumps({"name": "poly-trees", "block": {"kind": "poly", "bprime": ["0", "1"]}})
        )
        loaded = species.from_file(path)
        assert species.coefficients(loaded, 6) == TREES6

    def test_poly_block_fraction_strings(self, tmp_path):
        # B'(u) = u + u^2/2 + u^3/2, the cactus data written out explicitly
        path = tmp_path / "poly4.json"
        path.write_text(
            json.dumps(
                {"name": "c4", "block": {"kind": "poly", "bprime": ["0", "1", "1/2", "1/2"]}}
            )
        )
        loaded = species.from_file(path)
        assert species.coefficients(loaded, 4) == CACTI6[:4]

    def test_growth_agreement_enforced(self, tmp_path):
        path = tmp_path / "bad-growth.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "block": {"kind": "cactus"},
                    "growth": {"b": 0.5, "rho": 0.238740143685, "alpha": 1.5},
                }
            )
        )
        with pytest.raises(ValidationError):
            species.from_file(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"name": "x"},
            {"name": "x", "coefficients": ["1"], "block": {"kind": "edge"}},
            {"name": "x", "block": {"kind": "moebius"}},
            {"name": "x", "coefficients": "1"},
            {"name": "x", "coefficients": ["one"]},
            {"name": "x", "block": {"kind": "poly", "bprime": ["1", "1"]}},
            {"name": "x", "block": {"kind": "poly", "bprime": ["0", "-1"]}},
            {"name": "x", "block": {"kind": "poly", "bprime": []}},
            {"schema_version": "2", "name": "x", "coefficients": ["1"]},
            {"name": "bad name!", "coefficients": ["1"]},
            {"name": "x", "coefficients": ["1"], "growth": {"b": 1}},
            ["1", "1"],
            {"name": "x", "coefficients": ["1"],
             "growth": {"b": 1, "rho": 0.5, "alpha": 2, "beta": 0}},
            {"name": "x", "block": {"bprime": ["0", "1"]}},
            {"name": "x", "block": {"kind": "poly", "bprime": ["0", "1/0"]}},
        ],
    )
    def test_schema_rejections(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            species.from_file(path)

    @pytest.mark.parametrize("terms", ["3", 2.5, 0])
    def test_export_checks_terms(self, tmp_path, terms):
        trees = species.builtin("trees")
        with pytest.raises(DomainError, match="terms"):
            species.export(trees, terms)
        with pytest.raises(DomainError, match="terms"):
            species.to_file(trees, terms, tmp_path / "trees.json")
        assert not (tmp_path / "trees.json").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            species.from_file(tmp_path / "nope.json")

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_export_path(self, tmp_path, where):
        path = tmp_path / "nope" / "trees.json" if where == "missing-directory" else tmp_path
        with pytest.raises(ValidationError, match="cannot write class definition"):
            species.to_file(species.builtin("trees"), 3, path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            species.from_file(path)


# The block files of tests/test_sampler.py::_BLOCK_FILES: B' = u (edge),
# u + u^2/2 + u^3/2 (c4) and u + u^3/3 (p3).
_BLOCK_FILES = {
    "edge": {"name": "edge-trees", "block": {"kind": "edge"}},
    "poly": {"name": "c4", "block": {"kind": "poly", "bprime": ["0", "1", "1/2", "1/2"]}},
    "poly-gap": {"name": "p3", "block": {"kind": "poly", "bprime": ["0", "1", "0", "1/3"]}},
}

# SHA-256 prefixes of the decimal counts |C_1..100|, comma-joined, as the
# composer-based fixed point gave them
_FROZEN_COEFFICIENTS = {
    "cacti": "7d1be9c41bd22c95",
    "husimi": "9340d571c7878713",
    "edge": "b84ba8bd57137378",
    "poly": "3f834eb58afddc4a",
    "poly-gap": "76c6dd19ea692493",
}


class TestFrozenCoefficients:
    """Exact block-derived counts frozen before the fixed point was rewritten."""

    @pytest.mark.parametrize("name", sorted(_FROZEN_COEFFICIENTS))
    def test_first_hundred(self, tmp_path, name):
        if name in _BLOCK_FILES:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(_BLOCK_FILES[name]))
            cls = species.from_file(path)
        else:
            cls = species.builtin(name)
        data = ",".join(map(str, species.coefficients(cls, 100))).encode()
        assert hashlib.sha256(data).hexdigest()[:16] == _FROZEN_COEFFICIENTS[name]


def _block_file_class(tmp_path, doc):
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return species.from_file(path)


# (fresh class, T) of each coefficient route: a block file, the integer-alpha
# running product and the mpmath values of a synthetic class, an explicit list
_GROWN = {
    "cacti": (lambda tmp: _block_file_class(tmp, {"name": "cacti", "block": {"kind": "cactus"}}), 300),
    "poly": (lambda tmp: _block_file_class(tmp, _BLOCK_FILES["poly"]), 200),
    "synthetic-2": (lambda tmp: species.synthetic(1, 0.5, 2), 200),
    "synthetic-2.5": (lambda tmp: species.synthetic(1, 0.5, 2.5), 120),
    "list": (lambda tmp: species.from_coefficients("cubes", [n**3 + 1 for n in range(1, 101)]), 100),
}

# SHA-256 prefixes of the decimal counts |C_1..T|, comma-joined, and of
# y_series(husimi, 200), as one fresh solve per call gave them
_FROZEN_GROWN = {
    "cacti": "c9bd5c4371075d85",
    "poly": "b551cb0420a3a583",
    "synthetic-2": "50c209260d6f1ae9",
    "synthetic-2.5": "67462d3f99e8d0be",
    "list": "9fa12f0c7964150b",
}
_FROZEN_HUSIMI_Y = "3ba05ff55e9cbad8"


def _digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


class TestFrozenGrowth:
    """Counts taken in one call and in steps, frozen before the memo grew in place."""

    @pytest.mark.parametrize("steps", [False, True], ids=["one-call", "steps"])
    @pytest.mark.parametrize("name", sorted(_GROWN))
    def test_counts(self, tmp_path, name, steps):
        make, T = _GROWN[name]
        cls = make(tmp_path)
        got = species.coefficients(cls, T)
        if steps:
            cls = make(tmp_path)
            for t in (T // 4, T // 2, T):
                part = species.coefficients(cls, t)
                assert part == got[:t]
        assert _digest(got) == _FROZEN_GROWN[name]

    def test_husimi_y_series(self):
        assert _digest(species.y_series(species.builtin("husimi"), 200)) == _FROZEN_HUSIMI_Y


# SHA-256 prefix of the decimal counts |C_1..400| of cacti, comma-joined, as
# the labeled block fixed point gave them
_FROZEN_CACTI_400 = "d89ae6352f401e56"


class TestFrozenCactusCounts:
    """Cactus counts to 400, frozen before they left the block fixed point."""

    def test_file_loaded_class(self, tmp_path):
        cls = _block_file_class(tmp_path, {"name": "cacti", "block": {"kind": "cactus"}})
        assert _digest(species.coefficients(cls, 400)) == _FROZEN_CACTI_400

    def test_builtin(self):
        assert _digest(species.coefficients(species.builtin("cacti"), 400)) == _FROZEN_CACTI_400


def _cactus_file_class(tmp_path):
    return _block_file_class(tmp_path, {"name": "cacti", "block": {"kind": "cactus"}})


class TestCactusLagrange:
    """Cactus counts by Lagrange inversion against the block fixed point."""

    def test_matches_recurrences(self, tmp_path):
        got = species.coefficients(_cactus_file_class(tmp_path), 60)
        assert got == recurrences.connected_counts("cactus", 60)

    def test_matches_fixed_point_to_300(self, tmp_path):
        # y_series still solves the labeled fixed point: n |C_n| = y_n
        y = species.y_series(_cactus_file_class(tmp_path), 300)
        got = species.coefficients(_cactus_file_class(tmp_path), 300)
        assert got == [y[n] // n for n in range(1, 301)]

    def test_memo_grown_in_steps(self, tmp_path):
        cls = _cactus_file_class(tmp_path)
        parts = [species.coefficients(cls, T) for T in (50, 120, 300)]
        whole = species.coefficients(_cactus_file_class(tmp_path), 300)
        assert parts == [whole[:T] for T in (50, 120, 300)]
        assert cls._table is None  # no fixed point was solved

    def test_a_thousand_sizes_in_three_seconds(self, tmp_path):
        # the labeled fixed point took about 11 s
        cls = _cactus_file_class(tmp_path)
        with deadline(3):
            counts = species.coefficients(cls, 1000)
        assert counts[:6] == CACTI6


_SYNTHETIC_B = {"1": 1.0, "1/sqrt(2pi)": 1 / math.sqrt(2 * math.pi)}
_SYNTHETIC_RHO = {"0.5": 0.5, "2": 2.0, "0.05": 0.05, "1/e": math.exp(-1), "0.999": 0.999}
_SYNTHETIC_ALPHA = (1.5, 2, 2.5, 3, 3.5)

# SHA-256 prefixes of the decimal counts |C_1..300| of synthetic(b, rho, alpha),
# comma-joined, one per alpha of _SYNTHETIC_ALPHA, as the Fraction running
# product (integer alpha) and mpmath (half-integer alpha) gave them
_FROZEN_SYNTHETIC = {
    ("1", "0.5"): ("e486b7bcf9e6986c", "2fcd84e0cc4fec52", "f8edf4e95f44ae5e",
                   "73554abdf1c38cf7", "ed176328fe390bf8"),
    ("1", "2"): ("8e641dcc1e4b8124", "e10505fed8d61713", "84505980472b91ed",
                 "336e8a183323df8e", "4cbcea6e918256e3"),
    ("1", "0.05"): ("13c5303805f9b74e", "6585354796156fb1", "31ac0995e2381cb2",
                    "4792d67f5d7ddc10", "579ea71bd73a48ba"),
    ("1", "1/e"): ("757782d1b5d31bf2", "a967f55c5e0c4f72", "a1f627ea133877ac",
                   "6fa3b42a04578831", "61bd07bb3466b799"),
    ("1", "0.999"): ("f444e86126a7d1ff", "ec859a9a4bf8e028", "66afb45f95459d78",
                     "68c1aa919300f22e", "ad1d204a2a15e4aa"),
    ("1/sqrt(2pi)", "0.5"): ("e74646c5202e5e55", "7f95daa00bfb26dd", "33cdae2b2570ccff",
                             "49d31fa27cdced34", "b5bda83e09153a75"),
    ("1/sqrt(2pi)", "2"): ("db6741d2951f6ee1", "5bd9249b0a44d9b4", "572f49524e9f94f5",
                           "1a45edd1e4b76cc4", "8ad5bda803d5a5be"),
    ("1/sqrt(2pi)", "0.05"): ("5b0b8c4ef907d13e", "4c5a838123607c3d", "fe3c9e83ead36694",
                              "3202d96cc2816138", "3ba095235b3724f9"),
    ("1/sqrt(2pi)", "1/e"): ("64ec006713a5f746", "fb15556e6eafc447", "d7c01401295430d9",
                             "9c9047bbfc69e8a8", "639fe5c6119fc570"),
    ("1/sqrt(2pi)", "0.999"): ("81a3e640d3a64d6d", "a20ee4d70ccce1ab", "d32d87184a652469",
                               "f20cb2fe916ef018", "d90702c1d9aa2185"),
}


class TestFrozenSynthetic:
    """Synthetic counts at integer and half-integer alpha, frozen before they
    moved to one integer route."""

    @pytest.mark.parametrize(
        "b, rho", [pytest.param(*key, id=f"b={key[0]},rho={key[1]}") for key in _FROZEN_SYNTHETIC]
    )
    def test_grid(self, b, rho):
        got = tuple(
            _digest(species.coefficients(
                species.synthetic(_SYNTHETIC_B[b], _SYNTHETIC_RHO[rho], alpha), 300))
            for alpha in _SYNTHETIC_ALPHA
        )
        assert got == _FROZEN_SYNTHETIC[b, rho]

    def test_grown_from_137(self):
        cls = species.synthetic(1 / math.sqrt(2 * math.pi), math.exp(-1), 2.5)
        for t in (136, 137, 200, 300):
            got = species.coefficients(cls, t)
        assert _digest(got) == _FROZEN_SYNTHETIC["1/sqrt(2pi)", "1/e"][2]

    @pytest.mark.parametrize("b, alpha", [(0.125, 1.5), (0.25, 2)])
    def test_exact_tie_rounds_away_from_zero(self, b, alpha):
        # b 2^n n! / n^(1+alpha) is exactly 3/2 at n = 4 (4^2.5 = 32, 4^3 = 64)
        assert species.coefficients(species.synthetic(b, 0.5, alpha), 4) == [1, 0, 0, 2]


@lru_cache(maxsize=None)
def _oracle_powers(alpha, T):
    """n^-(1+alpha) for n = 1..T at 3000 bits, shared by every (b, rho)."""
    import mpmath

    with mpmath.workprec(3000):
        e = -(1 + mpmath.mpf(alpha))
        return [mpmath.power(n, e) for n in range(1, T + 1)]


def _synthetic_oracle(b, rho, alpha, T):
    """max(round(b n^-(1+alpha) rho^-n n!), [n = 1]) half away from 0, at 3000 bits."""
    import mpmath

    out, factorial = [], 1
    with mpmath.workprec(3000):
        scale = mpmath.mpf(b)
        for n, power in enumerate(_oracle_powers(alpha, T), start=1):
            factorial *= n
            scale /= rho
            out.append(int(mpmath.floor(scale * factorial * power + 0.5)))
    out[0] = max(out[0], 1)
    return out


_ORACLE_B_RHO = [(1.0, 0.5), (1 / math.sqrt(2 * math.pi), math.exp(-1))]


class TestSyntheticOracle:
    """Synthetic counts at alpha where 2 alpha is not an integer, to n = 300,
    against a 3000-bit evaluation of the formula of the declared alpha."""

    @pytest.mark.parametrize("b, rho", _ORACLE_B_RHO, ids=["1,0.5", "1/sqrt(2pi),1/e"])
    @pytest.mark.parametrize("alpha", [1.05, 1.1, 1.3, 1.7, 4.7])
    def test_grid(self, b, rho, alpha):
        got = species.coefficients(species.synthetic(b, rho, alpha), 300)
        assert got == _synthetic_oracle(b, rho, alpha, 300)

    @pytest.mark.parametrize("alpha", [1.1, 1.3])
    def test_grown_from_137(self, alpha):
        b, rho = _ORACLE_B_RHO[1]
        cls = species.synthetic(b, rho, alpha)
        for t in (137, 300):
            got = species.coefficients(cls, t)
        assert got == _synthetic_oracle(b, rho, alpha, 300)

    def test_exact_tie_rounds_away_from_zero(self):
        # 2^-7 16! / 16^2.25 = 16! / 2^16 is exactly 319256437.5
        got = species.coefficients(species.synthetic(2**-7, 1.0, 1.25), 16)
        assert got == _synthetic_oracle(2**-7, 1.0, 1.25, 16)
        assert got[15] == 319256438

    def test_alpha_next_to_a_half_integer(self):
        # 1 + alpha rounds to 2.5 in float64, but 2 alpha is not an integer
        alpha = 1.5 - 2**-52
        got = species.coefficients(species.synthetic(1.0, 0.5, alpha), 100)
        assert got == _synthetic_oracle(1.0, 0.5, alpha, 100)
        assert got != species.coefficients(species.synthetic(1.0, 0.5, 1.5), 100)


# (kind, B' tail) of each block file for the recurrence oracle
_ORACLE_SPECS = {
    "cacti": ("cactus", ()),
    "husimi": ("complete", ()),
    "edge": ("edge", ()),
    "poly": ("poly", tuple(map(Fraction, ("1", "1/2", "1/2")))),
    "poly-gap": ("poly", tuple(map(Fraction, ("1", "0", "1/3")))),
}


class TestIntegerFixedPoint:
    """The integer fixed point against labeled binomial recurrences."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
    def test_matches_recurrences(self, tmp_path, name):
        if name in _BLOCK_FILES:
            cls = _block_file_class(tmp_path, _BLOCK_FILES[name])
        else:
            cls = species.builtin(name)
        kind, tail = _ORACLE_SPECS[name]
        assert species.coefficients(cls, 200) == recurrences.connected_counts(kind, 200, tail)

    @pytest.mark.parametrize("degree", [41, 60])
    def test_poly_degree_beyond_forty_loads(self, tmp_path, degree):
        # B'(u) = u + u^degree: the series check reaches the top term, so the
        # series and the scalar B'(1) = 2 agree
        bprime = ["0", "1", *["0"] * (degree - 2), "1"]
        cls = _block_file_class(tmp_path, {"name": "wide", "block": {"kind": "poly", "bprime": bprime}})
        tail = (1, *[0] * (degree - 2), 1)
        assert species.coefficients(cls, 70) == recurrences.connected_counts("poly", 70, tail)

    @pytest.mark.parametrize("name", [*sorted(_ORACLE_SPECS), "degree-41"])
    def test_scalar_bprime_matches_labeled_table(self, tmp_path, name):
        # spec.Bp against the series B'(y) the counts are solved with: at
        # x = rho/2, sum_n kA[n] x^n / n! with y = sum_n Y[n] x^n / n!
        if name == "degree-41":
            doc = {"name": "wide", "block": {"kind": "poly", "bprime": ["0", "1", *["0"] * 39, "1"]}}
            cls = _block_file_class(tmp_path, doc)
        elif name in _BLOCK_FILES:
            cls = _block_file_class(tmp_path, _BLOCK_FILES[name])
        else:
            cls = species.builtin(name)
        spec = cls.block_spec
        table = ps.BlockTable(spec.kind, spec.tail, ps.Labeled())
        Y = table.terms(60)
        x = cls.growth.rho / 2
        terms = [x**n / math.factorial(n) for n in range(61)]
        y = math.fsum(Y[n] * terms[n] for n in range(61))
        bprime_y = math.fsum(table.kA[n] * terms[n] for n in range(61))
        assert spec.Bp(y) == pytest.approx(bprime_y, rel=1e-12, abs=0)

    @pytest.mark.parametrize("bprime", [["0", "1", "1/5"], ["0", "1", "0", "1/7"]])
    def test_non_integral_block_counts_raise(self, tmp_path, bprime):
        # B'(u) = u + u^2/5 has 2/5 blocks on 3 vertices: |C_3| = 17/5
        with pytest.raises(ValidationError, match="blocks on"):
            _block_file_class(tmp_path, {"name": "bad", "block": {"kind": "poly", "bprime": bprime}})

    def test_int_kernel_remainder_raises(self):
        # B'(u) = u + u^2/5 at T = 4: 2! A_2 = y_2 + (2! [x^2] y^2)/5 = 2 + 2/5
        table = ps.BlockTable("poly", [Fraction(1), Fraction(1, 5)], ps.Labeled())
        with pytest.raises(ModelViolationError, match="size n = 2 has labeled count 12/5"):
            table.terms(4)

    @pytest.mark.parametrize("name", ["cacti", "husimi"])
    def test_matches_recurrences_to_300(self, name):
        kind = _ORACLE_SPECS[name][0]
        cls = species.builtin(name)
        assert species.coefficients(cls, 300) == recurrences.connected_counts(kind, 300)


# B'' takes 2 c_2 = 2 * 1.797e308 as a float, beyond the float range
@pytest.mark.parametrize(
    "bprime", [["0", "1e400"], ["0", "1", "0", "2e400"], ["0", "1", "1.7976931348623157e308"]]
)
def test_poly_entry_beyond_float_range_is_a_validation_error(tmp_path, capsys, bprime):
    from setcensus import cli

    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "block": {"kind": "poly", "bprime": bprime}}))
    entry = f"bprime[{len(bprime) - 1}] = {bprime[-1]}"
    with pytest.raises(ValidationError, match=rf"{re.escape(entry)} does not fit a float"):
        species.from_file(str(path))
    assert cli.main(["constants", "--class-file", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["code"] == "validation" and entry in err["message"]


def test_growth_beyond_float_range_is_a_validation_error(tmp_path, capsys):
    from setcensus import cli

    path = tmp_path / "huge.json"
    rho = "1" + "0" * 400  # a JSON integer beyond the float range
    path.write_text(f'{{"name": "huge", "coefficients": ["1", "2"], '
                    f'"growth": {{"b": 1, "rho": {rho}, "alpha": 2}}}}')
    with pytest.raises(ValidationError, match="bad growth parameters"):
        species.from_file(str(path))
    assert cli.main(["series", "--class-file", str(path), "--terms", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "validation"
