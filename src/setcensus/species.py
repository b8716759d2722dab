"""Registry and validation of connected classes.

A connected class C is the unit the whole toolkit counts and samples: the
composite class under study is SET(C), with EGF exp(C(x)).  Classes arrive
four ways:

* built-ins: labeled trees, cactus graphs, Husimi trees (blocks are single
  edges, edges-or-cycles, and complete graphs respectively);
* synthetic classes whose counts are defined directly by the growth formula
  |C_n| = round(b * n^{-(1+alpha)} * rho^{-n} * n!) of the declared alpha, from
  one exact running quotient b rho^{-n} n! (floor(2V) by a shift, an isqrt, or
  one mpmath product at 96 guard bits with a 160-bit remainder);
* explicit coefficient lists, optionally with declared growth parameters;
* definition files (JSON) covering the two previous forms plus named or
  polynomial block specifications.

Block-specified classes get their coefficients from the fixed point
y = x*exp(B'(y)), solved by powerseries.BlockTable on labeled counts in
Python integers (n! times each coefficient, so no common denominator), and
their growth parameters from the subcritical recipe in the asymptotics
module; every block class of this kind has alpha = 3/2.  A poly block file
must give integer block counts d! [u^d] B' (the blocks on d + 1 vertices)
that fit a float, or it does not load.  Every class has |C_1| >= 1 by
construction (Cayley; y_1 = x e^0 for blocks; max(count, 1) for synthetic
classes; from_coefficients refuses a leading 0), so sizes never live on a
sublattice.  coefficients grows each memo in place (an explicit list's memo
is the list itself), and a block class solves its fixed point once, in one
labeled table that it extends.  A block kind is defined in two places: its
BlockSpec here (the scalar B, B', B'', B''', the radius and the gap series
of the saddle solve) and its step in powerseries.BlockTable.  cached is
the one bounded cache of a class's scalars and size tables, and _table_cap
the one cap on how many sizes a class computes: its coefficients here, the
lists of n + 1 labeled counts behind exact counts, and its size tables.
"""

import json
import math
import numbers
import re
import threading
from collections import namedtuple
from enum import Enum

from . import powerseries as ps
from .errors import (
    DomainError,
    ModelViolationError,
    PrecisionError,
    UnknownClassError,
    ValidationError,
    check_int,
    shown,
)

SCHEMA_VERSION = "1"

# tail exponent forced by subcriticality for every block-specified class
SUBCRITICAL_ALPHA = 1.5

# largest rho of a synthetic class whose EGF and tilted weights can be
# evaluated: both take exact counts up to a size that grows with rho
MAX_SYNTHETIC_RHO = 256.0

_SCALAR_CACHE_MAX = 64  # entries of a class's cache (cached) before it is cleared

_MAX_TABLE = 5_000_000  # cap for tables that cost O(n) (_table_cap)
_MAX_BLOCK_TABLE = 200_000  # cap for O(n^2) block fixed-point tables

_BUILTIN_NAMES = ("trees", "cacti", "husimi")


class CoeffSource(str, Enum):
    CLOSED_FORM = "closed_form"
    BLOCK_DERIVED = "block_derived"
    EXPLICIT_LIST = "explicit_list"
    SYNTHETIC = "synthetic"


class GrowthParams(namedtuple("GrowthParams", "b rho alpha")):
    """Parameters of the coefficient asymptotics |C_n| ~ b n^{-(1+alpha)} rho^{-n} n!."""

    __slots__ = ()

    def __new__(cls, b, rho, alpha):
        if not (b > 0 and math.isfinite(b)):
            raise ValidationError(f"growth parameter b must be positive, got {b}")
        if not (rho > 0 and math.isfinite(rho)):
            raise ValidationError(f"growth parameter rho must be positive, got {rho}")
        if not (alpha > 1 and math.isfinite(alpha)):
            raise ValidationError(f"growth parameter alpha must exceed 1, got {alpha}")
        return super().__new__(cls, b, rho, alpha)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check its fields too
        return cls(*iterable)


class BlockSpec(namedtuple("BlockSpec", "kind B Bp Bpp Bppp R gap tail", defaults=((),))):
    """Scalar evaluators of a 2-connected block family B.

    kind selects the step of powerseries.BlockTable, the fixed-point solver of
    every arithmetic: "edge" (B = u^2/2), "cactus" (B = u^2/4 - u/2 - log(1-u)/2),
    "complete" (B = e^u - u - 1) or "poly" (B' a finite polynomial, with
    tail its exact c_1..c_D of B'(u) = sum_d c_d u^d and c_D != 0; () for the
    other kinds).  R is the radius of convergence of B, possibly infinite.
    gap is g(t) = B'(t) - B(t)/t as a sum of positive terms, since the closed
    forms cancel at small t (e^t - 1 - t, log1p, polynomials), or None where
    B and B' are evaluated directly (edge).
    """

    __slots__ = ()


class ConnectedClass:
    """A registered connected class: coefficients, growth data, optional blocks.

    Instances are immutable after registration; the coefficient memo and a
    block class's table grow in place under a lock, as if each call recomputed.
    """

    def __init__(self, name, coeff_source, growth=None, block_spec=None):
        self.name = name
        self.coeff_source = coeff_source
        self.growth = growth
        self.block_spec = block_spec
        self._memo = []
        self._table = None  # the labeled BlockTable of y_series, once it is asked for
        self._lock = threading.RLock()  # coefficients holds it across y_series
        self._scalar_cache = {}

    def __repr__(self):
        return f"ConnectedClass({self.name!r}, source={self.coeff_source.value})"


def cached(cls, key, fn, *args):
    """fn(*args), kept under key in the class's one cache of scalars and size
    tables; a hit is one dict lookup, and a miss clears a full cache first."""
    value = cls._scalar_cache.get(key)
    if value is None:
        value = fn(*args)
        if len(cls._scalar_cache) >= _SCALAR_CACHE_MAX:
            cls._scalar_cache.clear()
        cls._scalar_cache[key] = value
    return value


def _table_cap(cls, M=0):
    """The most sizes cls computes, a block class at O(M^2) cost and the others
    at O(M); PrecisionError if M exceeds it."""
    block = cls.coeff_source is CoeffSource.BLOCK_DERIVED
    cap = _MAX_BLOCK_TABLE if block else _MAX_TABLE
    if M > cap:
        raise PrecisionError(
            f"{'block-derived ' if block else ''}table of length {shown(M)} exceeds "
            f"the supported maximum {cap}",
            suggested=cap,
        )
    return cap


# --- built-in block specifications ------------------------------------------


def _edge_spec():
    return BlockSpec(
        kind="edge",
        B=lambda t: t * t / 2,
        Bp=lambda t: t,
        Bpp=lambda t: 1.0,
        Bppp=lambda t: 0.0,
        R=math.inf,
        gap=None,
    )


def _cactus_gap(t):
    """B'(t) - B(t)/t for the cactus block, as t/4 + (1/2) sum_{m>=1} m t^m / (m+1)."""
    total, power, m = 0.0, t, 1
    while True:
        term = m * power / (m + 1)
        if total + term == total:
            return 0.25 * t + 0.5 * total
        total += term
        power *= t
        m += 1


def _cactus_spec():
    return BlockSpec(
        kind="cactus",
        B=lambda t: t * t / 4 - t / 2 - math.log1p(-t) / 2,
        Bp=lambda t: t / 2 - 0.5 + 1 / (2 * (1 - t)),
        Bpp=lambda t: 0.5 + 1 / (2 * (1 - t) ** 2),
        Bppp=lambda t: 1 / (1 - t) ** 3,
        R=1.0,
        gap=_cactus_gap,
    )


def _complete_gap(t):
    """B'(t) - B(t)/t for B = e^t - t - 1, as sum_{m>=1} m t^m / (m+1)!."""
    total, term, m = 0.0, 0.5 * t, 1
    while total + term != total:
        total += term
        term *= t * (m + 1) / (m * (m + 2))
        m += 1
    return total


def _complete_spec():
    return BlockSpec(
        kind="complete",
        B=lambda t: math.exp(t) - t - 1,
        Bp=lambda t: math.expm1(t),
        Bpp=math.exp,
        Bppp=math.exp,
        R=math.inf,
        gap=_complete_gap,
    )


def _poly_spec(tail):
    """BlockSpec for B'(u) = sum_d tail[d-1] u^d given as exact rationals."""
    tail = tuple(tail)

    def B(t):
        # (c t^d) t: at a root far below 1 the power t^(d+1) alone underflows
        return sum(float(c) * t**d * t / (d + 1) for d, c in enumerate(tail, start=1))

    def derivative(r):
        # sum_{d >= r} c_d d ... (d - r + 1) t^(d - r): float(c_d) times d, then d - 1
        terms = [(math.prod(range(d, d - r, -1), start=float(c)), d - r)
                 for d, c in enumerate(tail, start=1) if d >= r]
        return lambda t: sum(a * t**e for a, e in terms)

    Bp, Bpp, Bppp = (derivative(r) for r in range(3))

    # B'(t) - B(t)/t = sum_d c_d d/(d+1) t^d
    gap_coeffs = [float(c * d / (d + 1)) for d, c in enumerate(tail, start=1)]

    def gap(t):
        return sum(c * t**d for d, c in enumerate(gap_coeffs, start=1) if c)

    degree = max((d for d, c in enumerate(tail, start=1) if c), default=0)
    return BlockSpec(kind="poly", B=B, Bp=Bp, Bpp=Bpp, Bppp=Bppp, R=math.inf,
                     gap=gap, tail=tail[:degree])


_NAMED_SPECS = {"edge": _edge_spec, "cactus": _cactus_spec, "complete": _complete_spec}


def y_series(cls, T):
    """Labeled counts n! [x^n] y = n |C_n| for n = 0..T of a block-specified
    class, y = x*C'(x), as Python integers, from the class's labeled table.

    ModelViolationError if a count through T is negative, or if a poly spec
    takes a labeled count to a non-integer (the message names the size).  A
    table whose step raised is dropped (its kernel has opened that step's
    Pascal row), so every later call through that size raises again.
    """
    spec = cls.block_spec
    if spec is None:
        raise DomainError(f"class {cls.name} carries no block specification")
    with cls._lock:
        table, cls._table = cls._table or ps.BlockTable(spec.kind, spec.tail, ps.Labeled()), None
        y = ps.solve_fixed_point_with_composer(T, table)[: T + 1]
        cls._table = table  # put back only if its steps did not raise
    negative = next((n for n, v in enumerate(y) if v < 0), None)
    if negative is not None:
        raise ModelViolationError(f"negative connected count at n = {negative}")
    return y


# --- coefficient computation --------------------------------------------------


def coefficients(cls, n_max):
    """|C_1..n_max| as exact integers, computing only sizes past the memo and
    up to _table_cap; an explicit list's memo is the whole list, and
    DomainError lies beyond it."""
    n_max = check_int("n_max", n_max, 1)
    with cls._lock:
        memo, lo = cls._memo, len(cls._memo) + 1
        if lo <= n_max:
            if cls.coeff_source is CoeffSource.EXPLICIT_LIST:
                raise DomainError(f"class {cls.name} defines coefficients only up to n = {lo - 1}")
            _table_cap(cls, n_max)
            if cls.coeff_source is CoeffSource.BLOCK_DERIVED:
                y = y_series(cls, n_max)
                memo += [y[n] // n for n in range(lo, n_max + 1)]
            elif cls.coeff_source is CoeffSource.SYNTHETIC:
                memo += _synthetic_vector(cls.growth, lo, n_max)
            else:
                memo += [_cayley(n) for n in range(lo, n_max + 1)]
        return memo[:n_max]


def _cayley(n):
    # labeled trees on n vertices
    return 1 if n <= 2 else n ** (n - 2)


def _synthetic_vector(growth, lo, hi, g=64):
    """|C_lo..hi| of a synthetic class, max(round(V), [n = 1]) half away from 0.

    With b = bn/bd and 1/rho = pd/pn, V = A / (B n^(1+alpha)) for A = bn pd^n n!
    and B = bd pn^n, kept as A/B = Q + R/B with 0 <= R < B, so each step
    divides by B with a small quotient; only floor(2V) depends on alpha.  For
    x = 2A / (B n^j), j = floor(1 + alpha), and q = floor(2^g x), it is floor(x)
    at integer alpha, or at half-integer alpha u >> g for u = isqrt(q^2 // n) =
    floor(q / sqrt(n)), one more by full squares when x / sqrt(n) < (u + 2) 2^-g
    may reach it.  Otherwise it is 2 (Q + (R >> s) / (B >> s)) n^-(1+alpha) in
    mpmath at 96 guard bits past Q, 1 + alpha exact, where s keeps 160 bits of
    B and so moves V by under 2^-150."""
    twice = 2 * float(growth.alpha)
    if twice.is_integer():
        (j, odd), p = divmod(int(twice) + 2, 2), None
    else:
        import mpmath

        p = mpmath.fsub(-1, growth.alpha, exact=True)
    bn, bd = growth.b.as_integer_ratio()
    pn, pd = growth.rho.as_integer_ratio()
    B = bd * pn ** (lo - 1)
    Q, R = divmod(bn * pd ** (lo - 1) * math.factorial(lo - 1), B)
    out = []
    for n in range(lo, hi + 1):
        Q, r = divmod(Q * n * pd, pn)
        d, R = divmod(r * B + R * n * pd, B * pn)
        Q, B = Q + d, B * pn
        if p is not None:
            s = max(0, B.bit_length() - 160)
            with mpmath.workprec(Q.bit_length() + 96):
                t = int(2 * (mpmath.mpf(Q) + mpmath.mpf(R >> s) / (B >> s)) * mpmath.power(n, p))
        else:
            q = ((Q << g + 1) + (R << g + 1) // B) // (C := n**j)
            t = (u := math.isqrt(q * q // n)) >> g if odd else q >> g
            if odd and (u + 2) >> g > t:
                t += 4 * (Q * B + R) ** 2 >= (t + 1) ** 2 * (B * C) ** 2 * n
        out.append((t + 1) // 2)
    if lo == 1:
        out[0] = max(out[0], 1)
    return out


def check_synthetic_rho(growth):
    """DomainError unless rho is within MAX_SYNTHETIC_RHO, before any exact head is built."""
    if growth.rho > MAX_SYNTHETIC_RHO:
        raise DomainError(
            f"rho = {growth.rho} exceeds {MAX_SYNTHETIC_RHO:g}, the largest rho of a "
            "synthetic class whose EGF and size weights can be evaluated"
        )


# --- class factories ----------------------------------------------------------

_builtin_cache = {}
_builtin_lock = threading.Lock()


def builtin(name):
    """One of the registered built-in classes: trees, cacti, husimi."""
    if name not in _BUILTIN_NAMES:
        raise UnknownClassError(
            f"unknown class {name!r}; built-ins are {', '.join(_BUILTIN_NAMES)}"
        )
    with _builtin_lock:
        if name not in _builtin_cache:
            _builtin_cache[name] = _make_builtin(name)
        return _builtin_cache[name]


def _make_builtin(name):
    if name != "trees":
        return _block_class(name, _cactus_spec() if name == "cacti" else _complete_spec())
    growth = GrowthParams(1 / math.sqrt(2 * math.pi), math.exp(-1), SUBCRITICAL_ALPHA)
    return ConnectedClass("trees", CoeffSource.CLOSED_FORM, growth, _edge_spec())


def _block_class(name, spec):
    """The BLOCK_DERIVED class of spec, with the growth of the subcritical recipe."""
    from . import asymptotics  # deferred: asymptotics imports this module

    cls = ConnectedClass(name, CoeffSource.BLOCK_DERIVED, None, spec)
    rc = asymptotics.recipe_constants(cls)
    cls.growth = GrowthParams(rc.b, rc.rho, SUBCRITICAL_ALPHA)
    return cls


def synthetic(b, rho, alpha):
    """Class whose coefficients are defined by the growth formula itself.

    |C_n| = max(round(b n^{-(1+alpha)} rho^{-n} n!), [n = 1]) with
    round-half-away-from-zero; growth parameters are recorded as declared.
    """
    growth = _growth_params({"b": b, "rho": rho, "alpha": alpha})
    name = f"synthetic(b={growth.b:g},rho={growth.rho:g},alpha={growth.alpha:g})"
    return ConnectedClass(name, CoeffSource.SYNTHETIC, growth, None)


def from_coefficients(name, values, growth=None):
    """Class defined by an explicit list of counts |C_1..len(values)|.

    Each count must be an integer (a Python or numpy integer); 1.5, nan, inf
    and "3" raise ValidationError rather than being truncated.  growth is
    None or a GrowthParams.
    """
    _validate_name(name)
    if growth is not None and not isinstance(growth, GrowthParams):
        raise ValidationError(f"growth must be a GrowthParams, not {type(growth).__name__}")
    counts = []
    for i, v in enumerate(values, start=1):
        if not isinstance(v, numbers.Integral):
            raise ValidationError(f"coefficient |C_{i}| = {v!r} is not an integer")
        c = int(v)
        if c < 0:
            raise ValidationError(f"coefficient |C_{i}| = {c} is negative")
        counts.append(c)
    if not counts:
        raise ValidationError("coefficient list is empty")
    if counts[0] < 1:
        raise ValidationError(
            "|C_1| = 0 violates the single-vertex assumption (C_1 must be non-empty)"
        )
    cls = ConnectedClass(name, CoeffSource.EXPLICIT_LIST, growth, None)
    cls._memo = counts  # the whole list: coefficients never extends it
    return cls


def _growth_params(g):
    """GrowthParams of the reals g["b"], g["rho"], g["alpha"] from outside the
    program, else ValidationError."""
    try:
        return GrowthParams(float(g["b"]), float(g["rho"]), float(g["alpha"]))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"bad growth parameters: {e}") from e


_NAME_RE = re.compile(r"^[\w()=.,+-]{1,100}$")


def _validate_name(name):
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValidationError(f"invalid class name {name!r}")


def from_file(path):
    """Load a class definition document (see export for the mirror format)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValidationError(f"cannot read class definition {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError("class definition must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}")
    name = doc.get("name")
    _validate_name(name)

    growth = None
    if "growth" in doc:
        g = doc["growth"]
        if not isinstance(g, dict) or set(g) - {"b", "rho", "alpha"}:
            raise ValidationError("growth must be an object with keys b, rho, alpha")
        growth = _growth_params(g)

    has_coeffs = "coefficients" in doc
    has_block = "block" in doc
    if has_coeffs == has_block:
        raise ValidationError("exactly one of 'coefficients' or 'block' is required")

    if has_coeffs:
        raw = doc["coefficients"]
        if not isinstance(raw, list):
            raise ValidationError("'coefficients' must be an array of decimal strings")
        try:
            values = [int(str(v)) for v in raw]
        except ValueError as e:
            raise ValidationError(f"bad coefficient entry: {e}") from e
        return from_coefficients(name, values, growth)

    block = doc["block"]
    if not isinstance(block, dict) or "kind" not in block:
        raise ValidationError("'block' must be an object with a 'kind'")
    kind = block["kind"]
    if kind in _NAMED_SPECS:
        spec = _NAMED_SPECS[kind]()
    elif kind == "poly":
        raw = block.get("bprime")
        if not isinstance(raw, list) or not raw:
            raise ValidationError("poly block needs a non-empty 'bprime' coefficient array")
        from fractions import Fraction

        try:
            coeffs = [Fraction(str(v)) for v in raw]
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"bad bprime entry: {e}") from e
        if coeffs[0] != 0:
            raise ValidationError("bprime must have zero constant term")
        if any(c < 0 for c in coeffs):
            raise ValidationError("bprime coefficients must be non-negative")
        for d, c in enumerate(coeffs):
            # d! [u^d] B' blocks on d + 1 vertices: |C_{d+1}| is not an integer otherwise
            if (c * math.factorial(d)).denominator != 1:
                raise ValidationError(
                    f"bprime[{d}] = {c} gives {c * math.factorial(d)} blocks on {d + 1} "
                    "vertices; d! * bprime[d] must be an integer"
                )
            scale = max(1, d * (d - 1))  # B'' and B''' of the spec take d (d - 1) c_d as a float
            try:
                float(scale * c)
            except OverflowError as e:
                raise ValidationError(f"bprime[{d}] = {raw[d]} does not fit a float") from e
        spec = _poly_spec(coeffs[1:])
    else:
        raise ValidationError(
            f"unknown block kind {kind!r}; expected edge, cactus, complete or poly"
        )
    cls = _block_class(name, spec)
    if growth is not None:
        _check_growth_agreement(cls, growth)
    return cls


def _check_growth_agreement(cls, declared):
    computed = cls.growth
    for field_name in ("b", "rho", "alpha"):
        got = getattr(computed, field_name)
        want = getattr(declared, field_name)
        if abs(got - want) > 1e-3 * max(abs(got), 1e-12):
            raise ValidationError(
                f"declared growth {field_name} = {want} conflicts with the "
                f"block-derived value {got}"
            )


def export(cls, terms):
    """Serializable definition document reproducing |C_1..terms| exactly."""
    terms = check_int("terms", terms, 1)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": cls.name,
        "coefficients": [str(c) for c in coefficients(cls, terms)],
    }
    if cls.growth is not None:
        doc["growth"] = {"b": cls.growth.b, "rho": cls.growth.rho, "alpha": cls.growth.alpha}
    return doc


def to_file(cls, terms, path):
    """Write the export document as JSON."""
    doc = export(cls, terms)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise ValidationError(f"cannot write class definition {path}: {e}") from e
