"""Command-line interface.

Every successful invocation prints single-line JSON records

    {"schema_version": "1", "command": ..., "inputs": {...}, "results": {...}}

to stdout: one record per command, except ``sample`` which emits one record
per draw.  Counts that may exceed 2^53 are emitted as decimal strings; other
reals are rounded to 15 significant digits, so repeated runs with identical
arguments produce byte-identical output.  ``compare --format tsv`` prints a
tab-separated table instead.  Errors print a single-line JSON object to
stderr and exit with status 2 (domain or validation), 3 (precision or
truncation shortfall) or 4 (sampler retry budget exhausted); a flag of the
other ``sample`` mode (-n, -k, --max-rejects with --composition,
--trunc-order without it) is a domain error.  A reader that closes stdout
early ends the output with status 1 and nothing on stderr.
"""

import argparse
import json
import math
import os
import sys

from . import asymptotics, exact, species
from .errors import DomainError, RetryBudgetError, SetCensusError, check_int

SCHEMA_VERSION = "1"


def _real(v):
    """15-significant-digit float for stable JSON output; non-finite as strings."""
    f = float(v)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return float(format(f, ".15g"))


def _record(command, inputs, results):
    return json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            "results": results,
        }
    )


def _add_class_args(p, required=True):
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument(
        "--class",
        dest="class_name",
        metavar="NAME",
        help="built-in class: trees, cacti or husimi",
    )
    g.add_argument(
        "--class-file",
        metavar="PATH",
        help="JSON class definition (coefficients or block spec)",
    )
    g.add_argument(
        "--synthetic",
        nargs=3,
        type=float,
        metavar=("B", "RHO", "ALPHA"),
        help="growth-formula class with parameters b, rho, alpha",
    )


def _resolve_class(args):
    if args.class_name is not None:
        return species.builtin(args.class_name), {"class": args.class_name}
    if args.class_file is not None:
        cls = species.from_file(args.class_file)
        return cls, {"class_file": args.class_file, "name": cls.name}
    b, rho, alpha = args.synthetic
    cls = species.synthetic(b, rho, alpha)
    return cls, {"synthetic": {"b": _real(b), "rho": _real(rho), "alpha": _real(alpha)}}


# --- commands ---------------------------------------------------------------------


def _cmd_constants(args):
    cls, desc = _resolve_class(args)
    b, rho, alpha, lam_star, C_rho = asymptotics._growth_constants(cls)
    results = {"name": cls.name, "source": cls.coeff_source.value,
               "alpha": _real(alpha), "b": _real(b), "rho": _real(rho)}
    if cls.block_spec is not None:
        results["zeta"] = _real(asymptotics.recipe_constants(cls).zeta)
    results["lambda_star"] = _real(lam_star)
    results["C_rho"] = _real(C_rho)
    if args.lam is not None:
        lam = args.lam
        at = {"lambda": _real(lam)}
        if not (0.0 < lam < 1.0):
            raise DomainError(f"lambda = {lam} must lie strictly between 0 and 1")
        regime, _alpha_case, const, sp = asymptotics.classify(cls, lam)
        at["regime"] = regime.value
        at["constant"] = _real(const)
        if sp is not None:
            at["x_lambda"] = _real(sp.x_lambda)
            at["y_lambda"] = _real(sp.y_lambda)
            at["C_x_lambda"] = _real(sp.C_x_lambda)
            at["sigma2"] = _real(sp.sigma2)
        results["at_lambda"] = at
    inputs = dict(desc)
    if args.lam is not None:
        inputs["lambda"] = _real(args.lam)
    return [_record("constants", inputs, results)]


def _parse_k_range(text, n):
    try:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as e:
        raise DomainError(f"bad k range {text!r}; expected LO:HI") from e
    if not (1 <= lo <= hi <= n):
        raise DomainError(f"k range {text!r} must satisfy 1 <= LO <= HI <= n = {n}")
    return range(lo, hi + 1)


def _cmd_exact(args):
    cls, desc = _resolve_class(args)
    n = args.n
    inputs = dict(desc)
    inputs.update({"n": n, "mode": args.mode})
    if (args.k is None) == (args.k_range is None):
        raise DomainError("give exactly one of -k or --k-range")
    if args.k_range is not None:
        if args.mode == "float":
            raise DomainError("float mode supports a single k only")
        ks = _parse_k_range(args.k_range, n)
        inputs["k_range"] = args.k_range
        table = exact.count_table(cls, n, ks)
        rows = [
            {"k": k, "count": str(c), "log_count": _real(lg)} for k, c, lg in table.rows
        ]
        return [_record("exact", inputs, {"n": n, "rows": rows})]
    k = args.k
    inputs["k"] = k
    if args.mode == "float":
        lg = exact.count_log(cls, n, k)
        results = {
            "n": n,
            "k": k,
            "log_count": _real(lg),
            "log10_count": _real(lg / math.log(10)),
        }
        return [_record("exact", inputs, results)]
    c = exact.count(cls, n, k)
    results = {
        "n": n,
        "k": k,
        "count": str(c),
        "log_count": _real(exact._ln(c)) if c > 0 else "-inf",
    }
    return [_record("exact", inputs, results)]


def _estimate_results(est):
    return {
        "regime": est.regime.value,
        "alpha_case": est.alpha_case.value,
        "n": est.n,
        "N": est.N,
        "lambda": _real(est.lam),
        "lambda_star": _real(est.lambda_star),
        "log_count": _real(est.log_count),
        "log10_count": _real(est.log_count / math.log(10)),
        "factors": {name: _real(v) for name, v in est.factors._asdict().items()},
    }


def _cmd_estimate(args):
    cls, desc = _resolve_class(args)
    est = asymptotics.estimate(cls, args.n, args.lam)
    inputs = dict(desc)
    inputs.update({"n": args.n, "lambda": _real(args.lam)})
    return [_record("estimate", inputs, _estimate_results(est))]


def _parse_n_list(text):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as e:
        raise DomainError(f"bad n list {text!r}; expected comma-separated integers") from e
    if not values:
        raise DomainError("empty n list")
    return values


def _cmd_compare(args):
    cls, desc = _resolve_class(args)
    ns = _parse_n_list(args.n_list)
    inputs = dict(desc)
    inputs.update({"n_list": args.n_list, "lambda": _real(args.lam)})
    rows = []
    for n in ns:
        est = asymptotics.estimate(cls, n, args.lam)
        lg = exact.count_log(cls, n, est.N)
        diff = est.log_count - lg
        rows.append(
            {
                "n": n,
                "N": est.N,
                "regime": est.regime.value,
                "log_count_exact": _real(lg),
                "log_count_estimate": _real(est.log_count),
                "log_error": _real(diff),
                "ratio": _real(math.exp(diff)),
            }
        )
    if args.format == "tsv":
        lines = ["n\tlog_exact\tlog_est\tratio"]
        for r in rows:
            lines.append(
                "{}\t{}\t{}\t{}".format(
                    r["n"],
                    format(r["log_count_exact"], ".15g"),
                    format(r["log_count_estimate"], ".15g"),
                    format(r["ratio"], ".15g"),
                )
            )
        return lines
    return [_record("compare", inputs, {"lambda": _real(args.lam), "rows": rows})]


def _cmd_sample(args):
    import numpy as np

    # a from-import of names, so that -X importtime shows setcensus.sampler on its own line
    from .sampler import sample_forest, sample_set, size_distribution

    seed = check_int("--seed", args.seed, 0)
    if args.trials < 1:
        raise DomainError("--trials must be positive")
    rng = np.random.default_rng(seed)
    lines = []
    if args.composition:
        for flag, value in (("-n", args.n), ("-k", args.k), ("--max-rejects", args.max_rejects)):
            if value is not None:
                raise DomainError(f"{flag} applies to forest sampling only, without --composition")
        if args.class_name is None and args.class_file is None and args.synthetic is None:
            raise DomainError("composition sampling requires a class")
        cls, desc = _resolve_class(args)
        if args.x is None:
            raise DomainError("--x is required for composition sampling")
        dist = size_distribution(cls, args.x, n_max=args.trunc_order)
        inputs = dict(desc)
        inputs.update(
            {
                "x": _real(args.x),
                "seed": args.seed,
                "trials": args.trials,
                "n_max": dist.n_max,
                "normalizer": _real(dist.normalizer),
                "truncated_mass": _real(dist.truncated_mass),
            }
        )
        for i in range(args.trials):
            comp = sample_set(cls, args.x, rng, dist=dist)
            results = {"draw": i, "kappa": comp.kappa, "sizes": list(comp.sizes)}
            lines.append(_record("sample", inputs, results))
        return lines
    if args.trunc_order is not None:
        raise DomainError("--trunc-order applies to --composition sampling only")
    if args.n is None or args.k is None:
        raise DomainError("forest sampling requires -n and -k")
    if args.class_name not in (None, "trees") or args.class_file or args.synthetic:
        raise DomainError("forest sampling is defined for the trees class")
    inputs = {
        "class": "trees",
        "n": args.n,
        "k": args.k,
        "x": _real(args.x) if args.x is not None else None,
        "seed": args.seed,
        "trials": args.trials,
    }
    max_rejects = 10_000 if args.max_rejects is None else args.max_rejects
    for i in range(args.trials):
        f = sample_forest(args.n, args.k, x=args.x, rng=rng, max_rejects=max_rejects)
        edges = sorted(e for t in f.trees for e in t)
        results = {
            "draw": i,
            "n": args.n,
            "k": args.k,
            "blocks": [list(b) for b in f.blocks],
            "edges": [list(e) for e in edges],
        }
        lines.append(_record("sample", inputs, results))
    return lines


def _cmd_series(args):
    cls, desc = _resolve_class(args)
    coeffs = species.coefficients(cls, args.terms)
    inputs = dict(desc)
    inputs.update({"terms": args.terms})
    results = {
        "name": cls.name,
        "terms": args.terms,
        "coefficients": [str(c) for c in coeffs],
    }
    if args.export is not None:
        species.to_file(cls, args.terms, args.export)
        results["exported_to"] = args.export
    return [_record("series", inputs, results)]


# --- driver -----------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="setcensus",
        description="count, estimate and sample labeled forests of connected structures",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="growth and regime constants")
    _add_class_args(pc)
    pc.add_argument(
        "--lambda", "--lam", dest="lam", type=float, default=None, help="component density"
    )
    pc.set_defaults(fn=_cmd_constants)

    pe = sub.add_parser("exact", help="exact counts by coefficient extraction")
    _add_class_args(pe)
    pe.add_argument("-n", type=int, required=True, help="number of vertices")
    pe.add_argument("-k", type=int, default=None, help="number of components")
    pe.add_argument("--k-range", default=None, metavar="LO:HI", help="range of k for a table")
    pe.add_argument("--mode", choices=("exact", "float"), default="exact")
    pe.set_defaults(fn=_cmd_exact)

    pes = sub.add_parser("estimate", help="asymptotic regime estimate")
    _add_class_args(pes)
    pes.add_argument("-n", type=int, required=True)
    pes.add_argument("--lambda", "--lam", dest="lam", type=float, required=True)
    pes.set_defaults(fn=_cmd_estimate)

    pcmp = sub.add_parser("compare", help="exact vs estimate at one lambda")
    _add_class_args(pcmp)
    pcmp.add_argument(
        "--n-list", "-n", dest="n_list", required=True, help="comma-separated vertex counts"
    )
    pcmp.add_argument("--lambda", "--lam", dest="lam", type=float, required=True)
    pcmp.add_argument("--format", choices=("json", "tsv"), default="json")
    pcmp.set_defaults(fn=_cmd_compare)

    psa = sub.add_parser("sample", help="draw forests or compositions")
    _add_class_args(psa, required=False)
    psa.add_argument("-n", type=int, default=None)
    psa.add_argument("-k", type=int, default=None)
    psa.add_argument("--x", type=float, default=None, help="Boltzmann parameter")
    psa.add_argument("--trials", "--count", dest="trials", type=int, default=1)
    psa.add_argument(
        "--max-rejects", type=int, default=None, help="rejection budget per forest (10000)"
    )
    psa.add_argument("--seed", type=int, default=None, help="RNG seed (required)")
    psa.add_argument(
        "--trunc-order", type=int, default=None, help="size-table length for --composition"
    )
    psa.add_argument(
        "--composition",
        action="store_true",
        help="draw unconditioned compositions instead of forests",
    )
    psa.set_defaults(fn=_cmd_sample)

    pse = sub.add_parser("series", help="connected counts; export class files")
    _add_class_args(pse)
    pse.add_argument("--terms", type=int, required=True)
    pse.add_argument("--export", default=None, metavar="PATH")
    pse.set_defaults(fn=_cmd_series)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for line in args.fn(args):
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; the devnull target lets the exit flush succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SetCensusError as e:
        payload = {"code": e.code, "message": str(e)}
        if getattr(e, "suggested", None) is not None:
            payload["suggested"] = e.suggested
        if isinstance(e, RetryBudgetError):
            payload["attempts"] = e.attempts
            payload["expected_acceptance"] = _real(e.expected_acceptance)
        print(json.dumps({"error": payload}), file=sys.stderr)
        return e.exit_status
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
