"""Command line surface: one subcommand per engine operation.

Every subcommand accepts --json (one canonical line on stdout) and --out PATH
(the same canonical record written to a file).  Canonical means sorted keys,
reduced "num/den" rationals, and integers as plain digit strings, so identical
inputs give byte-identical output.  Exit codes: 0 success, 1 internal
computational assertion, 2 usage error.

Each cmd_* handler returns its result, provenance and human lines; `main`
alone builds the record, prints it or the lines, and writes --out.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arith import CyclotomicLevel, factorization_string, rational_part, valuation
from .characters import DirichletCharacter, FieldSpec, unit_group
from .ktheory import (
    ComputationError,
    browkin_density,
    browkin_divisible,
    divisibility_verdict,
    k_order,
    lower_bound_exponent,
    s_profile,
)
from .lfun import _prime_power, generalized_bernoulli
from .powersum import bernoulli_number, powersum_denominator
from .selftest import run_selftest


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fraction_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


def _resolve_field(m: int, subfield: str | None) -> FieldSpec:
    if subfield is None:
        return FieldSpec.real_cyclotomic(m)
    kind, sep, tail = subfield.partition(":")
    if not sep:
        raise _UsageError("--subfield takes the form max-p:P or prime-cyclic:P")
    try:
        p = int(tail)
    except ValueError:
        raise _UsageError("subfield prime %r is not an integer" % (tail,))
    if kind == "max-p":
        return FieldSpec.max_p_subextension(m, p)
    if kind == "prime-cyclic":
        return FieldSpec.prime_cyclic_subfield(m, p)
    raise _UsageError("unknown subfield variant %r" % (kind,))


def cmd_korder(args):
    spec = _resolve_field(args.m, args.subfield)
    report = k_order(spec, args.k, seed=args.seed)
    fac = factorization_string(report.factorization)
    result = {
        "degree": spec.degree,
        "order": report.order,
        "factorization": [list(pair) for pair in report.factorization],
        "factorization_string": fac,
        "w_invariant": report.w_invariant,
        "zeta_value": _fraction_str(report.zeta_value),
    }
    human = [
        "field: %s (degree %d)" % (spec.describe(), spec.degree),
        "K_%d order: %d" % (2 * args.k, report.order),
        "factorization: %s" % fac,
        "w_%d: %d" % (args.k + 1, report.w_invariant),
        "zeta_F(-%d): %s" % (args.k, _fraction_str(report.zeta_value)),
    ]
    return result, ["order-formula"], human


def cmd_verdict(args):
    verdict = divisibility_verdict(args.p, args.m, args.k, args.field)
    result = {
        "status": verdict.status,
        "exponent_lower_bound": verdict.exponent_lower_bound,
        "justification": list(verdict.justification),
    }
    human = ["verdict: %s" % verdict.status]
    if verdict.exponent_lower_bound is not None:
        human.append(
            "exponent lower bound: %d (i.e. %d^%d divides the order)"
            % (verdict.exponent_lower_bound, args.p, verdict.exponent_lower_bound)
        )
    if verdict.justification:
        human.append("justification: %s" % ", ".join(verdict.justification))
    return result, verdict.justification, human


def cmd_selftest(args):
    """Also returns the exit code: 1 when a check failed."""
    results = run_selftest(args.level, seed=args.seed)
    passed = sum(1 for r in results if r.ok)
    failed = len(results) - passed
    checks = [{"label": r.label, "ok": r.ok, "detail": r.detail} for r in results]
    human = []
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        line = "[%s] %s" % (mark, r.label)
        if r.detail:
            line += " :: %s" % r.detail
        human.append(line)
    human.append("%d passed, %d failed" % (passed, failed))
    result = {"passed": passed, "failed": failed, "checks": checks}
    return result, [], human, 0 if failed == 0 else 1


def cmd_bernoulli(args):
    value = bernoulli_number(args.n)
    return {"value": _fraction_str(value)}, [], ["B_%d = %s" % (args.n, value)]


def cmd_dn(args):
    value = powersum_denominator(args.n)
    return {"value": value}, [], ["d_%d = %d" % (args.n, value)]


def cmd_genbernoulli(args):
    group = unit_group(args.m)
    if args.exponents:
        try:
            exps = [int(t) for t in args.exponents.split(",")]
        except ValueError:
            raise _UsageError("--exponents must be a comma-separated integer list")
        if len(exps) != len(group.generators):
            raise _UsageError(
                "--exponents takes one entry per generator of (Z/%dZ)^*: %s"
                % (args.m, ", ".join("%d of order %d" % g for g in group.generators) or "none")
            )
    else:
        exps = [0] * len(group.generators)
    args.exponents = exps  # the record keeps the resolved vector
    chi = DirichletCharacter(group, tuple(exps)).primitive()
    level = None
    if args.level is not None:
        if chi.order == 1:
            raise _UsageError("--level is meaningless for the trivial character")
        level = CyclotomicLevel(_prime_power(chi.order)[0], args.level)
    value = generalized_bernoulli(chi, args.n, level)
    rational = _fraction_str(rational_part(value)) if value.numerator.is_rational() else None
    result = {
        "conductor": chi.conductor,
        "order": chi.order,
        "level": [value.level.p, value.level.n],
        "numerator_coefficients": list(value.numerator.coeffs),
        "denominator": value.denominator,
        "rational": rational,
    }
    human = [
        "character: modulus %d, conductor %d, order %d"
        % (args.m, chi.conductor, chi.order),
        "level: zeta of order %d^%d" % (value.level.p, value.level.n),
    ]
    if rational is not None:
        human.append("B_%d(chi) = %s" % (args.n, rational))
    else:
        human.append(
            "B_%d(chi) = (1/%d) * sum of c_i zeta^i with c = %s"
            % (args.n, value.denominator, list(value.numerator.coeffs))
        )
    return result, [], human


def cmd_bound(args):
    bound = lower_bound_exponent(args.p, args.k, args.m)
    prof = s_profile(args.m, args.p)
    result = {
        "bound": bound,
        "s_profile": [list(pair) for pair in prof.s],
        "theta": prof.theta,
    }
    human = [
        "s-profile of m=%d at p=%d: %s (theta = %d)"
        % (args.m, args.p, dict(prof.s) or "{}", prof.theta),
        "guaranteed exponent: %d^%d divides #K_%d" % (args.p, bound, 2 * args.k),
    ]
    return result, ["bernoulli-product-lower-bound"], human


def cmd_browkin(args):
    divisible = browkin_divisible(args.p, args.ell)
    v = valuation(args.ell - 1, args.p)
    human = [
        "v_%d(%d - 1) = %d" % (args.p, args.ell, v),
        "%d divides #K_%d of the degree-%d field of conductor %d: %s"
        % (args.p, 2 * (args.p - 2), args.p, args.ell, "yes" if divisible else "no"),
    ]
    return {"divisible": divisible, "valuation": v}, ["prime-conductor-criterion"], human


def cmd_density(args):
    rep = browkin_density(args.p, args.x)
    result = {
        "n_p": rep.n_p,
        "n_p2": rep.n_p2,
        "ratio": _fraction_str(rep.ratio),
    }
    human = [
        "primes <= %d that are 1 mod %d: %d" % (args.x, args.p, rep.n_p),
        "primes <= %d that are 1 mod %d: %d" % (args.x, args.p**2, rep.n_p2),
        "ratio: %s (compare 1/%d = %s)"
        % (rep.ratio, args.p, Fraction(1, args.p)),
    ]
    return result, [], human


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="kzeta",
        description="Exact orders and p-divisibility of even K-groups of "
        "rings of integers of totally real abelian fields.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one canonical JSON line")
    common.add_argument("--out", metavar="PATH", help="also write the canonical record to PATH")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="seed for randomized factoring internals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("korder", parents=[common, seeded], help="exact order of K_2k")
    p.add_argument("--m", type=int, required=True, help="cyclotomic conductor")
    p.add_argument("--k", type=int, required=True, help="odd index k in K_2k")
    p.add_argument(
        "--subfield",
        default=None,
        metavar="VARIANT:P",
        help="max-p:P or prime-cyclic:P instead of the full real cyclotomic field",
    )
    p.set_defaults(handler=cmd_korder)

    p = sub.add_parser("verdict", parents=[common], help="p-divisibility verdict without computing the order")
    p.add_argument("--p", type=int, required=True, help="odd prime")
    p.add_argument("--m", type=int, required=True, help="cyclotomic conductor")
    p.add_argument("--k", type=int, required=True, help="odd index k in K_2k")
    p.add_argument("--field", choices=("plus", "full"), default="plus")
    p.set_defaults(handler=cmd_verdict)

    p = sub.add_parser("selftest", parents=[common, seeded], help="run the built-in verification checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(handler=cmd_selftest)

    p = sub.add_parser("bernoulli", parents=[common], help="Bernoulli number B_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_bernoulli)

    p = sub.add_parser("dn", parents=[common], help="power-sum denominator d_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_dn)

    p = sub.add_parser("genbernoulli", parents=[common], help="generalized Bernoulli number B_n(chi)")
    p.add_argument("--m", type=int, required=True, help="character modulus")
    p.add_argument(
        "--exponents",
        default="",
        help="comma-separated exponents on the canonical generators of (Z/mZ)^*",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", type=int, default=None, help="cyclotomic level N (default: the character's own)")
    p.set_defaults(handler=cmd_genbernoulli)

    p = sub.add_parser("bound", parents=[common], help="guaranteed p-exponent of #K_2k")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("browkin", parents=[common], help="prime-conductor divisibility criterion")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, required=True, help="prime conductor, 1 mod p")
    p.set_defaults(handler=cmd_browkin)

    p = sub.add_parser("density", parents=[common], help="density of conductors with p-divisible K-groups")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--x", type=int, required=True, help="sieve cutoff")
    p.set_defaults(handler=cmd_density)

    return parser


# Parsed options that are not inputs of the computation.
_NOT_INPUTS = ("command", "handler", "json", "out")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    except _UsageError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    # Records print exact integers of any size; CPython refuses to turn an
    # int of more than 4300 digits into a str unless the limit is lifted.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        result, provenance, human, *code = args.handler(args)
        record = {
            "command": args.command,
            "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
            "result": result,
            "provenance": list(provenance),
        }
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    except ComputationError as exc:
        print("computation error: %s" % (exc,), file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(canonical + "\n")
        except OSError as exc:
            print("error: cannot write --out: %s" % (exc,), file=sys.stderr)
            return 2
    print(canonical if args.json else "\n".join(human))
    return code[0] if code else 0


def entry() -> None:
    sys.exit(main())
