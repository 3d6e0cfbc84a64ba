"""Command-line front end.

Prints a human-readable table to stdout followed by (or, with --out, instead
writing to a file) a deterministic JSON document.  High-precision values are
emitted as decimal strings with min(30, floor(bits log10 2)) significant
digits so that identical argv + seed give byte-identical JSON.

Exit codes: 0 success, 2 parse error, 3 domain/precondition error,
4 numeric or resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from mpmath import mp, mpc, mpf

from . import elliptic, hyper_faltings, local_heights, siegel, theta_engine, weierstrass
from .errors import DomainError, NumericError, ResourceError, ThetaHeightsError
from .precision import PrecisionContext, validate_cli_bits

JSON_DIGITS = 30


class _ParseFailure(Exception):
    pass


def _fmt(x, digits: int = JSON_DIGITS):
    """Recursively format mpf/mpc leaves as fixed-digit decimal strings."""
    if isinstance(x, (mpf, float)):
        return mp.nstr(mpf(x), digits)
    if isinstance(x, mpc):
        return [mp.nstr(mpf(x.real), digits), mp.nstr(mpf(x.imag), digits)]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {k: _fmt(v, digits) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v, digits) for v in x]
    return x


def _max_delta(a, b):
    """Largest |a - b| over matching numeric leaves of two documents."""
    if isinstance(a, (mpf, float, int)) and not isinstance(a, bool):
        return abs(mpf(a) - mpf(b))
    if isinstance(a, mpc):
        return abs(a - b)
    if isinstance(a, dict):
        deltas = [_max_delta(a[k], b[k]) for k in a if k in b]
        return max(deltas, default=mpf(0))
    if isinstance(a, (list, tuple)):
        return max((_max_delta(x, y) for x, y in zip(a, b)), default=mpf(0))
    return mpf(0)


def _parse_complex(text: str, ctx: PrecisionContext):
    """A complex number as JSON: number, "re", or [re, im] with string parts.

    Decimal and rational strings are rounded at the working precision."""
    try:
        val = json.loads(text)
    except json.JSONDecodeError:
        raise _ParseFailure(f"not a JSON number or [re, im] pair: {text!r}")
    def one(v):
        if isinstance(v, (int, float)):
            return mpf(v)
        if isinstance(v, str):
            try:
                return mpf(v) if "/" not in v else mpf(Fraction(v).numerator) / Fraction(v).denominator
            except Exception:
                raise _ParseFailure(f"bad numeric literal {v!r}")
        raise _ParseFailure(f"bad numeric literal {v!r}")
    with ctx.workprec():
        if isinstance(val, list):
            if len(val) != 2:
                raise _ParseFailure("complex literal must be [re, im]")
            return mpc(one(val[0]), one(val[1]))
        return mpc(one(val))


def _parse_tau(text: str, ctx: PrecisionContext):
    """tau as a complex literal (g = 1) or a matrix of [re, im] pairs."""
    try:
        val = json.loads(text)
    except json.JSONDecodeError:
        raise _ParseFailure(f"tau is not valid JSON: {text!r}")
    if isinstance(val, list) and val and isinstance(val[0], list) \
            and val[0] and isinstance(val[0][0], list):
        if not all(isinstance(row, list) for row in val):
            raise _ParseFailure("tau matrix rows must be lists of [re, im] pairs")
        rows = [[_parse_complex(json.dumps(x), ctx) for x in row] for row in val]
        return theta_engine.as_siegel(rows, ctx=ctx)
    return theta_engine.as_siegel(_parse_complex(text, ctx), ctx=ctx)


def _load_curve(text: str):
    """Curve spec with parse problems kept distinct from domain problems."""
    from .errors import SingularModelError

    try:
        return weierstrass.parse_curve_spec(text)
    except SingularModelError:
        raise
    except DomainError as e:
        raise _ParseFailure(str(e))


def _parse_fraction_vector(text: str):
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise _ParseFailure(f"not a comma-separated list of rationals: {text!r}")


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise _ParseFailure("point must be 'x,y' with rational coordinates")
    return tuple(_parse_fraction_vector(text))


def _place_rows(breakdown, keys):
    rows = []
    for pl, comp in breakdown.entries:
        row = {"place": pl.label(), "d_v": pl.d_v}
        for k in keys:
            row[k] = comp.get(k)
        rows.append(row)
    return rows


# --- command handlers (return raw documents with mpf leaves) ---------------


def _cmd_theta_eval(args, ctx):
    tau = _parse_tau(args.tau, ctx)
    a = _parse_fraction_vector(args.a)
    b = _parse_fraction_vector(args.b)
    m = theta_engine.ThetaCharacteristic.make(a, b)
    if args.z is None:
        z = [mpc(0)] * tau.g
    else:
        try:
            zl = json.loads(args.z)
        except json.JSONDecodeError:
            raise _ParseFailure(f"z is not valid JSON: {args.z!r}")
        if isinstance(zl, list) and zl and isinstance(zl[0], list):
            z = [_parse_complex(json.dumps(v), ctx) for v in zl]
        elif tau.g == 1:
            z = _parse_complex(args.z, ctx)
        else:
            raise _ParseFailure("for g > 1 pass --z as a list of [re, im] pairs")
    val = theta_engine.theta_char(m, z, tau, ctx)
    doc = {"value": val, "genus": tau.g, "parity": m.parity() if all(
        x.denominator <= 2 for x in list(m.a) + list(m.b)) else None}
    table = [f"theta_(a,b)(z, tau) = {mp.nstr(val, 20)}"]
    return doc, table


def _cmd_siegel_reduce(args, ctx):
    tau = _parse_tau(args.tau, ctx)
    rep = siegel.reduce_g1(tau, ctx)
    doc = {
        "reduced": rep.reduced.entries[0][0],
        "gamma": [list(r) for r in rep.gamma],
        "checks": [{"id": c.condition_id, "passed": c.passed, "margin": c.margin}
                   for c in siegel.check_reduced(rep.reduced, 1, ctx)],
    }
    table = [f"reduced tau = {mp.nstr(rep.reduced.scalar(), 20)}",
             f"gamma = {rep.gamma}"]
    return doc, table


def _cmd_siegel_check(args, ctx):
    tau = _parse_tau(args.tau, ctx)
    checks = siegel.check_reduced(tau, ctx=ctx)
    doc = {"checks": [{"id": c.condition_id, "passed": c.passed, "margin": c.margin}
                      for c in checks],
           "all_passed": all(c.passed for c in checks)}
    table = [f"{c.condition_id:36s} {'PASS' if c.passed else 'FAIL'}  margin={c.margin:+.6g}"
             for c in checks]
    return doc, table


def _cmd_curve_disc(args, ctx):
    E = _load_curve(args.curve)
    d = weierstrass.discriminant(E)
    doc = {"discriminant": str(d), "genus": E.g,
           "valuations": [[p, e] for p, e in weierstrass.finite_valuations(d)]}
    table = [f"Delta_E = {d}"]
    return doc, table


def _cmd_elliptic_faltings(args, ctx):
    E = _load_curve(args.curve)
    h, bd = elliptic.faltings_elliptic(E, ctx, stable=args.stable)
    doc = {"total": h, "places": _place_rows(bd, ["alpha"]),
           "warnings": list(bd.warnings), "stable": bool(args.stable)}
    table = [f"h_F+ = {mp.nstr(h, 20)}" + ("  [stable exponents]" if args.stable else "")]
    for row in doc["places"]:
        table.append(f"  {row['place']:>8s}  alpha = {mp.nstr(row['alpha'], 16)}")
    table += [f"  warning: {w}" for w in bd.warnings]
    return doc, table


def _cmd_elliptic_height(args, ctx):
    E = _load_curve(args.curve)
    P = _parse_point(args.point)
    h, bd = local_heights.canonical_height_q(E, P, ctx)
    doc = {"total": h, "places": _place_rows(bd, ["lambda_hat"]),
           "conversions": {"divisor_O": bd.extras["divisor_O"],
                           "theta16": bd.extras["theta16"]},
           "warnings": list(bd.warnings)}
    table = [f"hhat_2(O) = {mp.nstr(h, 20)}   (x1/2: {mp.nstr(bd.extras['divisor_O'], 16)}, "
             f"x8: {mp.nstr(bd.extras['theta16'], 16)})"]
    for row in doc["places"]:
        table.append(f"  {row['place']:>8s}  lambda_hat = {mp.nstr(row['lambda_hat'], 16)}")
    return doc, table


def _cmd_elliptic_decompose(args, ctx):
    E = _load_curve(args.curve)
    h, bd = elliptic.faltings_elliptic(E, ctx, stable=args.stable)
    places = []
    with ctx.workprec():
        for pl, comp in bd.entries:
            row = {"place": pl.label(), "d_v": pl.d_v, "alpha": comp["alpha"],
                   "lambda": None, "mu": None, "beta": None}
            if pl.kind == "arch":
                tau = bd.extras["tau"]
                z0 = mpc(mpf(23) / 100, mpf(31) / 100) + tau.scalar() / 7
                mu = local_heights.mu_arch_closed(z0, tau, ctx)
                be = local_heights.beta_arch(z0, tau, 2, ctx)
                row["mu"] = mu
                row["beta"] = be
            places.append(row)
    doc = {"total": h, "places": places, "warnings": list(bd.warnings),
           "stable": bool(args.stable),
           "note": "mu/beta at a sample point; alpha = 2(beta - mu) at every point"}
    table = [f"h_F+ = {mp.nstr(h, 20)} = sum of alpha_v"]
    for row in places:
        extra = ""
        if row["mu"] is not None:
            extra = f"  mu = {mp.nstr(row['mu'], 12)}  beta = {mp.nstr(row['beta'], 12)}"
        table.append(f"  {row['place']:>8s}  alpha = {mp.nstr(row['alpha'], 16)}{extra}")
    return doc, table


def _parse_finite(text: str):
    """--finite as a JSON list of {"p", "ord_delta_min", "e"} objects."""
    try:
        items = json.loads(text)
    except json.JSONDecodeError as e:
        raise _ParseFailure(f"--finite is not valid JSON: {e}")
    try:
        return [hyper_faltings.FinitePlaceInput(
            p=int(it["p"]), ord_delta_min=int(it["ord_delta_min"]), e=int(it.get("e", 0)))
            for it in items]
    except (TypeError, KeyError, ValueError, AttributeError):
        raise _ParseFailure('--finite must be a list of {"p", "ord_delta_min", "e"} '
                            f"objects with integer values: {text!r}")


def _cmd_jacobian_faltings(args, ctx):
    finite = _parse_finite(args.finite) if args.finite else []
    if args.cm_quintic:
        taus = [hyper_faltings.quintic_cm_period_matrix(ctx)]
        g = 2
    else:
        if args.tau is None:
            raise _ParseFailure("either --tau or --cm-quintic is required")
        taus = [_parse_tau(args.tau, ctx)]
        g = taus[0].g
    if args.genus and args.genus != g:
        raise _ParseFailure(f"--genus {args.genus} does not match tau (g = {g})")
    h, bd = hyper_faltings.faltings_jacobian(g, finite, taus, ctx)
    doc = {"total": h, "genus": g,
           "places": _place_rows(bd, ["f_log_p", "arch"]),
           "warnings": list(bd.warnings)}
    table = [f"h_F+(Jacobian) = {mp.nstr(h, 20)}"]
    for row in doc["places"]:
        v = row.get("f_log_p") if row.get("f_log_p") is not None else row.get("arch")
        table.append(f"  {row['place']:>8s}  {mp.nstr(v, 16)}")
    table += [f"  warning: {w}" for w in bd.warnings]
    return doc, table


def _cmd_check_identities(args, ctx):
    rng = random.Random(args.seed)
    suites = {}
    with ctx.workprec():
        tol = ctx.tol()
        # Jacobi identity t2^4 + t4^4 = t3^4
        worst = mpf(0)
        for _ in range(args.samples):
            tau = siegel.random_reduced_tau(1, rng, ctx)
            _, t2, t3, t4 = theta_engine.jacobi_thetas(0, tau, ctx)
            worst = max(worst, abs(t2 ** 4 + t4 ** 4 - t3 ** 4))
        suites["jacobi_identity"] = {"worst": worst, "passed": bool(worst < tol)}
        # phi = 2^8 Delta
        worst = mpf(0)
        for _ in range(max(3, args.samples // 4)):
            tau = siegel.random_reduced_tau(1, rng, ctx)
            r = theta_engine.phi_product(tau, ctx) / theta_engine.modular_discriminant(tau, ctx)
            worst = max(worst, abs(r - 256))
        suites["phi_equals_256_delta"] = {"worst": worst, "passed": bool(worst < tol * 4096)}
        # ||theta|| lattice invariance
        worst = mpf(0)
        for _ in range(max(3, args.samples // 4)):
            tau = siegel.random_reduced_tau(1, rng, ctx)
            t = tau.scalar()
            z = mpc(mpf(rng.randint(-400, 400)) / 1000, mpf(rng.randint(-400, 400)) / 1000)
            n0 = theta_engine.theta_norm(z, tau, ctx)
            worst = max(worst, abs(n0 - theta_engine.theta_norm(z + 1, tau, ctx)),
                        abs(n0 - theta_engine.theta_norm(z + t, tau, ctx)))
        suites["theta_norm_lattice_invariance"] = {"worst": worst, "passed": bool(worst < tol)}
        # alpha constancy: 2(beta - mu) independent of z
        tau = siegel.random_reduced_tau(1, rng, ctx)
        alpha = local_heights.alpha_arch(tau, ctx)
        worst = mpf(0)
        for _ in range(max(3, args.samples // 4)):
            z = mpc(mpf(rng.randint(-400, 400)) / 1000, mpf(rng.randint(-400, 400)) / 1000)
            mu = local_heights.mu_arch_series(z, tau, ctx=ctx)
            be = local_heights.beta_arch(z, tau, 2, ctx)
            worst = max(worst, abs(2 * (be - mu) - alpha))
        suites["alpha_constancy"] = {"worst": worst, "passed": bool(worst < tol * 4096)}
    all_passed = all(s["passed"] for s in suites.values())
    doc = {"suites": suites, "all_passed": all_passed,
           "seed": args.seed, "samples": args.samples}
    table = [f"{name:34s} {'PASS' if s['passed'] else 'FAIL'}  worst={mp.nstr(s['worst'], 6)}"
             for name, s in suites.items()]
    return doc, table


def _cmd_check_matrix_lemma(args, ctx):
    rng = random.Random(args.seed)
    violations = 0
    rows = []
    for i in range(args.count):
        g = 1 if i % 2 == 0 else 2
        tau = siegel.random_reduced_tau(g, rng, ctx)
        rep = siegel.theta_null_bounds(tau, ctx)
        ml = siegel.matrix_lemma_check(tau, rep.null_ratio_height, 1, ctx)
        ok = rep.max_ok and rep.min_ok and ml.holds
        if not ok:
            violations += 1
        rows.append({"g": g, "max_ok": rep.max_ok, "min_ok": rep.min_ok,
                     "lemma_holds": ml.holds, "margin": ml.margin})
    doc = {"count": args.count, "violations": violations, "rows": rows, "seed": args.seed}
    table = [f"{args.count} samples, violations: {violations}"]
    return doc, table


def _cmd_check_autissier(args, ctx):
    tau = _parse_tau(args.tau, ctx) if args.tau else theta_engine.as_siegel(mpc(0, 1), ctx=ctx)
    res = local_heights.autissier_integral(tau, ctx=ctx)
    doc = {"value": res.value, "nonnegative": bool(res.value >= 0), "warnings": []}
    table = [f"I(tau) = {mp.nstr(res.value, 20)} = alpha/2"]
    return doc, table


_HANDLERS = {
    ("theta", "eval"): _cmd_theta_eval,
    ("siegel", "reduce"): _cmd_siegel_reduce,
    ("siegel", "check"): _cmd_siegel_check,
    ("curve", "disc"): _cmd_curve_disc,
    ("elliptic", "faltings"): _cmd_elliptic_faltings,
    ("elliptic", "height"): _cmd_elliptic_height,
    ("elliptic", "decompose"): _cmd_elliptic_decompose,
    ("jacobian", "faltings"): _cmd_jacobian_faltings,
    ("check", "identities"): _cmd_check_identities,
    ("check", "matrix-lemma"): _cmd_check_matrix_lemma,
    ("check", "autissier"): _cmd_check_autissier,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="thetaheights",
                                 description="local decompositions of canonical and "
                                             "differential heights")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec", type=int, default=128,
                        help="working precision in bits [64, 4096]")
    common.add_argument("--verify", action="store_true",
                        help="recompute at prec+64 and report the largest component delta")
    common.add_argument("--out", type=str, default=None,
                        help="write the JSON document here")
    sub = ap.add_subparsers(dest="group", required=True)

    def leaf(group, name):
        return group.add_parser(name, parents=[common])

    g_theta = sub.add_parser("theta").add_subparsers(dest="cmd", required=True)
    p = leaf(g_theta, "eval")
    p.add_argument("--a", required=True, help="characteristic a, comma-separated rationals")
    p.add_argument("--b", required=True, help="characteristic b, comma-separated rationals")
    p.add_argument("--z", default=None, help="argument z, [re,im] or nested list")
    p.add_argument("--tau", required=True, help="tau, [re,im] or matrix of them")

    g_sieg = sub.add_parser("siegel").add_subparsers(dest="cmd", required=True)
    p = leaf(g_sieg, "reduce")
    p.add_argument("--tau", required=True)
    p = leaf(g_sieg, "check")
    p.add_argument("--tau", required=True)

    g_curve = sub.add_parser("curve").add_subparsers(dest="cmd", required=True)
    p = leaf(g_curve, "disc")
    p.add_argument("--curve", required=True)

    g_ell = sub.add_parser("elliptic").add_subparsers(dest="cmd", required=True)
    p = leaf(g_ell, "faltings")
    p.add_argument("--curve", required=True)
    p.add_argument("--stable", action="store_true",
                   help="use stable-model exponents max(0, -ord_p(j)) in the finite part")
    p = leaf(g_ell, "height")
    p.add_argument("--curve", required=True)
    p.add_argument("--point", required=True, help="rational point 'x,y'")
    p = leaf(g_ell, "decompose")
    p.add_argument("--curve", required=True)
    p.add_argument("--stable", action="store_true")

    g_jac = sub.add_parser("jacobian").add_subparsers(dest="cmd", required=True)
    p = leaf(g_jac, "faltings")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--finite", default=None,
                   help='finite-place data, e.g. [{"p":5,"ord_delta_min":5,"e":0}]')
    p.add_argument("--tau", default=None, help="period matrix, nested [re,im] lists")
    p.add_argument("--cm-quintic", action="store_true",
                   help="use the built-in period matrix of Jac(y^2+y=x^5)")

    g_chk = sub.add_parser("check").add_subparsers(dest="cmd", required=True)
    p = leaf(g_chk, "identities")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p = leaf(g_chk, "matrix-lemma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p = leaf(g_chk, "autissier")
    p.add_argument("--tau", default=None)
    return ap


def run(argv) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        bits = validate_cli_bits(args.prec)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    ctx = PrecisionContext(bits=bits)
    handler = _HANDLERS[(args.group, args.cmd)]
    try:
        doc, table = handler(args, ctx)
        if args.verify:
            hi = ctx.higher(64)
            doc2, _ = handler(args, hi)
            with hi.workprec():
                delta = _max_delta(doc, doc2)
            doc["verify"] = {"recomputed_bits": hi.bits, "max_delta": delta}
            table.append(f"verify: recomputed at {hi.bits} bits, "
                         f"max delta {mp.nstr(delta, 3)}")
    except _ParseFailure as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (NumericError, ResourceError) as e:
        print(f"numeric/resource error: {e}", file=sys.stderr)
        return 4
    except (DomainError, ThetaHeightsError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3

    doc_out = {"command": f"{args.group} {args.cmd}", "precision_bits": ctx.bits}
    with ctx.workprec():     # mpf(x) in _fmt must not round to 53 bits
        doc_out.update(_fmt(doc, min(JSON_DIGITS, int(ctx.bits * math.log10(2)))))
    if "warnings" not in doc_out:
        doc_out["warnings"] = []
    text = json.dumps(doc_out, sort_keys=True, separators=(",", ":")) + "\n"
    for line in table:
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
