"""Command-line front end: enumeration, certification, and experiment reports.

Subcommands: enumerate, certify, table1, table2, containment, homotopy,
selftest.  Every CSV embeds (seed, n, box, build id) in '#'-prefixed header
comments; rerunning a command with the same flags reproduces byte-identical
data rows.  Ratios print with 5 decimals; relative-comparison quantities are
scaled by 100 to match the published table (see the table2 docstring).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (CircuitSupport, WeightedCover, circuit_number, cover_theta_sum,
                       optimize_scalar_weight, weighted_theta_sum)
from .covers import all_covers, canonical_key, census, cover_fixture, enumerate_pure_covers, fixture_keys
from .geometry import A1, A2, A4, A6, M, LatticePoint, Simplex, hexagon_points
from .model import (
    Case,
    EtaPoint,
    KappaVector,
    classify,
    closed_form_bound,
    hex_coefficients,
    negative_prefactor,
    reduce,
)
from .experiment import (
    CoverEvaluator,
    SamplePlan,
    case4_eta_points,
    compare_vs_baseline,
    containment_analysis,
    evaluate_covers,
    hex_coefficient_arrays,
    linear_homotopy,
    simplicial_homotopy,
)

EXIT_OK = 0
EXIT_UNDETERMINED = 1
EXIT_MULTISTATIONARY = 2
EXIT_USAGE = 64

BUILD_ID = f"hexcover-{__version__}"
TABLE2_SCALE = 100.0  # relative-comparison ratios are reported as percentages
_cover_evaluator = functools.cache(CoverEvaluator)  # built on first certify, then reused


def _default_seed() -> int:
    env = os.environ.get("SONC_MONO_SEED")
    return int(env) if env else 42


def _read_config(path: str) -> dict[str, str]:
    conf = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            conf[key.strip()] = value.strip()
    return conf


def _plan_from_args(args) -> SamplePlan:
    conf = _read_config(args.config) if getattr(args, "config", None) else {}

    def pick(name, cast, fallback):
        val = getattr(args, name, None)
        if val is not None:
            return val
        if name in conf:
            return cast(conf[name])
        return fallback

    return SamplePlan(
        box_size=pick("box", float, 1.0),
        target_case4_samples=pick("n", int, 1_000_000),
        seed=pick("seed", int, _default_seed()),
        threads=pick("threads", int, 1),
    )


def _csv_header(plan: SamplePlan | None, extra: dict | None = None) -> list[str]:
    lines = [f"# build: {BUILD_ID}"]
    if plan is not None:
        lines += [
            f"# seed: {plan.seed}",
            f"# n: {plan.target_case4_samples}",
            f"# box: {plan.box_size:g}",
        ]
    for k, v in (extra or {}).items():
        lines.append(f"# {k}: {v}")
    return lines


def _emit(args, csv_lines: list[str], json_obj: dict, stem: str) -> None:
    text = "\n".join(csv_lines) + "\n"
    if getattr(args, "out", None):
        with open(f"{args.out}{stem}.csv", "w", newline="") as fh:
            fh.write(text)
        with open(f"{args.out}{stem}.json", "w") as fh:
            json.dump(json_obj, fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- enumerate


def _load_points_file(path: str):
    """Point file: one 'x z' pair per line; the interior point prefixed with 'm'."""
    points, m = [], None
    with open(path) as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0] == "m":
                m = LatticePoint(int(tokens[1]), int(tokens[2]))
            else:
                points.append(LatticePoint(int(tokens[0]), int(tokens[1])))
    if m is None:
        raise ValueError(f"{path}: no interior point line ('m x z')")
    return points, m


def cmd_enumerate(args) -> int:
    if args.points:
        points, m = _load_points_file(args.points)
        covers = enumerate_pure_covers(points, m)
        for c in covers:
            print(f"{c.id}: {canonical_key(c) if set(points) == set(hexagon_points()[0]) else c.simplices}")
        if not covers:
            print(f"warning: no pure cover exists for {len(points)} points around {tuple(m)}",
                  file=sys.stderr)
        return EXIT_OK
    covers = enumerate_pure_covers(*hexagon_points())
    by_id = sorted(covers, key=lambda c: c.id)
    for c in by_id:
        print(f"{c.id}: {canonical_key(c)}")
    if args.check_census:
        counts = census(covers)
        print(f"5-segment: {counts['five-segment']}, special-triangle: {counts['special-triangle']}, "
              f"row-spanning: {counts['row-spanning']}")
    fixture = fixture_keys()
    found = {c.id: canonical_key(c) for c in covers}
    if len(covers) != 16 or found != fixture:
        missing = {i: k for i, k in fixture.items() if found.get(i) != k}
        print(f"fixture mismatch: {missing}", file=sys.stderr)
        return 1
    return EXIT_OK


# ------------------------------------------------------------------ certify


def _parse_vector(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def cmd_certify(args) -> int:
    try:
        if args.file:
            values = _parse_vector(Path(args.file).read_text())
        elif args.kappa:
            values = _parse_vector(args.kappa)
        elif args.eta:
            values = _parse_vector(args.eta)
        else:
            print("certify: provide --kappa, --eta, or --file", file=sys.stderr)
            return EXIT_USAGE
        if len(values) == 12:
            eta = reduce(KappaVector(tuple(values)))
        elif len(values) == 8:
            eta = EtaPoint(*values)
        else:
            print(f"certify: expected 12 or 8 positive reals, got {len(values)}", file=sys.stderr)
            return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return EXIT_USAGE

    sc = classify(eta)
    print(f"case: {sc.tag.name}  a={sc.a_value:.6g}  b={sc.b_value:.6g}")
    if sc.tag is Case.CASE1_MONOSTATIONARY:
        print("verdict: monostationary (all coefficients nonnegative)")
        return EXIT_OK
    if sc.tag is Case.CASE2_MULTISTATIONARY:
        print("verdict: multistationarity enabled")
        return EXIT_MULTISTATIONARY
    if sc.tag is Case.CASE3_A_ZERO_B_NEG:
        print("verdict: undetermined here (boundary case a = 0)")
        return EXIT_UNDETERMINED

    # a batch of one through the Monte-Carlo kernel, so verdicts match its hit masks bit for bit
    coeffs, c_m = hex_coefficient_arrays(np.array(eta.as_tuple())[:, None], sc.a_value, sc.b_value)
    thetas = _cover_evaluator().theta_sums(np.log(coeffs))[:, 0]
    neg_cm = -c_m[0]
    hits = thetas >= neg_cm
    for cover, theta, hit in zip(all_covers(), thetas, hits):
        print(f"CC({cover.id}): theta_sum={theta:.6g}  -c_m={neg_cm:.6g}  "
              f"{'CERTIFIED' if hit else 'not certified'}")
    print(f"union: {'CERTIFIED' if hits.any() else 'not certified'}")
    for cid in (4, 9, 10, 12, 15):
        print(f"bound CC({cid}): {closed_form_bound(cid, eta):.6g}  -b={-sc.b_value:.6g}")
    if hits.any():
        print("verdict: monostationary (certified by circuit cover)")
        return EXIT_OK
    print("verdict: undetermined (no cover certificate at this point)")
    return EXIT_UNDETERMINED


# ------------------------------------------------------------- experiments


def cmd_table1(args) -> int:
    plan = args.plan
    m = evaluate_covers(plan)
    lines = _csv_header(plan, {"columns": "cover,hits,ratio"})
    lines.append(f"sum,{m.union_count},{m.union_ratio:.5f}")
    for cid in range(1, 17):
        lines.append(f"CC({cid}),{m.counts[cid - 1]},{m.ratios[cid - 1]:.5f}")
    obj = {
        "build": BUILD_ID, "seed": plan.seed, "n": m.n, "box": plan.box_size,
        "raw_draws": m.raw_draws,
        "union": {"hits": m.union_count, "ratio": round(m.union_ratio, 5)},
        "covers": [
            {"id": cid, "hits": int(m.counts[cid - 1]), "ratio": round(float(m.ratios[cid - 1]), 5)}
            for cid in range(1, 17)
        ],
    }
    _emit(args, lines, obj, "table1")
    return EXIT_OK


def cmd_table2(args) -> int:
    """Relative comparison against a baseline cover.

    The published table reports each count divided by the sample total and
    scaled; its values correspond to a factor of 100 (e.g. the baseline gap
    of cover 1 equals its full hit-ratio deficit), so that is the scale used
    here, printed with 2 decimals.
    """
    plan = args.plan
    m = evaluate_covers(plan)
    records = compare_vs_baseline(m, args.baseline)
    lines = _csv_header(plan, {
        "baseline": args.baseline,
        "columns": "cover,plus,minus,zero,plus_count,minus_count,zero_count",
        "scale": "ratios multiplied by 100",
    })
    for r in records:
        lines.append(
            f"CC({r.cover_id}),{r.plus / m.n * TABLE2_SCALE:.2f},{r.minus / m.n * TABLE2_SCALE:.2f},"
            f"{r.zero / m.n * TABLE2_SCALE:.2f},{r.plus},{r.minus},{r.zero}"
        )
    obj = {
        "build": BUILD_ID, "seed": plan.seed, "n": m.n, "box": plan.box_size,
        "baseline": args.baseline,
        "covers": [
            {"id": r.cover_id,
             "plus": round(r.plus / m.n * TABLE2_SCALE, 2),
             "minus": round(r.minus / m.n * TABLE2_SCALE, 2),
             "zero": round(r.zero / m.n * TABLE2_SCALE, 2),
             "plus_count": r.plus, "minus_count": r.minus, "zero_count": r.zero}
            for r in records
        ],
    }
    _emit(args, lines, obj, "table2")
    return EXIT_OK


def cmd_containment(args) -> int:
    plan = args.plan
    m = evaluate_covers(plan)
    rep = containment_analysis(m, threshold=args.threshold)
    lines = _csv_header(plan, {"columns": "A,B,kind", "threshold": rep.threshold,
                              "near_band": rep.near_band})
    for a, b in rep.edges:
        lines.append(f"{a},{b},contained")
    for a, b in rep.near_edges:
        lines.append(f"{a},{b},near")
    obj = {
        "build": BUILD_ID, "seed": plan.seed, "n": m.n, "box": plan.box_size,
        "threshold": rep.threshold, "near_band": rep.near_band,
        "edges": [list(e) for e in rep.edges],
        "near_edges": [list(e) for e in rep.near_edges],
        "equal_groups": rep.equal_groups,
        "hasse_edges": [list(e) for e in rep.hasse_edges],
        "unique_counts": {str(cid): int(rep.unique_counts[cid - 1]) for cid in range(1, 17)},
        "difference_matrix": rep.matrix.tolist(),
    }
    _emit(args, lines, obj, "containment")
    return EXIT_OK


def cmd_homotopy(args) -> int:
    try:
        cover_ids = [int(t) for t in args.covers.split(",")]
        if len(cover_ids) not in (2, 3):
            raise ValueError("need 2 or 3 cover ids")
    except ValueError as exc:
        print(f"homotopy: {exc}", file=sys.stderr)
        return EXIT_USAGE
    plan = args.plan
    delta = args.delta if args.delta is not None else (0.05 if len(cover_ids) == 2 else 1 / 16)
    m = evaluate_covers(plan, keep_theta=tuple(cover_ids))
    if len(cover_ids) == 2:
        curve = linear_homotopy(m, *cover_ids, dt=delta)
        lines = _csv_header(plan, {"covers": args.covers, "delta": f"{delta:g}",
                                   "columns": "t,ratio"})
        for (t,), r in zip(curve.grid, curve.ratios):
            lines.append(f"{t:.6g},{r:.5f}")
    else:
        curve = simplicial_homotopy(m, *cover_ids, delta=delta)
        lines = _csv_header(plan, {"covers": args.covers, "delta": f"{delta:g}",
                                   "columns": "s,t,ratio"})
        for (s, t), r in zip(curve.grid, curve.ratios):
            lines.append(f"{s:.6g},{t:.6g},{r:.5f}")
    obj = {
        "build": BUILD_ID, "seed": plan.seed, "n": m.n, "box": plan.box_size,
        "covers": cover_ids, "delta": delta,
        "points": [list(g) + [round(r, 5)] for g, r in zip(curve.grid, curve.ratios)],
    }
    _emit(args, lines, obj, "homotopy")
    return EXIT_OK


# ----------------------------------------------------------------- selftest


def _selftest_checks() -> list[tuple[str, bool, str]]:
    checks = []

    tri, seg = Simplex((A4, A2, A6)), Simplex((A1, A4))
    theta = circuit_number(CircuitSupport(tri, M, {A4: 1.0, A2: 1.0, A6: 1.0}))
    checks.append(("circuit_number_theta_3", abs(theta - 3.0) <= 1e-12, f"theta={theta!r}"))

    ones = {v: 1.0 for v in (A1, A2, A4, A6)}

    def toy(w):  # split a4's coefficient between the triangle (w) and the segment (1 - w)
        return weighted_theta_sum(WeightedCover(((tri,), (seg,)), {(0, A4): w, (1, A4): 1.0 - w}), ones)

    w_opt, value = optimize_scalar_weight(toy)
    checks.append(("toy_weighted_optimum",
                   abs(w_opt - 0.5497) <= 1e-3 and abs(value - 3.7996) <= 1e-3,
                   f"w={w_opt:.5f} value={value:.5f}"))

    etas = case4_eta_points(100, seed=7, box_size=1.0)
    swap_ok = all(
        math.isclose(closed_form_bound(10, e), closed_form_bound(12, e.swapped()), rel_tol=1e-12)
        for e in etas
    )
    checks.append(("cover_10_12_swap_symmetry", swap_ok, "100 random case-4 points"))

    ident_ok = True
    worst = 0.0
    for e in etas:
        coeffs = hex_coefficients(e)
        pref = negative_prefactor(e)
        for cid in (4, 10, 12, 15):
            lhs = closed_form_bound(cid, e) * pref
            rhs = cover_theta_sum(cover_fixture(cid), coeffs.coeffs)
            err = abs(lhs - rhs) / rhs
            worst = max(worst, err)
            ident_ok = ident_ok and err <= 1e-10
    checks.append(("closed_form_vs_theta_sum", ident_ok, f"max rel err {worst:.2e}"))
    return checks


def cmd_selftest(args) -> int:
    checks = _selftest_checks()
    if args.json:
        print(json.dumps({name: {"pass": ok, "detail": detail} for name, ok, detail in checks},
                         indent=2))
    else:
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return EXIT_OK if all(ok for _, ok, _ in checks) else 1


# --------------------------------------------------------------------- main


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="accepted case-4 samples (default 1e6)")
    p.add_argument("--box", type=float, default=None, help="hypercube side length N (default 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: SONC_MONO_SEED or 42)")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value config file; flags win")
    p.add_argument("--out", default=None, help="output path prefix for CSV/JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hexcover",
                                     description="Circuit-cover monostationarity certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate pure covers")
    p.add_argument("--points", default=None, help="custom point file ('x z' lines plus 'm x z')")
    p.add_argument("--check-census", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("certify", help="certify one parameter point")
    p.add_argument("--kappa", default=None, help="12 comma-separated rate constants")
    p.add_argument("--eta", default=None, help="8 comma-separated reduced parameters")
    p.add_argument("--file", default=None, help="file with 12 or 8 positive reals")
    p.set_defaults(func=cmd_certify)

    for name, func in (("table1", cmd_table1), ("containment", cmd_containment)):
        p = sub.add_parser(name)
        _add_plan_flags(p)
        if name == "containment":
            p.add_argument("--threshold", type=int, default=0)
        p.set_defaults(func=func)

    p = sub.add_parser("table2")
    _add_plan_flags(p)
    p.add_argument("--baseline", type=int, default=9)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("homotopy")
    _add_plan_flags(p)
    p.add_argument("--covers", required=True, help="2 or 3 comma-separated cover ids")
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("selftest")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if hasattr(args, "seed"):  # experiment commands
        try:
            args.plan = _plan_from_args(args)
        except (ValueError, OSError) as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
