"""Command-line front end: enumeration, certification, and experiment reports.

Subcommands: enumerate, certify, table1, table2, containment, homotopy,
selftest.  Every input is checked before any work starts: ``main`` builds the
sample plan and runs the subcommand's check step, and only ``main`` turns a
ValueError or OSError from them into one stderr line and exit 64.  Every CSV
embeds (seed, n, box, build id) in '#'-prefixed header comments; rerunning a
command with the same flags reproduces byte-identical data rows.  Ratios
print with 5 decimals; relative-comparison quantities are scaled by 100 to
match the published table (see the table2 docstring).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .circuits import CircuitSupport, circuit_number, cover_theta_sum, optimize_scalar_weight
from .covers import (all_covers, canonical_key, census, cover_fixture, enumerate_pure_covers,
                     fixture_keys, point_configuration)
from .geometry import A1, A2, A4, A6, HEXAGON_POSITIVE, M, LatticePoint, Simplex
from .model import (
    CLOSED_FORM_IDS,
    Case,
    EtaPoint,
    KappaVector,
    classify,
    closed_form_bound,
    hex_coefficient_arrays,
    hex_coefficients,
    negative_prefactor,
    reduce,
)
from .experiment import (
    DEFAULT_LINEAR_STEP,
    DEFAULT_SIMPLICIAL_STEP,
    MAX_SWEEP_STEPS,
    MAX_THREADS,
    CoverEvaluator,
    SamplePlan,
    case4_eta_points,
    case4_thetas,
    check_containment_threshold,
    compare_vs_baseline,
    containment_analysis,
    evaluate_covers,
    linear_homotopy,
    simplicial_homotopy,
    sweep_steps,
)

EXIT_OK = 0
EXIT_UNDETERMINED = 1
EXIT_MULTISTATIONARY = 2
EXIT_USAGE = 64

BUILD_ID = f"hexcover-{__version__}"
TABLE2_SCALE = 100.0  # relative-comparison ratios are reported as percentages
MAX_POINTS = 14  # most points of an --points file; the number of pure covers grows exponentially
MAX_INPUT_CHARS = 1 << 20  # most characters of a --config, --points or --file input
_cover_evaluator = functools.cache(CoverEvaluator)  # built on first certify, then reused

# plan flag (and config key) -> (SamplePlan field, type of a config value)
_PLAN_FIELDS = {"box": ("box_size", float), "n": ("target_case4_samples", int),
                "seed": ("seed", int), "threads": ("threads", int)}


def _read_input(path: str) -> str:
    """An input file's text; ValueError beyond ``MAX_INPUT_CHARS`` characters, so no file exhausts memory."""
    with open(path) as fh:
        text = fh.read(MAX_INPUT_CHARS + 1)
    if len(text) > MAX_INPUT_CHARS:
        raise ValueError(f"{path}: longer than {MAX_INPUT_CHARS} characters")
    return text


def _read_config(path: str) -> dict[str, str]:
    """The file's 'key=value' lines; ValueError on a key that is not a plan flag."""
    conf = {}
    for line in _read_input(path).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PLAN_FIELDS:
            raise ValueError(f"{path}: unknown key {key!r}; keys are {', '.join(_PLAN_FIELDS)}")
        conf[key] = value.strip()
    return conf


def _plan_from_args(args) -> SamplePlan:
    """The plan from the values actually supplied; SamplePlan holds the defaults.

    A flag beats the --config file, which beats SONC_MONO_SEED.
    """
    env = os.environ.get("SONC_MONO_SEED")
    supplied = {"seed": int(env)} if env else {}
    if args.config:
        supplied.update(_read_config(args.config))
    supplied.update({key: value for key in _PLAN_FIELDS
                     if (value := getattr(args, key)) is not None})
    return SamplePlan(**{name: cast(supplied[key])
                         for key, (name, cast) in _PLAN_FIELDS.items() if key in supplied})


def _out_paths(args) -> list[str]:
    """The CSV and JSON files --out names; OSError unless its directory exists and both can be written."""
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(f"--out: directory {out_dir!r} does not exist")
    paths = [f"{args.out}{args.command}.{ext}" for ext in ("csv", "json")]
    for path in paths:
        if os.path.isdir(path) or not os.access(path if os.path.exists(path) else out_dir, os.W_OK):
            raise PermissionError(f"--out: cannot write {path!r}")
    return paths


def _report(args, n: int, header: dict, rows: list[str], fields: dict) -> int:
    """Print a report's CSV, or with --out write it and its JSON twin; returns EXIT_OK.

    Both start with the build id, seed, n and box; ``header`` adds '#' lines
    to the CSV and ``fields`` adds keys to the JSON.
    """
    plan = args.plan
    lines = [f"# build: {BUILD_ID}", f"# seed: {plan.seed}", f"# n: {plan.target_case4_samples}",
             f"# box: {plan.box_size:g}", *(f"# {k}: {v}" for k, v in header.items()), *rows]
    text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    csv_path, json_path = _out_paths(args)
    with open(csv_path, "w", newline="") as fh:
        fh.write(text)
    with open(json_path, "w") as fh:
        json.dump({"build": BUILD_ID, "seed": plan.seed, "n": n, "box": plan.box_size, **fields},
                  fh, indent=2)
        fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------- enumerate


def _load_points_file(path: str):
    """Point file: one 'x z' pair per line, at most ``MAX_POINTS``; the interior point prefixed with 'm'."""
    points, m = [], None
    for line in _read_input(path).split("\n"):
        tokens = line.split("#")[0].split()
        if not tokens:
            continue
        is_m = tokens[0] == "m"
        if len(tokens) != 2 + is_m:
            raise ValueError(f"{path}: expected 'x z' or 'm x z', got {line.strip()!r}")
        p = LatticePoint(int(tokens[is_m]), int(tokens[is_m + 1]))
        if not is_m:
            points.append(p)
        elif m is None:
            m = p
        else:
            raise ValueError(f"{path}: more than one interior point line ('m x z')")
    if m is None:
        raise ValueError(f"{path}: no interior point line ('m x z')")
    if len(points) > MAX_POINTS:
        raise ValueError(f"{path}: {len(points)} points; at most {MAX_POINTS} can be enumerated")
    return point_configuration(points, m)


def _check_enumerate(args) -> None:
    args.configuration = _load_points_file(args.points) if args.points else None


def cmd_enumerate(args) -> int:
    if args.configuration:
        points, m = args.configuration
        covers = enumerate_pure_covers(points, m)
        for c in covers:
            print(f"{c.id}: {canonical_key(c) if set(points) == set(HEXAGON_POSITIVE) else c.simplices}")
        if not covers:
            print(f"warning: no pure cover exists for {len(points)} points around {tuple(m)}",
                  file=sys.stderr)
        return EXIT_OK
    covers = enumerate_pure_covers(HEXAGON_POSITIVE, M)
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


def _check_certify(args) -> None:
    """Parse the point and evaluate it; ValueError if a value that certify uses leaves float64.

    The coefficients come from the Monte-Carlo kernel on the point's 8
    floats, so a point gets the bits of its hit masks, as its (10,) column.
    a, b, the ten coefficients and c_m must be finite.  In case 4 the column
    also passes ``case4_thetas``, the block task's check (no coefficient or
    c_m is 0), which gives each cover's Theta sum once; cover 9's bound
    reuses its sum, and every bound must be finite.
    """
    given = [text for text in (args.kappa, args.eta, args.file) if text is not None]
    if len(given) != 1:
        raise ValueError("provide exactly one of --kappa, --eta, --file")
    text = _read_input(args.file) if args.file is not None else given[0]
    values = [float(t) for t in text.replace(",", " ").split()]
    if len(values) == 12:
        eta = reduce(KappaVector(tuple(values)))
    elif len(values) == 8:
        eta = EtaPoint(*values)
    else:
        raise ValueError(f"expected 12 or 8 positive reals, got {len(values)}")
    sc = args.case = classify(eta)  # ValueError when a or b is NaN
    coeffs, c_m = hex_coefficient_arrays(eta.as_tuple(), sc.a_value, sc.b_value)  # inf, NaN or 0 unraised
    if not all(map(math.isfinite, [sc.a_value, sc.b_value, *coeffs.tolist(), c_m])):
        raise ValueError("a, b, the coefficients and c_m must be finite in float64")
    if sc.tag is not Case.CASE4_A_POS_B_NEG:
        return
    try:  # a Python float power in a bound raises
        with np.errstate(all="ignore"):  # a Theta sum beyond float64 prints as inf
            thetas, neg_cm = case4_thetas(_cover_evaluator(), coeffs, c_m)  # covers 1..16
        thetas = thetas.tolist()
        bounds = [closed_form_bound(cid, eta, thetas[cid - 1]) for cid in CLOSED_FORM_IDS]
    except ArithmeticError as exc:
        raise ValueError(f"a value is beyond float64: {exc}") from None
    if not all(map(math.isfinite, bounds)):
        raise ValueError("a closed-form bound is not finite in float64")
    args.thetas, args.neg_cm, args.bounds = thetas, neg_cm, bounds


def cmd_certify(args) -> int:
    sc = args.case
    lines = [f"case: {sc.tag.name}  a={sc.a_value:.6g}  b={sc.b_value:.6g}"]
    if sc.tag is Case.CASE1_MONOSTATIONARY:
        verdict, code = "monostationary (all coefficients nonnegative)", EXIT_OK
    elif sc.tag is Case.CASE2_MULTISTATIONARY:
        verdict, code = "multistationarity enabled", EXIT_MULTISTATIONARY
    elif sc.tag is Case.CASE3_A_ZERO_B_NEG:
        verdict, code = "undetermined here (boundary case a = 0)", EXIT_UNDETERMINED
    else:
        hits, neg_cm = [theta >= args.neg_cm for theta in args.thetas], f"{args.neg_cm:.6g}"
        lines += [f"CC({cover.id}): theta_sum={theta:.6g}  -c_m={neg_cm}  "
                  f"{'CERTIFIED' if hit else 'not certified'}"
                  for cover, theta, hit in zip(all_covers(), args.thetas, hits)]
        lines.append(f"union: {'CERTIFIED' if any(hits) else 'not certified'}")
        lines += [f"bound CC({cid}): {bound:.6g}  -b={-sc.b_value:.6g}"
                  for cid, bound in zip(CLOSED_FORM_IDS, args.bounds)]
        verdict, code = (("monostationary (certified by circuit cover)", EXIT_OK) if any(hits) else
                         ("undetermined (no cover certificate at this point)", EXIT_UNDETERMINED))
    sys.stdout.write("\n".join([*lines, f"verdict: {verdict}"]) + "\n")
    return code


# ------------------------------------------------------------- experiments


def cmd_table1(args) -> int:
    m = evaluate_covers(args.plan)
    rows = [f"sum,{m.union_count},{m.union_ratio:.5f}"]
    rows += [f"CC({cid}),{m.counts[cid - 1]},{m.ratios[cid - 1]:.5f}" for cid in range(1, 17)]
    return _report(args, m.n, {"columns": "cover,hits,ratio"}, rows, {
        "raw_draws": m.raw_draws,
        "union": {"hits": m.union_count, "ratio": round(m.union_ratio, 5)},
        "covers": [
            {"id": cid, "hits": int(m.counts[cid - 1]), "ratio": round(float(m.ratios[cid - 1]), 5)}
            for cid in range(1, 17)
        ],
    })


def _check_table2(args) -> None:
    cover_fixture(args.baseline)  # ValueError unless the id is in 1..16


def cmd_table2(args) -> int:
    """Relative comparison against a baseline cover.

    The published table reports each count divided by the sample total and
    scaled; its values correspond to a factor of 100 (e.g. the baseline gap
    of cover 1 equals its full hit-ratio deficit), so that is the scale used
    here, printed with 2 decimals.
    """
    m = evaluate_covers(args.plan)
    records = compare_vs_baseline(m, args.baseline)
    scaled = [[count / m.n * TABLE2_SCALE for count in (r.plus, r.minus, r.zero)] for r in records]
    rows = [f"CC({r.cover_id}),{plus:.2f},{minus:.2f},{zero:.2f},{r.plus},{r.minus},{r.zero}"
            for r, (plus, minus, zero) in zip(records, scaled)]
    header = {"baseline": args.baseline,
              "columns": "cover,plus,minus,zero,plus_count,minus_count,zero_count",
              "scale": "ratios multiplied by 100"}
    return _report(args, m.n, header, rows, {
        "baseline": args.baseline,
        "covers": [
            {"id": r.cover_id,
             "plus": round(plus, 2), "minus": round(minus, 2), "zero": round(zero, 2),
             "plus_count": r.plus, "minus_count": r.minus, "zero_count": r.zero}
            for r, (plus, minus, zero) in zip(records, scaled)
        ],
    })


def _check_containment(args) -> None:
    check_containment_threshold(args.threshold)  # ValueError below 0


def cmd_containment(args) -> int:
    m = evaluate_covers(args.plan)
    rep = containment_analysis(m, threshold=args.threshold)
    rows = [f"{a},{b},contained" for a, b in rep.edges] + [f"{a},{b},near" for a, b in rep.near_edges]
    header = {"columns": "A,B,kind", "threshold": rep.threshold, "near_band": rep.near_band}
    return _report(args, m.n, header, rows, {
        "threshold": rep.threshold, "near_band": rep.near_band,
        "edges": [list(e) for e in rep.edges],
        "near_edges": [list(e) for e in rep.near_edges],
        "equal_groups": rep.equal_groups,
        "hasse_edges": [list(e) for e in rep.hasse_edges],
        "unique_counts": {str(cid): int(rep.unique_counts[cid - 1]) for cid in range(1, 17)},
        "difference_matrix": rep.matrix.tolist(),
    })


def _check_homotopy(args) -> None:
    ids = args.cover_ids = tuple(int(t) for t in args.covers.split(","))
    if len(ids) not in (2, 3):
        raise ValueError("need 2 or 3 cover ids")
    if len(set(ids)) != len(ids):
        raise ValueError(f"need distinct cover ids, got {args.covers}")
    for cid in ids:
        cover_fixture(cid)  # ValueError unless the id is in 1..16
    if args.delta is None:
        args.delta = DEFAULT_LINEAR_STEP if len(ids) == 2 else DEFAULT_SIMPLICIAL_STEP
    sweep_steps(args.delta)


def cmd_homotopy(args) -> int:
    ids, delta = args.cover_ids, args.delta
    m = evaluate_covers(args.plan, keep_theta=ids)
    if len(ids) == 2:
        curve, columns = linear_homotopy(m, *ids, dt=delta), "t,ratio"
    else:
        curve, columns = simplicial_homotopy(m, *ids, delta=delta), "s,t,ratio"
    rows = ["".join(f"{x:.6g}," for x in g) + f"{r:.5f}" for g, r in zip(curve.grid, curve.ratios)]
    header = {"covers": args.covers, "delta": f"{delta:g}", "columns": columns}
    return _report(args, m.n, header, rows, {
        "covers": list(ids), "delta": delta,
        "points": [list(g) + [round(r, 5)] for g, r in zip(curve.grid, curve.ratios)],
    })


# ----------------------------------------------------------------- selftest


_TOY_TRIANGLE, _TOY_SEGMENT = Simplex((A4, A2, A6)), Simplex((A1, A4))


def toy_split(w: float) -> float:
    """Theta sum of the toy split: a4's unit coefficient goes w to the triangle, 1 - w to the segment.

    g = x1^4 x3^2 + x1^2 + x3 + 1 - c x1^2 x3 has unit coefficients on the
    triangle (a4, a2, a6) and the segment (a1, a4) around m.  The circuits
    alone certify c <= 3 and c <= 2; the best split, w = 0.5497, about 3.7996.
    """
    total = 0.0
    if w > 0:
        total += circuit_number(CircuitSupport(_TOY_TRIANGLE, M, {A4: w, A2: 1.0, A6: 1.0}))
    if w < 1:
        total += circuit_number(CircuitSupport(_TOY_SEGMENT, M, {A1: 1.0, A4: 1.0 - w}))
    return total


def _selftest_checks() -> list[tuple[str, bool, str]]:
    checks = []

    theta = circuit_number(CircuitSupport(_TOY_TRIANGLE, M, {A4: 1.0, A2: 1.0, A6: 1.0}))
    checks.append(("circuit_number_theta_3", abs(theta - 3.0) <= 1e-12, f"theta={theta!r}"))

    w_opt, value = optimize_scalar_weight(toy_split)
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
        coeffs, _ = hex_coefficients(e)
        pref = negative_prefactor(e)
        for cid in (4, 10, 12, 15):
            lhs = closed_form_bound(cid, e) * pref
            rhs = cover_theta_sum(cover_fixture(cid), coeffs)
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
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker threads, 1 to {MAX_THREADS} (default 1)")
    p.add_argument("--config", default=None, help="key=value config file; flags win")
    p.add_argument("--out", default=None, help="output path prefix for CSV/JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hexcover",
                                     description="Circuit-cover monostationarity certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate pure covers")
    p.add_argument("--points", default=None, help="custom point file ('x z' lines plus 'm x z')")
    p.add_argument("--check-census", action="store_true")
    p.set_defaults(func=cmd_enumerate, check=_check_enumerate)

    p = sub.add_parser("certify", help="certify one parameter point")
    p.add_argument("--kappa", default=None, help="12 comma-separated rate constants")
    p.add_argument("--eta", default=None, help="8 comma-separated reduced parameters")
    p.add_argument("--file", default=None, help="file with 12 or 8 positive reals")
    p.set_defaults(func=cmd_certify, check=_check_certify)

    p = sub.add_parser("table1")
    _add_plan_flags(p)
    p.set_defaults(func=cmd_table1, check=None)

    p = sub.add_parser("containment")
    _add_plan_flags(p)
    p.add_argument("--threshold", type=int, default=0, help="largest |A\\B| count, >= 0, for A in B")
    p.set_defaults(func=cmd_containment, check=_check_containment)

    p = sub.add_parser("table2")
    _add_plan_flags(p)
    p.add_argument("--baseline", type=int, default=9)
    p.set_defaults(func=cmd_table2, check=_check_table2)

    p = sub.add_parser("homotopy")
    _add_plan_flags(p)
    p.add_argument("--covers", required=True, help="2 or 3 comma-separated cover ids")
    p.add_argument("--delta", type=float, default=None,
                   help=f"grid step dividing 1 into at most {MAX_SWEEP_STEPS} steps")
    p.set_defaults(func=cmd_homotopy, check=_check_homotopy)

    p = sub.add_parser("selftest")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest, check=None)
    return parser


_parser = functools.cache(build_parser)  # parse_args returns a fresh Namespace per call


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:  # every input is checked here, before any sampling or output
        if hasattr(args, "seed"):  # experiment commands
            args.plan = _plan_from_args(args)
            if args.out:  # checked now, not after the run
                _out_paths(args)
        if args.check is not None:
            args.check(args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
