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
from .circuits import _compiled_simplex, cover_theta_sum
from .covers import (all_covers, canonical_key, census, cover_fixture, enumerate_pure_covers,
                     fixture_keys, is_hexagon, point_configuration)
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
_CERTIFY_COUNTS = {"kappa": (12,), "eta": (8,), "file": (12, 8)}  # certify flag -> how many reals it takes

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


def _read_config(path: str) -> dict[str, float]:
    """The file's 'key=value' lines, typed; ValueError naming the key if it is unknown, repeated or bad."""
    conf = {}
    for line in _read_input(path).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PLAN_FIELDS:
            raise ValueError(f"{path}: unknown key {key!r}; keys are {', '.join(_PLAN_FIELDS)}")
        if key in conf:
            raise ValueError(f"{path}: key {key!r} is set twice")
        try:
            conf[key] = _PLAN_FIELDS[key][1](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}: key {key!r}: {exc}") from None
    return conf


def _plan_from_args(args) -> SamplePlan:
    """The plan from the values actually supplied; SamplePlan holds the defaults.

    A flag beats the --config file, which beats SONC_MONO_SEED; a value
    that does not parse or is out of range names its source.
    """
    supplied = {}  # plan key -> (source, value)
    if env := os.environ.get("SONC_MONO_SEED"):
        try:
            supplied["seed"] = ("SONC_MONO_SEED", int(env))
        except ValueError as exc:
            raise ValueError(f"SONC_MONO_SEED: {exc}") from None
    if args.config:
        supplied.update({key: (f"{args.config}: key {key!r}", value)
                         for key, value in _read_config(args.config).items()})
    supplied.update({key: (f"--{key}", value) for key in _PLAN_FIELDS
                     if (value := getattr(args, key)) is not None})
    for key, (source, value) in supplied.items():  # SamplePlan checks each field on its own
        try:
            SamplePlan(**{_PLAN_FIELDS[key][0]: value})
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    return SamplePlan(**{_PLAN_FIELDS[key][0]: value for key, (_, value) in supplied.items()})


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
    args.configuration = _load_points_file(args.points) if args.points else (HEXAGON_POSITIVE, M)
    args.hexagon = is_hexagon(*args.configuration)
    if args.check_census and not args.hexagon:
        raise ValueError("--check-census needs the hexagon's ten points around m 2 1")


def cmd_enumerate(args) -> int:
    points, m = args.configuration
    covers = sorted(enumerate_pure_covers(points, m), key=lambda c: c.id)
    for c in covers:
        print(f"{c.id}: {canonical_key(c) if args.hexagon else c.simplices}")
    if not covers:
        print(f"warning: no pure cover exists for {len(points)} points around {tuple(m)}",
              file=sys.stderr)
    if not args.hexagon:
        return EXIT_OK
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
    goes through ``CoverEvaluator.hit_masks``, which checks and decides it
    on its Python floats by the block task's rule (every coefficient and c_m
    finite and nonzero) and gives the point's int hit mask over covers 1..16
    and each cover's Theta sum once.  Each printed bound is its cover's sum
    over the prefactor, and must be finite: a sum beyond float64 exits 64.
    """
    given = [flag for flag in _CERTIFY_COUNTS if getattr(args, flag) is not None]
    if len(given) != 1:
        raise ValueError("provide exactly one of --kappa, --eta, --file")
    [flag] = given
    text = _read_input(args.file) if flag == "file" else getattr(args, flag)
    values = [float(t) for t in text.replace(",", " ").split()]
    if len(values) not in _CERTIFY_COUNTS[flag]:
        counts = " or ".join(map(str, _CERTIFY_COUNTS[flag]))
        raise ValueError(f"--{flag} takes {counts} positive reals, got {len(values)}")
    eta = reduce(KappaVector(values)) if len(values) == 12 else EtaPoint(*values)
    sc = args.case = classify(eta)  # ValueError when a or b is NaN
    coeffs, c_m = hex_coefficient_arrays(eta, sc.a_value, sc.b_value)  # inf, NaN or 0 unraised
    if not all(map(math.isfinite, [sc.a_value, sc.b_value, *coeffs.tolist(), c_m])):
        raise ValueError("a, b, the coefficients and c_m must be finite in float64")
    if sc.tag is not Case.CASE4_A_POS_B_NEG:
        return
    try:  # hit_masks' check raises, and so does a prefactor that underflows to 0
        with np.errstate(all="ignore"):  # a Theta sum beyond float64 prints as inf
            mask, thetas, neg_cm = _cover_evaluator().hit_masks(coeffs, c_m)  # covers 1..16
        bounds = [closed_form_bound(cid, eta, thetas[cid - 1]) for cid in CLOSED_FORM_IDS]
    except ArithmeticError as exc:
        raise ValueError(f"a value is beyond float64: {exc}") from None
    if not all(map(math.isfinite, bounds)):
        raise ValueError("a closed-form bound is not finite in float64")
    args.mask, args.thetas, args.neg_cm, args.bounds = mask, thetas, neg_cm, bounds


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
        neg_cm = f"{args.neg_cm:.6g}"
        lines += [f"CC({cover.id}): theta_sum={theta:.6g}  -c_m={neg_cm}  "
                  f"{'CERTIFIED' if args.mask >> bit & 1 else 'not certified'}"
                  for bit, (cover, theta) in enumerate(zip(all_covers(), args.thetas))]
        lines.append(f"union: {'CERTIFIED' if args.mask else 'not certified'}")
        lines += [f"bound CC({cid}): {bound:.6g}  -b={-sc.b_value:.6g}"
                  for cid, bound in zip(CLOSED_FORM_IDS, args.bounds)]
        verdict, code = (("monostationary (certified by circuit cover)", EXIT_OK) if args.mask else
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
    header = {"covers": ",".join(map(str, ids)), "delta": f"{delta:g}", "columns": columns}
    return _report(args, m.n, header, rows, {
        "covers": list(ids), "delta": delta,
        "points": [list(g) + [round(r, 5)] for g, r in zip(curve.grid, curve.ratios)],
    })


# ----------------------------------------------------------------- selftest


_TOY_TRIANGLE, _TOY_SEGMENT = Simplex((A4, A2, A6)), Simplex((A1, A4))


def _toy_theta(simplex: Simplex, share: float) -> float:
    """Theta of a toy circuit: a column of ones, but ``share`` at a4."""
    column = np.ones(len(HEXAGON_POSITIVE))
    column[HEXAGON_POSITIVE.index(A4)] = share
    return cover_theta_sum((simplex,), column)


def toy_split(w: float) -> float:
    """Theta sum of the toy split: a4's unit coefficient goes w to the triangle, 1 - w to the segment.

    g = x1^4 x3^2 + x1^2 + x3 + 1 - c x1^2 x3 has unit coefficients on the
    triangle (a4, a2, a6) and the segment (a1, a4) around m.  The circuits
    alone certify c <= 3 and c <= 2; the best split, w = 0.5497, about 3.7996.
    """
    total = 0.0
    if w > 0:
        total += _toy_theta(_TOY_TRIANGLE, w)
    if w < 1:
        total += _toy_theta(_TOY_SEGMENT, 1.0 - w)
    return total


def toy_optimum() -> tuple[float, float]:
    """The best split (w, toy_split(w)), where toy_split's slope changes sign.

    A circuit number is concave in its coefficients, and by Euler's identity
    c_v dTheta/dc_v = lambda_v Theta.  So the slope of toy_split on (0, 1) is
    lambda_tri Theta_tri(w)/w - lambda_seg Theta_seg(1 - w)/(1 - w), with a4's
    lambdas 1/3 and 1/2: strictly decreasing, from +inf at 0 to -inf at 1.
    Bisection on its sign runs until lo and hi are adjacent floats.
    """
    (_, lam_tri), (_, lam_seg) = (_compiled_simplex(s)[0][s.index(A4)] for s in (_TOY_TRIANGLE, _TOY_SEGMENT))
    lo, hi = 0.0, 1.0
    while (w := 0.5 * (lo + hi)) not in (lo, hi):
        slope = (lam_tri * _toy_theta(_TOY_TRIANGLE, w) / w
                 - lam_seg * _toy_theta(_TOY_SEGMENT, 1.0 - w) / (1.0 - w))
        lo, hi = (w, hi) if slope > 0 else (lo, w)
    return lo, toy_split(lo)


def _selftest_checks() -> list[tuple[str, bool, str]]:
    checks = []

    theta = _toy_theta(_TOY_TRIANGLE, 1.0)
    checks.append(("circuit_number_theta_3", abs(theta - 3.0) <= 1e-12, f"theta={theta!r}"))

    w_opt, value = toy_optimum()
    checks.append(("toy_weighted_optimum",
                   abs(w_opt - 0.5497) <= 1e-3 and abs(value - 3.7996) <= 1e-3,
                   f"w={w_opt:.5f} value={value:.5f}"))

    etas = case4_eta_points(100, seed=7, box_size=1.0)
    swap_ok = all(
        math.isclose(closed_form_bound(10, e), closed_form_bound(12, e.swapped()), rel_tol=1e-12)
        for e in etas
    )
    checks.append(("cover_10_12_swap_symmetry", swap_ok, "100 random case-4 points"))

    errs = []
    for e in etas:
        coeffs, pref = hex_coefficients(e)[0], negative_prefactor(e)
        for cover in all_covers():
            theta = cover_theta_sum(cover.simplices, coeffs)
            errs.append(abs(closed_form_bound(cover.id, e) * pref - theta) / theta)
    ok = all(err <= 1e-10 for err in errs)
    checks.append(("closed_form_vs_theta_sum", ok, f"max rel err {max(errs):.2e}"))
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


def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    parser = argparse.ArgumentParser(prog="hexcover",
                                     description="Circuit-cover monostationarity certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, check, **kwargs) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, **kwargs)
        p.set_defaults(command=name, func=func, check=check)  # also when parsed on its own
        return p

    p = command("enumerate", cmd_enumerate, _check_enumerate, help="enumerate pure covers")
    p.add_argument("--points", default=None, help="custom point file ('x z' lines plus 'm x z')")
    p.add_argument("--check-census", action="store_true")

    p = command("certify", cmd_certify, _check_certify, help="certify one parameter point")
    p.add_argument("--kappa", default=None, help="12 comma-separated rate constants")
    p.add_argument("--eta", default=None, help="8 comma-separated reduced parameters")
    p.add_argument("--file", default=None, help="file with 12 or 8 positive reals")

    _add_plan_flags(command("table1", cmd_table1, None))

    p = command("containment", cmd_containment, _check_containment)
    _add_plan_flags(p)
    p.add_argument("--threshold", type=int, default=0, help="largest |A\\B| count, >= 0, for A in B")

    p = command("table2", cmd_table2, _check_table2)
    _add_plan_flags(p)
    p.add_argument("--baseline", type=int, default=9)

    p = command("homotopy", cmd_homotopy, _check_homotopy)
    _add_plan_flags(p)
    p.add_argument("--covers", required=True, help="2 or 3 comma-separated cover ids")
    p.add_argument("--delta", type=float, default=None,
                   help=f"grid step dividing 1 into at most {MAX_SWEEP_STEPS} steps")

    p = command("selftest", cmd_selftest, None)
    p.add_argument("--json", action="store_true")
    return parser, commands


_parsers = functools.cache(build_parsers)  # parse_args returns a fresh Namespace per call


def _parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed once: by its subcommand's own parser when argv[0] names one.

    The top-level parser would hand argv[1:] to that parser anyway, after a
    pass of its own; it still handles --help, an empty argv and unknown
    commands, and reports unrecognized arguments as it would.
    """
    parser, commands = _parsers()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
