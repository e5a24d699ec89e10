"""CLI behavior: exit codes, report formats, and configuration precedence."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hexcover import experiment
from hexcover.cli import EXIT_MULTISTATIONARY, EXIT_OK, EXIT_UNDETERMINED, EXIT_USAGE, MAX_INPUT_CHARS, main
from hexcover.experiment import CoverEvaluator, SamplePlan, evaluate_covers
from hexcover.model import (Case, EtaPoint, KappaVector, _reduced, ab_values, classify, hex_coefficient_arrays,
                            is_case4, reduce)

from conftest import sample_case4

N_SMALL = ["--n", "5000"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def data_rows(csv_text):
    return [line for line in csv_text.splitlines() if line and not line.startswith("#")]


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--check-census")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 17  # 16 covers + census line
    assert lines[-1] == "5-segment: 2, special-triangle: 2, row-spanning: 12"
    assert lines[0].startswith("1: ")


def test_enumerate_custom_points_no_cover(tmp_path, capsys):
    f = tmp_path / "points.txt"
    f.write_text("4 2\n2 0\n0 1\n0 0\nm 2 1\n")
    code, out, err = run(capsys, "enumerate", "--points", str(f))
    assert code == EXIT_OK
    assert data_rows(out) == []
    assert "no pure cover" in err


def test_enumerate_hexagon_file_gives_the_default_output(tmp_path, capsys):
    f = tmp_path / "hexagon.txt"  # the ten points out of fixture order
    f.write_text("m 2 1\n3 1\n1 1\n3 2\n1 0\n0 1\n2 2\n4 2\n4 1\n2 0\n0 0\n")
    assert run(capsys, "enumerate", "--check-census", "--points", str(f)) == \
        run(capsys, "enumerate", "--check-census")


# the listing printed for a configuration other than the hexagon, as before
# the hexagon check moved into one place
SIX_POINT_LISTING = (
    "1: (Simplex(vertices=(LatticePoint(x=0, z=0), LatticePoint(x=2, z=2), LatticePoint(x=4, z=1))), "
    "Simplex(vertices=(LatticePoint(x=0, z=1), LatticePoint(x=2, z=0), LatticePoint(x=4, z=2))))\n"
    "2: (Simplex(vertices=(LatticePoint(x=0, z=0), LatticePoint(x=4, z=2))), "
    "Simplex(vertices=(LatticePoint(x=0, z=1), LatticePoint(x=4, z=1))), "
    "Simplex(vertices=(LatticePoint(x=2, z=0), LatticePoint(x=2, z=2))))\n"
)


def test_enumerate_listing_of_another_configuration(tmp_path, capsys):
    f = tmp_path / "six.txt"
    f.write_text("0 0\n2 0\n4 1\n4 2\n2 2\n0 1\nm 2 1\n")
    assert run(capsys, "enumerate", "--points", str(f)) == (EXIT_OK, SIX_POINT_LISTING, "")


def test_enumerate_fixture_mismatch_exits_1(monkeypatch, capsys):
    import hexcover.cli as cli

    fixture = cli.fixture_keys()
    wrong = {**fixture, 9: fixture[10]}
    monkeypatch.setattr(cli, "fixture_keys", lambda: dict(wrong))
    code, out, err = run(capsys, "enumerate")
    assert code == 1
    assert len(out.splitlines()) == 16
    assert err == f"fixture mismatch: {{9: {fixture[10]!r}}}\n"


def test_certify_all_ones_kappa(capsys):
    code, out, _ = run(capsys, "certify", "--kappa", ",".join(["1"] * 12))
    assert code == EXIT_OK
    assert "CASE1" in out


def test_certify_case2(capsys):
    code, out, _ = run(capsys, "certify", "--eta", "1,1,1,1,1,2,2,1")
    assert code == EXIT_MULTISTATIONARY
    assert "multistationarity" in out


def test_certify_case3_undetermined(capsys):
    code, out, _ = run(capsys, "certify", "--eta", "3,1,1,3,1,1,1,1")
    assert code == EXIT_UNDETERMINED


def test_certify_case4_verdicts(capsys):
    code, out, _ = run(capsys, "certify", "--eta", "5,1,1,5,2,1,1,1")
    assert code in (EXIT_OK, EXIT_UNDETERMINED)
    assert "CC(15):" in out and "bound CC(15):" in out


# exit code and SHA-256 of stdout of the test_certify_* points, as printed while
# certify still evaluated the scalar coefficients
CERTIFY_OUTPUT = {
    ("--kappa", ",".join(["1"] * 12)):
        (EXIT_OK, "dff3008e5791d059dc8e26452e890af88ce19f05bceb218910c40245cda4d7d5"),
    ("--eta", "1,1,1,1,1,2,2,1"):
        (EXIT_MULTISTATIONARY, "8d4c18b4b44a26945396f57fa661fcdb3b6e2467382584d76cf4c30ef8f4bc21"),
    ("--eta", "3,1,1,3,1,1,1,1"):
        (EXIT_UNDETERMINED, "8b92fb18ba3b97088c006aa4e71431f8874994a4be7d13374a0abe1a37396dae"),
    ("--eta", "5,1,1,5,2,1,1,1"):
        (EXIT_OK, "1deec53d3da3950724ed2f54734ba475e6928ee9a1049d961e42d170cb96a36c"),
}


@pytest.mark.parametrize("argv", list(CERTIFY_OUTPUT), ids=" ".join)
def test_certify_takes_one_batch_coefficient_call_and_no_scalar_one(monkeypatch, capsys, argv):
    import hexcover.cli as cli

    def scalar(*args, **kwargs):
        raise AssertionError("certify must not evaluate the scalar coefficients")

    etas, kernel = [], cli.hex_coefficient_arrays

    def counted(eta, a, b):
        etas.append(eta)
        return kernel(eta, a, b)

    monkeypatch.setattr(cli, "hex_coefficients", scalar)
    monkeypatch.setattr(cli, "hex_coefficient_arrays", counted)
    code, out, err = run(capsys, "certify", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CERTIFY_OUTPUT[argv]
    assert err == "" and len(etas) == 1  # one kernel call, on the point's 8 Python floats
    assert len(etas[0]) == 8 and all(type(v) is float for v in etas[0])


def test_case4_certify_computes_coefficients_and_each_simplex_theta_once(monkeypatch, capsys):
    import hexcover.cli as cli
    from hexcover import model

    calls = {"hex_coefficient_arrays": 0, "log": 0, "exp": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for owner in (cli, model, experiment):
        monkeypatch.setattr(owner, "hex_coefficient_arrays",
                            counting("hex_coefficient_arrays", owner.hex_coefficient_arrays))
    for name in ("log", "exp"):  # every package module calls them as np.log and np.exp
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    argv = ("--eta", "5,1,1,5,2,1,1,1")  # case 4
    code, out, err = run(capsys, "certify", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CERTIFY_OUTPUT[argv]
    # one log over the ten coefficients, one exp over the 21 distinct simplices' exponents
    assert err == "" and calls == {"hex_coefficient_arrays": 1, "log": 1, "exp": 1}


def test_certify_labels_come_from_the_parsed_fixture(monkeypatch, capsys):
    """After a first call, ``certify`` lists the covers without a ``cover_fixture`` lookup per id."""
    from hexcover import covers

    argv = ("--eta", "5,1,1,5,2,1,1,1")
    run(capsys, "certify", *argv)
    ids, lookup = [], covers.cover_fixture
    monkeypatch.setattr(covers, "cover_fixture", lambda id: ids.append(id) or lookup(id))
    code, out, _ = run(capsys, "certify", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CERTIFY_OUTPUT[argv]
    assert ids == []


def test_one_float64_check_rejects_in_block_tasks_and_certify(monkeypatch, capsys):
    def rejected(evaluator, coeffs, c_m):
        raise FloatingPointError("planted rejection")

    monkeypatch.setattr(CoverEvaluator, "hit_masks", rejected)
    with pytest.raises(FloatingPointError, match="planted"):
        evaluate_covers(SamplePlan(target_case4_samples=100, seed=1))
    code, out, err = run(capsys, "certify", "--eta", "5,1,1,5,2,1,1,1")
    assert code == EXIT_USAGE and out == "" and "planted rejection" in err


def test_certify_usage_errors(capsys):
    assert run(capsys, "certify")[0] == EXIT_USAGE
    assert run(capsys, "certify", "--kappa", "1,2,3")[0] == EXIT_USAGE
    assert run(capsys, "certify", "--kappa", "a,b")[0] == EXIT_USAGE


def test_certify_from_file(tmp_path, capsys):
    f = tmp_path / "kappa.txt"
    f.write_text(" ".join(["1"] * 12))
    assert run(capsys, "certify", "--file", str(f))[0] == EXIT_OK


@given(st.lists(st.floats(min_value=1e-300, max_value=1e300) | st.sampled_from([math.inf, math.nan]),
                min_size=8, max_size=8))
@example([1, 1, 1, 1, 1e200, 1e200, 1e200, 1e200])  # a and b are NaN
@example([5e300, 1, 1, 5e300, 2, 1, 1, 1])  # K1 cubed overflows float64
@example([3.3e46, 3.5e3, 2.8e-46, 2.2e199, 3.1e-113, 4e-36, 2.5e7, 3.3e144])  # a displayed radical overflows
@example([8.71e-263, 2.94e-285, 3.93e-101, 7.13e294, 1.71e136, 4.35e-44, 4.27e-181, 8.5e-228])  # a1 -> 0
@example([9.978739463419164, 5.037304511619533e+42, 3.565423990054037e+31, 2.6208598931223373e+136,
          7.55359607420531e-33, 3.531386736407933e-33, 5.8525084083385215e+68,
          1.3607526759315857e+91])  # a product in displayed bound 4 overflows; no cover certifies
@example([1.1299563566652741e+47, 8.36404227860795e-145, 140.95454771909428, 6.888563398818462e+133,
          1.3623151349567593e+57, 3.7767520808652375e-30, 4.704038721952299e+56,
          3.1490227253111694e+31])  # displayed bounds 10 and 12 overflow; covers certify
@settings(max_examples=300, deadline=None)
def test_certify_eta_always_ends_in_an_exit_code(eta):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["certify", "--eta", ",".join(repr(float(v)) for v in eta)])
    assert code in (EXIT_OK, EXIT_UNDETERMINED, EXIT_MULTISTATIONARY, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out.getvalue() == "" and len(err.getvalue().strip().splitlines()) == 1
    else:
        assert err.getvalue() == ""
        # a Theta sum beyond float64 prints as inf, but a printed bound is always finite
        bounds = [float(line.split()[2]) for line in out.getvalue().splitlines() if line.startswith("bound ")]
        assert all(map(math.isfinite, bounds)), out.getvalue()


def test_certify_exits_64_when_a_printed_theta_sum_overflows(capsys):
    """Each printed bound is its cover's Theta sum over the prefactor, so a sum beyond float64 exits 64."""
    eta = EtaPoint(1.855173658092304, 0.8346707277729604, 3.452274132934693, 7.287029732526532,
                   1.620003689567073e+61, 1.0104272762748095e+61, 3.06677343010082e+61, 2.127612392285864e+61)
    a, b = ab_values(eta)
    with np.errstate(over="ignore"):
        _, thetas, _ = CoverEvaluator().hit_masks(*hex_coefficient_arrays(eta, a, b))
    assert math.isinf(thetas[15 - 1]) and math.isfinite(thetas[9 - 1])  # all ten coefficients are finite
    code, out, err = run(capsys, "certify", "--eta", ",".join(map(repr, eta)))
    assert (code, out, err) == (EXIT_USAGE, "", "certify: a closed-form bound is not finite in float64\n")


_FLOAT_LISTS = st.lists(st.floats(min_value=1e-300, max_value=1e300)
                        | st.sampled_from([0.0, -1.0, math.inf, math.nan]),
                        min_size=7, max_size=13).map(lambda vs: ",".join(map(repr, vs)))
_PLAN_FLAGS = {
    "--n": ["1", "2000", "0", "-3", "1e3", "x"],
    "--box": ["1", "0.1", "1e-100", "1e-200", "1e200", repr(2.0**-99), repr(2.0**150),
              repr(math.nextafter(2.0**150, math.inf)), "0", "-1", "nan", "inf", "x"],
    "--seed": ["0", "42", "-1", str(2**64 - 1), str(2**64), "x"],
    "--threads": ["1", "2", "64", "65", "0", "1000000", "x"],
    "--config": ["{d}/conf.txt", "{d}/bad_conf.txt", "{d}/tiny_box.txt", "{d}/missing.txt"],
    "--out": ["{d}/out_", "{d}/", "{d}/missing/out_"],
}
_FLAGS = {  # every subcommand and flag; None marks a flag that takes no value
    "enumerate": {"--check-census": None,
                  "--points": ["{d}/no_cover.txt", "{d}/extra.txt", "{d}/short.txt", "{d}/no_m.txt",
                               "{d}/not_int.txt", "{d}/repeated.txt", "{d}/missing.txt"]},
    "certify": {"--kappa": st.sampled_from([",".join(["1"] * 12), "1,2,3", "a,b", ""]) | _FLOAT_LISTS,
                "--eta": st.sampled_from(["5,1,1,5,2,1,1,1", "1,1,1,1,1,2,2,1", "3,1,1,3,1,1,1,1",
                                          "1,1,1,1,1e200,1e200,1e200,1e200"]) | _FLOAT_LISTS,
                "--file": ["{d}/kappa.txt", "{d}/eta.txt", "{d}/short_kappa.txt", "{d}/missing.txt"]},
    "table1": _PLAN_FLAGS,
    "table2": {**_PLAN_FLAGS, "--baseline": ["1", "9", "16", "0", "17", "x"]},
    "containment": {**_PLAN_FLAGS, "--threshold": ["0", "5", "-1", "x"]},
    "homotopy": {**_PLAN_FLAGS,
                 "--covers": ["4,9", "4,9,15", "10,12", "4", "4,4", "0,9", "4,99", "1,2,3,4", "a,b"],
                 "--delta": ["0.05", "0.25", "0.5", "1", "0.1", "0.3", "0", "-0.5", "nan", "1e-9", "x"]},
    "selftest": {"--json": None},
}
_ARGV_FILES = {
    "no_cover.txt": "4 2\n2 0\n0 1\n0 0\nm 2 1\n", "extra.txt": "4 2 7\nm 2 1 5\n",
    "short.txt": "4 2\n2\nm 2 1\n", "no_m.txt": "4 2\n2 0\n", "not_int.txt": "a b\nm 2 1\n",
    "repeated.txt": "4 2\n4 2\nm 2 1\n", "conf.txt": "n=2000\nseed=7\nthreads=2\n",
    "bad_conf.txt": "n=many\n", "tiny_box.txt": "box=1e-200\n", "kappa.txt": "1 " * 12,
    "eta.txt": "5,1,1,5,2,1,1,1", "short_kappa.txt": "1 2 3",
}


@st.composite
def any_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(list(flags)), max_size=4))
    if command == "homotopy" and draw(st.integers(0, 9)):
        chosen.insert(0, "--covers")  # required; missing in one draw in ten
    if not draw(st.integers(0, 9)):
        chosen.append("--bogus")
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        values = flags.get(flag)
        if values is not None:
            argv.append(draw(values if isinstance(values, st.SearchStrategy) else st.sampled_from(values)))
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    for name, text in _ARGV_FILES.items():
        (d / name).write_text(text)
    return d


@pytest.fixture(scope="module")
def fixed_run():
    """One small run with all 16 Theta sums kept, returned for every fuzzed plan."""
    return evaluate_covers(SamplePlan(target_case4_samples=2000, seed=1), keep_theta=range(1, 17))


@given(any_argv())
@settings(max_examples=400, deadline=None)
def test_every_argv_ends_in_an_exit_code(argv_dir, fixed_run, argv):
    import hexcover.cli as cli

    def no_sampling(plan, keep_theta=()):
        assert isinstance(plan, SamplePlan)
        return fixed_run

    argv = [a.format(d=argv_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "evaluate_covers", no_sampling), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_UNDETERMINED, EXIT_MULTISTATIONARY, EXIT_USAGE), argv
    if code == EXIT_USAGE:
        assert out.getvalue() == "", argv  # rejected before any output


def test_certify_matches_batch_verdicts(capsys):
    # the 50 samples of a seeded stream closest to some cover's threshold
    (eta, coeffs, c_m), = sample_case4(SamplePlan(target_case4_samples=5000, seed=21))
    theta = CoverEvaluator().theta_sums(np.log(coeffs))
    margin = np.abs(theta + c_m).min(axis=0) / -c_m
    for j in np.argsort(margin)[:50]:
        code, out, _ = run(capsys, "certify", "--eta", ",".join(repr(float(v)) for v in eta[:, j]))
        hits = theta[:, j] >= -c_m[j]
        certified = [line.endswith("CERTIFIED") for line in out.splitlines() if line.startswith("CC(")]
        assert certified == hits.tolist()
        assert code == (EXIT_OK if hits.any() else EXIT_UNDETERMINED)


_NON_CASE4_CODES = {Case.CASE1_MONOSTATIONARY: EXIT_OK, Case.CASE2_MULTISTATIONARY: EXIT_MULTISTATIONARY,
                    Case.CASE3_A_ZERO_B_NEG: EXIT_UNDETERMINED}


def test_certify_agrees_with_the_batch_kernel(capsys):
    """200 seeded kappa points in (0, 1]^12, three in case 4 for each one outside it, as perfbench draws them."""
    rng = np.random.default_rng(26)
    kappa = 1.0 - rng.random((12, 2048))  # about one column in eight is in case 4
    eta = np.stack(_reduced(kappa.__getitem__))
    a, b = ab_values(eta)
    case4 = is_case4(a, b)
    picked = np.concatenate([np.flatnonzero(case4)[:150], np.flatnonzero(~case4)[:50]])
    assert picked.size == 200
    kappa, eta, a, b, case4 = kappa[:, picked], eta[:, picked], a[picked], b[picked], case4[picked]
    masks = np.zeros(200, dtype=np.int64)
    masks[case4] = CoverEvaluator().hit_masks(*hex_coefficient_arrays(eta[:, case4], a[case4], b[case4]))[0]
    assert len(set(masks[case4].tolist())) > 1 and 0 in masks[case4]
    for j in rng.permutation(200):
        values = [float(v) for v in kappa[:, j]]
        code, out, err = run(capsys, "certify", "--kappa", ",".join(map(repr, values)))
        tag = classify(reduce(KappaVector(values))).tag
        assert err == "" and (tag is Case.CASE4_A_POS_B_NEG) == case4[j]
        if case4[j]:
            assert code == (EXIT_OK if masks[j] else EXIT_UNDETERMINED)
        else:
            batch = EXIT_MULTISTATIONARY if a[j] < 0 else EXIT_OK if b[j] >= 0 else EXIT_UNDETERMINED
            assert code == _NON_CASE4_CODES[tag] == batch
        certified = [line.endswith(" CERTIFIED") for line in out.splitlines() if line.startswith("CC(")]
        assert certified == ([bool(masks[j] >> bit & 1) for bit in range(16)] if case4[j] else [])
    # a case-4 point whose c_m or a coefficient rounds to 0 is out of float64
    for text, zero_cm in (("1,1,1,3.000000000000001,1e-62,1e-62,5e-63,1e-62", True),
                          ("5.57e-65,1.43e-43,3.85e-09,8.21e+64,7.24e+33,2.04e-100,9.7e-05,6.53e-69", False)):
        point = EtaPoint(*map(float, text.split(",")))
        sc = classify(point)
        coeffs, c_m = hex_coefficient_arrays(point, sc.a_value, sc.b_value)
        assert sc.tag is Case.CASE4_A_POS_B_NEG and (c_m == 0) == zero_cm and coeffs.all() == zero_cm
        code, out, err = run(capsys, "certify", "--eta", text)
        assert (code, out) == (EXIT_USAGE, "") and len(err.strip().splitlines()) == 1


def test_argv_is_parsed_once(monkeypatch, capsys):
    import argparse

    parses, parse_known_args = [], argparse.ArgumentParser.parse_known_args

    def counted(parser, *args, **kwargs):
        parses.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv, code in ((["certify", "--eta", "5,1,1,5,2,1,1,1"], EXIT_OK), (["enumerate"], EXIT_OK),
                       (["table1", "--n", "0"], EXIT_USAGE), (["homotopy", "--covers", "4"], EXIT_USAGE),
                       (["table2", "--bogus"], EXIT_USAGE)):
        parses.clear()
        assert run(capsys, *argv)[0] == code, argv
        assert parses == [f"hexcover {argv[0]}"], argv
    for argv, code in (([], EXIT_USAGE), (["nope"], EXIT_USAGE), (["-h"], EXIT_OK),
                       (["certify", "-h"], EXIT_OK)):
        assert run(capsys, *argv)[0] == code, argv


@pytest.mark.parametrize("env,conf,argv,source", [
    pytest.param("-3", None, ["--n", "10"], "SONC_MONO_SEED: seed must be in", id="SONC_MONO_SEED=-3"),
    pytest.param(None, "n=0\n", [], "conf.txt: key 'n': target_case4_samples must be", id="config n=0"),
    pytest.param(None, "box=1e-200\n", ["--n", "10"], "conf.txt: key 'box': box_size must be",
                 id="config box=1e-200"),
    pytest.param(None, None, ["--n", "0"], "--n: target_case4_samples must be", id="--n 0"),
])
def test_out_of_range_value_names_its_source(monkeypatch, tmp_path, capsys, env, conf, argv, source):
    import hexcover.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("an out-of-range value must be rejected before any work")

    monkeypatch.setattr(cli, "evaluate_covers", no_work)
    if env is None:
        monkeypatch.delenv("SONC_MONO_SEED", raising=False)
    else:
        monkeypatch.setenv("SONC_MONO_SEED", env)
    if conf is not None:
        (tmp_path / "conf.txt").write_text(conf)
        argv = [*argv, "--config", str(tmp_path / "conf.txt")]
    code, out, err = run(capsys, "table1", *argv)
    assert (code, out) == (EXIT_USAGE, "") and len(err.strip().splitlines()) == 1
    prefix = f"table1: {tmp_path / source}" if conf is not None else f"table1: {source}"
    assert err.startswith(prefix), err


def test_table1_shape_and_header(capsys):
    code, out, _ = run(capsys, "table1", *N_SMALL, "--seed", "9")
    assert code == EXIT_OK
    rows = data_rows(out)
    assert len(rows) == 17
    assert rows[0].startswith("sum,")
    assert rows[1].startswith("CC(1),")
    assert "# seed: 9" in out and "# n: 5000" in out and "# build:" in out


def test_table1_csv_json_agree(tmp_path, capsys):
    prefix = str(tmp_path / "t1_")
    assert main(["table1", *N_SMALL, "--out", prefix]) == EXIT_OK
    csv_rows = data_rows((tmp_path / "t1_table1.csv").read_text())
    obj = json.loads((tmp_path / "t1_table1.json").read_text())
    assert csv_rows[0].split(",")[2] == f"{obj['union']['ratio']:.5f}"
    for row, cover in zip(csv_rows[1:], obj["covers"]):
        label, hits, ratio = row.split(",")
        assert label == f"CC({cover['id']})"
        assert int(hits) == cover["hits"]
        assert ratio == f"{cover['ratio']:.5f}"


def test_table2_columns(capsys):
    code, out, _ = run(capsys, "table2", *N_SMALL)
    rows = data_rows(out)
    assert code == EXIT_OK and len(rows) == 16
    plus, minus, zero, pc, mc, zc = rows[8].split(",")[1:]
    assert (plus, minus) == ("0.00", "0.00")  # CC(9) against itself
    assert pc == "0" and mc == "0"


def test_containment_emits_edges(tmp_path, capsys):
    prefix = str(tmp_path / "c_")
    assert main(["containment", "--n", "20000", "--out", prefix]) == EXIT_OK
    obj = json.loads((tmp_path / "c_containment.json").read_text())
    assert [1, 9] in obj["edges"]
    assert len(obj["difference_matrix"]) == 16


def test_homotopy_linear_rows(capsys):
    code, out, _ = run(capsys, "homotopy", "--covers", "4,9", *N_SMALL)
    assert code == EXIT_OK
    assert len(data_rows(out)) == 21


def test_homotopy_simplicial_rows(capsys):
    code, out, _ = run(capsys, "homotopy", "--covers", "4,9,15", "--delta", "0.25", *N_SMALL)
    assert code == EXIT_OK
    assert len(data_rows(out)) == 15


def test_homotopy_usage_error(capsys):
    assert run(capsys, "homotopy", "--covers", "4", *N_SMALL)[0] == EXIT_USAGE


@pytest.mark.parametrize("flag,value", [
    ("--delta", "0"), ("--delta", "nan"), ("--delta", "0.3"), ("--delta", "-0.5"),
    ("--delta", "1e-9"), ("--covers", "4,99"), ("--covers", "4,4"), ("--covers", "0,9"),
])
def test_homotopy_bad_input_is_usage_error(monkeypatch, capsys, flag, value):
    import hexcover.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("bad homotopy input must be rejected before sampling")

    monkeypatch.setattr(cli, "evaluate_covers", no_sampling)
    code, out, err = run(capsys, "homotopy", "--covers", "4,9,15", flag, value)  # last flag wins
    assert code == EXIT_USAGE
    assert out == "" and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["table2", "--baseline", "0"], ["table2", "--baseline", "17"],
    ["enumerate", "--points", "{tmp}/missing.txt"], ["enumerate", "--points", "{tmp}/no_m.txt"],
    ["enumerate", "--points", "{tmp}/short_line.txt"], ["enumerate", "--points", "{tmp}/repeated.txt"],
    ["enumerate", "--points", "{tmp}/extra_numbers.txt"], ["enumerate", "--points", "{tmp}/two_m.txt"],
    ["enumerate", "--points", "{tmp}/fifteen_points.txt"], ["enumerate", "--points", "{tmp}/only_m.txt"],
    ["table1", "--config", "{tmp}/unknown_key.txt"],
    ["table1", "--box", "1e-100"], ["table2", "--box", "1e-200"], ["containment", "--box", "1e200"],
    ["homotopy", "--covers", "4,9", "--box", "1e-100"],
    ["homotopy", "--covers", "4,9", "--delta", "1e-320"], ["homotopy", "--covers", "4,9", "--delta", "5e-324"],
    ["table1", "--out", "{tmp}/missing/t_"], ["homotopy", "--covers", "4,9", "--out", "{tmp}/missing/"],
    ["table1", "--n", "100", "--out", "{tmp}/d/"], ["homotopy", "--covers", "4,9", "--out", "{tmp}/d/"],
    ["certify", "--eta", "1,1,1,1,1e200,1e200,1e200,1e200"],
    ["certify", "--kappa", "1,1,1,1,1,1,1,1,1,1,1,inf"],
    ["certify", "--eta", "5e300,1,1,5e300,2,1,1,1"],
    ["certify", "--kappa", "1,1,1,1,1,1,1,1,1,1,1,1", "--eta", "5,1,1,5,2,1,1,1"],
    ["certify", "--eta", "5,1,1,5,2,1,1,1", "--file", "{tmp}/point.txt"],
    ["certify", "--kappa", "5,1,1,5,2,1,1,1"], ["certify", "--eta", "1,1,1,1,1,1,1,1,1,1,1,1"],
    ["enumerate", "--points", "{tmp}/no_cover.txt", "--check-census"],
    ["containment", "--threshold", "-3", "--n", "1000"],
], ids=" ".join)
def test_bad_input_is_rejected_before_any_work(monkeypatch, tmp_path, capsys, argv):
    import hexcover.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("bad input must be rejected before any work")

    monkeypatch.setattr(cli, "evaluate_covers", no_work)
    monkeypatch.setattr(cli, "enumerate_pure_covers", no_work)
    (tmp_path / "no_m.txt").write_text("4 2\n2 0\n")
    (tmp_path / "no_cover.txt").write_text("4 2\n2 0\n0 1\n0 0\nm 2 1\n")
    (tmp_path / "short_line.txt").write_text("4 2\n2\nm 2 1\n")
    (tmp_path / "repeated.txt").write_text("4 2\n4 2\nm 2 1\n")
    (tmp_path / "extra_numbers.txt").write_text("4 2 7\nm 2 1 5\n")
    (tmp_path / "two_m.txt").write_text("4 2\n2 0\n0 1\n0 0\nm 2 1\nm 9 9\n")
    (tmp_path / "only_m.txt").write_text("m 2 1\n")
    # 15 points on a ring around m; the cover count grows exponentially with the points
    ring = [(round(20 * math.cos(k * math.pi / 7.5)), round(20 * math.sin(k * math.pi / 7.5))) for k in range(15)]
    (tmp_path / "fifteen_points.txt").write_text("".join(f"{x} {z}\n" for x, z in ring) + "m 0 0\n")
    (tmp_path / "unknown_key.txt").write_text("seeds=7\n")
    (tmp_path / "point.txt").write_text("5 1 1 5 2 1 1 1\n")
    (tmp_path / "d" / "table1.csv").mkdir(parents=True)  # report files that cannot be opened
    (tmp_path / "d" / "homotopy.json").mkdir()
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_USAGE
    assert out == "" and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("covers,table_rows", [("4,9,15", 10), ("4,9", 8)])
def test_homotopy_evaluates_only_its_covers(monkeypatch, capsys, covers, table_rows):
    batches, original = [], CoverEvaluator.theta_sums

    def recorded(self, log_coeffs):
        theta = original(self, log_coeffs)
        batches.append((self.cover_ids, len(self._table), theta.shape[0]))
        return theta

    monkeypatch.setattr(CoverEvaluator, "theta_sums", recorded)
    code, out, _ = run(capsys, "homotopy", "--covers", covers, "--delta", "0.25", *N_SMALL)
    ids = tuple(map(int, covers.split(",")))
    assert code == EXIT_OK and len(data_rows(out)) > 0 and batches
    assert set(batches) == {(ids, table_rows, len(ids))}


def test_parser_built_once_without_state_between_calls(capsys):
    import hexcover.cli as cli

    assert cli._parser() is cli._parser()
    first = cli._parser().parse_args(["table2", "--baseline", "3", "--n", "7", "--seed", "5"])
    second = cli._parser().parse_args(["table2"])
    assert (first.baseline, first.n, first.seed) == (3, 7, 5)
    assert (second.baseline, second.n, second.seed) == (9, None, None)
    code, out, _ = run(capsys, "homotopy", "--covers", "4,9", "--delta", "0.25", "--seed", "9",
                       *N_SMALL)
    assert code == EXIT_OK and "# seed: 9" in out and "# delta: 0.25" in out
    code, out, _ = run(capsys, "table2", "--n", "2000")
    assert code == EXIT_OK and "# seed: 42" in out and "# n: 2000" in out
    assert "# delta" not in out and "# baseline: 9" in out


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        EXIT_OK, "fbb41e000f268bd3b4cb5eb10ec7485c35a8d4a352b5de6f3b49a5fac6a03201")


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert set(obj) == {"circuit_number_theta_3", "toy_weighted_optimum",
                        "cover_10_12_swap_symmetry", "closed_form_vs_theta_sum"}
    assert all(v["pass"] for v in obj.values())
    assert obj["toy_weighted_optimum"]["detail"] == "w=0.54970 value=3.79960"


def test_selftest_detects_perturbed_bound(monkeypatch, capsys):
    import hexcover.cli as cli

    orig = cli.closed_form_bound

    def perturbed(cid, eta):
        value = orig(cid, eta)
        return value * 1.01 if cid == 15 else value

    monkeypatch.setattr(cli, "closed_form_bound", perturbed)
    code, out, _ = run(capsys, "selftest")
    assert code != EXIT_OK
    assert "FAIL closed_form_vs_theta_sum" in out


def test_config_file_flags_win(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("n=5000\nseed=7\n")
    _, out, _ = run(capsys, "table1", "--config", str(conf), "--seed", "11")
    assert "# seed: 11" in out and "# n: 5000" in out


@pytest.mark.parametrize("argv,text", [
    pytest.param(["table1", "--config"], "n=1000\nseed=7\n", id="table1 --config"),
    pytest.param(["enumerate", "--points"], "4 2\n2 0\n0 1\n0 0\nm 2 1\n", id="enumerate --points"),
    pytest.param(["certify", "--file"], " ".join(["1"] * 12) + "\n", id="certify --file"),
])
def test_input_file_is_read_up_to_the_cap_and_rejected_beyond_it(tmp_path, capsys, argv, text):
    path = tmp_path / "input.txt"
    path.write_text(text + " " * (MAX_INPUT_CHARS - len(text)))  # a valid file, padded to the cap
    assert run(capsys, *argv, str(path))[0] == EXIT_OK
    path.write_text(text + " " * (MAX_INPUT_CHARS + 1 - len(text)))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (EXIT_USAGE, "") and len(err.strip().splitlines()) == 1


def test_endless_input_file_exits_64_in_bounded_memory():
    """``certify --file /dev/zero`` stops reading at the cap.

    The child runs under a 1 GB address-space limit, so a reader without a
    cap fails fast instead of taking the machine's memory.
    """
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from hexcover.cli import main; sys.exit(main(sys.argv[1:]))")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", child, "certify", "--file", "/dev/zero"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    assert len(done.stderr.strip().splitlines()) == 1, done.stderr


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("SONC_MONO_SEED", "123")
    _, out, _ = run(capsys, "table1", *N_SMALL)
    assert "# seed: 123" in out
    monkeypatch.delenv("SONC_MONO_SEED")
    _, out, _ = run(capsys, "table1", *N_SMALL)
    assert "# seed: 42" in out


@pytest.mark.parametrize("env,conf,source", [
    pytest.param("abc", None, "SONC_MONO_SEED: ", id="SONC_MONO_SEED=abc"),
    pytest.param("4.5", None, "SONC_MONO_SEED: ", id="SONC_MONO_SEED=4.5"),
    pytest.param(None, "n=1e3\n", "conf.txt: key 'n': ", id="config n=1e3"),
    pytest.param(None, "seed=7\nbox=wide\n", "conf.txt: key 'box': ", id="config box=wide"),
])
def test_bad_env_or_config_value_names_its_source(monkeypatch, tmp_path, capsys, env, conf, source):
    argv = ["table1", "--n", "10"]
    if env is None:
        monkeypatch.delenv("SONC_MONO_SEED", raising=False)
    else:
        monkeypatch.setenv("SONC_MONO_SEED", env)
    if conf is not None:
        (tmp_path / "conf.txt").write_text(conf)
        argv = ["table1", "--config", str(tmp_path / "conf.txt")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "") and len(err.strip().splitlines()) == 1
    assert source in err, err


def test_config_key_set_twice_is_rejected_before_any_work(monkeypatch, tmp_path, capsys):
    import hexcover.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a key set twice must be rejected before any work")

    monkeypatch.setattr(cli, "evaluate_covers", no_work)
    conf = tmp_path / "conf.txt"
    conf.write_text("n=10\nseed=7\n n = 20\n")
    code, out, err = run(capsys, "table1", "--config", str(conf))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"table1: {conf}: key 'n' is set twice\n"


def test_homotopy_header_lists_the_parsed_cover_ids(tmp_path, capsys):
    code, out, _ = run(capsys, "homotopy", "--covers", " 4, 9", "--delta", "0.5", *N_SMALL)
    assert code == EXIT_OK and "# covers: 4,9\n" in out
    prefix = str(tmp_path / "h_")
    assert main(["homotopy", "--covers", "4 ,9 ", "--delta", "0.5", *N_SMALL, "--out", prefix]) == EXIT_OK
    assert "# covers: 4,9\n" in (tmp_path / "h_homotopy.csv").read_text()
    assert json.loads((tmp_path / "h_homotopy.json").read_text())["covers"] == [4, 9]


@pytest.mark.parametrize("flag,value", [("--n", "0"), ("--seed", "-1"), ("--box", "nan"),
                                        ("--box", "inf")])
def test_bad_plan_input_is_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "table1", flag, value)
    assert code == EXIT_USAGE
    assert out == "" and len(err.strip().splitlines()) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["table1", "--bogus"]) == EXIT_USAGE


def test_csv_uses_lf_endings(tmp_path):
    prefix = str(tmp_path / "lf_")
    main(["table1", *N_SMALL, "--out", prefix])
    raw = (tmp_path / "lf_table1.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
