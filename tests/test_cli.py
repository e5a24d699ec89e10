"""CLI behavior: exit codes, report formats, and configuration precedence."""

import json

import numpy as np
import pytest

from hexcover.cli import EXIT_MULTISTATIONARY, EXIT_OK, EXIT_UNDETERMINED, EXIT_USAGE, main
from hexcover.experiment import CoverEvaluator, SamplePlan, sample_case4

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


def test_certify_usage_errors(capsys):
    assert run(capsys, "certify")[0] == EXIT_USAGE
    assert run(capsys, "certify", "--kappa", "1,2,3")[0] == EXIT_USAGE
    assert run(capsys, "certify", "--kappa", "a,b")[0] == EXIT_USAGE


def test_certify_from_file(tmp_path, capsys):
    f = tmp_path / "kappa.txt"
    f.write_text(" ".join(["1"] * 12))
    assert run(capsys, "certify", "--file", str(f))[0] == EXIT_OK


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


def test_selftest(capsys):
    assert run(capsys, "selftest")[0] == EXIT_OK


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert set(obj) == {"circuit_number_theta_3", "toy_weighted_optimum",
                        "cover_10_12_swap_symmetry", "closed_form_vs_theta_sum"}
    assert all(v["pass"] for v in obj.values())


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


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("SONC_MONO_SEED", "123")
    _, out, _ = run(capsys, "table1", *N_SMALL)
    assert "# seed: 123" in out
    monkeypatch.delenv("SONC_MONO_SEED")
    _, out, _ = run(capsys, "table1", *N_SMALL)
    assert "# seed: 42" in out


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
