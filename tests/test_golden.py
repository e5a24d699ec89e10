"""Byte-level regression of the report commands.

SHA-256 of the CSV data rows (the '#' header lines excluded) at
--n 20000 --seed 42, pinned from the pre-histogram implementation, and of the
whole JSON file that --out writes, pinned before the CLI's report emitter was
shared by all four reports.  Neither may change with the thread count or with
any refactor that keeps the sample stream.
"""

import hashlib

import pytest

from hexcover.cli import EXIT_OK, main

GOLDEN = {
    ("table1",): "c13a0fb9d7d30f28055ba0c60c4475ba84129b4244bcd74e8a015d90bd1707d1",
    ("table2", "--baseline", "9"): "76d645944b32aefa9100b768e130ad98e2e768b47c4fee0d6df4f31731f0e422",
    ("containment",): "a838b5c54976a04594b63c112bed9724095370281b79afc278a2723c8ac48b91",
    ("homotopy", "--covers", "4,9"): "b03534b46c54046dab7773bccd5f3a3fe9fd953b7f39fe71b1892c86c61404b5",
    ("homotopy", "--covers", "4,9,15"):
        "5387f058eface9dd223c731be6d64d752bf81c915b447f3cd6f2808b8b0c40fe",
}
GOLDEN_JSON = {
    ("table1",): "20b990f3508f9b53e2c47fdee28041bef4bfb0c042708fb7e280aaa3a5f7f663",
    ("table2", "--baseline", "9"): "0ad952b24278393abbbd06fcdc7f60c09bd9183dedaed73100bc27eb7331a9b5",
    ("containment",): "d44034b67d681b07268ca23f7f5c47b3e66738bf368d30f13434a1a86e97695a",
    ("homotopy", "--covers", "4,9"): "0cfc7a82e2af50cea30a3671ea867346314b97876f005e47018146e925b11f33",
    ("homotopy", "--covers", "4,9,15"):
        "618d08cd6cb9e120b8cb4903a742283dcc873f06d822d91a5f286b683290634f",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_csv_data_rows_match_golden_digest(capsys, argv, threads):
    code = main([*argv, "--n", "20000", "--seed", "42", "--threads", threads])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", list(GOLDEN_JSON), ids=" ".join)
def test_out_files_match_golden_digests(tmp_path, capsys, argv, threads):
    prefix = str(tmp_path / "g_")
    code = main([*argv, "--n", "20000", "--seed", "42", "--threads", threads, "--out", prefix])
    assert code == EXIT_OK and capsys.readouterr().out == ""
    csv_text = (tmp_path / f"g_{argv[0]}.csv").read_text()
    rows = [line for line in csv_text.splitlines() if line and not line.startswith("#")]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == GOLDEN[argv]
    json_bytes = (tmp_path / f"g_{argv[0]}.json").read_bytes()
    assert hashlib.sha256(json_bytes).hexdigest() == GOLDEN_JSON[argv]
