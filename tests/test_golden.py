"""Byte-level regression of the report commands.

SHA-256 of the CSV data rows (the '#' header lines excluded) at
--n 20000 --seed 42, pinned from the pre-histogram implementation.  The rows
must not change with the thread count or with any refactor that keeps the
sample stream.
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


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_csv_data_rows_match_golden_digest(capsys, argv, threads):
    code = main([*argv, "--n", "20000", "--seed", "42", "--threads", threads])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == GOLDEN[argv]
