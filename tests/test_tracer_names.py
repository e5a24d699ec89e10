"""The benchmark tracer patches hexcover names from outside the package.

``perfbench/tracing.py`` looks up every name in its ``TRACED`` table when it
installs; a renamed or removed name would break only ``--trace 1`` runs, so
this test installs and removes the tracer around a few CLI calls.
"""

import importlib.util
from pathlib import Path

from hexcover import cli
from hexcover.cli import EXIT_OK, EXIT_UNDETERMINED

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name_and_restores_them(capsys):
    tracing = load_tracing()
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TRACED]
    with tracing.Tracer().installed() as tracer:
        # cli.main is looked up per call, so the tracer's wrapper runs
        assert cli.main(["certify", "--eta", "5,1,1,5,2,1,1,1"]) in (EXIT_OK, EXIT_UNDETERMINED)
        assert cli.main(["homotopy", "--covers", "4,9", "--n", "2000", "--delta", "0.25"]) == EXIT_OK
    capsys.readouterr()
    assert all(getattr(owner, attr) is fn
               for (owner, attr, _, _), fn in zip(tracing.TRACED, originals))
    spans, counts = tracer.totals()
    for name in ("cli.main", "model.classify", "model.closed_form_bound",
                 "experiment.evaluate_covers", "experiment.classified_block",
                 "experiment.CoverEvaluator.theta_sums", "experiment.linear_homotopy"):
        assert spans[name][0] >= 1, name
    assert counts["experiment.samples"] == 2000
