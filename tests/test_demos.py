"""The tour scripts in demos/ run to the end without an exception."""

import contextlib
import io
import os
import runpy
import tempfile

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


@pytest.mark.parametrize("script", ["01_gamma_ring_axioms.py", "02_peirce_decomposition.py",
                                    "03_additivity_of_multiplicative_maps.py",
                                    "04_necessity_witnesses.py",
                                    "05_grdf_documents_and_cli.py"])
def test_demo_runs(script, tmp_path, monkeypatch):
    # demo 05 writes its documents under a fresh temporary directory and runs
    # the CLI in subprocesses, which import the package from src/
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    assert out.getvalue()
