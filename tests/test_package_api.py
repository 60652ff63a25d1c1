"""Public API surface tests: exports resolve, version is set, docs exist."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


SUBPACKAGES = [
    "repro.core",
    "repro.core.estimators",
    "repro.eval",
    "repro.graph",
    "repro.propagation",
    "repro.utils",
]


class TestTopLevelApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points_present(self):
        for name in ("DCEr", "generate_graph", "run_experiment", "linbp", "load_dataset"):
            assert name in repro.__all__

    def test_module_docstring_mentions_paper(self):
        assert "Factorized" in repro.__doc__
        assert "SIGMOD" in repro.__doc__


def test_entry_points_do_not_import_scipy_optimize():
    # Only the Holdout baseline needs scipy.optimize (~27 MiB resident), and
    # it imports it when it fits; sessions and serve workers never do.
    script = (
        "import sys, repro, repro.cli, repro.serve, repro.stream, repro.runner\n"
        "print('scipy.optimize' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert completed.stdout.strip() == "False"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_importable(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no module docstring"

    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


class TestDocstrings:
    @pytest.mark.parametrize(
        "obj",
        [
            repro.DCEr,
            repro.DCE,
            repro.MCE,
            repro.LCE,
            repro.GoldStandard,
            repro.HoldoutEstimator,
            repro.HeuristicEstimator,
            repro.Graph,
            repro.generate_graph,
            repro.run_experiment,
            repro.linbp,
            repro.propagate_and_label,
            repro.load_dataset,
            repro.skew_compatibility,
            repro.gold_standard_compatibility,
            repro.macro_accuracy,
            repro.stratified_seed_indices,
        ],
        ids=lambda obj: getattr(obj, "__name__", str(obj)),
    )
    def test_public_items_documented(self, obj):
        docstring = inspect.getdoc(obj)
        assert docstring and len(docstring) > 20

    def test_estimators_share_fit_signature(self):
        from repro.core.estimators import BaseEstimator

        for estimator_class in (
            repro.DCEr,
            repro.DCE,
            repro.MCE,
            repro.LCE,
            repro.GoldStandard,
            repro.HoldoutEstimator,
            repro.HeuristicEstimator,
        ):
            assert issubclass(estimator_class, BaseEstimator)
            assert estimator_class.method_name != "base"
