"""The benchmark's correctness gates read the classifiers' fields.

``perfbench/workloads.py`` judges every rep of the ``allee-1d`` and
``bounded-2d`` workloads through ``allee_classify`` and
``boundedness_check``.  These tests call those gates, through the same
module namespace ``perfbench/run.py`` builds, on hand-made reports, so a
change to a verdict's fields fails here rather than in every benchmark
rep.  Nothing under ``perfbench/`` is written.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from fracplap.integrator import RunReport, RunStatus
from fracplap.model import DomainSpec, Field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("workloads"), _load("run").import_fracplap()


def _report(sup_values):
    sup = np.asarray(sup_values, dtype=np.float64)
    return RunReport(
        status=RunStatus("completed"), times=np.arange(len(sup), dtype=np.float64),
        sup_series=sup, l2_series=sup, l1_series=sup, min_series=np.zeros_like(sup),
        final=Field.constant(DomainSpec(half_width=4.0, n=16), float(sup[-1])),
        steps=len(sup), wall_time=0.0)


def _march(bench, name):
    workloads, fp = bench
    march = workloads.WORKLOADS[name]
    march.fp = fp
    march.configs = [(None, None, fp.config.parse_config(json.dumps(m)))
                     for m in march.manifests]
    return march


def test_allee_gate_reads_the_dichotomy_verdict(bench):
    march = _march(bench, "allee-1d")
    ok = march.check_reports([_report([0.2, 0.05]), _report([0.5, 0.748])])
    assert [(c.name, c.passed) for c in ok] == [("extinction", True), ("persistence", True)]
    swapped = march.check_reports([_report([0.5, 0.748]), _report([0.2, 0.05])])
    assert [c.passed for c in swapped] == [False, False]


def test_bounded_gate_reads_the_boundedness_verdict(bench):
    march = _march(bench, "bounded-2d")
    (ok,) = march.check_reports([_report([0.5, 0.5])])
    assert ok.name == "bounded" and ok.passed
    (bad,) = march.check_reports([_report([0.5, 50.0])])
    assert not bad.passed
