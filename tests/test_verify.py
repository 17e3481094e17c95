"""``verify.run_suite`` bookkeeping; the checks themselves are the
acceptance criteria in ``test_acceptance.py``."""
import math
import time

import pytest

from fracplap import verify
from fracplap.cli import main


@pytest.fixture
def stub_suites(monkeypatch):
    """Two stub suites that fill both run caches, with a stand-in for
    the march: one returns, one raises."""
    monkeypatch.setattr(verify, "run", lambda *args, **kwargs: "report")

    def passing():
        verify._allee_run(0.5, 0.20)
        return [verify.Check("stub", True, "cached an Allee run and its kernel")]

    def failing():
        verify._allee_run(0.5, 0.20)
        raise RuntimeError("suite crashed")

    def timed():
        time.sleep(0.05)
        first = verify.Check("first", True, "after 0.05 s")
        time.sleep(0.1)
        return [first, verify.Check("second", False, "0.1 s later")]

    monkeypatch.setitem(verify.SUITES, "stub-pass", passing)
    monkeypatch.setitem(verify.SUITES, "stub-fail", failing)
    monkeypatch.setitem(verify.SUITES, "stub-timed", timed)


def cached_entries() -> int:
    return (verify._allee_kernel.cache_info().currsize
            + verify._allee_run.cache_info().currsize)


def test_run_suite_drops_its_cached_runs(stub_suites):
    checks = verify.run_suite("stub-pass")
    assert [c.name for c in checks] == ["stub"]
    assert cached_entries() == 0


def test_run_suite_drops_its_cached_runs_when_the_suite_raises(stub_suites):
    with pytest.raises(RuntimeError, match="suite crashed"):
        verify.run_suite("stub-fail")
    assert cached_entries() == 0


def test_run_suite_times_each_check_from_the_one_before(stub_suites):
    start = time.perf_counter()
    first, second = verify.run_suite("stub-timed")
    total = time.perf_counter() - start
    assert 0.05 <= first.seconds
    assert 0.1 <= second.seconds
    assert first.seconds + second.seconds <= total
    # the time is no part of a check's outcome
    assert second == verify.Check("second", False, "0.1 s later")
    assert verify.Check("a", True, "d").seconds == 0.0


def test_verify_prints_each_checks_seconds(stub_suites, capsys):
    assert main(["verify", "stub-timed"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS stub-timed/first (0.")
    assert lines[0].endswith(" s): after 0.05 s")
    assert lines[1].startswith("FAIL stub-timed/second (0.")
    assert lines[2].startswith("1/2 checks passed in ")


def test_mlf_suite_catches_a_scalar_path_that_drifts(monkeypatch):
    exact = verify.mittag_leffler

    def drifting(alpha, z, beta=1.0):
        value = exact(alpha, z, beta=beta)
        return math.nextafter(value, math.inf) if isinstance(z, float) and z < 0 else value

    monkeypatch.setattr(verify, "mittag_leffler", drifting)
    failed = [c.name for c in verify.verify_mittag_leffler_accuracy() if not c.passed]
    assert failed == ["scalar-matches-array"]


@pytest.mark.parametrize("status,premise,passed", [
    ("pass", True, True), ("fail", True, False), ("undecided", True, False),
    ("pass", False, False)])
def test_a_verdict_check_passes_only_on_a_passing_verdict_and_premise(status, premise,
                                                                      passed):
    verdict = verify.Verdict(status, 1.0, 2.0, "figures")
    check = verify._verdict_check("name", verdict, "detail", premise=premise)
    assert check == verify.Check("name", passed, "detail")


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(KeyError, match=r"unknown suite 'nope'; choose from \['allee', "):
        verify.run_suite("nope")


def test_allee_suite_returns_its_four_parts_checks_in_order(monkeypatch):
    parts = ("verify_allee_dichotomy", "verify_decay_envelope",
             "verify_lyapunov_monotonicity", "verify_determinism")
    for name in parts:
        monkeypatch.setattr(verify, name, lambda name=name: [
            verify.Check(name, True, "first"), verify.Check(name, False, "second")])
    checks = verify.run_suite("allee")
    assert [(c.name, c.passed, c.detail) for c in checks] == [
        (name, passed, detail) for name in parts
        for passed, detail in ((True, "first"), (False, "second"))]
