"""``verify.run_suite`` bookkeeping; the checks themselves are the
acceptance criteria in ``test_acceptance.py``."""
import pytest

from fracplap import verify


@pytest.fixture
def stub_suites(monkeypatch):
    """A fresh run cache and two stub suites that fill it: one returns,
    one raises."""
    monkeypatch.setattr(verify, "_run_cache", {})

    def passing():
        verify._allee_kernel()
        return [verify.Check("stub", True, "cached the Allee kernel")]

    def failing():
        verify._allee_kernel()
        raise RuntimeError("suite crashed")

    monkeypatch.setitem(verify.SUITES, "stub-pass", passing)
    monkeypatch.setitem(verify.SUITES, "stub-fail", failing)


def test_run_suite_drops_its_cached_runs(stub_suites):
    checks = verify.run_suite("stub-pass")
    assert [c.name for c in checks] == ["stub"]
    assert verify._run_cache == {}


def test_run_suite_drops_its_cached_runs_when_the_suite_raises(stub_suites):
    with pytest.raises(RuntimeError, match="suite crashed"):
        verify.run_suite("stub-fail")
    assert verify._run_cache == {}
