"""``verify.run_suite`` bookkeeping; the checks themselves are the
acceptance criteria in ``test_acceptance.py``."""
import pytest

from fracplap import verify


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

    monkeypatch.setitem(verify.SUITES, "stub-pass", passing)
    monkeypatch.setitem(verify.SUITES, "stub-fail", failing)


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
