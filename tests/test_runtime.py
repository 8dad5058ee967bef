from thermoduct.certificates import estimate_constants
from thermoduct.runtime import THREADS_ENV, worker_count


def test_worker_count_env_parsing(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert worker_count() == 1
    monkeypatch.setenv(THREADS_ENV, "5")
    assert worker_count() == 5
    monkeypatch.setenv(THREADS_ENV, "0")
    assert worker_count() == 1
    monkeypatch.setenv(THREADS_ENV, "junk")
    assert worker_count() == 1


def test_estimates_identical_under_thread_cap(monkeypatch, small_space, boussinesq_model):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    serial = estimate_constants(small_space, boussinesq_model, samples=100, seed=2)
    monkeypatch.setenv(THREADS_ENV, "2")
    pooled = estimate_constants(small_space, boussinesq_model, samples=100, seed=2)
    for name in ("C_b", "C_d", "C_e", "C_eps", "C_1"):
        assert getattr(serial, name) == getattr(pooled, name)
