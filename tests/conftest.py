import contextlib
import os

# one BLAS thread, as the benchmark runs; an explicit setting still wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from stokesdarcy import Problem, assembly, fespace, solver  # noqa: E402


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


_cache = {}


@pytest.fixture(scope="session")
def problem_cache():
    def get(pair, n):
        if (pair, n) not in _cache:
            _cache[pair, n] = Problem(pair, n)
        return _cache[pair, n]
    return get


@pytest.fixture(scope="session")
def mini8(problem_cache):
    return problem_cache("mini", 8)


@pytest.fixture(scope="session")
def th8(problem_cache):
    return problem_cache("th", 8)


@pytest.fixture(scope="session")
def iso8(problem_cache):
    return problem_cache("iso", 8)


@pytest.fixture
def undropped(monkeypatch):
    """Context manager under which assembly keeps every summed entry: the
    plain coo -> csr sum of the triplets, roundoff and zeros included."""
    @contextlib.contextmanager
    def plain():
        with monkeypatch.context() as m:
            for module in (fespace, solver, assembly):
                m.setattr(module, "drop_roundoff", lambda A: A.tocsr())
            yield
    return plain
