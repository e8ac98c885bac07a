import pytest

from lisrate import mc_engine


@pytest.fixture(autouse=True, scope="session")
def one_blas_thread():
    """Run the suite's in-process kernels with BLAS on one thread, as every
    `lisrate` task runs them: OpenBLAS's own threads wait for busy cores,
    so a concurrent process could slow a BLAS-heavy test tenfold.  A test
    that checks a thread count sets a different one first."""
    with mc_engine.chunk_threads(1):
        yield
