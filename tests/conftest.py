import os

# One BLAS thread per test process, set before numpy is first imported: the
# wall-clock bounds of the acceptance tests assume it, and on a shared host
# threads competing for the same cores made fig2 twenty times slower.
os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"))

import pytest  # noqa: E402

from topoqed.circuit import CircuitParams  # noqa: E402
from topoqed.config import load_config  # noqa: E402
from topoqed.wire import WireParams  # noqa: E402


@pytest.fixture
def paper_wire() -> WireParams:
    """Device parameters used for all headline numbers: the built-in config's."""
    return load_config(None).wire


@pytest.fixture
def paper_circuit() -> CircuitParams:
    return load_config(None).circuit
