import math
import os

# One BLAS thread per test process, set before numpy is first imported: the
# wall-clock bounds of the acceptance tests assume it, and on a shared host
# threads competing for the same cores made fig2 twenty times slower.
os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"))

import pytest  # noqa: E402

from topoqed.circuit import CircuitParams  # noqa: E402
from topoqed.wire import WireParams  # noqa: E402


@pytest.fixture
def paper_wire() -> WireParams:
    """Device parameters used for all headline numbers."""
    return WireParams(v_F=1e5, L=5e-6, Delta0=2 * math.pi * 32e9, W=1e-7, T=0.02)


@pytest.fixture
def paper_circuit() -> CircuitParams:
    return CircuitParams(
        E_J=2 * math.pi * 16e9,
        E_J0=2 * math.pi * 160e9,
        E_c=2 * math.pi * 160e9,
        n_g=0.5,
        g=0.01,
        phi_e=0.0,
        phi_c=0.5,
        omega_r=2 * math.pi * 6e9,
    )
