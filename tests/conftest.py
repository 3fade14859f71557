"""Shared fixtures: one Ray session per pytest run; reference import shim.

The reference library (a read-only datasketch v1.10.0 checkout at
``REFERENCE_ROOT``) is used as the conformance oracle in several tests.
Where that checkout is absent, the ``reference_datasketch`` fixture
skips every test that requests it; the rest of the suite runs without
it. The library imports scipy (``datasketch/lsh.py:8``), which this
environment lacks, so a minimal stub providing ``scipy.integrate.quad``
(numpy Simpson quadrature) and a bare ``scipy.sparse`` namespace is
installed before import.
"""

from __future__ import annotations

import os
import sys
import types

import numpy as np
import pytest


def _install_scipy_stub() -> None:
    if "scipy" in sys.modules:
        return

    def quad(f, lo, hi, **kw):
        if hi <= lo:
            return 0.0, 0.0
        n = 1024
        x = np.linspace(lo, hi, n + 1)
        y = np.array([f(v) for v in x])
        h = (hi - lo) / n
        val = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
        return float(val), 0.0

    scipy = types.ModuleType("scipy")
    integrate = types.ModuleType("scipy.integrate")
    integrate.quad = quad
    sparse = types.ModuleType("scipy.sparse")

    class _NoSparse:  # placeholder so isinstance checks fail cleanly
        pass

    sparse.spmatrix = _NoSparse
    sparse.issparse = lambda x: False
    scipy.integrate = integrate
    scipy.sparse = sparse
    sys.modules["scipy"] = scipy
    sys.modules["scipy.integrate"] = integrate
    sys.modules["scipy.sparse"] = sparse


REFERENCE_ROOT = "/root/reference"

_install_scipy_stub()
if REFERENCE_ROOT not in sys.path:
    sys.path.append(REFERENCE_ROOT)


def pytest_configure(config):
    # Ray's own object-store cleanup after a sort (trace_deallocation)
    # calls its deprecated ``internal_api.free``; this exact message only
    config.addinivalue_line(
        "filterwarnings",
        "ignore:`free` is a deprecated API and will be removed in a future version of Ray:DeprecationWarning",
    )
    # DataContext.copy() deep-copies the context, and Ray's own
    # __setattr__ warns on two deprecated fields it sets back
    # (ray/data/context.py:577-610); these exact messages only
    for msg in (
        "`use_push_based_shuffle` is deprecated! Configure `shuffle_strategy` instead.",
        "`use_polars` is deprecated, please configure `use_polars_sort`  instead.",
    ):
        config.addinivalue_line("filterwarnings", f"ignore:{msg}:DeprecationWarning")


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(params=["distributed", "coalesced"])
def shuffle_mode(request, monkeypatch):
    """Run keyed-shuffle tests on BOTH paths: the in-memory test tables
    are metadata-countable, so without forcing SMALL_SHUFFLE_ROWS=0 the
    small-input coalesce would silently take over and the distributed
    empty-partition regressions would go unexercised."""
    import raydedup.stages.grouped as G

    if request.param == "distributed":
        monkeypatch.setattr(G, "SMALL_SHUFFLE_ROWS", 0)
    return request.param


@pytest.fixture(scope="session")
def reference_datasketch():
    """The reference library, imported with the scipy stub in place.

    Skips the requesting test when the checkout is not there."""
    package_dir = os.path.join(REFERENCE_ROOT, "datasketch")
    if not os.path.isdir(package_dir):
        pytest.skip(f"needs the datasketch v1.10.0 checkout at {package_dir}")
    import datasketch

    assert datasketch.__file__.startswith(REFERENCE_ROOT)
    return datasketch
