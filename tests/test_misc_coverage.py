"""Assorted small-surface coverage: constants, reprs, property checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.constants import ERR_PROC_FAILED, SUCCESS, error_name
from repro.mpi.errhandler import ERRORS_ARE_FATAL, ERRORS_RETURN, MpiError


class TestConstants:
    def test_error_names(self):
        assert error_name(SUCCESS) == "MPI_SUCCESS"
        assert error_name(ERR_PROC_FAILED) == "MPI_ERR_PROC_FAILED"
        assert error_name(9999) == "MPI_ERR_9999"


class TestErrhandlerObjects:
    def test_sentinels_render(self):
        assert repr(ERRORS_ARE_FATAL) == "MPI_ERRORS_ARE_FATAL"
        assert repr(ERRORS_RETURN) == "MPI_ERRORS_RETURN"

    def test_mpi_error_carries_context(self):
        err = MpiError(ERR_PROC_FAILED, "recv src=3", failed_rank=3)
        assert err.code == ERR_PROC_FAILED
        assert err.failed_rank == 3
        assert "MPI_ERR_PROC_FAILED" in str(err)
        assert "recv src=3" in str(err)


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=50)
def test_factor3_products(n):
    from repro.apps.heat3d import factor3

    a, b, c = factor3(n)
    assert a * b * c == n
    assert min(a, b, c) >= 1


class TestSoftErrorProperty:
    def test_xsim_soft_errors_cached(self):
        from repro.core.harness.config import SystemConfig
        from repro.core.simulator import XSim

        sim = XSim(SystemConfig.small_test_system(nranks=1))
        assert sim.soft_errors is sim.soft_errors
