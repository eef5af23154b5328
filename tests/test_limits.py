import numpy as np
import pytest

from bellkit import analysis, hadamard, inequality as ineq
from bellkit.errors import BellkitError
from bellkit.limits import check_sites


class TestSiteCountType:
    @pytest.mark.parametrize("call", [
        lambda: analysis.classify(2.0),
        lambda: hadamard.build(2.0),
        lambda: list(ineq.enumerate_inequalities(2.0)),
        lambda: analysis.binomial_identity_sides(2.0),
        lambda: analysis.max_b0_family(3.0, 0),
        lambda: hadamard.build("2"),
    ], ids=["classify", "build", "enumerate_inequalities", "binomial_identity_sides",
            "max_b0_family", "build-text"])
    def test_non_integer_is_rejected(self, call):
        # 2.0 passed the cap and then raised TypeError at 1 << n_sites
        with pytest.raises(BellkitError, match="site count must be an integer, got"):
            call()

    @pytest.mark.parametrize("n", [np.int8(3), np.int64(3), np.uint16(3), True],
                             ids=["int8", "int64", "uint16", "bool"])
    def test_integer_types_pass(self, n):
        assert check_sites("test", n, 5, least=1) == int(n)
        assert type(check_sites("test", n, 5, least=1)) is int
