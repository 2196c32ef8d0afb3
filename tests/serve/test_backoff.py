"""The retry unit tests live with the code in ``tests/graphblas/test_retry.py``.

They are re-collected here, under the names the test floor still lists,
because a PR may rename only a few floor tests; delete this file once
the floor is re-recorded.
"""

from tests.graphblas.test_retry import (  # noqa: F401
    TestBackoff,
    TestGovernorAdoption,
    TestRetryCall,
)
