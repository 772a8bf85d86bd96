"""ExecutionPlan construction and validation."""

from __future__ import annotations

import pytest

from repro.exec import ExecError, ExecutionPlan
from repro.sweep._testing import square_worker


class TestPlanValidation:
    def test_lambda_rejected(self):
        with pytest.raises(ExecError, match="module-level"):
            ExecutionPlan(name="p", fn=lambda: None, calls=((),))

    def test_nested_function_rejected(self):
        def local_fn():
            return None

        with pytest.raises(ExecError, match="module-level"):
            ExecutionPlan(name="p", fn=local_fn, calls=((),))

    def test_empty_name_rejected(self):
        with pytest.raises(ExecError, match="name"):
            ExecutionPlan(name="", fn=square_worker, calls=())

    def test_weight_count_must_match_calls(self):
        with pytest.raises(ExecError, match="weights"):
            ExecutionPlan(
                name="p",
                fn=square_worker,
                calls=(({"value": 1}, {}, 0),),
                weights=(1, 2),
            )

    def test_counts(self):
        plan = ExecutionPlan(
            name="p",
            fn=square_worker,
            calls=tuple(({"value": v}, {}, 0) for v in range(3)),
            weights=(4, 5, 6),
        )
        assert plan.n_calls == 3
        assert plan.n_items == 15
        assert plan.weight(1) == 5

    def test_default_weights_are_one_per_call(self):
        plan = ExecutionPlan(
            name="p",
            fn=square_worker,
            calls=tuple(({"value": v}, {}, 0) for v in range(3)),
        )
        assert plan.n_items == 3
        assert plan.weight(2) == 1
