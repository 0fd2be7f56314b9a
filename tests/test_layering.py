"""Coefficients are an input format of `poly` and `contours` only.

The dominance indicator, the kernels, the charge certificates and the
supercharging search work from roots and charges alone; none of them may
bind a coefficient evaluator, under its own name or another.
"""

import pytest

from rootfield import charges, kernels, poly, regions, search

COEFFICIENT_EVALUATORS = (poly.phase_logmag, poly.majorant_logmag)


@pytest.mark.parametrize("module", [regions, kernels, charges, search],
                         ids=lambda m: m.__name__)
def test_root_form_modules_bind_no_coefficient_evaluator(module):
    bound = [name for name, value in vars(module).items()
             if value is poly or any(value is f
                                     for f in COEFFICIENT_EVALUATORS)]
    assert bound == []
