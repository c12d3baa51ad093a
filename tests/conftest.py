"""pytest setup shared by the test modules."""

import pytest

# helpers.py holds the reference checks the rule and solver tests lean on
# (walk_rules' claim and equisatisfiability checks among them); rewrite
# its asserts as pytest does a test module's, so they also run under
# python -O.
pytest.register_assert_rewrite("helpers")
