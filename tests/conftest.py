"""pytest setup shared by the test modules."""

import pytest

# helpers.py holds the reference checks the rule and solver tests lean on
# (walk_rules' claim and equisatisfiability checks among them); rewrite
# its asserts as pytest does a test module's, so they also run under
# python -O.
pytest.register_assert_rewrite("helpers")


@pytest.fixture
def first_descent_loop(monkeypatch):
    """Run the commit loop without its backtrack (helpers.first_descent)
    at every graph node and edge_color root, which both reach it through
    vertexcolor.commit_coloring, for the tests of the paper's search:
    the backtrack decides most seeded inputs at their root."""
    # imported here: the line tracer must start before csp32 is imported
    import csp32.vertexcolor as vertexcolor
    from helpers import first_descent

    monkeypatch.setattr(vertexcolor, "_commit_loop", first_descent)
