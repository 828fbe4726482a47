import pytest

from uvbounds import solver_p0p1


@pytest.fixture
def p1_substeps(monkeypatch):
    """Every P1 sub-step's new level, in step order, across the
    ``solve_p0p1`` calls the test makes."""
    levels = []
    scheme = solver_p0p1._scheme

    def recording_scheme(*args):
        select, solve, solve_p1 = scheme(*args)

        def recorded(*a):
            levels.append(solve_p1(*a))
            return levels[-1]
        return select, solve, recorded

    monkeypatch.setattr(solver_p0p1, "_scheme", recording_scheme)
    return levels
