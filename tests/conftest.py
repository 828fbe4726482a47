import pytest

from uvbounds import solver_pdelta


@pytest.fixture
def p1_substeps(monkeypatch):
    """Every P1 sub-step's new level, in step order, across the
    ``solve_p0p1`` calls the test makes."""
    levels = []
    p1_step = solver_pdelta._p1_step

    def recorded(*args):
        levels.append(p1_step(*args))
        return levels[-1]

    monkeypatch.setattr(solver_pdelta, "_p1_step", recorded)
    return levels
