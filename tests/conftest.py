import inspect

import pytest

from uvbounds import solver_pdelta


@pytest.fixture
def p1_substeps(monkeypatch):
    """Every P1 sub-step's new level, in step order, across the
    ``solve_p0p1`` calls the test makes: the P1 level ``v`` that
    ``solve_p0p1``'s hook holds after each call."""
    levels = []
    march = solver_pdelta._Scheme.march

    def recorded(scheme, payoff, after_substep=None):
        def hook(*args):
            after_substep(*args)
            levels.append(inspect.getclosurevars(after_substep).nonlocals["v"])

        return march(scheme, payoff, after_substep and hook)

    monkeypatch.setattr(solver_pdelta._Scheme, "march", recorded)
    return levels
