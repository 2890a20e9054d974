import numpy as np
import pytest

import weakerr as we


@pytest.fixture(scope="session")
def problems():
    return {p.name: p for p in we.builtin_problems()}


@pytest.fixture(scope="session")
def full_paths():
    """Every grid value of ``iter_paths``: an (n_paths, N+1) array, x0 in column 0."""
    def grid(p, cfg, increments):
        return np.column_stack([np.full(len(increments), p.x0),
                                *we.iter_paths(p, cfg, increments)])
    return grid
