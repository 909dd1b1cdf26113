import pytest

import lyapzeros as lz
from lyapzeros import RepSpec


@pytest.fixture(scope="session")
def acceptance_runs():
    """Lazily cached default-config simulations shared by the acceptance
    criteria (same seed and parameters throughout)."""
    cache = {}

    def get(form, rep):
        key = (form.label(), rep.label())
        if key not in cache:
            cfg = lz.SimConfig(form=form, rep=rep)
            cache[key] = lz.lyapunov_spectrum(cfg)
        return cache[key]

    return get


ACCEPTANCE_PAIRS = [
    (lz.su(2, 1), RepSpec.standard(), 2),
    (lz.su(3, 1), RepSpec.standard(), 4),
    (lz.su(3, 1), RepSpec.exterior(2), 4),
    (lz.so_star(3), RepSpec.standard(), 4),
    (lz.sp(2), RepSpec.standard(), 0),
    (lz.so_split(5), RepSpec.standard(), 3),
]
