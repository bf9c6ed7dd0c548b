import numpy as np
import pytest

from latfact import MeasureSpace, WeightedLebesgue


@pytest.fixture
def ones2() -> MeasureSpace:
    return MeasureSpace(weights=np.ones(2))


@pytest.fixture
def lebesgue2(ones2) -> WeightedLebesgue:
    return WeightedLebesgue(space=ones2, s=2.0)


def make_space(weights, s) -> WeightedLebesgue:
    return WeightedLebesgue(space=MeasureSpace(weights=np.asarray(weights, float)),
                            s=float(s))


def two_atom_space(X, e):
    """A saturated two-atom mixture on the dual sphere of ``X_p``.

    At ``q > p`` it is no weighted ``L^p`` space, so the violation oracle
    takes its ascent route on it.
    """
    from latfact import SNormSpace
    from latfact.snorm import DiscreteRadonMeasure
    from latfact.spaces import dual_norm_rows

    G = np.array([np.linspace(1.0, 0.3, X.n), np.linspace(0.3, 1.0, X.n)])
    G /= dual_norm_rows(X, e.p, G)[:, None]
    return SNormSpace(base=X, e=e, xi=DiscreteRadonMeasure(
        atoms=G, masses=[0.4, 0.6]))
