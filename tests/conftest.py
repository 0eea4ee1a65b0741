import sys

import numpy as np
import pytest

from rolljoint.catalog import demo_five_link, polynomial_link_chain, standard_link_chain
from rolljoint.mechanism import pose_difference


@pytest.fixture(scope="session")
def paper5():
    return demo_five_link()


@pytest.fixture(scope="session")
def chain2():
    return standard_link_chain(2)


@pytest.fixture(scope="session")
def chain3():
    return standard_link_chain(3)


@pytest.fixture(scope="session")
def chain20():
    return standard_link_chain(20)


@pytest.fixture(scope="session")
def poly2():
    return polynomial_link_chain(2)


@pytest.fixture(scope="session")
def poly3():
    return polynomial_link_chain(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def max_pose_error(poses_a, poses_b):
    """Worst translation/angle gap across two pose sequences."""
    return max(max(pose_difference(a, b)) for a, b in zip(poses_a, poses_b))


def count_calls(monkeypatch, func):
    """Replace `func` by a counting wrapper in every rolljoint namespace that
    binds it; returns the one-element call counter."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "rolljoint" or name.startswith("rolljoint."):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.fixture
def joint_geometry_calls(monkeypatch):
    """Counts joint_geometry calls through every rolljoint namespace that
    binds it."""
    from rolljoint.mechanism import joint_geometry

    return count_calls(monkeypatch, joint_geometry)
