import numpy as np
import pytest

import c0cover as cc


@pytest.fixture(scope="session")
def line3():
    """Three collinear points a,b,c at unit spacing; boundary {a, c}."""
    return cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, 2])


@pytest.fixture(scope="session")
def cyl_fixture():
    """Single boundary point with levels 1, 1/2, 1/4, 1/8."""
    return cc.generate_pack("finite_cylinder", n_base=1, n_levels=4, ratio=0.5)


@pytest.fixture(scope="session")
def cyl_ladder(cyl_fixture):
    lad = cc.ScaleLadder((1.5, 0.6, 0.3, 0.1, 0.05))
    lad.validate_for(cyl_fixture)
    return lad


@pytest.fixture(scope="session")
def finite_pack():
    return cc.generate_pack("finite_cylinder", n_base=3, n_levels=12)


@pytest.fixture(scope="session")
def interval_pack():
    return cc.generate_pack("interval_cylinder", n_base=65, n_levels=12)


@pytest.fixture(scope="session")
def circle_pack():
    return cc.generate_pack("circle_in_disk")


@pytest.fixture(scope="session")
def countable_pack():
    return cc.generate_pack("countable_example", n_y=6)


def run_pipeline(pack):
    ladder = cc.default_ladder(pack)
    e = cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder))
    gamma = cc.ball_cover(e)
    alpha, report = cc.minimal_canonical(pack, gamma)
    return {"pack": pack, "ladder": ladder, "e": e, "gamma": gamma, "alpha": alpha, "report": report}


@pytest.fixture(scope="session")
def finite_pipeline(finite_pack):
    return run_pipeline(finite_pack)


@pytest.fixture(scope="session")
def interval_pipeline(interval_pack):
    return run_pipeline(interval_pack)


@pytest.fixture(scope="session")
def circle_pipeline(circle_pack):
    return run_pipeline(circle_pack)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
