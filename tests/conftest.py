import pytest

from hemisys import curves, gf, groups, hemisystem, pg3

import oracles


@pytest.fixture(scope="session")
def F9():
    return gf.make_field(3, 2)


@pytest.fixture(scope="session")
def F25():
    return gf.make_field(5, 2)


@pytest.fixture(scope="session")
def F289():
    return gf.make_field(17, 2)


@pytest.fixture(scope="session")
def ft17():
    return curves.ft_frame_setup(17, 1, 1)


@pytest.fixture(scope="session")
def ft17_sets(ft17):
    return curves.ft_point_sets(ft17.ctx2)


@pytest.fixture(scope="session")
def ft17_gens(ft17):
    return oracles.ft_group_gens(ft17)


@pytest.fixture(scope="session")
def ft17_seed(ft17):
    return hemisystem.seed_generator_g0(ft17)


@pytest.fixture(scope="session")
def ft17_m1(ft17, ft17_gens, ft17_seed):
    _, H, _ = ft17_gens
    key0 = ft17_seed[0]
    return oracles.orbit(ft17.ctx2, H, key0)


@pytest.fixture(scope="session")
def ft17_g1(ft17, ft17_gens, ft17_seed):
    G, _, _ = ft17_gens
    return oracles.orbit(ft17.ctx2, G, ft17_seed[0])


@pytest.fixture(scope="session")
def ft17_m2(ft17, ft17_gens):
    _, H, _ = ft17_gens
    return oracles.orbit(ft17.ctx2, H, oracles.ell_line(ft17, 1))


@pytest.fixture(scope="session")
def ft17_chords(ft17):
    return curves.ft_imaginary_chords(ft17.ctx2)


@pytest.fixture(scope="session")
def ft17_g2(ft17, ft17_sets):
    """All generators meeting the conic section, via the 18 pencils."""
    keys = set()
    for packed in ft17_sets.omega:
        P = pg3.unpack(ft17.ctx2, int(packed))
        keys.update(pg3.generators_through(ft17.frame, P))
    return sorted(keys)


@pytest.fixture(scope="session")
def ft17_build(ft17):
    cand = hemisystem.build_ft(17, 1, 1)
    report = hemisystem.verify(cand, frame=ft17.frame)
    return cand, report


@pytest.fixture(scope="session")
def cp3_build():
    cand = hemisystem.build_cp(3, 1)
    return cand, hemisystem.verify(cand)

