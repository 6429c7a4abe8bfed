import time

import pytest

import loopforge as lf


class _SessionSetupClock:
    """Set-up seconds of each session fixture, recorded when it is built.

    Registered as a plugin rather than written as a hook of this file: a
    conftest hook sees only the nodes under its directory, and session
    fixtures are set up on the session node.  The fixtures a fixture depends
    on are set up before the hook runs, so each entry is the fixture's own
    time.
    """

    def __init__(self):
        self.seconds: dict = {}

    @pytest.hookimpl(hookwrapper=True)
    def pytest_fixture_setup(self, fixturedef, request):
        t0 = time.perf_counter()
        yield
        if fixturedef.scope == "session":
            self.seconds.setdefault(fixturedef.argname, time.perf_counter() - t0)


_CLOCK = _SessionSetupClock()


def pytest_configure(config):
    config.pluginmanager.register(_CLOCK, "loopforge-session-setup-clock")


@pytest.fixture
def session_setup_s(request):
    """A function giving the set-up seconds of every session fixture this test
    uses, directly or through other fixtures, each counted in full even when
    an earlier test built it."""
    return lambda: sum(_CLOCK.seconds.get(name, 0.0) for name in request.fixturenames)


@pytest.fixture(scope="session")
def s3():
    return lf.s3()


@pytest.fixture(scope="session")
def c4():
    return lf.cyclic(4)


@pytest.fixture(scope="session")
def c6():
    return lf.cyclic(6)


@pytest.fixture(scope="session")
def chein12():
    return lf.chein12()


@pytest.fixture(scope="session")
def cml81():
    return lf.cml81()


@pytest.fixture(scope="session")
def paige2():
    return lf.paige_loop(2)


@pytest.fixture(scope="session")
def paige2_x_c2(paige2):
    return lf.direct_product(paige2, lf.cyclic(2))


@pytest.fixture(scope="session")
def order5():
    # not left alternative: (11)2 = 2 but 1(12) = 4
    return lf.Loop("01234", [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


@pytest.fixture(scope="session")
def bol8():
    # a left Bol loop, a transversal loop of D8 x C2, that is not Moufang:
    # (x(yx))z = x(y(xz)) holds, but ((21)2)0 != 2(1(20)) and (12)2^-1 != 1
    return lf.Loop("01234567", [[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
                                [2, 3, 0, 1, 6, 7, 4, 5], [3, 2, 5, 4, 7, 6, 1, 0],
                                [4, 5, 6, 7, 0, 1, 2, 3], [5, 4, 7, 6, 1, 0, 3, 2],
                                [6, 7, 4, 5, 2, 3, 0, 1], [7, 6, 1, 0, 3, 2, 5, 4]], name="bol8")


@pytest.fixture(scope="session")
def order5_x_s3(order5, s3):
    return lf.direct_product(order5, s3)


@pytest.fixture(scope="session")
def order5_x_chein12(order5, chein12):
    # its associator subloop order5 x A(chein12) needs associators of both factors
    return lf.direct_product(order5, chein12)


@pytest.fixture(scope="session")
def chein12_x_c3(chein12):
    return lf.direct_product(chein12, lf.cyclic(3))


@pytest.fixture(scope="session")
def c3_x_s3(s3):
    return lf.direct_product(lf.cyclic(3), s3)


@pytest.fixture(scope="session")
def c4_x_chein12(chein12):
    return lf.direct_product(lf.cyclic(4), chein12)


# above order 300, where check_properties sampled before it was exact at
# every order; Light's test and the row scans now check them like the rest
@pytest.fixture(scope="session")
def paige2_x_c3(paige2):
    return lf.direct_product(paige2, lf.cyclic(3))


@pytest.fixture(scope="session")
def cml81_x_c5(cml81):
    return lf.direct_product(cml81, lf.cyclic(5))


# M(S3 x C25, 2), order 300: the Chein double of a solvable group is group-type
@pytest.fixture(scope="session")
def chein_s3_c25(s3):
    return lf.chein_double(lf.direct_product(s3, lf.cyclic(25)))


# alternative loop algebra bundles are the expensive objects; build each once
@pytest.fixture(scope="session")
def cml81_gf3(cml81):
    return lf.alternative_loop_algebra(lf.PrimeField(3), cml81)


@pytest.fixture(scope="session")
def cml81_gf5(cml81):
    return lf.alternative_loop_algebra(lf.PrimeField(5), cml81)


@pytest.fixture(scope="session")
def cml81_gf7(cml81):
    return lf.alternative_loop_algebra(lf.PrimeField(7), cml81)


@pytest.fixture(scope="session")
def chein12_gf7(chein12):
    return lf.alternative_loop_algebra(lf.PrimeField(7), chein12)


@pytest.fixture(scope="session")
def paige2_gf11(paige2):
    return lf.alternative_loop_algebra(lf.PrimeField(11), paige2)
