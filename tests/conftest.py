import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mflq import make_problem


def random_problem(n, m, G):
    """Problem with every block nonzero, G(shape) drawing entries in
    [-1, 1].  The couplings are small enough that A and Ahat are stable
    and (A, C) is mean-square stable, so the Riccati pair exists."""
    M, N, K, L = G((n, n)), G((n, n)), G((m, m)), G((m, m))
    return make_problem(
        n, m, A=-np.eye(n) + 0.3 * G((n, n)), Abar=0.1 * G((n, n)),
        B=G((n, m)), Bbar=0.2 * G((n, m)), C=0.2 * G((n, n)),
        Cbar=0.1 * G((n, n)), D=0.2 * G((n, m)), Dbar=0.1 * G((n, m)),
        Q=np.eye(n) + M.T @ M / 4.0, Qbar=0.1 * N.T @ N,
        S=0.1 * G((m, n)), Sbar=0.05 * G((m, n)),
        R=np.eye(m) + K.T @ K / 4.0, Rbar=0.1 * L.T @ L,
        b=0.5 * G((n,)), sigma=0.3 * G((n,)), q=0.1 * G((n,)),
        r=0.1 * G((m,)))


@st.composite
def small_problems(draw):
    """random_problem with n, m in {1, 2} and entries in [-1, 1], and a
    starting point x0 in [-1.5, 1.5]^n."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def G(shape):
        return draw(hnp.arrays(np.float64, shape,
                               elements=st.floats(-1.0, 1.0)))
    return random_problem(n, m, G), 1.5 * G((n,))


@pytest.fixture(scope="session")
def all_blocks_4x2():
    """A fixed n=4, m=2 problem with every block nonzero."""
    rng = np.random.default_rng(7)
    return random_problem(4, 2, lambda shape: rng.uniform(-1.0, 1.0, shape))


@pytest.fixture(scope="session")
def sp1():
    """Scalar regulator: A=-1, B=Q=R=1, everything else zero."""
    return make_problem(1, 1, A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])


@pytest.fixture(scope="session")
def sp2():
    """sp1 plus constant drift b=1 and diffusion sigma=0.5."""
    return make_problem(1, 1, A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        b=[1.0], sigma=[0.5])


@pytest.fixture(scope="session")
def spmf():
    """sp1 plus a mean coupling Abar=0.5."""
    return make_problem(1, 1, A=[[-1.0]], Abar=[[0.5]], B=[[1.0]],
                        Q=[[1.0]], R=[[1.0]])


@pytest.fixture(scope="session")
def spmf_b():
    """Mean-coupled problem with a constant drift, so the steady state
    is away from the origin."""
    return make_problem(1, 1, A=[[-1.0]], Abar=[[0.5]], B=[[1.0]],
                        Q=[[1.0]], R=[[1.0]], b=[1.0])


@pytest.fixture(scope="session")
def random_2x2():
    """A fixed 2x2 problem with valid weights and a stabilizable mean
    system (B has full row rank)."""
    rng = np.random.default_rng(11)
    G = rng.standard_normal((2, 2))
    A = 0.3 * rng.standard_normal((2, 2)) - 1.2 * np.eye(2)
    Abar = 0.1 * rng.standard_normal((2, 2))
    B = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    Q = G.T @ G + np.eye(2)
    S = 0.1 * rng.standard_normal((2, 2))
    C = 0.2 * rng.standard_normal((2, 2))
    D = 0.1 * rng.standard_normal((2, 2))
    return make_problem(2, 2, A=A, Abar=Abar, B=B, C=C, D=D,
                        Q=Q, S=S, R=np.eye(2))
