import numpy as np
import pytest

import roelab as rl


@pytest.fixture(scope="session")
def square16():
    return rl.generate({"kind": "square", "window": [[0, 4], [0, 4]]})


@pytest.fixture(scope="session")
def chain200():
    return rl.generate({"kind": "chain", "window": [[0, 200]]})


@pytest.fixture(scope="session")
def square20():
    return rl.generate({"kind": "square", "window": [[0, 20], [0, 20]]})


@pytest.fixture(scope="session")
def qwz20(square20):
    """Clean two-band Chern sample used by several suites."""
    module, H, spec = rl.build_model("qwz", {"m": 1.0}, square20)
    return module, H, spec


def grading(module):
    """diag(1, -1) on every site of a two-orbital module: a gapped, index-zero
    Hamiltonian."""
    return rl.ControlledOperator(module, np.diag(np.tile([1.0, -1.0], module.n_sites)), 0.0)


def random_controlled(module, rng, hop_range=1.5, scale=1.0, hermitian=True):
    """Random finite-propagation operator for property tests.

    One Gaussian m x m block (real part, then imaginary part) per site pair
    x <= y within `hop_range`, drawn in row-major pair order; a Hermitian
    operator symmetrizes its diagonal blocks and mirrors the others.
    """
    from scipy.spatial.distance import cdist
    m = module.orbitals_per_site
    ps = module.pointset
    xs, ys = np.nonzero(np.triu(cdist(ps.coords, ps.coords) <= hop_range))
    R = rng.standard_normal((len(xs), 2, m, m))
    B = scale * (R[:, 0] + 1j * R[:, 1])
    M = np.zeros((ps.n, m, ps.n, m), dtype=complex)
    if hermitian:
        diag = xs == ys
        B[diag] = (B[diag] + B[diag].conj().transpose(0, 2, 1)) / 2
        M[ys[~diag], :, xs[~diag], :] += B[~diag].conj().transpose(0, 2, 1)
    M[xs, :, ys, :] += B
    return rl.ControlledOperator.from_dense(module, M.reshape(module.dim, module.dim),
                                            hermitian=hermitian)


def assert_report(name, ok, detail=""):
    """One pass/fail line per acceptance criterion."""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"
