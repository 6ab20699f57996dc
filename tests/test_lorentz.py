"""Ambient Minkowski primitives."""
import numpy as np
import pytest

from lorentz_corrugate.errors import DegeneratePlane
from lorentz_corrugate.lorentz import (
    HSIG,
    euclidean_norm,
    minkowski_inner,
    timelike_unit_normal,
)


def test_signature_on_axes():
    e = np.eye(3)
    assert minkowski_inner(e[0], e[0]) == 1.0
    assert minkowski_inner(e[1], e[1]) == 1.0
    assert minkowski_inner(e[2], e[2]) == -1.0
    assert minkowski_inner(e[0], e[1]) == 0.0
    assert minkowski_inner(e[0], e[2]) == 0.0


def test_inner_frozen_value():
    assert minkowski_inner([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 4.0 + 10.0 - 18.0


def test_inner_broadcasts():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(4, 5, 3))
    w = rng.normal(size=(4, 5, 3))
    out = minkowski_inner(v, w)
    assert out.shape == (4, 5)
    expect = np.einsum("...i,...i->...", v * HSIG, w)
    assert np.allclose(out, expect, atol=1e-15)


def test_normal_frozen_example():
    t1 = np.array([1.0, 0.0, 0.5])
    t2 = np.array([0.0, 1.0, 0.0])
    n = timelike_unit_normal(t1, t2)
    expect = np.array([0.5, 0.0, 1.0]) / np.sqrt(0.75)
    assert np.allclose(n, expect, atol=1e-15)


def test_normal_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        # Graph-like tangent pairs stay spacelike when the slopes are small.
        a, b = rng.uniform(-0.6, 0.6, size=2)
        t1 = np.array([1.0, 0.0, a]) * rng.uniform(0.3, 2.0)
        t2 = np.array([0.0, 1.0, b]) * rng.uniform(0.3, 2.0)
        rot = rng.uniform(-1.0, 1.0)
        t1, t2 = t1 + rot * t2, t2 - 0.3 * rot * t1
        n = timelike_unit_normal(t1, t2)
        assert abs(minkowski_inner(n, n) + 1.0) < 1e-12
        assert abs(minkowski_inner(n, t1)) < 1e-12 * euclidean_norm(t1)
        assert abs(minkowski_inner(n, t2)) < 1e-12 * euclidean_norm(t2)
        assert n[2] > 0.0


def test_normal_matches_nullspace_oracle():
    # h(n, t_i) = 0 says n spans the kernel of the 2x3 matrix with rows
    # t_i * HSIG; recover that kernel independently via SVD.
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = rng.uniform(-0.5, 0.5, size=2)
        t1 = np.array([1.0, 0.2 * b, a])
        t2 = np.array([-0.1 * a, 1.0, b])
        m = np.stack([t1 * HSIG, t2 * HSIG])
        _, _, vt = np.linalg.svd(m)
        k = vt[-1]
        k = k / np.sqrt(-minkowski_inner(k, k))
        if k[2] < 0:
            k = -k
        n = timelike_unit_normal(t1, t2)
        assert np.allclose(n, k, atol=1e-10)


def test_normal_rejects_parallel():
    with pytest.raises(DegeneratePlane):
        timelike_unit_normal([1.0, 2.0, 0.0], [2.0, 4.0, 0.0])


def test_normal_rejects_null_plane():
    # Plane containing the null direction (1,0,1): raw normal is itself null.
    with pytest.raises(DegeneratePlane):
        timelike_unit_normal([1.0, 0.0, 1.0], [0.0, 1.0, 0.0])


def test_normal_batched_matches_loop():
    rng = np.random.default_rng(17)
    slopes = rng.uniform(-0.5, 0.5, size=(6, 2))
    t1 = np.stack([np.ones(6), np.zeros(6), slopes[:, 0]], axis=-1)
    t2 = np.stack([np.zeros(6), np.ones(6), slopes[:, 1]], axis=-1)
    batch = timelike_unit_normal(t1, t2)
    for i in range(6):
        single = timelike_unit_normal(t1[i], t2[i])
        assert np.array_equal(batch[i], single)


def test_normal_is_bitwise_the_cross_product_form():
    """The normal made by components equals, to the sign of each zero, the
    raised-index np.cross normalized and flipped to the future."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        t1 = rng.normal(size=(9, 7, 3)) * 0.1 + (1.0, 0.0, 0.0)
        t2 = rng.normal(size=(9, 7, 3)) * 0.1 + (0.0, 1.0, 0.0)
        t1[::2, :, 2] = 0.0  # exact zero components
        t2[:, ::3, 0] = 0.0
        t1[0, 0], t2[0, 0] = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)  # a normal with zeros flipped to -0
        raw = np.cross(t1, t2) * HSIG
        n = raw / np.sqrt(-minkowski_inner(raw, raw))[..., None]
        want = np.where((n[..., 2] < 0.0)[..., None], -n, n)
        assert timelike_unit_normal(t1, t2).tobytes() == want.tobytes()
