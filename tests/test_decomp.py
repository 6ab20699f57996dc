"""Exact nonnegative decomposition over squared-form dictionaries."""
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lorentz_corrugate import decomp
from lorentz_corrugate.decomp import (
    FormDictionary,
    PrimitiveDecomposition,
    build_dictionary,
    decompose,
)
from lorentz_corrugate.errors import ConeViolation, DomainError, NotPSD
from lorentz_corrugate.fields import LinearForm, MetricField


def cone_field(rng, dictionary, shape, scale=1.0):
    """Random field guaranteed inside the dictionary cone."""
    dec = PrimitiveDecomposition(
        forms=dictionary.forms,
        etas=[rng.uniform(0.0, scale, size=shape) for _ in dictionary.forms],
        residual=0.0,
    )
    return dec.reconstruct()


def test_build_dictionary_angles():
    dic = build_dictionary(5)
    assert dic.k == 5
    for i, f in enumerate(dic.forms):
        th = i * np.pi / 5
        assert f.a == pytest.approx(np.cos(th), abs=1e-15)
        assert f.b == pytest.approx(np.sin(th), abs=1e-15)


def test_dictionary_guards():
    with pytest.raises(DomainError):
        FormDictionary(forms=(LinearForm(1, 0), LinearForm(0, 1)))
    with pytest.raises(DomainError):
        build_dictionary(13)
    # Anti-parallel counts as parallel: same squared form.
    with pytest.raises(DomainError):
        FormDictionary(forms=(LinearForm(1, 0), LinearForm(-1, 0), LinearForm(0, 1)))


def test_weighted_matrix_columns():
    dic = build_dictionary(4)
    A = dic.weighted_matrix()
    assert A.shape == (3, 4)
    for j, f in enumerate(dic.forms):
        assert np.allclose(A[:, j], [f.a**2, np.sqrt(2) * f.a * f.b, f.b**2])
        # Unit forms give unit columns in the weighted coordinates.
        assert np.linalg.norm(A[:, j]) == pytest.approx(1.0, abs=1e-14)


def test_resolve_threads(monkeypatch):
    """An explicit count of 2 or more starts the pool on any grid; no count means one thread."""

    def no_pool(max_workers):
        raise RuntimeError("pool of %d" % max_workers)

    monkeypatch.setattr(decomp, "ThreadPoolExecutor", no_pool)
    rng = np.random.default_rng(127)
    dic = build_dictionary(5)
    delta = cone_field(rng, dic, (65, 65))
    assert decompose(delta, dic).residual <= decomp.RESIDUAL_TOL
    decompose(delta, dic, threads=1)
    with pytest.raises(RuntimeError, match="pool of 4"):
        decompose(delta, dic, threads=4)
    # one block of nodes still goes to the pool the count asks for
    with pytest.raises(RuntimeError, match="pool of 4"):
        decompose(cone_field(rng, dic, (17, 17)), dic, threads=4)
    with pytest.raises(DomainError):
        decompose(delta, dic, threads=0)


def test_closed_form_k3_matches_solve():
    rng = np.random.default_rng(101)
    dic = build_dictionary(3)
    A = dic.weighted_matrix()
    for _ in range(50):
        delta = cone_field(rng, dic, (6, 6))
        dec = decompose(delta, dic)
        b = np.stack([delta.E, np.sqrt(2.0) * delta.F, delta.G], axis=-1)
        x = np.linalg.solve(A, b.reshape(-1, 3).T).T.reshape(6, 6, 3)
        for j in range(3):
            assert np.allclose(dec.etas[j], x[..., j], atol=1e-12)
        assert dec.residual <= 1e-12


def test_roundtrip_k5():
    rng = np.random.default_rng(103)
    dic = build_dictionary(5)
    for _ in range(20):
        delta = cone_field(rng, dic, (9, 9))
        dec = decompose(delta, dic)
        assert dec.residual <= 1e-9
        back = dec.reconstruct()
        assert float(np.max((back - delta).frobenius())) <= 1e-9
        for eta in dec.etas:
            assert np.all(eta >= 0.0)


def test_matches_nnls_oracle(monkeypatch):
    # The support enumeration and Lawson-Hanson must land on the same
    # optimum value; the minimizers may differ when the cone is degenerate,
    # so compare residuals and reconstructions, not coefficients.
    nnls = pytest.importorskip("scipy.optimize").nnls
    rng = np.random.default_rng(107)
    dic = build_dictionary(5)
    A = dic.weighted_matrix()
    shape = (5, 5)
    a = rng.uniform(0.1, 1.0, size=shape)
    c = rng.uniform(0.1, 1.0, size=shape)
    f = rng.uniform(-0.3, 0.3, size=shape) * np.sqrt(a * c)
    delta = MetricField(a, f, c)
    monkeypatch.setattr(decomp, "RESIDUAL_TOL", np.inf)
    dec = decompose(delta, dic)
    b = np.stack([delta.E, np.sqrt(2.0) * delta.F, delta.G], axis=-1)
    mine = dec.reconstruct()
    for i in range(shape[0]):
        for j in range(shape[1]):
            x, rnorm = nnls(A, b[i, j])
            recon = A @ x
            assert abs(np.linalg.norm(A @ np.array(
                [e[i, j] for e in dec.etas]) - b[i, j]) - rnorm) <= 1e-9
            assert np.allclose(
                [mine.E[i, j], np.sqrt(2.0) * mine.F[i, j], mine.G[i, j]],
                recon,
                atol=1e-8,
            )


def test_rank_one_on_dictionary_direction():
    dic = build_dictionary(5)
    ell = dic.forms[2]
    delta = ell.outer(np.ones((4, 4)))
    dec = decompose(delta, dic)
    assert np.allclose(dec.etas[2], 1.0, atol=1e-9)
    for j in (0, 1, 3, 4):
        assert np.allclose(dec.etas[j], 0.0, atol=1e-9)


def test_zero_field():
    dic = build_dictionary(5)
    dec = decompose(MetricField.constant(0.0, 0.0, 0.0, (3, 3)), dic)
    assert dec.residual == 0.0
    for eta in dec.etas:
        assert np.array_equal(eta, np.zeros((3, 3)))


def test_active_keeps_dictionary_order_and_any_positive_eta():
    """active() drops a form whose eta is 0.0 everywhere and keeps one that is
    positive at a single node, however small, in dictionary order."""
    dic = build_dictionary(5)
    tiny = np.zeros((3, 4))
    tiny[2, 1] = 1e-13
    etas = [np.full((3, 4), 0.5), np.zeros((3, 4)), tiny, np.zeros((3, 4)), np.full((3, 4), 2.0)]
    dec = PrimitiveDecomposition(forms=dic.forms, etas=etas, residual=0.0)
    active = dec.active()
    assert [ell for ell, _ in active] == [dic.forms[0], dic.forms[2], dic.forms[4]]
    assert all(eta is etas[j] for (_, eta), j in zip(active, (0, 2, 4)))
    assert decompose(MetricField.constant(0.0, 0.0, 0.0, (3, 3)), dic).active() == []


def test_cone_violation_k3():
    dic = build_dictionary(3)
    # diag(0, 1) has a negative closed-form first coefficient.
    delta = MetricField.constant(0.0, 0.0, 1.0, (3, 3))
    with pytest.raises(ConeViolation) as exc:
        decompose(delta, dic)
    assert "node" in str(exc.value)


def test_cone_violation_k5_between_directions():
    dic = build_dictionary(5)
    # Rank-1 direction between two dictionary angles lies outside the cone.
    ell = LinearForm.from_angle(np.pi / 10.0)
    delta = ell.outer(np.ones((3, 3)))
    with pytest.raises(ConeViolation):
        decompose(delta, dic)


def test_cone_violation_names_first_node_of_largest_residual():
    """Two nodes in different blocks leave the cone by the same largest
    residual, a third earlier one by less: every thread count names the
    first of the two, in the same message."""
    dic = build_dictionary(5)
    outside = LinearForm.from_angle(np.pi / 10.0)
    eta = np.zeros((64, 160))
    eta[3, 5] = eta[40, 9] = 1.0
    eta[0, 1] = 0.5
    assert 3 * 160 + 5 < decomp.BLOCK_NODES <= 40 * 160 + 9
    delta = outside.outer(eta)
    messages = set()
    for threads in (None, 1, 4):
        with pytest.raises(ConeViolation, match=r"at node \(3, 5\); matrix E=") as exc:
            decompose(delta, dic, threads=threads)
        messages.add(str(exc.value))
    assert len(messages) == 1


def test_decompose_peak_is_the_etas_and_a_block_a_thread():
    """On a 513^2 k = 5 cone field a call allocates at most 1.6 times the
    bytes of its eta fields: the etas, the residuals and one block's working
    set a thread."""
    dic = build_dictionary(5)
    delta = cone_field(np.random.default_rng(131), dic, (513, 513))
    eta_bytes = dic.k * delta.E.nbytes
    for threads in (None, 2):
        tracemalloc.start()
        try:
            dec = decompose(delta, dic, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.residual <= decomp.RESIDUAL_TOL
        assert peak < 1.6 * eta_bytes, (threads, peak / eta_bytes)


def test_not_psd_rejected():
    dic = build_dictionary(5)
    with pytest.raises(NotPSD):
        decompose(MetricField.constant(1.0, 0.0, -0.1, (2, 2)), dic)


def test_decompose_independent_of_thread_count():
    """Fixed node blocks give the same bytes for no count and for any count."""
    for k, shape in ((9, (257, 257)), (12, (513, 513)), (3, (130, 67))):
        dic = build_dictionary(k)
        delta = cone_field(np.random.default_rng(k), dic, shape)
        serial = decompose(delta, dic)
        for threads in (2, 3, 4, 7, 8):
            dec = decompose(delta, dic, threads=threads)
            for a, b in zip(serial.etas, dec.etas):
                assert np.array_equal(a, b), (k, shape, threads)
            assert dec.residual == serial.residual


def test_threads_write_every_block_when_switching_fast():
    """Eight threads on nine blocks, switching every microsecond, each write
    their blocks into the shared eta array: bitwise the serial result,
    three times, within a minute."""
    dic = build_dictionary(5)
    delta = cone_field(np.random.default_rng(137), dic, (130, 257))
    serial = decompose(delta, dic)
    results = []
    worker = threading.Thread(target=lambda: results.extend(decompose(delta, dic, threads=8) for _ in range(3)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(results) == 3
    for dec in results:
        for a, b in zip(serial.etas, dec.etas):
            assert np.array_equal(a, b)
        assert dec.residual == serial.residual


def test_threads_bit_identical():
    rng = np.random.default_rng(113)
    dic = build_dictionary(5)
    delta = cone_field(rng, dic, (65, 65))
    one = decompose(delta, dic, threads=1)
    four = decompose(delta, dic, threads=4)
    for a, b in zip(one.etas, four.etas):
        assert np.array_equal(a, b)
    assert one.residual == four.residual
