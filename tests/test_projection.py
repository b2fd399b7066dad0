import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgecache import rowsplit
from edgecache.model import DimensionError, in_bounded_simplex
from edgecache.projection import (project_bounded_simplex,
                                  project_bounded_simplex_oracle)
from edgecache.sampler import rng_stream


def test_bounded_simplex_examples():
    np.testing.assert_allclose(project_bounded_simplex([1.5, 0.6, 0.1], 2),
                               [1.0, 0.6, 0.1])
    np.testing.assert_allclose(project_bounded_simplex([1.2, 1.1, 0.9, 0.1], 2),
                               [0.8, 0.7, 0.5, 0.0])
    np.testing.assert_allclose(project_bounded_simplex([2.0, 2.0, 2.0], 2),
                               [2 / 3, 2 / 3, 2 / 3])


def test_oracle_examples():
    np.testing.assert_allclose(
        project_bounded_simplex_oracle([1.2, 1.1, 0.9, 0.1], 2),
        [0.8, 0.7, 0.5, 0.0])
    assert project_bounded_simplex_oracle([-1.0, -0.2, 0.0], 2).tolist() == [0, 0, 0]
    with pytest.raises(ValueError):
        project_bounded_simplex_oracle(np.zeros(21), 3)


def test_oracle_equivalence_randomized():
    rng = rng_stream(3, "test:oracle")
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        M = int(rng.integers(1, n + 1))
        z = rng.normal(rng.uniform(-1, 2), rng.uniform(0.25, 2), size=n)
        fast = project_bounded_simplex(z, M)
        exact = project_bounded_simplex_oracle(z, M)
        np.testing.assert_allclose(fast, exact, atol=1e-9)
        assert in_bounded_simplex(fast, M)


def test_feasibility_and_duplicates():
    y = project_bounded_simplex(np.array([0.7, 0.7, 0.7, 0.7]), 2)
    assert y.sum() <= 2 + 1e-9
    np.testing.assert_allclose(y, [0.5, 0.5, 0.5, 0.5])
    # duplicated values un-permute deterministically
    z = np.array([1.3, 0.4, 1.3, 0.4, 1.3])
    y1 = project_bounded_simplex(z, 2)
    y2 = project_bounded_simplex(z.copy(), 2)
    assert np.array_equal(y1, y2)
    assert y1[0] == y1[2] == y1[4]


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=12),
       st.data())
@settings(max_examples=300, deadline=None)
def test_bounded_simplex_properties(zs, data):
    z = np.array(zs)
    M = data.draw(st.integers(min_value=1, max_value=z.size))
    y = project_bounded_simplex(z, M)
    assert np.all(y >= 0) and np.all(y <= 1)
    assert y.sum() <= M + 1e-9
    # idempotence
    np.testing.assert_allclose(project_bounded_simplex(y, M), y, atol=1e-12)
    # order preservation on sorted input
    zs_sorted = np.sort(z)[::-1]
    ys = project_bounded_simplex(zs_sorted, M)
    assert np.all(np.diff(ys) <= 1e-12)


def test_nonexpansiveness():
    rng = rng_stream(4, "test:nonexp")
    for _ in range(400):
        n = int(rng.integers(2, 16))
        M = int(rng.integers(1, n + 1))
        z1 = rng.normal(0.5, 1.5, n)
        z2 = z1 + rng.normal(0, rng.uniform(0.01, 2.0), n)
        d_in = np.linalg.norm(z1 - z2)
        d_out = np.linalg.norm(project_bounded_simplex(z1, M)
                               - project_bounded_simplex(z2, M))
        assert d_out <= d_in + 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_on_both_paths(bad):
    z = np.array([bad, 0.5, 2.0])
    with pytest.raises(ValueError, match="finite"):
        project_bounded_simplex(z, 1)
    with pytest.raises(ValueError, match="finite"):
        project_bounded_simplex(np.array([[0.2, 0.1, 0.0], z]), 1)


def test_huge_magnitudes_do_not_overflow_on_both_paths():
    z = np.array([1e308, 1e308, -1e308])
    np.testing.assert_array_equal(project_bounded_simplex(z, 1), [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(project_bounded_simplex(z[None, :], 1),
                                  [[0.5, 0.5, 0.0]])


def test_batch_shape_errors():
    with pytest.raises(DimensionError):
        project_bounded_simplex(np.zeros((0, 3)), 1)
    with pytest.raises(DimensionError):
        project_bounded_simplex(np.zeros((2, 2, 2)), 1)
    with pytest.raises(ValueError):
        project_bounded_simplex(np.zeros((2, 3)), 4)


def test_batched_out_receives_the_projection():
    rng = rng_stream(12, "test:out")
    z = rng.normal(0.5, 1.0, size=(6, 9))
    out = np.full_like(z, np.nan)
    result = project_bounded_simplex(z, 3, out=out)
    assert result is out
    np.testing.assert_array_equal(out, project_bounded_simplex(z, 3))


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_out_must_be_float64(dtype):
    z = np.array([[0.9, 0.8, 0.7], [0.1, 0.2, 0.3]])
    out = np.zeros(z.shape, dtype)
    with pytest.raises(ValueError, match="out takes a .* float64 result"):
        project_bounded_simplex(z, 1, out=out)
    assert not out.any()


def test_out_must_not_share_memory_with_the_input():
    # the batched path reads z again after it has written out
    z = np.array([[0.9, 0.8, 0.7], [0.1, 0.2, 0.3]])
    for out in (z, z[::-1]):
        with pytest.raises(ValueError, match="out"):
            project_bounded_simplex(z, 1, out=out)
    with pytest.raises(ValueError, match="out"):
        project_bounded_simplex(z[0], 1, out=np.empty(3))  # 1-D input
    for shape in ((3, 3), (1, 3), (2, 4)):     # rows are written by slices of out
        with pytest.raises(ValueError, match="out"):
            project_bounded_simplex(z, 1, out=np.empty(shape))
    np.testing.assert_array_equal(z, [[0.9, 0.8, 0.7], [0.1, 0.2, 0.3]])


@pytest.mark.parametrize("z, M", [
    ([2.499999999999, 2.2, 0.4999999999998999, 1.0000000000003, 1.0,
      1.499999999999, 1.4999999999999, 1.5, 0.5000000000008], 6),
    ([1.0, 2.0000000000013003, 2.7, 2.000000000001, 1.9999999999999,
      1.0000000000011, 2.000000000001, 2.0, 2.0000000000001, 1.999999999999], 8),
])
def test_near_cap_rows_agree_on_both_paths(z, M):
    # coordinates within an ulp of 1 - 1e-12 come out the same, bit for
    # bit, whether the row arrives as a vector or inside a batch
    row = project_bounded_simplex(np.array(z), M)
    batch = project_bounded_simplex(np.array([z]), M)[0]
    np.testing.assert_array_equal(batch, row)


@st.composite
def _batches(draw):
    B = draw(st.integers(min_value=1, max_value=8))
    N = draw(st.integers(min_value=1, max_value=20))
    M = draw(st.integers(min_value=1, max_value=N))
    rows = draw(st.lists(
        st.lists(st.floats(min_value=-3, max_value=3), min_size=N, max_size=N),
        min_size=B, max_size=B))
    return np.array(rows, dtype=float), M


@given(_batches())
@settings(max_examples=300, deadline=None)
def test_batched_rows_match_oracle_and_single_row_path(batch):
    Z, M = batch
    Y = project_bounded_simplex(Z, M)
    assert Y.shape == Z.shape
    for z, y in zip(Z, Y):
        np.testing.assert_allclose(y, project_bounded_simplex_oracle(z, M), atol=1e-9)
        np.testing.assert_array_equal(y, project_bounded_simplex(z, M))


def test_batch_above_the_split_size_matches_its_rows_one_at_a_time():
    # 300 x 1000 splits into row chunks on a multi-core host; the leading
    # rows hold fewer positive entries than the trailing ones, so each chunk
    # walks fewer breakpoints than the whole batch would
    rng = rng_stream(12, "test:split-batch")
    Z = rng.normal(size=(300, 1000)) + np.linspace(-3.0, 0.5, 300)[:, None]
    assert Z.size >= 2 * rowsplit.SPLIT_SIZE
    Y = project_bounded_simplex(Z, 10)
    rows = np.array([project_bounded_simplex(z, 10) for z in Z])
    np.testing.assert_array_equal(Y, rows)
    assert np.all(Y.sum(axis=1) <= 10 + 1e-9)
    assert np.count_nonzero(np.clip(Z, 0, 1).sum(axis=1) > 10) > 100


@given(_batches())
@settings(max_examples=200, deadline=None)
def test_batch_of_feasible_clamps_returns_the_clamp(batch):
    Z, M = batch
    # push all but each row's M largest entries below zero: at most M
    # entries stay positive, each clamps to at most 1, so every clamp fits
    rank = np.argsort(np.argsort(-Z, axis=1, kind="stable"), axis=1)
    Z = np.where(rank < M, Z, -np.abs(Z) - 0.1)
    clamp = np.clip(Z, 0.0, 1.0)
    assert np.all(clamp.sum(axis=1) <= M)
    np.testing.assert_array_equal(project_bounded_simplex(Z, M), clamp)


def test_validate_projection_counts_batch_mismatches(monkeypatch):
    from edgecache import validate
    result = validate.check_projection(cases=300, seed=5)
    assert result["pass"] and result["batch_mismatches"] == 0

    def off_by_a_bit_in_batches(z, M):
        y = project_bounded_simplex(z, M)
        return y + 1e-6 if np.ndim(z) == 2 else y

    monkeypatch.setattr(validate, "project_bounded_simplex", off_by_a_bit_in_batches)
    broken = validate.check_projection(cases=300, seed=5)
    assert broken["mismatches"] == 0
    assert broken["batch_mismatches"] == 300 and not broken["pass"]
