import numpy as np
import pytest

from rpspectral.datasets import (
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    standardize,
)
from rpspectral.errors import ConfigError, InputError


def test_blobs_shapes_and_label_counts():
    X, y = generate_synthetic(SyntheticSpec(kind="blobs", n=100, centers=3, seed=0))
    assert X.shape == (100, 2)
    assert y.shape == (100,)
    assert set(np.unique(y)) == {0, 1, 2}
    # label counts sum to n and are as even as integer division allows
    counts = np.bincount(y)
    assert counts.sum() == 100
    assert counts.max() - counts.min() <= 1


@pytest.mark.parametrize("kind", ["blobs", "moons", "circles", "aniso-blobs"])
def test_every_kind_generates(kind):
    X, y = generate_synthetic(SyntheticSpec(kind=kind, n=40, seed=3))
    assert X.shape == (40, 2)
    assert len(y) == 40
    assert np.isfinite(X).all()


def test_generation_is_bit_deterministic():
    spec = SyntheticSpec(kind="moons", n=64, noise=0.07, seed=11)
    X1, y1 = generate_synthetic(spec)
    X2, y2 = generate_synthetic(spec)
    assert np.array_equal(X1, X2)
    assert np.array_equal(y1, y2)


def test_different_seed_changes_points():
    a, _ = generate_synthetic(SyntheticSpec(kind="blobs", n=50, seed=0))
    b, _ = generate_synthetic(SyntheticSpec(kind="blobs", n=50, seed=1))
    assert not np.array_equal(a, b)


def test_moons_labels_split_half():
    _, y = generate_synthetic(SyntheticSpec(kind="moons", n=101, seed=0))
    assert np.bincount(y).tolist() == [51, 50]


def test_noiseless_moons_lie_on_unit_arcs():
    X, y = generate_synthetic(SyntheticSpec(kind="moons", n=80, noise=0.0, seed=0))
    outer = X[y == 0]
    radii = np.sqrt((outer**2).sum(axis=1))
    assert np.allclose(radii, 1.0, atol=1e-12)


def test_blob_centers_are_separated():
    # The generator redraws center sets that land too close together.
    for seed in range(10):
        X, y = generate_synthetic(
            SyntheticSpec(kind="blobs", n=90, centers=3, noise=0.0, seed=seed)
        )
        centers = np.stack([X[y == c].mean(axis=0) for c in range(3)])
        d = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(-1))
        assert d[np.triu_indices(3, k=1)].min() >= 1.9


def test_spec_validation_errors():
    with pytest.raises(ConfigError, match="^unknown synthetic kind 'spiral'$"):
        generate_synthetic(SyntheticSpec(kind="spiral", n=10))
    with pytest.raises(ConfigError, match="^n = 0 points requested$"):
        generate_synthetic(SyntheticSpec(kind="blobs", n=0))
    with pytest.raises(ConfigError, match="^n must be positive, got -5$"):
        generate_synthetic(SyntheticSpec(kind="blobs", n=-5))
    with pytest.raises(ConfigError, match="^n=2 is below the cluster count 5$"):
        generate_synthetic(SyntheticSpec(kind="blobs", n=2, centers=5))
    with pytest.raises(ConfigError, match="^noise must be nonnegative, got -0.1$"):
        generate_synthetic(SyntheticSpec(kind="moons", n=30, noise=-0.1))


# --- CSV ingestion ---


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_by_header_name(tmp_path):
    path = _write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n5,6,x\n")
    X, y = load_csv(path, "label")
    assert X.shape == (3, 2)
    assert X[1].tolist() == [3.0, 4.0]
    # labels map to contiguous ids in sorted order
    assert y.tolist() == [0, 1, 0]


def test_load_csv_by_index_no_header(tmp_path):
    path = _write(tmp_path, "1,2,0\n3,4,1\n")
    X, y = load_csv(path, 2, header=False)
    assert X.shape == (2, 2)
    assert y.tolist() == [0, 1]


def test_load_csv_numeric_labels_sort_numerically(tmp_path):
    path = _write(tmp_path, "f,label\n1,10\n2,9\n3,10\n")
    _, y = load_csv(path, "label")
    assert y.tolist() == [1, 0, 1]  # 9 sorts before 10


def test_load_csv_errors(tmp_path):
    with pytest.raises(InputError, match="data.csv has no data rows$"):
        load_csv(_write(tmp_path, "a,label\n"), "label")
    with pytest.raises(InputError, match="^no column named 'label'$"):
        load_csv(_write(tmp_path, "a,b\n1,2\n"), "label")
    with pytest.raises(InputError, match=r"^label column index 5 outside 0\.\.1$"):
        load_csv(_write(tmp_path, "1,2\n"), 5, header=False)
    with pytest.raises(InputError, match="^row 0, column 0: 'foo' is not a finite number$"):
        load_csv(_write(tmp_path, "a,label\nfoo,x\n"), "label")
    with pytest.raises(InputError, match="^row 0, column 0: 'nan' is not a finite number$"):
        load_csv(_write(tmp_path, "a,label\nnan,x\n"), "label")
    with pytest.raises(InputError, match="^row 1 has 2 columns, expected 3$"):
        load_csv(_write(tmp_path, "a,b,label\n1,2,x\n1,2\n"), "label")


def test_load_csv_label_name_needs_header(tmp_path):
    path = _write(tmp_path, "1,2\n")
    with pytest.raises(
        InputError, match="^label column given by name but the file has no header$"
    ):
        load_csv(path, "label", header=False)


# --- standardization ---


def test_standardize_hand_case():
    out = standardize(np.array([[1.0], [3.0]]))
    assert np.allclose(out, [[-1.0], [1.0]])


def test_standardize_constant_column_goes_to_zero():
    out = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    assert np.all(out[:, 0] == 0.0)


def test_standardize_moments():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4)) * [1, 10, 0.1, 3] + [5, -2, 0, 100]
    out = standardize(X)
    assert np.abs(out.mean(axis=0)).max() < 1e-10
    assert np.abs(out.var(axis=0) - 1.0).max() < 1e-10


def test_standardize_idempotent():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    once = standardize(X)
    twice = standardize(once)
    assert np.abs(once - twice).max() < 1e-12
