import numpy as np
import pytest

import projdiff as pd
from projdiff.modelio import (
    box_from_text,
    box_to_text,
    prior_to_text,
    union_from_text,
    union_to_text,
)


def test_union_text_round_trip_is_exact():
    union = pd.random_union(6, [2, 3, 1], np.random.default_rng(55))
    back, pi = union_from_text(union_to_text(union))
    assert pi is None
    assert back.n_components == 3
    assert np.array_equal(back.ranks, union.ranks)
    assert np.array_equal(back.bases, union.bases)


def test_prior_text_round_trip_is_exact(tmp_path):
    prior = pd.random_lrgmm(5, 2, 3, np.random.default_rng(56), pi=[0.2, 0.5, 0.3])
    path = tmp_path / "prior.model"
    path.write_text(prior_to_text(prior))
    back = pd.load_model(path)
    assert np.array_equal(back.pi, prior.pi)
    assert np.array_equal(back.union.ranks, prior.union.ranks)
    assert np.array_equal(back.union.bases, prior.union.bases)


def test_box_text_round_trip_is_exact():
    box = pd.BoxSet([-1.0, 0.0, -0.25], [1.0, 0.0, 3.5])
    back = box_from_text(box_to_text(box))
    assert np.array_equal(back.lower, box.lower)
    assert np.array_equal(back.upper, box.upper)


def test_save_and_load_dispatch(tmp_path):
    rng = np.random.default_rng(58)
    prior = pd.random_lrgmm(4, 1, 2, rng)
    union = prior.union
    box = pd.BoxSet([-1.0], [2.0])

    for name, obj in [
        ("prior.txt", prior),
        ("union.txt", union),
        ("box.txt", box),
    ]:
        path = tmp_path / name
        pd.save_model(path, obj)
        assert type(pd.load_model(path)) is type(obj)

    assert np.array_equal(pd.load_model(tmp_path / "prior.txt").pi, prior.pi)
    loaded_box = pd.load_model(tmp_path / "box.txt")
    assert np.array_equal(loaded_box.lower, box.lower)


def test_save_model_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        pd.save_model(tmp_path / "x.txt", {"not": "a model"})
    with pytest.raises(TypeError):
        pd.save_model(tmp_path / "x.txt", np.eye(2))


def test_load_model_rejects_unknown_header(tmp_path):
    path = tmp_path / "weird.txt"
    path.write_text("tensor d=3\n1 2 3\n")
    with pytest.raises(ValueError, match="unknown model header"):
        pd.load_model(path)
    path.write_text("matrix m=1 d=2\n1 2\n")
    with pytest.raises(ValueError, match="unknown model header"):
        pd.load_model(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(ValueError, match="empty"):
        pd.load_model(empty)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty"),
        ("union d=2\nsubspace r=1\n1 0\n", "header"),
        ("union d=2 K=2\nsubspace r=1\n1 0\n", "missing subspace block"),
        ("union d=2 K=1\nsubspace r=2\n1 0\n", "basis rows"),
        ("union d=2 K=1\nsubspace r=1\n1 0 0\n", "expected 2 values"),
        ("union d=2 K=1\nsubspace r=1\n1 0\nextra line here\n", "trailing"),
        ("union d=x K=1\nsubspace r=1\n1 0\n", "invalid literal"),
    ],
)
def test_union_parser_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=message):
        union_from_text(text)


def test_box_parser_rejects_malformed_text():
    with pytest.raises(ValueError, match="3 lines"):
        box_from_text("box d=2\n-1 -1\n")
    with pytest.raises(ValueError, match="expected 2 values"):
        box_from_text("box d=2\n-1 -1\n1 1 1\n")


def test_non_orthonormal_basis_rows_are_rejected_on_load():
    text = "union d=2 K=1\nsubspace r=2\n1 0\n1 0\n"
    with pytest.raises(ValueError, match="orthonormal"):
        union_from_text(text)
