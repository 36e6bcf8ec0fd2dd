"""Parameter container and flat arithmetic."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from fedsim.params import (
    NonFiniteError,
    ParamSet,
    SERIALIZATION_VERSION,
    StructureError,
    all_finite,
    allclose,
    axpy,
    equal,
    from_obj,
    load,
    max_abs_diff,
    save,
    scale,
    to_obj,
    weighted_average,
    zeros_like,
)


def make(names_arrays):
    names = [n for n, _ in names_arrays]
    arrays = [np.asarray(a, dtype=np.float64) for _, a in names_arrays]
    return ParamSet(names, arrays)


def random_params(rng, shapes=((4, 3), (3,), (3, 2), (2,))):
    names = [f"p{i}" for i in range(len(shapes))]
    return ParamSet(names, [rng.standard_normal(s) for s in shapes])


def test_weighted_average_hand_value():
    # (1*1 + 2*2 + 3*6) / 6 = 23/6
    models = [make([("w", [[1.0]])]), make([("w", [[2.0]])]), make([("w", [[6.0]])])]
    out = weighted_average(models, [1.0, 2.0, 3.0])
    assert out.arrays[0][0, 0] == 23.0 / 6.0


def test_weighted_average_matches_manual_loop():
    rng = np.random.default_rng(11)
    for _ in range(20):
        models = [random_params(rng) for _ in range(5)]
        weights = rng.uniform(0.1, 4.0, size=5)
        out = weighted_average(models, weights)
        total = weights.sum()
        for j in range(len(out)):
            expect = sum(w * m.arrays[j] for w, m in zip(weights, models)) / total
            assert np.allclose(out.arrays[j], expect, rtol=0, atol=1e-12)


def test_weighted_average_scale_invariance():
    rng = np.random.default_rng(5)
    models = [random_params(rng) for _ in range(4)]
    weights = [1.0, 2.0, 3.0, 4.0]
    a = weighted_average(models, weights)
    b = weighted_average(models, [w * 1000.0 for w in weights])
    assert max_abs_diff(a, b) <= 1e-12


def test_weighted_average_single_model_identity():
    rng = np.random.default_rng(3)
    m = random_params(rng)
    out = weighted_average([m], [0.25])
    assert max_abs_diff(out, m) <= 1e-12


def test_weighted_average_rejects_bad_weights():
    m = make([("w", [[1.0]])])
    with pytest.raises(ValueError):
        weighted_average([], [])
    with pytest.raises(ValueError):
        weighted_average([m, m], [1.0])
    with pytest.raises(ValueError):
        weighted_average([m], [-1.0])
    with pytest.raises(ValueError):
        weighted_average([m], [0.0])
    with pytest.raises(ValueError):
        weighted_average([m], [float("nan")])


def test_weighted_average_rejects_structure_mismatch():
    a = make([("w", [[1.0]])])
    b = make([("w", [[1.0, 2.0]])])
    with pytest.raises(StructureError):
        weighted_average([a, b], [1.0, 1.0])
    c = make([("v", [[1.0]])])
    with pytest.raises(StructureError):
        weighted_average([a, c], [1.0, 1.0])


def test_axpy_and_scale_identities():
    rng = np.random.default_rng(7)
    x = random_params(rng)
    y = random_params(rng)
    out = axpy(2.0, x, y)
    for j in range(len(out)):
        assert np.allclose(out.arrays[j], 2.0 * x.arrays[j] + y.arrays[j],
                           rtol=0, atol=1e-12)
    # scale by 1 is identity, scale by 0 is zeros
    assert equal(scale(1.0, x), x)
    assert equal(scale(0.0, x), zeros_like(x))
    # axpy(-1, x, x) == 0
    assert max_abs_diff(axpy(-1.0, x, x), zeros_like(x)) == 0.0


def test_zeros_like_preserves_structure():
    rng = np.random.default_rng(9)
    x = random_params(rng)
    z = zeros_like(x)
    assert z.names == x.names
    for j in range(len(z)):
        assert z.arrays[j].shape == x.arrays[j].shape
        assert not z.arrays[j].any()


def test_constructor_copies_and_freezes():
    src = np.ones((2, 2))
    p = ParamSet(["w"], [src])
    src[0, 0] = 99.0
    assert p.arrays[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        p.arrays[0][0, 0] = 5.0


def test_flat_buffer_is_frozen_and_backs_the_layers():
    a, b = np.arange(6.0).reshape(2, 3), np.array([7.0, 8.0])
    p = ParamSet(["a", "b"], [a, b])
    a[0, 0] = b[0] = 99.0
    assert p.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0]
    assert not np.shares_memory(p.flat, a) and not np.shares_memory(p.flat, b)
    for layer in p.arrays:
        assert np.shares_memory(layer, p.flat)
        with pytest.raises(ValueError):
            layer[...] = 0.0
    with pytest.raises(ValueError):
        p.flat[0] = 5.0
    assert p.layer("b").tolist() == [7.0, 8.0]
    assert p.num_entries == 8
    for derived in (scale(2.0, p), axpy(1.0, p, p), zeros_like(p),
                    weighted_average([p, p], [1.0, 2.0])):
        assert not derived.flat.flags.writeable
        assert not np.shares_memory(derived.flat, p.flat)


def test_constructor_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        ParamSet(["w"], [np.array([[np.nan]])])
    with pytest.raises(NonFiniteError):
        ParamSet(["w"], [np.array([[np.inf]])])


def test_constructor_rejects_mismatched_names():
    with pytest.raises(StructureError):
        ParamSet(["a", "b"], [np.zeros(2)])
    with pytest.raises(StructureError):
        ParamSet([], [])


def test_max_abs_diff_and_allclose():
    a = make([("w", [[1.0, 2.0]])])
    b = make([("w", [[1.0, 2.5]])])
    assert max_abs_diff(a, b) == 0.5
    assert allclose(a, b, atol=0.6)
    assert not allclose(a, b, atol=0.4)
    assert allclose(a, a, atol=0.0)


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    p = random_params(rng)
    obj = to_obj(p)
    assert obj["format_version"] == SERIALIZATION_VERSION
    q = from_obj(obj)
    assert equal(p, q)
    # json safe
    q2 = from_obj(json.loads(json.dumps(obj)))
    assert equal(p, q2)


def test_serialization_rejects_unknown_version():
    p = make([("w", [[1.0]])])
    obj = to_obj(p)
    obj["format_version"] = SERIALIZATION_VERSION + 1
    with pytest.raises(ValueError):
        from_obj(obj)


def test_save_load_file(tmp_path):
    rng = np.random.default_rng(17)
    p = random_params(rng)
    path = tmp_path / "model.json"
    save(p, path)
    q = load(path)
    assert equal(p, q)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                               min_side=0, max_side=6),
                  elements=st.floats()))
@example(np.array([1e308, 1e308]))
@example(np.array([1e200, -3.0]))
@example(np.array([1.7976931348623157e308, -1.7976931348623157e308, 1e308]))
@example(np.array([np.inf, -np.inf]))
@example(np.array([[1.0, np.nan], [2.0, 3.0]]))
@example(np.array([-np.inf]))
@example(np.array([]))
def test_all_finite_equals_exact_scan(a):
    # Entries whose squares overflow take the exact scan, quietly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(a) == bool(np.isfinite(a).all())


def test_huge_finite_entries_make_a_paramset():
    ps = make([("w", [1e308, 1e200]), ("b", [-1e308])])
    assert ps.flat.tolist() == [1e308, 1e200, -1e308]
