"""Aggregation cache, staleness weighting, and the async mixing path."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedsim.controller import (
    DegenerateWeightError,
    WeightingScheme,
    cached_update,
    compute_contribution,
    fedasync_update,
    init_community,
    poly_staleness,
    record_fetch,
    snapshot,
    staleness_discount,
)
from fedsim.params import (
    NonFiniteError,
    ParamSet,
    StructureError,
    equal,
    max_abs_diff,
    weighted_average,
    zeros_like,
)


def rand_params(rng, shapes=((5, 3), (3,))):
    return ParamSet([f"p{i}" for i in range(len(shapes))],
                    [rng.standard_normal(s) for s in shapes])


def fresh_state(rng, ids):
    return init_community(rand_params(rng), list(ids))


def test_initial_community_is_broadcast():
    rng = np.random.default_rng(1)
    initial = rand_params(rng)
    state = init_community(initial, [0, 1, 2])
    assert equal(state.model, initial)
    assert state.version == 0 and state.committed_steps == 0


def test_record_fetch_reports_counters():
    rng = np.random.default_rng(2)
    state = fresh_state(rng, [0, 1])
    model, steps, version = record_fetch(state, 1)
    assert steps == 0 and version == 0
    assert equal(model, state.model)
    cached_update(state, 0, rand_params(rng), 10.0, steps=7)
    model, steps, version = record_fetch(state, 1)
    assert steps == 7 and version == 1
    assert state.fetch_versions[1] == 1


def test_single_contribution_dominates():
    rng = np.random.default_rng(3)
    state = fresh_state(rng, [0])
    w = rand_params(rng)
    out = cached_update(state, 0, w, 123.0, steps=5)
    assert max_abs_diff(out, w) <= 1e-12
    assert state.normalizer == 123.0
    assert state.committed_steps == 5
    assert state.version == 1


def test_replacement_uses_latest_contribution_only():
    rng = np.random.default_rng(4)
    state = fresh_state(rng, [0, 1])
    a0, a1 = rand_params(rng), rand_params(rng)
    b = rand_params(rng)
    cached_update(state, 0, a0, 2.0, steps=1)
    cached_update(state, 1, b, 3.0, steps=1)
    out = cached_update(state, 0, a1, 5.0, steps=1)
    expect = weighted_average([a1, b], [5.0, 3.0])
    assert max_abs_diff(out, expect) <= 1e-12
    assert state.normalizer == pytest.approx(8.0)
    assert len(state.records) == 2


def test_cache_matches_full_recompute_interleaved():
    """Incremental updates against recomputing from every live record."""
    rng = np.random.default_rng(5)
    ids = list(range(10))
    state = fresh_state(rng, ids)
    latest = {}
    for step in range(100):
        k = int(rng.integers(0, 10))
        w = rand_params(rng)
        p = float(rng.uniform(0.5, 20.0))
        out = cached_update(state, k, w, p, steps=int(rng.integers(1, 9)))
        latest[k] = (w, p)
        models = [latest[j][0] for j in sorted(latest)]
        weights = [latest[j][1] for j in sorted(latest)]
        assert max_abs_diff(out, weighted_average(models, weights)) <= 1e-9


def test_cache_scale_invariance():
    rng = np.random.default_rng(6)
    updates = [(int(rng.integers(0, 4)), rand_params(rng),
                float(rng.uniform(0.1, 5.0))) for _ in range(40)]
    outs = []
    for c in (1.0, 1000.0):
        state = init_community(updates[0][1], [0, 1, 2, 3])
        for k, w, p in updates:
            out = cached_update(state, k, w, c * p, steps=1)
        outs.append(out)
    assert max_abs_diff(outs[0], outs[1]) <= 1e-12


def test_cached_update_rejects_degenerate_total():
    rng = np.random.default_rng(7)
    state = fresh_state(rng, [0])
    with pytest.raises(DegenerateWeightError):
        cached_update(state, 0, rand_params(rng), 0.0, steps=1)
    # and the state must be untouched afterwards
    assert state.normalizer == 0.0 and state.version == 0
    assert not state.records


def test_cached_update_validates_inputs():
    rng = np.random.default_rng(8)
    state = fresh_state(rng, [0])
    w = rand_params(rng)
    with pytest.raises(ValueError):
        cached_update(state, 0, w, float("nan"), steps=1)
    with pytest.raises(ValueError):
        cached_update(state, 0, w, -1.0, steps=1)
    with pytest.raises(ValueError):
        cached_update(state, 0, w, 1.0, steps=0)
    bad = ParamSet(["other"], [np.zeros((2, 2))])
    with pytest.raises(StructureError):
        cached_update(state, 0, bad, 1.0, steps=1)


def test_staleness_discount_pinned_values():
    # 110 committed, fetched at 100, did 5 local: base 5, weight 6^-0.5
    assert staleness_discount(110, 100, 5) == 6.0 ** -0.5
    # nothing landed in between: full weight
    assert staleness_discount(105, 100, 5) == 1.0
    assert staleness_discount(100, 100, 0) == 1.0


def test_staleness_discount_monotone():
    prev = 2.0
    for intervening in range(0, 200, 7):
        s = staleness_discount(100 + 5 + intervening, 100, 5)
        assert s <= prev
        assert 0.0 < s <= 1.0
        prev = s


@settings(max_examples=300, deadline=None, database=None)
@given(committed=st.integers(0, 10**9), later=st.integers(0, 10**9),
       fetch_steps=st.integers(0, 10**9), local_steps=st.integers(0, 10**9))
def test_staleness_discount_properties(committed, later, fetch_steps,
                                       local_steps):
    now = staleness_discount(committed, fetch_steps, local_steps)
    after = staleness_discount(committed + later, fetch_steps, local_steps)
    assert 0.0 < after <= now <= 1.0
    if committed - fetch_steps - local_steps <= 0:
        assert now == 1.0


def test_poly_staleness_pinned_values():
    assert poly_staleness(0, 0) == 1.0
    assert poly_staleness(3, 0) == 0.5
    assert abs(poly_staleness(8, 0) - 1.0 / 3.0) <= 1e-12
    assert poly_staleness(10, 7) == 0.5
    with pytest.raises(ValueError):
        poly_staleness(5, 6)


def test_compute_contribution_dispatch():
    rng = np.random.default_rng(9)
    state = fresh_state(rng, [0])
    static = WeightingScheme("fedavg_static")
    assert compute_contribution(static, state, 1234, 0, 5) == 1234.0
    rec = WeightingScheme("fedrec_staleness")
    state.committed_steps = 110
    assert compute_contribution(rec, state, 50, 100, 5) == 6.0 ** -0.5
    poly = WeightingScheme("fedasync_poly")
    with pytest.raises(ValueError):
        compute_contribution(poly, state, 50, 0, 5)


def test_fedasync_update_alpha_and_mixing():
    rng = np.random.default_rng(10)
    initial = rand_params(rng)
    state = init_community(initial, [0])
    local = rand_params(rng)
    # fresh fetch: gap 0, alpha = mixing
    out, alpha = fedasync_update(state, 0, local, 0.5, fetch_version=0)
    assert alpha == 0.5
    for c, i, l in zip(out.arrays, initial.arrays, local.arrays):
        assert np.allclose(c, 0.5 * i + 0.5 * l, rtol=0, atol=1e-12)
    assert state.version == 1
    assert equal(state.model, out)


def test_fedasync_alpha_decays_with_version_gap():
    rng = np.random.default_rng(11)
    state = init_community(rand_params(rng), [0])
    local = rand_params(rng)
    state.version = 3
    _, alpha = fedasync_update(state, 0, local, 1.0, fetch_version=0)
    assert alpha == 0.5  # (3 + 1) ** -0.5
    state.version = 8
    _, alpha = fedasync_update(state, 0, local, 1.0, fetch_version=0)
    assert abs(alpha - 1.0 / 3.0) <= 1e-12


def test_fedasync_fixed_alpha_mode():
    rng = np.random.default_rng(12)
    state = init_community(rand_params(rng), [0])
    state.version = 50
    _, alpha = fedasync_update(state, 0, rand_params(rng), 0.25,
                               fetch_version=0, staleness_adaptive=False)
    assert alpha == 0.25


def test_fedasync_rejects_bad_mixing():
    rng = np.random.default_rng(13)
    state = init_community(rand_params(rng), [0])
    with pytest.raises(ValueError):
        fedasync_update(state, 0, rand_params(rng), 0.0, fetch_version=0)
    with pytest.raises(ValueError):
        fedasync_update(state, 0, rand_params(rng), 1.5, fetch_version=0)


def test_weighting_scheme_validation():
    with pytest.raises(ValueError):
        WeightingScheme("uniform")
    with pytest.raises(ValueError):
        WeightingScheme("fedasync_poly", mixing=0.0)
    with pytest.raises(ValueError):
        WeightingScheme("fedasync_poly", rho=-0.1)
    WeightingScheme("fedasync_poly", mixing=1.0, rho=0.0)


def test_snapshot_shape():
    rng = np.random.default_rng(14)
    state = fresh_state(rng, [0, 1])
    cached_update(state, 1, rand_params(rng), 4.0, steps=3)
    snap = snapshot(state)
    assert snap["format_version"] == 1
    assert snap["version"] == 1
    assert snap["committed_steps"] == 3
    assert snap["normalizer"] == 4.0
    assert list(snap["learners"]) == ["1"]
    assert snap["learners"]["1"]["local_steps"] == 3


def test_concurrent_commits_linearize():
    """Hammer the cache from many threads; the result must equal the
    weighted average of each learner's final contribution."""
    rng = np.random.default_rng(15)
    num_learners, per_thread = 8, 50
    state = fresh_state(rng, range(num_learners))
    plans = []
    for k in range(num_learners):
        models = [rand_params(np.random.default_rng([20, k, i]))
                  for i in range(per_thread)]
        values = np.random.default_rng([21, k]).uniform(0.5, 10.0, per_thread)
        plans.append((models, values))

    errors = []

    def worker(k):
        try:
            models, values = plans[k]
            for w, p in zip(models, values):
                cached_update(state, k, w, float(p), steps=2)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(num_learners)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert state.version == num_learners * per_thread
    assert state.committed_steps == 2 * num_learners * per_thread
    finals = [plans[k][0][-1] for k in range(num_learners)]
    weights = [float(plans[k][1][-1]) for k in range(num_learners)]
    assert max_abs_diff(state.model,
                        weighted_average(finals, weights)) <= 1e-9


def state_view(state):
    """Every field but the lock, with the dicts copied: two views compare
    equal only if no field was rebound or mutated in between."""
    view = {f.name: getattr(state, f.name)
            for f in dataclasses.fields(state) if f.name != "lock"}
    return {k: dict(v) if isinstance(v, dict) else v for k, v in view.items()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow -> NonFiniteError
def test_failed_commit_of_subnormal_weight_leaves_state_untouched():
    rng = np.random.default_rng(16)
    state = fresh_state(rng, [0, 1])
    served = record_fetch(state, 0)[0]
    before = state_view(state)
    with pytest.raises(NonFiniteError):
        cached_update(state, 0, rand_params(rng), 5e-324, steps=1)
    assert state_view(state) == before
    assert equal(record_fetch(state, 1)[0], served)


def entries(values):
    return st.lists(values, min_size=7, max_size=7).map(
        lambda xs: ParamSet(["a", "b"], [np.reshape(xs[:4], (2, 2)), xs[4:]])
    )


models = st.one_of(
    entries(st.floats(-10.0, 10.0)),
    entries(st.floats(allow_nan=False, allow_infinity=False)),
)
# Everything the API accepts, plus a few inputs it must reject untouched.
weights = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(min_value=0.0, allow_infinity=False, allow_nan=False),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
                     -1.0, float("nan")]),
)
operations = st.one_of(
    st.tuples(st.just("cache"), st.integers(0, 2), models, weights,
              st.integers(0, 4)),
    st.tuples(st.just("mix"), st.integers(0, 2), models,
              st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 6),
              st.booleans()),
    st.tuples(st.just("fetch"), st.integers(0, 2)),
)


def ramp(c):
    return ParamSet(["a", "b"], [np.full((2, 2), c), np.arange(3.0) * c])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow -> NonFiniteError
@settings(max_examples=300, deadline=None)
@given(initial=models, ops=st.lists(operations, max_size=25))
@example(initial=ramp(0.0), ops=[("cache", 0, ramp(1.0), 2.0, 1),
                                 ("mix", 1, ramp(3.0), 0.5, 1, True),
                                 ("fetch", 0)])
def test_fetch_serves_last_commit_and_failed_commits_change_nothing(
    initial, ops
):
    state = init_community(initial, [0, 1, 2])
    served = initial
    for op in ops:
        before = state_view(state)
        if op[0] == "fetch":
            model, steps, version = record_fetch(state, op[1])
            assert equal(model, served)
            assert (steps, version) == (state.committed_steps, state.version)
            continue
        try:
            if op[0] == "cache":
                _, k, w, value, steps = op
                served = cached_update(state, k, w, value, steps)
            else:
                _, k, w, mixing, fetch_version, adaptive = op
                served, _ = fedasync_update(state, k, w, mixing,
                                            fetch_version, adaptive)
        except ValueError:  # includes NonFiniteError and the degenerate case
            assert state_view(state) == before
        else:
            assert state.version == before["version"] + 1


def reference_commit(state, learner_id, model, value):
    """``cached_update``'s arithmetic written out with temporaries and a
    finiteness scan of each new buffer: (weighted sum, served model)."""
    if not value >= 0 or value == float("inf"):
        raise ValueError
    prev = state.records.get(learner_id)
    normalizer = state.normalizer + value
    if prev is not None:
        normalizer -= prev.value
    if normalizer <= 0.0:
        raise DegenerateWeightError
    flat = state.weighted_sum.flat + value * model.flat
    if prev is not None:
        flat -= prev.value * prev.model.flat
    if not np.isfinite(flat).all():
        raise NonFiniteError
    served = (1.0 / normalizer) * flat
    if not np.isfinite(served).all():
        raise NonFiniteError
    return flat, served


def reference_mix(state, model, alpha):
    flat = (1.0 - alpha) * state.model.flat + alpha * model.flat
    if not np.isfinite(flat).all():
        raise NonFiniteError
    return flat


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # includes NonFiniteError and the degenerate case
        return type(exc)


def bits(flat):
    return flat.tobytes()  # tells -0.0 from +0.0, unlike ==


huge = ParamSet(["a", "b"], [np.full((2, 2), 1e308), np.full(3, -1e308)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow -> NonFiniteError
@settings(max_examples=300, deadline=None)
@given(initial=models, ops=st.lists(operations, max_size=25))
@example(  # P overflows to inf with an infinite weighted sum, then a finite one
    initial=ramp(0.0),
    ops=[("cache", 0, ramp(1e-300), 1.7976931348623157e308, 1),
         ("cache", 1, huge, 1.7976931348623157e308, 1),
         ("cache", 1, ramp(1e-300), 1.7976931348623157e308, 1)],
)
@example(initial=ramp(0.0), ops=[("cache", 0, ramp(-0.0), 5e-324, 1),
                                 ("cache", 1, ramp(-1.0), 1.0, 1)])
def test_commits_match_the_formula_with_temporaries_and_two_scans(
    initial, ops
):
    """Two new buffers and one scan per commit: the same raise or
    no-raise outcome as the plain formula, and the same bits."""
    state = init_community(initial, [0, 1, 2])
    for op in ops:
        if op[0] == "fetch":
            record_fetch(state, op[1])
        elif op[0] == "cache":
            _, k, w, value, steps = op
            expected = outcome(reference_commit, state, k, w, value)
            got = outcome(cached_update, state, k, w, value, max(steps, 1))
            if isinstance(expected, type):
                assert got is expected
            else:
                assert bits(state.weighted_sum.flat) == bits(expected[0])
                assert bits(got.flat) == bits(expected[1])
        else:
            _, k, w, mixing, fetch_version, adaptive = op
            fetch_version = min(fetch_version, state.version)
            alpha = mixing * (
                poly_staleness(state.version, fetch_version) if adaptive
                else 1.0
            )
            expected = outcome(reference_mix, state, w, alpha)
            got = outcome(fedasync_update, state, k, w, mixing,
                          fetch_version, adaptive)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert bits(got[0].flat) == bits(expected)
