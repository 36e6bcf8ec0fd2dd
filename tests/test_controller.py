"""Aggregation cache, staleness weighting, and the async mixing path."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedsim.controller import (
    WEIGHTING_KINDS,
    DegenerateWeightError,
    WeightingScheme,
    cached_update,
    commit,
    fedasync_update,
    init_community,
    poly_staleness,
    staleness_discount,
)
from fedsim.engine import Assignment, MetricsLog
from fedsim.params import (
    NonFiniteError,
    ParamSet,
    StructureError,
    weighted_average,
)
from fedsim.runner import export_metrics
from oracles import equal, max_abs_diff, zeros_like


def rand_params(rng, shapes=((5, 3), (3,))):
    return ParamSet([f"p{i}" for i in range(len(shapes))],
                    [rng.standard_normal(s) for s in shapes])


def fresh_state(rng):
    return init_community(rand_params(rng))


def test_initial_community_is_broadcast():
    rng = np.random.default_rng(1)
    initial = rand_params(rng)
    state = init_community(initial)
    assert equal(state.model, initial)
    assert state.normalizer == 0.0 and not state.records


def snapshot_counters(state, ledger, out):
    export_metrics(MetricsLog("async", 0, assignments=ledger,
                              final_state=state), str(out))
    snap = json.loads((out / "controller_snapshot.json").read_text())
    return snap["version"], snap["committed_steps"]


def test_state_counts_committed_steps_and_versions(tmp_path):
    # The name is kept from when the state held these counters. A fetch
    # now reads only the served model off the state, and the snapshot's
    # counters are the ledger's: its commits and, when the state keeps
    # records, their local steps.
    rng = np.random.default_rng(2)
    initial = rand_params(rng)
    state = init_community(initial)
    assert snapshot_counters(state, [], tmp_path / "a") == (0, 0)
    assert equal(state.model, initial)
    cached_update(state, 0, rand_params(rng), 10.0)
    ledger = [Assignment(0, 0, 0, 7, 0, 7, 7, 10.0)]
    assert snapshot_counters(state, ledger, tmp_path / "b") == (1, 7)
    # A mixing commit keeps no record, and its snapshot counts no steps.
    mixed = init_community(initial)
    _, alpha = fedasync_update(mixed, rand_params(rng), 0.5, 0)
    ledger = [Assignment(0, 0, 0, 7, 0, 7, 7, alpha)]
    assert snapshot_counters(mixed, ledger, tmp_path / "c") == (1, 0)


def test_single_contribution_dominates():
    rng = np.random.default_rng(3)
    state = fresh_state(rng)
    w = rand_params(rng)
    out = cached_update(state, 0, w, 123.0)
    assert max_abs_diff(out, w) <= 1e-12
    assert state.normalizer == 123.0
    assert list(state.records) == [0]
    assert state.model is out


def test_replacement_uses_latest_contribution_only():
    rng = np.random.default_rng(4)
    state = fresh_state(rng)
    a0, a1 = rand_params(rng), rand_params(rng)
    b = rand_params(rng)
    cached_update(state, 0, a0, 2.0)
    cached_update(state, 1, b, 3.0)
    out = cached_update(state, 0, a1, 5.0)
    expect = weighted_average([a1, b], [5.0, 3.0])
    assert max_abs_diff(out, expect) <= 1e-12
    assert state.normalizer == pytest.approx(8.0)
    assert len(state.records) == 2


def test_cache_matches_full_recompute_interleaved():
    """Incremental updates against recomputing from every live record."""
    rng = np.random.default_rng(5)
    state = fresh_state(rng)
    latest = {}
    for step in range(100):
        k = int(rng.integers(0, 10))
        w = rand_params(rng)
        p = float(rng.uniform(0.5, 20.0))
        out = cached_update(state, k, w, p)
        latest[k] = (w, p)
        models = [latest[j][0] for j in sorted(latest)]
        weights = [latest[j][1] for j in sorted(latest)]
        assert max_abs_diff(out, weighted_average(models, weights)) <= 1e-9


def test_cache_commit_allocates_two_model_buffers_at_any_learner_count():
    """A commit's memory, like its time, is O(model) and flat in N.

    One ``cached_update`` on a saturated state allocates its two new
    buffers (W and W / P) and a few small objects, whatever the number of
    learners: a host-independent form of criterion 3's flat cached cost.
    """
    rng = np.random.default_rng(7)
    models = [ParamSet(["w"], [rng.standard_normal(10_000)]) for _ in range(4)]
    model_bytes = models[0].flat.nbytes
    peaks = []
    for n in (10, 100, 1000):
        state = init_community(zeros_like(models[0]))
        for k in range(n):
            cached_update(state, k, models[k % 4], float(k + 1))
        tracemalloc.start()
        try:
            cached_update(state, 0, models[1], 2.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 2 * model_bytes + 1024, peaks
    assert max(peaks) - min(peaks) <= 1024, peaks


def test_cache_scale_invariance():
    rng = np.random.default_rng(6)
    updates = [(int(rng.integers(0, 4)), rand_params(rng),
                float(rng.uniform(0.1, 5.0))) for _ in range(40)]
    outs = []
    for c in (1.0, 1000.0):
        state = init_community(updates[0][1])
        for k, w, p in updates:
            out = cached_update(state, k, w, c * p)
        outs.append(out)
    assert max_abs_diff(outs[0], outs[1]) <= 1e-12


def test_cached_update_rejects_degenerate_total():
    rng = np.random.default_rng(7)
    state = fresh_state(rng)
    served = state.model
    with pytest.raises(DegenerateWeightError):
        cached_update(state, 0, rand_params(rng), 0.0)
    # and the state must be untouched afterwards
    assert state.normalizer == 0.0 and state.model is served
    assert not state.records


def test_cached_update_validates_inputs():
    rng = np.random.default_rng(8)
    state = fresh_state(rng)
    w = rand_params(rng)
    with pytest.raises(ValueError):
        cached_update(state, 0, w, float("nan"))
    with pytest.raises(ValueError):
        cached_update(state, 0, w, -1.0)
    bad = ParamSet(["other"], [np.zeros((2, 2))])
    with pytest.raises(StructureError):
        cached_update(state, 0, bad, 1.0)


def test_staleness_discount_pinned_values():
    # 10 steps committed while in flight, 5 local: base 5, weight 6^-0.5
    assert staleness_discount(10, 5) == 6.0 ** -0.5
    # nothing landed in between: full weight
    assert staleness_discount(5, 5) == 1.0
    assert staleness_discount(0, 0) == 1.0


def test_staleness_discount_monotone():
    prev = 2.0
    for intervening in range(0, 200, 7):
        s = staleness_discount(5 + intervening, 5)
        assert s <= prev
        assert 0.0 < s <= 1.0
        prev = s


@settings(max_examples=300, deadline=None, database=None)
@given(in_flight=st.integers(0, 10**9), later=st.integers(0, 10**9),
       local_steps=st.integers(0, 10**9))
def test_staleness_discount_properties(in_flight, later, local_steps):
    now = staleness_discount(in_flight, local_steps)
    after = staleness_discount(in_flight + later, local_steps)
    assert 0.0 < after <= now <= 1.0
    if in_flight - local_steps <= 0:
        assert now == 1.0


def test_poly_staleness_pinned_values():
    assert poly_staleness(0) == 1.0
    assert poly_staleness(3) == 0.5
    assert abs(poly_staleness(8) - 1.0 / 3.0) <= 1e-12
    with pytest.raises(ValueError):
        poly_staleness(-1)


def test_commit_dispatch():
    rng = np.random.default_rng(9)
    state = fresh_state(rng)
    w = rand_params(rng)
    static = WeightingScheme("fedavg_static")
    assert commit(static, state, 0, w, 1234, 0, 5, 0)[1] == 1234.0
    rec = WeightingScheme("fedrec_staleness")
    # 110 steps committed, fetched at 100: 10 in flight.
    assert commit(rec, state, 1, w, 50, 110 - 100, 5, 0)[1] == 6.0 ** -0.5
    poly = WeightingScheme("fedasync_poly", mixing=0.8)
    twin = init_community(state.model)
    _, alpha = fedasync_update(twin, w, 0.8, gap=3)
    assert commit(poly, state, 2, w, 50, 0, 5, 3)[1] == alpha == 0.4


def commit_bits(state):
    """Every field, arrays as bytes: equal for two states only if they
    hold the same values bit for bit."""
    return (
        bits(state.model.flat), bits(state.weighted_sum), state.normalizer,
        {k: (bits(r.model.flat), r.value)
         for k, r in state.records.items()},
    )


@pytest.mark.parametrize("kind", WEIGHTING_KINDS)
def test_commit_equals_the_direct_update_bit_for_bit(kind):
    """``commit`` picks the weight and the update and changes no bit of
    what the direct ``cached_update``/``fedasync_update`` call gives."""
    scheme = WeightingScheme(kind, mixing=0.3)
    rng = np.random.default_rng(17)
    initial = rand_params(rng)
    state, direct = init_community(initial), init_community(initial)
    committed = 0
    for i in range(8):
        lid, w, steps = i % 3, rand_params(rng), int(rng.integers(1, 9))
        # Fetched up to 9 steps and 2 commits back.
        in_flight, gap = min(committed, 9), min(i, 2)
        got, value = commit(scheme, state, lid, w, 40 + lid, in_flight,
                            steps, gap)
        if kind == "fedasync_poly":
            want, weight = fedasync_update(direct, w, 0.3, gap)
        else:
            weight = (
                40.0 + lid if kind == "fedavg_static"
                else staleness_discount(in_flight, steps)
            )
            want = cached_update(direct, lid, w, weight)
            committed += steps
        assert value == weight
        assert bits(got.flat) == bits(want.flat)
        assert commit_bits(state) == commit_bits(direct)


def test_fedasync_update_alpha_and_mixing():
    rng = np.random.default_rng(10)
    initial = rand_params(rng)
    state = init_community(initial)
    local = rand_params(rng)
    # fresh fetch: gap 0, alpha = mixing
    out, alpha = fedasync_update(state, local, 0.5, gap=0)
    assert alpha == 0.5
    for c, i, l in zip(out.arrays, initial.arrays, local.arrays):
        assert np.allclose(c, 0.5 * i + 0.5 * l, rtol=0, atol=1e-12)
    assert state.model is out and not state.records
    assert equal(state.model, out)


def test_fedasync_alpha_decays_with_version_gap():
    rng = np.random.default_rng(11)
    state = init_community(rand_params(rng))
    local = rand_params(rng)
    _, alpha = fedasync_update(state, local, 1.0, gap=3)
    assert alpha == 0.5  # (3 + 1) ** -0.5
    _, alpha = fedasync_update(state, local, 1.0, gap=8)
    assert abs(alpha - 1.0 / 3.0) <= 1e-12


def test_fedasync_fixed_alpha_mode():
    rng = np.random.default_rng(12)
    state = init_community(rand_params(rng))
    _, alpha = fedasync_update(state, rand_params(rng), 0.25,
                               gap=50, staleness_adaptive=False)
    assert alpha == 0.25


def test_fedasync_rejects_bad_mixing():
    rng = np.random.default_rng(13)
    state = init_community(rand_params(rng))
    with pytest.raises(ValueError):
        fedasync_update(state, rand_params(rng), 0.0, gap=0)
    with pytest.raises(ValueError):
        fedasync_update(state, rand_params(rng), 1.5, gap=0)


def test_weighting_scheme_validation():
    with pytest.raises(ValueError):
        WeightingScheme("uniform")
    with pytest.raises(ValueError):
        WeightingScheme("fedasync_poly", mixing=0.0)
    with pytest.raises(ValueError):
        WeightingScheme("fedasync_poly", rho=-0.1)
    WeightingScheme("fedasync_poly", mixing=1.0, rho=0.0)


def test_prox_rho_only_under_fedasync_poly():
    assert WeightingScheme("fedasync_poly", rho=0.25).prox_rho == 0.25
    assert WeightingScheme("fedavg_static", rho=0.25).prox_rho == 0.0
    assert WeightingScheme("fedrec_staleness", rho=0.25).prox_rho == 0.0


def test_snapshot_shape(tmp_path):
    rng = np.random.default_rng(14)
    state = fresh_state(rng)
    cached_update(state, 1, rand_params(rng), 4.0)
    # Learner 1's one commit: fetched at version 0, 3 steps, weight 4.
    ledger = [Assignment(1, 0, 0, 3, 0, 3, 3, 4.0)]
    export_metrics(MetricsLog("async", 0, assignments=ledger,
                              final_state=state), str(tmp_path))
    snap = json.loads((tmp_path / "controller_snapshot.json").read_text())
    assert snap["format_version"] == 1
    assert snap["version"] == 1
    assert snap["committed_steps"] == 3
    assert snap["normalizer"] == 4.0
    assert list(snap["learners"]) == ["1"]
    assert snap["learners"]["1"] == {"value": 4.0, "local_steps": 3,
                                     "fetch_steps": 0}


def state_view(state):
    """Every field, with the dicts copied: two views compare equal only if
    no field was rebound or mutated in between."""
    view = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
    return {k: dict(v) if isinstance(v, dict) else v for k, v in view.items()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow -> NonFiniteError
def test_failed_commit_of_subnormal_weight_leaves_state_untouched():
    rng = np.random.default_rng(16)
    state = fresh_state(rng)
    served = state.model
    before = state_view(state)
    with pytest.raises(NonFiniteError):
        cached_update(state, 0, rand_params(rng), 5e-324)
    assert state_view(state) == before
    assert equal(state.model, served)


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
    st.tuples(st.just("cache"), st.integers(0, 2), models, weights),
    st.tuples(st.just("mix"), models, st.floats(0.0, 1.0, exclude_min=True),
              st.integers(-2, 6), st.booleans()),
    st.tuples(st.just("fetch"), st.integers(0, 2)),
)


def ramp(c):
    return ParamSet(["a", "b"], [np.full((2, 2), c), np.arange(3.0) * c])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow -> NonFiniteError
@settings(max_examples=300, deadline=None)
@given(initial=models, ops=st.lists(operations, max_size=25))
@example(initial=ramp(0.0), ops=[("cache", 0, ramp(1.0), 2.0),
                                 ("mix", ramp(3.0), 0.5, 1, True),
                                 ("fetch", 0)])
def test_fetch_serves_last_commit_and_failed_commits_change_nothing(
    initial, ops
):
    state = init_community(initial)
    served = initial
    for op in ops:
        before = state_view(state)
        if op[0] == "fetch":
            assert equal(state.model, served)
            continue
        try:
            if op[0] == "cache":
                _, k, w, value = op
                served = cached_update(state, k, w, value)
            else:
                _, w, mixing, gap, adaptive = op
                served, _ = fedasync_update(state, w, mixing, gap, adaptive)
        except ValueError:  # includes NonFiniteError and the degenerate case
            assert state_view(state) == before
        else:
            assert state.model is served is not before["model"]


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
    flat = state.weighted_sum + value * model.flat
    if prev is not None:
        flat -= prev.value * prev.model.flat
    if not np.isfinite(flat).all():
        raise NonFiniteError
    served = (1.0 / normalizer) * flat
    if not np.isfinite(served).all():
        raise NonFiniteError
    return flat, served


def reference_mix(state, model, mixing, gap, adaptive):
    if adaptive and gap < 0:
        raise ValueError
    alpha = mixing * ((gap + 1) ** -0.5 if adaptive else 1.0)
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
    ops=[("cache", 0, ramp(1e-300), 1.7976931348623157e308),
         ("cache", 1, huge, 1.7976931348623157e308),
         ("cache", 1, ramp(1e-300), 1.7976931348623157e308)],
)
@example(initial=ramp(0.0), ops=[("cache", 0, ramp(-0.0), 5e-324),
                                 ("cache", 1, ramp(-1.0), 1.0)])
def test_commits_match_the_formula_with_temporaries_and_two_scans(
    initial, ops
):
    """Two new buffers and one scan per commit: the same raise or
    no-raise outcome as the plain formula, and the same bits."""
    state = init_community(initial)
    for op in ops:
        if op[0] == "fetch":
            continue  # a fetch only reads the state
        if op[0] == "cache":
            _, k, w, value = op
            expected = outcome(reference_commit, state, k, w, value)
            got = outcome(cached_update, state, k, w, value)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert bits(state.weighted_sum) == bits(expected[0])
                assert bits(got.flat) == bits(expected[1])
        else:
            _, w, mixing, gap, adaptive = op
            expected = outcome(reference_mix, state, w, mixing, gap, adaptive)
            got = outcome(fedasync_update, state, w, mixing, gap, adaptive)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert bits(got[0].flat) == bits(expected)
