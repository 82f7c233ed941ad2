"""Unit + property tests for canonical task fingerprints (repro.store)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.smd import PullingProtocol
from repro.store import canonical_json, pulling_task, pulling_task_3d, task_fingerprint
from repro.store.fingerprint import _normalize, _Refused


@pytest.fixture
def model():
    return ReducedTranslocationModel(default_reduced_potential())


@pytest.fixture
def proto():
    return PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=10.0,
                           start_z=-5.0)


#: Descriptor fields the engine fixes (no caller sets them); a perturbed
#: one is an edit of the descriptor, as an older record would carry it.
ENGINE_FIELDS = ("force_sample_time", "dt", "cpu_hours_per_ns")


def make_task(model, proto, **overrides):
    edits = {name: overrides.pop(name) for name in ENGINE_FIELDS
             if name in overrides}
    kwargs = dict(n_samples=6, n_records=41,
                  seed_key=(2005, "cell", 100000, 12500, "task", 0))
    kwargs.update(overrides)
    return dict(pulling_task(model, proto, **kwargs), **edits)


class TestCanonicalJson:
    def test_sorted_compact_form(self):
        assert canonical_json({"b": 1, "a": [1.5, "x"]}) == '{"a":[1.5,"x"],"b":1}'

    def test_numpy_scalars_and_arrays_normalize(self):
        out = canonical_json({"i": np.int64(3), "f": np.float64(0.5),
                              "a": np.array([1.0, 2.0])})
        assert out == '{"a":[1.0,2.0],"f":0.5,"i":3}'

    def test_rejects_nan_and_inf(self):
        with pytest.raises(StoreError):
            canonical_json({"x": float("nan")})
        with pytest.raises(StoreError):
            canonical_json({"x": float("inf")})

    def test_rejects_non_string_keys_and_opaque_types(self):
        with pytest.raises(StoreError):
            canonical_json({1: "x"})
        with pytest.raises(StoreError):
            canonical_json({"x": object()})

    def test_refusals_name_the_json_path(self):
        record = {"result": {"works": [[0.0, 1.5, 2.5, float("nan")]]}}
        with pytest.raises(StoreError, match=r"non-finite value at "
                           r"\$\.result\.works\[0\]\[3\] "):
            canonical_json(record)
        with pytest.raises(StoreError,
                           match=r"non-string key 1 at \$\.a\[0\]\.b "):
            canonical_json({"a": [{"b": {1: "x"}}]})
        with pytest.raises(StoreError,
                           match=r"type object at \$\.x\[1\]\[1\] "):
            canonical_json({"x": [1, (2, object())]})
        with pytest.raises(StoreError, match=r"non-finite value at \$\.f "):
            canonical_json({"f": np.float64("inf")})
        with pytest.raises(StoreError, match=r"non-finite value at \$ "):
            canonical_json(float("-inf"))


class TestTaskFingerprint:
    def test_is_sha256_hex(self, model, proto):
        fp = task_fingerprint(make_task(model, proto))
        assert len(fp) == 64
        assert all(c in "0123456789abcdef" for c in fp)

    def test_stable_across_processes(self, model, proto):
        """Pure function of the task content: no id()/hash() leakage."""
        fp1 = task_fingerprint(make_task(model, proto))
        fp2 = task_fingerprint(make_task(model, proto))
        assert fp1 == fp2

    def test_key_order_irrelevant(self, model, proto):
        task = make_task(model, proto)
        reordered = dict(reversed(list(task.items())))
        assert task_fingerprint(task) == task_fingerprint(reordered)

    @pytest.mark.parametrize("change", [
        {"n_samples": 7},
        {"n_records": 42},
        {"force_sample_time": None},
        {"dt": 1e-5},
        {"cpu_hours_per_ns": 1.0},
        {"seed_key": (2005, "cell", 100000, 12500, "task", 1)},
        {"seed_key": 2005},
    ])
    def test_any_parameter_perturbation_changes_fingerprint(
            self, model, proto, change):
        base = task_fingerprint(make_task(model, proto))
        assert task_fingerprint(make_task(model, proto, **change)) != base

    def test_retired_sharded_descriptor_still_fingerprints_apart(
            self, model, proto):
        """``"executor"`` is a frozen literal now; a record the retired
        sharded runner wrote carries a dict there and can never be mistaken
        for (or shadow) a task of today."""
        task = make_task(model, proto)
        assert task["executor"] == "single"
        sharded = dict(task, executor={"kind": "sharded", "shard_size": 8})
        assert task_fingerprint(sharded) != task_fingerprint(task)

    def test_protocol_and_model_enter_fingerprint(self, model, proto):
        base = task_fingerprint(make_task(model, proto))
        other_proto = PullingProtocol(kappa_pn=100.0, velocity=25.0,
                                      distance=10.0, start_z=-5.0)
        assert task_fingerprint(make_task(model, other_proto)) != base
        other_model = ReducedTranslocationModel(
            default_reduced_potential(), friction=0.005)
        assert task_fingerprint(make_task(other_model, proto)) != base

    def test_direction_perturbation_changes_fingerprint(self, model, proto):
        base = task_fingerprint(make_task(model, proto))
        assert task_fingerprint(
            make_task(model, proto.reversed())) != base

    def test_forward_direction_is_the_omitted_default(self, model, proto):
        """``direction="forward"`` is normalized away, so the pre-direction
        record corpus never re-keys: a task built from an explicitly
        forward protocol fingerprints identically to one whose serialized
        form never mentions direction at all."""
        task = make_task(model, proto)
        assert "direction" not in json.dumps(task)
        stripped = json.loads(json.dumps(task))
        assert task_fingerprint(stripped) == task_fingerprint(task)

    def test_kernel_3d_never_collides_with_1d(self, model, proto):
        t1 = make_task(model, proto, seed_key=7)
        t3 = pulling_task_3d(proto, n_samples=6, n_bases=8, n_records=41,
                             axis=(0.0, 0.0, -1.0), start_com_z=20.0,
                             cpu_hours_per_ns=3000.0, seed_key=7)
        assert task_fingerprint(t1) != task_fingerprint(t3)

    def test_model_without_fingerprint_data_is_refused(self, proto):
        class Opaque:
            pass

        with pytest.raises(StoreError):
            make_task(Opaque(), proto)

    def test_empty_seed_key_is_refused(self, model, proto):
        with pytest.raises(StoreError):
            make_task(model, proto, seed_key=())


# -- property-based ---------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)

json_tasks = st.dictionaries(st.text(min_size=1, max_size=10), json_values,
                             min_size=1, max_size=6)


def _shuffle_keys(value, rng):
    """Same logical value, different dict insertion order everywhere."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {k: _shuffle_keys(v, rng) for k, v in items}
    if isinstance(value, list):
        return [_shuffle_keys(v, rng) for v in value]
    return value


class TestFingerprintProperties:
    @given(json_tasks, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_fingerprint_invariant_under_key_reordering(self, task, seed):
        rng = np.random.default_rng(seed)
        assert task_fingerprint(task) == task_fingerprint(
            _shuffle_keys(task, rng))

    @given(json_tasks)
    @settings(max_examples=80, deadline=None)
    def test_canonical_json_round_trips_byte_identically(self, task):
        text = canonical_json(task)
        assert canonical_json(json.loads(text)) == text

    @given(json_tasks, st.text(min_size=1, max_size=10), json_scalars)
    @settings(max_examples=80, deadline=None)
    def test_changing_any_entry_changes_fingerprint(self, task, key, value):
        changed = dict(task)
        changed[key] = value
        # Only a *logical* change must re-fingerprint; setting an equal
        # value is the reordering case covered above.
        if canonical_json(changed) != canonical_json(task):
            assert task_fingerprint(changed) != task_fingerprint(task)
        else:
            assert task_fingerprint(changed) == task_fingerprint(task)


class TestCanonicalJsonProperties:
    @given(json_values)
    @settings(max_examples=100, deadline=None)
    def test_plain_json_is_sorted_compact_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False)

    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                       width=64),
                             min_size=3, max_size=3), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_float_arrays_and_scalars_read_as_their_python_forms(self, rows):
        array = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
        assert canonical_json(array) == canonical_json(array.tolist())
        assert canonical_json({"a": array}) == canonical_json(
            {"a": array.tolist()})
        for value in array.ravel():
            assert canonical_json(value) == canonical_json(float(value))

    @given(st.lists(st.integers(min_value=-2**62, max_value=2**62),
                    max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_int_arrays_and_scalars_read_as_their_python_forms(self, values):
        array = np.array(values, dtype=np.int64)
        assert canonical_json(array) == canonical_json(array.tolist())
        assert [canonical_json(v) for v in array] == [
            canonical_json(int(v)) for v in array]


class _Int(int):
    pass


class _Float(float):
    pass


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

#: Everything the canonical form accepts, NumPy and subclasses included.
canonical_leaves = st.one_of(
    json_scalars,
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=-2**31, max_value=2**31 - 1).map(np.int32),
    finite_floats.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.integers(min_value=-2**70, max_value=2**70).map(_Int),
    finite_floats.map(_Float),
    st.lists(finite_floats, max_size=4).map(np.array),
    st.lists(st.integers(min_value=-2**40, max_value=2**40),
             max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
)

#: What it refuses: non-finite floats, unknown types, non-``str`` keys.
refused_leaves = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"),
                     np.float64("nan"), np.float32("inf"), _Float("nan"),
                     np.array([1.0, float("nan")]), np.bool_(True),
                     object(), 1j, b"x", {1, 2}, np.array([{1: "x"}])]),
)


def _containers(children, keys):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    )


canonical_values = st.recursive(
    canonical_leaves,
    lambda children: _containers(children, st.text(max_size=6)),
    max_leaves=20,
)

any_keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.none(),
                     st.booleans(), st.floats(width=32))
maybe_refused_values = st.recursive(
    st.one_of(canonical_leaves, refused_leaves),
    lambda children: _containers(children, any_keys),
    max_leaves=12,
)


def walked(value):
    """``canonical_json`` as the Python walk alone computes it: the text,
    or the refusal message with its JSON path."""
    try:
        plain = _normalize(value)
    except _Refused as exc:
        path = "$" + "".join(reversed(exc.where))
        return StoreError(f"{exc.what} at {path} cannot be fingerprinted")
    return json.dumps(plain, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def encoded(value):
    try:
        return canonical_json(value)
    except StoreError as exc:
        return exc


class TestEncoderMatchesTheWalk:
    """The C encoder writes every text the walk would, and leaves each
    refusal to the walk, so its message and JSON path do not move."""

    @given(canonical_values)
    @settings(max_examples=300, deadline=None)
    def test_text_is_the_walked_text(self, value):
        assert canonical_json(value) == json.dumps(
            _normalize(value), sort_keys=True, separators=(",", ":"),
            allow_nan=False)

    @given(maybe_refused_values)
    @settings(max_examples=300, deadline=None)
    def test_refusals_are_the_walks_refusals(self, value):
        ours, theirs = encoded(value), walked(value)
        if isinstance(theirs, StoreError):
            assert isinstance(ours, StoreError)
            assert str(ours) == str(theirs)
        else:
            assert ours == theirs

    @pytest.mark.parametrize("value, message", [
        ({1: "x"}, "non-string key 1 at $ "),
        ({"a": [{None: 1}]}, "non-string key None at $.a[0] "),
        ({"a": {True: 1, False: 2}}, "non-string key True at $.a "),
        ({"b": 1, 2.5: "x"}, "non-string key 2.5 at $ "),
        ([np.array([[1.0], [float("inf")]])], "non-finite value at $[0][1][0] "),
        ({"x": (1, 1j)}, "value of type complex at $.x[1] "),
        ({"x": [_Float("-inf")]}, "non-finite value at $.x[0] "),
    ])
    def test_pinned_refusals(self, value, message):
        """Keys the encoder would coerce to strings are refused, not
        written; every message is the walk's."""
        with pytest.raises(StoreError) as caught:
            canonical_json(value)
        assert str(caught.value) == message + "cannot be fingerprinted"

    def test_subclasses_write_their_plain_values(self):
        class Loud(int):
            def __repr__(self):
                return "loud"

        assert canonical_json({"i": Loud(3), "f": _Float(0.5),
                               "t": (1, [2.0])}) == (
            '{"f":0.5,"i":3,"t":[1,[2.0]]}')


# -- direction-aware identity ------------------------------------------------

protocol_params = st.tuples(
    st.floats(min_value=10.0, max_value=500.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)


class TestDirectionalIdentity:
    @given(protocol_params)
    @settings(max_examples=60, deadline=None)
    def test_forward_and_reverse_never_share_a_fingerprint(self, params):
        kappa, velocity, distance, start_z = params
        proto = PullingProtocol(kappa_pn=kappa, velocity=velocity,
                                distance=distance, start_z=start_z)
        model = ReducedTranslocationModel(default_reduced_potential())
        fwd = task_fingerprint(make_task(model, proto))
        rev = task_fingerprint(make_task(model, proto.reversed()))
        assert fwd != rev

    @given(protocol_params)
    @settings(max_examples=60, deadline=None)
    def test_reversal_is_an_identity_preserving_involution(self, params):
        kappa, velocity, distance, start_z = params
        proto = PullingProtocol(kappa_pn=kappa, velocity=velocity,
                                distance=distance, start_z=start_z)
        model = ReducedTranslocationModel(default_reduced_potential())
        assert task_fingerprint(
            make_task(model, proto.reversed().reversed())
        ) == task_fingerprint(make_task(model, proto))

    def test_forward_and_reverse_coexist_in_a_sharded_store(
            self, model, proto, tmp_path):
        """Storing the same window pulled in both directions creates two
        records — a direction collision would silently serve reverse
        pulls from the forward cache."""
        from repro.smd.plan import run_cells
        from repro.store import ShardedResultStore

        store = ShardedResultStore(tmp_path / "store")
        for direction_proto in (proto, proto.reversed()):
            run_cells(model, [(direction_proto, ("dir",))], 1, 2, seed=5,
                      store=store, n_records=5)
        assert len(store) == 2
