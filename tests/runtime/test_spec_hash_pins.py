"""Pinned ``spec_hash`` digests and an oracle for the canonical encoding.

Every result-cache key is a ``spec_hash``: a change to the canonical encoding
silently orphans every on-disk cache entry.  The digests below were recorded
with the original encoder, which built a tree of JSON-ready values and
serialised it with ``json.dumps``.  That encoder is kept here as
:func:`reference_encoding`, and a property test checks the production
encoder against it on generated values.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from typing import Any, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config.schema import (
    ClusterSpec,
    ConfigPushFaultSpec,
    ControllerCrashSpec,
    CpuBullySpec,
    DegradedCoreSpec,
    DiskBullySpec,
    ExperimentSpec,
    FaultPlanSpec,
    HdfsSpec,
    MachineFaultSpec,
    MlTrainingSpec,
    PerfIsoSpec,
    SecondaryJobSpec,
    TelemetryFaultSpec,
)
from repro.faults.fleet import ShardFaultPlan
from repro.fleet.model import ModeCalibration
from repro.fleet.simulate import FleetShardTask
from repro.runtime.spec_hash import OMIT_IF_DEFAULT, canonical_encoding, spec_hash


class Colour(Enum):
    RED = 1
    BLUE = 2.5


@dataclasses.dataclass(frozen=True)
class Frozen:
    a: Any = 0
    b: Any = None
    c: Optional[Any] = dataclasses.field(default=None, metadata={OMIT_IF_DEFAULT: True})


@dataclasses.dataclass
class Mutable:
    x: Any = 1
    y: Tuple[Any, ...] = ()


def _calibration(offset: float) -> ModeCalibration:
    return ModeCalibration(
        qps=(1200.0, 2400.0),
        quantiles=(
            tuple(0.001 * (i + 1) + offset for i in range(8)),
            tuple(0.002 * (i + 1) + offset for i in range(8)),
        ),
        busy_cpu=(0.31, 0.62),
        secondary_cpu=(0.0, 0.25),
        progress_per_s=(0.0, 1.5),
    )


def _shard_task(faults: Optional[ShardFaultPlan] = None) -> FleetShardTask:
    return FleetShardTask(
        stage="stage-1",
        group="row-ml",
        shard_index=3,
        seed=7,
        logical_cores=48,
        samples_per_machine=4,
        colocated_samples_per_machine=9,
        bucket_seconds=300.0,
        loads=(1800.5, 1901.25),
        placed_cores=(0, 6, 12, 0, 6),
        baseline=_calibration(0.0),
        colocated=_calibration(0.0005),
        sampled=(0, 2, 4),
        faults=faults,
    )


_EVERY_FAULT = FaultPlanSpec(
    machines=MachineFaultSpec(),
    degraded=DegradedCoreSpec(),
    telemetry=TelemetryFaultSpec(),
    controller_crash=ControllerCrashSpec(),
    config_push=ConfigPushFaultSpec(),
)

#: name -> (value, namespace): the cases pinned in ``PINNED``.
CASES = {
    "experiment-default": (ExperimentSpec(), ""),
    "experiment-every-subspec": (
        ExperimentSpec(
            perfiso=PerfIsoSpec(),
            cpu_bully=CpuBullySpec(),
            disk_bully=DiskBullySpec(),
            hdfs=HdfsSpec(),
            ml_training=MlTrainingSpec(),
            extra_secondaries=(SecondaryJobSpec("extra", cpu_bully=CpuBullySpec(threads=8)),),
            faults=_EVERY_FAULT,
        ),
        "",
    ),
    "experiment-empty-fault-plan": (ExperimentSpec(faults=FaultPlanSpec()), ""),
    "cluster-namespaced": (ClusterSpec(), "single-machine/v0.0"),
    "shard-task-healthy": (_shard_task(), "fleet-shard"),
    "shard-task-faulty": (
        _shard_task(
            ShardFaultPlan(
                down=((), (1, 3)), degraded=(2,), slowdown=1.5, degraded_buckets=(1,)
            )
        ),
        "fleet-shard",
    ),
    "map-payload": (["repro.fleet.simulate", "_simulate_shard", [_shard_task()]], "ns"),
    "int-3": (3, ""),
    "int-1": (1, ""),
    "float-2.5": (2.5, ""),
    "float-specials": ((-0.0, float("inf"), float("-inf"), 1e-310, 1e300), ""),
    "bool-true": (True, ""),
    "bool-false": (False, ""),
    "none": (None, ""),
    "str-escapes": ('héllo "q"\n\\ ☃ \U0001f600', ""),
    "enum-int": (Colour.RED, ""),
    "enum-float": (Colour.BLUE, ""),
    "frozenset-floats": (frozenset({0.1, 2.5, -1e300, float("inf")}), ""),
    "dict-int-key": ({1: "a"}, ""),
    "dict-str-key": ({"1": "a"}, ""),
    "dict-mixed": ({2.5: (1, 2), "b": [None], Colour.RED: Frozen(1)}, ""),
    "list-true": ([True], ""),
    "list-one": ([1], ""),
    "nested": (((1, (2.5, "x")), [[], [None, False]], ()), ""),
    "frozen-omitted": (Frozen(1, (2,)), ""),
    "frozen-kept": (Frozen(1, (2,), c=0.5), ""),
    "mutable": (Mutable(x=[1, 2], y=(Frozen(),)), ""),
}

#: Digests recorded with :func:`reference_encoding` (the original encoder).
PINNED = {
    "bool-false": "ab099b8c3fc24e36de6d093881c55dd85e21e2f8583d4e9169b303264f7a16b8",
    "bool-true": "bdf4395e5cf4aa88bfae6a0768bdbc6c3b463c74ff67c07b23e5c2ec7df0e2bb",
    "cluster-namespaced": "f4ad7cf3b690ace6091e62b18d3bca6477034869d0f7cc7510232699fa1ea755",
    "dict-int-key": "57c3eec774f6462f7029b780fe878db17e562d0720137e0cf7367c252c152d89",
    "dict-mixed": "1d7c9a43bbd6101eba0f48b98583a4ef4e512ff7357e9e5a701a716068d66567",
    "dict-str-key": "41ebf4856b1866a47c73752822e34a5912e92f8f8c0cd612195c2b709f89af0a",
    "enum-float": "89a24eb495e4bb955a9d9edc9db55896b1bebca2568acf44e28647469829cf4d",
    "enum-int": "e25db3ebf7cee0ad0153254284d4796dacd8903a0223ff60366f07af46b0430e",
    "experiment-default": "8da161b6589293975621cc6b81fe6ca38d5c2973149347dc402e4c9873f53a91",
    "experiment-empty-fault-plan": "810b87f2abe6d6d902f62330ed9cd80c70343bad04b5928aeda403199548ab36",
    "experiment-every-subspec": "9f468d5a88e33e376278bd1e4964723b524e1572e98efaad9678cf0e57bbd56b",
    "float-2.5": "c12f6ef02332b58d8c4fc800ac10d9b2b79f24fabd111c1f8dbf98d8118544a6",
    "float-specials": "065522f23ab782866bf48b8e6943baee57246176163a36116263e9921faf41bb",
    "frozen-kept": "fb9dddcc3a3563488712be5df49c44415a72f9bca8cff06143582cfd25b5fe84",
    "frozen-omitted": "3fa63f0d1eda321514ac40a91bebfd935312636b84cd275daefb1a9eb5f2b90b",
    "frozenset-floats": "fe0969c193b853634c3a68bafd504a49d6921b4029e16cd985b549879fc38664",
    "int-1": "c1ee4d02ab04af8f6f853ef25ae7bb2a479a57fd9abb20284d8b0656a257c1f1",
    "int-3": "1dbaa7b4da0840a365d11504bea2b8c62a2b5028407e00ee8184b7365924c8f4",
    "list-one": "b7437dffebae8396df45cdb713b59c326ef921cae02eb266db53000a2daab46f",
    "list-true": "e7f21738c9a194e7a87c9b2f2ce4fa81c8cb62912127332e93a6b99211d8bd51",
    "map-payload": "bcc1785fa9076489f3665e68bace5025bfe52b8e6c33832c3248035522c905fa",
    "mutable": "cc75fab13fa96e23d11c152f15d2e6deaef5e51cf754d2767a999471523d8e1b",
    "nested": "60ba0ac3604534b4195b90a7ac2db92010bd2710d9546d8201b06ca5abb60e92",
    "none": "0aedeccc7575b3330bf6eb770f3fd26b8d017be2e05b74f6eb5d5d2678dd48e1",
    "shard-task-faulty": "aa9387e7e5e16c3c8cd3c82038def02c40a5513e504784957a256f248ea3a63c",
    "shard-task-healthy": "b0973d66536ed640883dcab8fb338e91cbadbc2c9637fc780e4be247f0aa767d",
    "str-escapes": "88fc1b7c1ab898d09cb4780e3cb329740d8a90b58eb8ff7192521dc33c9ec0da",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_is_pinned(name):
    value, namespace = CASES[name]
    assert spec_hash(value, namespace=namespace) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_encoder_reproduces_the_pins(name):
    import hashlib

    value, namespace = CASES[name]
    text = reference_encoding(value, namespace)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED[name]
    assert canonical_encoding(value, namespace=namespace) == text


def test_omitted_field_at_its_default_keeps_the_historical_key():
    assert spec_hash(ExperimentSpec(faults=None)) == PINNED["experiment-default"]
    assert PINNED["experiment-empty-fault-plan"] != PINNED["experiment-default"]
    assert spec_hash(_shard_task(faults=None), "fleet-shard") == PINNED["shard-task-healthy"]


def test_numpy_twins_hash_like_python_values():
    assert spec_hash(np.int64(3)) == PINNED["int-3"]
    assert spec_hash(np.float64(2.5)) == PINNED["float-2.5"]
    assert spec_hash(np.bool_(True)) == PINNED["bool-true"]
    assert spec_hash(np.bool_(False)) == PINNED["bool-false"]
    assert spec_hash(ClusterSpec(partitions=np.int64(3))) == spec_hash(ClusterSpec(partitions=3))


def test_bools_stay_distinct_from_ints():
    assert PINNED["bool-true"] != PINNED["int-1"]
    assert PINNED["list-true"] != PINNED["list-one"]
    assert PINNED["dict-int-key"] != PINNED["dict-str-key"]


def test_canonical_text_is_pinned():
    assert canonical_encoding({"k": (1, 2.5, True)}, namespace="ns") == (
        '{"namespace":"ns","spec":{"__dict__":[["k",[1,{"__float__":"2.5"},true]]]}}'
    )
    assert canonical_encoding(Frozen(Colour.RED)) == (
        '{"namespace":"","spec":{"__dataclass__":"Frozen","fields":'
        '{"a":{"__enum__":"Colour","value":1},"b":null}}}'
    )


# --------------------------------------------------------------- the oracle
def _reference_encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _reference_encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if not (
                f.metadata.get(OMIT_IF_DEFAULT)
                and f.default is not dataclasses.MISSING
                and getattr(value, f.name) == f.default
            )
        }
        return {"__dataclass__": type(value).__qualname__, "fields": fields}
    if isinstance(value, Enum):
        return {"__enum__": type(value).__qualname__, "value": _reference_encode(value.value)}
    if isinstance(value, (bool, np.bool_)) or value is None:
        return bool(value) if value is not None else None
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return {"__float__": repr(float(value))}
    if isinstance(value, (list, tuple)):
        return [_reference_encode(item) for item in value]
    if isinstance(value, frozenset):
        return {
            "__frozenset__": sorted(
                (_reference_encode(item) for item in value), key=_reference_sort_key
            )
        }
    if isinstance(value, dict):
        entries = [[_reference_encode(k), _reference_encode(v)] for k, v in value.items()]
        entries.sort(key=_reference_sort_key)
        return {"__dict__": entries}
    raise TypeError(f"cannot canonically encode {type(value).__name__!r} for spec hashing")


def _reference_sort_key(encoded: Any) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def reference_encoding(spec: Any, namespace: str = "") -> str:
    """The original canonical encoding: a JSON-ready tree, then ``json.dumps``."""
    return json.dumps(
        {"namespace": namespace, "spec": _reference_encode(spec)},
        sort_keys=True,
        separators=(",", ":"),
    )


_hashable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(list(Colour)),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.frozensets(_hashable_scalars, max_size=4),
        st.dictionaries(_hashable_scalars, children, max_size=3),
        st.builds(Frozen, children, children, st.one_of(st.none(), children)),
        st.builds(Mutable, children, st.lists(children, max_size=2).map(tuple)),
    )


_values = st.recursive(_hashable_scalars, _containers, max_leaves=24)


@given(value=_values, namespace=st.text(max_size=4))
def test_canonical_encoding_matches_the_reference(value, namespace):
    assert canonical_encoding(value, namespace=namespace) == reference_encoding(value, namespace)


@given(value=_values)
def test_repeated_encoding_is_stable(value):
    # The second pass is served by the frozen-dataclass memo where one applies.
    first = canonical_encoding(value)
    assert canonical_encoding(value) == first == reference_encoding(value)


def test_unencodable_values_raise_type_error():
    for value in (np.zeros(2), {1, 2}, object(), Frozen, b"bytes"):
        with pytest.raises(TypeError):
            spec_hash(value)
    with pytest.raises(TypeError):
        spec_hash(Frozen(a=np.zeros(2)))
