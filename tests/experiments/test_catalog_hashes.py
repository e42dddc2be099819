"""Pinned ``spec_hash`` of every registered scenario variant and the Fig. 8 specs.

A builder that drifts — a default that changes, a workload field that moves,
a sub-spec that goes missing — changes the spec it returns and so its
``spec_hash``, which is also its result-cache key.  The goldens catch that
only for the two dozen scenarios they run; this pin covers every variant of
every registered scenario, experiment and fleet kinds alike, in a fraction
of a second, because it builds specs without simulating them.

When a change intentionally alters a builder, regenerate the file and review
the diff like any other code change:

    python -m pytest tests/experiments/test_catalog_hashes.py --update-goldens
"""

import json
from pathlib import Path

from repro.experiments import matrix
from repro.experiments.comparison import IsolationComparison
from repro.runtime.spec_hash import spec_hash

PIN_PATH = Path(__file__).parent / "catalog_hashes.json"

#: Every variant is expanded at this shape (builders that own a parameter
#: ignore it, as the matrix CLI does).
COMMON = dict(duration=1.0, warmup=0.2, seed=5)

#: Fig. 8 approach -> its ``policy-showdown`` variant label.
FIG8_SHOWDOWN = {
    "no_isolation": "policy-showdown[policy=none]",
    "blind_isolation": "policy-showdown[policy=blind]",
    "cpu_cores": "policy-showdown[policy=static_cores]",
    "cpu_cycles": "policy-showdown[policy=cpu_cycles]",
}


def _variants():
    return {
        variant.label: variant.spec
        for scenario in matrix.iter_scenarios()
        for variant in scenario.expand(**COMMON)
    }


def _fig8_specs():
    comparison = IsolationComparison(**COMMON)
    return {approach: comparison._spec_for(approach) for approach in comparison.APPROACHES}


def _observed():
    return {
        "catalog": {label: spec_hash(spec) for label, spec in sorted(_variants().items())},
        "fig8": {approach: spec_hash(spec) for approach, spec in _fig8_specs().items()},
    }


def test_catalog_and_fig8_hashes_match_the_pin(update_goldens):
    observed = _observed()
    if update_goldens:
        PIN_PATH.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        return
    pinned = json.loads(PIN_PATH.read_text())
    for section in ("catalog", "fig8"):
        assert set(observed[section]) == set(pinned[section]), (
            f"{section} labels changed: "
            f"extra={sorted(set(observed[section]) - set(pinned[section]))}, "
            f"missing={sorted(set(pinned[section]) - set(observed[section]))}"
        )
        drifted = sorted(
            label
            for label, digest in observed[section].items()
            if digest != pinned[section][label]
        )
        assert not drifted, f"{section} specs changed their spec_hash: {drifted}"


def test_fig8_specs_are_the_policy_showdown_variants():
    variants = _variants()
    fig8 = _fig8_specs()
    for approach, label in FIG8_SHOWDOWN.items():
        assert fig8[approach] == variants[label], approach
        assert spec_hash(fig8[approach]) == spec_hash(variants[label]), approach
