"""Pinned output digests: any change to a report, trace or exploration byte
fails here."""

import hashlib
import json

from restoragent.core import builtin_combinations
from restoragent.envsim import default_mechanistic_env, reference_tabular_env
from restoragent.explore import ExplorationConfig, explore
from restoragent.harness import run_batch
from restoragent.knowledge import reference_kb

REFERENCE_DIGEST = "614ce2daa755381adb479c9c4032cc3747649127955cbc309870501b989fec21"
EXPLORE_DIGEST = "8438c209fbc9deca3ba0e476c7cdc15f853bd389b252fd61e08522f9e0a47485"
MODES = ("full", "no-retrieval", "no-reflection", "no-rollback", "strict-threshold")


def test_reference_matrix_digest():
    """Both reference envs x every run mode (in ``MODES`` order), all 16
    combinations, 100 runs per cell at seed 17, serial."""
    kb = reference_kb()
    digest = hashlib.sha256()
    for env in (reference_tabular_env(), default_mechanistic_env(0)):
        for mode in MODES:
            report, traces, _ = run_batch(env, kb, mode, builtin_combinations(), 100, 17, None, 1)
            digest.update(json.dumps([report, traces], sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == REFERENCE_DIGEST


def test_explore_digest():
    config = ExplorationConfig(samples_per_combination=2, trials_per_sample=25, seed=17)
    rows = [
        [sorted(d.value for d in key), [t.value for t in order],
         sorted((t.value, ok) for t, ok in flags.items())]
        for key, order, flags in explore(reference_tabular_env(), config)
    ]
    assert len(rows) == 800
    assert hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest() == EXPLORE_DIGEST
