"""Pinned output digests: any change to a report, trace, exploration,
knowledge-base or consistency byte fails here, or, for the reference
matrix's reports and traces, in ``benchmarks/test_helpers.py``."""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from restoragent.core import builtin_combinations
from restoragent.envsim import default_mechanistic_env, reference_tabular_env
from restoragent.explore import ExplorationConfig, explore, explore_and_build_kb
from restoragent.knowledge import kb_to_dict, reference_kb
from restoragent.scheduling import ExperienceScheduler, RandomScheduler, measure_consistency

REFERENCE_DIGEST = "614ce2daa755381adb479c9c4032cc3747649127955cbc309870501b989fec21"
EXPLORE_DIGEST = "8438c209fbc9deca3ba0e476c7cdc15f853bd389b252fd61e08522f9e0a47485"
REFERENCE_KB_DIGEST = "19d14538a2cbe020901f0c750a5b8b3939a9432936bdbe9c5e6fa4cc18af362a"
EXPLORED_KB_DIGESTS = {
    "tabular": "16e887963ad1125d94702f3a262f6031a56a07885a5bf1235baf9a1c37a4f11b",
    "mechanistic": "f5699880ffadc02e311f22467cbc84667f7ee1289522d7f11dec7857e3db0dfe",
}
CONSISTENCY_DIGESTS = {
    "experience": "3fd5cf5a959fa4e318e93e3cba5e1b96e333567b515826ff2ac3b59047fcf232",
    "random": "99c433b35b0133e91dc1dcc09af9fca62a542d6d89d7bddaf5c2fed7e03de1cf",
}
REFERENCE_FILE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"


def test_reference_matrix_digest():
    """Both reference envs x every run mode, all 16 combinations, 100 runs
    per cell at seed 17, serial.  ``benchmarks/test_helpers.py`` recomputes
    this matrix against ``benchmarks/reference.json``'s digest, so pinning
    the same digest here checks it without a second 16 000-run batch."""
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    assert reference["reference_digest"] == REFERENCE_DIGEST


def test_explore_digest():
    config = ExplorationConfig(samples_per_combination=2, trials_per_sample=25, seed=17)
    rows = [
        [sorted(d.value for d in key), [t.value for t in order],
         sorted((t.value, ok) for t, ok in flags.items())]
        for key, order, flags in explore(reference_tabular_env(), config)
    ]
    assert len(rows) == 800
    assert hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest() == EXPLORE_DIGEST


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def test_reference_kb_digest():
    assert _sha256(kb_to_dict(reference_kb())) == REFERENCE_KB_DIGEST


@pytest.mark.parametrize("mode", sorted(EXPLORED_KB_DIGESTS))
def test_explored_kb_digest(mode):
    env = reference_tabular_env() if mode == "tabular" else default_mechanistic_env(0)
    config = ExplorationConfig(samples_per_combination=2, trials_per_sample=25, seed=17)
    kb = explore_and_build_kb(env, config)
    assert _sha256(kb_to_dict(kb)) == EXPLORED_KB_DIGESTS[mode]


@pytest.mark.parametrize("name", sorted(CONSISTENCY_DIGESTS))
def test_consistency_digest(name):
    """The ``consistency`` command's defaults: 60 samples per presentation, seed 0."""
    scheduler = ExperienceScheduler(reference_kb()) if name == "experience" else RandomScheduler()
    rows = [asdict(measure_consistency(scheduler, combo.tasks, 60, 0))
            for combo in builtin_combinations()]
    assert _sha256(rows) == CONSISTENCY_DIGESTS[name]
