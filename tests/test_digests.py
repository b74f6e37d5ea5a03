"""Pinned output digests: any change to a report, trace, exploration,
knowledge-base or consistency byte fails here, or, for the reference
matrix's reports and traces, in ``benchmarks/test_helpers.py``."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from restoragent.core import builtin_combinations
from restoragent.envsim import default_mechanistic_env, reference_tabular_env
from restoragent.explore import ExplorationConfig, explore, explore_and_build_kb
from restoragent.knowledge import (
    kb_to_dict,
    reference_kb,
    reference_records,
    render_experience_text,
)
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
EXPERIENCE_TEXT_DIGESTS = {
    "explored-tabular": "ce08ce2ae840304dd5a98dc59079876c501f9e313c5f043dc0b80689a727fd51",
    "reference": "424a929f0f33b9f07098f3bddc1703528d8da22dd300dfaacd2dce0aba4fe8c7",
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


@pytest.mark.parametrize("source", sorted(EXPERIENCE_TEXT_DIGESTS))
def test_experience_text_digest(source):
    """The experience text ``explore`` and ``summarize`` print, for the
    reference records and for the tabular env's explored KB."""
    if source == "reference":
        records = reference_records()
    else:
        config = ExplorationConfig(samples_per_combination=2, trials_per_sample=25, seed=17)
        records = explore_and_build_kb(reference_tabular_env(), config).records
    text = render_experience_text(records)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EXPERIENCE_TEXT_DIGESTS[source]


#: Prints one sha256 over a small run batch (groups A and C, both reference
#: envs, a full and a no-retrieval mode), the explore digest's trials and
#: explored KB, and the experience text.
_HASH_SEED_PROBE = """
import hashlib, json
from restoragent.core import combinations_in_group
from restoragent.envsim import default_mechanistic_env, reference_tabular_env
from restoragent.explore import ExplorationConfig, explore, explore_and_build_kb
from restoragent.harness import run_batch
from restoragent.knowledge import kb_to_dict, reference_kb, reference_records, render_experience_text

combos = combinations_in_group("A") + combinations_in_group("C")
noise = {"p_miss": {"rain": 0.2, "noise": 0.1}, "p_false": {"haze": 0.1}}
out = []
for env, model in ((reference_tabular_env(), None), (default_mechanistic_env(0), noise)):
    for mode in ("full", "no-retrieval"):
        report, traces, _ = run_batch(env, reference_kb(), mode, combos, 3, 17, model)
        out.append([report, traces])
config = ExplorationConfig(samples_per_combination=2, trials_per_sample=25, seed=17)
trials = explore(reference_tabular_env(), config)
out.append([[sorted(map(str, key)), list(map(str, order)), sorted((str(t), ok) for t, ok in flags.items())]
            for key, order, flags in trials])
kb = explore_and_build_kb(reference_tabular_env(), config)
out.append(kb_to_dict(kb))
out.append(render_experience_text(reference_records()) + render_experience_text(kb.records))
print(hashlib.sha256(json.dumps(out, sort_keys=True).encode("utf-8")).hexdigest())
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    """Members hash as their names, so set and dict iteration orders change
    with PYTHONHASHSEED; no output may follow them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
