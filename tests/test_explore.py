import os
import subprocess
import sys
from pathlib import Path

import pytest

from restoragent.core import (
    Degradation,
    DegradationCombination,
    Severity,
    TaskKind,
    combinations_in_group,
)
from restoragent.envsim import (
    Environment,
    FailBoost,
    InteractionRule,
    TaskInHistory,
    ToolSpec,
)
from restoragent.explore import (
    ExplorationConfig,
    MissingTools,
    explore,
    explore_and_build_kb,
)

D = Degradation
T = TaskKind

RAIN_HAZE = next(
    c for c in combinations_in_group("A") if c.key == frozenset({D.RAIN, D.HAZE})
)


def order_sensitive_env():
    return Environment(
        "mechanistic",
        [
            ToolSpec("derain", T.DERAINING, 1.0, 0.0, 0.0),
            ToolSpec("dehaze", T.DEHAZING, 1.0, 0.0, 0.0),
        ],
        [InteractionRule(T.DEHAZING, TaskInHistory(T.DERAINING), FailBoost(1.0))],
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ExplorationConfig(samples_per_combination=0)
    with pytest.raises(ValueError):
        ExplorationConfig(trials_per_sample=0)
    with pytest.raises(ValueError):
        ExplorationConfig(success_threshold=Severity.HIGH)


def test_missing_tools_detected():
    env = Environment(
        "mechanistic", [ToolSpec("derain", T.DERAINING, 1.0, 0.0, 0.0)], []
    )
    config = ExplorationConfig(combinations=[RAIN_HAZE], samples_per_combination=1,
                               trials_per_sample=1)
    with pytest.raises(MissingTools):
        explore(env, config)


def test_missing_tools_names_the_first_task_in_synthesis_order():
    """Not the first of a set of tasks, whose order follows memory addresses."""
    env = Environment("mechanistic", [ToolSpec("blur", T.MOTION_DEBLURRING, 1.0, 0.0, 0.0)], [])
    for combo, first in [(RAIN_HAZE, "deraining"),
                         (DegradationCombination("custom", (D.HAZE, D.RAIN)), "dehazing")]:
        config = ExplorationConfig(combinations=[combo], samples_per_combination=1,
                                   trials_per_sample=1)
        with pytest.raises(MissingTools, match=f"^no tools for '{first}'$"):
            explore(env, config)


def test_explore_shape_and_determinism():
    config = ExplorationConfig(
        combinations=[RAIN_HAZE], samples_per_combination=2, trials_per_sample=3, seed=5
    )
    env = order_sensitive_env()
    trials = explore(env, config)
    # 2 permutations x 2 samples x 3 trials
    assert len(trials) == 12
    for combo_key, order, flags in trials:
        assert combo_key == RAIN_HAZE.key
        assert set(order) == {T.DERAINING, T.DEHAZING}
        assert set(flags) == {T.DERAINING, T.DEHAZING}
    assert explore(env, config) == trials


def test_explore_recovers_order_asymmetry():
    config = ExplorationConfig(
        combinations=[RAIN_HAZE], samples_per_combination=2, trials_per_sample=5
    )
    trials = explore(order_sensitive_env(), config)
    for combo_key, order, flags in trials:
        if order[0] is T.DERAINING:
            assert flags[T.DERAINING] and not flags[T.DEHAZING]
        else:
            assert flags[T.DERAINING] and flags[T.DEHAZING]


def test_explore_and_build_kb_distills_rule():
    config = ExplorationConfig(
        combinations=[RAIN_HAZE], samples_per_combination=2, trials_per_sample=5
    )
    kb = explore_and_build_kb(order_sensitive_env(), config)
    assert len(kb.records) == 2
    by_first = {r.order[0]: r for r in kb.records}
    assert by_first[T.DEHAZING].total_fail == 0.0
    assert by_first[T.DERAINING].total_fail == pytest.approx(0.5)
    strict = {(r.before, r.after) for r in kb.rules if not r.indifferent}
    assert strict == {(T.DEHAZING, T.DERAINING)}
    assert "self-exploration" in kb.provenance
    assert "seed 0" in kb.provenance


def test_explore_default_config_covers_group_a():
    config = ExplorationConfig(samples_per_combination=1, trials_per_sample=1)
    assert len(config.combinations) == 8
    assert config.success_threshold is Severity.LOW


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_explore_digest_does_not_depend_on_the_hash_seed(hash_seed):
    """Set and dict iteration order over enums or strings must not reach an
    output: the pinned explore digest holds under two hash seeds."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import test_digests; test_digests.test_explore_digest()"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
