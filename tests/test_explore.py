import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from restoragent import explore as explore_module
from restoragent.rng import Stream
from restoragent.core import (
    DEGRADATION_FOR,
    TASK_FOR,
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
    NoTools,
    OrderStats,
    TabularCalibration,
    TaskInHistory,
    ToolSpec,
    reference_tabular_env,
)
from restoragent.explore import (
    ExplorationConfig,
    explore,
    explore_and_build_kb,
)
from restoragent.perception import PerfectOracle

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
    with pytest.raises(NoTools):
        explore(env, config)


def test_missing_tools_names_the_first_task_in_synthesis_order():
    """Not the first of a set of tasks, whose order follows the hash seed."""
    env = Environment("mechanistic", [ToolSpec("blur", T.MOTION_DEBLURRING, 1.0, 0.0, 0.0)], [])
    for combo, first in [(RAIN_HAZE, "deraining"),
                         (DegradationCombination("custom", (D.HAZE, D.RAIN)), "dehazing")]:
        config = ExplorationConfig(combinations=[combo], samples_per_combination=1,
                                   trials_per_sample=1)
        with pytest.raises(NoTools, match=f"^no tools for '{first}'$"):
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


# --- the tabular fast path --------------------------------------------------

RAIN_NOISE_LOWRES = DegradationCombination("C", (D.RAIN, D.NOISE, D.LOW_RESOLUTION))


def tabular_env(rows) -> Environment:
    calibration = TabularCalibration()
    for order, fail in rows:
        calibration.add(OrderStats(order, fail))
    return Environment("tabular", calibration=calibration)


def three_task_env() -> Environment:
    """Certain and impossible steps, and orders whose prefix matches no row,
    so that their rates fall back to the marginal across orders."""
    return tabular_env([
        ((T.DERAINING, T.DENOISING, T.SUPER_RESOLUTION),
         {D.RAIN: 0.0, D.NOISE: 1.0, D.LOW_RESOLUTION: 0.3}),
        ((T.DENOISING, T.DERAINING, T.SUPER_RESOLUTION),
         {D.RAIN: 0.5, D.NOISE: 0.2, D.LOW_RESOLUTION: 1.0}),
    ])


def certain_env() -> Environment:
    """Every step of every rain + haze order succeeds or fails for sure."""
    return tabular_env([
        ((T.DERAINING, T.DEHAZING), {D.RAIN: 0.0, D.HAZE: 1.0}),
        ((T.DEHAZING, T.DERAINING), {D.RAIN: 1.0, D.HAZE: 0.0}),
    ])


class GeneralLoopOracle(PerfectOracle):
    """The perfect oracle under another type, which explore does not
    memoise: every trial applies every step."""


@pytest.mark.parametrize("threshold", [Severity.VERY_LOW, Severity.LOW], ids=["very-low", "low"])
@pytest.mark.parametrize(
    "env, combinations",
    [
        pytest.param(reference_tabular_env(), combinations_in_group("A"), id="reference"),
        pytest.param(three_task_env(), [RAIN_NOISE_LOWRES], id="three-task"),
    ],
)
def test_the_tabular_fast_path_gives_the_trials_of_the_general_loop(env, combinations, threshold):
    config = ExplorationConfig(combinations=combinations, samples_per_combination=2,
                               trials_per_sample=40, success_threshold=threshold, seed=11)
    fast = explore(env, config, PerfectOracle())
    general = explore(env, config, GeneralLoopOracle())
    assert fast == general
    # Neither every flag true nor every flag false: both kinds of step occur.
    assert len({ok for _, _, flags in fast for ok in flags.values()}) == 2


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("trials", [1, 7])
def test_a_memoised_trial_takes_one_substream_and_no_child_stream(monkeypatch, trials):
    substreams = _count_calls(monkeypatch, explore_module, "substream")
    children = _count_calls(monkeypatch, Stream, "child")
    config = ExplorationConfig(samples_per_combination=2, trials_per_sample=trials)
    n_trials = 8 * 2 * 2 * trials  # group A: 8 combinations of 2 orders
    assert len(explore(reference_tabular_env(), config)) == n_trials
    assert len(substreams) == n_trials and children == []
    # The general loop still draws from one child stream per trial.
    del substreams[:]
    assert len(explore(reference_tabular_env(), config, GeneralLoopOracle())) == n_trials
    assert substreams == [] and len(children) == n_trials


@pytest.mark.parametrize("trials", [1, 500])
def test_the_fast_path_walks_one_path_whatever_the_trial_count(monkeypatch, trials):
    calls = _count_calls(monkeypatch, explore_module, "apply_tool")
    config = ExplorationConfig(combinations=[RAIN_HAZE], samples_per_combination=3,
                               trials_per_sample=trials)
    assert len(explore(certain_env(), config)) == 3 * 2 * trials
    # One walk of two steps, shared by both orders and the three samples.
    assert len(calls) == 2
    explore(certain_env(), config, GeneralLoopOracle())
    assert len(calls) == 2 + 3 * 2 * 2 * trials


def test_the_fast_path_walks_each_combination_once(monkeypatch):
    calls = _count_calls(monkeypatch, explore_module, "apply_tool")
    config = ExplorationConfig(samples_per_combination=2, trials_per_sample=500)
    explore(reference_tabular_env(), config)
    # 8 combinations, each walked once along its 2 steps.
    assert len(calls) == 8 * 2


def test_the_default_config_walks_each_combination_once(monkeypatch):
    calls = _count_calls(monkeypatch, explore_module, "apply_tool")
    assert len(explore(reference_tabular_env(), ExplorationConfig())) == 8 * 2 * 20 * 25
    assert len(calls) == 8 * 2


@pytest.mark.parametrize("samples, trials", [(1, 1), (3, 40)])
@pytest.mark.parametrize(
    "make_env, combination, n",
    [
        pytest.param(reference_tabular_env, RAIN_HAZE, 2, id="rain-haze"),
        pytest.param(three_task_env, RAIN_NOISE_LOWRES, 3, id="three-task"),
    ],
)
def test_the_fast_path_reads_each_rate_once(monkeypatch, make_env, combination, n,
                                            samples, trials):
    env = make_env()
    calls = _count_calls(monkeypatch, TabularCalibration, "fail_prob")
    config = ExplorationConfig(combinations=[combination], samples_per_combination=samples,
                               trials_per_sample=trials)
    explore(env, config)
    # n * n! rates at the orders' prefixes, plus the walk's n.
    assert len(calls) == n * math.factorial(n) + n
    # The env keeps the rates: a second call reads only the walk's n.
    explore(env, config)
    assert len(calls) == n * math.factorial(n) + 2 * n


def test_the_fast_path_builds_one_initial_profile_per_combination(monkeypatch):
    calls = _count_calls(monkeypatch, explore_module, "initial_profile")
    config = ExplorationConfig(combinations=[RAIN_HAZE], samples_per_combination=3,
                               trials_per_sample=2)
    explore(reference_tabular_env(), config)
    # The path's start only: the samples share it.
    assert calls == [(RAIN_HAZE, 0)]
    explore(reference_tabular_env(), config, GeneralLoopOracle())
    assert calls == [(RAIN_HAZE, 0)] + [(RAIN_HAZE, si) for si in range(3)]


def test_a_tabular_step_that_draws_twice_fails_loudly(monkeypatch):
    original = explore_module.apply_tool

    def draws_twice(env, state, tool, rng):
        rng.random()
        return original(env, state, tool, rng)

    monkeypatch.setattr(explore_module, "apply_tool", draws_twice)
    config = ExplorationConfig(combinations=[RAIN_HAZE], samples_per_combination=1,
                               trials_per_sample=1)
    with pytest.raises(RuntimeError, match="drew more than once"):
        explore(reference_tabular_env(), config)


def test_the_kept_table_is_copied_per_trial_and_kept_per_env():
    config = ExplorationConfig(combinations=[RAIN_HAZE], samples_per_combination=2,
                               trials_per_sample=5, seed=3)
    env = reference_tabular_env()
    first = explore(env, config)
    expected = explore(reference_tabular_env(), config)
    for _, _, flags in first:
        flags.clear()
    assert explore(env, config) == expected
    # Two envs on one combination, alternately: neither reads the other's table.
    certain, reference = certain_env(), reference_tabular_env()
    certain_trials = explore(certain_env(), config)
    assert certain_trials != expected
    for _ in range(2):
        assert explore(certain, config) == certain_trials
        assert explore(reference, config) == expected


def test_the_kept_flags_follow_the_walk(monkeypatch):
    """The kept flags are keyed by what the walk judged, so an oracle that
    judges otherwise on a later call gets flags of its own."""
    config = ExplorationConfig(combinations=[RAIN_HAZE], samples_per_combination=1,
                               trials_per_sample=20)
    env = reference_tabular_env()
    assert any(ok for _, _, flags in explore(env, config) for ok in flags.values())

    def assess(self, profile, degradations, rng=None):
        return [Severity.HIGH] * len(degradations)

    monkeypatch.setattr(PerfectOracle, "assess", assess)
    trials = explore(env, config)
    assert trials == explore(env, config, GeneralLoopOracle())
    assert not any(ok for _, _, flags in trials for ok in flags.values())


# --- random calibrations ----------------------------------------------------

_RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _calibrated_combinations(draw):
    """One or two combinations of one to three degradations, each with a
    random subset of its orders recorded at random rates.  An order left out
    falls back to the marginal rate, a mixture with no row to 0.0."""
    combinations = []
    calibration = TabularCalibration()
    keys = draw(st.lists(
        st.lists(st.sampled_from(list(Degradation)), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=2, unique_by=frozenset,
    ))
    for degradations in keys:
        combinations.append(DegradationCombination("custom", tuple(degradations)))
        orders = list(itertools.permutations(TASK_FOR[d] for d in degradations))
        for order in draw(st.lists(st.sampled_from(orders), unique=True)):
            calibration.add(OrderStats(order, {DEGRADATION_FOR[t]: draw(_RATES) for t in order}))
    return Environment("tabular", calibration=calibration), combinations


@settings(max_examples=100, deadline=None)
@given(
    env_and_combinations=_calibrated_combinations(),
    samples=st.integers(1, 3),
    trials=st.integers(1, 12),
    threshold=st.sampled_from([Severity.VERY_LOW, Severity.LOW]),
    seed=st.integers(0, 2**32),
)
def test_the_fast_path_gives_the_trials_of_the_general_loop(
    env_and_combinations, samples, trials, threshold, seed
):
    env, combinations = env_and_combinations
    config = ExplorationConfig(combinations=combinations, samples_per_combination=samples,
                               trials_per_sample=trials, success_threshold=threshold, seed=seed)
    fast = explore(env, config, PerfectOracle())
    general = explore(env, config, GeneralLoopOracle())
    assert fast == general
    # Flags in synthesis order on both paths, not only equal as dicts.
    assert [list(flags) for _, _, flags in fast] == [list(flags) for _, _, flags in general]
    # A second call on the same env reads the kept table: it must give what a
    # fresh env over the same calibration gives, at another threshold too.
    other = Severity.LOW if threshold is Severity.VERY_LOW else Severity.VERY_LOW
    again = ExplorationConfig(combinations=combinations, samples_per_combination=samples,
                              trials_per_sample=trials, success_threshold=other, seed=seed + 1)
    fresh = Environment("tabular", calibration=env.calibration)
    assert explore(env, again) == explore(fresh, again)
