import copy
import math

import pytest

import test_cli
from restoragent.core import (
    Degradation,
    DegradationProfile,
    Severity,
    TaskKind,
)
from restoragent.envsim import (
    DegradationPresent,
    Environment,
    FailBoost,
    InteractionRule,
    SideEffect,
    TaskInHistory,
    ToolSpec,
    UnknownTool,
    apply_tool,
    compose_failboosts,
    default_mechanistic_env,
    env_from_dict,
    env_to_dict,
    reference_calibration,
    reference_tabular_env,
)
from restoragent.harness import parse_combinations, run_batch
from restoragent.rng import substream


def _env(tools, rules=()):
    return Environment("mechanistic", list(tools), list(rules))


def test_toolspec_probability_validation():
    with pytest.raises(ValueError):
        ToolSpec("bad", TaskKind.DENOISING, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        ToolSpec("bad", TaskKind.DENOISING, 1.2, -0.2, 0.0)


def test_deterministic_full_success():
    tool = ToolSpec("denoise", TaskKind.DENOISING, 1.0, 0.0, 0.0)
    env = _env([tool])
    state = DegradationProfile({Degradation.NOISE: Severity.HIGH})
    result = apply_tool(env, state, tool, substream(0, "t"))
    assert result.severity(Degradation.NOISE) is Severity.VERY_LOW
    assert result.history == ((TaskKind.DENOISING, "denoise"),)
    # the input profile is untouched
    assert state.severity(Degradation.NOISE) is Severity.HIGH
    assert state.history == ()


def test_forced_failure_via_history_rule():
    tool = ToolSpec("derain", TaskKind.DERAINING, 1.0, 0.0, 0.0)
    rule = InteractionRule(
        TaskKind.DERAINING, TaskInHistory(TaskKind.SUPER_RESOLUTION), FailBoost(1.0)
    )
    env = _env([tool], [rule])
    state = DegradationProfile(
        {Degradation.RAIN: Severity.HIGH},
        ((TaskKind.SUPER_RESOLUTION, "sr"),),
    )
    result = apply_tool(env, state, tool, substream(0, "t"))
    assert result.severity(Degradation.RAIN) is Severity.HIGH


def test_unknown_tool_rejected():
    tool = ToolSpec("denoise", TaskKind.DENOISING, 1.0, 0.0, 0.0)
    stranger = ToolSpec("other", TaskKind.DENOISING, 1.0, 0.0, 0.0)
    env = _env([tool])
    with pytest.raises(UnknownTool):
        apply_tool(env, DegradationProfile(), stranger, substream(0, "t"))


def test_compose_failboosts_clamps_and_normalizes():
    probs = compose_failboosts((0.7, 0.2, 0.1), [0.5, 0.9])
    assert all(p >= 0 for p in probs)
    assert math.isclose(sum(probs), 1.0, abs_tol=1e-9)
    assert probs[2] > 0.99  # both boosts exhausted the success mass


def test_failboosts_compose_in_registry_order_and_other_tasks_rules_stay_unevaluated(monkeypatch):
    import restoragent.envsim as envsim

    evaluated = []

    class SpyCondition:
        def matches(self, profile):
            evaluated.append(profile)
            return True

    composed = []

    def spy_compose(probs, deltas):
        composed.append(list(deltas))
        return compose_failboosts(probs, deltas)

    monkeypatch.setattr(envsim, "compose_failboosts", spy_compose)
    dehaze = ToolSpec("dehaze", TaskKind.DEHAZING, 0.6, 0.3, 0.1)
    derain = ToolSpec("derain", TaskKind.DERAINING, 1.0, 0.0, 0.0)
    noise = InteractionRule(TaskKind.DEHAZING, DegradationPresent(Degradation.NOISE), FailBoost(0.1))
    history = InteractionRule(TaskKind.DEHAZING, TaskInHistory(TaskKind.DENOISING), FailBoost(0.7))
    spy = InteractionRule(TaskKind.DERAINING, SpyCondition(), FailBoost(0.2))
    state = DegradationProfile(
        {Degradation.HAZE: Severity.HIGH, Degradation.NOISE: Severity.MEDIUM},
        ((TaskKind.DENOISING, "dn"),),
    )
    for rules in ([noise, spy, history], [history, spy, noise]):
        env = _env([dehaze, derain], rules)
        deltas = [r.effect.delta for r in rules if r.task is TaskKind.DEHAZING]
        full, partial, _ = compose_failboosts(dehaze.probs(), deltas)
        for i in range(100):
            composed.clear()
            result = apply_tool(env, state, dehaze, substream(5, i))
            assert composed == [deltas]
            u = substream(5, i).random()
            want = (Severity.VERY_LOW if u < full
                    else Severity.LOW if u < full + partial else Severity.HIGH)
            assert result.severity(Degradation.HAZE) is want
        assert evaluated == []
        apply_tool(env, state, derain, substream(6))
        assert len(evaluated) == 1 and composed[-1] == [0.2]
        evaluated.clear()


def test_side_effect_saturates():
    tool = ToolSpec("deblur", TaskKind.MOTION_DEBLURRING, 1.0, 0.0, 0.0)
    rule = InteractionRule(
        TaskKind.MOTION_DEBLURRING,
        DegradationPresent(Degradation.JPEG_ARTIFACT, Severity.MEDIUM),
        SideEffect(Degradation.JPEG_ARTIFACT, levels=3, p=1.0),
    )
    env = _env([tool], [rule])
    state = DegradationProfile(
        {Degradation.MOTION_BLUR: Severity.HIGH, Degradation.JPEG_ARTIFACT: Severity.HIGH}
    )
    result = apply_tool(env, state, tool, substream(0, "t"))
    assert result.severity(Degradation.JPEG_ARTIFACT) is Severity.VERY_HIGH


def test_locality_of_effect():
    env = default_mechanistic_env(7)
    state = DegradationProfile(
        {Degradation.RAIN: Severity.HIGH, Degradation.LOW_LIGHT: Severity.HIGH}
    )
    tool = env.tools_for(TaskKind.DERAINING)[0]
    for i in range(50):
        result = apply_tool(env, state, tool, substream(1, i))
        for d in Degradation:
            if d is not Degradation.RAIN:
                assert result.severity(d) == state.severity(d)


def test_purity_under_fuzz():
    env = default_mechanistic_env(3)
    state = DegradationProfile(
        {Degradation.HAZE: Severity.HIGH, Degradation.NOISE: Severity.MEDIUM},
        ((TaskKind.DERAINING, "x"),),
    )
    snapshot = copy.deepcopy(state)
    for i, tool in enumerate(env.tools):
        apply_tool(env, state, tool, substream(2, i))
    assert state == snapshot


def test_determinism_same_seed_same_trace():
    env_a = default_mechanistic_env(11)
    env_b = default_mechanistic_env(11)
    state = DegradationProfile({d: Severity.HIGH for d in Degradation})
    tools = env_a.tools
    trace_a, trace_b = [], []
    for trace, env in ((trace_a, env_a), (trace_b, env_b)):
        current = state
        for step in range(100):
            tool = tools[step % len(tools)]
            current = apply_tool(env, current, tool, substream(11, "step", step))
            trace.append(tuple(sorted((d.value, s) for d, s in current.severities.items())))
    assert trace_a == trace_b


def test_substream_interleaving_independence():
    draws = {i: substream(5, "s", i).random(3).tolist() for i in range(4)}
    # Re-draw in a different interleaving order; per-substream values agree.
    for i in (2, 0, 3, 1):
        assert substream(5, "s", i).random(3).tolist() == draws[i]


def test_dehazing_fails_more_with_noise_present():
    env = default_mechanistic_env(0)
    tool = env.tools_for(TaskKind.DEHAZING)[0]
    hazy = DegradationProfile({Degradation.HAZE: Severity.HIGH})
    hazy_noisy = DegradationProfile(
        {Degradation.HAZE: Severity.HIGH, Degradation.NOISE: Severity.HIGH}
    )
    fails_plain = fails_noisy = 0
    for i in range(10_000):
        a = apply_tool(env, hazy, tool, substream(9, "pair", i))
        b = apply_tool(env, hazy_noisy, tool, substream(9, "pair", i))
        fails_plain += a.severity(Degradation.HAZE) >= Severity.MEDIUM
        fails_noisy += b.severity(Degradation.HAZE) >= Severity.MEDIUM
    assert fails_noisy > fails_plain


def test_reference_calibration_shape():
    cal = reference_calibration()
    assert len(cal.entries) == 8
    orders = [s for stats in cal.entries.values() for s in stats]
    assert len(orders) == 16
    assert sum(len(s.fail) for s in orders) == 32
    derain_first = next(
        s for s in cal.entries[frozenset({Degradation.RAIN, Degradation.HAZE})]
        if s.order[0] is TaskKind.DERAINING
    )
    assert derain_first.fail[Degradation.RAIN] == 0.05
    assert derain_first.fail[Degradation.HAZE] == 0.37
    dehaze_first = next(
        s for s in cal.entries[frozenset({Degradation.RAIN, Degradation.HAZE})]
        if s.order[0] is TaskKind.DEHAZING
    )
    assert dehaze_first.fail == {Degradation.RAIN: 0.25, Degradation.HAZE: 0.24}
    dark_noise = next(
        s for s in cal.entries[frozenset({Degradation.LOW_LIGHT, Degradation.NOISE})]
        if s.order[0] is TaskKind.DENOISING
    )
    assert dark_noise.fail[Degradation.LOW_LIGHT] == 0.22
    assert dark_noise.fail[Degradation.NOISE] == 0.43


def test_tabular_rain_haze_fail_rate_within_3_sigma():
    env = reference_tabular_env()
    tool = env.tools_for(TaskKind.DERAINING)[0]
    state = DegradationProfile(
        {Degradation.RAIN: Severity.HIGH, Degradation.HAZE: Severity.HIGH}
    )
    n = 10_000
    fails = 0
    for i in range(n):
        result = apply_tool(env, state, tool, substream(0, "tab", i))
        fails += result.severity(Degradation.RAIN) >= Severity.MEDIUM
    p = 0.05
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(fails / n - p) <= 3 * sigma


# A mechanistic env whose first tool's id looks like a tabular env's own.
TABULAR_NAMED_TOOLS = (
    ToolSpec("tabular:denoise", TaskKind.DENOISING, 1.0, 0.0, 0.0),
    ToolSpec("weak", TaskKind.DENOISING, 0.4, 0.3, 0.3),
)


def test_env_config_roundtrip():
    env = default_mechanistic_env(42)
    restored = env_from_dict(env_to_dict(env))
    assert restored.mode == env.mode
    assert restored.tools == env.tools
    assert restored.rules == env.rules

    tab = reference_tabular_env()
    restored = env_from_dict(env_to_dict(tab))
    assert restored.calibration.entries == tab.calibration.entries
    assert restored.tools == tab.tools

    named_like_tabular = _env(TABULAR_NAMED_TOOLS)
    assert env_from_dict(env_to_dict(named_like_tabular)).tools == named_like_tabular.tools


def test_an_env_config_holds_only_what_its_mode_reads():
    tab, mech = reference_tabular_env(), default_mechanistic_env(0)
    assert env_to_dict(tab).keys() == {"mode", "calibration"}
    assert env_to_dict(mech).keys() == {"mode", "tools", "rules"}
    # What env_to_dict wrote for a tabular env before it left tools out.
    assert env_from_dict({**env_to_dict(tab), "tools": []}) == tab

    # The legacy keys no simulator reads are ignored, whatever they hold.
    with_old_keys = env_to_dict(tab)
    with_old_keys["seed"] = 7
    for row in with_old_keys["calibration"]["orders"]:
        row["stated_total_pct"] = "lots"
    assert env_from_dict(with_old_keys) == tab
    assert env_from_dict({**env_to_dict(mech), "seed": 7}) == mech

    # A tabular env rejects any tools, so a CLI case that checks an outcome
    # probability must give a mechanistic env to reach that check.
    (cases,) = [m for m in test_cli.test_config_edge_cases_exit_without_traceback.pytestmark
                if m.name == "parametrize"]
    tools_elsewhere = []
    for case in cases.args[1]:
        _, config, _ = case.values
        env = config.get("environment", config) if isinstance(config, dict) else {}
        tools = env.get("tools")
        if isinstance(tools, list) and tools and env.get("mode") != "mechanistic":
            tools_elsewhere.append(case.id)
    assert tools_elsewhere == ["run-tabular-with-tools", "explore-tabular-env-with-tools"]


def test_run_batch_keeps_a_tool_named_like_a_tabular_one():
    (noise,) = parse_combinations([["noise"]])
    _, traces, _ = run_batch(_env(TABULAR_NAMED_TOOLS), None, "no-retrieval", [noise], 20, 0)
    tried = {tool for trace in traces[noise.label()] for node in trace["tree"]
             for tool in node["tools_tried"]}
    assert tried == {"tabular:denoise", "weak"}
