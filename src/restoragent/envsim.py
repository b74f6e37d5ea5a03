"""Simulated restoration environment.

Tools are stochastic operators on DegradationProfiles.  Two calibration
modes exist: a mechanistic mode built from per-tool outcome distributions
plus order-dependent interaction rules, and a tabular mode that replays
published per-order fail statistics directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ANY_JSON,
    DEGRADATION_FOR,
    LOW,
    MEDIUM,
    VERY_LOW,
    Degradation,
    DegradationProfile,
    Severity,
    TaskKind,
    at_path,
    check_probability,
    member_of,
    read_field,
    read_object,
)

_PROB_TOL = 1e-9


class NoTools(ValueError):
    """No tool is available for the requested subtask."""


@dataclass(frozen=True)
class ToolSpec:
    """A stochastic operator addressing one task."""

    id: str
    task: TaskKind
    p_full: float
    p_partial: float
    p_none: float

    def __post_init__(self):
        for outcome, p in zip(("full", "partial", "none"), self.probs()):
            check_probability("%s outcome probability of %r", p, outcome, self.id)
        total = self.p_full + self.p_partial + self.p_none
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"outcome probabilities of {self.id!r} sum to {total}, not 1")

    def probs(self) -> tuple:
        return (self.p_full, self.p_partial, self.p_none)


# --- interaction rule conditions -------------------------------------------


@dataclass(frozen=True)
class DegradationPresent:
    degradation: Degradation
    min_severity: Severity = MEDIUM

    def matches(self, profile: DegradationProfile) -> bool:
        return profile.severity(self.degradation) >= self.min_severity


@dataclass(frozen=True)
class TaskInHistory:
    task: TaskKind

    def matches(self, profile: DegradationProfile) -> bool:
        return any(task == self.task for task, _ in profile.history)


# --- interaction rule effects ----------------------------------------------


@dataclass(frozen=True)
class FailBoost:
    """Moves probability mass from the success outcomes to no effect."""

    delta: float

    def __post_init__(self):
        check_probability("FailBoost delta", self.delta)


@dataclass(frozen=True)
class SideEffect:
    """With probability p, raises another degradation by some levels."""

    degradation: Degradation
    levels: int = 1
    p: float = 1.0

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("SideEffect must raise severity by at least one level")
        check_probability("SideEffect probability", self.p)


@dataclass(frozen=True)
class InteractionRule:
    task: TaskKind  # the affected task
    condition: object  # DegradationPresent | TaskInHistory
    effect: object  # FailBoost | SideEffect


def compose_failboosts(probs: tuple, deltas) -> tuple:
    """Apply FailBoost deltas in order; clamp at zero and renormalize.

    Each delta moves mass from full/partial success (proportionally to
    their current mass) onto no effect.
    """
    full, partial, none = probs
    for delta in deltas:
        success = full + partial
        moved = min(delta, success)
        if success > 0:
            full -= moved * full / success
            partial -= moved * partial / success
        none += moved
    total = full + partial + none
    return (full / total, partial / total, none / total)


# --- tabular calibration ----------------------------------------------------


@dataclass(frozen=True)
class OrderStats:
    """Per-degradation fail probabilities for one execution order."""

    order: tuple  # (TaskKind, ...)
    fail: dict  # Degradation -> probability

    def __post_init__(self):
        if not self.order or len(set(self.order)) != len(self.order):
            raise ValueError(f"order {list(map(str, self.order))} is empty or repeats a task")
        if set(self.fail) != {DEGRADATION_FOR[t] for t in self.order}:
            raise ValueError(f"fail rates of order {list(map(str, self.order))} "
                             "must name exactly its degradations")
        for degradation, p in self.fail.items():
            check_probability("fail probability of %s", p, degradation)


@dataclass(frozen=True)
class TabularCalibration:
    """Fail statistics, one row per execution order; ``rows`` is kept sorted
    by degradation set, each set's rows in the order they were given."""

    rows: tuple  # (OrderStats, ...)

    def __post_init__(self):
        rows = tuple(sorted(self.rows, key=lambda stats: sorted(stats.fail)))  # stable
        entries = {}  # frozenset[Degradation] -> [OrderStats], as fail_prob reads them
        for stats in rows:
            orders = entries.setdefault(frozenset(stats.fail), [])
            if any(row.order == stats.order for row in orders):
                raise ValueError(f"order {list(map(str, stats.order))} is given twice")
            orders.append(stats)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_explored", {})  # combination degradations -> explore's table

    def fail_prob(self, combo_key: frozenset, prefix: tuple) -> float:
        """Fail probability of the last task in ``prefix`` under this order.

        Falls back to the marginal mean across orders when the attempted
        prefix matches no recorded order, and to 0 for unknown mixtures.
        """
        degradation = DEGRADATION_FOR[prefix[-1]]
        orders = self.entries.get(frozenset(combo_key))
        if not orders:
            return 0.0
        for stats in orders:
            if stats.order[: len(prefix)] == prefix:
                return stats.fail[degradation]
        marginal = [s.fail[degradation] for s in orders if degradation in s.fail]
        if marginal:
            return sum(marginal) / len(marginal)
        return 0.0


def reference_calibration() -> TabularCalibration:
    """Published group-A fail statistics: 8 mixtures x 2 orders."""
    T = TaskKind
    D = Degradation
    rows = [
        # (order, {degradation: fail prob})
        ((T.DENOISING, T.BRIGHTENING), {D.LOW_LIGHT: 0.22, D.NOISE: 0.43}),
        ((T.BRIGHTENING, T.DENOISING), {D.LOW_LIGHT: 0.28, D.NOISE: 0.42}),
        ((T.DEFOCUS_DEBLURRING, T.DEHAZING), {D.DEFOCUS_BLUR: 0.00, D.HAZE: 0.36}),
        ((T.DEHAZING, T.DEFOCUS_DEBLURRING), {D.DEFOCUS_BLUR: 0.00, D.HAZE: 0.40}),
        ((T.JPEG_ARTIFACT_REMOVAL, T.DEFOCUS_DEBLURRING),
         {D.DEFOCUS_BLUR: 0.10, D.JPEG_ARTIFACT: 0.31}),
        ((T.DEFOCUS_DEBLURRING, T.JPEG_ARTIFACT_REMOVAL),
         {D.DEFOCUS_BLUR: 0.08, D.JPEG_ARTIFACT: 0.48}),
        ((T.MOTION_DEBLURRING, T.BRIGHTENING), {D.MOTION_BLUR: 0.22, D.LOW_LIGHT: 0.25}),
        ((T.BRIGHTENING, T.MOTION_DEBLURRING), {D.MOTION_BLUR: 0.28, D.LOW_LIGHT: 0.25}),
        ((T.MOTION_DEBLURRING, T.SUPER_RESOLUTION),
         {D.MOTION_BLUR: 0.23, D.LOW_RESOLUTION: 0.09}),
        ((T.SUPER_RESOLUTION, T.MOTION_DEBLURRING),
         {D.MOTION_BLUR: 0.31, D.LOW_RESOLUTION: 0.06}),
        ((T.DENOISING, T.JPEG_ARTIFACT_REMOVAL), {D.NOISE: 0.38, D.JPEG_ARTIFACT: 0.13}),
        ((T.JPEG_ARTIFACT_REMOVAL, T.DENOISING), {D.NOISE: 0.38, D.JPEG_ARTIFACT: 0.14}),
        ((T.DERAINING, T.DEHAZING), {D.RAIN: 0.05, D.HAZE: 0.37}),
        ((T.DEHAZING, T.DERAINING), {D.RAIN: 0.25, D.HAZE: 0.24}),
        ((T.DERAINING, T.SUPER_RESOLUTION), {D.RAIN: 0.26, D.LOW_RESOLUTION: 0.02}),
        ((T.SUPER_RESOLUTION, T.DERAINING), {D.RAIN: 0.63, D.LOW_RESOLUTION: 0.00}),
    ]
    return TabularCalibration(tuple(OrderStats(order, fail) for order, fail in rows))


# --- environment ------------------------------------------------------------

#: A tabular environment's tools: one always-applying tool per task, whose
#: outcome the calibration decides.  A config gives a tabular env no tools.
_TABULAR_TOOLS = tuple(
    ToolSpec(f"tabular:{task}", task, 1.0, 0.0, 0.0) for task in TaskKind
)


@dataclass(frozen=True)
class Environment:
    """A value whose tools and rules are tuples (a list given is stored as
    one); apply_tool is reentrant given distinct streams.  A tabular env
    reads only its calibration, and its tools are _TABULAR_TOOLS."""

    mode: str  # "mechanistic" | "tabular"
    tools: tuple = ()  # (ToolSpec, ...)
    rules: tuple = ()  # (InteractionRule, ...)
    calibration: TabularCalibration | None = None

    def __post_init__(self):
        if self.mode not in ("mechanistic", "tabular"):
            raise ValueError(f"unknown environment mode: {self.mode!r}")
        if self.mode == "tabular":
            if self.calibration is None:
                raise ValueError("tabular environment requires a calibration")
            if self.rules:
                raise ValueError("a tabular environment reads no interaction rules")
            if self.tools:
                raise ValueError("a tabular environment takes no tools")
        elif self.calibration is not None:
            raise ValueError("a mechanistic environment reads no calibration")
        tools = _TABULAR_TOOLS if self.mode == "tabular" else tuple(self.tools)
        ids = [tool.id for tool in tools]
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            # apply_tool looks a tool up by id, so one id must name one tool.
            raise ValueError(f"tool ids given more than once: {repeated}")
        by_task = {}
        for tool in tools:
            by_task[tool.task] = by_task.get(tool.task, ()) + (tool,)
        object.__setattr__(self, "tools", tools)
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "_by_id", {tool.id: tool for tool in tools})
        object.__setattr__(self, "_by_task", by_task)

    def tools_for(self, task: TaskKind) -> tuple:
        """The task's tools in registry order."""
        return self._by_task.get(task, ())

    def tool(self, tool_id: str) -> ToolSpec:
        """The tool of this id; a KeyError for a tool of another environment."""
        return self._by_id[tool_id]


def tabular_fail_prob(env: Environment, state: DegradationProfile, tool: ToolSpec) -> float:
    """The probability that ``tool`` fails on ``state`` in a tabular env."""
    # The mixture: what is still present plus what the history addressed.
    hist = state.tasks_in_history()
    combo = state.present().union(map(DEGRADATION_FOR.__getitem__, hist))
    if tool.task in hist:
        # Retry of an already-attempted task: same position as before.
        prefix = hist[: hist.index(tool.task) + 1]
    else:
        prefix = hist + (tool.task,)
    return env.calibration.fail_prob(combo, prefix)


def apply_tool(
    env: Environment,
    state: DegradationProfile,
    tool: ToolSpec,
    rng,
) -> DegradationProfile:
    """Apply one tool; returns a new profile, never mutating the input."""
    tool = env.tool(tool.id)
    target = DEGRADATION_FOR[tool.task]

    if env.mode == "tabular":
        p_fail = tabular_fail_prob(env, state, tool)
        if rng.random() >= p_fail:
            state = state.with_severity(target, VERY_LOW)
        return state.with_history_entry(tool.task, tool.id)

    matching = [r for r in env.rules if r.task == tool.task and r.condition.matches(state)]
    deltas = [r.effect.delta for r in matching if isinstance(r.effect, FailBoost)]
    full, partial, _ = compose_failboosts(tool.probs(), deltas)
    draw = rng.random()
    result = state
    if draw < full:
        result = state.with_severity(target, VERY_LOW)
    elif draw < full + partial and state.severity(target) > LOW:
        result = state.with_severity(target, LOW)
    for rule in matching:
        effect = rule.effect
        if isinstance(effect, SideEffect) and rng.random() < effect.p:
            current = result.severity(effect.degradation)
            result = result.with_severity(effect.degradation, current.raised(effect.levels))
    return result.with_history_entry(tool.task, tool.id)


def default_mechanistic_env(seed: int = 0) -> Environment:
    """A hand-built environment with nontrivial order structure.

    Every task has a strong and a weak tool; interactions: dehazing is
    hampered by present noise, deraining is hampered once super-resolution
    ran, and motion deblurring can worsen compression artifacts.  ``seed``
    is ignored; it stays because the benchmark passes it, until ROADMAP
    item 1 rewrites the benchmark.
    """
    tools = []
    for task in TaskKind:
        name = task.replace(" ", "-")
        tools.append(ToolSpec(f"{name}:strong", task, 0.75, 0.20, 0.05))
        tools.append(ToolSpec(f"{name}:weak", task, 0.40, 0.30, 0.30))
    rules = [
        InteractionRule(
            TaskKind.DEHAZING,
            DegradationPresent(Degradation.NOISE, Severity.MEDIUM),
            FailBoost(0.5),
        ),
        InteractionRule(
            TaskKind.DERAINING,
            TaskInHistory(TaskKind.SUPER_RESOLUTION),
            FailBoost(0.6),
        ),
        InteractionRule(
            TaskKind.MOTION_DEBLURRING,
            DegradationPresent(Degradation.JPEG_ARTIFACT, Severity.MEDIUM),
            SideEffect(Degradation.JPEG_ARTIFACT, levels=1, p=0.5),
        ),
    ]
    return Environment("mechanistic", tools, rules)


def reference_tabular_env() -> Environment:
    """Tabular environment replaying the published group-A statistics."""
    return Environment("tabular", calibration=reference_calibration())


# --- JSON configuration -----------------------------------------------------


def _condition_to_dict(condition) -> dict:
    if isinstance(condition, DegradationPresent):
        return {
            "kind": "degradation-present",
            "degradation": condition.degradation,
            "min_severity": condition.min_severity.label,
        }
    return {"kind": "task-in-history", "task": condition.task}


def _condition_from_dict(data: dict, where: str):
    kind = read_field(data, "kind", str, where)
    with at_path(where):
        if kind == "degradation-present":
            _, degradation, label = read_object(
                data, {"kind": str, "degradation": Degradation, "min_severity": str}, where,
                min_severity="medium")
            return DegradationPresent(degradation, Severity.from_label(label))
        if kind == "task-in-history":
            _, task = read_object(data, {"kind": str, "task": TaskKind}, where)
            return TaskInHistory(task)
        raise ValueError(f"unknown condition kind: {kind!r}")


def _effect_to_dict(effect) -> dict:
    if isinstance(effect, FailBoost):
        return {"kind": "fail-boost", "delta": effect.delta}
    return {
        "kind": "side-effect",
        "degradation": effect.degradation,
        "levels": effect.levels,
        "p": effect.p,
    }


def _effect_from_dict(data: dict, where: str):
    kind = read_field(data, "kind", str, where)
    with at_path(where):
        if kind == "fail-boost":
            _, delta = read_object(data, {"kind": str, "delta": (int, float)}, where)
            return FailBoost(delta)
        if kind == "side-effect":
            _, degradation, levels, p = read_object(
                data, {"kind": str, "degradation": Degradation, "levels": int, "p": (int, float)},
                where, levels=1, p=1.0)
            return SideEffect(degradation, levels, p)
        raise ValueError(f"unknown effect kind: {kind!r}")


def env_to_dict(env: Environment) -> dict:
    """Only the keys the env's mode reads."""
    if env.mode == "tabular":
        return {"mode": env.mode, "calibration": calibration_to_dict(env.calibration)}
    return {
        "mode": env.mode,
        "tools": [
            {
                "id": t.id,
                "task": t.task,
                "outcome": {"full": t.p_full, "partial": t.p_partial, "none": t.p_none},
            }
            for t in env.tools
        ],
        "rules": [
            {
                "task": r.task,
                "condition": _condition_to_dict(r.condition),
                "effect": _effect_to_dict(r.effect),
            }
            for r in env.rules
        ],
    }


def env_from_dict(data, root: str = "") -> Environment:
    """The environment a config describes at the path ``root``; a key it does
    not read is a SchemaError, except the legacy top-level ``seed``, which is
    ignored."""
    mode, tool_rows, rule_rows, calibration, _ = read_object(
        data, {"mode": str, "tools": list, "rules": list, "calibration": dict, "seed": ANY_JSON},
        root, tools=(), rules=(), calibration=None, seed=None)
    prefix = f"{root}." if root else ""
    tools = []
    for i, row in enumerate(tool_rows):
        where = f"{prefix}tools[{i}]"
        tool_id, task, outcome = read_object(
            row, {"id": str, "task": TaskKind, "outcome": dict}, where)
        probs = read_object(
            outcome, dict.fromkeys(("full", "partial", "none"), (int, float)), f"{where}.outcome")
        with at_path(where):
            tools.append(ToolSpec(tool_id, task, *probs))
    rules = []
    for i, row in enumerate(rule_rows):
        where = f"{prefix}rules[{i}]"
        task, condition, effect = read_object(
            row, {"task": TaskKind, "condition": dict, "effect": dict}, where)
        rules.append(InteractionRule(task, _condition_from_dict(condition, f"{where}.condition"),
                                     _effect_from_dict(effect, f"{where}.effect")))
    if calibration is not None:
        calibration = calibration_from_dict(calibration, f"{prefix}calibration")
    return Environment(mode, tools, rules, calibration)


def calibration_to_dict(calibration: TabularCalibration) -> dict:
    return {"orders": [{"order": list(stats.order), "fail": dict(sorted(stats.fail.items()))}
                       for stats in calibration.rows]}


def calibration_from_dict(data, root: str = "calibration") -> TabularCalibration:
    """The calibration at the path ``root``.  A row's legacy
    ``stated_total_pct`` is ignored; any other key the calibration does not
    read is a SchemaError."""
    (rows,) = read_object(data, {"orders": list}, root, orders=())
    given = {}  # order -> OrderStats, in row order
    fields = {"order": list, "fail": dict, "stated_total_pct": ANY_JSON}
    for i, row in enumerate(rows):
        where = f"{root}.orders[{i}]"
        order, fail, _ = read_object(row, fields, where, stated_total_pct=None)
        with at_path(where):
            stats = OrderStats(
                tuple(member_of(TaskKind, t, f"{where}.order[{j}]") for j, t in enumerate(order)),
                {member_of(Degradation, d, f"{where}.fail"): p for d, p in fail.items()},
            )
            if stats.order in given:  # named here, where the row's path is known
                raise ValueError(f"order {list(map(str, stats.order))} is given twice")
            given[stats.order] = stats
    return TabularCalibration(tuple(given.values()))
