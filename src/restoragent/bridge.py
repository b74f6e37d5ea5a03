"""External LLM/VLM backends over a generic HTTP completion contract,
plus an offline replay stub keyed by prompt hash."""

from __future__ import annotations

import hashlib
import http.client
import json
import urllib.error
import urllib.request
from dataclasses import dataclass

from .core import Severity, TaskKind, degradation_for
from .knowledge import render_experience_text


class BridgeError(RuntimeError):
    pass


class Transport(BridgeError):
    pass


class Timeout(Transport):
    pass


class MalformedResponse(BridgeError):
    pass


class InvalidPermutation(BridgeError):
    pass


SEVERITY_PROMPT = (
    "What's the severity of {degradation} in this image? Answer the question "
    "using a single word or phrase in the followings: very low, low, medium, "
    "high, very high."
)

SCHEDULE_PROMPT = (
    "There's an image suffering from degradations {degradations}. We will "
    "invoke dedicated tools to address these degradations, i.e., we will "
    "conduct these tasks: {agenda}. Now we need to determine the order of "
    "these unordered tasks. For your information, based on past trials, we "
    "have the following experience:\n"
    "{experience}\n"
    "Based on this experience, please give the correct order of the tasks. "
    'Your output must be a JSON object with two fields: "thought" and '
    '"order", where "order" must be a permutation of {agenda} in the order '
    "you determine."
)

FAILED_TRIES_SUFFIX = (
    " Besides, in attempts just now, we found the result is unsatisfactory if "
    "{failed_tries} is conducted first. Remember not to arrange "
    "{failed_tries} in the first place."
)

COMPARE_PROMPT = (
    "Which of the two images, Image A or Image B, do you consider to be of "
    "better quality? Answer the question using a single word or phrase."
)


@dataclass
class BridgeConfig:
    endpoint: str = ""
    timeout: float = 30.0
    max_retries: int = 2
    replay_file: str | None = None


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ReplayTransport:
    """Canned responses keyed by prompt hash; never touches the network."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            self.responses = json.load(fh)

    def complete(self, prompt: str) -> str:
        key = prompt_key(prompt)
        if key not in self.responses:
            raise MalformedResponse(f"no replay entry for prompt hash {key}")
        return self.responses[key]


class HttpTransport:
    """POST {prompt} -> {text} against a chat-completion gateway."""

    def __init__(self, cfg: BridgeConfig):
        self.cfg = cfg

    def complete(self, prompt: str) -> str:
        request = urllib.request.Request(
            self.cfg.endpoint,
            data=json.dumps({"prompt": prompt}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.cfg.timeout) as response:
                body = response.read()
        except TimeoutError as exc:
            raise Timeout(str(exc)) from exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise Timeout(str(exc)) from exc
            raise Transport(str(exc)) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise Transport(str(exc)) from exc
        try:
            return json.loads(body)["text"]
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponse(f"bad completion payload: {exc}") from exc


def make_transport(cfg: BridgeConfig):
    if cfg.replay_file:
        return ReplayTransport(cfg.replay_file)
    if not cfg.endpoint:
        raise ValueError("bridge needs an endpoint or a replay file")
    return HttpTransport(cfg)


def build_schedule_prompt(degradations, agenda, experience_text, failed_tries=()) -> str:
    """Byte-stable scheduling prompt for fixed inputs."""
    degradation_list = list(degradations)
    agenda_list = [t.value if isinstance(t, TaskKind) else str(t) for t in agenda]
    prompt = SCHEDULE_PROMPT.format(
        degradations=degradation_list,
        agenda=agenda_list,
        experience=experience_text,
    )
    failed = [t.value if isinstance(t, TaskKind) else str(t) for t in failed_tries]
    if failed:
        prompt += FAILED_TRIES_SUFFIX.format(failed_tries=failed)
    return prompt


def build_severity_prompt(degradation) -> str:
    name = getattr(degradation, "value", degradation)
    return SEVERITY_PROMPT.format(degradation=name)


def _parse_order(text: str, agenda_names: list, failed: set) -> tuple:
    try:
        payload = json.loads(text)
        order = payload["order"]
        thought = payload.get("thought", "")
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedResponse(f"cannot parse scheduling response: {exc}") from exc
    if not isinstance(order, list) or sorted(order) != sorted(agenda_names):
        raise InvalidPermutation(f"'order' is not a permutation of the agenda: {order!r}")
    if order and order[0] in failed:
        raise InvalidPermutation(f"first task {order[0]!r} is a banned prior attempt")
    return tuple(TaskKind(name) for name in order), thought


def remote_schedule(cfg: BridgeConfig, degradations, agenda, experience_text, failed_tries=()):
    """Returns (plan, thought); validates and retries before giving up."""
    transport = make_transport(cfg)
    agenda_names = [t.value if isinstance(t, TaskKind) else str(t) for t in agenda]
    failed = {t.value if isinstance(t, TaskKind) else str(t) for t in failed_tries}
    prompt = build_schedule_prompt(degradations, agenda, experience_text, failed_tries)
    last_error = None
    for _ in range(cfg.max_retries + 1):
        text = transport.complete(prompt)
        try:
            return _parse_order(text, agenda_names, failed)
        except (MalformedResponse, InvalidPermutation) as exc:
            last_error = exc
    raise last_error


def remote_assess(cfg: BridgeConfig, image_ref, degradation) -> Severity:
    transport = make_transport(cfg)
    text = transport.complete(build_severity_prompt(degradation))
    try:
        return Severity.from_label(text)
    except ValueError as exc:
        raise MalformedResponse(str(exc)) from exc


class RemoteScheduler:
    """Scheduler-interface adapter over the HTTP/replay bridge."""

    def __init__(self, cfg: BridgeConfig, kb=None):
        self.cfg = cfg
        self.kb = kb
        self.last_thought = ""

    def schedule(self, agenda, banned_first=frozenset(), rng=None):
        from .knowledge import retrieve

        agenda_list = sorted(frozenset(agenda), key=lambda t: t.value)
        experience = ""
        if self.kb is not None:
            experience = render_experience_text(retrieve(self.kb, agenda_list).records)
        degradations = sorted({degradation_for(t).value for t in agenda_list})
        banned = sorted(frozenset(banned_first), key=lambda t: t.value)
        plan, thought = remote_schedule(self.cfg, degradations, agenda_list, experience, banned)
        self.last_thought = thought
        return plan


class RemoteEvaluator:
    """Evaluator-interface adapter; image_ref is the profile's origin id."""

    def __init__(self, cfg: BridgeConfig):
        self.cfg = cfg

    def assess(self, profile, degradation, rng=None) -> Severity:
        return remote_assess(self.cfg, profile.origin, degradation)
