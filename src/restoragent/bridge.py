"""External LLM/VLM backends over a generic HTTP completion contract,
plus an offline replay stub keyed by prompt hash."""

from __future__ import annotations

import hashlib
import http.client
import json
import urllib.error
import urllib.request

from .core import Degradation, Severity, TaskKind, degradation_for
from .knowledge import render_experience_text, retrieve


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

#: Extra attempts after a scheduling reply that fails validation.
MAX_RETRIES = 2


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ReplayTransport:
    """Canned responses keyed by prompt hash; never touches the network.
    The replay file is read once, on construction."""

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

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def complete(self, prompt: str) -> str:
        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps({"prompt": prompt}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
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


def build_schedule_prompt(degradations, agenda, experience_text, failed_tries=()) -> str:
    """Byte-stable scheduling prompt for fixed inputs; ``agenda`` and
    ``failed_tries`` hold TaskKinds."""
    prompt = SCHEDULE_PROMPT.format(
        degradations=list(degradations),
        agenda=[t.value for t in agenda],
        experience=experience_text,
    )
    failed = [t.value for t in failed_tries]
    if failed:
        prompt += FAILED_TRIES_SUFFIX.format(failed_tries=failed)
    return prompt


def build_severity_prompt(degradation: Degradation) -> str:
    return SEVERITY_PROMPT.format(degradation=degradation.value)


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


class RemoteScheduler:
    """Scheduler-interface adapter over a ReplayTransport or HttpTransport."""

    def __init__(self, transport, kb=None):
        self.transport = transport
        self.kb = kb
        self.last_thought = ""

    def schedule(self, agenda, banned_first=frozenset(), rng=None):
        """The remote model's order; a reply that fails validation is asked
        for again up to MAX_RETRIES times before its error is raised."""
        agenda_list = sorted(frozenset(agenda), key=lambda t: t.value)
        experience = ""
        if self.kb is not None:
            experience = render_experience_text(retrieve(self.kb, agenda_list).records)
        degradations = sorted({degradation_for(t).value for t in agenda_list})
        banned = sorted(frozenset(banned_first), key=lambda t: t.value)
        prompt = build_schedule_prompt(degradations, agenda_list, experience, banned)
        agenda_names = [t.value for t in agenda_list]
        failed = {t.value for t in banned}
        for attempt in range(MAX_RETRIES + 1):
            text = self.transport.complete(prompt)
            try:
                plan, self.last_thought = _parse_order(text, agenda_names, failed)
                return plan
            except (MalformedResponse, InvalidPermutation):
                if attempt == MAX_RETRIES:
                    raise


class RemoteEvaluator:
    """Evaluator-interface adapter; the prompt names only the degradation
    and carries no image reference."""

    def __init__(self, transport):
        self.transport = transport

    def assess(self, profile, degradation, rng=None) -> Severity:
        text = self.transport.complete(build_severity_prompt(degradation))
        try:
            return Severity.from_label(text)
        except ValueError as exc:
            raise MalformedResponse(str(exc)) from exc
