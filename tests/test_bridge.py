import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from restoragent.bridge import (
    MAX_RETRIES,
    HttpTransport,
    InvalidPermutation,
    MalformedResponse,
    RemoteEvaluator,
    RemoteScheduler,
    ReplayTransport,
    Timeout,
    Transport,
    build_schedule_prompt,
    build_severity_prompt,
    prompt_key,
)
from restoragent.core import Degradation, DegradationProfile, Severity, TaskKind
from restoragent.knowledge import reference_kb, render_experience_text, retrieve

T = TaskKind
NOISY = DegradationProfile({Degradation.NOISE: Severity.HIGH}, (), "img-1")


def _replay(tmp_path, responses):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(responses), encoding="utf-8")
    return ReplayTransport(path)


def test_severity_prompt_wording():
    prompt = build_severity_prompt(Degradation.HAZE)
    assert prompt.startswith("What's the severity of haze in this image?")
    assert "very low, low, medium, high, very high" in prompt


def test_schedule_prompt_is_byte_stable_and_gated_suffix():
    args = (["haze", "rain"], [T.DEHAZING, T.DERAINING], "some experience")
    assert build_schedule_prompt(*args) == build_schedule_prompt(*args)
    base = build_schedule_prompt(*args)
    assert "['haze', 'rain']" in base
    assert "['dehazing', 'deraining']" in base
    assert "some experience" in base
    assert "unsatisfactory" not in base
    with_failed = build_schedule_prompt(*args, failed_tries=[T.DEHAZING])
    assert "unsatisfactory if ['dehazing'] is conducted first" in with_failed


def test_replay_transport_lookup_and_miss(tmp_path):
    transport = _replay(tmp_path, {prompt_key("hello"): "world"})
    assert transport.complete("hello") == "world"
    with pytest.raises(MalformedResponse):
        transport.complete("unseen prompt")


def test_remote_schedule_happy_path(tmp_path):
    agenda = [T.DEHAZING, T.DERAINING]
    prompt = build_schedule_prompt(["haze", "rain"], agenda, "")
    response = json.dumps(
        {"thought": "rain streaks occlude haze", "order": ["deraining", "dehazing"]}
    )
    scheduler = RemoteScheduler(_replay(tmp_path, {prompt_key(prompt): response}))
    assert scheduler.schedule(set(agenda)) == (T.DERAINING, T.DEHAZING)
    assert scheduler.last_thought == "rain streaks occlude haze"


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        json.dumps({"thought": "x"}),
        json.dumps({"order": ["deraining"]}),
        json.dumps({"order": ["deraining", "deraining"]}),
    ],
)
def test_remote_schedule_rejects_bad_payloads(tmp_path, payload):
    agenda = [T.DEHAZING, T.DERAINING]
    prompt = build_schedule_prompt(["haze", "rain"], agenda, "")
    transport = _replay(tmp_path, {prompt_key(prompt): payload})
    asked = []
    complete = transport.complete
    transport.complete = lambda text: asked.append(text) or complete(text)
    with pytest.raises((MalformedResponse, InvalidPermutation)):
        RemoteScheduler(transport).schedule(set(agenda))
    assert asked == [prompt] * (MAX_RETRIES + 1)


def test_remote_schedule_rejects_banned_first(tmp_path):
    agenda = [T.DEHAZING, T.DERAINING]
    prompt = build_schedule_prompt(["haze", "rain"], agenda, "", [T.DERAINING])
    response = json.dumps({"order": ["deraining", "dehazing"]})
    scheduler = RemoteScheduler(_replay(tmp_path, {prompt_key(prompt): response}))
    with pytest.raises(InvalidPermutation):
        scheduler.schedule(set(agenda), banned_first={T.DERAINING})


def test_remote_assess_parses_label(tmp_path):
    prompt = build_severity_prompt(Degradation.NOISE)
    evaluator = RemoteEvaluator(_replay(tmp_path, {prompt_key(prompt): "Very High"}))
    assert evaluator.assess(NOISY, Degradation.NOISE) is Severity.VERY_HIGH
    evaluator = RemoteEvaluator(_replay(tmp_path, {prompt_key(prompt): "sort of blurry"}))
    with pytest.raises(MalformedResponse):
        evaluator.assess(NOISY, Degradation.NOISE)


def test_remote_evaluator_reads_its_replay_file_once(tmp_path):
    prompt = build_severity_prompt(Degradation.NOISE)
    evaluator = RemoteEvaluator(_replay(tmp_path, {prompt_key(prompt): "low"}))
    (tmp_path / "replay.json").unlink()
    assert evaluator.assess(NOISY, Degradation.NOISE) is Severity.LOW
    assert evaluator.assess(NOISY, Degradation.NOISE) is Severity.LOW


def test_remote_scheduler_renders_kb_experience(tmp_path):
    kb = reference_kb()
    agenda = [T.DEHAZING, T.DERAINING]
    experience = render_experience_text(retrieve(kb, agenda).records)
    prompt = build_schedule_prompt(["haze", "rain"], agenda, experience)
    response = json.dumps({"thought": "derain first", "order": ["deraining", "dehazing"]})
    scheduler = RemoteScheduler(_replay(tmp_path, {prompt_key(prompt): response}), kb)
    plan = scheduler.schedule({T.DERAINING, T.DEHAZING})
    assert plan == (T.DERAINING, T.DEHAZING)
    assert scheduler.last_thought == "derain first"


def test_remote_evaluator_uses_severity_prompt(tmp_path):
    prompt = build_severity_prompt(Degradation.RAIN)
    evaluator = RemoteEvaluator(_replay(tmp_path, {prompt_key(prompt): "medium"}))
    profile = DegradationProfile({Degradation.RAIN: Severity.HIGH}, (), "img-9")
    assert evaluator.assess(profile, Degradation.RAIN) is Severity.MEDIUM


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if body.get("prompt") == "boom":
            self.send_response(500)
            self.end_headers()
            return
        if body.get("prompt") == "slow":
            time.sleep(0.5)
        if body.get("prompt") == "garbled":
            payload = b"not json"
        else:
            payload = json.dumps({"text": body["prompt"].upper()}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    thread.join()


def test_http_transport_roundtrip(http_endpoint):
    transport = HttpTransport(http_endpoint, timeout=5)
    assert transport.complete("hello") == "HELLO"


def test_http_transport_server_error(http_endpoint):
    transport = HttpTransport(http_endpoint, timeout=5)
    with pytest.raises(Transport):
        transport.complete("boom")


def test_http_transport_malformed_payload(http_endpoint):
    transport = HttpTransport(http_endpoint, timeout=5)
    with pytest.raises(MalformedResponse):
        transport.complete("garbled")


def test_http_transport_timeout(http_endpoint):
    transport = HttpTransport(http_endpoint, timeout=0.1)
    with pytest.raises(Timeout):
        transport.complete("slow")


def test_http_transport_unreachable_endpoint():
    transport = HttpTransport("http://127.0.0.1:9/", timeout=5)
    with pytest.raises(Transport):
        transport.complete("hello")
