"""The config schema: one table of fields, one walk over a document.

A malformed document or a bad value is a ConfigError naming the field (exit
2 through the CLI), and every valid document survives a round trip through
its normalized form unchanged.
"""

import dataclasses
import math
import re

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from conftest import write_config_file
from promptloop.cli import main
from promptloop.config import _FIELDS, config_digest, corpus_digest, normalize_config, resolve_config
from promptloop.demo import DEMO_CONFIG_DOC, DEMO_CORPUS
from promptloop.engine import EngineConfig
from promptloop.errors import ConfigError
from promptloop.gateway import BackendDescriptor
from promptloop.roles import SamplingParams

#: Malformed documents and bad values (each gets a ``corpus_path``), and
#: the field each must be rejected for.
REJECTED = {
    "backend-not-object": ({"backend": 5}, "backend"),
    "engine-not-object": ({"engine": "ab"}, "engine"),
    "role-params-not-object": ({"engine": {"role_params": []}}, "engine.role_params"),
    "system-prompts-not-object": ({"prompts": {"system": []}}, "prompts.system"),
    "scripts-not-object": ({"scripts": "x"}, "scripts"),
    "examples-not-object": ({"prompts": {"examples": []}}, "prompts.examples"),
    "examples-not-list": ({"prompts": {"examples": {"actor": 5}}}, "prompts.examples.actor"),
    "examples-unknown-speaker": ({"prompts": {"examples": {"actor": [["system", "a"]]}}}, "prompts.examples.actor"),
    "max-documents-bool": ({"max_documents": True}, "max_documents"),
    "output-dir-number": ({"output_dir": 5}, "output_dir"),
    "base-url-number": ({"backend": {"kind": "http", "base_url": 5}}, "backend.base_url"),
    "model-name-number": ({"backend": {"model_name": 5}}, "backend.model_name"),
    "timeout-nan": ({"backend": {"timeout": math.nan}}, "backend.timeout"),
    "timeout-infinity": ({"backend": {"timeout": math.inf}}, "backend.timeout"),
    "retry-backoff-infinity": ({"backend": {"retry_backoff": math.inf}}, "backend.retry_backoff"),
    # Finite, but beyond what a socket timeout or time.sleep accepts.
    "timeout-huge": ({"backend": {"timeout": 1e300}}, "backend.timeout"),
    "retry-backoff-huge": ({"backend": {"retry_backoff": 1e300, "max_retries": 1}}, "backend.retry_backoff"),
    "max-retries-eleven": ({"backend": {"max_retries": 11}}, "backend.max_retries"),
    "top-k-bool": ({"engine": {"role_params": {"actor": {"top_k": True}}}}, "engine.role_params.actor.top_k"),
    "top-k-fraction": ({"engine": {"role_params": {"actor": {"top_k": 2.5}}}}, "engine.role_params.actor.top_k"),
    "role-seed-string": ({"engine": {"role_params": {"actor": {"seed": "x"}}}}, "engine.role_params.actor.seed"),
    # Scripted replies are the mock's alone.
    "scripts-on-http": (
        {"backend": {"kind": "http", "base_url": "http://x:1"}, "scripts": {"actor": ["Antwort."]}}, "scripts"
    ),
}

#: A config that sets every field.
EVERY_FIELD = {
    "version": 1,
    "backend": {
        "kind": "http", "base_url": "http://x:1", "model_name": "m", "embedding_model_name": "e",
        "timeout": 30, "max_retries": 3, "retry_backoff": 0, "mock_embedding_dim": 16,
    },
    "engine": {
        "samples_per_round": 3, "best_capacity": 4, "worst_capacity": 2, "max_rounds": 7,
        "score_target": 0.75, "mutation_trigger": "best-archive-full", "mutation_budget": 0, "seed": -5,
        "role_params": {
            "actor": {"temperature": 1, "top_k": 7, "top_p": 1, "seed": 3},
            "mutator": {"top_p": 0.25},
        },
    },
    "prompts": {
        "system": {"summarizer": "Fasse zusammen.", "actor": "Schreibe."},
        "examples": {"mutator": [["user", "a"], ["assistant", "b"]], "actor": []},
    },
    "scripts": {},
    "corpus_path": "corpus.jsonl",
    "max_documents": 12,
    "output_dir": "out",
}

#: Pinned digests: a resume checks the config digest, so a valid config
#: whose digest changed could no longer resume the logs written under it.
DEMO_DIGEST = "dd7e3fcf59c985b39d60bce448c385a7bf904b302e9ba0ffe4192d8aab527ee8"
EVERY_FIELD_DIGEST = "2b571badc6ead349ff74959368d9b98838ac180d5bd95c9ff9d937cf52a4129b"


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_bad_document_is_a_config_error_naming_the_field(name):
    doc, field = REJECTED[name]
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)} "):
        resolve_config({"corpus_path": "c", **doc}, env={})


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_validate_config_exits_2_naming_the_field(tmp_path, name):
    doc, field = REJECTED[name]
    path = write_config_file(tmp_path, {"corpus_path": "c", **doc})
    result = CliRunner().invoke(main, ["validate-config", path])
    assert result.exit_code == 2, result.output + repr(result.exception)
    assert field in result.stderr


def test_log_level_is_an_unknown_field(tmp_path):
    """Nothing read ``log_level``, so it is no field: a config that sets it
    is refused like any other unknown field, and validate-config exits 2."""
    doc = {"corpus_path": "c", "log_level": "info"}
    with pytest.raises(ConfigError, match=r"^config: unknown field\(s\) \['log_level'\] "):
        resolve_config(doc, env={})
    result = CliRunner().invoke(main, ["validate-config", write_config_file(tmp_path, doc)])
    assert result.exit_code == 2, result.output + repr(result.exception)
    assert "unknown field(s) ['log_level']" in result.stderr


def test_digests_of_valid_configs_are_pinned():
    assert config_digest(resolve_config(DEMO_CONFIG_DOC, env={})) == DEMO_DIGEST
    assert config_digest(resolve_config(EVERY_FIELD, env={})) == EVERY_FIELD_DIGEST


def test_corpus_digests_are_pinned():
    """A resume checks its corpus by the digest alone, so a corpus keeps its
    digest across versions: the demo's and a generated 1,000-document one."""
    assert corpus_digest(DEMO_CORPUS) == "7f881dfbc7f1e8a8ea241ec5255851d7da233806d806a6e5ba6c48af7ae29c88"
    documents = [
        f"Dokument {i}: Der Patient ist kardial stabil, Befund Nummer {i * 7919 % 1000}. Ärztin Müller."
        for i in range(1000)
    ]
    assert corpus_digest(documents) == "1621d45c1d10d91384eccc89a1ae5d6ec7305aa4ec8e552c05db4d907a51fc1e"


def test_base_url_override_leaves_a_mock_config_alone(tmp_path, monkeypatch):
    """PROMPTLOOP_BASE_URL reaches only an http backend, so a mock run's id
    and its resumes do not depend on the shell the run was started from."""
    env = {"PROMPTLOOP_BASE_URL": "http://x:1"}
    assert config_digest(resolve_config(DEMO_CONFIG_DOC, env=env)) == DEMO_DIGEST
    path = write_config_file(tmp_path, DEMO_CONFIG_DOC)
    outputs = []
    for value in (None, env["PROMPTLOOP_BASE_URL"]):
        if value is None:
            monkeypatch.delenv("PROMPTLOOP_BASE_URL", raising=False)
        else:
            monkeypatch.setenv("PROMPTLOOP_BASE_URL", value)
        result = CliRunner().invoke(main, ["validate-config", path])
        assert result.exit_code == 0, result.output + repr(result.exception)
        outputs.append(result.output)
    assert outputs[0] == outputs[1]
    assert '"base_url": ""' in outputs[1]


def test_section_rows_are_the_record_fields():
    """normalize_config reads the backend and engine fields from the table."""
    names = lambda record: [f.name for f in dataclasses.fields(record)]
    assert list(_FIELDS["backend"]) == names(BackendDescriptor)
    assert set(_FIELDS["engine"]) == set(names(EngineConfig)) - {"system_prompts", "example_messages"}
    assert list(_FIELDS["sampling"]) == names(SamplingParams)


#: Values that meet the narrow rows ("version", "kind", "mutation_trigger", ...),
#: which values drawn at large would almost never hit.
KNOWN = [
    1, 0, 2, 0.5, 1.0, 0.25, 30, None, "mock", "http", "debug", "info", "warning", "error",
    "best-archive-full", "c.jsonl", [], ["a", "b"], [["user", "Hallo"], ["assistant", "Gut"]],
]


def text(max_size):
    """``st.text(max_size=max_size)``'s strings (any code point but a
    surrogate), drawn as code points: ``st.text`` first builds Hypothesis'
    Unicode tables, about 2 s without a ``.hypothesis/`` cache, which fails
    the ``too_slow`` health check on a fresh checkout."""
    point = st.one_of(st.integers(0, 0xD7FF), st.integers(0xE000, 0x10FFFF))
    return st.lists(point.map(chr), max_size=max_size).map("".join)


AT_LARGE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(),
    text(max_size=8),
    st.lists(text(max_size=4), max_size=3),
    st.lists(st.tuples(st.sampled_from(["user", "assistant"]), text(max_size=4)).map(list), max_size=2),
)


def values(row):
    """Valid values of a row: drawn at large or from KNOWN, a draw the row
    refuses falling back to its first known value."""
    if row.section:
        return section(row.section)
    fits = lambda value: type(value) in row.types and row.test(value)
    known = [value for value in KNOWN if fits(value)]
    return st.one_of(st.sampled_from(known), AT_LARGE).map(lambda v: v if fits(v) else known[0])


def section(name):
    rows = _FIELDS[name]
    return st.fixed_dictionaries({}, optional={key: values(row) for key, row in rows.items()})


def meets_cross_field_rules(doc):
    """The three rules no single row states, met by amending the document."""
    doc.setdefault("corpus_path", "c.jsonl")
    backend = doc.get("backend", {})
    if backend.get("kind") == "http":
        if not backend.get("base_url"):
            backend["base_url"] = "http://localhost:11434"
        doc.pop("scripts", None)
    return doc


@given(doc=section("config").map(meets_cross_field_rules))
def test_normalized_form_resolves_to_itself(doc):
    config = resolve_config(doc, env={})
    normalized = normalize_config(config)
    again = resolve_config(normalized, env={})
    assert normalize_config(again) == normalized
    assert config_digest(again) == config_digest(config)
