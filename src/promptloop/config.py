"""Config file loading, validation, and canonical normalization.

The config is a single JSON document (schema version 1). Every field has a
default except ``corpus_path``; an empty engine section resolves to the
built-in role sampling parameters and seed. ``PROMPTLOOP_BASE_URL`` in the
environment overrides ``backend.base_url`` of an ``http`` backend.

This module is the only one that knows what a valid config is. Every field
of every section has one row in :data:`_FIELDS`: its exact JSON types (a
bool is not a number) and the condition its value must meet (NaN and the
infinities meet none). :func:`_check` walks a document against the table;
three rules that span fields follow it in :func:`resolve_config`. The
dataclasses it fills are plain records.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from .engine import EngineConfig
from .errors import ConfigError
from .gateway import BackendDescriptor
from .roles import DEFAULT_ROLE_PARAMS, DEFAULT_SYSTEM_PROMPTS, ModelRole
from .runstore import canonical_json

CONFIG_VERSION = 1

ENV_BASE_URL = "PROMPTLOOP_BASE_URL"

_FLOAT_MAX = sys.float_info.max

#: Longest request timeout and first retry backoff, in seconds. With at most
#: 10 retries the longest backoff sleep is 3,600 * 2**9 s, which sockets and
#: ``time.sleep`` accept on every platform.
_MAX_WAIT = 3600

#: Top-level fields a CliConfig holds as the document gives them.
_PLAIN = ("corpus_path", "max_documents", "output_dir")


@dataclass
class CliConfig:
    backend: BackendDescriptor
    engine: EngineConfig
    corpus_path: str
    scripts: dict[ModelRole, list[str]] = field(default_factory=dict)
    max_documents: int | None = None
    output_dir: str = "runs"


class Field(NamedTuple):
    """One field's exact JSON types, the test its value must pass, and both
    in words; an object field names the :data:`_FIELDS` section its value is
    checked against instead."""

    types: tuple[type, ...]
    test: Callable[[object], bool]
    meaning: str
    section: str | None = None


_INT, _NUMBER, _TEXT, _LIST, _NULL = (int,), (int, float), (str,), (list,), (type(None),)


def _any(value) -> bool:
    return True


def _turn(turn) -> bool:
    return type(turn) is list and len(turn) == 2 and turn[0] in ("user", "assistant") and type(turn[1]) is str


def _object(section: str) -> Field:
    return Field((dict,), _any, "an object", section)


def _per_role(row: Field) -> dict[str, Field]:
    return {role.value: row for role in ModelRole}


_COUNT = Field(_INT, lambda v: v >= 1, "an integer >= 1")
_SEED = Field(_INT, _any, "an integer")
_NAME = Field(_TEXT, _any, "a string")
_PATH = Field(_TEXT, bool, "a non-empty string")

#: Section name -> field name -> row. ``config`` is the document itself.
_FIELDS: dict[str, dict[str, Field]] = {
    "config": {
        "version": Field(_INT, lambda v: v == CONFIG_VERSION, f"{CONFIG_VERSION}"),
        "backend": _object("backend"),
        "engine": _object("engine"),
        "prompts": _object("prompts"),
        "scripts": _object("scripts"),
        "corpus_path": _PATH,
        "max_documents": Field(_INT + _NULL, lambda v: v is None or v >= 1, "an integer >= 1 or null"),
        "output_dir": _PATH,
    },
    "backend": {
        "kind": Field(_TEXT, lambda v: v in ("http", "mock"), "'http' or 'mock'"),
        "base_url": _NAME,
        "model_name": _NAME,
        "embedding_model_name": _NAME,
        "timeout": Field(_NUMBER, lambda v: 0 < v <= _MAX_WAIT, f"a number in (0, {_MAX_WAIT}]"),
        "max_retries": Field(_INT, lambda v: 0 <= v <= 10, "an integer in [0, 10]"),
        "retry_backoff": Field(_NUMBER, lambda v: 0 <= v <= _MAX_WAIT, f"a number in [0, {_MAX_WAIT}]"),
        "mock_embedding_dim": _COUNT,
    },
    "engine": {
        "samples_per_round": _COUNT,
        "best_capacity": _COUNT,
        "worst_capacity": _COUNT,
        "max_rounds": _COUNT,
        "score_target": Field(_NUMBER + _NULL, lambda v: v is None or 0 <= v <= 1, "a number in [0, 1] or null"),
        "mutation_trigger": Field(_TEXT, lambda v: v == "best-archive-full", "'best-archive-full'"),
        "mutation_budget": Field(_INT, lambda v: v >= 0, "an integer >= 0"),
        "seed": _SEED,
        "role_params": _object("role_params"),
    },
    "role_params": _per_role(_object("sampling")),
    # A role's sampling parameters, merged over its defaults.
    "sampling": {
        "temperature": Field(_NUMBER, lambda v: 0 <= v <= _FLOAT_MAX, "a finite number >= 0"),
        "top_k": _COUNT,
        "top_p": Field(_NUMBER, lambda v: 0 < v <= 1, "a number in (0, 1]"),
        "seed": _SEED,
    },
    "prompts": {"system": _object("system"), "examples": _object("examples")},
    "system": _per_role(_PATH),
    "examples": _per_role(
        Field(_LIST, lambda turns: all(map(_turn, turns)),
              "a list of [speaker, text] turns with speaker 'user' or 'assistant'")
    ),
    "scripts": _per_role(
        Field(_LIST, lambda items: all(type(t) is str for t in items), "a list of strings")
    ),
}


def _check(raw, where: str, section: str = "config") -> None:
    """Check an object against its section of :data:`_FIELDS`: no unknown
    key, and each value of a row's types passing its test, object values
    checked against their own section in turn."""
    if type(raw) is not dict:
        raise ConfigError(f"{where or 'config document'} must be a JSON object, got {raw!r}")
    rows = _FIELDS[section]
    unknown = [key for key in raw if key not in rows]
    if unknown:
        raise ConfigError(
            f"{where or 'config'}: unknown field(s) {unknown} (valid: {', '.join(rows)})"
        )
    for name, value in raw.items():
        row = rows[name]
        path = f"{where}.{name}" if where else name
        if row.section:
            _check(value, path, row.section)
        elif type(value) not in row.types or not row.test(value):
            raise ConfigError(f"{path} must be {row.meaning}, got {value!r}")


def _by_role(raw: dict) -> dict:
    return {ModelRole(key): value for key, value in raw.items()}


def resolve_config(raw: dict, env: dict | None = None) -> CliConfig:
    """Turn a parsed config document into a validated CliConfig: the table's
    checks, then the three rules that span fields (``http`` needs a
    ``base_url``, scripts need the mock, ``corpus_path`` is required)."""
    _check(raw, "")
    backend = dict(raw.get("backend", {}))
    http = backend.get("kind") == "http"
    override = (os.environ if env is None else env).get(ENV_BASE_URL)
    if http and override:  # a mock reads no URL; the override must not change its digest
        backend["base_url"] = override
    if http and not backend.get("base_url"):
        raise ConfigError("backend.base_url is required for kind 'http'")
    if http and raw.get("scripts"):
        raise ConfigError("scripts are only valid with backend.kind 'mock'")
    if "corpus_path" not in raw:
        raise ConfigError("config is missing required field 'corpus_path'")

    engine = dict(raw.get("engine", {}))
    role_params = dict(DEFAULT_ROLE_PARAMS)
    for role, overrides in _by_role(engine.pop("role_params", {})).items():
        role_params[role] = replace(role_params[role], **overrides)
    prompts = raw.get("prompts", {})
    return CliConfig(
        backend=BackendDescriptor(**backend),
        engine=EngineConfig(
            **engine,
            role_params=role_params,
            system_prompts={**DEFAULT_SYSTEM_PROMPTS, **_by_role(prompts.get("system", {}))},
            example_messages={
                role: tuple(map(tuple, turns))
                for role, turns in _by_role(prompts.get("examples", {})).items()
            },
        ),
        scripts={role: list(items) for role, items in _by_role(raw.get("scripts", {})).items()},
        **{name: raw[name] for name in _PLAIN if name in raw},
    )


def load_config(path) -> CliConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an int past the digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return resolve_config(raw)


def normalize_config(config: CliConfig) -> dict:
    """Fully resolved plain-dict form of the config; the digest input and the
    output of ``validate-config``."""
    backend = {name: getattr(config.backend, name) for name in _FIELDS["backend"]}
    engine = {name: getattr(config.engine, name) for name in _FIELDS["engine"]}
    engine["role_params"] = {
        role.value: config.engine.role_params[role].as_options() for role in ModelRole
    }
    prompts = {
        "system": {role.value: config.engine.system_prompts[role] for role in ModelRole},
        "examples": {
            role.value: [list(turn) for turn in turns]
            for role, turns in sorted(
                config.engine.example_messages.items(), key=lambda kv: kv[0].value
            )
        },
    }
    return {
        "version": CONFIG_VERSION,
        "backend": backend,
        "engine": engine,
        "prompts": prompts,
        "scripts": {role.value: items for role, items in sorted(
            config.scripts.items(), key=lambda kv: kv[0].value
        )},
        **{name: getattr(config, name) for name in _PLAIN},
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_digest(config: CliConfig) -> str:
    """Digest of every run-semantics field (paths excluded)."""
    normalized = normalize_config(config)
    semantic = {key: normalized[key] for key in ("backend", "engine", "prompts", "scripts")}
    return _sha256(canonical_json(semantic))


def corpus_digest(documents: list[str]) -> str:
    return _sha256(canonical_json(list(documents)))


def run_id_for(config_dig: str, corpus_dig: str, task_prompt: str) -> str:
    return _sha256(canonical_json([config_dig, corpus_dig, task_prompt]))[:16]
