"""Config file loading, validation, and canonical normalization.

The config is a single JSON document (schema version 1). Every field has a
default except ``corpus_path``; an empty engine section resolves to the
built-in role sampling parameters and seed. ``PROMPTLOOP_BASE_URL`` in the
environment overrides ``backend.base_url``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields as dataclass_fields

from .engine import EngineConfig
from .errors import ConfigError
from .gateway import BackendDescriptor
from .roles import DEFAULT_ROLE_PARAMS, DEFAULT_SYSTEM_PROMPTS, ModelRole, SamplingParams
from .runstore import canonical_json

CONFIG_VERSION = 1

ENV_BASE_URL = "PROMPTLOOP_BASE_URL"

_BACKEND_KEYS = {f.name for f in dataclass_fields(BackendDescriptor)}
#: Engine fields set from the config's ``prompts`` section, not ``engine``.
_PROMPT_FIELDS = {"system_prompts", "example_messages"}
_ENGINE_KEYS = {f.name for f in dataclass_fields(EngineConfig)} - _PROMPT_FIELDS
_LOG_LEVELS = {"debug", "info", "warning", "error"}


@dataclass
class CliConfig:
    backend: BackendDescriptor
    engine: EngineConfig
    corpus_path: str
    scripts: dict[ModelRole, list[str]] = field(default_factory=dict)
    max_documents: int | None = None
    output_dir: str = "runs"
    log_level: str = "info"


_TOP_KEYS = {f.name for f in dataclass_fields(CliConfig)} | {"version", "prompts"}


def _role_from_key(key: str, where: str) -> ModelRole:
    try:
        return ModelRole(key)
    except ValueError:
        valid = ", ".join(role.value for role in ModelRole)
        raise ConfigError(f"{where}: unknown role {key!r} (valid: {valid})") from None


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _parse_backend(raw: dict) -> BackendDescriptor:
    _check_keys(raw, _BACKEND_KEYS, "backend")
    try:
        return BackendDescriptor(**raw)
    except TypeError as exc:
        raise ConfigError(f"backend: {exc}") from exc


def _parse_role_params(raw: dict) -> dict[ModelRole, SamplingParams]:
    params = dict(DEFAULT_ROLE_PARAMS)
    for key, overrides in raw.items():
        role = _role_from_key(key, "engine.role_params")
        if not isinstance(overrides, dict):
            raise ConfigError(f"engine.role_params.{key} must be an object")
        _check_keys(overrides, {"temperature", "top_k", "top_p", "seed"}, f"engine.role_params.{key}")
        base = params[role]
        merged = {
            "temperature": overrides.get("temperature", base.temperature),
            "top_k": overrides.get("top_k", base.top_k),
            "top_p": overrides.get("top_p", base.top_p),
            "seed": overrides.get("seed", base.seed),
        }
        try:
            params[role] = SamplingParams(**merged)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"engine.role_params.{key}: {exc}") from exc
    return params


def _parse_engine(raw: dict, prompts: dict) -> EngineConfig:
    _check_keys(raw, _ENGINE_KEYS, "engine")
    role_params = _parse_role_params(raw.get("role_params", {}))

    system_prompts = dict(DEFAULT_SYSTEM_PROMPTS)
    for key, text in prompts.get("system", {}).items():
        role = _role_from_key(key, "prompts.system")
        if not isinstance(text, str) or not text:
            raise ConfigError(f"prompts.system.{key} must be a non-empty string")
        system_prompts[role] = text

    example_messages: dict[ModelRole, tuple[tuple[str, str], ...]] = {}
    for key, turns in prompts.get("examples", {}).items():
        role = _role_from_key(key, "prompts.examples")
        parsed = []
        for turn in turns:
            if (
                not isinstance(turn, (list, tuple))
                or len(turn) != 2
                or turn[0] not in ("user", "assistant")
                or not isinstance(turn[1], str)
            ):
                raise ConfigError(
                    f"prompts.examples.{key}: each turn must be [speaker, text]"
                    " with speaker 'user' or 'assistant'"
                )
            parsed.append((turn[0], turn[1]))
        example_messages[role] = tuple(parsed)

    kwargs = {k: v for k, v in raw.items() if k != "role_params"}
    config = EngineConfig(
        role_params=role_params,
        system_prompts=system_prompts,
        example_messages=example_messages,
        **kwargs,
    )
    config.validate()
    return config


def _parse_scripts(raw: dict) -> dict[ModelRole, list[str]]:
    scripts: dict[ModelRole, list[str]] = {}
    for key, items in raw.items():
        role = _role_from_key(key, "scripts")
        if not isinstance(items, list) or not all(isinstance(t, str) for t in items):
            raise ConfigError(f"scripts.{key} must be a list of strings")
        scripts[role] = list(items)
    return scripts


def resolve_config(raw: dict, env: dict | None = None) -> CliConfig:
    """Turn a parsed config document into a validated CliConfig."""
    if env is None:
        env = dict(os.environ)
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")
    version = raw.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r} (expected {CONFIG_VERSION})")

    backend_raw = dict(raw.get("backend", {}))
    override = env.get(ENV_BASE_URL)
    if override:
        backend_raw["base_url"] = override
    backend = _parse_backend(backend_raw)

    prompts = raw.get("prompts", {})
    if not isinstance(prompts, dict):
        raise ConfigError("prompts must be an object")
    _check_keys(prompts, {"system", "examples"}, "prompts")
    engine = _parse_engine(dict(raw.get("engine", {})), prompts)

    scripts = _parse_scripts(dict(raw.get("scripts", {})))
    if scripts and backend.kind != "mock":
        raise ConfigError("scripts are only valid with backend.kind 'mock'")

    corpus_path = raw.get("corpus_path")
    if not isinstance(corpus_path, str) or not corpus_path:
        raise ConfigError("config is missing required field 'corpus_path'")

    max_documents = raw.get("max_documents")
    if max_documents is not None and (not isinstance(max_documents, int) or max_documents < 1):
        raise ConfigError("max_documents must be a positive integer")

    log_level = raw.get("log_level", "info")
    if log_level not in _LOG_LEVELS:
        raise ConfigError(f"log_level must be one of {sorted(_LOG_LEVELS)}")

    return CliConfig(
        backend=backend,
        engine=engine,
        corpus_path=corpus_path,
        scripts=scripts,
        max_documents=max_documents,
        output_dir=raw.get("output_dir", "runs"),
        log_level=log_level,
    )


def load_config(path, env: dict | None = None) -> CliConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return resolve_config(raw, env)


def normalize_config(config: CliConfig) -> dict:
    """Fully resolved plain-dict form of the config; the digest input and the
    output of ``validate-config``."""
    backend = {
        f.name: getattr(config.backend, f.name) for f in dataclass_fields(BackendDescriptor)
    }
    engine = {name: getattr(config.engine, name) for name in _ENGINE_KEYS}
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
        "corpus_path": config.corpus_path,
        "max_documents": config.max_documents,
        "output_dir": config.output_dir,
        "log_level": config.log_level,
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_digest(config: CliConfig) -> str:
    """Digest of every run-semantics field (paths and log level excluded)."""
    normalized = normalize_config(config)
    semantic = {key: normalized[key] for key in ("backend", "engine", "prompts", "scripts")}
    return _sha256(canonical_json(semantic))


def corpus_digest(documents: list[str]) -> str:
    return _sha256(canonical_json(list(documents)))


def run_id_for(config_dig: str, corpus_dig: str, task_prompt: str) -> str:
    return _sha256(canonical_json([config_dig, corpus_dig, task_prompt]))[:16]
