"""Command-line interface.

Exit codes: 0 success, 2 invalid config or input, 3 backend unavailable or
answering malformed replies, 4 run aborted mid-flight (the event log is kept
and resumable).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import click

from . import demo as demo_mod
from .config import load_config, normalize_config
from .errors import (
    BackendUnavailableError,
    ConfigError,
    DimensionMismatchError,
    EmptyResponseError,
    PromptloopError,
    ProtocolError,
    RunAbortedError,
)
from .pipeline import build_runtime, resume_optimization, run_optimization
from .runstore import emit_report

EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_ABORTED = 4


class _Commands(click.Group):
    """Turns a PromptloopError from any command into its exit code: an
    aborted run 4, a backend that is down or answers malformed replies 3,
    and any other error (config, corpus, input, log) 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RunAbortedError as exc:
            code, message = EXIT_ABORTED, f"{exc} (log retained for --resume)"
        except (BackendUnavailableError, ProtocolError, EmptyResponseError, DimensionMismatchError) as exc:
            code, message = EXIT_BACKEND, str(exc)
        except PromptloopError as exc:
            code, message = EXIT_CONFIG, str(exc)
        click.echo(f"error: {message}", err=True)
        sys.exit(code)


@click.group(cls=_Commands)
def main() -> None:
    """Data-free iterative prompt optimization against a reference corpus."""


def _write_whole(path: str, document: str) -> None:
    """Replace ``path`` with ``document`` via a temp file, so a failed write keeps the old file."""
    temp_path = path + ".tmp"
    try:
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(document)
        os.replace(temp_path, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(temp_path):
            os.remove(temp_path)


@main.command("optimize")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--prompt", "prompt_text", default=None, help="Initial task prompt.")
@click.option(
    "--prompt-file",
    "prompt_file",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Read the initial task prompt from a file.",
)
@click.option(
    "--resume",
    "resume_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Resume from an existing run log instead of starting fresh.",
)
def cmd_optimize(config_path, prompt_text, prompt_file, resume_path) -> None:
    """Run the full optimization pipeline for one task prompt."""
    if prompt_text is not None and prompt_file is not None:
        raise click.UsageError("use exactly one of --prompt or --prompt-file")
    if prompt_text is None and prompt_file is None and resume_path is None:
        raise click.UsageError("one of --prompt or --prompt-file is required")
    if prompt_file is not None:
        try:
            with open(prompt_file, encoding="utf-8") as handle:
                prompt_text = handle.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read prompt file {prompt_file}: {exc}") from exc
    if prompt_text is not None and not prompt_text.strip():
        raise ConfigError("the task prompt is empty")

    config = load_config(config_path)
    if resume_path is not None:
        log_path = resume_optimization(config, resume_path, expected_task_prompt=prompt_text)
    else:
        log_path = run_optimization(config, prompt_text)
    report_path = os.path.splitext(log_path)[0] + ".report.json"
    report = emit_report(log_path, "json")
    _write_whole(report_path, report)
    summary = json.loads(report)
    click.echo(f"log: {log_path}")
    click.echo(f"report: {report_path}")
    click.echo(f"rounds completed: {len(summary['rounds'])}")
    click.echo(f"mutations applied/rejected: {summary['mutations_applied']}/{summary['mutations_rejected']}")
    click.echo(f"best score: {summary['best_score']!r}")
    click.echo("best prompt:")
    click.echo(summary["best_step_plan"])


@main.command("score")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--text", "text", required=True, help="Candidate text to score.")
@click.option(
    "--corpus",
    "corpus_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Corpus file (defaults to corpus_path from the config).",
)
def cmd_score(config_path, text, corpus_path) -> None:
    """Score one text against the reference corpus and print the value."""
    config = load_config(config_path)
    if corpus_path is not None:
        config = dataclasses.replace(config, corpus_path=corpus_path)
    click.echo(repr(build_runtime(config).evaluator.score_batch([text])[0]))


@main.command("validate-config")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def cmd_validate_config(config_path) -> None:
    """Validate a config file and print its fully resolved form."""
    config = load_config(config_path)
    click.echo(json.dumps(normalize_config(config), indent=2, sort_keys=True, ensure_ascii=False))


@main.command("report")
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--format",
    "format_",
    type=click.Choice(["json", "markdown"]),
    default="json",
    show_default=True,
)
@click.option("--output", "output_path", type=click.Path(dir_okay=False), default=None)
def cmd_report(log_path, format_, output_path) -> None:
    """Render a score/threshold trajectory report from a run log."""
    if output_path is not None and os.path.exists(output_path) and os.path.samefile(output_path, log_path):
        raise ConfigError(f"--output {output_path} is the run log itself; it would be overwritten")
    document = emit_report(log_path, format_)
    if output_path is None:
        click.echo(document, nl=False)
    else:
        _write_whole(output_path, document)
        click.echo(f"report written to {output_path}")


@main.command("demo")
@click.option(
    "--output-dir",
    "output_dir",
    type=click.Path(file_okay=False),
    default=None,
    help="Keep the demo log and report here (default: a temporary directory).",
)
def cmd_demo(output_dir) -> None:
    """Run the bundled offline scenario and print its score trajectory."""
    if output_dir is None:
        output_dir = tempfile.mkdtemp(prefix="promptloop-demo-")
    log_path = demo_mod.run_demo(output_dir)
    summary = json.loads(emit_report(log_path, "json"))
    click.echo("round  mean score           best so far")
    for row in summary["rounds"]:
        click.echo(f"{row['round']:>5}  {row['mean_score']!r:<20} {row['best_max']!r}")
    click.echo(f"mutations applied/rejected: {summary['mutations_applied']}/{summary['mutations_rejected']}")
    click.echo(f"final best score: {summary['best_score']!r}")
    click.echo(f"log: {log_path}")
    click.echo("best prompt:")
    click.echo(summary["best_step_plan"])


if __name__ == "__main__":
    main()
