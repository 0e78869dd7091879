"""The one error type that production raises, and the bound on printing a rejection.

Every rejected input raises ``ValidationError``, a ValueError whose message states the rule; the CLI
prints it, and argparse's usage errors, through ``bounded`` and exits with code 2. A run of more
than RUN_CHARS non-space characters (an echoed input) prints as its first RUN_CHARS // 2 and its
length, as does a message longer than MESSAGE_CHARS. A failed check's types live in ``rpl.verify``.
"""

RUN_CHARS, MESSAGE_CHARS = 64, 512  # so a printed message has at most MESSAGE_CHARS characters


class ValidationError(ValueError):
    """Input rejected before any computation ran."""


def _cut(text: str, limit: int) -> str:
    return text if len(text) <= limit else f"{text[:limit // 2]}... ({len(text)} characters)"


def bounded(message: object) -> str:
    """str(message) within the bound above."""
    return _cut(" ".join(_cut(run, RUN_CHARS) for run in str(message).split(" ")), MESSAGE_CHARS)
