"""The one error type that production raises.

Every rejected input raises ``ValidationError``, a ValueError whose message
states the rule, and the CLI prints it and exits with code 2.  The types a
failed check raises live beside their raisers in ``rpl.verify``.
"""


class ValidationError(ValueError):
    """Input rejected before any computation ran."""
