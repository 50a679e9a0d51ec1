"""Runtime cardinality feedback: capture -> monitor -> forge priority.

See :mod:`repro.feedback.log` for the subsystem overview.
"""

from repro.feedback.log import FeedbackLog, FeedbackRecord

__all__ = ["FeedbackLog", "FeedbackRecord"]
