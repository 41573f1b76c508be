"""The Android Activity-leak client: mini Android library, lifecycle
harness synthesis, and the alarm-refutation driver."""

from .harness import HARNESS_CLASS, add_harness, combined_source, generate_harness
from .leaks import (
    ALARM_CONFIRMED,
    ALARM_REFUTED,
    AlarmResult,
    LeakChecker,
    LeakReport,
    check_app,
)
from .library import (
    CONTAINER_CLASSES,
    EMPTY_TABLE_ANNOTATIONS,
    LIBRARY_SOURCE,
    library_class_names,
)
from .lifecycle import activity_classes, handlers_of, is_event_handler

__all__ = [
    "HARNESS_CLASS",
    "add_harness",
    "combined_source",
    "generate_harness",
    "ALARM_CONFIRMED",
    "ALARM_REFUTED",
    "AlarmResult",
    "LeakChecker",
    "LeakReport",
    "check_app",
    "CONTAINER_CLASSES",
    "EMPTY_TABLE_ANNOTATIONS",
    "LIBRARY_SOURCE",
    "library_class_names",
    "activity_classes",
    "handlers_of",
    "is_event_handler",
]
