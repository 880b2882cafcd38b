"""Single source of the tool version.

Lives in its own module (rather than ``repro/__init__``) so low-level
subsystems — notably :mod:`repro.exec.hashing`, whose cache keys embed the
tool version — can import it without pulling in the whole package.
"""

__version__ = "1.26.0"
