"""The campaign record schema version, shared by its writer and its readers.

The engine stamps every record it writes with :data:`SPEC_VERSION`
(DESIGN.md §3), and :mod:`repro.results` validates and migrates streams
against it.  It lives in this leaf module so that reading records
(``repro report``) does not import the engine.
"""

__all__ = ["SPEC_VERSION"]

#: Bumped whenever record semantics change, so stale cache entries miss.
#: v2: records carry a top-level ``spec_version`` stamp (repro.results
#: validates against it and migrates v1 streams on load).
SPEC_VERSION = 2
