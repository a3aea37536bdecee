"""Developer tooling: the invariant-enforcing static analysis suite.

``repro.devtools`` machine-checks the implementation invariants the
reproduction's correctness story depends on (DESIGN.md §10):

=======  ==================  ====================================================
code     name                invariant
=======  ==================  ====================================================
IPD001   no-wallclock        engine code never reads the wall clock
IPD002   seeded-rng          all randomness is explicitly seeded
IPD003   exception-taxonomy  runtime failure paths stay typed, never swallow
IPD004   codec-guard         codec layout changes require a CODEC_VERSION bump
IPD005   hot-path-hygiene    ``@hot_path`` loops stay allocation-clean
IPD007   no-pickle-hot-path  no object serialization inside ``@hot_path`` functions
IPD008   lookup-alloc-free   ``@hot_path`` ``lookup*`` never allocates containers
=======  ==================  ====================================================

All seven are single-file AST visitors over things a runtime test
cannot see.  Invariants a test *can* see — encode/decode symmetry,
serialization order, close-once lifecycles, the executor boundary —
are pinned at runtime instead (DESIGN.md §10, "invariant → what pins
it").

Run it with ``python -m repro.devtools.lint src/repro``; suppress one
finding with a trailing ``# ipd-lint: disable=<rule>`` comment.  The
package deliberately imports none of the engine: linting a tree never
executes it.
"""

from .framework import (
    ContextVisitor,
    Finding,
    LintReport,
    Rule,
    SourceFile,
    build_rules,
    lint_paths,
    register,
    registered_rules,
)
from .markers import hot_path

__all__ = [
    "ContextVisitor",
    "Finding",
    "LintReport",
    "Rule",
    "SourceFile",
    "build_rules",
    "hot_path",
    "lint_paths",
    "register",
    "registered_rules",
]
