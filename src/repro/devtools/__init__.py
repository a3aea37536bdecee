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
IPD006   fault-seam          every ``fault_hook`` parameter defaults to None
IPD007   no-pickle-hot-path  no object serialization inside ``@hot_path`` functions
IPD008   lookup-alloc-free   ``@hot_path`` ``lookup*`` never allocates containers
IPD009   codec-symmetry      encode/decode twins mirror each other's wire ops
IPD010   iteration-order-taint  unordered iteration never feeds serialized output
IPD011   executor-state-discipline  worker state crosses only the op protocol
IPD012   lifecycle-typestate close-exactly-once, no use after close
=======  ==================  ====================================================

IPD001–IPD008 are single-file visitor rules; IPD009–IPD012 are
cross-module dataflow rules built on the project symbol graph
(``project.py``) and the per-function CFG/fixpoint framework
(``dataflow.py``), with results cached by file content hash
(``--cache-dir``).

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
