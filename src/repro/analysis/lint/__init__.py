"""Project-invariant linter: the coding disciplines the guarantees rest on.

The repo stakes hard guarantees — bit-identical virtual-clock runs,
a serving tier confined to one thread plus a background checkpoint
saver, a ≤5% WAL hot-path tax — and every one of them rests on a coding
discipline that nothing used to enforce: one stray ``time.time()`` in a
virtual-clock path, one thread started beside the event loop, or one
``json.dumps`` on the fold path silently breaks the guarantee.  This
package checks those disciplines mechanically, as a CI gate next to ruff.

Four rule families (see :mod:`repro.analysis.lint.rules_clock`,
``rules_lock``, ``rules_rng``, ``rules_hotpath``):

=========  ==================================================================
``RPR0xx``  clock discipline — no wall-clock reads/sleeps outside allowlisted
            wall-clock modules; virtual-clock code takes a clock argument
``RPR1xx``  thread discipline — threads and locks are created only in
            ``# repro: threads`` modules; attributes declared
            ``# guarded-by: <lock>`` are only touched inside
            ``with self.<lock>:`` blocks
``RPR2xx``  RNG discipline — no global-state randomness; only seeded
            ``numpy.random.Generator``/``default_rng`` flowing from specs
``RPR3xx``  hot-path purity — ``# hot-path`` functions never serialize,
            fsync, log or allocate via concatenate/vstack
=========  ==================================================================

Run it with ``python -m repro.analysis [paths]`` or the ``repro-lint``
console script; suppress single findings with ``# repro: noqa[RPRxxx]``
and grandfather legacy ones in the committed JSON baseline
(``lint-baseline.json``), matched by (file, rule, symbol) so line drift
never resurrects them.
"""

from repro.analysis.lint.baseline import Baseline, split_new_findings
from repro.analysis.lint.framework import (
    Finding,
    LintConfig,
    Rule,
    all_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
    register,
    rule_table,
)
from repro.analysis.lint.runner import main, run_lint

# Importing the rule modules registers every rule family with the
# framework registry; the linter is unusable without them.
from repro.analysis.lint import (  # noqa: F401  (import-for-effect)
    rules_clock,
    rules_hotpath,
    rules_lock,
    rules_rng,
)

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "main",
    "register",
    "rule_table",
    "run_lint",
    "split_new_findings",
]
