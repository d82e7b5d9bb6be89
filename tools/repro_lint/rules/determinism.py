"""RPR001: seeded determinism on the simulation/engine paths.

The simulation engine, the failure models and the measured-vs-analytic
``compare`` path must be replayable from a seed: golden-number tests, the
perf-trajectory gates and paper-figure benchmarks all depend on it.  Inside
those modules every RNG construction must receive an explicit seed
expression, and wall-clock entropy sources are banned outright.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro_lint.framework import Finding, ParsedModule, Rule, register_rule
from repro_lint.rules._helpers import attr_chain, imported_names_from

#: Path fragments of the deterministic engine surface (POSIX form).
ENGINE_PATHS = (
    "repro/simulation/",
    "repro/storage/failures.py",
    "repro/system/backup.py",
    "repro/system/catalogue.py",
    "repro/system/compare.py",
    "repro/system/frontend.py",
    "repro/system/transitions.py",
)

#: Dotted calls that read the wall clock or process entropy.
BANNED_CALLS = {
    "time.time": "reads the wall clock",
    "time.time_ns": "reads the wall clock",
    "time.monotonic": "reads the wall clock",
    "time.perf_counter": "reads the wall clock",
    "datetime.now": "reads the wall clock",
    "datetime.utcnow": "reads the wall clock",
    "datetime.datetime.now": "reads the wall clock",
    "datetime.datetime.utcnow": "reads the wall clock",
    "date.today": "reads the wall clock",
    "datetime.date.today": "reads the wall clock",
    "uuid.uuid1": "derives entropy from host state",
    "uuid.uuid4": "derives entropy from os.urandom",
    "os.urandom": "derives entropy from the OS",
    "secrets.token_bytes": "derives entropy from the OS",
}

#: ``random.<fn>`` calls that consume the *global* (unseeded) Mersenne state.
GLOBAL_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "randbytes",
    "getrandbits",
    "seed",
}


def _is_seedless(call: ast.Call) -> bool:
    """True when the call passes no seed expression at all (or ``seed=None``)."""
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for keyword in call.keywords:
        if keyword.arg == "seed":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is None
        if keyword.arg is None:  # **kwargs: cannot prove seedless
            return False
    return True


@register_rule
class DeterminismRule(Rule):
    code = "RPR001"
    name = "seeded-determinism"
    summary = (
        "engine paths must seed every RNG explicitly and never read the "
        "wall clock or OS entropy"
    )

    def applies_to(self, display_path: str) -> bool:
        return any(fragment in display_path for fragment in ENGINE_PATHS)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        rng_aliases: Set[str] = imported_names_from(module.tree, "numpy.random")
        random_aliases: Set[str] = imported_names_from(module.tree, "random")

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = attr_chain(node.func)
            if dotted is None:
                continue

            tail = dotted.rsplit(".", 1)[-1]
            is_default_rng = dotted.endswith(".default_rng") or (
                dotted == "default_rng" and "default_rng" in rng_aliases
            )
            is_random_random = dotted == "random.Random" or (
                dotted == "Random" and "Random" in random_aliases
            )
            if (is_default_rng or is_random_random) and _is_seedless(node):
                yield self.finding(
                    module,
                    node,
                    f"`{dotted}(...)` on an engine path must pass an explicit "
                    "seed expression (argless construction is "
                    "non-reproducible)",
                )
                continue

            if dotted in BANNED_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"`{dotted}()` {BANNED_CALLS[dotted]}; engine paths must "
                    "be replayable from a seed",
                )
                continue

            if dotted.startswith("random.") and tail in GLOBAL_RANDOM_FNS:
                yield self.finding(
                    module,
                    node,
                    f"`{dotted}()` uses the global unseeded RNG; construct "
                    "`random.Random(seed)` instead",
                )
