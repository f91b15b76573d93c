"""Workloads of the glaw benchmark: the specs they need and their jobs.

A job is one `glaw` command line run in-process through `glaw.cli.main`.
Each job carries its own oracle: the exit code and a few hand-written facts
about the report (or, for a refused job, about the JSON error).  The sha256
of each canonical report without its `timings` field is a third check; the
digests in digests.json were recorded on the commit that introduced the
benchmark.
Spec names in braces (`{e6}`) are replaced by the path of the spec file the
set-up wrote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

E6 = "2,-1,0,0,0,0;-1,2,-1,0,0,0;0,-1,2,-1,0,-1;0,0,-1,2,-1,0;0,0,0,-1,2,0;0,0,-1,0,0,2"

# Spec name -> argv of `glaw gen`.  `short-b0` is derived from `g2-cubic` by
# dropping the last row of B0, so that the spec is malformed.
SPECS = {
    "gl3-cubic": ["sp", "--n", "3", "--p", "3", "--lambda", "1"],
    "e6": ["cartan", "--matrix", E6],
    "sym-square-3": ["sp", "--n", "3", "--p", "2", "--lambda", "2"],
    "sym-square-2": ["sp", "--n", "2", "--p", "2", "--lambda", "2"],
    "g2-cubic": ["sp", "--n", "2", "--p", "3", "--lambda", "1", "--form", "g2"],
    "g2-cubic-trivial": ["trivial-summand", "{g2-cubic}", "--k", "2"],
    "a4": ["cartan", "--matrix", "2,-1,0,0;-1,2,-1,0;0,-1,2,-1;0,0,-1,2"],
    "g2-principal": ["cartan", "--matrix", "2,-1;-3,2"],
    "hyperbolic": ["cartan", "--matrix", "2,-3;-3,2"],
    "glblock-2": ["glblock", "--n", "2", "--lambda1", "1", "--lambda2", "2"],
    "glblock-3": ["glblock", "--n", "3", "--lambda1", "1", "--lambda2", "2"],
    "sp-4": ["sp", "--n", "4", "--p", "2", "--lambda", "2"],
}
DERIVED_SPECS = {"short-b0": "g2-cubic"}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    exit: int = 0
    facts: dict = field(default_factory=dict)

    def specs(self) -> set[str]:
        return {a[1:-1] for a in self.argv if a.startswith("{") and a.endswith("}")}


E6_DIMS = [6, 5, 5, 5, 4, 3, 3, 2, 1, 1, 1, 0]

JOBS = {
    j.name: j
    for j in [
        Job(
            "grow-gl3-cubic",
            ("grow", "{gl3-cubic}", "--max-degree", "3", "--side", "pos"),
            facts={"dims": {"pos": [10, 45, 330]}},
        ),
        Job(
            "assemble-e6",
            ("assemble", "{e6}", "--max-degree", "12"),
            facts={"dim": 78, "killing_rank": 78, "center_dim": 0,
                   "degree_dims": E6_DIMS, "negative_degree_dims": E6_DIMS},
        ),
        Job(
            "pn-check-sym-square-3",
            ("pn-check", "{sym-square-3}", "--n", "3"),
            facts={"holds": True, "witness": None},
        ),
        # cli-mix catalogue
        Job("validate-g2-cubic", ("validate", "{g2-cubic}"), facts={"ok": True}),
        Job(
            "grow-g2-cubic",
            ("grow", "{g2-cubic}", "--max-degree", "4"),
            facts={"dims": {"pos": [4, 1, 0], "neg": [4, 1, 0]}, "pairing_ranks": [4, 1]},
        ),
        Job(
            "assemble-g2-cubic",
            ("assemble", "{g2-cubic}", "--max-degree", "4"),
            facts={"dim": 14, "killing_rank": 14, "center_dim": 0},
        ),
        Job(
            "dims-a4",
            ("dims", "{a4}", "--max-degree", "8"),
            facts={"dims": {"pos": [4, 3, 2, 1, 0], "neg": [4, 3, 2, 1, 0]}},
        ),
        Job("assemble-g2-principal", ("assemble", "{g2-principal}", "--max-degree", "8"), facts={"dim": 14}),
        Job(
            "dims-hyperbolic",
            ("dims", "{hyperbolic}", "--max-degree", "8"),
            facts={
                "dims": {"pos": [2, 1, 2, 3, 4, 5, 10, 14], "neg": [2, 1, 2, 3, 4, 5, 10, 14]},
                "terminated": {"pos": False, "neg": False},
            },
        ),
        Job(
            "pn-check-glblock-2",
            ("pn-check", "{glblock-2}", "--n", "2"),
            facts={"holds": False, "witness_indices": [[0], [0, 1]]},
        ),
        Job("pn-check-sym-square-2", ("pn-check", "{sym-square-2}", "--n", "3"), facts={"holds": True}),
        Job(
            "sl2-sym-square-2",
            ("sl2", "{sym-square-2}", "--poly", "x0^2+x1^2"),
            facts={"property_P": True, "residuals_zero": True},
        ),
        Job(
            "sl2-sym-square-3",
            ("sl2", "{sym-square-3}", "--poly", "x0^2+x1^2+x2^2"),
            facts={"property_P": True, "residuals_zero": True},
        ),
        Job(
            "centralizer-sym-square-3",
            ("centralizer", "{sym-square-3}", "--sub", "o(3)", "--max-degree", "1"),
            facts={"dims": {"-1": 1, "0": 1, "1": 1}},
        ),
        Job("reduce-g2-cubic-trivial", ("reduce", "{g2-cubic-trivial}")),
        Job("grow-g2-cubic-trivial", ("grow", "{g2-cubic-trivial}"), exit=3, facts={"kind": "precondition"}),
        Job("validate-short-b0", ("validate", "{short-b0}"), exit=2, facts={"kind": "parse"}),
        Job("validate-glblock-3", ("validate", "{glblock-3}"), facts={"ok": True}),
        Job("validate-sp-4", ("validate", "{sp-4}"), facts={"ok": True}),
        Job(
            "grow-sp-4",
            ("grow", "{sp-4}", "--max-degree", "4"),
            facts={"dims": {"pos": [10, 0], "neg": [10, 0]}, "pairing_ranks": [10]},
        ),
    ]
}

# Copies of each job in one cli-mix pass, listed from the cheapest job to the
# dearest (times at reference speed: tiny jobs 2-10 ms, a cluster at 28-31 ms,
# grow-g2-cubic and dims-a4 at 41-44 ms, grow-g2-cubic-trivial 52 ms,
# assemble-g2-cubic 66 ms, then 0.12-3 s).  Within one job a pass's times
# spread by about 12 %, so neighbouring groups overlap; each percentile rank is
# put well inside a large block instead.  The p50 rank (60, median_low of 120)
# falls inside the 32 copies of grow-g2-cubic (ranks 45-76); the p90 rank
# (108.1 with the inclusive method) inside the 24 copies of assemble-g2-cubic
# (ranks 91-114), well below the six medium jobs, and leaves 12 jobs beyond it.
CLI_MIX = {
    "validate-short-b0": 6,
    "validate-g2-cubic": 6,
    "sl2-sym-square-2": 6,
    "reduce-g2-cubic-trivial": 6,
    "pn-check-glblock-2": 8,
    "assemble-g2-principal": 6,
    "dims-hyperbolic": 6,
    "grow-g2-cubic": 32,
    "dims-a4": 6,
    "grow-g2-cubic-trivial": 8,
    "assemble-g2-cubic": 24,
    "sl2-sym-square-3": 1,
    "pn-check-sym-square-2": 1,
    "centralizer-sym-square-3": 1,
    "validate-glblock-3": 1,
    "validate-sp-4": 1,
    "grow-sp-4": 1,
}


@dataclass(frozen=True)
class Workload:
    name: str
    glaw_max_degree: str
    mix: dict  # job name -> copies per pass

    def jobs(self, seed: int) -> list[Job]:
        """One pass: the fixed multiset of jobs in an order set by the seed."""
        jobs = [JOBS[name] for name, copies in self.mix.items() for _ in range(copies)]
        random.Random(seed).shuffle(jobs)
        return jobs

    def specs(self) -> list[str]:
        """Every spec the jobs name, with the specs those are made from."""
        names = set().union(*(JOBS[j].specs() for j in self.mix))
        pending = list(names)
        while pending:
            for base in needs(pending.pop()):
                if base not in names:
                    names.add(base)
                    pending.append(base)
        return sorted(names)


def needs(spec: str) -> list[str]:
    """The specs that must be written before this one."""
    if spec in DERIVED_SPECS:
        return [DERIVED_SPECS[spec]]
    return [a[1:-1] for a in SPECS[spec] if a.startswith("{")]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("grow-wide", "8", {"grow-gl3-cubic": 1}),
        Workload("assemble-deep", "12", {"assemble-e6": 1}),
        Workload("pn-scan", "8", {"pn-check-sym-square-3": 1}),
        Workload("cli-mix", "8", CLI_MIX),
    ]
}
