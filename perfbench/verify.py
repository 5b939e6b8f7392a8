"""Output checking: result digests, ``expected.json`` and the sampled event-loop reference.

A result *fails* when ``guarantees_hold`` is false (every benchmark scenario
is a tolerated one), or when the digest of its
:data:`~repro.experiments.common.MEASURED_RESULT_FIELDS` differs from the
reference.  The reference is ``expected.json`` at the default seed (exact
counts and one digest per grid point, regenerated only by
``run.py --write-expected``) and, at any other seed, a seeded sample of grid
points re-run serially with ``kernel="event"`` -- the repo's parity oracle.
At every seed, each pass must also repeat the warm-up pass's totals exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.experiments.common import MEASURED_RESULT_FIELDS
from repro.workloads.scenarios import run_scenario

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0

#: Grid points re-run on the event loop at a non-default seed, drawn from
#: those with at most :data:`REFERENCE_MAX_N` processes so the oracle costs a
#: fraction of a second rather than a pass.
REFERENCE_SAMPLE = 2
REFERENCE_MAX_N = 28


def result_digest(result) -> str:
    """Digest of every measured field (execution provenance excluded)."""
    measured = repr(tuple(getattr(result, name) for name in MEASURED_RESULT_FIELDS))
    return hashlib.sha256(measured.encode()).hexdigest()[:16]


@dataclass
class Tally:
    """Exact counts of one pass, and what failed in it."""

    cells: int = 0
    runs: int = 0
    total_messages: int = 0
    #: Messages of the results every lane of which the vector kernel served.
    vector_messages: int = 0
    vector_lanes: int = 0
    fallback_lanes: int = 0
    ineligible_lanes: int = 0
    failed: int = 0
    #: Description of the first failing grid point, for the report.
    first_failure: str = ""
    digests: dict = field(default_factory=dict)

    def counts(self) -> dict:
        return {
            "cells": self.cells,
            "runs": self.runs,
            "total_messages": self.total_messages,
            "vector_messages": self.vector_messages,
            "vector_lanes": self.vector_lanes,
            "fallback_lanes": self.fallback_lanes,
            "ineligible_lanes": self.ineligible_lanes,
        }


class Checker:
    """Checks every result of every pass against the workload's reference."""

    def __init__(self, reference_digests: dict, reference_counts=None) -> None:
        #: ``{cell_id: digest}``; grid points absent from it are only checked
        #: for ``guarantees_hold`` and for repeating the warm-up pass.
        self.reference_digests = reference_digests
        #: Exact per-pass counts, when known up front (default seed).
        self.reference_counts = reference_counts
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""
        self._tally = Tally()

    @classmethod
    def for_workload(cls, workload) -> "Checker":
        """The reference for ``workload``: committed at the default seed, sampled otherwise."""
        # ``egrid_full`` has no seeded inputs: every seed is the committed one.
        if not workload.groups or workload.seed == DEFAULT_SEED:
            expected = load_expected().get(workload.name)
            if expected is None:
                raise SystemExit(
                    f"perfbench/expected.json has no entry for {workload.name!r}; "
                    "run `python perfbench/run.py --write-expected`"
                )
            return cls(expected["digests"], expected["counts"])
        candidates = [
            cell for cell in workload.reference_cells() if cell[1].params.n <= REFERENCE_MAX_N
        ]
        sample = random.Random(workload.seed).sample(candidates, REFERENCE_SAMPLE)
        digests = {
            cell_id: result_digest(run_scenario(replace(scenario, kernel="event"), trace_level=level))
            for cell_id, scenario, level in sample
        }
        return cls(digests)

    def sink(self, cells: list) -> None:
        """Fold one timed segment's results into the current pass's tally."""
        tally = self._tally
        for cell in cells:
            result = cell.result
            tally.cells += 1
            tally.runs += result.scenario.replications
            tally.total_messages += result.total_messages
            provenance = result.kernel_provenance
            if provenance is not None:
                tally.vector_lanes += provenance.vector_lanes
                tally.fallback_lanes += provenance.fallback_lanes
                tally.ineligible_lanes += provenance.ineligible_lanes
                if provenance.vector_lanes == provenance.total_lanes:
                    tally.vector_messages += result.total_messages
            digest = result_digest(result)
            problem = ""
            if not result.guarantees_hold:
                problem = "a guarantee does not hold"
            else:
                # The reference if it has this grid point, else an earlier
                # occurrence in this pass (``cache_warm`` serves every grid
                # point twenty times), else nothing to differ from.
                known = self.reference_digests.get(cell.cell_id, tally.digests.get(cell.cell_id, digest))
                if digest != known:
                    problem = f"digest {digest} != reference {known}"
            tally.digests[cell.cell_id] = digest
            if problem:
                tally.failed += 1
                if not tally.first_failure:
                    tally.first_failure = f"{cell.cell_id} ({result.scenario.name}): {problem}"

    def end_pass(self) -> Tally:
        """Close the current pass: compare its counts, return its tally, start a new one."""
        tally, self._tally = self._tally, Tally()
        if self.reference_counts is None:
            # First (warm-up) pass at a sampled seed: later passes must repeat it.
            self.reference_counts = tally.counts()
            self.reference_digests = {**tally.digests, **self.reference_digests}
        elif tally.counts() != self.reference_counts:
            tally.failed += 1
            if not tally.first_failure:
                tally.first_failure = f"counts {tally.counts()} != reference {self.reference_counts}"
        self.attempted += tally.cells
        self.failed += tally.failed
        if tally.first_failure and not self.first_failure:
            self.first_failure = tally.first_failure
        return tally


def load_expected() -> dict:
    with EXPECTED_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def write_expected(tallies: dict) -> None:
    """Commit ``{workload: Tally}`` of default-seed passes as the new reference."""
    payload = {
        name: {"counts": tally.counts(), "digests": tally.digests} for name, tally in sorted(tallies.items())
    }
    with EXPECTED_PATH.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
