"""Output checks of the benchmark.

Every check is a self-consistency check, never a pinned value: an
intended change to the campaign or the service moves both sides of each
comparison together, so it needs no benchmark edit.  Each function
returns a list of problems (empty = the check passed), so callers can
report every failure at once and tests can assert that a perturbed
output makes a check fire.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np


def new_digest():
    """The answers digest: BLAKE2 over relay ids and tiers, batch by batch
    (the same bytes ``repro.service.loadgen.replay`` hashes)."""
    return hashlib.blake2b(digest_size=16)


def update_digest(digest, relay_ids: np.ndarray, tier: np.ndarray) -> None:
    """Fold one answered batch into ``digest``."""
    digest.update(np.ascontiguousarray(relay_ids).tobytes())
    digest.update(np.ascontiguousarray(tier).tobytes())


def dark_answer_count(relay_ids: np.ndarray, dark: np.ndarray) -> int:
    """Answers whose top relay is dark this round.

    This is the availability definition of ``repro.timeline.chaos``: an
    answer is serviceable when its top relay is up, or when it carries
    no relay at all (a clean direct verdict).  ``dark`` is a boolean
    mask over the campaign's relay registry.
    """
    top = relay_ids[:, 0]
    got = top >= 0
    if not dark.any() or not got.any():
        return 0
    return int(np.count_nonzero(dark[top[got]]))


def fig2_lines(result) -> list[str]:
    """The summary lines ``repro analyze --report fig2`` prints first."""
    from repro.analysis.improvements import ImprovementAnalysis

    return [
        f"{key:>36}: {value}"
        for key, value in ImprovementAnalysis(result).summary().items()
    ]


def artifact_problems(in_memory, reloaded, analyze_stdout: str) -> list[str]:
    """campaign-cold: the stored artifact agrees with the live result.

    The reloaded artifact's ``summary()`` and fig2 summary must equal
    the in-memory result's, and the analyze process must have printed
    the in-memory fig2 summary.
    """
    from repro.analysis.improvements import ImprovementAnalysis

    problems = []
    if reloaded.summary() != in_memory.summary():
        problems.append(
            "reloaded artifact summary() differs from the in-memory result: "
            f"{reloaded.summary()} != {in_memory.summary()}"
        )
    if (
        ImprovementAnalysis(reloaded).summary()
        != ImprovementAnalysis(in_memory).summary()
    ):
        problems.append("reloaded artifact fig2 summary differs from the in-memory one")
    expected = fig2_lines(in_memory)
    printed = analyze_stdout.splitlines()[: len(expected)]
    if printed != expected:
        problems.append("analyze --report fig2 printed a different summary")
    return problems


def sweep_problems(artifacts: list[dict[str, Any]]) -> list[str]:
    """sweep-warm: paper shapes hold, and every run's deterministic
    section (everything but ``timing``) is identical."""
    problems = []
    if not artifacts:
        return ["no sweep artifact to check"]
    for index, artifact in enumerate(artifacts):
        if not artifact.get("shapes_ok"):
            problems.append(f"sweep {index}: paper-shape expectations failed")
    sections = [
        {k: v for k, v in artifact.items() if k != "timing"} for artifact in artifacts
    ]
    for index, section in enumerate(sections[1:], start=1):
        if section != sections[0]:
            problems.append(f"sweep {index}: deterministic section differs from sweep 0")
    return problems


def digest_problems(label: str, got: list[str], expected: list[str]) -> list[str]:
    """Serving: per-pool answers digests equal the reference service's."""
    if len(got) != len(expected):
        return [f"{label}: {len(got)} answer digests, expected {len(expected)}"]
    return [
        f"{label}: pool {index} answers digest {g} != reference {e}"
        for index, (g, e) in enumerate(zip(got, expected))
        if g != e
    ]
