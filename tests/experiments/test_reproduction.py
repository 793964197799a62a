"""``repro reproduce`` and its committed copy ``docs/REPRODUCTION.md``.

The document is the paper's checkable claims at scale 1.0: one row per
claim with a verdict, then the tables the claims are measured from.  The
committed file must be exactly what the verb prints, except for the one
wall-clock cell (the top-10 time) and the verdict drawn from it.
"""

import io
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.figures import CLAIMS, DIFFERS, HOLDS, OFFLINE

DOCUMENT = Path(__file__).resolve().parents[2] / "docs" / "REPRODUCTION.md"

#: The top-10 row's measured and verdict cells are wall-clock.
_TOP10_ROW = re.compile(r"^(\| Table 1: top-10 [^|]*\|[^|]*\|)[^|]*\|[^|]*\|$")


def _masked(text):
    return "\n".join(
        _TOP10_ROW.sub(r"\1 (wall-clock) | (wall-clock) |", line)
        for line in text.split("\n")
    )


def _claim_rows(text):
    section = text.split("## Claims", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def test_committed_document_is_what_the_verb_prints():
    out = io.StringIO()
    assert main(["reproduce"], out=out) == 0
    printed = out.getvalue()
    committed = DOCUMENT.read_text(encoding="utf-8")
    assert sum(1 for line in printed.split("\n") if _TOP10_ROW.match(line)) == 1
    assert _masked(printed) == _masked(committed), (
        "docs/REPRODUCTION.md is stale: regenerate it with "
        "`python -m repro reproduce > docs/REPRODUCTION.md`"
    )


def test_every_claim_row_has_a_verdict():
    rows = _claim_rows(DOCUMENT.read_text(encoding="utf-8"))
    assert [row[0] for row in rows] == [claim.claim for claim in CLAIMS]
    assert all(row[-1] in (HOLDS, DIFFERS, OFFLINE) for row in rows)


#: For each checked claim, a measured value that contradicts it.
CONTRADICTIONS = {
    "table1.size": {"q_ds": 5, "q_hto": 6, "q_hto2": 7, "q_hto3": 4, "q_hto4": 6, "q_lb": 6},
    "table1.concov_shw": {"q_ds": 2, "q_hto": 2, "q_hto2": 2, "q_hto3": 2, "q_hto4": 2, "q_lb": 2},
    "table1.bags": {"q_ds": (15, 14), "q_hto": (22, 33)},
    "table1.ctds": {"q_ds": 10, "q_lb": 0},
    "table1.top10": {"q_ds": 2.0, "q_hto": 70.0},
    "widths": {"H2": (2, 2, 3), "C5": (3, 2, 2)},
    "fhw": {"H2": True, "C5": False},
    "h2": (2, 2, 2),
    "c5": (2, 2),
    "irmw": {"H2": (3, 2)},
    "h3": False,
    "bog_star": False,
    "figure5.agreement": 0.4,
    "figure5.answers": 2,
    "figure5.span": (9330, 9000, 13160),
    "figure5.best": 1.5,
    "figure5.spread": 1.41,
    "figure6.baseline": {"q_hto": 35.3, "q_hto2": 1.7},
    "figure6.ablation": {"q_hto": 5.1, "q_hto2": 1.2},
    "appendix.answers": {"q_ds": 1, "q_hto2": 2},
    "appendix.costs": {"q_ds": (9, 7), "q_hto3": (7, 1)},
}


def test_every_checked_claim_has_a_contradiction():
    assert set(CONTRADICTIONS) == {c.key for c in CLAIMS if c.holds is not None}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.key)
def test_a_contradicting_measurement_differs(claim):
    if claim.holds is None:
        assert claim.verdict(None) == OFFLINE
    else:
        assert claim.verdict(CONTRADICTIONS[claim.key]) == DIFFERS
