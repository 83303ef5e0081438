"""What counts as a correct answer, shared by the worker, make_reference.py
and the self-tests.

CLI answers must reproduce the reference stdout byte for byte (compared by
SHA-256) with the same exit code.  Check answers must reproduce the verdict
and the detail text with its timing fragments masked; a budgeted check that
only missed its time budget is not an error (its margin is reported as a
per-layer metric instead).
"""

import hashlib
import re

_TIMING = re.compile(r"\d+\.\d+s\b")
_BUDGET = re.compile(r"in (\d+\.\d+)s \(budget (\d+(?:\.\d+)?)s\)")


def request_key(request) -> str:
    return " ".join(request)


def mask(detail: str) -> str:
    return _TIMING.sub("<t>s", detail)


def budget(detail: str):
    """(elapsed, budget) in seconds as a budgeted check reports them, or None."""
    match = _BUDGET.search(detail)
    return (float(match.group(1)), float(match.group(2))) if match else None


def only_budget_missed(detail: str) -> bool:
    timing = budget(detail)
    return timing is not None and timing[0] >= timing[1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expected_answer(answer: dict) -> dict:
    """Reduce a raw answer to the form stored in the reference."""
    if "stdout" in answer:
        return {"exit": answer["exit"], "sha256": digest(answer["stdout"])}
    return {
        "ok": answer["ok"] or only_budget_missed(answer["detail"]),
        "detail": mask(answer["detail"]),
    }


def matches(expected: dict, answer) -> bool:
    """Whether a raw answer (None if the request raised) is correct."""
    if answer is None:
        return False
    if "stdout" in answer:
        return answer["exit"] == expected["exit"] and digest(answer["stdout"]) == expected["sha256"]
    if mask(answer["detail"]) != expected["detail"]:
        return False
    return answer["ok"] == expected["ok"] or (expected["ok"] and only_budget_missed(answer["detail"]))
