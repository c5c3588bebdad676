"""Verdict registry for the acceptance tests.

Each acceptance test records exactly one line here; the conftest hook
prints them after the run so the verdicts survive pytest's capture.
Declarations happen at decoration time, so a criterion whose fixtures
blow up before the check still gets a FAIL line.  A measurement outside
the criteria adds an unnumbered note, printed in a section of its own.
"""

DECLARED: dict[int, str] = {}
LINES: dict[int, str] = {}
NOTES: list[str] = []


def declare(num: int, name: str) -> None:
    DECLARED[num] = name


def record(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    LINES[num] = f"criterion {num} ({name}): {verdict} [{detail}]"


def note(line: str) -> None:
    NOTES.append(line)


def summary_lines() -> list[str]:
    nums = sorted(set(DECLARED) | set(LINES))
    return [
        LINES.get(num)
        or f"criterion {num} ({DECLARED[num]}): FAIL [no verdict, setup errored]"
        for num in nums
    ]
