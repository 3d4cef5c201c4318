#!/usr/bin/env python3
"""Golden-file self-test for tools/lint/ceio_lint.py.

Runs the checker over the seeded fixture trees in tools/lint/fixtures/ and
asserts:

  1. the violations tree produces exactly the findings recorded in
     fixtures/expected_findings.txt and exits 1; every rule is seeded there;
  2. no finding lands on a suppressed twin (`// lint: allow-<rule>` naming
     the finding's rule) or on a negative twin (a line marked `// ok`);
  3. a suppression naming another rule, and the retired
     `// analyze: allow-<rule>` spelling, silence nothing;
  4. the clean tree produces no findings and exits 0;
  5. --list-rules names all 12 rules, and --rule R reports exactly R's
     golden findings;
  6. usage errors (an unknown rule or option, a missing --root) exit 2.

Registered as the tools.lint-selftest ctest and run by tools/check.sh stage
1, so a rule going blind, a suppression breaking or an exit code flipping
fails the gate, not just the fixtures.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINT = HERE / "ceio_lint.py"
FIXTURES = HERE / "fixtures"
VIOLATIONS = FIXTURES / "violations"
EXPECTED = FIXTURES / "expected_findings.txt"
RULE_COUNT = 12

FINDING_RE = re.compile(r"^(\S+):(\d+): \[([a-z-]+)\] ")

failures: list[str] = []


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LINT), *args],
                          capture_output=True, text=True)


def findings_of(stdout: str) -> list[str]:
    return sorted(line for line in stdout.splitlines() if FINDING_RE.match(line))


def fixture_line(finding: str) -> tuple[str, str]:
    """(rule, raw fixture text) of the line a finding points at."""
    path, lineno, rule = FINDING_RE.match(finding).groups()
    return rule, (VIOLATIONS / path).read_text().split("\n")[int(lineno) - 1]


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"  {name}: {'ok' if ok else 'FAIL'}")
    if not ok:
        failures.append(name)
        if detail:
            print(detail, file=sys.stderr)


def main() -> int:
    expected = sorted(line for line in EXPECTED.read_text().splitlines()
                      if line.strip() and not line.startswith("#"))

    # 1. Violations tree matches the golden, exit code 1, every rule seeded.
    proc = run_lint("--root", str(VIOLATIONS))
    got = findings_of(proc.stdout)
    diff = "\n".join([f"  missing:    {l}" for l in expected if l not in got]
                     + [f"  unexpected: {l}" for l in got if l not in expected])
    check("violations-match-golden", got == expected, diff)
    check("violations-exit-1", proc.returncode == 1, f"  exit={proc.returncode}")
    listing = run_lint("--list-rules")
    rules = [line.split(":", 1)[0] for line in listing.stdout.splitlines()]
    seeded = {FINDING_RE.match(l).group(3) for l in expected}
    check("every-rule-seeded", set(rules) <= seeded,
          f"  unseeded={sorted(set(rules) - seeded)}")

    # 2. Twins stay silent.
    lines = [(f, *fixture_line(f)) for f in got]
    loud = [f for f, rule, text in lines
            if f"lint: allow-{rule}" in text or "// ok" in text]
    check("twins-silent", not loud, "\n".join(f"  {f}" for f in loud))

    # 3. Only the exact rule name in the current spelling suppresses.
    for probe in ("violation: wrong rule", "violation: retired spelling"):
        hit = any(probe in text for _, _, text in lines)
        check(f"not-suppressed ({probe.split(': ')[1]})", hit)

    # 4. Clean tree: no findings, exit 0.
    proc = run_lint("--root", str(FIXTURES / "clean"))
    check("clean-exit-0", proc.returncode == 0 and "ceio_lint: clean" in proc.stdout,
          f"  exit={proc.returncode} stdout={proc.stdout!r}")

    # 5. --list-rules names every rule; --rule R filters to R.
    check("list-rules", listing.returncode == 0 and len(rules) == RULE_COUNT,
          f"  listed={rules}")
    for rule in rules:
        proc = run_lint("--root", str(VIOLATIONS), "--rule", rule)
        want = [l for l in expected if f"[{rule}]" in l]
        check(f"rule-filter ({rule})",
              findings_of(proc.stdout) == want and proc.returncode == 1,
              f"  stdout={proc.stdout!r}")

    # 6. Usage errors.
    for args in (("--rule", "no-such-rule"), ("--no-such-option",),
                 ("--root", str(FIXTURES / "no-such-tree"))):
        proc = run_lint(*args)
        check(f"usage-exit-2 ({args[0]})", proc.returncode == 2, f"  exit={proc.returncode}")

    if failures:
        print(f"test_ceio_lint: FAILED ({', '.join(failures)})", file=sys.stderr)
        return 1
    print("test_ceio_lint: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
