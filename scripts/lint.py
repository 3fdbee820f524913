#!/usr/bin/env python3
"""Project lint for the colcom source tree.

Static rules that keep the simulator deterministic and its library layers
clean. All rules operate on src/ (the simulated/library code); bench,
examples and tests are CLI surfaces and may print or parse argv freely.

Rules
  wall-clock    simulated code must take time from des::Engine / comm.wtime,
                never from the host (chrono clocks, time(), gettimeofday,
                clock_gettime): host time breaks run-to-run bit-identity.
  unseeded-rand nondeterministic randomness (std::random_device, rand,
                srand) is forbidden everywhere in src/; every random draw
                must come from an explicitly seeded util/prng or the chaos
                schedule so the same seed replays the same run.
  printf        library code reports through iostream / trace / structured
                errors, not the printf output family (snprintf formatting
                into a buffer is fine).
  include       headers use #pragma once; no "../" relative includes; every
                quoted project include must resolve under src/.
  raw-checksum  checksums in simulated code go through integrity::checksum /
                integrity::Hasher / integrity::store_checksum (trace-metered,
                samplable, combinable), never a private copy of the
                primitive: a hand-rolled hash loop bypasses the integrity
                accounting that the detected == recovered + failed invariant
                audits. A copy is recognised by the XXH64 round constants
                PRIME64_1 / PRIME64_2 as hex literals anywhere outside
                src/integrity/, where the one implementation lives.
  raw-tag       internal message tags live in the negative space below -1000
                and must be spelled as named constexpr constants (kPlanTag,
                kAgreeTagBase, ...) registered with check::register_tag — a
                raw negative literal of tag magnitude anywhere else collides
                silently and defeats the tag-registry diagnostics. The
                constexpr definition line itself is exempt.

A finding on a line carrying `// lint: allow(<rule>)` is waived.

Usage: scripts/lint.py [root]   (exit 0 clean, 1 findings, prints each as
                                 path:line: [rule] message)
"""

import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".hpp"}

RULES = [
    (
        "wall-clock",
        re.compile(
            r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
            r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
            r"|\btime\s*\(\s*(NULL|nullptr|0)\s*\)"
        ),
        "host wall-clock in simulated code (use virtual time)",
    ),
    (
        "unseeded-rand",
        re.compile(r"std::random_device|[^\w:](s?rand)\s*\(|\brandom\s*\(\s*\)"),
        "nondeterministic randomness (use a seeded util/prng)",
    ),
    (
        "printf",
        re.compile(r"(?<![\w:])(std::)?(printf|fprintf|puts|fputs|putchar)\s*\("),
        "printf-family output in library code (use iostream or trace)",
    ),
]

# Internal-tag namespace: a negative literal of 4+ digits used outside a
# constexpr constant definition (see the raw-tag rule above).
RAW_TAG = re.compile(r"(^|[^\w.])-\d{4,}\b")
CONSTEXPR_DEF = re.compile(r"\bconstexpr\b")

# The checksum primitive's round constants outside the integrity module (see
# raw-checksum above): XXH64 PRIME64_1 and PRIME64_2.
CHECKSUM_CONSTANT = re.compile(r"0x9e3779b185ebca87|0xc2b2ae3d27d4eb4f",
                               re.IGNORECASE)

LINE_COMMENT = re.compile(r"//.*$")
STRING = re.compile(r'"(\\.|[^"\\])*"')
ALLOW = re.compile(r"//\s*lint:\s*allow\(([\w-]+(?:\s*,\s*[\w-]+)*)\)")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def waived(line: str, rule: str) -> bool:
    m = ALLOW.search(line)
    if not m:
        return False
    return rule in {r.strip() for r in m.group(1).split(",")}


def strip_code(line: str) -> str:
    """Remove string literals and line comments so rules match code only."""
    return LINE_COMMENT.sub("", STRING.sub('""', line))


def lint_file(path: Path, src_root: Path, findings: list) -> None:
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    rel = path.relative_to(src_root.parent)

    if path.suffix == ".hpp" and "#pragma once" not in text:
        findings.append((rel, 1, "include", "header missing #pragma once"))

    in_block_comment = False
    for i, raw in enumerate(lines, 1):
        line = raw
        # Cheap block-comment tracking: good enough for this codebase's
        # comment style (no code after */ on the same line).
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
                line = line.split("*/", 1)[1]
            else:
                continue
        if "/*" in line and "*/" not in line:
            in_block_comment = True
            line = line.split("/*", 1)[0]

        inc = INCLUDE.match(line)
        if inc:
            target = inc.group(1)
            if target.startswith(".."):
                if not waived(raw, "include"):
                    findings.append(
                        (rel, i, "include", f'relative include "{target}"')
                    )
            elif not (src_root / target).is_file():
                if not waived(raw, "include"):
                    findings.append(
                        (rel, i, "include",
                         f'"{target}" does not resolve under src/')
                    )
            continue

        code = strip_code(line)
        for rule, pattern, message in RULES:
            if pattern.search(code) and not waived(raw, rule):
                findings.append((rel, i, rule, message))
        if (
            "integrity" not in rel.parts
            and CHECKSUM_CONSTANT.search(code)
            and not waived(raw, "raw-checksum")
        ):
            findings.append(
                (rel, i, "raw-checksum",
                 "checksum round constant outside src/integrity/ (use "
                 "integrity::checksum / integrity::Hasher)")
            )
        if (
            RAW_TAG.search(code)
            and not CONSTEXPR_DEF.search(code)
            and not waived(raw, "raw-tag")
        ):
            findings.append(
                (rel, i, "raw-tag",
                 "raw internal tag literal (define a constexpr k*Tag "
                 "constant and register it with check::register_tag)")
            )


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    src_root = root / "src"
    findings = []
    for path in sorted(src_root.rglob("*")):
        if path.suffix in CPP_SUFFIXES:
            lint_file(path, src_root, findings)
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: [{rule}] {message}")
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print(f"lint: clean ({sum(1 for p in src_root.rglob('*') if p.suffix in CPP_SUFFIXES)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
