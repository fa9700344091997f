"""Output checks for every workload, independent of the program's own code.

Each checker returns a list of problems (empty when the output is correct).
Sample rows are re-derived from the path word alone: d0 = #U + #H + 1,
d1 = #I, r = 1 + #(H at height 0), and the energy from the same formula the
program documents, so a bug in ``decode`` or ``degree_profile`` shows here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

SYMBOLS = "UHID"


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def word_profile(word: str, m: int) -> tuple[int, int, int] | None:
    """(d0, d1, r) read off a 2-Motzkin word, or None if it is not one of length m."""
    if len(word) != m:
        return None
    height = 0
    roots = 0
    for c in word:
        if c == "U":
            height += 1
        elif c == "D":
            height -= 1
            if height < 0:
                return None
        elif c == "H":
            roots += height == 0
        elif c != "I":
            return None
    if height != 0:
        return None
    return word.count("U") + word.count("H") + 1, word.count("I"), 1 + roots


def enumeration_hash(m: int) -> str:
    """SHA-256 of all paths of length m, lexicographic in U < H < I < D, newline-joined."""
    words: list[str] = []

    def rec(prefix: str, height: int) -> None:
        pos = len(prefix)
        if pos == m:
            words.append(prefix)
            return
        remaining = m - pos - 1
        for c, dh in (("U", 1), ("H", 0), ("I", 0), ("D", -1)):
            h = height + dh
            if 0 <= h <= remaining:
                rec(prefix + c, h)

    rec("", 0)
    return hashlib.sha256("\n".join(words).encode()).hexdigest()


def check_sample(data: Path, fmt: str, m: int, burn_in: int, thin: int) -> tuple[list[str], list[int]]:
    """Check every row of a sample run and its summary; return (problems, d0 series)."""
    problems: list[str] = []
    summary = json.loads(Path(str(data) + ".summary.json").read_text())
    alpha, beta = summary["alpha"], summary["beta"]
    emitted = summary["per_chain"][0]["emitted"]
    seen: dict[str, tuple[int, int, int, float] | None] = {}
    d0s: list[int] = []
    with open(data) as f:
        if fmt == "csv":
            header = f.readline().rstrip("\n")
            if header != "step,path,energy,d0,d1,r":
                problems.append(f"bad header {header!r}")
        for j, line in enumerate(f):
            if fmt == "csv":
                fields = line.rstrip("\n").split(",")
                if len(fields) != 6:
                    problems.append(f"row {j}: {len(fields)} fields")
                    break
                step, word, energy, d0, d1, r = fields
                row = (int(step), word, energy, int(d0), int(d1), int(r))
            else:
                obj = json.loads(line)
                row = (obj["step"], obj["path"], obj["energy"], obj["d0"], obj["d1"], obj["r"])
            step, word, energy, d0, d1, r = row
            if word not in seen:
                prof = word_profile(word, m)
                if prof is not None:
                    u, h, i = word.count("U"), word.count("H"), word.count("I")
                    prof = (*prof, alpha * (u + h + 1) + beta * i)
                seen[word] = prof
            expect = seen[word]
            if expect is None:
                problems.append(f"row {j}: {word!r} is not a path of length {m}")
            else:
                e_d0, e_d1, e_r, e_energy = expect
                e_energy = repr(e_energy) if fmt == "csv" else e_energy
                if (d0, d1, r, energy) != (e_d0, e_d1, e_r, e_energy):
                    problems.append(f"row {j}: {(d0, d1, r, energy)} != {expect}")
            if step != burn_in + j * thin:
                problems.append(f"row {j}: step {step} != {burn_in + j * thin}")
            d0s.append(d0)
            if len(problems) > 5:
                break
    if not problems and len(d0s) != emitted:
        problems.append(f"{len(d0s)} rows but summary says emitted={emitted}")
    return problems, d0s


def check_gap(report: dict, m: int, golden: dict, order_hash: str) -> list[str]:
    problems = []
    if report.get("m") != m:
        problems.append(f"m={report.get('m')} != {m}")
    if report.get("state_order_hash") != order_hash:
        problems.append("state_order_hash does not match the enumeration")
    if not report.get("residual", 1.0) <= 1e-9:
        problems.append(f"residual {report.get('residual')} > 1e-9")
    for key in ("gap", "lambda1"):
        if abs(report.get(key, float("inf")) - golden[key]) > 1e-8:
            problems.append(f"{key} {report.get(key)} differs from golden {golden[key]} by > 1e-8")
    return problems


def check_decompose(report: dict, golden: dict) -> list[str]:
    """bound_holds and every boolean flag true; every number within 1e-12 of golden."""
    problems: list[str] = []

    def walk(got, want, where: str) -> None:
        if len(problems) > 5:
            return
        if isinstance(want, dict):
            if not isinstance(got, dict) or set(got) != set(want):
                problems.append(f"{where}: keys differ from golden")
                return
            for k in want:
                walk(got[k], want[k], f"{where}.{k}")
        elif isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                problems.append(f"{where}: length differs from golden")
                return
            for i, (g, w) in enumerate(zip(got, want)):
                walk(g, w, f"{where}[{i}]")
        elif isinstance(want, bool) or isinstance(got, bool):
            if got is not True:
                problems.append(f"{where} is {got}")
            if got != want:
                problems.append(f"{where}: {got} != golden {want}")
        elif isinstance(want, float):
            if not isinstance(got, (int, float)) or abs(got - want) > 1e-12:
                problems.append(f"{where}: {got} differs from golden {want} by > 1e-12")
        elif got != want:
            problems.append(f"{where}: {got!r} != golden {want!r}")

    walk(report, golden, "report")
    if report.get("k_partition", {}).get("bound_holds") is not True:
        problems.append("bound_holds is not true")
    return problems
