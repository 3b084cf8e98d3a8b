"""Golden digests of the CLI outputs on the shipped configs and of the
library's two eigen-paths.

Each CLI case runs one command in-process on configs/default.ini or
configs/stable.ini and compares its exit code and the sha256 of its stdout
and of every file it writes with tests/golden_outputs.json.  The stable
`evolve` runs from a copy of stable.ini with [evolve] t_end = 3 so the
whole file stays near 2 s.  Each library case hashes growth_rate's
(lam, iters, psi), or its ConvergenceFailure text, and companion_oracle's
(lam, v), or None, at every frequency of one physics: the slip walls of the
cross-check (symmetric oracle path) and the indefinite linear-down slab
(geev path).  A change that alters an output on purpose
updates its digest (regenerate with `python tests/test_golden_outputs.py`,
which prints each exit code and digest that changed, old -> new) and logs
that list in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

# slabrt before numpy, so a run as a script pins OpenBLAS as the suite does
from slabrt import (  # isort: skip
    SlabConfig,
    assemble_forms,
    build_grid,
    companion_oracle,
    growth_rate,
    preset_profile,
)

import numpy as np
import pytest

from slabrt.cli import main
from slabrt.errors import ConvergenceFailure

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
GOLDEN = HERE / "golden_outputs.json"

COMMANDS = {
    "check": ["check"],
    "critical": ["critical"],
    "dispersion": ["dispersion"],
    "mode": ["mode", "--xi", "2"],
    "evolve": ["evolve", "--xi", "2"],
    "escape": ["escape", "--epsilon", "0.1", "--delta", "1e-6", "--m0", "1"],
}
# name -> (profile, slab, n, frequencies)
LIBRARY = {
    "slip": (("tanh-layer", {"w": 0.05}), SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0),
             192, (1.0, 2.0, 4.0, 8.0)),
    "indefinite": (("linear-down", {}), SlabConfig(mu=0.5, g=1.0, k0=6.0, k1=6.0, L=1.0),
                   64, (2.0, 6.05)),
}
CASES = [f"{config}/{command}" for config in ("default", "stable") for command in COMMANDS]
CASES += [f"library/{name}" for name in LIBRARY]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def library_digest(name: str) -> str:
    """sha256 over both eigen-paths' answers at each frequency of one case."""
    (preset, params), c, n, xis = LIBRARY[name]
    p, grid = preset_profile(preset, **params), build_grid(n)
    h = hashlib.sha256()
    for xi in xis:
        try:
            ms = growth_rate(p, c, grid, xi)
            parts = [None] if ms is None else [ms.lam, ms.iters, ms.psi]
        except ConvergenceFailure as exc:
            parts = [str(exc)]
        oracle = companion_oracle(assemble_forms(p, c, grid, xi))
        parts += [None] if oracle is None else list(oracle)
        for part in parts:
            h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def run_case(case: str, work: Path) -> dict:
    """Exit code and digests of stdout and every written file for one CLI
    case; the library digest for a library case."""
    config, command = case.split("/")
    if config == "library":
        return {"sha256": library_digest(command)}
    path = CONFIGS / f"{config}.ini"
    if case == "stable/evolve":
        path = work / "stable-short.ini"
        path.write_text((CONFIGS / "stable.ini").read_text() + "\n[evolve]\nt_end = 3\n")
    out = work / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*COMMANDS[command], "--config", str(path), "--out", str(out)])
    files = sorted(f for f in out.rglob("*") if f.is_file()) if out.exists() else []
    return {"exit": code,
            "stdout": _sha(stdout.getvalue().encode()),
            "files": {f.relative_to(out).as_posix(): _sha(f.read_bytes()) for f in files}}


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, tmp_path):
    assert run_case(case, tmp_path) == json.loads(GOLDEN.read_text())[case]


def _flat(entry: dict) -> dict:
    return {**{k: v for k, v in entry.items() if k != "files"}, **entry.get("files", {})}


def changes(old: dict, new: dict) -> list:
    """One "case: output old -> new" line per exit code or digest that differs."""
    lines = []
    for case in sorted(old.keys() | new.keys()):
        before, after = _flat(old.get(case, {})), _flat(new.get(case, {}))
        for what in sorted(before.keys() | after.keys()):
            if before.get(what) != after.get(what):
                lines.append(f"{case}: {what} {before.get(what)} -> {after.get(what)}")
    return lines


def test_changes_lists_each_differing_output():
    old = {"a/x": {"exit": 0, "stdout": "s1", "files": {"f.json": "d1", "g.csv": "d2"}},
           "b/y": {"exit": 0, "stdout": "s2", "files": {}}}
    new = {"a/x": {"exit": 0, "stdout": "s1", "files": {"f.json": "d3", "g.csv": "d2"}},
           "b/y": {"exit": 2, "stdout": "s2", "files": {}}}
    assert changes(old, new) == ["a/x: f.json d1 -> d3", "b/y: exit 0 -> 2"]
    assert changes(old, old) == []


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = run_case(case, Path(tmp))
    for line in changes(old, golden):
        print(line)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
