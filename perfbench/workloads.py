"""The benchmark's workloads, built on c0cover's public entry points.

Each workload turns a seed into a list of operations.  An operation's
``run`` is the timed call into the library; its ``check`` (untimed) reads
back what the call produced and returns the seed-independent meaning of
that output, which the runner hashes and compares with the recorded
fingerprint.  Library calls go through module attributes at call time, so
the tracer's rebound names are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import c0cover as cc
from c0cover import cli, covers, verify


class OpFailed(Exception):
    """The library returned, but not with a verified result."""


@dataclass(frozen=True)
class Outcome:
    meaning: object | None  # hashed into the fingerprint; None for outputs with no recorded meaning
    nbytes: int  # bytes of every file or serialised result the operation produced
    ops: int = 1  # operations this call stands for (one per verify check)
    bad: int = 0  # of those, how many reported a failed verdict


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    timed: bool = True  # False: run once per traced run, outside the timed iterations


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _require_exit0(rc: int) -> None:
    if rc != 0:
        raise OpFailed(f"exit code {rc}")


def _cover_meaning(members, report: dict, perturb: bool) -> dict:
    alpha = sorted(sorted(int(p) for p in m) for m in members)
    if perturb:
        alpha = alpha[1:]
    return {
        "alpha": alpha,
        "multiplicity": report["multiplicity"],
        "subsequence": list(report["subsequence"]),
        "orphans_completed": report["orphans_completed"],
        "witness_ok": report["witness_ok"],
    }


# -- experiment-mix: the `experiment` subcommand on four configs ---------------------

# The configs use 10-level ladders (1,911 rungs) and packs of about 360 points,
# not the 12-level (11,924 rungs), 845-point defaults: at the defaults one
# iteration takes 10-12 s, too long to be timed ten times within a run.
CANDIDATES = 40
EXPERIMENTS = [
    ("interval_cylinder", {"n_base": 33, "n_levels": 10}),
    ("circle_in_disk", {"n_angles": 32, "n_levels": 10}),
    # 3x10 passes; the default 3x6 is rejected by the uniformity verdict
    ("finite_cylinder", {"n_base": 3, "n_levels": 10}),
    ("countable_example", {}),
]


def _check_experiment(report_path: Path, svg_path: Path, rc: int) -> Outcome:
    _require_exit0(rc)
    report = json.loads(report_path.read_text())
    stages = {s["name"]: s["data"] for s in report["stages"]}
    meaning = {"stages": [[s["name"], s["verdict"]] for s in report["stages"]]}
    if "minimal_canonical" in stages:
        data = stages["minimal_canonical"]
        meaning |= {k: data[k] for k in ("multiplicity", "subsequence", "orphans_completed", "witness_ok")}
    if "lower_bound_sweep" in stages:
        sweep = stages["lower_bound_sweep"]
        meaning["deep_witness_resolved"] = sweep["deep_witness_resolved"]
        meaning["violations"] = len(sweep["violations"])
    if "countable_counterexample" in stages:
        meaning["multiplicity"] = stages["countable_counterexample"]["multiplicity"]
    return Outcome(meaning, report_path.stat().st_size + svg_path.stat().st_size)


def experiment_mix(seed: int, smoke: bool, work: Path, perturb: bool, trace: bool) -> list[Op]:
    # the reports carry no alpha members, so there is nothing here for perturb to drop
    ops = []
    for kind, params in EXPERIMENTS[2:] if smoke else EXPERIMENTS:
        config, report, svg = (work / f"{kind}.{ext}" for ext in ("config.json", "report.json", "svg"))
        candidates = 10 if smoke else CANDIDATES
        config.write_text(json.dumps({"kind": kind, "params": params, "candidates": candidates, "seed": seed}))
        argv = ["experiment", "--config", str(config), "--out", str(report), "--svg", str(svg)]
        ops.append(Op(f"experiment:{kind}", partial(_cli, argv), partial(_check_experiment, report, svg)))
    return ops


# -- cover-scale: the `cover build` pipeline in process, at three pack sizes ----------

COVER_SIZE = (65, 12)  # interval_cylinder with 845 points, timed in every iteration
# 1935 and 3855 points take about 6 s and 25 s (600 MB), too long to repeat
# within a run, so they are built once per traced run for the scaling metrics
SCALE_SIZES = [(129, 14), (257, 14)]


def _build_cover(pack):
    ladder = cc.default_ladder(pack)
    gamma = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))
    alpha, report = cc.minimal_canonical(pack, gamma, cc.provider_for(pack), ladder)
    text = covers.cover_to_json(alpha) + json.dumps(report.to_dict(), sort_keys=True, indent=2)
    return alpha, report, len(text)


def _check_cover(perturb: bool, result) -> Outcome:
    alpha, report, nbytes = result
    return Outcome(_cover_meaning(alpha.members, report.to_dict(), perturb), nbytes)


def cover_scale(seed: int, smoke: bool, work: Path, perturb: bool, trace: bool) -> list[Op]:
    sizes = [(COVER_SIZE, True)]
    if trace and not smoke:
        sizes += [(size, False) for size in SCALE_SIZES]
    ops = []
    for (n_base, n_levels), timed in sizes:
        pack = cc.generate_pack("interval_cylinder", n_base=n_base, n_levels=n_levels)
        name = f"cover:n{pack.n_points}"
        ops.append(Op(name, partial(_build_cover, pack), partial(_check_cover, perturb), timed))
    return ops


# -- cli-files: pack gen -> cover build --report -> render through files -------------

CLI_PACKS = EXPERIMENTS[:2]  # the experiment-mix packs, about 360 points each


def _check_file(path: Path, rc: int) -> Outcome:
    _require_exit0(rc)
    return Outcome(None, path.stat().st_size)


def _check_cover_files(pack, cover_path: Path, report_path: Path, perturb: bool, rc: int) -> Outcome:
    _require_exit0(rc)
    alpha = covers.cover_from_json(pack, cover_path.read_text())
    meaning = _cover_meaning(alpha.members, json.loads(report_path.read_text()), perturb)
    return Outcome(meaning, cover_path.stat().st_size + report_path.stat().st_size)


def cli_files(seed: int, smoke: bool, work: Path, perturb: bool, trace: bool) -> list[Op]:
    ops = []
    for kind, params in CLI_PACKS[1:] if smoke else CLI_PACKS:
        pack, cover, report, svg = (
            work / f"{kind}.{ext}" for ext in ("pack.json", "cover.json", "report.json", "svg")
        )
        reference = cc.generate_pack(kind, **params)  # reads the cover file back for the fingerprint
        ops += [
            Op(
                f"cli:{kind}:pack-gen",
                partial(
                    _cli, ["pack", "gen", "--kind", kind, "--params", json.dumps(params), "--out", str(pack)]
                ),
                partial(_check_file, pack),
            ),
            Op(
                f"cli:{kind}:cover-build",
                partial(
                    _cli, ["cover", "build", "--pack", str(pack), "--out", str(cover), "--report", str(report)]
                ),
                partial(_check_cover_files, reference, cover, report, perturb),
            ),
            Op(
                f"cli:{kind}:render",
                partial(_cli, ["render", "--pack", str(pack), "--cover", str(cover), "--out", str(svg)]),
                partial(_check_file, svg),
            ),
        ]
    return ops


# -- verify-sweep: the brute-force property sweeps on tiny packs ---------------------

# a fifth of the sizes measured at first (about 8 s), so an iteration takes about 2 s;
# identities and transfer match the `verify` subcommand's defaults
VERIFY_SIZES = {"identities": 2000, "ext_random": 200, "transfer": 500, "star": 200, "shrink": 200}


def _verify(seed: int, sizes: dict):
    return verify.verify_suite(seed, sizes)


def _check_verify(summary) -> Outcome:
    checks = [[r.name, r.ok] for r in summary.results]
    nbytes = len("\n".join(summary.lines()).encode())
    return Outcome(checks, nbytes, ops=len(checks), bad=sum(not ok for _, ok in checks))


def verify_sweep(seed: int, smoke: bool, work: Path, perturb: bool, trace: bool) -> list[Op]:
    sizes = {k: max(v // 50, 10) for k, v in VERIFY_SIZES.items()} if smoke else VERIFY_SIZES
    return [Op("verify:suite", partial(_verify, seed, sizes), _check_verify)]


WORKLOADS = {
    "experiment-mix": experiment_mix,
    "cover-scale": cover_scale,
    "cli-files": cli_files,
    "verify-sweep": verify_sweep,
}


# -- default-parameters probe --------------------------------------------------------

GENERATORS = ["finite_cylinder", "interval_cylinder", "circle_in_disk", "cube_face", "countable_example"]


def default_build_exit2(work: Path) -> int:
    """How many generators, at their default parameters, make `pack gen` + `cover build` exit 2."""
    exit2 = 0
    for kind in GENERATORS:
        pack, cover = work / f"probe-{kind}.pack.json", work / f"probe-{kind}.cover.json"
        try:
            rc = _cli(["pack", "gen", "--kind", kind, "--out", str(pack)])
            if rc == 0:
                rc = _cli(["cover", "build", "--pack", str(pack), "--out", str(cover)])
        except Exception:  # an untyped failure is a defect too, but not an exit 2
            traceback.print_exc()
            rc = None
        exit2 += rc == 2
    return exit2
