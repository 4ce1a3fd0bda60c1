"""Command line driver: pack gen | cover build | verify | experiment | render."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .canonical import minimal_canonical
from .covers import cover_from_json, cover_to_json
from .errors import C0CoverError
from .experiment import ExperimentConfig, report_to_json, run_experiment
from .packs import (
    KNOWN_DIMS,
    PackKind,
    default_ladder,
    generate_pack,
    ladder_from_json,
    pack_from_json,
    pack_to_json,
    read_json,
)
from .relations import LambdaSpec, ball_cover, controlled_E
from .svg import emit_svg
from .verify import verify_suite


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="c0cover", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="pack utilities")
    pack_sub = pack.add_subparsers(dest="pack_command", required=True)
    gen = pack_sub.add_parser("gen", help="generate an example pack")
    gen.add_argument("--kind", required=True, choices=sorted(KNOWN_DIMS))
    gen.add_argument("--params", default="{}", help="generator parameters as a JSON object")
    gen.add_argument("--out", required=True)

    cover = sub.add_parser("cover", help="cover utilities")
    cover_sub = cover.add_subparsers(dest="cover_command", required=True)
    build = cover_sub.add_parser("build", help="run the minimal-multiplicity pipeline on a pack file")
    build.add_argument("--pack", required=True)
    build.add_argument("--ladder", default=None, help="JSON ladder file (defaults to the harmonic ladder)")
    build.add_argument("--out", required=True)
    build.add_argument("--report", default=None, help="also write the pipeline report JSON")

    ver = sub.add_parser("verify", help="run the exhaustive and randomized property sweeps")
    ver.add_argument("--seed", type=int, default=0)
    # sizes the user leaves out come from verify_suite's own table
    ver.add_argument("--identities", type=int, default=argparse.SUPPRESS)
    ver.add_argument("--transfer", type=int, default=argparse.SUPPRESS)

    exp = sub.add_parser("experiment", help="run a configured experiment")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--svg", default=None)

    render = sub.add_parser("render", help="render a pack and cover to SVG")
    render.add_argument("--pack", required=True)
    render.add_argument("--cover", default=None)
    render.add_argument("--out", required=True)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except C0CoverError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "pack":
        pack = generate_pack(PackKind(args.kind, read_json(args.params, "--params")))
        Path(args.out).write_text(pack_to_json(pack))
        print(f"wrote {args.out}: {pack.n_points} points, k_sup={pack.k_sup:g}")
        return 0

    if args.command == "cover":
        pack = pack_from_json(Path(args.pack).read_text())
        ladder = (
            ladder_from_json(Path(args.ladder).read_text()) if args.ladder else default_ladder(pack)
        )
        gamma = ball_cover(controlled_E(pack, ladder, LambdaSpec.identity(ladder)))
        alpha, report = minimal_canonical(pack, gamma, ladder=ladder)
        Path(args.out).write_text(cover_to_json(alpha))
        if args.report:
            Path(args.report).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        print(f"wrote {args.out}: {len(alpha)} members, multiplicity {report.multiplicity}")
        return 0

    if args.command == "verify":
        summary = verify_suite(args.seed, {k: v for k, v in vars(args).items() if k in ("identities", "transfer")})
        for line in summary.lines():
            print(line)
        print("all pass" if summary.ok else "FAILURES detected")
        return 0 if summary.ok else 1

    if args.command == "experiment":
        config = ExperimentConfig.from_dict(read_json(Path(args.config).read_text(), args.config))
        report, alpha = run_experiment(config)
        Path(args.out).write_text(report_to_json(report))
        if args.svg:
            Path(args.svg).write_text(emit_svg(alpha.pack, alpha))
        ok = report["summary"]["all_pass"]
        print(f"wrote {args.out}: {'all stages pass' if ok else 'STAGE FAILURES'}")
        return 0 if ok else 1

    if args.command == "render":
        pack = pack_from_json(Path(args.pack).read_text())
        cov = cover_from_json(pack, Path(args.cover).read_text()) if args.cover else None
        Path(args.out).write_text(emit_svg(pack, cov))
        print(f"wrote {args.out}")
        return 0

    raise C0CoverError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
