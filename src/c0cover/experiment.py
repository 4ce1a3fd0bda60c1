"""Experiment orchestration: config -> deterministic staged report.

Stages: generate the pack, build the controlled relation and its ball cover,
run the minimal-multiplicity pipeline, then sweep the lower bound over the
constructed covers plus randomized uniform candidates.  Every verdict and
tolerance lands in the report so runs are auditable and reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .canonical import minimal_canonical
from .covers import (
    Cover,
    multiplicity,
    singleton_cover,
    uniformity_verdict,
    whole_space_cover,
)
from .cylinder import lower_bound_check, random_uniform_candidates
from .errors import BadParams
from .packs import DiscretePack, PackKind, ScaleLadder, default_ladder, generate_pack
from .relations import (
    DEFAULT_LIMIT_TOL,
    LambdaSpec,
    _check_tol,
    ball_cover,
    c0_modulus,
    controlled_E,
    full_relation,
)

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)
    ladder: list[float] | None = None
    lambda_kind: str = "identity"  # or "constant:<value>"
    provider: str = "auto"
    candidates: int = 200
    seed: int = 0
    c0_tol: float = DEFAULT_LIMIT_TOL
    unif_tol: float = DEFAULT_LIMIT_TOL

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise BadParams("kind must be a string")
        if not isinstance(self.params, dict):
            raise BadParams("params must be an object")
        if self.ladder is not None and not isinstance(self.ladder, (list, tuple)):
            raise BadParams("ladder must be a list of numbers")
        if not isinstance(self.lambda_kind, str):
            raise BadParams("lambda_kind must be a string")
        if self.provider != "auto":
            raise BadParams(f"unknown provider {self.provider!r}; only 'auto' is shipped")
        for name in ("candidates", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= 0):
                raise BadParams(f"{name} must be a nonnegative integer")
        for name in ("c0_tol", "unif_tol"):
            _check_tol(name, getattr(self, name))

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise BadParams("an experiment config must be a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise BadParams(f"unknown config keys {unknown}")
        if "kind" not in obj:
            raise BadParams("config needs a kind")
        return cls(**obj)


def _lambda_for(config: ExperimentConfig, ladder: ScaleLadder) -> LambdaSpec:
    if config.lambda_kind == "identity":
        return LambdaSpec.identity(ladder)
    if config.lambda_kind.startswith("constant:"):
        try:
            c = float(config.lambda_kind.split(":", 1)[1])
        except ValueError:
            raise BadParams(f"bad constant in lambda kind {config.lambda_kind!r}") from None
        return LambdaSpec.constant(ladder, c)
    raise BadParams(f"unknown lambda kind {config.lambda_kind!r}")


def run_experiment(config: ExperimentConfig) -> tuple[dict, Cover]:
    """Execute the full pipeline for a config; returns (report, alpha), alpha
    being the cover the report describes (the singleton cover for the
    countable pack)."""
    stages = []
    ok = True

    def stage(name: str, verdict: bool, data: dict) -> None:
        nonlocal ok
        ok = ok and verdict
        stages.append({"name": name, "verdict": "pass" if verdict else "fail", "data": data})

    pack = generate_pack(PackKind(config.kind, dict(config.params)))
    stage(
        "pack",
        True,
        {
            "kind": pack.kind,
            "known_dim": pack.known_dim,
            "points": pack.n_points,
            "boundary": len(pack.boundary),
            "k_sup": pack.k_sup,
            "delta_res": pack.delta_res,
        },
    )

    ladder = ScaleLadder(tuple(config.ladder)) if config.ladder is not None else default_ladder(pack)
    ladder.validate_for(pack)
    stage("ladder", True, {"rungs": len(ladder), "top": ladder[0], "bottom": ladder[-1]})

    lam = _lambda_for(config, ladder)
    e = controlled_E(pack, ladder, lam)
    c0 = c0_modulus(pack, ladder, e, config.c0_tol)
    stage("controlled_relation", c0.accept, {"pairs": len(e), "c0": c0.to_dict()})

    if not pack.cylindrical:
        # a pack with no cylinder structure (countable_example) tells the
        # counterexample: the singleton cover is canonical with multiplicity 1
        # and no lower bound applies (lower_bound_check refuses the pack)
        singles = singleton_cover(pack)
        sv = uniformity_verdict(pack, ladder, singles, config.unif_tol)
        smult = multiplicity(singles)
        stage(
            "countable_counterexample",
            singles.covers_flag and sv.accept and smult == 1,
            {
                "multiplicity": smult,
                "uniformity": sv.to_dict(),
                "lower_bound": "NonCylindricalPack",
            },
        )
        return _final_report(config, stages, ok, mult=smult, dim=pack.known_dim), singles

    gamma = ball_cover(e)
    gv = uniformity_verdict(pack, ladder, gamma, config.unif_tol)
    stage("ball_cover", gv.accept, {"members": len(gamma), "uniformity": gv.to_dict()})

    alpha, pipeline = minimal_canonical(pack, gamma, ladder=ladder, unif_tol=config.unif_tol)
    bound_ok = pipeline.multiplicity <= pipeline.bound_dim_plus_2
    stage("minimal_canonical", pipeline.witness_ok and bound_ok, pipeline.to_dict())

    rejects = {}
    fv = c0_modulus(pack, ladder, full_relation(pack), config.c0_tol)
    wv = uniformity_verdict(pack, ladder, whole_space_cover(pack), config.unif_tol)
    rejects["all_pairs_rejects"] = not fv.accept
    rejects["whole_space_rejects"] = not wv.accept
    stage("negative_controls", not fv.accept and not wv.accept, rejects)

    rng = np.random.default_rng(config.seed)
    resolved = _deep_witness_resolved(pack, config.unif_tol)
    constructed = [alpha, gamma] if resolved else []
    results = []
    holds = True
    for cov in constructed:
        res = lower_bound_check(pack, cov, ladder, config.unif_tol)
        holds = holds and res.holds
        results.append(res.to_dict() | {"source": "constructed"})
    for cand in random_uniform_candidates(pack, rng, config.candidates):
        res = lower_bound_check(pack, cand, ladder, config.unif_tol)
        holds = holds and res.holds
        if not res.holds:
            results.append(res.to_dict() | {"source": "random"})
    stage(
        "lower_bound_sweep",
        holds,
        {
            "candidates": config.candidates,
            "deep_witness_resolved": resolved,
            "violations": [r for r in results if not r["holds"]],
            "constructed": [r for r in results if r.get("source") == "constructed"],
        },
    )

    report = _final_report(
        config,
        stages,
        ok,
        mult=pipeline.multiplicity,
        dim=pack.known_dim,
        naive=pipeline.naive_bound_2dim_plus_2,
    )
    return report, alpha


def _deep_witness_resolved(pack: DiscretePack, unif_tol: float) -> bool:
    """Whether the base sample is fine enough to witness overlaps at the
    deep scales the uniformity threshold forces on pipeline covers.

    Pipeline covers only carry base overlaps down to the finest mesh the
    threshold admits; sparser base samples cannot realize the multiplicity
    lower bound on constructed covers (randomized candidates still do, via
    shallow witnesses).  Dimension-0 boundaries need no base extent.
    """
    if pack.known_dim == 0:
        return True
    bidx = sorted(pack.boundary)
    sub = pack.dist[np.ix_(bidx, bidx)].copy()
    np.fill_diagonal(sub, np.inf)
    max_gap = float(sub.min(axis=1).max())
    return 2 * max_gap <= 0.8 * unif_tol * pack.k_sup


def _final_report(config, stages, ok, mult, dim, naive=None) -> dict:
    summary = {
        "all_pass": ok,
        "achieved_multiplicity": mult,
        "dim_plus_2": None if dim is None else dim + 2,
        "naive_bound_2dim_plus_2": naive,
        "tolerances": {"c0_tol": config.c0_tol, "unif_tol": config.unif_tol},
        "seed": config.seed,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "stages": stages,
        "summary": summary,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")
