"""Self-test of the benchmark runner at reduced sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

# workload -> per-layer metrics that must read above 0 there at smoke sizes: the
# layer -> workload map of NOTES.md, so a call path the tracer stops seeing fails
TOUCHED = {
    "experiment-mix": [
        "cli.main.calls",
        "experiment.run_experiment.calls",
        "experiment.report_to_json.calls",
        "experiment.report_bytes",
        "cylinder.lower_bound_check.calls",
        "cylinder.random_uniform_candidates.calls",
        "relations.c0_modulus.calls",
        "relations.full_relation.calls",
        "covers.uniformity_verdict.calls",
        "canonical.minimal_canonical.calls",
        "svg.emit_svg.calls",
    ],
    "cover-scale": [
        "packs.default_ladder.calls",
        "packs.h_profile.calls",
        "packs.ladder_rungs",
        "packs.DiscretePack.diam.calls",
        "packs.DiscretePack.set_dist.calls",
        "relations.controlled_E.calls",
        "relations.ball_cover.calls",
        "relations.pairs",
        "covers.lebesgue_number.calls",
        "covers.refines.calls",
        "covers.mult_witness.calls",
        "canonical.minimal_canonical.calls",
        "canonical.subsequence_indices.calls",
        "canonical.ext_family.calls",
        "canonical.ext.calls",
        "canonical.recursion_steps",
        "cover_build.n845_s",
    ],
    "cli-files": [
        "cli.main.calls",
        "packs.generate_pack.calls",
        "packs.pack_to_json.calls",
        "packs.pack_from_json.calls",
        "packs.validate_pack.calls",
        "packs.pack_json_bytes",
        "svg.emit_svg.calls",
    ],
    "verify-sweep": [
        "verify.verify_suite.calls",
        "verify.check_identities.calls",
        "verify.check_ext_properties.calls",
        "verify.check_transfer_lemmas.calls",
        "verify.check_star_expansion.calls",
        "verify.check_shrink.calls",
        "relations.compose.calls",
        "covers.star.calls",
        "canonical.ext.calls",
    ],
}


def run_bench(*args, cwd=ROOT, runner=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), *args], cwd=cwd, capture_output=True, text=True, timeout=900
    )


def smoke_result(*args) -> dict:
    done = run_bench("--seed", "3", "--seconds", "1", "--smoke", *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_all():
    """The smoke result of every workload, per trace setting, run once per module."""
    return {trace: smoke_result("--workload", "all", "--trace", str(trace)) for trace in (0, 1)}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(smoke_all, trace, section):
    result = smoke_all[trace]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in SPEC["workloads"]:
        prefix = workload["name"] + "."
        emitted = {k[len(prefix):]: v for k, v in result["metrics"].items() if k.startswith(prefix)}
        assert emitted.keys() == units.keys(), workload["name"]
        for name, metric in emitted.items():
            assert metric["unit"] == units[name], name
            assert isinstance(metric["value"], (int, float)), name


def test_traced_run_sees_every_layer_its_workload_touches(smoke_all):
    metrics = smoke_all[1]["metrics"]
    for workload, names in TOUCHED.items():
        for name in names:
            assert metrics[f"{workload}.{name}"]["value"] > 0, f"{workload}: {name}"


def test_every_wrapped_function_is_expected_somewhere():
    expected = {name for names in TOUCHED.values() for name in names}
    for span in tracer.span_names():
        assert f"{span}.calls" in expected, span


@pytest.mark.parametrize("workload", ["cover-scale", "cli-files"])
def test_dropped_alpha_member_is_a_failed_operation(workload):
    result = smoke_result("--workload", workload, "--trace", "0", "--perturb-alpha")
    assert not result["correct"]
    assert result["failed"] == 1


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "verify-sweep", "--seed", "0", "--seconds", "1", cwd=tmp_path,
                     runner=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
