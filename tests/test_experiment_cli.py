import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c0cover as cc
from c0cover import covers, experiment
from c0cover.cli import main
from c0cover.covers import cover_from_json
from c0cover.errors import BadLadder, NoCoordinates
from c0cover.experiment import ExperimentConfig, report_to_json, run_experiment
from c0cover.packs import pack_from_json
from c0cover.svg import emit_svg


SMALL_FINITE = {"kind": "finite_cylinder", "params": {"n_base": 2, "n_levels": 12}, "candidates": 10}


def test_experiment_finite_passes():
    rep, _ = run_experiment(ExperimentConfig(**SMALL_FINITE))
    assert rep["summary"]["all_pass"]
    assert rep["summary"]["achieved_multiplicity"] == 2
    names = [s["name"] for s in rep["stages"]]
    assert names == [
        "pack",
        "ladder",
        "controlled_relation",
        "ball_cover",
        "minimal_canonical",
        "negative_controls",
        "lower_bound_sweep",
    ]
    assert rep["schema_version"] == 2
    assert rep["summary"]["tolerances"] == {"c0_tol": 0.05, "unif_tol": 0.05}


def test_experiment_computes_the_ball_cover_verdict_once(monkeypatch):
    gammas, measured = [], []
    monkeypatch.setattr(experiment, "ball_cover", lambda e: gammas.append(cc.ball_cover(e)) or gammas[-1])
    index_stats = covers.index_stats
    monkeypatch.setattr(
        covers, "index_stats", lambda pack, ids, offsets: measured.append(ids) or index_stats(pack, ids, offsets)
    )
    rep, _ = run_experiment(ExperimentConfig(**SMALL_FINITE))
    assert rep["summary"]["all_pass"]
    [gamma] = gammas
    # the ball_cover stage, refine_subsequence and the lower-bound sweep all read gamma's verdict
    assert sum(ids is gamma.ids for ids in measured) == 1


def test_experiment_deterministic():
    cfg = ExperimentConfig(**SMALL_FINITE)
    a = report_to_json(run_experiment(cfg)[0])
    b = report_to_json(run_experiment(cfg)[0])
    assert a == b


def test_experiment_countable():
    rep, _ = run_experiment(ExperimentConfig(kind="countable_example", params={"n_y": 6}))
    assert rep["summary"]["all_pass"]
    assert rep["summary"]["achieved_multiplicity"] == 1
    stage = next(s for s in rep["stages"] if s["name"] == "countable_counterexample")
    assert stage["verdict"] == "pass"
    assert stage["data"]["lower_bound"] == "NonCylindricalPack"


def test_svg_rendering(cyl_fixture, finite_pipeline):
    doc = emit_svg(cyl_fixture, None)
    assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")
    with_cover = emit_svg(finite_pipeline["pack"], finite_pipeline["alpha"])
    assert with_cover.count("<polygon") + with_cover.count("<line") + with_cover.count("circle") > 3
    assert emit_svg(cyl_fixture, None) == emit_svg(cyl_fixture, None)  # deterministic


def test_svg_requires_coordinates(line3):
    with pytest.raises(NoCoordinates):
        emit_svg(line3, None)
    with pytest.raises(NoCoordinates):  # its coordinates are (x, y, level)
        emit_svg(cc.generate_pack("cube_face"), None)


# sha256 of the documents drawn one point at a time, before the coordinates were rounded in one array operation
@pytest.mark.parametrize(
    "kind, params, with_gamma, sha256",
    [
        ("interval_cylinder", dict(n_base=33, n_levels=10), True, "b2c067b250ef508e4623ea6848ca885b6d1fe006fbacccd7bd03e98d5bfa00a6"),
        ("circle_in_disk", dict(n_angles=32, n_levels=10), True, "d9bdbee4bf78c426a79585e41285b76154477b2360fef329646607896ec84bec"),
        ("finite_cylinder", dict(n_base=3, n_levels=10), True, "9ef2e63194d239cd8de105652835a0182ece84d4bf6b9f8e190a7c6b8e93ea57"),
        ("countable_example", {}, False, "993029224d430801a176db18f0b1af9d6a830378dd4b0a6b718173b60e12cf94"),
    ],
)
def test_svg_bytes_pinned(kind, params, with_gamma, sha256):
    pack = cc.generate_pack(kind, **params)
    ladder = cc.default_ladder(pack)
    gamma = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder))) if with_gamma else None
    assert hashlib.sha256(emit_svg(pack, gamma).encode()).hexdigest() == sha256


def test_cli_pack_gen_and_render(tmp_path):
    pack_file = tmp_path / "pack.json"
    rc = main([
        "pack", "gen", "--kind", "finite_cylinder",
        "--params", json.dumps({"n_base": 2, "n_levels": 6}),
        "--out", str(pack_file),
    ])
    assert rc == 0
    assert pack_from_json(pack_file.read_text()).n_points == 14

    svg_file = tmp_path / "pack.svg"
    assert main(["render", "--pack", str(pack_file), "--out", str(svg_file)]) == 0
    assert svg_file.read_text().startswith("<svg")


def test_cli_cover_build(tmp_path):
    pack_file = tmp_path / "pack.json"
    main([
        "pack", "gen", "--kind", "finite_cylinder",
        "--params", json.dumps({"n_base": 2, "n_levels": 12}),
        "--out", str(pack_file),
    ])
    cover_file = tmp_path / "cover.json"
    report_file = tmp_path / "pipe.json"
    rc = main([
        "cover", "build", "--pack", str(pack_file),
        "--out", str(cover_file), "--report", str(report_file),
    ])
    assert rc == 0
    cov = json.loads(cover_file.read_text())
    assert cov["target"] == "interior"
    rep = json.loads(report_file.read_text())
    assert rep["multiplicity"] == 2 and rep["witness_ok"]


def test_cli_experiment(tmp_path):
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps(SMALL_FINITE | {"seed": 3}))
    out_file = tmp_path / "report.json"
    svg_file = tmp_path / "exp.svg"
    rc = main(["experiment", "--config", str(cfg_file), "--out", str(out_file), "--svg", str(svg_file)])
    assert rc == 0
    rep = json.loads(out_file.read_text())
    assert rep["summary"]["all_pass"]
    assert svg_file.exists()


def test_cli_verify_small():
    rc = main(["verify", "--seed", "1", "--identities", "60", "--transfer", "40"])
    assert rc == 0


def test_cli_module_entrypoint(tmp_path):
    # the child imports the same package as this process, however pytest found it
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "c0cover", "pack", "gen", "--kind", "countable_example",
         "--params", json.dumps({"n_y": 4}), "--out", str(tmp_path / "p.json")],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr


def test_cli_error_exit(tmp_path):
    rc = main(["pack", "gen", "--kind", "finite_cylinder", "--params", '{"n_base": 0}',
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_verify_suite_small():
    summary = cc.verify_suite(seed=2, sizes={"identities": 80, "transfer": 50, "star": 40, "shrink": 40, "ext_random": 20})
    assert summary.ok
    assert len(summary.lines()) >= 10


def test_cli_experiment_svg_draws_the_reported_alpha(tmp_path):
    # every other rung of the default ladder: a config ladder that changes alpha
    pack = cc.generate_pack("finite_cylinder", n_base=2, n_levels=12)
    default = cc.default_ladder(pack)
    ladder = cc.ScaleLadder(default.radii[::2] + default.radii[-1:])
    cfg_file, out_file, svg_file = tmp_path / "exp.json", tmp_path / "report.json", tmp_path / "exp.svg"
    cfg_file.write_text(json.dumps(SMALL_FINITE | {"ladder": list(ladder.radii)}))
    rc = main(["experiment", "--config", str(cfg_file), "--out", str(out_file), "--svg", str(svg_file)])
    assert rc == 0
    gamma = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))
    alpha, report = cc.minimal_canonical(pack, gamma, cc.provider_for(pack), ladder)
    stages = {s["name"]: s["data"] for s in json.loads(out_file.read_text())["stages"]}
    assert stages["minimal_canonical"]["subsequence"] == list(report.subsequence)
    assert svg_file.read_text() == emit_svg(pack, alpha)
    default_gamma = cc.ball_cover(cc.controlled_E(pack, default, cc.LambdaSpec.identity(default)))
    default_alpha, _ = cc.minimal_canonical(pack, default_gamma, cc.provider_for(pack), default)
    assert svg_file.read_text() != emit_svg(pack, default_alpha)


BAD_CONFIGS = {
    "unknown_key": SMALL_FINITE | {"bogus": 1},
    "not_an_object": [SMALL_FINITE],
    "missing_kind": {"params": {}},
    "candidates_negative": SMALL_FINITE | {"candidates": -1},
    "candidates_float": SMALL_FINITE | {"candidates": 2.5},
    "candidates_bool": SMALL_FINITE | {"candidates": True},
    "seed_string": SMALL_FINITE | {"seed": "0"},
    "seed_negative": SMALL_FINITE | {"seed": -3},
    "c0_tol_zero": SMALL_FINITE | {"c0_tol": 0},
    "unif_tol_negative": SMALL_FINITE | {"unif_tol": -0.05},
    "unif_tol_infinite": SMALL_FINITE | {"unif_tol": float("inf")},
    "c0_tol_nan": SMALL_FINITE | {"c0_tol": float("nan")},
    "c0_tol_string": SMALL_FINITE | {"c0_tol": "0.05"},
    "params_list": SMALL_FINITE | {"params": [2, 12]},
    "ladder_string": SMALL_FINITE | {"ladder": "2.0, 1.0, 0.5"},
    "ladder_non_numbers": SMALL_FINITE | {"ladder": [2.0, "1.0", 0.5]},
    "ladder_overflow": SMALL_FINITE | {"ladder": [10**400, 0.5, 0.25]},
    "ladder_infinite": SMALL_FINITE | {"ladder": [float("inf"), 0.5, 0.25]},
    "ladder_empty": SMALL_FINITE | {"ladder": []},
    "provider_unknown": SMALL_FINITE | {"provider": "interval_dim1"},
    "lambda_constant_garbled": SMALL_FINITE | {"lambda_kind": "constant:abc"},
}


@pytest.mark.parametrize("config", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_cli_experiment_bad_config_exits_2(tmp_path, config):
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_file), "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


def test_cli_verify_passes_only_the_sizes_given(monkeypatch):
    # the sizes left out come from verify_suite's own table
    from c0cover import cli
    from c0cover.verify import SuiteSummary

    seen = []
    monkeypatch.setattr(cli, "verify_suite", lambda seed, sizes: seen.append((seed, sizes)) or SuiteSummary(()))
    assert main(["verify"]) == 0
    assert main(["verify", "--seed", "3", "--transfer", "7"]) == 0
    assert seen == [(0, {}), (3, {"transfer": 7})]


def test_cli_experiment_bool_ladder_radius_exits_2(tmp_path):
    # True is no radius, though Python reads it as 1
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps(SMALL_FINITE | {"ladder": [True, 0.5, 0.25]}))
    assert main(["experiment", "--config", str(cfg_file), "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()
    with pytest.raises(BadLadder, match="radii must be finite numbers"):
        run_experiment(ExperimentConfig(**(SMALL_FINITE | {"ladder": [True, 0.5, 0.25]})))


@pytest.mark.parametrize("ladder", [[], [2.0], [2.0, 1.0]])
def test_experiment_short_config_ladder_is_refused(ladder):
    # an empty list is a ladder too short, not a request for the default ladder
    with pytest.raises(BadLadder):
        run_experiment(ExperimentConfig(**(SMALL_FINITE | {"ladder": ladder})))


def test_cli_experiment_config_not_json_exits_2(tmp_path):
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text("{kind: finite_cylinder")
    assert main(["experiment", "--config", str(cfg_file), "--out", str(tmp_path / "r.json")]) == 2


def test_cli_pack_gen_params_not_json_exits_2(tmp_path):
    rc = main(["pack", "gen", "--kind", "finite_cylinder", "--params", "{n_base: 2}",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def _finite_pack_file(tmp_path):
    pack_file = tmp_path / "pack.json"
    assert main(["pack", "gen", "--kind", "finite_cylinder",
                 "--params", json.dumps({"n_base": 2, "n_levels": 12}), "--out", str(pack_file)]) == 0
    return pack_file


def _short_base_of_file():
    obj = cc.generate_pack("finite_cylinder", n_base=2, n_levels=3).to_json_dict()
    obj["meta"]["base_of"] = obj["meta"]["base_of"][:3]
    return json.dumps(obj)


def _string_levels_file():
    obj = cc.generate_pack("circle_in_disk", n_angles=8, n_levels=3).to_json_dict()
    obj["meta"]["levels"] = "ab"
    return json.dumps(obj)


def _circle_coords_file(coords):
    obj = cc.generate_pack("circle_in_disk", n_angles=8, n_levels=3).to_json_dict()
    obj["meta"]["coords"] = coords(obj["meta"]["coords"])
    return json.dumps(obj)


MALFORMED_PACK_FILES = {
    "no_dist": json.dumps({"points": 3, "boundary": [0]}),
    "not_json": "{points: 3",
    "not_an_object": "[0, 1]",
    "ragged_dist": json.dumps({"points": 2, "dist": [[0, 1], [1]], "boundary": [0]}),
    "fractional_boundary_id": json.dumps({"points": 2, "dist": [[0, 1], [1, 0]], "boundary": [-0.5]}),
    "short_base_of": _short_base_of_file(),
    "string_levels": _string_levels_file(),
    "string_coords": _circle_coords_file(lambda rows: "x"),
    "short_coords": _circle_coords_file(lambda rows: rows[:-1]),
}


@pytest.mark.parametrize("text", list(MALFORMED_PACK_FILES.values()), ids=list(MALFORMED_PACK_FILES))
def test_cli_cover_build_malformed_pack_exits_2(tmp_path, text):
    pack_file = tmp_path / "pack.json"
    pack_file.write_text(text)
    rc = main(["cover", "build", "--pack", str(pack_file), "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("text", list(MALFORMED_PACK_FILES.values()), ids=list(MALFORMED_PACK_FILES))
def test_cli_render_malformed_pack_exits_2(tmp_path, text):
    pack_file = tmp_path / "pack.json"
    pack_file.write_text(text)
    assert main(["render", "--pack", str(pack_file), "--out", str(tmp_path / "p.svg")]) == 2
    assert not (tmp_path / "p.svg").exists()


def test_cli_cover_build_circle_with_one_coordinate_exits_2(tmp_path):
    # a circle's boundary angles need x and y; a one-column file is no circle to cover
    pack_file = tmp_path / "pack.json"
    pack_file.write_text(_circle_coords_file(lambda rows: [row[:1] for row in rows]))
    assert main(["cover", "build", "--pack", str(pack_file), "--out", str(tmp_path / "c.json")]) == 2
    assert not (tmp_path / "c.json").exists()


GENERATOR_FILE_ERRORS = {
    "unknown_kind": {"generator": {"kind": "moebius_band", "params": {}}},
    "params_not_an_object": {"generator": {"kind": "finite_cylinder", "params": [2, 12]}},
    "unknown_parameter": {"generator": {"kind": "finite_cylinder", "params": {"n_bases": 2}}},
    "wrongly_typed_parameter": {"generator": {"kind": "finite_cylinder", "params": {"n_base": "2"}}},
    "extra_keys": {"generator": {"kind": "finite_cylinder", "params": {}}, "dist": [[0]]},
    "over_the_point_budget": {
        "generator": {"kind": "interval_cylinder", "params": {"n_base": 2, "n_levels": 3000000}}
    },
}


@pytest.mark.parametrize("command", ["cover", "render"])
@pytest.mark.parametrize("obj", list(GENERATOR_FILE_ERRORS.values()), ids=list(GENERATOR_FILE_ERRORS))
def test_cli_malformed_generator_file_exits_2(tmp_path, command, obj):
    pack_file = tmp_path / "pack.json"
    pack_file.write_text(json.dumps(obj))
    out = tmp_path / "out"
    argv = ["cover", "build"] if command == "cover" else ["render"]
    assert main([*argv, "--pack", str(pack_file), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind, params", [
    ("interval_cylinder", {"n_base": 33, "n_levels": 10}),
    ("circle_in_disk", {"n_angles": 32, "n_levels": 10}),
])
def test_cli_cover_build_from_file_matches_in_process(tmp_path, kind, params):
    pack_file, cover_file, report_file = (tmp_path / f"{name}.json" for name in ("pack", "cover", "report"))
    assert main(["pack", "gen", "--kind", kind, "--params", json.dumps(params), "--out", str(pack_file)]) == 0
    assert main(["cover", "build", "--pack", str(pack_file), "--out", str(cover_file),
                 "--report", str(report_file)]) == 0
    pack = cc.generate_pack(kind, **params)
    ladder = cc.default_ladder(pack)
    gamma = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))
    alpha, report = cc.minimal_canonical(pack, gamma, cc.provider_for(pack), ladder)
    assert cover_from_json(pack, cover_file.read_text()) == alpha
    from_file = json.loads(report_file.read_text())
    for key in ("multiplicity", "subsequence", "orphans_completed"):
        assert from_file[key] == report.to_dict()[key]


@pytest.mark.parametrize(
    "text",
    ['["a"]', "[2.0, 1.0", "[1" + "0" * 400 + ", 0.5, 0.25]", '["1.0", "0.5", "0.25"]', "[true, 0.5, 0.25]"],
    ids=["non_numeric", "not_json", "overflow", "strings", "booleans"],
)
def test_cli_cover_build_malformed_ladder_exits_2(tmp_path, text):
    ladder_file = tmp_path / "ladder.json"
    ladder_file.write_text(text)
    rc = main(["cover", "build", "--pack", str(_finite_pack_file(tmp_path)),
               "--ladder", str(ladder_file), "--out", str(tmp_path / "c.json")])
    assert rc == 2


@pytest.mark.parametrize("text", [
    "{members: []",
    json.dumps({"target": "interior"}),
    json.dumps({"members": 5}),
    json.dumps({"members": [[14, "x"]]}),
    json.dumps({"members": [[14.5]]}),
    json.dumps({"members": [["14"]]}),
    json.dumps({"members": [[True]]}),
    json.dumps({"members": [14]}),
    json.dumps({"members": [[14]], "target": [14.0]}),
    json.dumps({"members": [[14]], "target": "everything"}),
    json.dumps({"members": [[100]], "target": [100]}),
    json.dumps({"members": [[-1]], "target": [-1]}),
], ids=["not_json", "no_members", "members_not_a_list", "non_numeric_member", "fractional_member",
        "string_member", "bool_member", "member_not_a_list", "fractional_target", "unknown_target",
        "target_past_the_pack", "negative_target"])
def test_cli_render_malformed_cover_exits_2(tmp_path, text):
    cover_file = tmp_path / "cover.json"
    cover_file.write_text(text)
    rc = main(["render", "--pack", str(_finite_pack_file(tmp_path)),
               "--cover", str(cover_file), "--out", str(tmp_path / "x.svg")])
    assert rc == 2
    assert not (tmp_path / "x.svg").exists()
