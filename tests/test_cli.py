import json

import pytest

from secnum.cli import main

SIERPINSKI = "space S 2\nreach 1 0\n"
PI_MAP = "space F 2\nspace S 2\nreach 1 0\nmap pi F S\nsend 0 0\nsend 1 1\n"
IDENTITY_G = "space S 2\nreach 1 0\nmap g S S\nsend 0 0\nsend 1 1\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("S.finsp", SIERPINSKI),
        ("pi.fmap", PI_MAP),
        ("g.fmap", IDENTITY_G),
    ]:
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_compute_fpp(files, capsys):
    code, data = run_json(capsys, ["compute", "--input", files["S.finsp"], "--invariant", "fpp"])
    assert code == 0
    assert data["holds"] is True and data["exhaustive"] is True


def test_compute_fpp_out_of_budget_prints_no_verdict(files, capsys, monkeypatch):
    circle = files["dir"] / "C.finsp"
    circle.write_text("space C 4\nreach 2 0\nreach 2 1\nreach 3 0\nreach 3 1\n")
    monkeypatch.setenv("SECNUM_BUDGET", "2")
    assert main(["compute", "--input", str(circle), "--invariant", "fpp"]) == 3
    captured = capsys.readouterr()
    assert '"holds"' not in captured.out
    assert captured.err.startswith("inconclusive: ")


def test_compute_cat(files, capsys):
    code, data = run_json(capsys, ["compute", "--input", files["S.finsp"], "--invariant", "cat"])
    assert code == 0
    assert data["value"] == 1


def test_compute_sec_and_secat(files, capsys):
    code, data = run_json(capsys, [
        "compute", "--input", files["S.finsp"], "--map", files["pi.fmap"],
        "--invariant", "sec",
    ])
    assert code == 0
    assert data["value"] == "infinite" and data["uncovered_point"] == 1
    # S is contractible, so a constant section works up to homotopy
    code, data = run_json(capsys, [
        "compute", "--input", files["S.finsp"], "--map", files["pi.fmap"],
        "--invariant", "secat",
    ])
    assert code == 0
    assert data["value"] == 1


def test_compute_requires_map_for_sec(files, capsys):
    code = main(["compute", "--input", files["S.finsp"], "--invariant", "sec"])
    assert code == 4


def test_compute_missing_file_is_input_error(files, capsys):
    code = main(["compute", "--input", str(files["dir"] / "nope.finsp"), "--invariant", "cat"])
    assert code == 4


def test_relative_routes_and_tc(files, capsys):
    for route in ("pullback", "lift", "both"):
        code, data = run_json(capsys, [
            "relative", "--p", files["pi.fmap"], "--g", files["g.fmap"],
            "--invariant", "sec", "--route", route,
        ])
        assert code == 0
        assert data["value"] == "infinite"
    code, data = run_json(capsys, [
        "relative", "--p", files["pi.fmap"], "--g", files["g.fmap"],
        "--invariant", "secat",
    ])
    assert code == 0
    code, data = run_json(capsys, [
        "relative", "--p", files["g.fmap"], "--g", files["g.fmap"],
        "--invariant", "tc-bounds",
    ])
    assert code == 0
    assert data["exact"] is True and data["lower"] == data["upper"] == 1


def test_check_claims(files, capsys):
    for claim in ("remark", "cp-implies-fpp"):
        code, data = run_json(capsys, [
            "check", "--claim", claim,
            "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"],
        ])
        assert code == 0
        assert data["conclusions"][0]["status"] == "verified"
    code, data = run_json(capsys, [
        "check", "--claim", "main-theorem",
        "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"],
    ])
    assert code == 0
    assert data["conclusions"][0]["status"] == "hypothesis-not-met"
    code, data = run_json(capsys, [
        "check", "--claim", "key-lemma", "--k", "2",
        "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"],
    ])
    assert code == 0


def test_check_mismatched_spaces(files, tmp_path, capsys):
    other = tmp_path / "D.finsp"
    other.write_text("space D 2\n")
    code = main([
        "check", "--claim", "remark",
        "--x", str(other), "--y", files["S.finsp"], "--g", files["g.fmap"],
    ])
    assert code == 4


def test_census_output(capsys):
    code = main(["census", "--max-points", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# spaces on 1 points up to isomorphism: 1" in out
    assert "# spaces on 2 points up to isomorphism: 3" in out
    assert "# total: 4" in out
    code = main(["census", "--max-points", "3", "--posets-only"])
    out = capsys.readouterr().out
    assert "# posets on 3 points up to isomorphism: 5" in out


def test_census_over_cap_is_input_error(capsys):
    assert main(["census", "--max-points", "8"]) == 4


def test_suite_cli_roundtrip(tmp_path, capsys):
    config = {
        "schema": "secnum.suite-config/1",
        "max_points": 2,
        "census_max_points": 2,
        "hausdorff_target_max": 2,
        "key_lemma_target_max": 2,
        "k_values": [2],
        "contractibility_census_max": 2,
        "instances_per_property": 4,
        "tc_instances": 1,
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["suite", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["suite", "--config", str(config_path), "--seed", "5", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = json.loads(out_a.read_text())
    assert report["schema"] == "secnum.suite-report/1"


def test_suite_budget_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SECNUM_BUDGET", "1")
    config = {
        "max_points": 2,
        "census_max_points": 2,
        "hausdorff_target_max": 2,
        "key_lemma_target_max": 2,
        "k_values": [2],
        "contractibility_census_max": 2,
        "instances_per_property": 2,
        "tc_instances": 1,
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert main(["suite", "--config", str(config_path), "--out", str(out)]) == 3


def test_suite_bad_config_is_input_error(tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"max_points": 50}))
    assert main(["suite", "--config", str(config_path)]) == 4


def test_suite_unwritable_out_is_input_error(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "max_points": 2, "census_max_points": 2, "hausdorff_target_max": 2,
        "key_lemma_target_max": 2, "k_values": [2], "contractibility_census_max": 2,
        "instances_per_property": 2, "tc_instances": 1, "seed": 5,
    }))
    missing_dir = tmp_path / "no" / "such" / "dir" / "r.json"
    assert main(["suite", "--config", str(config_path), "--out", str(missing_dir)]) == 4


def test_check_k_below_two_is_input_error(files):
    assert main([
        "check", "--claim", "key-lemma", "--k", "1",
        "--x", files["S.finsp"], "--y", files["S.finsp"], "--g", files["g.fmap"],
    ]) == 4
