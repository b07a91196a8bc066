import json

import pytest

from dighom import cli
from dighom.lattice import CP, build_image, image_to_json, np_product
from dighom.maps import constant_map, identity_map, map_to_json

from conftest import RING8, SQUARE


@pytest.fixture()
def ring_file(tmp_path):
    img = build_image(RING8, CP(1), name="R8")
    path = tmp_path / "r8.json"
    path.write_text(json.dumps(image_to_json(img)))
    return str(path)


@pytest.fixture()
def square_file(tmp_path):
    img = build_image(SQUARE, CP(1), name="C4")
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(image_to_json(img)))
    return str(path)


@pytest.fixture()
def point_file(tmp_path):
    img = build_image([(0, 0)], CP(1), name="pt")
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(image_to_json(img)))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_image_validate_summary(capsys, ring_file):
    code, out, err = run(capsys, "image", "validate", ring_file)
    assert code == 0
    summary = json.loads(out)
    assert summary["points"] == 8
    assert summary["edges"] == 8
    assert summary["components"] == 1
    assert summary["dim"] == 2


def test_image_validate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "image", "validate", str(tmp_path / "no.json"))
    assert code == 1
    assert "error:" in err


def test_image_validate_malformed_names_path(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "image", "validate", str(bad))
    assert code == 1
    assert "broken.json" in err


def test_image_product(capsys, square_file):
    code, out, err = run(capsys, "image", "product", square_file, square_file,
                         "-m", "2")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["points"]) == 16


def test_probes_generate(capsys):
    code, out, err = run(capsys, "probes", "generate", "-m", "2",
                         "--max-points", "4", "--box", "1")
    assert code == 0
    fam = json.loads(out)
    assert fam["m"] == 2
    assert len(fam["complexes"]) == 6


def test_compute_plain_cat(capsys, square_file):
    code, out, err = run(capsys, "compute", "cat", "--image", square_file)
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "cat"
    assert report["value"] == 0
    assert report["exactness"] == "exact"


def test_compute_upgrades_kind_with_probes(capsys, square_file):
    code, out, err = run(capsys, "compute", "cat", "--image", square_file,
                         "--probes", "standard-m2")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "cat_m"
    assert report["family"]["name"] == "standard-m2"


def test_compute_m_kind_requires_probes(capsys, ring_file):
    code, out, err = run(capsys, "compute", "D_m", "--image", ring_file)
    assert code == 1
    assert "needs --probes" in err


def test_compute_distance_from_map_files(capsys, tmp_path, r8):
    ident = identity_map(r8)
    const = constant_map(r8, r8, (0, 0))
    f1 = tmp_path / "ident.json"
    f2 = tmp_path / "const.json"
    f1.write_text(json.dumps(map_to_json(ident)))
    f2.write_text(json.dumps(map_to_json(const)))
    code, out, err = run(capsys, "compute", "D",
                         "--map", str(f1), "--map", str(f2),
                         "--probes", "standard-m2")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "D_m"
    assert report["value"] == 1


def test_compute_undecided_exits_two(capsys, ring_file):
    code, out, err = run(capsys, "compute", "TC", "--image", ring_file)
    assert code == 2
    report = json.loads(out)
    assert report["value"] == "undecided"


def test_env_caps_force_undecided(capsys, monkeypatch, ring_file):
    monkeypatch.setenv(cli.ENV_VISITED, "4")
    monkeypatch.setenv(cli.ENV_PROBE_MAPS, "4")
    code, out, err = run(capsys, "compute", "cat", "--image", ring_file)
    assert code == 2


def test_env_caps_must_be_integers(capsys, monkeypatch, ring_file):
    monkeypatch.setenv(cli.ENV_VISITED, "many")
    code, out, err = run(capsys, "compute", "cat", "--image", ring_file)
    assert code == 1
    assert cli.ENV_VISITED in err


def test_flag_caps_must_be_positive(capsys, square_file):
    code, out, err = run(capsys, "compute", "cat", "--image", square_file,
                         "--caps-visited", "0")
    assert code == 1


def test_unknown_flag_exits_one(capsys, square_file):
    code, out, err = run(capsys, "compute", "cat", "--image", square_file,
                         "--frobnicate")
    assert code == 1


def test_unknown_kind_exits_one(capsys, square_file):
    code, out, err = run(capsys, "compute", "girth", "--image", square_file)
    assert code == 1


def test_output_file_written(capsys, tmp_path, square_file):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "compute", "cat", "--image", square_file,
                         "-o", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["kind"] == "cat"


def test_verify_report_round_trip(capsys, tmp_path, square_file):
    rep_path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "compute", "cat", "--image", square_file,
                     "-o", str(rep_path))
    assert code == 0
    code2, out2, _ = run(capsys, "verify-report", str(rep_path))
    assert code2 == 0
    assert json.loads(out2)["status"] == "ok"

    blob = json.loads(rep_path.read_text())
    blob["pieces"][0] = blob["pieces"][0][:-1]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(blob))
    code3, out3, _ = run(capsys, "verify-report", str(tampered))
    assert code3 == 3
    body = json.loads(out3)
    assert body["status"] == "fail"
    assert any("cover" in msg for msg in body["messages"])


def test_verify_report_unreadable_file_exits_one(capsys, tmp_path):
    code, out, err = run(capsys, "verify-report", str(tmp_path / "no.json"))
    assert code == 1
    assert "error:" in err and "no.json" in err

    bad = tmp_path / "mangled.json"
    bad.write_text("{not json")
    code2, out2, err2 = run(capsys, "verify-report", str(bad))
    assert code2 == 1
    assert "mangled.json" in err2


@pytest.mark.parametrize("mangle", [
    lambda blob: [blob],
    lambda blob: {**blob, "pieces": 7},
    lambda blob: {**blob, "pieces": [["a"]]},
    lambda blob: {**blob, "inputs": 7},
], ids=["top-level-list", "pieces-not-a-list", "piece-point-not-an-array",
        "inputs-not-an-object"])
def test_verify_report_malformed_document_exits_one(capsys, tmp_path, square_file,
                                                    mangle):
    rep_path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "compute", "cat", "--image", square_file,
                     "-o", str(rep_path))
    assert code == 0
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(mangle(json.loads(rep_path.read_text()))))
    code2, out2, err2 = run(capsys, "verify-report", str(bad))
    assert code2 == 1
    assert out2 == ""
    assert err2.startswith("error:")


_R8_JSON = image_to_json(build_image(RING8, CP(1), name="R8"))


@pytest.mark.parametrize("doc, argv", [
    ({**_R8_JSON, "points": 7}, ["image", "validate"]),
    ({"dim": 1, "adjacency": {"type": "explicit", "edges": 5},
      "points": [[0], [1]]}, ["image", "validate"]),
    ({"dim": 2, "points": [[0, 0], [0, 1]],
      "adjacency": {"type": "np", "m": "x",
                    "factors": [{"type": "cp", "p": 1}] * 2}},
     ["image", "validate"]),
    ({"m": 2, "complexes": 5}, ["compute", "cat", "--image", "RING", "--probes"]),
    ({"domain": _R8_JSON, "codomain": _R8_JSON, "assignment": 3},
     ["compute", "cat_of_map", "--map"]),
    ({"kind": "nTC", "n": "x", "value": 1, "pieces": [],
      "inputs": {"image": _R8_JSON}}, ["verify-report"]),
], ids=["image-points", "explicit-edges", "np-m", "family-complexes",
        "map-assignment", "report-n"])
def test_wrong_typed_json_field_exits_one(capsys, tmp_path, ring_file, doc, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [ring_file if a == "RING" else a for a in argv] + [str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_verify_report_undecided_exits_two(capsys, tmp_path, ring_file):
    rep_path = tmp_path / "tc.json"
    run(capsys, "compute", "TC", "--image", ring_file, "-o", str(rep_path))
    code, out, err = run(capsys, "verify-report", str(rep_path))
    assert code == 2
    assert json.loads(out)["status"] == "undecided"


def test_verify_suite_point_all_decided(capsys, point_file):
    code, out, err = run(capsys, "verify-suite", "--image", point_file)
    assert code == 0
    blob = json.loads(out)
    assert all(e["status"] == "pass" for e in blob["entries"])


def test_byte_determinism_across_runs_and_workers(capsys, square_file):
    outputs = []
    for workers in ("1", "4", "1"):
        code, out, err = run(capsys, "compute", "cat", "--image", square_file,
                             "--probes", "standard-m2", "--workers", workers)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
