"""CLI output compared byte for byte with the files in tests/golden/.

A change that is meant to leave results alone must reproduce these files
exactly; to change them on purpose, regenerate them with the same command
lines and say so.  The R8 ``verify-suite`` golden file is checked by
acceptance 12, which runs that suite already.  Every case runs with the
reference search forbidden: production answers come from the session.
"""

import json
from pathlib import Path

import pytest

from dighom import cli
from dighom.lattice import CP, build_image, image_to_json, interval_image
from dighom.maps import constant_map, identity_map, map_to_json

from conftest import RING8, SQUARE

GOLDEN = Path(__file__).parent / "golden"

_IMAGES = {
    "R8": lambda: build_image(RING8, CP(1), name="R8"),
    "C4": lambda: build_image(SQUARE, CP(1), name="C4"),
    "I3": lambda: interval_image(0, 3, name="I3"),
    "split": lambda: build_image([(0,), (1,), (5,), (6,)], CP(1), name="split"),
}

# golden file -> (image, argv with {image}, {id} and {const} file slots, exit code)
_CASES = {
    "suite_C4.json": ("C4", ["verify-suite", "--image", "{image}"], 0),
    "suite_I3.json": ("I3", ["verify-suite", "--image", "{image}"], 0),
    "suite_split.json": ("split", ["verify-suite", "--image", "{image}"], 3),
    "cat_R8.json": ("R8", ["compute", "cat", "--image", "{image}"], 0),
    "cat_m_R8.json": ("R8", ["compute", "cat_m", "--image", "{image}",
                             "--probes", "standard-m2"], 0),
    "cat_of_map_id_R8.json": ("R8", ["compute", "cat_of_map", "--map", "{id}"], 0),
    "D_m_id_const_R8.json": ("R8", ["compute", "D_m", "--map", "{id}", "--map", "{const}",
                                    "--probes", "standard-m2"], 0),
    "TCm_C4.json": ("C4", ["compute", "TC^m", "--image", "{image}",
                           "--probes", "standard-m2"], 0),
    "nTCm3_R8.json": ("R8", ["compute", "nTC^m", "--image", "{image}", "--n", "3",
                             "--probes", "standard-m2"], 2),
    "nTCm4_R8.json": ("R8", ["compute", "nTC^m", "--image", "{image}", "--n", "4",
                             "--probes", "standard-m2"], 2),
    "nTC3_R8.json": ("R8", ["compute", "nTC", "--image", "{image}", "--n", "3"], 2),
}


def _input_files(tmp_path, name):
    img = _IMAGES[name]()
    docs = {
        "image": image_to_json(img),
        "id": map_to_json(identity_map(img)),
        "const": map_to_json(constant_map(img, img, img.points[0])),
    }
    paths = {}
    for slot, doc in docs.items():
        path = tmp_path / f"{slot}.json"
        path.write_text(json.dumps(doc))
        paths[slot] = str(path)
    return paths


@pytest.mark.parametrize("golden", sorted(_CASES))
def test_cli_output_matches_golden(tmp_path, golden, reference_search_forbidden):
    name, argv, want_code = _CASES[golden]
    paths = _input_files(tmp_path, name)
    out = tmp_path / "out.json"
    code = cli.main([arg.format(**paths) for arg in argv] + ["-o", str(out)])
    assert code == want_code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
