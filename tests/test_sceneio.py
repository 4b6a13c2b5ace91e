import json
import warnings

import numpy as np
import pytest

from expalign.errors import DomainError, SceneFormatError
from expalign.heatmap import export_heatmaps, read_pgm, reconstruct, write_pgm
from expalign.sceneio import read_scene, scene_from_dict, scene_to_dict, write_scene
from expalign.synth import SceneSpec, generate_scene


@pytest.fixture
def scene():
    return generate_scene(SceneSpec(seed=12, height3=8, width3=8, channels=3, tokens=2,
                                    prompts=2, n_negatives=1))


class TestSceneRoundTrip:
    def test_write_read_identity(self, scene, tmp_path):
        path = tmp_path / "scene.json"
        write_scene(path, scene)
        loaded = read_scene(path)
        for a, b in zip(scene.features, loaded.features):
            np.testing.assert_array_equal(a.values, b.values)
        for a, b in zip(scene.tokens, loaded.tokens):
            np.testing.assert_array_equal(a.embeddings, b.embeddings)
            np.testing.assert_array_equal(a.valid, b.valid)
        np.testing.assert_array_equal(scene.masks, loaded.masks)
        assert loaded.positives == scene.positives

    def test_values_survive_as_64_bit(self, scene, tmp_path):
        path = tmp_path / "scene.json"
        write_scene(path, scene)
        raw = json.loads(path.read_text())
        assert raw["features"]["p3"][0] == scene.features[0].values.ravel()[0]

    def test_overflowed_features_not_written(self, tmp_path):
        with np.errstate(over="ignore"):
            scene = generate_scene(SceneSpec(seed=0, signal=1e308))
        path = tmp_path / "scene.json"
        with pytest.raises(DomainError, match=r"^field 'features\.p3' contains non-finite values$"):
            write_scene(path, scene)
        assert not path.exists()

    def test_non_finite_token_not_written(self, scene, tmp_path):
        scene.tokens[1].embeddings[0, 0] = np.nan
        path = tmp_path / "scene.json"
        with pytest.raises(DomainError, match=r"^field 'tokens\[1\]' contains non-finite values$"):
            write_scene(path, scene)
        assert not path.exists()


class TestSceneErrors:
    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,\n "channels": }')
        with pytest.raises(SceneFormatError, match=r"line 2 column"):
            read_scene(path)

    def test_missing_field_named(self, scene):
        doc = scene_to_dict(scene)
        del doc["masks"]
        with pytest.raises(SceneFormatError, match="masks"):
            scene_from_dict(doc)

    def test_wrong_array_size_named(self, scene):
        doc = scene_to_dict(scene)
        doc["features"]["p4"] = doc["features"]["p4"][:-1]
        with pytest.raises(SceneFormatError, match=r"features\.p4"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("field", ["p3", "p5"])
    def test_non_finite_features_named(self, scene, field):
        doc = scene_to_dict(scene)
        doc["features"][field][1] = float("inf")
        with pytest.raises(SceneFormatError, match=rf"field 'features\.{field}' contains non-finite values"):
            scene_from_dict(doc)

    def test_masks_must_be_binary(self, scene):
        doc = scene_to_dict(scene)
        doc["masks"][0] = 2
        with pytest.raises(SceneFormatError, match="masks"):
            scene_from_dict(doc)

    def test_positives_validated(self, scene):
        doc = scene_to_dict(scene)
        doc["positives"] = [99]
        with pytest.raises(SceneFormatError, match="positives"):
            scene_from_dict(doc)
        doc["positives"] = []
        with pytest.raises(SceneFormatError, match="positives"):
            scene_from_dict(doc)

    def test_schema_version_checked(self, scene):
        doc = scene_to_dict(scene)
        doc["schema_version"] = 99
        with pytest.raises(SceneFormatError, match="schema_version"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("path,value,field", [
        (("masks", 0), "a", "masks"),
        (("features", "p3"), "abc", r"features\.p3"),
        (("features", "p5", 0), None, r"features\.p5"),
        (("tokens", 1, 2), "0.5", r"tokens\[1\]"),
        (("tokens", 0), "abc", r"tokens\[0\]"),
        (("masks", 3), True, "masks"),
    ])
    def test_non_numeric_entries_named(self, scene, path, value, field):
        doc = scene_to_dict(scene)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SceneFormatError, match=rf"field '{field}' must be a flat list of numbers"):
            scene_from_dict(doc)

    def test_non_finite_tokens_named(self, scene):
        doc = scene_to_dict(scene)
        doc["tokens"][1][0] = float("nan")
        with pytest.raises(SceneFormatError, match=r"field 'tokens\[1\]' contains non-finite values"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("entry", [["no", "no"], [0.5, 7], [1, 0], [True, None]])
    def test_token_valid_entries_must_be_booleans(self, scene, entry):
        doc = scene_to_dict(scene)
        doc["token_valid"][0] = entry
        with pytest.raises(SceneFormatError, match=r"field 'token_valid\[0\]' must be a list of booleans"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("entry", [True, False, 0.0, "0"])
    def test_positives_must_be_integers(self, scene, entry):
        doc = scene_to_dict(scene)
        doc["positives"] = [entry]
        with pytest.raises(SceneFormatError, match="field 'positives' entry .* must be an integer"):
            scene_from_dict(doc)

    def test_boolean_dimension_rejected(self, scene):
        doc = scene_to_dict(scene)
        doc["prompts"] = True
        with pytest.raises(SceneFormatError, match="field 'prompts' must be an integer, got bool"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("corrupt,message", [
        (lambda d: d.update(tokens="abc"), r"field 'tokens' must be a list, got str"),
        (lambda d: d.update(channels=0), "dimensions must be positive"),
        (lambda d: d.update(height3=6), r"height3/width3 must be divisible by 4, got 6x8"),
        (lambda d: d.update(features=[0.0]), r"field 'features' must be an object with keys p3, p4, p5"),
        (lambda d: d["features"].pop("p4"), r"missing field 'features\.p4'"),
        (lambda d: d["token_valid"].pop(),
         r"fields 'tokens' and 'token_valid' must have one entry per prompt"),
        (lambda d: d["tokens"][1].pop(), r"field 'tokens\[1\]' has 5 values, expected 6"),
        (lambda d: d["token_valid"][0].append(True), r"field 'token_valid\[0\]' has 3 values, expected 2"),
    ], ids=["not-a-list", "non-positive-dims", "not-divisible-by-4", "features-not-object",
            "missing-scale", "entry-counts", "token-value-count", "valid-length"])
    def test_malformed_document_named(self, scene, corrupt, message):
        doc = scene_to_dict(scene)
        corrupt(doc)
        with pytest.raises(SceneFormatError, match=message):
            scene_from_dict(doc)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SceneFormatError, match="top-level JSON value must be an object"):
            read_scene(path)

    def test_all_invalid_tokens_rejected(self, scene):
        doc = scene_to_dict(scene)
        doc["token_valid"][0] = [False] * len(doc["token_valid"][0])
        with pytest.raises(SceneFormatError, match="token_valid"):
            scene_from_dict(doc)


class TestHeatmaps:
    @pytest.mark.parametrize("write,message", [
        (lambda d: write_pgm(d / "m.pgm", np.zeros(4)), "heatmap must be 2-D"),
        (lambda d: export_heatmaps(d / "hm", np.zeros((4, 4))), r"expected \(P, H, W\) maps"),
        (lambda d: read_pgm(d / "p6.pgm"), "not a binary PGM file"),
        (lambda d: read_pgm(d / "deep.pgm"), "expected 8-bit PGM"),
    ], ids=["pgm-not-2d", "maps-not-3d", "bad-magic", "bad-maxval"])
    def test_bad_input_rejected(self, tmp_path, write, message):
        (tmp_path / "p6.pgm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        (tmp_path / "deep.pgm").write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match=message):
            write(tmp_path)

    def test_constant_map_is_uniform_gray(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((4, 6), 3.3))
        data = read_pgm(path)
        assert data.shape == (4, 6)
        assert (data == data[0, 0]).all()

    def test_range_wider_than_the_largest_float(self, tmp_path):
        # hi - lo overflowed to inf, and the map was written as zeros with numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sidecar = export_heatmaps(tmp_path / "hm", np.array([[[1e308, -1e308], [0.0, 5.0]]]))
        assert (sidecar["maps"][0]["min"], sidecar["maps"][0]["max"]) == (-1e308, 1e308)
        np.testing.assert_array_equal(read_pgm(tmp_path / "hm" / "prompt_00.pgm"), [[255, 0], [128, 128]])

    def test_bounds_reconstruct_values_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(12, 9)) * 4
        lo, hi = write_pgm(tmp_path / "m.pgm", values)
        rec = reconstruct(read_pgm(tmp_path / "m.pgm"), lo, hi)
        step = (hi - lo) / 255.0
        assert np.abs(rec - values).max() <= step

    def test_export_writes_sidecar(self, tmp_path):
        maps = np.random.default_rng(1).normal(size=(3, 5, 5))
        sidecar = export_heatmaps(tmp_path / "hm", maps)
        assert len(sidecar["maps"]) == 3
        names = sorted(p.name for p in (tmp_path / "hm").iterdir())
        assert names == ["heatmaps.json", "prompt_00.pgm", "prompt_01.pgm", "prompt_02.pgm"]
        entry = sidecar["maps"][1]
        assert entry["min"] == maps[1].min() and entry["max"] == maps[1].max()
