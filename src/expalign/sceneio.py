"""Scene serialization: one JSON document with row-major flat arrays.

Human-inspectable fixtures, trivially parseable from any language; 64-bit
reals are written as plain JSON numbers.
"""

import json

import numpy as np

from .eah import FeatureMap, TokenBatch
from .errors import DomainError, SceneFormatError
from .synth import Scene

SCENE_SCHEMA_VERSION = 1


def scene_to_dict(scene):
    feats = {f"p{s}": fm.values.ravel().tolist() for s, fm in zip((3, 4, 5), scene.features)}
    c, h3, w3 = scene.features[0].values.shape
    return {
        "schema_version": SCENE_SCHEMA_VERSION,
        "channels": c,
        "height3": h3,
        "width3": w3,
        "prompts": len(scene.tokens),
        "tokens_per_prompt": scene.tokens[0].embeddings.shape[0],
        "features": feats,
        "tokens": [t.embeddings.ravel().tolist() for t in scene.tokens],
        "token_valid": [t.valid.tolist() for t in scene.tokens],
        "masks": scene.masks.astype(int).ravel().tolist(),
        "positives": [int(p) for p in scene.positives],
    }


def write_scene(path, scene):
    """Write the scene as JSON; a non-finite value raises DomainError before any file is made."""
    named = [(f"features.p{s}", fm.values) for s, fm in zip((3, 4, 5), scene.features)]
    named += [(f"tokens[{p}]", t.embeddings) for p, t in enumerate(scene.tokens)]
    for name, values in named:
        if not np.isfinite(values).all():
            raise DomainError(f"field '{name}' contains non-finite values")
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, sort_keys=True)
        fh.write("\n")


def _get(doc, name, kind):
    if name not in doc:
        raise SceneFormatError(f"missing field '{name}'")
    value = doc[name]
    if kind is int and type(value) is not int:  # a JSON boolean is not an integer
        raise SceneFormatError(f"field '{name}' must be an integer, got {type(value).__name__}")
    if kind is list and not isinstance(value, list):
        raise SceneFormatError(f"field '{name}' must be a list, got {type(value).__name__}")
    return value


def _numbers(value, name):
    """A flat list of finite JSON numbers (not booleans) as an array; name is the field's dotted path."""
    if not isinstance(value, list) or not {int, float}.issuperset(map(type, value)):
        raise SceneFormatError(f"field '{name}' must be a flat list of numbers")
    try:
        flat = np.array(value, dtype=np.float64)
    except OverflowError:  # a JSON integer such as 10**400
        raise SceneFormatError(f"field '{name}' holds an integer too large for a float") from None
    if not np.isfinite(flat).all():
        raise SceneFormatError(f"field '{name}' contains non-finite values")
    return flat


def _shaped(value, name, shape):
    """A flat list of finite numbers, reshaped; name is the field's dotted path."""
    flat = _numbers(value, name)
    expected = int(np.prod(shape))
    if flat.size != expected:
        raise SceneFormatError(f"field '{name}' has {flat.size} values, expected {expected} for shape {shape}")
    return flat.reshape(shape)


def scene_from_dict(doc):
    version = _get(doc, "schema_version", int)
    if version != SCENE_SCHEMA_VERSION:
        raise SceneFormatError(f"unsupported schema_version {version}, expected {SCENE_SCHEMA_VERSION}")
    c = _get(doc, "channels", int)
    h3 = _get(doc, "height3", int)
    w3 = _get(doc, "width3", int)
    n_prompts = _get(doc, "prompts", int)
    l = _get(doc, "tokens_per_prompt", int)
    if min(c, h3, w3, n_prompts, l) < 1:
        raise SceneFormatError("dimensions must be positive")
    if h3 % 4 or w3 % 4:
        raise SceneFormatError(f"height3/width3 must be divisible by 4, got {h3}x{w3}")

    feats_doc = doc.get("features")
    if not isinstance(feats_doc, dict):
        raise SceneFormatError("field 'features' must be an object with keys p3, p4, p5")
    features = []
    for scale, factor in ((3, 1), (4, 2), (5, 4)):
        key = f"p{scale}"
        if key not in feats_doc:
            raise SceneFormatError(f"missing field 'features.{key}'")
        values = _shaped(feats_doc[key], f"features.{key}", (c, h3 // factor, w3 // factor))
        features.append(FeatureMap(values))

    tokens_doc = _get(doc, "tokens", list)
    valid_doc = _get(doc, "token_valid", list)
    if len(tokens_doc) != n_prompts or len(valid_doc) != n_prompts:
        raise SceneFormatError("fields 'tokens' and 'token_valid' must have one entry per prompt")
    tokens = []
    for p in range(n_prompts):
        emb = _numbers(tokens_doc[p], f"tokens[{p}]")
        if emb.size != l * c:
            raise SceneFormatError(f"field 'tokens[{p}]' has {emb.size} values, expected {l * c}")
        if not isinstance(valid_doc[p], list) or not {bool}.issuperset(map(type, valid_doc[p])):
            raise SceneFormatError(f"field 'token_valid[{p}]' must be a list of booleans")
        valid = np.array(valid_doc[p], dtype=bool)
        if valid.size != l:
            raise SceneFormatError(f"field 'token_valid[{p}]' has {valid.size} values, expected {l}")
        if not valid.any():
            raise SceneFormatError(f"field 'token_valid[{p}]' marks every token invalid")
        tokens.append(TokenBatch(emb.reshape(l, c), valid))

    masks_flat = _shaped(_get(doc, "masks", list), "masks", (n_prompts, h3, w3))
    if not np.isin(masks_flat, (0.0, 1.0)).all():
        raise SceneFormatError("field 'masks' must contain only 0 and 1")
    masks = masks_flat.astype(bool)

    positives = _get(doc, "positives", list)
    if not positives:
        raise SceneFormatError("field 'positives' must be nonempty")
    for p in positives:
        if type(p) is not int:
            raise SceneFormatError(f"field 'positives' entry {p!r} must be an integer")
        if not 0 <= p < n_prompts:
            raise SceneFormatError(f"field 'positives' entry {p!r} outside [0, {n_prompts})")

    return Scene(features=tuple(features), tokens=tuple(tokens), masks=masks,
                 positives=tuple(sorted(set(positives))))


def read_scene(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise SceneFormatError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise SceneFormatError("top-level JSON value must be an object")
    return scene_from_dict(doc)
