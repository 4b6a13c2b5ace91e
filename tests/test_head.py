"""Differential tests of the rank-C alignment head in `expalign.gradients`.

The forward maps are checked against the per-prompt tensor-form head in
`expalign.eah`, and the backward pass against the dense reverse pass over the
(P, H, W, L) similarity tensor, kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expalign import fusion, gradients, semantic, verify
from expalign.eah import TokenBatch, alignment_map, token_similarity
from expalign.gaco import gaco_backward
from expalign.gradients import ObjectiveConfig, backward, coerce_inputs, forward, fused_maps, objective_fd_gradients
from expalign.synth import SceneSpec, benchmark_spec, generate_scene

TAU_EXTREMES = (1e-6, 1.0, 1e6)


def dense_backward(tr):
    """The reverse pass over the full similarity tensor: (d_features, d_tokens).

    The loss terms' own backward functions give the fused-map gradients; the
    head below them is the reference."""
    cfg = tr.cfg
    g_dw = semantic.pooled_infonce_backward(tr.logits, tr.selections, tr.positives, tr.dw.shape,
                                            cfg.tau, cfg.lambda_sem)
    g_up = gaco_backward(tr.gaco, cfg.lambda_geo)
    gd3, gd4, gd5 = fusion.fuse_down_adjoint(g_dw)
    gu3, gu4, gu5 = fusion.fuse_up_adjoint(g_up)
    g_eams = [gd3 + gu3, gd4 + gu4, gd5 + gu5]

    d_features = [np.zeros_like(fv) for fv in tr.fvals]
    d_tok_stack = np.zeros_like(tr.tok_stack)
    for s, fv in enumerate(tr.fvals):
        sim = np.einsum("cxy,plc->pxyl", fv, tr.tok_stack)      # (P, Hs, Ws, L)
        pi, g_eam = tr.pis[s], g_eams[s]
        n = fv.shape[1] * fv.shape[2]
        # direct path through the expectation, plus the posterior path through
        # the spatially averaged response; pad tokens have pi = 0 in both
        g_sim = g_eam[:, :, :, None] * pi[:, None, None, :]
        d_pi = np.einsum("pxy,pxyl->pl", g_eam, sim)
        d_sbar = pi / cfg.tau_t * (d_pi - (pi * d_pi).sum(axis=1, keepdims=True))
        g_sim += d_sbar[:, None, None, :] / n
        d_features[s] += np.einsum("pxyl,plc->cxy", g_sim, tr.tok_stack)
        d_tok_stack += np.einsum("pxyl,cxy->plc", g_sim, fv)
    return d_features, [d_tok_stack[p, :l] for p, l in enumerate(tr.lengths)]


def ragged_problem(seed, lengths, channels, h3):
    """Prompts with the given token counts; some tokens are pads (valid False)."""
    rng = np.random.default_rng(seed)
    features = [rng.normal(size=(channels, h3 // f, h3 // f)) for f in (1, 2, 4)]
    toks = [rng.normal(size=(l, channels)) * 0.6 for l in lengths]
    valid = []
    for l in lengths:
        v = rng.random(l) < 0.6
        v[rng.integers(l)] = True
        valid.append(v)
    masks = rng.random((len(lengths), h3, h3)) < 0.4
    positives = sorted(set(rng.integers(len(lengths), size=2).tolist()))
    return features, toks, valid, masks, positives


@given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       channels=st.integers(1, 5), h3=st.sampled_from([4, 8]), tau_t=st.sampled_from(TAU_EXTREMES))
@example(seed=0, lengths=[1], channels=1, h3=4, tau_t=1e-6)
@example(seed=1, lengths=[1, 1], channels=3, h3=4, tau_t=1e6)
@example(seed=2, lengths=[4, 1, 2], channels=2, h3=4, tau_t=1.0)
@settings(max_examples=40, deadline=None)
def test_rank_c_head_matches_tensor_form(seed, lengths, channels, h3, tau_t):
    features, toks, valid, masks, positives = ragged_problem(seed, lengths, channels, h3)
    cfg = ObjectiveConfig(tau_t=tau_t)
    tr = forward(features, toks, masks, positives, cfg, valid)

    for s, fv in enumerate(features):
        for p, (t, v) in enumerate(zip(toks, valid)):
            ref = alignment_map(fv, TokenBatch(t, v), tau_t)
            assert np.abs(tr.eams[s][p] - ref).max() <= 1e-12
            sbar = token_similarity(fv, t).mean(axis=(0, 1))
            assert np.abs(tr.sbars[s][p, :len(t)] - sbar).max() <= 1e-12

    bundle = backward(tr)
    ref_features, ref_tokens = dense_backward(tr)
    scale = max(np.abs(r).max() for r in ref_features + ref_tokens)
    for got, ref in zip(bundle.d_features + bundle.d_tokens, ref_features + ref_tokens):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * scale
    for d_tok, v in zip(bundle.d_tokens, valid):
        assert np.all(d_tok[~v] == 0.0)


def test_fused_maps_is_the_fusion_of_the_forward_maps():
    features, toks, valid, masks, positives = ragged_problem(7, [3, 1, 2], 4, 8)
    tr = forward(features, toks, masks, positives, ObjectiveConfig(tau_t=0.5), valid)
    dw, up = fused_maps(features, toks, tau_t=0.5, token_valid=valid)
    np.testing.assert_array_equal(dw, fusion.fuse_down(*tr.eams))
    np.testing.assert_array_equal(up, fusion.fuse_up(*tr.eams))


def scene_head_inputs(spec):
    """A synthetic scene's (fvals, tok_stack, valid_stack), as forward coerces them."""
    scene = generate_scene(spec)
    return coerce_inputs([f.values for f in scene.features], [t.embeddings for t in scene.tokens],
                         [t.valid for t in scene.tokens])[:3]


def ragged_head_inputs(batch=None):
    """A problem with ragged prompts and pad tokens; batch names the input that gets a
    leading axis of 3 perturbed copies, "features" or "tokens"."""
    features, toks, valid, _, _ = ragged_problem(5, [4, 1, 3], 3, 8)
    fvals, tok_stack, valid_stack = coerce_inputs(features, toks, valid)[:3]
    assert (~valid_stack[0]).any() and (~valid_stack[1:]).any()  # a pad token and padding rows
    rng = np.random.default_rng(6)
    if batch == "features":
        fvals = [fv + 1e-3 * rng.normal(size=(3,) + fv.shape) for fv in fvals]
    elif batch == "tokens":
        fvals, tok_stack = [fv[None] for fv in fvals], tok_stack + 1e-3 * rng.normal(size=(3,) + tok_stack.shape)
    return fvals, tok_stack, valid_stack


HEAD_INPUTS = {
    "desk": lambda: scene_head_inputs(benchmark_spec(1)),
    "wide": lambda: scene_head_inputs(SceneSpec(seed=1, height3=64, width3=64, channels=32, prompts=12,
                                                tokens=12, n_negatives=3)),
    "ragged-pads": ragged_head_inputs,
    "feature-batch": lambda: ragged_head_inputs("features"),
    "token-batch": lambda: ragged_head_inputs("tokens"),
}


@pytest.mark.parametrize("case", sorted(HEAD_INPUTS))
def test_head_on_the_scale_axis_equals_one_call_per_scale_bitwise(case):
    fvals, tok_stack, valid_stack = HEAD_INPUTS[case]()
    sbar, pi, w, eams, fbar = gradients._head(fvals, tok_stack, valid_stack, 0.7)
    assert sbar.shape[0] == pi.shape[0] == w.shape[0] == len(eams) == fbar.shape[0] == 3
    for s, fv in enumerate(fvals):
        for got, want in zip((sbar, pi, w, eams, fbar), gradients._head([fv], tok_stack, valid_stack, 0.7)):
            assert got[s].shape == want[0].shape and got[s].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("fault", ["eah-map-scaled-1e-9", "eah-map-offset-1e-9"])
def test_planted_head_row_moves_every_caller(monkeypatch, fault):
    # the eah group checks gradients._head; this pins that the loss, the fused maps and
    # the finite-difference oracle's feature and token points run that head, not a copy
    features, toks, valid, masks, positives = ragged_problem(4, [3, 2], 3, 8)
    args = (features, toks, masks, positives, ObjectiveConfig(), valid)
    base = forward(*args)
    monkeypatch.setattr(gradients, "forward", lambda *a, **k: base)  # the oracle's base point stays clean

    def outputs():
        fd = objective_fd_gradients(*args)
        return {"forward": forward(*args).eams, "fused_maps": fused_maps(features, toks, 1.0, valid),
                "fd feature points": fd.d_features, "fd token points": fd.d_tokens}

    (function, old, new), = verify.FAULTS[fault][1]
    clean, code = outputs(), function.__code__
    try:
        function.__code__ = verify._edited_code(function, old, new)
        planted = outputs()
    finally:
        function.__code__ = code
    for caller in clean:
        assert any(a.tobytes() != b.tobytes() for a, b in zip(clean[caller], planted[caller])), caller
