"""Attention scorer: weights lifecycle, encoder, decoder, masking, symmetry."""

import numpy as np
import pytest

from cpdptw import env, instance, policy, toy
from cpdptw.instance import Customer, Instance
from cpdptw.network import AdjacencySpec, build_networks, edge_features
from cpdptw.policy import (EMBED_DIM, N_LAYERS, TENSOR_SHAPES, WeightSet,
                           attention_scorer, decode_scores, encode,
                           gat_layer, load_weights, node_features,
                           random_weights, save_weights)
from conftest import make_case


def _toy_encoded(seed=0):
    inst, _ = toy.build_toy_instance()
    nets = build_networks(inst)
    w = random_weights(seed)
    return inst, nets, w, encode(inst, nets, w)


# -- tensor registry ---------------------------------------------------------------


def test_tensor_registry_is_complete():
    assert len(TENSOR_SHAPES) == 81
    assert TENSOR_SHAPES["w1"] == (EMBED_DIM, 10)
    assert TENSOR_SHAPES["dec_w5"] == (3, EMBED_DIM + 3)
    assert TENSOR_SHAPES["dec_w6"] == (16, 3)
    for layer in range(N_LAYERS):
        assert TENSOR_SHAPES[f"layer{layer}_wr2"] == (8, 16, EMBED_DIM)
        assert TENSOR_SHAPES[f"layer{layer}_bn1_gamma"] == (EMBED_DIM,)


def test_random_weights_deterministic_and_bounded():
    a, b = random_weights(3), random_weights(3)
    for name in TENSOR_SHAPES:
        assert np.array_equal(a[name], b[name]), name
    c = random_weights(4)
    assert any(not np.array_equal(a[name], c[name]) for name in TENSOR_SHAPES)
    # non-statistic tensors are uniform within +/- 1/sqrt(fan_in)
    for name in ("w1", "dec_w7", "layer0_wv"):
        bound = 1.0 / np.sqrt(TENSOR_SHAPES[name][-1])
        assert np.abs(a[name]).max() <= bound
    # batch-norm statistics start as the identity transform
    assert np.array_equal(a["bn0_gamma"], np.ones(EMBED_DIM))
    assert np.array_equal(a["bn0_beta"], np.zeros(EMBED_DIM))
    assert np.array_equal(a["bn0_mean"], np.zeros(EMBED_DIM))
    assert np.array_equal(a["bn0_var"], np.ones(EMBED_DIM))


def test_identity_batch_norm_is_exact():
    w = random_weights(0)
    x = np.random.default_rng(1).normal(size=(5, EMBED_DIM))
    assert np.array_equal(policy._bn(w, "bn0", x), x)


def test_weight_validation_names_the_offender():
    w = random_weights(0)
    missing = WeightSet({k: v for k, v in w.tensors.items() if k != "dec_w8"})
    with pytest.raises(ValueError, match="missing tensors: dec_w8"):
        missing.validate()

    extra = WeightSet(dict(w.tensors, rogue=np.zeros(3)))
    with pytest.raises(ValueError, match="unknown tensors: rogue"):
        extra.validate()

    bad_shape = WeightSet(dict(w.tensors, dec_w6=np.zeros((2, 2))))
    with pytest.raises(ValueError, match=r"dec_w6.*expected shape \(16, 3\)"):
        bad_shape.validate()

    nan = WeightSet(dict(w.tensors, w1=np.full(TENSOR_SHAPES["w1"], np.nan)))
    with pytest.raises(ValueError, match="non-finite"):
        nan.validate()

    negvar = WeightSet(dict(w.tensors,
                            bn0_var=np.full(EMBED_DIM, -1.0)))
    with pytest.raises(ValueError, match="variances must be positive"):
        negvar.validate()


def test_weights_save_load_round_trip(tmp_path):
    w = random_weights(7)
    path = tmp_path / "weights.npz"
    save_weights(w, path)
    back = load_weights(path)
    assert back.version == w.version
    for name in TENSOR_SHAPES:
        assert np.array_equal(back[name], w[name]), name


def test_weight_file_version_is_mandatory(tmp_path):
    w = random_weights(0)
    path = tmp_path / "weights.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **{k: np.asarray(v) for k, v in w.tensors.items()})
    with pytest.raises(ValueError, match="missing version"):
        load_weights(path)

    path2 = tmp_path / "future.npz"
    with open(path2, "wb") as fh:
        np.savez(fh, __version__=np.array(99),
                 **{k: np.asarray(v) for k, v in w.tensors.items()})
    with pytest.raises(ValueError, match="unsupported version 99"):
        load_weights(path2)


# -- encoder -----------------------------------------------------------------------


def test_node_features_layout():
    inst, _ = toy.build_toy_instance()
    feats = node_features(inst)
    assert feats.shape == (inst.n_nodes, 5)
    assert feats[0].tolist() == [1.0, 2.0, 4.0, 3.0, 10.0]
    assert feats[toy.DEPOT_NODE].tolist() == [0.0, 0.0, 0.0, 0.0, 0.0]


def test_encode_shapes_and_determinism():
    inst, nets, w, h = _toy_encoded()
    assert h.nodes.shape == (inst.n_nodes, EMBED_DIM)
    assert h.summary.shape == (EMBED_DIM,)
    assert h.kinds.tolist() == [0, 0, 0, 1, 1, 1, 2]
    again = encode(inst, nets, w)
    assert np.array_equal(h.nodes, again.nodes)
    assert np.all(np.isfinite(h.nodes))


def test_encoder_golden_snapshot():
    """Frozen fingerprints of the full encoder on the example instance."""
    _, _, _, h = _toy_encoded(seed=0)
    assert h.nodes[0, :3] == pytest.approx(
        [30.22854332072937, -4.584366277786145, -37.83498174306681], abs=1e-9)
    assert h.nodes[5, :3] == pytest.approx(
        [26.578578067349532, 7.705603559479769, -65.22442774789609], abs=1e-9)
    assert h.summary[:3] == pytest.approx(
        [27.25051974696913, 3.50340253127604, -49.26145578337471], abs=1e-9)


def test_gat_layer_roles_touch_only_delivery_rows():
    """Zeroing the delivery-role tensors must leave other rows untouched."""
    inst, nets, w, _ = _toy_encoded()
    h0, edges = policy.init_embeddings(inst, {}, w)
    base = gat_layer(h0, edges, nets.temporal, nets.spatial, w, 0)

    t = dict(w.tensors)
    t["layer0_g2"] = np.zeros_like(t["layer0_g2"])
    t["layer0_wr2"] = np.zeros_like(t["layer0_wr2"])
    cut = gat_layer(h0, edges, nets.temporal, nets.spatial, WeightSet(t), 0)

    n = inst.n_customers
    deliveries = list(range(n, 2 * n))
    others = [i for i in range(inst.n_nodes) if i not in deliveries]
    assert np.array_equal(base.nodes[others], cut.nodes[others])
    assert not np.array_equal(base.nodes[deliveries], cut.nodes[deliveries])


def test_gat_layer_rejects_bad_index():
    inst, nets, w, _ = _toy_encoded()
    h0, edges = policy.init_embeddings(inst, {}, w)
    with pytest.raises(ValueError, match="layer index"):
        gat_layer(h0, edges, nets.temporal, nets.spatial, w, N_LAYERS)


def _reference_init_embeddings(inst, edge_feats, weights):
    """``init_embeddings`` written as loops over nodes and pairs."""
    feats = node_features(inst)
    n, big_n = inst.n_nodes, inst.n_customers
    kinds = np.array([policy._KIND_CODE[inst.node_kind(i)] for i in range(n)])
    h = np.zeros((n, EMBED_DIM))
    for i in range(n):
        if kinds[i] == 0:
            h[i] = weights["w1"] @ np.concatenate([feats[i], feats[i + big_n]]) \
                + weights["b1"]
        else:
            h[i] = weights["w2"] @ feats[i] + weights["b2"]
    h = policy._bn(weights, "bn0", h)
    edges = np.zeros((n, n, policy.EDGE_DIM))
    proj = {"UAV": ("w3", "b3"), "ADR": ("w4", "b4")}
    for mode, slack in edge_feats.items():
        wm, bm = weights[proj[mode][0]], weights[proj[mode][1]]
        for i, j in np.argwhere(~np.isnan(slack)):
            edges[i, j] += wm[:, 0] * slack[i, j] + bm
    return policy.Embedding(nodes=h, summary=policy._graph_summary(h, kinds),
                            kinds=kinds), edges


def _reference_gat_layer(h, edges, a_t, a_s, weights, layer):
    """``gat_layer`` written as a loop over (node, head): the reference for
    the dense, masked form."""
    x, kinds = h.nodes, h.kinds
    p = f"layer{layer}_"
    g_role = (weights[p + "g1"], weights[p + "g2"])
    pr = (np.einsum("nd,khd->nkh", x, weights[p + "wr1"]),
          np.einsum("nd,khd->nkh", x, weights[p + "wr2"]))
    vals = np.einsum("nd,khd->nkh", x, weights[p + "wv"])
    nb = a_t | a_s
    combined = np.zeros_like(x)
    for i in range(x.shape[0]):
        neigh = np.flatnonzero(nb[i])
        if neigh.size == 0:
            neigh = np.array([i])
            e_ij = np.zeros((1, policy.EDGE_DIM))
        else:
            e_ij = edges[i, neigh]
        role = 1 if kinds[i] == 1 else 0
        group = 1.0 + (kinds[neigh] == 0) + (kinds[neigh] == 1)
        heads = np.empty((policy.N_HEADS, policy.HEAD_DIM))
        for k in range(policy.N_HEADS):
            z = np.concatenate(
                [np.broadcast_to(pr[role][i, k], (neigh.size, policy.HEAD_DIM)),
                 pr[role][neigh, k, :], e_ij], axis=1)
            score = z @ g_role[role][k]
            score = np.where(score > 0, score, 0.2 * score)
            alpha = np.exp(score - score.max())
            alpha /= alpha.sum()
            heads[k] = (alpha * group) @ vals[neigh, k, :]
        combined[i] = np.einsum("kdh,kh->d", weights[p + "wo"], heads)
    y = policy._bn(weights, p + "bn1", x + combined)
    ff = np.maximum(y @ weights[p + "ffn_w"].T + weights[p + "ffn_b"], 0.0)
    y = policy._bn(weights, p + "bn2", y + ff)
    return policy.Embedding(nodes=y, summary=policy._graph_summary(y, kinds),
                            kinds=kinds)


@pytest.mark.parametrize("zeta, mu, isolated", [
    (1e-6, 1e-6, 14), (1e-6, 1.0, 4), (5.0, 1e-6, 9), (30.0, 0.5, 2)])
def test_dense_encoder_matches_the_per_node_reference(zeta, mu, isolated):
    """The dense encoder agrees with the loop over nodes, pairs and heads,
    including rows with no neighbor, which attend only to themselves; the
    edge tensor is the same bit for bit."""
    inst = instance.generate(6, n_depots=2, seed=3)
    nets = build_networks(inst, AdjacencySpec(zeta=zeta, mu=mu, rho=0.3,
                                              seed=3))
    nb = nets.temporal | nets.spatial
    assert int((~nb.any(axis=1)).sum()) == isolated
    w = random_weights(5)
    feats = {"UAV": edge_features(inst, nets.aerial, "UAV", nets.spec),
             "ADR": edge_features(inst, nets.ground, "ADR", nets.spec)}
    ref, edges = _reference_init_embeddings(inst, feats, w)
    assert np.array_equal(edges, policy.init_embeddings(inst, feats, w)[1])
    for layer in range(N_LAYERS):
        ref = _reference_gat_layer(ref, edges, nets.temporal, nets.spatial,
                                   w, layer)
    got = encode(inst, nets, w)
    # relative to the largest entry: cancellation leaves some entries near 0
    for a, b in ((got.nodes, ref.nodes), (got.summary, ref.summary)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


# -- decoder -----------------------------------------------------------------------


def _scaled_decoder(w, factor=1e-3):
    t = dict(w.tensors)
    for name in ("dec_w6", "dec_w7", "dec_w8", "dec_w9"):
        t[name] = t[name] * factor
    return WeightSet(t).validate()


def test_decode_probabilities_are_a_masked_distribution():
    inst, nets, w, h = _toy_encoded()
    states = np.array([[0.0, 0.0, 6.5], [12.0, 3.0, 4.5], [30.0, 1.0, 2.0]])
    mask = np.zeros((3, inst.n_nodes), dtype=bool)
    mask[:, :3] = True
    P = decode_scores(h, states, w, mask)
    assert P.shape == mask.shape
    assert P.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(P[~mask] == 0.0)
    assert np.all(P[mask] > 0.0)
    assert np.all(np.isfinite(P))


def test_decode_golden_snapshot_and_state_sensitivity():
    inst, nets, w, h = _toy_encoded()
    w2 = _scaled_decoder(w)
    states = np.array([[0.0, 0.0, 6.5], [12.0, 3.0, 4.5], [30.0, 1.0, 2.0]])
    mask = np.zeros((3, inst.n_nodes), dtype=bool)
    mask[:, :3] = True
    P = decode_scores(h, states, w2, mask)
    assert P[0, :3] == pytest.approx(
        [0.11076343361458979, 0.11122145035417008, 0.11134834665694437],
        abs=1e-12)
    assert (P[0] != P[1]).any()   # vehicle state reaches the logits


def test_decode_input_validation():
    inst, nets, w, h = _toy_encoded()
    with pytest.raises(ValueError, match="3 columns"):
        decode_scores(h, np.zeros((2, 4)), w)
    with pytest.raises(ValueError, match="mask shape"):
        decode_scores(h, np.zeros((2, 3)), w,
                      mask=np.ones((2, 3), dtype=bool))
    with pytest.raises(RuntimeError, match="masked"):
        decode_scores(h, np.zeros((2, 3)), w,
                      mask=np.zeros((2, inst.n_nodes), dtype=bool))


def test_attention_scorer_drives_full_rollouts():
    inst, fleet = make_case(n=2, seed=1, n_uav=1, n_adr=1)
    scorer = attention_scorer(random_weights(0))
    a = env.rollout(scorer, inst, fleet, seed=1)
    b = env.rollout(scorer, inst, fleet, seed=1)
    assert a.total == b.total
    assert [v.node for r in a.routes for v in r.visits] == \
        [v.node for r in b.routes for v in r.visits]


def test_argmax_is_equivariant_under_customer_relabeling():
    """Swapping customers 0 and 1 permutes the probability matrix."""
    base, _ = toy.build_toy_instance()
    c0, c1, c2 = base.customers
    swapped = Instance(
        [Customer(0, c1.pickup_loc, c1.delivery_loc, c1.early, c1.late,
                  c1.delivery_early, c1.delivery_late, c1.demand),
         Customer(1, c0.pickup_loc, c0.delivery_loc, c0.early, c0.late,
                  c0.delivery_early, c0.delivery_late, c0.demand),
         Customer(2, c2.pickup_loc, c2.delivery_loc, c2.early, c2.late,
                  c2.delivery_early, c2.delivery_late, c2.demand)],
        list(base.depots), service_time=base.service_time,
        area_km=base.area_km, seed=base.seed)
    swapped.validate()
    perm = {0: 1, 1: 0, 2: 2, 3: 4, 4: 3, 5: 5, 6: 6}

    w = _scaled_decoder(random_weights(0))
    states = np.array([[0.0, 0.0, 6.5], [2.0, 1.0, 3.0]])
    mask = np.zeros((2, base.n_nodes), dtype=bool)
    mask[:, [0, 1, 2]] = True
    mask[1, 2] = False

    spec = AdjacencySpec()
    P = decode_scores(encode(base, build_networks(base, spec), w), states, w,
                      mask)
    mask_p = np.zeros_like(mask)
    for j in range(base.n_nodes):
        mask_p[:, perm[j]] = mask[:, j]
    P_p = decode_scores(encode(swapped, build_networks(swapped, spec), w),
                        states, w, mask_p)
    for j in range(base.n_nodes):
        assert P_p[:, perm[j]] == pytest.approx(P[:, j], abs=1e-9)
    k, j = np.unravel_index(int(np.argmax(P)), P.shape)
    kp, jp = np.unravel_index(int(np.argmax(P_p)), P_p.shape)
    assert (kp, jp) == (k, perm[j])


def test_attention_scorer_encodes_each_network_it_is_given():
    """A scorer reused on new networks of the same instance re-encodes."""
    inst, fleet = make_case(n=8, n_depots=2, seed=7, n_uav=3, n_adr=2)
    weights = random_weights(7)
    calm = build_networks(inst, AdjacencySpec(seed=7))
    blocked = build_networks(inst, AdjacencySpec(rho=0.6, zeta=20, mu=1.5,
                                                 seed=7))
    reused = attention_scorer(weights)
    env.rollout(reused, inst, fleet, seed=7, nets=calm)
    again = env.rollout(reused, inst, fleet, seed=7, nets=blocked)
    fresh = env.rollout(attention_scorer(weights), inst, fleet, seed=7,
                        nets=blocked)
    assert again.total == fresh.total
    assert [v.node for r in again.routes for v in r.visits] == \
        [v.node for r in fresh.routes for v in r.visits]
