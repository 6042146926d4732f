"""Inference-only heterogeneous graph-attention scorer for the simulator.

The scorer is a pure function of a fixed ``WeightSet``: an encoder embeds
every node of an instance through four multi-head attention layers over the
temporal/spatial neighborhood structure, and a decoder turns the embeddings
plus the per-vehicle states into one joint probability matrix over
(vehicle, node) pairs.  No training happens here; weight files are consumed
as produced elsewhere, and seeded random weight sets stand in for trained
ones in experiments.

Architecture constants: node embeddings of width 128, edge embeddings of
width 16, K = 8 attention heads of width 16, L = 4 layers.  Pickup rows are
initialised from the concatenated features of the pickup and its paired
delivery; every other node embeds its own features.  Attention is
role-heterogeneous: pickup (and depot) rows score their neighborhoods with
one parameter set, delivery rows with another.  Normalisation layers apply
fixed statistics shipped with the weights (identity statistics for random
initialisation), keeping the whole forward pass batch-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import edge_features

EMBED_DIM = 128
EDGE_DIM = 16
N_HEADS = 8
N_LAYERS = 4
HEAD_DIM = EMBED_DIM // N_HEADS
CLIP = 10.0
WEIGHTS_VERSION = 1

_LEAK = 0.2                 # LeakyReLU slope in attention scores
_PAIR_FEATS = 10            # (x, y, q, e, l) of a pickup and its delivery
_NODE_FEATS = 5
_VEH_FEATS = 3              # (clock, load, battery)
_BN_STATS = ("mean", "var", "gamma", "beta")


def _declare_shapes():
    shapes = {
        "w1": (EMBED_DIM, _PAIR_FEATS), "b1": (EMBED_DIM,),
        "w2": (EMBED_DIM, _NODE_FEATS), "b2": (EMBED_DIM,),
        "w3": (EDGE_DIM, 1), "b3": (EDGE_DIM,),
        "w4": (EDGE_DIM, 1), "b4": (EDGE_DIM,),
    }
    for stat in _BN_STATS:
        shapes[f"bn0_{stat}"] = (EMBED_DIM,)
    for layer in range(N_LAYERS):
        p = f"layer{layer}_"
        shapes[p + "g1"] = (N_HEADS, 2 * HEAD_DIM + EDGE_DIM)
        shapes[p + "g2"] = (N_HEADS, 2 * HEAD_DIM + EDGE_DIM)
        shapes[p + "wr1"] = (N_HEADS, HEAD_DIM, EMBED_DIM)
        shapes[p + "wr2"] = (N_HEADS, HEAD_DIM, EMBED_DIM)
        shapes[p + "wv"] = (N_HEADS, HEAD_DIM, EMBED_DIM)
        shapes[p + "wo"] = (N_HEADS, EMBED_DIM, HEAD_DIM)
        shapes[p + "ffn_w"] = (EMBED_DIM, EMBED_DIM)
        shapes[p + "ffn_b"] = (EMBED_DIM,)
        for bn in ("bn1", "bn2"):
            for stat in _BN_STATS:
                shapes[f"{p}{bn}_{stat}"] = (EMBED_DIM,)
    shapes.update({
        "dec_w5": (_VEH_FEATS, EMBED_DIM + _VEH_FEATS),
        "dec_w6": (HEAD_DIM, _VEH_FEATS),
        "dec_w7": (HEAD_DIM, EMBED_DIM),
        "dec_w8": (HEAD_DIM, EMBED_DIM),
        "dec_w9": (HEAD_DIM, EMBED_DIM),
    })
    return shapes


TENSOR_SHAPES = _declare_shapes()


def _is_bn_stat(name):
    return any(name.endswith("_" + s) for s in _BN_STATS)


# ---------------------------------------------------------------------------
# weight sets


@dataclass
class WeightSet:
    """Named tensors of the full scorer, keyed per ``TENSOR_SHAPES``."""

    tensors: dict
    version: int = WEIGHTS_VERSION

    def __getitem__(self, name):
        return self.tensors[name]

    def validate(self):
        missing = sorted(set(TENSOR_SHAPES) - set(self.tensors))
        if missing:
            raise ValueError(f"weight set missing tensors: {', '.join(missing)}")
        extra = sorted(set(self.tensors) - set(TENSOR_SHAPES))
        if extra:
            raise ValueError(f"weight set has unknown tensors: {', '.join(extra)}")
        for name in sorted(self.tensors):
            arr = np.asarray(self.tensors[name])
            want = TENSOR_SHAPES[name]
            if tuple(arr.shape) != want:
                raise ValueError(
                    f"tensor {name!r}: expected shape {want}, got {tuple(arr.shape)}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {name!r} has non-finite entries")
            if name.endswith("_var") and np.any(arr <= 0):
                raise ValueError(f"tensor {name!r}: variances must be positive")
        return self


def _fan_in(name):
    if name in ("b1", "b2", "b3", "b4"):
        return TENSOR_SHAPES["w" + name[1:]][-1]
    if name.endswith("ffn_b"):
        return TENSOR_SHAPES[name[:-1] + "w"][-1]
    return TENSOR_SHAPES[name][-1]


def random_weights(seed):
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per tensor.

    Normalisation statistics are set to the identity transform (mean 0,
    variance 1, unit gain, zero shift) rather than drawn.
    """
    rng = np.random.default_rng(seed)
    fill = {"mean": 0.0, "var": 1.0, "gamma": 1.0, "beta": 0.0}
    tensors = {}
    for name in sorted(TENSOR_SHAPES):
        shape = TENSOR_SHAPES[name]
        if _is_bn_stat(name):
            tensors[name] = np.full(shape, fill[name.rsplit("_", 1)[1]])
        else:
            bound = 1.0 / math.sqrt(_fan_in(name))
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return WeightSet(tensors).validate()


def save_weights(weights, path):
    """Write a weight set as an npz archive with a mandatory version field."""
    weights.validate()
    with open(path, "wb") as fh:
        np.savez(fh, __version__=np.array(weights.version),
                 **{k: np.asarray(v) for k, v in weights.tensors.items()})


def load_weights(path):
    with np.load(path) as data:
        if "__version__" not in data.files:
            raise ValueError(f"weight file {path}: missing version field")
        version = int(data["__version__"])
        if version != WEIGHTS_VERSION:
            raise ValueError(
                f"weight file {path}: unsupported version {version} "
                f"(this build reads version {WEIGHTS_VERSION})")
        tensors = {k: data[k] for k in data.files if k != "__version__"}
    return WeightSet(tensors, version).validate()


# ---------------------------------------------------------------------------
# encoder


@dataclass
class Embedding:
    """Per-node vectors plus the customer-average graph summary."""

    nodes: np.ndarray    # (n, EMBED_DIM)
    summary: np.ndarray  # (EMBED_DIM,)
    kinds: np.ndarray    # (n,) 0 = pickup, 1 = delivery, 2 = depot


_KIND_CODE = {"pickup": 0, "delivery": 1, "depot": 2}


def node_features(inst):
    """Per-node raw features (x, y, q, e, l); depots get zero demand/window."""
    feats = np.zeros((inst.n_nodes, _NODE_FEATS))
    for i in range(inst.n_nodes):
        x, y = inst.node_xy(i)
        if inst.is_depot(i):
            feats[i] = (x, y, 0.0, 0.0, 0.0)
        else:
            early, late = inst.node_window(i)
            feats[i] = (x, y, inst.node_demand(i), early, late)
    return feats


def _bn(weights, prefix, x):
    mean = weights[prefix + "_mean"]
    var = weights[prefix + "_var"]
    return weights[prefix + "_gamma"] * (x - mean) / np.sqrt(var) \
        + weights[prefix + "_beta"]


def _graph_summary(nodes, kinds):
    customers = kinds != _KIND_CODE["depot"]
    return nodes[customers].mean(axis=0)


def init_embeddings(inst, edge_feats, weights):
    """Initial node embeddings and the dense edge-embedding tensor.

    ``edge_feats`` maps mode name -> (2N, 2N) slack matrix (NaN where a
    pair has no feature; see ``edge_features``); the two modes use separate
    projections, fused by summation on pairs present in both.  Pairs absent
    from every mode, and every pair when the mapping is empty, keep the
    zero vector.
    """
    feats = node_features(inst)
    n, big_n = inst.n_nodes, inst.n_customers
    kinds = np.array([_KIND_CODE[inst.node_kind(i)] for i in range(n)],
                     dtype=np.int8)
    pick = kinds == 0
    pairs = np.concatenate([feats[pick], feats[np.flatnonzero(pick) + big_n]],
                           axis=1)
    h = np.empty((n, EMBED_DIM))
    h[pick] = pairs @ weights["w1"].T + weights["b1"]
    h[~pick] = feats[~pick] @ weights["w2"].T + weights["b2"]
    h = _bn(weights, "bn0", h)
    edges = np.zeros((n, n, EDGE_DIM))
    proj = {"UAV": ("w3", "b3"), "ADR": ("w4", "b4")}
    for mode, slack in edge_feats.items():
        wm, bm = weights[proj[mode][0]], weights[proj[mode][1]]
        i, j = np.nonzero(~np.isnan(slack))
        edges[i, j] += wm[:, 0] * slack[i, j, None] + bm
    return Embedding(nodes=h, summary=_graph_summary(h, kinds), kinds=kinds), edges


def gat_layer(h, edges, a_t, a_s, weights, layer):
    """One heterogeneous multi-head attention layer over NB^T ∪ NB^S.

    Row i scores its neighborhood with the pickup-role parameters (g1, wr1)
    unless i is a delivery node, which uses (g2, wr2).  A head's score of
    neighbor j is g · [own_i, other_j, edge_ij], so each role's (n, n, K)
    scores are built from the three blocks of g at once, and a masked
    softmax over j runs on the dense neighborhood.  Aggregation sums the
    attention-weighted values over all neighbors, over pickup neighbors and
    over delivery neighbors (three groups), the heads are recombined, and a
    residual + normalisation + feed-forward block finishes the layer.
    Isolated rows fall back to a self-loop with a zero edge embedding.
    """
    if not 0 <= layer < N_LAYERS:
        raise ValueError(f"layer index {layer} out of range 0..{N_LAYERS - 1}")
    x, kinds = h.nodes, h.kinds
    n = x.shape[0]
    p = f"layer{layer}_"
    d = HEAD_DIM
    scores = []
    for role in ("1", "2"):
        g = weights[p + "g" + role]                                  # (K, 48)
        pr = np.einsum("nd,khd->nkh", x, weights[p + "wr" + role])   # (n, K, 16)
        own = np.einsum("nkh,kh->nk", pr, g[:, :d])
        other = np.einsum("nkh,kh->nk", pr, g[:, d:2 * d])
        scores.append(own[:, None, :] + other[None, :, :] + edges @ g[:, 2 * d:].T)
    score = np.where((kinds == 1)[:, None, None], scores[1], scores[0])
    score = np.where(score > 0, score, _LEAK * score)
    nb = a_t | a_s
    nb |= np.diag(~nb.any(axis=1))          # isolated rows: self-loop, zero edge
    score = np.where(nb[:, :, None], score, -np.inf)
    alpha = np.exp(score - score.max(axis=1, keepdims=True))
    alpha /= alpha.sum(axis=1, keepdims=True)                        # (n, n, K)
    group = 1.0 + (kinds == 0) + (kinds == 1)
    vals = np.einsum("nd,khd->knh", x, weights[p + "wv"])             # (K, n, 16)
    heads = (alpha * group[None, :, None]).transpose(2, 0, 1) @ vals  # (K, n, 16)
    wo = weights[p + "wo"].transpose(0, 2, 1).reshape(N_HEADS * d, EMBED_DIM)
    combined = heads.transpose(1, 0, 2).reshape(n, N_HEADS * d) @ wo
    y = _bn(weights, p + "bn1", x + combined)
    ff = np.maximum(y @ weights[p + "ffn_w"].T + weights[p + "ffn_b"], 0.0)
    y = _bn(weights, p + "bn2", y + ff)
    return Embedding(nodes=y, summary=_graph_summary(y, kinds), kinds=kinds)


def encode(inst, nets, weights):
    """Full encoder pass: initial embeddings, then all attention layers."""
    feats = {"UAV": edge_features(inst, nets.aerial, "UAV", nets.spec),
             "ADR": edge_features(inst, nets.ground, "ADR", nets.spec)}
    h, edges = init_embeddings(inst, feats, weights)
    for layer in range(N_LAYERS):
        h = gat_layer(h, edges, nets.temporal, nets.spatial, weights, layer)
    return h


# ---------------------------------------------------------------------------
# decoder


def decode_scores(h, vehicle_states, weights, mask=None):
    """Joint probability matrix over (vehicle, node) pairs.

    Each vehicle's context is its raw state plus a shared projection of the
    graph summary concatenated with the fleet-average state (so the decoder
    is fleet-size independent).  Importance scores attend over the node
    embeddings, the attended vector is compared back against every node, and
    the clipped compatibilities feed one softmax over all unmasked pairs.
    Masked pairs receive probability exactly 0; if everything is masked the
    state is terminal and an error is raised.
    """
    states = np.atleast_2d(np.asarray(vehicle_states, dtype=float))
    if states.shape[1] != _VEH_FEATS:
        raise ValueError(
            f"vehicle states must have {_VEH_FEATS} columns, got {states.shape[1]}")
    nodes = h.nodes
    if mask is None:
        mask = np.ones((states.shape[0], nodes.shape[0]), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (states.shape[0], nodes.shape[0]):
        raise ValueError(f"mask shape {mask.shape} does not match "
                         f"({states.shape[0]}, {nodes.shape[0]})")
    if not mask.any():
        raise RuntimeError("all (vehicle, node) pairs masked: terminal state")
    ctx = weights["dec_w5"] @ np.concatenate([h.summary, states.mean(axis=0)])
    x_k = states + ctx
    q = x_k @ weights["dec_w6"].T                    # (K_v, 16)
    keys = nodes @ weights["dec_w7"].T               # (n, 16)
    imp = q @ keys.T                                 # (K_v, n)
    imp -= imp.max(axis=1, keepdims=True)
    att = np.exp(imp)
    att /= att.sum(axis=1, keepdims=True)
    h_v = att @ nodes                                # (K_v, 128)
    compat = (h_v @ weights["dec_w8"].T) @ (nodes @ weights["dec_w9"].T).T
    logits = CLIP * np.tanh(compat)
    probs = np.zeros_like(logits)
    flat = logits[mask]
    flat = np.exp(flat - flat.max())
    probs[mask] = flat / flat.sum()
    return probs


def attention_scorer(weights):
    """Adapt a weight set into a rollout policy ``(state, mask) -> scores``.

    The encoder runs again only when the instance or the networks object
    changes (embeddings do not depend on the simulator state); the decoder
    runs every step on the current vehicle states.
    """
    weights.validate()
    last = [None, None, None]   # instance, networks, their encoding
    def policy(state, mask):
        if last[0] is not state.inst or last[1] is not state.nets:
            last[:] = state.inst, state.nets, encode(state.inst, state.nets,
                                                     weights)
        states = np.stack([state.clock, state.load, state.battery], axis=1)
        return decode_scores(last[2], states, weights, mask)
    return policy
