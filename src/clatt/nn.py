"""Model stack: cluster attention, baseline convolutions, residual blocks.

Everything here is a pure function over a flat dict of named parameter
Tensors, so checkpointing and the optimizer stay trivial. The attention
kernel is shared: cluster attention, the neighborhood transformer and
the global transformer all go through _slot_attention, which runs three
tape ops (slot_logits, masked_softmax, slot_context) per SlotClass: a
size class of a padded slot layout, so a small cluster or a low-degree
node is padded only to the widest row of its class, not to the widest
row overall. A neighborhood is a row whose only query is its own node;
global attention is one cluster of every node.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import InitVar, asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from .errors import InputError
from .partition import MAX_CLUSTER_SLOTS, Clustering

__all__ = [
    "CONV_TYPES",
    "PE_KINDS",
    "ClusterBatch",
    "ModelSpec",
    "ModelInputs",
    "SlotClass",
    "build_cluster_batch",
    "check_global_attention_size",
    "check_neighborhood_size",
    "clatt_forward",
    "fuse",
    "gcn_matrix",
    "mean_matrix",
    "neighborhood_table",
    "neighborhood_classes",
    "gcn_conv",
    "sage_conv",
    "local_attention_conv",
    "global_classes",
    "global_attention",
    "init_params",
    "prepare_inputs",
    "hidden_and_logits",
    "model_forward",
]

# MLP is a layer with no message-passing or attention step of its own
CONV_TYPES = ("GCN", "SAGE", "LGT", "GGT", "MLP")
PE_KINDS = ("none", "deepwalk", "laplacian")

GLOBAL_ATTENTION_MAX_NODES = 20_000
NEIGHBORHOOD_TABLE_MAX_SLOTS = 50_000_000


def _slot_map(ids: np.ndarray, n: int) -> sp.csr_matrix:
    """(n, ids.size) 0/1 matrix that sums slot j onto row ids[j]; a slot
    holding -1 is dropped."""
    cols = np.flatnonzero(ids >= 0)
    return sp.csr_matrix((np.ones(cols.size), (ids[cols], cols)), shape=(n, ids.size))


@dataclass
class SlotClass:
    """One size class of a padded slot layout, the unit of attention.

    nodes (rows, Sq) holds the query nodes, -1 marking a padded query
    slot; table (rows, S) holds the key nodes and mask (rows, S) says
    which key slots are live; every row needs one. scatter, derived from
    nodes, maps the class's flattened (row, query) outputs onto the n
    nodes; key_scatter does the same for the live (row, key) slots.
    """

    nodes: np.ndarray
    table: np.ndarray
    mask: np.ndarray
    n: InitVar[int]
    scatter: sp.csr_matrix = field(init=False, repr=False)
    key_scatter: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self, n: int):
        empty = np.flatnonzero(~self.mask.any(axis=1))
        if empty.size:
            raise ValueError(f"SlotClass: row {empty[0]} has no live key slot")
        self.scatter = _slot_map(self.nodes.ravel(), n)
        self.key_scatter = _slot_map(np.where(self.mask, self.table, -1).ravel(), n)


def _size_classes(table: np.ndarray, mask: np.ndarray):
    """Yield (rows, table, mask) per power-of-two size class.

    A row's extent is one past its last live slot; rows with extents in
    (2^(k-1), 2^k] share class k, which is as wide as its widest row.
    """
    width = mask.shape[1]
    extent = np.where(mask.any(axis=1), width - np.argmax(mask[:, ::-1], axis=1), 0)
    key = np.frexp(np.maximum(extent - 1, 0))[1]
    for k in np.unique(key):
        rows = np.nonzero(key == k)[0]
        w = int(extent[rows].max())
        yield rows, table[rows, :w], mask[rows, :w]


@dataclass
class ClusterBatch:
    """Padded node-id table for dense attention within clusters.

    index_table[r, s] is a node id when mask[r, s] is True and a dummy 0
    otherwise. classes splits the rows by size (see SlotClass); every
    member of a cluster is both a query and a key of its row, so
    unassigned nodes receive all-zero outputs.
    """

    index_table: np.ndarray
    mask: np.ndarray
    n: int
    classes: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.classes = [
            SlotClass(np.where(mask, table, -1), table, mask, self.n)
            for _, table, mask in _size_classes(self.index_table, self.mask)
        ]


def build_cluster_batch(fc: Clustering) -> ClusterBatch:
    """Lay fc.clusters() out as rows, members as node-id-sorted slots; an id
    with no member gives no row."""
    members = [m for m in fc.clusters() if m.size]
    if not members:
        raise InputError("build_cluster_batch: no retained clusters")
    sizes = np.array([m.size for m in members])
    max_size = int(sizes.max())
    if max_size > MAX_CLUSTER_SLOTS:
        raise InputError(f"cluster of size {max_size} exceeds the {MAX_CLUSTER_SLOTS} slot bound")
    mask = np.arange(max_size) < sizes[:, None]
    table = np.zeros(mask.shape, dtype=np.int64)
    table[mask] = np.concatenate(members)
    return ClusterBatch(table, mask, fc.n)


def _check_heads(d: int, heads: int) -> int:
    if heads < 1 or d % heads != 0:
        raise InputError(f"hidden dim {d} is not divisible by {heads} heads")
    return d // heads


def _slot_attention(x: T.Tensor, classes, prm: dict, heads: int, capture, record: dict) -> T.Tensor:
    """Attention of every class's query slots over its key slots, scattered
    onto the n nodes and summed over classes.

    prm holds wq/bq/wk/wv/bv. Keys carry no bias: it would add the same
    constant to every logit of a query row, which softmax cancels. With
    capture, each class appends record plus probs (rows, heads, Sq, S),
    nodes (rows, Sq), index_table and mask (rows, S).
    """
    _check_heads(x.data.shape[1], heads)
    q = T.linear(x, prm["wq"], prm["bq"])
    k = T.linear(x, prm["wk"])
    v = T.linear(x, prm["wv"], prm["bv"])
    ys = []
    for cls in classes:
        logits = T.slot_logits(q, k, np.maximum(cls.nodes, 0), cls.table, heads, cls.scatter, cls.key_scatter)
        p = T.masked_softmax(logits, cls.mask[:, None, None, :])
        ys.append(T.slot_context(p, v, cls.table, cls.key_scatter, cls.scatter))
        if capture is not None:
            capture.append({**record, "probs": p.data, "nodes": cls.nodes, "index_table": cls.table, "mask": cls.mask})
    return functools.reduce(T.add, ys)


def clatt_forward(x: T.Tensor, batches, param_groups, heads: int, capture=None, tags=None, layer=None) -> T.Tensor:
    """Per-clustering masked attention inside clusters, outputs concatenated.

    param_groups holds one dict per clustering with keys wq/bq/wk/wv/bv.
    Nodes a clustering leaves unassigned get an exactly-zero block.
    """
    batches = list(batches)
    param_groups = list(param_groups)
    if len(batches) != len(param_groups):
        raise ValueError(f"{len(batches)} cluster batches but {len(param_groups)} parameter groups")
    return T.concat_last_dim(
        [
            _slot_attention(
                x, batch.classes, prm, heads, capture,
                {"kind": "cluster", "layer": layer, "clustering": tags[ci] if tags else None},
            )
            for ci, (batch, prm) in enumerate(zip(batches, param_groups))
        ]
    )


def fuse(mp_out: T.Tensor | None, clatt_out: T.Tensor, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    """Linear map of the message-passing and cluster attention outputs,
    concatenated; an MLP layer has no message-passing output (None)."""
    x = clatt_out if mp_out is None else T.concat_last_dim([mp_out, clatt_out])
    return T.linear(x, w, b)


def _self_looped(g) -> tuple[sp.csr_matrix, np.ndarray]:
    """A + I as a CSR matrix, and the row of each of its entries."""
    a = g.adjacency + sp.eye(g.n, format="csr")
    return a, np.repeat(np.arange(g.n), np.diff(a.indptr))


def gcn_matrix(g) -> sp.csr_matrix:
    """Symmetric-normalized adjacency with self-loops."""
    a, rows = _self_looped(g)
    dinv = 1.0 / np.sqrt(g.degrees.astype(np.float64) + 1.0)
    a.data = dinv[rows] * dinv[a.indices]
    return a


def mean_matrix(g) -> sp.csr_matrix:
    """Row-normalized adjacency; isolated nodes get an all-zero row."""
    m = g.adjacency.copy()
    deg = g.degrees.astype(np.float64)
    m.data = 1.0 / np.repeat(deg, g.degrees)
    return m


def check_neighborhood_size(g) -> int:
    """Refuse a graph whose (n, max_deg+1) neighborhood table is past the
    bound; returns the table's width."""
    n = g.n
    size = int(g.degrees.max()) + 1
    if n * size > NEIGHBORHOOD_TABLE_MAX_SLOTS:
        raise InputError(
            f"neighborhood attention pads every node to max degree + 1: an {n} x {size} table "
            f"({n * size} slots) exceeds the desk-scale limit of {NEIGHBORHOOD_TABLE_MAX_SLOTS} slots"
        )
    return size


def neighborhood_table(g):
    """(n, max_deg+1) node-id table over N(i) and i, with validity mask."""
    n = g.n
    size = check_neighborhood_size(g)
    a, ids = _self_looped(g)
    slots = np.arange(ids.size) - a.indptr[ids]
    table = np.zeros((n, size), dtype=np.int64)
    mask = np.zeros((n, size), dtype=bool)
    table[ids, slots] = a.indices
    mask[ids, slots] = True
    return table, mask


def neighborhood_classes(table: np.ndarray, mask: np.ndarray) -> list[SlotClass]:
    """Size classes of a neighborhood table; row i is node i's neighborhood
    and node i its only query."""
    return [SlotClass(rows[:, None], t, m, table.shape[0]) for rows, t, m in _size_classes(table, mask)]


def gcn_conv(x: T.Tensor, adj_norm, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    return T.linear(T.spmm(adj_norm, x), w, b)


def sage_conv(x: T.Tensor, mean_mat, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    return T.linear(T.concat_last_dim([x, T.spmm(mean_mat, x)]), w, b)


def local_attention_conv(x, classes, prm, heads: int, capture=None, layer=None) -> T.Tensor:
    """Attention of each node over its neighborhood plus itself.

    classes is neighborhood_classes(*neighborhood_table(g)).
    """
    return _slot_attention(x, classes, prm, heads, capture, {"kind": "local", "layer": layer, "clustering": None})


def check_global_attention_size(n: int) -> None:
    """Refuse a graph whose n x n global attention matrix is past the bound."""
    if n > GLOBAL_ATTENTION_MAX_NODES:
        raise InputError(
            f"global attention materializes an n x n matrix; n={n} exceeds the "
            f"desk-scale limit of {GLOBAL_ATTENTION_MAX_NODES}"
        )


def global_classes(n: int) -> list[SlotClass]:
    """The layout of global attention: one row that holds all n nodes, each
    a query and a key. Refuses an n past the bound."""
    check_global_attention_size(n)
    everyone = np.arange(n)[None, :]
    return [SlotClass(everyone, everyone, np.ones((1, n), dtype=bool), n)]


def global_attention(x: T.Tensor, pe: T.Tensor, classes, prm: dict, heads: int, capture=None, layer=None) -> T.Tensor:
    """All-to-all attention on concat(x projection, pe projection): one
    cluster that holds every node.

    classes is global_classes(n).
    """
    u = T.concat_last_dim([T.linear(x, prm["wx"], prm["bx"]), T.linear(pe, prm["wpe"], prm["bpe"])])
    return _slot_attention(u, classes, prm, heads, capture, {"kind": "global", "layer": layer, "clustering": None})


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description, checked when it is made (an InputError
    names the field at fault); serializes to/from plain JSON."""

    conv_type: str
    use_clatt: bool = False
    clusterings: tuple = ()
    pe: str = "none"
    layers: int = 3
    hidden: int = 512
    heads: int = 4
    dropout: float = 0.0
    lr: float = 3e-4

    @property
    def has_mix(self) -> bool:
        """Whether a layer has a Mix step (and so its norm1): every conv
        type but MLP, and any model with CLATT."""
        return self.conv_type != "MLP" or self.use_clatt

    @property
    def has_attention(self) -> bool:
        """Whether the model has attention sites (and so heads): CLATT, LGT or GGT."""
        return self.use_clatt or self.conv_type in ("LGT", "GGT")

    def __post_init__(self):
        if self.conv_type not in CONV_TYPES:
            raise InputError(f"conv_type must be one of {CONV_TYPES}, got {self.conv_type!r}")
        if self.pe not in PE_KINDS:
            raise InputError(f"pe must be one of {PE_KINDS}, got {self.pe!r}")
        if self.use_clatt and not self.clusterings:
            raise InputError("use_clatt requires a non-empty clusterings list")
        if self.clusterings and not self.use_clatt:
            raise InputError("clusterings apply only with use_clatt; set use_clatt or drop clusterings")
        repeated = [t for i, t in enumerate(self.clusterings) if t in self.clusterings[:i]]
        if repeated:
            raise InputError(f"clusterings lists {repeated[0]!r} more than once")
        if self.conv_type == "GGT" and self.pe == "none":
            raise InputError("GGT requires a positional encoding")
        if self.conv_type != "GGT" and self.pe != "none":
            raise InputError(f"pe {self.pe!r} applies only to GGT; {self.conv_type} needs pe \"none\"")
        if self.layers < 1:
            raise InputError("layers must be >= 1")
        if self.hidden < 1:
            raise InputError("hidden must be >= 1")
        if self.has_attention:
            _check_heads(self.hidden, self.heads)
        if not 0.0 <= self.dropout < 1.0:
            raise InputError("dropout must be in [0, 1)")
        if not 0.0 <= self.lr < math.inf:
            raise InputError(f"lr must be a finite number >= 0, got {self.lr}")

    @property
    def name(self) -> str:
        base = self.conv_type
        if self.use_clatt:
            base += "-CLATT(" + ",".join(self.clusterings) + ")"
        return base

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def init_params(spec: ModelSpec, in_dim: int, out_dim: int, seed: int = 0, pe_dim: int | None = None) -> dict:
    """Fresh parameter dict; every layer gets its own attention weights."""
    rng = np.random.default_rng(seed)
    d = spec.hidden
    params: dict[str, T.Tensor] = {}

    def w(name, fan_in, fan_out):
        params[name] = T.Tensor(_glorot(rng, fan_in, fan_out), requires_grad=True)

    def b(name, dim):
        params[name] = T.Tensor(np.zeros(dim), requires_grad=True)

    def qkv(prefix):
        for part in ("q", "k", "v"):
            w(f"{prefix}.w{part}", d, d)
            if part != "k":
                b(f"{prefix}.b{part}", d)

    def norm(prefix):
        params[prefix + ".g"] = T.Tensor(np.ones(d), requires_grad=True)
        params[prefix + ".b"] = T.Tensor(np.zeros(d), requires_grad=True)

    w("enc.w", in_dim, d)
    b("enc.b", d)
    for i in range(spec.layers):
        lp = f"layer{i}"
        if spec.has_mix:
            norm(lp + ".norm1")
        if spec.conv_type == "GCN":
            w(lp + ".conv.w", d, d)
            b(lp + ".conv.b", d)
        elif spec.conv_type == "SAGE":
            w(lp + ".conv.w", 2 * d, d)
            b(lp + ".conv.b", d)
        elif spec.conv_type == "LGT":
            qkv(lp + ".conv")
        elif spec.conv_type == "GGT":
            if pe_dim is None:
                raise ValueError("GGT needs pe_dim at init time")
            dx = d // 2
            w(lp + ".conv.wx", d, dx)
            b(lp + ".conv.bx", dx)
            w(lp + ".conv.wpe", pe_dim, d - dx)
            b(lp + ".conv.bpe", d - dx)
            qkv(lp + ".conv")
        if spec.use_clatt:
            for tag in spec.clusterings:
                qkv(f"{lp}.clatt.{tag}")
            mp_dim = 0 if spec.conv_type == "MLP" else d
            w(lp + ".fuse.w", mp_dim + d * len(spec.clusterings), d)
            b(lp + ".fuse.b", d)
        norm(lp + ".norm2")
        w(lp + ".mlp.w1", d, d)
        b(lp + ".mlp.b1", d)
        w(lp + ".mlp.w2", d, d)
        b(lp + ".mlp.b2", d)
    norm("final_norm")
    w("head.w", d, out_dim)
    b("head.b", out_dim)
    return params


@dataclass
class ModelInputs:
    """Precomputed graph-side structures one model spec needs: prop is the
    GCN or SAGE propagation matrix, classes the LGT or GGT slot layout."""

    x: np.ndarray
    pe: np.ndarray | None = None
    prop: sp.csr_matrix | None = None
    classes: list | None = None
    batches: list = field(default_factory=list)


def prepare_inputs(g, features: np.ndarray, spec: ModelSpec, clusterings: dict | None = None, pe: np.ndarray | None = None) -> ModelInputs:
    """Build exactly the structures model_forward will touch."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != g.n:
        raise ValueError(f"features have {features.shape[0]} rows for a {g.n}-node graph")
    inp = ModelInputs(x=features)
    if spec.conv_type == "GCN":
        inp.prop = gcn_matrix(g)
    elif spec.conv_type == "SAGE":
        inp.prop = mean_matrix(g)
    elif spec.conv_type == "LGT":
        inp.classes = neighborhood_classes(*neighborhood_table(g))
    elif spec.conv_type == "GGT":
        if pe is None:
            raise ValueError("GGT requires a positional encoding array")
        inp.classes = global_classes(g.n)
    if pe is not None:
        pe = np.asarray(pe, dtype=np.float64)
        if pe.shape[0] != g.n:
            raise ValueError(f"pe has {pe.shape[0]} rows for a {g.n}-node graph")
        inp.pe = pe
    if spec.use_clatt:
        clusterings = clusterings or {}
        missing = [t for t in spec.clusterings if t not in clusterings]
        if missing:
            raise ValueError(f"missing clusterings for tags {missing}")
        inp.batches = [build_cluster_batch(clusterings[t]) for t in spec.clusterings]
    return inp


def _layer_prm(params: dict, prefix: str) -> dict:
    plen = len(prefix)
    return {k[plen:]: v for k, v in params.items() if k.startswith(prefix)}


def hidden_and_logits(
    spec: ModelSpec,
    params: dict,
    inp: ModelInputs,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
    capture=None,
) -> tuple[T.Tensor, T.Tensor]:
    """Encoder, residual Mix/MLP blocks, final norm plus linear head; returns
    the final-norm activations and the logits."""
    use_dropout = training and spec.dropout > 0.0
    if use_dropout and dropout_rng is None:
        raise ValueError("training with dropout needs a dropout_rng")
    x = T.Tensor(inp.x)
    h = T.linear(x, params["enc.w"], params["enc.b"])
    pe_t = T.Tensor(inp.pe) if inp.pe is not None else None
    for i in range(spec.layers):
        lp = f"layer{i}"
        mix = None
        if spec.has_mix:
            z = T.layer_norm(h, params[lp + ".norm1.g"], params[lp + ".norm1.b"])
        if spec.conv_type == "GCN":
            mix = gcn_conv(z, inp.prop, params[lp + ".conv.w"], params[lp + ".conv.b"])
        elif spec.conv_type == "SAGE":
            mix = sage_conv(z, inp.prop, params[lp + ".conv.w"], params[lp + ".conv.b"])
        elif spec.conv_type == "LGT":
            mix = local_attention_conv(
                z, inp.classes, _layer_prm(params, lp + ".conv."), spec.heads, capture=capture, layer=i
            )
        elif spec.conv_type == "GGT":
            mix = global_attention(
                z, pe_t, inp.classes, _layer_prm(params, lp + ".conv."), spec.heads, capture=capture, layer=i
            )
        if spec.use_clatt:
            groups = [_layer_prm(params, f"{lp}.clatt.{tag}.") for tag in spec.clusterings]
            cl = clatt_forward(z, inp.batches, groups, spec.heads, capture=capture, tags=spec.clusterings, layer=i)
            mix = fuse(mix, cl, params[lp + ".fuse.w"], params[lp + ".fuse.b"])
        if mix is not None:  # None: an MLP layer without CLATT has no Mix step
            if use_dropout:
                mix = T.dropout(mix, spec.dropout, dropout_rng)
            h = T.add(h, mix)
        z2 = T.layer_norm(h, params[lp + ".norm2.g"], params[lp + ".norm2.b"])
        m = T.linear(T.gelu(T.linear(z2, params[lp + ".mlp.w1"], params[lp + ".mlp.b1"])), params[lp + ".mlp.w2"], params[lp + ".mlp.b2"])
        if use_dropout:
            m = T.dropout(m, spec.dropout, dropout_rng)
        h = T.add(h, m)
    hn = T.layer_norm(h, params["final_norm.g"], params["final_norm.b"])
    return hn, T.linear(hn, params["head.w"], params["head.b"])


def model_forward(
    spec: ModelSpec,
    params: dict,
    inp: ModelInputs,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
    capture=None,
) -> T.Tensor:
    """The logits of hidden_and_logits."""
    return hidden_and_logits(spec, params, inp, training, dropout_rng, capture)[1]
