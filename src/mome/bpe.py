"""End-to-end survival model with alternating biased progressive encoding.

The pathology bag and the six genomic group vectors are embedded to a
shared width, then encoded in alternating rounds: the first modality is
encoded with the second as reference, after which the second is encoded
against the *updated* first. Every encoding step is one gated expert
layer (see :mod:`mome.experts`), so with the default two rounds a sample
passes through four expert layers. A learned classification token
attends over both encoded bags and is mapped to per-interval hazard
logits. The model never sees a sample id: it hands each layer's gate
decision back to the caller through ``routes``.

Checkpoints are single binary files:

    magic 'MOMEMODL' | version u32 | config block | n_params u32 |
    repeated (name_len u16, name bytes, rank u8, extents u32[rank],
    float64 payload)

with the config block holding, little-endian: d u32, rounds u32, n_b
u32, head_count u32, time_bins u32, d_in u32, first_encoded u8, four
enable-mask u8 flags, a gate-scaling u8, dropout_rate f64, seed u64,
n_groups u32 and one u32 group size each. Every flag byte is 0 or 1, and
the gate-scaling byte is always 1: expert outputs are scaled by the gate
probability. The records appear in ``MoMEModel.parameters()`` order,
which is the order the model makes its tensors in through a
``numcore.Init``. The loader builds the model once: its ``Init`` reads the
next record when the model asks for a shape, checking the extents and the
payload bytes first. It reports a FormatError at the byte offset of every
fault: a bad magic or version, any short read, a bad flag byte, a config
value ``ModelConfig`` rejects (at that value's field), wrong extents or a
misnamed record (at the record's start), a non-finite payload value, a
wrong count and trailing bytes. Those short-read and finite checks, the
group names and ``GenomicGroups`` are :mod:`mome.data`'s.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import numcore as nc
from .attention import AttentionParams, self_attention
from .data import GROUP_NAMES, N_GROUPS, GenomicGroups, check_finite, take_bytes
from .errors import ConfigError, DataError, FormatError
from .experts import EXPERT_COUNT, GateDecision, MoMELayer, mome_forward, parse_expert_spec
from .numcore import Tensor

CHECKPOINT_MAGIC = b"MOMEMODL"
CHECKPOINT_VERSION = 1

FIRST_ENCODED_CHOICES = ("pathology", "genomics")


def setting(default, help: str, **cli):
    """A user-settable dataclass field.

    ``help`` and the optional command-line hints travel in the field
    metadata: ``flag`` (when it is not ``--`` plus the field name),
    ``choices``, ``parse`` (text to value, for non-scalar fields) and
    ``shown`` (the default as the help text prints it).
    """
    return field(default=default, metadata=dict(help=help, **cli))


@dataclass
class ModelSettings:
    """The model fields a user sets; ``ModelConfig`` and the training
    ``RunConfig`` both extend it, and the ``train`` flags and config-file
    keys are generated from the field metadata. A setting's default and
    range rule live here (or in ``RunConfig``) alone."""

    d: int = setting(64, "shared embedding width", flag="--dim")
    rounds: int = setting(2, "alternating encoding rounds")
    n_b: int = setting(2, "bottleneck token count", flag="--nb")
    head_count: int = setting(1, "attention heads", flag="--heads")
    time_bins: int = setting(4, "discrete time bins", flag="--bins")
    enable_mask: tuple[bool, bool, bool, bool] = setting(
        (True, True, True, True), "comma list of enabled experts: tf,btf,snn,df",
        flag="--experts", parse=parse_expert_spec, shown="all",
    )
    first_encoded: str = setting("pathology", "modality encoded first each round",
                                 choices=FIRST_ENCODED_CHOICES)
    # The run seed in a RunConfig; in a ModelConfig, the init seed derived from it.
    seed: int = setting(0, "run seed (falls back to MOME_SEED, then 0)",
                        shown="MOME_SEED or 0")
    dropout_rate: float = setting(0.25, "alpha-dropout rate inside the SNN expert",
                                  flag="--dropout")

    def __post_init__(self):
        # For every subclass field too; RunConfig's key_chunk None is dense attention.
        for f in fields(self):
            if getattr(self, f.name) is None and f.name != "key_chunk":
                raise ConfigError(f"{f.name} must be set, got None", f.name)
        if self.rounds < 1:
            raise ConfigError("at least one encoding round is required", "rounds")
        if self.time_bins < 2:
            raise ConfigError("at least two time bins are required", "time_bins")
        indivisible = f"width {self.d} not divisible into {self.head_count} heads"
        if self.d < 1:
            raise ConfigError(indivisible, "d")
        if self.head_count < 1 or self.d % self.head_count:
            raise ConfigError(indivisible, "head_count")
        if self.n_b < 1:
            raise ConfigError("bottleneck needs at least one token", "n_b")
        if self.first_encoded not in FIRST_ENCODED_CHOICES:
            raise ConfigError(f"first_encoded must be one of {FIRST_ENCODED_CHOICES}",
                              "first_encoded")
        if len(self.enable_mask) != EXPERT_COUNT:
            raise ConfigError(f"enable_mask needs {EXPERT_COUNT} flags, one per expert, got "
                              f"{len(self.enable_mask)}", "enable_mask")
        if not any(self.enable_mask):
            raise ConfigError("at least one expert must be enabled", "enable_mask")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}",
                              "dropout_rate")


@dataclass
class ModelConfig(ModelSettings):
    d_in: int = 64
    group_sizes: tuple[int, ...] = (16,) * N_GROUPS

    def __post_init__(self):
        super().__post_init__()
        if len(self.group_sizes) != N_GROUPS:
            raise ConfigError(f"expected {N_GROUPS} group sizes", "group_sizes")
        widths = f"input widths must be at least 1: {self.d_in}, {self.group_sizes}"
        if self.d_in < 1:
            raise ConfigError(widths, "d_in")
        if min(self.group_sizes) < 1:
            raise ConfigError(widths, "group_sizes")

    @property
    def layer_count(self) -> int:
        return 2 * self.rounds


class MoMEModel:
    """Embeddings, the expert layer stack, readout attention, hazard head."""

    def __init__(self, config: ModelConfig, init: nc.Init | None = None):
        self.config = config
        init = init if init is not None else nc.Init(nc.rng_stream(config.seed))
        d = config.d
        self.patch_w = init.fan_in((config.d_in, d))
        self.patch_b = init.constant((d,), 0.0)
        self.group_w, self.group_b = [], []
        for size in config.group_sizes:
            self.group_w.append(init.fan_in((size, d)))
            self.group_b.append(init.constant((d,), 0.0))
        self.layers = [
            MoMELayer.create(d, init, n_bottleneck=config.n_b, head_count=config.head_count,
                             enable_mask=config.enable_mask, dropout_rate=config.dropout_rate)
            for _ in range(config.layer_count)
        ]
        self.cls_token = init.normal((1, d))
        self.readout = AttentionParams.create(d, init, config.head_count)
        self.head_w = init.fan_in((d, config.time_bins))
        self.head_b = init.constant((config.time_bins,), 0.0)

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [("patch.w", self.patch_w), ("patch.b", self.patch_b)]
        for name, w, b in zip(GROUP_NAMES, self.group_w, self.group_b):
            named += [(f"geno.{name}.w", w), (f"geno.{name}.b", b)]
        for i, layer in enumerate(self.layers):
            named += layer.parameters(f"layer{i}")
        named.append(("cls_token", self.cls_token))
        named += self.readout.parameters("readout")
        named += [("head.w", self.head_w), ("head.b", self.head_b)]
        return named

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------

    def embed_patches(self, patch_bag: np.ndarray) -> Tensor:
        """One embedded token per patch row: ``patch_bag @ w + b``. The bag
        becomes float64 here, the one place it enters the graph."""
        return nc.add(nc.matmul(Tensor(patch_bag), self.patch_w), self.patch_b)

    def embed_genomics(self, groups: GenomicGroups) -> Tensor:
        """One embedded token per genomic group, stacked into a 6 x d bag,
        as one graph node: row ``i`` is ``values_i @ w_i + b_i``."""
        for name, values, w in zip(GROUP_NAMES, groups.values, self.group_w):
            if len(values) != w.shape[0]:
                raise DataError(
                    f"group '{name}' has {len(values)} values, model expects {w.shape[0]}"
                )
        per_group = [(v.reshape(1, -1), w, b)
                     for v, w, b in zip(groups.values, self.group_w, self.group_b)]
        out = np.concatenate([x @ w.data + b.data for x, w, b in per_group], axis=0)

        def backward(g):
            for i, (x, w, b) in enumerate(per_group):
                if w.requires_grad:
                    nc.accumulate_grad(w, x.T @ g[i : i + 1])
                if b.requires_grad:
                    nc.accumulate_grad(b, g[i])

        return nc.graph_op(out, (*self.group_w, *self.group_b), backward, "embed_genomics")

    def forward(
        self,
        patch_bag: np.ndarray,
        groups: GenomicGroups,
        training: bool = False,
        rng: np.random.Generator | None = None,
        key_chunk: int | None = None,
        routes: list[GateDecision] | None = None,
    ) -> Tensor:
        """Hazard logits [1, T] for one sample; with a ``routes`` list, each
        expert layer appends its gate decision to it, in layer order.

        With ``training`` the layers draw dropout from ``rng``, which this one
        check requires before any op runs; otherwise they get no stream.

        The bag is an array of ``d_in``-wide rows (no graph tensor: no
        gradient flows to the input), and an unordered set. Its rows are
        sorted into a canonical order first, the single place that makes
        the model order-free: every later op sees the rows in this order
        (or in a fixed one, for the genomic groups and bottleneck tokens),
        so outputs, dropout draws, the loss and every gradient are
        bit-identical under any permutation of the input rows, in training
        and in evaluation. No op, pooling included, is order-free itself.
        """
        if training and rng is None:
            raise ConfigError("forward in training mode needs an rng stream")
        raw = np.asarray(patch_bag)
        if raw.ndim != 2 or raw.shape[0] < 1:
            raise DataError(f"patch bag must be a nonempty rank-2 array, got shape {raw.shape}")
        if raw.shape[1] != self.config.d_in:
            raise DataError(
                f"patch features are {raw.shape[1]}-wide, model expects {self.config.d_in}"
            )
        canonical = raw[canonical_row_order(raw)]
        pathology = self.embed_patches(canonical)
        genomics = self.embed_genomics(groups)

        if self.config.first_encoded == "pathology":
            f1, f2 = pathology, genomics
        else:
            f1, f2 = genomics, pathology
        # Alternating rounds: each layer encodes one modality against the
        # other's latest encoding, so the pair swaps roles after every layer.
        for layer in self.layers:
            f1, f2 = f2, mome_forward(f1, f2, layer, rng if training else None, key_chunk,
                                      routes)
        if self.config.first_encoded == "pathology":
            f_patho, f_geno = f1, f2
        else:
            f_patho, f_geno = f2, f1

        cls_out = self_attention([self.cls_token, f_patho, f_geno], self.readout,
                                 key_chunk=key_chunk)
        return nc.add(nc.matmul(cls_out, self.head_w), self.head_b)


def canonical_row_order(rows: np.ndarray) -> np.ndarray:
    """``np.lexsort(rows.T[::-1])`` (column 0 first), from a stable sort of
    column 0 alone when that column has no tie (``==``, so -0.0 ties 0.0)."""
    order = np.argsort(rows[:, 0], kind="stable")
    first = rows[order, 0]
    if np.any(first[1:] == first[:-1]):
        return np.lexsort(rows.T[::-1])
    return order


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


# The config block: each entry is a ModelConfig field (or, for the
# gate-scaling byte and the group count, a fixed value) and its struct code.
_CONFIG_FIELDS = (
    ("d", "I"), ("rounds", "I"), ("n_b", "I"), ("head_count", "I"), ("time_bins", "I"),
    ("d_in", "I"), ("first_encoded", "B"), ("enable_mask", "4B"), ("gate_scaling", "B"),
    ("dropout_rate", "d"), ("seed", "Q"), ("n_groups", "I"), ("group_sizes", f"{N_GROUPS}I"),
)
_CONFIG_BLOCK = struct.Struct("<" + "".join(code for _, code in _CONFIG_FIELDS))
_U32 = struct.Struct("<I")
_CONFIG_START = len(CHECKPOINT_MAGIC) + _U32.size  # after the magic and the version
# Byte offset of each config field in the file.
_CONFIG_AT = {
    name: _CONFIG_START + struct.calcsize("<" + "".join(code for _, code in _CONFIG_FIELDS[:i]))
    for i, (name, _) in enumerate(_CONFIG_FIELDS)
}


def _pack_config(config: ModelConfig) -> bytes:
    return _CONFIG_BLOCK.pack(
        config.d, config.rounds, config.n_b, config.head_count, config.time_bins, config.d_in,
        FIRST_ENCODED_CHOICES.index(config.first_encoded),
        *(1 if b else 0 for b in config.enable_mask),
        1,  # gate scaling, always on
        config.dropout_rate, config.seed & 0xFFFFFFFFFFFFFFFF,
        N_GROUPS, *config.group_sizes,
    )


def _unpack_config(buf: bytes) -> ModelConfig:
    block = take_bytes(buf, _CONFIG_START, _CONFIG_BLOCK.size, "config block")
    (d, rounds, n_b, heads, bins, d_in, first, tf, btf, snn, df, scaled, dropout, seed,
     n_groups, *sizes) = _CONFIG_BLOCK.unpack(block)
    at = _CONFIG_AT
    mask = (tf, btf, snn, df)
    if first >= len(FIRST_ENCODED_CHOICES):
        raise FormatError(f"invalid first_encoded flag {first}", at["first_encoded"])
    for i, value in enumerate(mask):
        if value > 1:
            raise FormatError(f"invalid enable-mask flag {value}", at["enable_mask"] + i)
    if scaled != 1:
        raise FormatError(f"invalid gate-scaling flag {scaled}: only 1 (outputs scaled by "
                          "the gate probability) is supported", at["gate_scaling"])
    if n_groups != N_GROUPS:
        raise FormatError(f"checkpoint has {n_groups} genomic groups, expected {N_GROUPS}",
                          at["n_groups"])
    try:
        return ModelConfig(
            d=d, rounds=rounds, n_b=n_b, head_count=heads, time_bins=bins, d_in=d_in,
            enable_mask=tuple(value == 1 for value in mask),
            first_encoded=FIRST_ENCODED_CHOICES[first], seed=seed,
            group_sizes=tuple(sizes), dropout_rate=dropout,
        )
    except ConfigError as err:
        raise FormatError(f"invalid config block: {err}", at[err.field])


def save_checkpoint(model: MoMEModel, path) -> None:
    """Write the model's checkpoint to ``path`` atomically: the bytes go to
    a temporary file beside it, which then replaces ``path``. A write that
    fails removes the temporary file and leaves ``path`` as it was."""
    named = model.parameters()
    chunks = [CHECKPOINT_MAGIC, _U32.pack(CHECKPOINT_VERSION),
              _pack_config(model.config), _U32.pack(len(named))]
    for name, tensor in named:
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<H", len(encoded)), encoded,
                   struct.pack(f"<B{tensor.ndim}I", tensor.ndim, *tensor.shape),
                   tensor.data.astype("<f8").tobytes()]
    directory, base = os.path.split(os.path.abspath(path))
    temporary = os.path.join(directory, f".{base}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


class _RecordReader(nc.Init):
    """Reads each tensor from the next record of ``buf`` instead of drawing
    it, and keeps each record's name and start for the name check."""

    def __init__(self, buf: bytes, offset: int):
        super().__init__(None)
        self.buf, self.offset, self.records = buf, offset, []

    def make(self, shape, draw) -> Tensor:
        buf, start = self.buf, self.offset
        (size,) = struct.unpack("<H", take_bytes(buf, start, 2, "record name length"))
        head = take_bytes(buf, start + 2, size + 1, "record name and rank")
        name, rank, at = head[:-1], head[-1], start + 3 + size
        extents = struct.unpack(f"<{rank}I", take_bytes(buf, at, 4 * rank, "record extents"))
        if extents != shape:
            raise FormatError(f"record extents {extents}, the model expects {shape}", start)
        at += 4 * rank
        what = f"parameter '{name.decode(errors='replace')}'"
        values = np.frombuffer(take_bytes(buf, at, 8 * math.prod(shape), f"payload of {what}"),
                               "<f8")
        check_finite(values, at, what)
        self.records.append((name, start))
        self.offset = at + values.nbytes
        return super().make(shape, lambda _: values.reshape(shape))


def load_checkpoint(path) -> MoMEModel:
    """The model ``save_checkpoint`` wrote, built once from its records."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {buf[:8]!r}", 0)
    offset = len(CHECKPOINT_MAGIC)
    (version,) = _U32.unpack(take_bytes(buf, offset, _U32.size, "checkpoint version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset)
    config = _unpack_config(buf)
    offset = _CONFIG_START + _CONFIG_BLOCK.size
    (count,) = _U32.unpack(take_bytes(buf, offset, _U32.size, "parameter count"))
    reader = _RecordReader(buf, offset + _U32.size)
    model = MoMEModel(config, reader)
    named = model.parameters()
    for (found, start), (name, _) in zip(reader.records, named):
        if found != name.encode("utf-8"):
            raise FormatError(f"expected parameter '{name}', found {found!r}", start)
    if count != len(named):
        raise FormatError(f"checkpoint has {count} parameters, model expects {len(named)}",
                          offset)
    if reader.offset != len(buf):
        raise FormatError(f"{len(buf) - reader.offset} trailing bytes after last parameter",
                          reader.offset)
    return model
