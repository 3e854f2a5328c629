"""End-to-end survival model with alternating biased progressive encoding.

The pathology bag and the six genomic group vectors are embedded to a
shared width, then encoded in alternating rounds: the first modality is
encoded with the second as reference, after which the second is encoded
against the *updated* first. Every encoding step is one gated expert
layer (see :mod:`mome.experts`), so with the default two rounds a sample
passes through four expert layers. A learned classification token
attends over both encoded bags and is mapped to per-interval hazard
logits.

Checkpoints are single binary files:

    magic 'MOMEMODL' | version u32 | config block | n_params u32 |
    repeated (name_len u16, name bytes, rank u8, extents u32[rank],
    float64 payload)

with the config block holding, little-endian: d u32, rounds u32, n_b
u32, head_count u32, time_bins u32, d_in u32, first_encoded u8, four
enable-mask u8 flags, scale_by_gate_prob u8, dropout_rate f64, seed u64,
n_groups u32 and one u32 group size each. The loader validates the
magic, version, every extent, and the total byte count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import numcore as nc
from .attention import AttentionParams, self_attention
from .errors import ConfigError, DataError, FormatError
from .experts import MoMELayer, RoutingRecord, mome_forward, parse_expert_spec
from .numcore import Tensor

CHECKPOINT_MAGIC = b"MOMEMODL"
CHECKPOINT_VERSION = 1

GROUP_NAMES = (
    "tumor_suppression",
    "oncogenesis",
    "protein_kinases",
    "cellular_differentiation",
    "transcription",
    "cytokines_growth",
)
N_GROUPS = len(GROUP_NAMES)

FIRST_ENCODED_CHOICES = ("pathology", "genomics")


@dataclass
class GenomicGroups:
    """Six fixed-order raw-value vectors, one per genomic functional group."""

    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.values) != N_GROUPS:
            raise DataError(f"expected {N_GROUPS} genomic groups, got {len(self.values)}")
        self.values = tuple(np.asarray(v, dtype=np.float64).reshape(-1) for v in self.values)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.values)


def setting(default, help: str, **cli):
    """A user-settable dataclass field.

    ``help`` and the optional command-line hints travel in the field
    metadata: ``flag`` (when it is not ``--`` plus the field name),
    ``choices``, ``parse`` (text to value, for non-scalar fields) and
    ``shown`` (the default as the help text prints it). A bool field's
    flag is a switch that sets the opposite of its default.
    """
    return field(default=default, metadata=dict(help=help, **cli))


@dataclass
class ModelSettings:
    """The model fields a user sets; ``ModelConfig`` and the training
    ``RunConfig`` both extend it, and the ``train`` flags and config-file
    keys are generated from the field metadata."""

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
    scale_by_gate_prob: bool = setting(
        True, "do not scale expert outputs by the gate probability", flag="--no-prob-scaling"
    )

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("at least one encoding round is required")
        if self.time_bins < 2:
            raise ConfigError("at least two time bins are required")
        if self.d < 1 or self.head_count < 1 or self.d % self.head_count:
            raise ConfigError(f"width {self.d} not divisible into {self.head_count} heads")
        if self.n_b < 1:
            raise ConfigError("bottleneck needs at least one token")
        if self.first_encoded not in FIRST_ENCODED_CHOICES:
            raise ConfigError(f"first_encoded must be one of {FIRST_ENCODED_CHOICES}")
        if not any(self.enable_mask):
            raise ConfigError("at least one expert must be enabled")


@dataclass
class ModelConfig(ModelSettings):
    d_in: int = 64
    group_sizes: tuple[int, ...] = (16,) * N_GROUPS

    def __post_init__(self):
        super().__post_init__()
        if len(self.group_sizes) != N_GROUPS:
            raise ConfigError(f"expected {N_GROUPS} group sizes")
        if self.d_in < 1 or min(self.group_sizes) < 1:
            raise ConfigError(f"input widths must be at least 1: {self.d_in}, {self.group_sizes}")

    @property
    def layer_count(self) -> int:
        return 2 * self.rounds


class MoMEModel:
    """Embeddings, the expert layer stack, readout attention, hazard head."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = nc.rng_stream(config.seed)
        d = config.d

        def linear(shape):
            bound = 1.0 / np.sqrt(shape[0])
            return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

        self.patch_w = linear((config.d_in, d))
        self.patch_b = Tensor(np.zeros(d), requires_grad=True)
        self.group_w = [linear((size, d)) for size in config.group_sizes]
        self.group_b = [Tensor(np.zeros(d), requires_grad=True) for _ in range(N_GROUPS)]
        self.layers = [
            MoMELayer.create(
                d,
                rng,
                n_bottleneck=config.n_b,
                head_count=config.head_count,
                enable_mask=config.enable_mask,
                dropout_rate=config.dropout_rate,
            )
            for _ in range(config.layer_count)
        ]
        self.cls_token = Tensor(0.02 * rng.standard_normal((1, d)), requires_grad=True)
        self.readout = AttentionParams.create(d, rng, config.head_count)
        self.head_w = linear((d, config.time_bins))
        self.head_b = Tensor(np.zeros(config.time_bins), requires_grad=True)

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

    def reset_call_counts(self) -> None:
        for layer in self.layers:
            layer.call_counts[:] = [0] * len(layer.call_counts)

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------

    def embed_patches(self, patch_bag) -> Tensor:
        bag = patch_bag if isinstance(patch_bag, Tensor) else Tensor(patch_bag)
        if bag.ndim != 2 or bag.shape[0] < 1:
            raise DataError(f"patch bag must be nonempty and rank-2, got shape {bag.shape}")
        if bag.shape[1] != self.config.d_in:
            raise DataError(
                f"patch features are {bag.shape[1]}-wide, model expects {self.config.d_in}"
            )
        return nc.add(nc.matmul(bag, self.patch_w), self.patch_b)

    def embed_genomics(self, groups: GenomicGroups) -> Tensor:
        """One embedded token per genomic group, stacked into a 6 x d bag."""
        rows = []
        for name, values, w, b in zip(GROUP_NAMES, groups.values, self.group_w, self.group_b):
            if len(values) != w.shape[0]:
                raise DataError(
                    f"group '{name}' has {len(values)} values, model expects {w.shape[0]}"
                )
            rows.append(nc.add(nc.matmul(Tensor(values.reshape(1, -1)), w), b))
        return nc.concat_rows(rows)

    def forward(
        self,
        patch_bag,
        groups: GenomicGroups,
        training: bool = False,
        rng: np.random.Generator | None = None,
        routing_log: list[RoutingRecord] | None = None,
        sample_id: str = "",
        key_chunk: int | None = None,
    ) -> Tensor:
        """Hazard logits [1, T] for one sample.

        Patch rows are sorted into a canonical order first: the bag is an
        unordered set, and pinning the reduction order makes evaluation
        bit-identical under any permutation of the input rows.
        """
        raw = patch_bag.data if isinstance(patch_bag, Tensor) else np.asarray(patch_bag)
        if raw.ndim != 2 or min(raw.shape) < 1:
            raise DataError(f"patch bag must be nonempty and rank-2, got shape {raw.shape}")
        canonical = raw[np.lexsort(raw.T[::-1])]
        pathology = self.embed_patches(canonical)
        genomics = self.embed_genomics(groups)

        if self.config.first_encoded == "pathology":
            f1, f2 = pathology, genomics
        else:
            f1, f2 = genomics, pathology
        for r in range(self.config.rounds):
            f1, f2 = bpe_round(
                f1,
                f2,
                self.layers[2 * r],
                self.layers[2 * r + 1],
                training=training,
                rng=rng,
                routing_log=routing_log,
                sample_id=sample_id,
                base_index=2 * r,
                key_chunk=key_chunk,
                scale_by_gate_prob=self.config.scale_by_gate_prob,
            )
        if self.config.first_encoded == "pathology":
            f_patho, f_geno = f1, f2
        else:
            f_patho, f_geno = f2, f1

        tokens = nc.concat_rows([self.cls_token, f_patho, f_geno])
        attended = self_attention(tokens, self.readout, key_chunk=key_chunk)
        cls_out = nc.slice_rows(attended, 0, 1)
        return nc.add(nc.matmul(cls_out, self.head_w), self.head_b)


def bpe_round(
    f1: Tensor,
    f2: Tensor,
    layer_a: MoMELayer,
    layer_b: MoMELayer,
    training: bool = False,
    rng: np.random.Generator | None = None,
    routing_log: list[RoutingRecord] | None = None,
    sample_id: str = "",
    base_index: int = 0,
    key_chunk: int | None = None,
    scale_by_gate_prob: bool = True,
) -> tuple[Tensor, Tensor]:
    """One alternating round: encode f1 against f2, then f2 against the
    freshly updated f1 (strict ordering, never the stale one)."""
    f1_new = mome_forward(
        f1, f2, layer_a, training, rng, routing_log, sample_id, base_index,
        key_chunk, scale_by_gate_prob,
    )
    f2_new = mome_forward(
        f2, f1_new, layer_b, training, rng, routing_log, sample_id, base_index + 1,
        key_chunk, scale_by_gate_prob,
    )
    return f1_new, f2_new


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


def _pack_config(config: ModelConfig) -> bytes:
    head = struct.pack(
        "<6I",
        config.d,
        config.rounds,
        config.n_b,
        config.head_count,
        config.time_bins,
        config.d_in,
    )
    flags = struct.pack(
        "<6B",
        FIRST_ENCODED_CHOICES.index(config.first_encoded),
        *(1 if b else 0 for b in config.enable_mask),
        1 if config.scale_by_gate_prob else 0,
    )
    tail = struct.pack("<dQ", config.dropout_rate, config.seed & 0xFFFFFFFFFFFFFFFF)
    groups = struct.pack("<I", N_GROUPS) + struct.pack(f"<{N_GROUPS}I", *config.group_sizes)
    return head + flags + tail + groups


def _unpack_config(buf: bytes, offset: int) -> tuple[ModelConfig, int]:
    try:
        d, rounds, n_b, heads, bins, d_in = struct.unpack_from("<6I", buf, offset)
        offset += 24
        first, m0, m1, m2, m3, scaled = struct.unpack_from("<6B", buf, offset)
        offset += 6
        dropout, seed = struct.unpack_from("<dQ", buf, offset)
        offset += 16
        (n_groups,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if n_groups != N_GROUPS:
            raise FormatError(f"checkpoint has {n_groups} genomic groups, expected {N_GROUPS}",
                              offset - 4)
        sizes = struct.unpack_from(f"<{N_GROUPS}I", buf, offset)
        offset += 4 * N_GROUPS
    except struct.error as err:
        raise FormatError(f"truncated config block: {err}", offset)
    if first >= len(FIRST_ENCODED_CHOICES):
        raise FormatError(f"invalid first_encoded flag {first}", offset)
    config = ModelConfig(
        d=d,
        rounds=rounds,
        n_b=n_b,
        head_count=heads,
        time_bins=bins,
        enable_mask=(bool(m0), bool(m1), bool(m2), bool(m3)),
        first_encoded=FIRST_ENCODED_CHOICES[first],
        seed=seed,
        d_in=d_in,
        group_sizes=tuple(int(s) for s in sizes),
        dropout_rate=dropout,
        scale_by_gate_prob=bool(scaled),
    )
    return config, offset


def save_checkpoint(model: MoMEModel, path) -> None:
    named = model.parameters()
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
              _pack_config(model.config), struct.pack("<I", len(named))]
    for name, tensor in named:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(tensor.data.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path) -> MoMEModel:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {buf[:8]!r}", 0)
    offset = len(CHECKPOINT_MAGIC)
    (version,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset - 4)
    config, offset = _unpack_config(buf, offset)
    model = MoMEModel(config)
    expected = dict(model.parameters())
    try:
        (count,) = struct.unpack_from("<I", buf, offset)
        offset += 4
    except struct.error:
        raise FormatError("truncated parameter count", offset)
    if count != len(expected):
        raise FormatError(
            f"checkpoint has {count} parameters, model expects {len(expected)}", offset - 4
        )
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", buf, offset)
            offset += 2
            name = buf[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", buf, offset)
            offset += 1
            extents = struct.unpack_from(f"<{rank}I", buf, offset)
            offset += 4 * rank
        except (struct.error, UnicodeDecodeError) as err:
            raise FormatError(f"corrupt parameter record: {err}", offset)
        if name not in expected:
            raise FormatError(f"unknown parameter '{name}' in checkpoint", offset)
        tensor = expected[name]
        if tuple(extents) != tensor.shape:
            raise FormatError(
                f"parameter '{name}' has extents {tuple(extents)}, expected {tensor.shape}",
                offset,
            )
        nbytes = 8 * int(np.prod(extents)) if extents else 8
        payload = buf[offset : offset + nbytes]
        if len(payload) != nbytes:
            raise FormatError(
                f"parameter '{name}' payload has {len(payload)} bytes, expected {nbytes}",
                offset,
            )
        tensor.data[...] = np.frombuffer(payload, dtype="<f8").reshape(extents)
        offset += nbytes
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} trailing bytes after last parameter", offset)
    return model


def with_expert_mask(config: ModelConfig, mask: tuple[bool, ...]) -> ModelConfig:
    """Config copy with a different expert enable mask (ablation helper)."""
    return replace(config, enable_mask=tuple(bool(b) for b in mask))
