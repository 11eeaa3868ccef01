"""Confidence-guided two-branch radar/camera BEV fusion numerics.

A desk-scale, dependency-free implementation of the fusion core: layer
normalization, a per-cell camera-confidence head, confidence weighting,
deformable cross-attention with bilinear sampling, and a convolutional
merge. Every operation also exposes an analytic Jacobian-vector product
(forward-mode tangent), verified against finite differences in the test
suite. There is no training here; parameters are built from arrays or
seeded randomly.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import Rng, freeze_arrays

LN_EPSILON = 1e-5
DEFAULT_HEADS = 8
DEFAULT_POINTS = 2
CONFIDENCE_HIDDEN = 16
# Confidence stays strictly inside (0, 1) even for saturating logits.
CONFIDENCE_CLAMP = 1e-15
# Value channels gathered per attention step: a head's 16 channels in pairs
# keep one step's samples in L2.
_VALUE_BLOCK = 2
# Bilinear corners as (row, column) picks of (floor, floor + 1).
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class FeatureMap:
    """Dense C x H x W real field."""

    data: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)
        if self.data.ndim != 3:
            raise ValueError(f"feature map must be (c, h, w), got {self.data.shape}")

    @property
    def channels(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class ConfidenceMap:
    """Per-cell camera confidence, strictly inside (0, 1)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)
        if self.data.ndim != 2:
            raise ValueError(f"confidence map must be (h, w), got {self.data.shape}")
        if not np.all((self.data > 0.0) & (self.data < 1.0)):
            raise ValueError("confidence values must lie strictly in (0, 1)")


@dataclass(frozen=True)
class LayerNormParams:
    scale: np.ndarray
    shift: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)
        if self.scale.ndim != 1 or self.scale.shape != self.shift.shape:
            raise ValueError("scale and shift must be matching 1-D arrays")

    @property
    def channels(self) -> int:
        return self.scale.shape[0]


@dataclass(frozen=True)
class ConfidenceMlpParams:
    """Per-cell MLP C -> 16 -> 2 whose softmaxed logits yield the confidence."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)
        if self.w1.ndim != 2 or self.w1.shape[0] != CONFIDENCE_HIDDEN:
            raise ValueError(f"w1 must be ({CONFIDENCE_HIDDEN}, C)")
        if self.b1.shape != (CONFIDENCE_HIDDEN,):
            raise ValueError(f"b1 must be ({CONFIDENCE_HIDDEN},)")
        if self.w2.shape != (2, CONFIDENCE_HIDDEN) or self.b2.shape != (2,):
            raise ValueError("second layer must map 16 -> 2")

    @property
    def channels(self) -> int:
        return self.w1.shape[1]


@dataclass(frozen=True)
class AffineParams:
    w: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ValueError("affine parameters must be (out, in) and (out,)")


@dataclass(frozen=True)
class DeformAttnParams:
    """Single-scale deformable attention parameters for one branch.

    Per head, the query is projected to ``points`` fractional (dx, dy)
    offsets (offset blocks ordered dx then dy per point) and ``points``
    weight logits, softmax-normalized across the points.
    """

    offset_w: np.ndarray
    offset_b: np.ndarray
    weight_w: np.ndarray
    weight_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)
        if self.offset_w.ndim != 3 or self.weight_w.ndim != 3:
            raise ValueError("offset_w / weight_w must be 3-D (heads, k, C)")
        heads, twop, channels = self.offset_w.shape
        points = self.weight_w.shape[1]
        if twop != 2 * points:
            raise ValueError("offset projection width must be 2 * points")
        if self.weight_w.shape != (heads, points, channels):
            raise ValueError("weight_w shape inconsistent with offset_w")
        if self.offset_b.shape != (heads, twop) or self.weight_b.shape != (heads, points):
            raise ValueError("bias shapes inconsistent with projections")
        if self.out_w.ndim != 2 or self.out_b.shape != (self.out_w.shape[0],):
            raise ValueError("output projection must be (C_out, C_value)")
        if self.out_w.shape[1] % heads != 0:
            raise ValueError(
                f"value channels {self.out_w.shape[1]} not divisible by {heads} heads"
            )

    @property
    def heads(self) -> int:
        return self.offset_w.shape[0]

    @property
    def points(self) -> int:
        return self.weight_w.shape[1]

    @property
    def value_channels(self) -> int:
        return self.out_w.shape[1]


@dataclass(frozen=True)
class ConvParams:
    """3x3 convolution C -> C with zero padding."""

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)
        if self.kernel.ndim != 4 or self.kernel.shape[2:] != (3, 3):
            raise ValueError("conv kernel must be (out, in, 3, 3)")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ValueError("conv bias must match output channels")


@dataclass(frozen=True)
class FusionParams:
    ln_image: LayerNormParams
    ln_radar: LayerNormParams
    ln_weighted_image: LayerNormParams
    ln_weighted_radar: LayerNormParams
    conf_mlp: ConfidenceMlpParams
    agg_w: AffineParams
    attn_plain: DeformAttnParams
    attn_weighted: DeformAttnParams
    out_conv: ConvParams

    def __post_init__(self) -> None:
        # C comes from ln_image, heads and points from attn_plain; the parts
        # check their own shapes, and the block table ties them together.
        for name, shape in _block_shapes(self.channels, self.heads, self.points):
            found = _block_value(self, name).shape
            if found != shape:
                raise ValueError(f"block {name} has shape {found}, want {shape}")

    @property
    def channels(self) -> int:
        return self.ln_image.channels

    @property
    def heads(self) -> int:
        return self.attn_plain.heads

    @property
    def points(self) -> int:
        return self.attn_plain.points


# ---------------------------------------------------------------------------
# Jacobian-vector products. Each ``*_jvp`` is the one implementation of its
# operation and maps float64 arrays (value, tangent) -> (value, tangent). A
# ``None`` tangent skips the tangent arithmetic and comes back as ``None``;
# the value is computed by the same expressions either way, so the forward
# ops, which pass ``None``, equal the JVP primal bit for bit. Functions with
# several inputs take their tangents all as arrays or all as ``None``.
# ---------------------------------------------------------------------------


def _mm(w, x):
    """Contract the last axis of ``w`` with the channel axis of ``x`` per cell."""
    c = x.shape[0]
    return (w.reshape(-1, c) @ x.reshape(c, -1)).reshape(*w.shape[:-1], *x.shape[1:])


def _cat(a, b):
    return None if a is None else np.concatenate([a, b], axis=0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def layer_norm_jvp(x, dx, params: LayerNormParams):
    mu = x.mean(axis=0)
    xc = x - mu
    var = np.mean(xc * xc, axis=0)
    inv = 1.0 / np.sqrt(var + LN_EPSILON)
    scale = params.scale[:, None, None]
    # In place, with the operands of each product and sum kept, so the bits
    # are those of scale * (xc * inv) + shift and its tangent.
    y = xc * inv
    y *= scale
    y += params.shift[:, None, None]
    if dx is None:
        return y, None
    dxc = dx - dx.mean(axis=0)
    dvar = 2.0 * np.mean(xc * dxc, axis=0)
    dinv = -0.5 * inv**3 * dvar
    dxc *= inv
    xc *= dinv
    dxc += xc
    dxc *= scale
    return y, dxc


def _cellwise_affine(x, dx, w, b):
    y = _mm(w, x)
    y += b[:, None, None]
    return y, None if dx is None else _mm(w, dx)


def confidence_map_jvp(x, dx, params: ConfidenceMlpParams):
    h, dh = _cellwise_affine(x, dx, params.w1, params.b1)
    active = h > 0.0
    logits, dlogits = _cellwise_affine(
        h * active, None if dh is None else dh * active, params.w2, params.b2
    )
    m_raw = _sigmoid(logits[0] - logits[1])
    lo, hi = CONFIDENCE_CLAMP, 1.0 - CONFIDENCE_CLAMP
    m = np.clip(m_raw, lo, hi)
    if dx is None:
        return m, None
    dm = m_raw * (1.0 - m_raw) * (dlogits[0] - dlogits[1])
    return m, np.where((m_raw > lo) & (m_raw < hi), dm, 0.0)


def _value_blocks(flat, dflat, heads: int):
    """Per head, ``(channels, rows, tangent rows)`` blocks of at most
    ``_VALUE_BLOCK`` value channels, each a view into one part."""
    starts = [0, *accumulate(len(part) for part in flat)]
    cv = starts[-1]
    per_head = cv // heads
    cuts = sorted({*range(0, cv, _VALUE_BLOCK), *range(0, cv, per_head), *starts})
    blocks = [[] for _ in range(heads)]
    for c0, c1 in zip(cuts, cuts[1:]):
        i = bisect_right(starts, c0) - 1
        rows = slice(c0 - starts[i], c1 - starts[i])
        drows = None if dflat is None else dflat[i][rows]
        blocks[c0 // per_head].append((slice(c0, c1), flat[i][rows], drows))
    return blocks


def _corner_weights(off, logits, doff, dlogits, corners, weights, dweights):
    """One head's sampling set-up on ``(points, H, W)`` slices.

    Writes, per corner (y0, x0), (y0, x1), (y1, x0), (y1, x1), the flat
    ``row * width + col`` index into ``corners`` and the attention times
    its two bilinear factors into ``weights``; with a tangent (``doff`` not
    ``None``), that weight's tangent into ``dweights``. Its temporaries die
    on return, so no two heads' set-ups are alive at once.
    """
    _, _, height, width = off.shape
    expl = np.exp(logits - logits.max(axis=0, keepdims=True))
    attn = expl / expl.sum(axis=0, keepdims=True)
    px_raw = np.arange(width, dtype=np.float64) + off[:, 0]
    py_raw = np.arange(height, dtype=np.float64)[:, None] + off[:, 1]
    px = np.clip(px_raw, 0.0, width - 1.0)
    py = np.clip(py_raw, 0.0, height - 1.0)
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0
    xs = (x0, np.minimum(x0 + 1, width - 1))
    ys = (y0, np.minimum(y0 + 1, height - 1))
    wx, wy = (1 - fx, fx), (1 - fy, fy)
    # Python multiplies left to right, so attn * wy[a] * wx[b] shares its
    # first product between the two corners of a row.
    row_w = [attn * wy[a] for a in (0, 1)]
    for k, (a, b) in enumerate(_CORNERS):
        np.add(ys[a] * width, xs[b], out=corners[k])
        np.multiply(row_w[a], wx[b], out=weights[k])
    if doff is None:
        return
    dattn = attn * (dlogits - (attn * dlogits).sum(axis=0, keepdims=True))
    # Sampling clamps to the border; the position tangent dies there.
    dpx = doff[:, 0] * ((px_raw > 0.0) & (px_raw < width - 1.0))
    dpy = doff[:, 1] * ((py_raw > 0.0) & (py_raw < height - 1.0))
    dwx, dwy = (-dpx, dpx), (-dpy, dpy)
    drow_w = [dattn * wy[a] for a in (0, 1)]
    for k, (a, b) in enumerate(_CORNERS):
        # dattn * wy * wx + attn * (dwy * wx + wy * dwx), term by term.
        cross = dweights[k]
        np.multiply(dwy[a], wx[b], out=cross)
        cross += wy[a] * dwx[b]
        cross *= attn
        cross += drow_w[a] * wx[b]


def _attention_sampler(q, dq, v, dv, params: DeformAttnParams):
    """One attention branch up to its output projection.

    ``v`` is the value map, or a tuple of maps that stack along channels
    into it (``dv`` likewise); a tuple is read in place. Checks the value,
    projects the query and zeroes the accumulators, then returns ``(out,
    dout, run)``: ``run()`` adds the weighted samples of every head into
    ``out`` and the tangent ``dout`` (``None`` without one). ``run``
    allocates only per-head arrays, so it can run on a worker thread without
    growing that thread's malloc arena by feature-map-sized blocks.
    """
    heads, points = params.heads, params.points
    _, height, width = q.shape

    def flat_rows(maps):
        maps = maps if isinstance(maps, tuple) else (maps,)
        return [part.reshape(part.shape[0], height * width) for part in maps]

    flat = flat_rows(v)
    cv = sum(len(part) for part in flat)
    if cv != params.value_channels:
        raise ValueError(
            f"value has {cv} channels, parameters expect {params.value_channels}"
        )
    off = _mm(params.offset_w, q) + params.offset_b[:, :, None, None]
    off = off.reshape(heads, points, 2, height, width)
    logits = _mm(params.weight_w, q) + params.weight_b[:, :, None, None]
    corners = np.empty((4, points, height, width), dtype=np.int64)
    weights = np.empty((4, points, height, width))
    out = np.zeros((cv, height, width))
    dflat = dweights = dout = None
    doff = dlogits = [None] * heads
    if dq is not None:
        dflat = flat_rows(dv)
        doff = _mm(params.offset_w, dq).reshape(heads, points, 2, height, width)
        dlogits = _mm(params.weight_w, dq)
        dweights = np.empty_like(weights)
        dout = np.zeros((cv, height, width))
    blocks = _value_blocks(flat, dflat, heads)

    # out = sum_k w_k * v[corner_k], so dout = sum_k (dw_k * v[corner_k] +
    # w_k * dv[corner_k]). Set-up runs per head and gathers per block of
    # channels, so the working set stays small; each output element still
    # sums its (point, corner) terms in the same order.
    def run():
        for h in range(heads):
            _corner_weights(off[h], logits[h], doff[h], dlogits[h], corners, weights, dweights)
            for chans, src, dsrc in blocks[h]:
                for p in range(points):
                    for k in range(4):
                        sample = np.take(src, corners[k, p], axis=1)
                        if dq is not None:
                            dsample = np.take(dsrc, corners[k, p], axis=1)
                            dsample *= weights[k, p]
                            dsample += dweights[k, p] * sample
                            dout[chans] += dsample
                        sample *= weights[k, p]
                        out[chans] += sample

    return out, dout, run


def deform_cross_attention_jvp(q, dq, v, dv, params: DeformAttnParams):
    """``v`` (and ``dv``) may be a tuple of maps that stack along channels
    into the value; see ``_attention_sampler``."""
    out, dout, run = _attention_sampler(q, dq, v, dv, params)
    run()
    del run  # frees the projections before the output projection runs
    return _cellwise_affine(out, dout, params.out_w, params.out_b)


def _conv3_raw(x, taps):
    # Flat-shift form: tap (ky, kx) is a strided view of the zero-margined
    # flat input from pixel (ky - 1) * width + (kx - 1) on, in the shape and
    # column order of a per-tap window copy, so BLAS rounds it the same way.
    # Taps kx = 0 and 2 read copies with the column a row wraps into zeroed.
    c, height, width = x.shape
    n, margin = height * width, width + 1
    flat = np.empty((3, c, n + 2 * margin))
    flat[:, :, :margin] = flat[:, :, margin + n :] = 0.0
    body = flat[:, :, margin : margin + n].reshape(3, c, height, width)
    body[...] = x
    body[0, :, :, -1] = body[2, :, :, 0] = 0.0
    out = np.zeros((taps.shape[2], n))
    for ky in range(3):
        for kx in range(3):
            s = ky * width + kx
            out += taps[ky, kx] @ flat[kx, :, s : s + n]
    return out.reshape(-1, height, width)


def conv_merge_jvp(x, dx, params: ConvParams):
    # (3, 3, out, in), so each tap is a contiguous (out, in) matrix for BLAS.
    taps = np.ascontiguousarray(params.kernel.transpose(2, 3, 0, 1))
    y = _conv3_raw(x, taps) + params.bias[:, None, None]
    return y, None if dx is None else _conv3_raw(dx, taps)


def weight_features_jvp(fi, dfi, fp, dfp, m, dm):
    """Returns ``((fic, fpc), (dfic, dfpc))``, or ``((fic, fpc), None)``."""
    mb = m[None]
    fic = mb * fi
    fpc = (1.0 - mb) * fp
    if dm is None:
        return (fic, fpc), None
    dmb = dm[None]
    return (fic, fpc), (dmb * fi + mb * dfi, -dmb * fp + (1.0 - mb) * dfp)


def aggregate_jvp(fi, dfi, fp, dfp, params: FusionParams):
    ln_i, dln_i = layer_norm_jvp(fi, dfi, params.ln_image)
    ln_p, dln_p = layer_norm_jvp(fp, dfp, params.ln_radar)
    return _cellwise_affine(
        _cat(ln_i, ln_p), _cat(dln_i, dln_p), params.agg_w.w, params.agg_w.b
    )


def concat_mm_jvp(fic, dfic, fpc, dfpc, params: FusionParams):
    ln_wi, dln_wi = layer_norm_jvp(fic, dfic, params.ln_weighted_image)
    ln_wp, dln_wp = layer_norm_jvp(fpc, dfpc, params.ln_weighted_radar)
    return _cat(ln_wi, ln_wp), _cat(dln_wi, dln_wp)


def fuse_bev_jvp(fi, dfi, fp, dfp, params: FusionParams):
    f_a, df_a = aggregate_jvp(fi, dfi, fp, dfp, params)
    m, dm = confidence_map_jvp(fi, dfi, params.conf_mlp)
    (fic, fpc), dw = weight_features_jvp(fi, dfi, fp, dfp, m, dm)
    dfic, dfpc = dw or (None, None)
    f_mm, df_mm = concat_mm_jvp(fic, dfic, fpc, dfpc, params)
    # Both branches' working sets are alive at once, so free what they do
    # not read first.
    del fic, fpc, dfic, dfpc, dw
    # The plain branch samples on a second thread while this one runs the
    # weighted branch. Its feature-map-sized arrays are allocated here, in
    # this thread's malloc arena, so the worker adds no resident memory that
    # outlives the call. numpy releases the GIL in the gathers, and each
    # branch's bits do not depend on which thread ran it.
    plain, dplain, sample_plain = _attention_sampler(
        f_a, df_a, (fi, fp), None if dfi is None else (dfi, dfp), params.attn_plain
    )
    with ThreadPoolExecutor(max_workers=1) as pool:
        sampled = pool.submit(sample_plain)
        del sample_plain
        conf, dconf = deform_cross_attention_jvp(
            f_a, df_a, f_mm, df_mm, params.attn_weighted
        )
        del f_mm, df_mm
        sampled.result()
    out_w, out_b = params.attn_plain.out_w, params.attn_plain.out_b
    merged, dmerged = _cellwise_affine(plain, dplain, out_w, out_b)
    del plain, dplain
    merged += conf
    if dfi is not None:
        dmerged += dconf
    del conf, dconf
    return conv_merge_jvp(merged, dmerged, params.out_conv)


# ---------------------------------------------------------------------------
# Public forward operations: shape checks, then the JVP with no tangent.
# ---------------------------------------------------------------------------


def layer_norm(f: FeatureMap, params: LayerNormParams) -> FeatureMap:
    """Standardize each cell across channels, then scale and shift."""
    if params.channels != f.channels:
        raise ValueError("layer-norm width must match feature channels")
    y, _ = layer_norm_jvp(f.data, None, params)
    return FeatureMap(y)


def confidence_map(f_image: FeatureMap, params: ConfidenceMlpParams) -> ConfidenceMap:
    """Per-cell camera confidence: first softmax channel of a 2-logit MLP.

    The complementary (radar) channel is exactly ``1 - confidence``.
    """
    if params.channels != f_image.channels:
        raise ValueError("confidence MLP width must match feature channels")
    m, _ = confidence_map_jvp(f_image.data, None, params)
    return ConfidenceMap(m)


def _check_same_shape(a: FeatureMap, b: FeatureMap) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError("feature maps must share a shape")


def weight_features(
    f_image: FeatureMap, f_radar: FeatureMap, m: ConfidenceMap
) -> tuple[FeatureMap, FeatureMap]:
    """Scale the camera branch by confidence and radar by its complement."""
    _check_same_shape(f_image, f_radar)
    if m.data.shape != f_image.data.shape[1:]:
        raise ValueError("confidence map dims must match the features")
    (fic, fpc), _ = weight_features_jvp(
        f_image.data, None, f_radar.data, None, m.data, None
    )
    return FeatureMap(fic), FeatureMap(fpc)


def aggregate(
    f_image: FeatureMap, f_radar: FeatureMap, params: FusionParams
) -> FeatureMap:
    """Project the concatenated layer-normalized maps down to C channels.

    The result is the shared query of both attention branches.
    """
    _check_same_shape(f_image, f_radar)
    y, _ = aggregate_jvp(f_image.data, None, f_radar.data, None, params)
    return FeatureMap(y)


def deform_cross_attention(
    query: FeatureMap, value: FeatureMap, params: DeformAttnParams
) -> FeatureMap:
    """Sample the value map at learned fractional offsets per query cell.

    Per head: the query projects to ``points`` (dx, dy) offsets and as
    many softmax weights; the head's value slice is sampled bilinearly at
    cell + offset (border-clamped), weighted, concatenated across heads,
    and passed through the output projection.
    """
    y, _ = deform_cross_attention_jvp(query.data, None, value.data, None, params)
    return FeatureMap(y)


def fuse_bev(
    f_image: FeatureMap, f_radar: FeatureMap, params: FusionParams
) -> FeatureMap:
    """Full fusion: plain and confidence-weighted attention branches,
    summed and convolved into the fused BEV feature."""
    _check_same_shape(f_image, f_radar)
    if f_image.channels != params.channels:
        raise ValueError("feature channels must match the parameter set")
    y, _ = fuse_bev_jvp(f_image.data, None, f_radar.data, None, params)
    return FeatureMap(y)


def conv_merge(f: FeatureMap, params: ConvParams) -> FeatureMap:
    """Zero-padded 3x3 convolution used as the final merge."""
    y, _ = conv_merge_jvp(f.data, None, params)
    return FeatureMap(y)


# ---------------------------------------------------------------------------
# Parameter construction.
# ---------------------------------------------------------------------------


def random_fusion_params(
    channels: int,
    rng: Rng,
    heads: int = DEFAULT_HEADS,
    points: int = DEFAULT_POINTS,
) -> FusionParams:
    """Seeded random parameter set (no training happens in this package).

    Offset biases are drawn off-lattice so sampled coordinates do not sit
    exactly on integer cells, where bilinear interpolation is kinked.
    """
    gen = rng.generator()
    c = channels

    def ln() -> LayerNormParams:
        return LayerNormParams(
            scale=1.0 + 0.1 * gen.normal(size=c), shift=0.1 * gen.normal(size=c)
        )

    def dense(out_dim, in_dim, scale=1.0):
        return gen.normal(0.0, scale / np.sqrt(in_dim), size=(out_dim, in_dim))

    def attn() -> DeformAttnParams:
        return DeformAttnParams(
            offset_w=gen.normal(0.0, 0.1 / np.sqrt(c), size=(heads, 2 * points, c)),
            offset_b=gen.uniform(-0.45, 0.45, size=(heads, 2 * points)),
            weight_w=gen.normal(0.0, 1.0 / np.sqrt(c), size=(heads, points, c)),
            weight_b=0.1 * gen.normal(size=(heads, points)),
            out_w=dense(c, 2 * c),
            out_b=0.01 * gen.normal(size=c),
        )

    return FusionParams(
        ln_image=ln(),
        ln_radar=ln(),
        ln_weighted_image=ln(),
        ln_weighted_radar=ln(),
        conf_mlp=ConfidenceMlpParams(
            w1=dense(CONFIDENCE_HIDDEN, c),
            b1=0.1 * gen.normal(size=CONFIDENCE_HIDDEN),
            w2=dense(2, CONFIDENCE_HIDDEN),
            b2=0.1 * gen.normal(size=2),
        ),
        agg_w=AffineParams(w=dense(c, 2 * c), b=0.01 * gen.normal(size=c)),
        attn_plain=attn(),
        attn_weighted=attn(),
        out_conv=ConvParams(
            kernel=gen.normal(0.0, 1.0 / (3.0 * np.sqrt(c)), size=(c, c, 3, 3)),
            bias=0.01 * gen.normal(size=c),
        ),
    )


def _block_shapes(c: int, heads: int, points: int) -> list[tuple[str, tuple[int, ...]]]:
    """The block table: ``part.field`` names and shapes, in the field order
    of ``FusionParams`` and of each part."""
    ln_blocks = []
    for name in ("ln_image", "ln_radar", "ln_weighted_image", "ln_weighted_radar"):
        ln_blocks += [(f"{name}.scale", (c,)), (f"{name}.shift", (c,))]
    attn_blocks = []
    for name in ("attn_plain", "attn_weighted"):
        attn_blocks += [
            (f"{name}.offset_w", (heads, 2 * points, c)),
            (f"{name}.offset_b", (heads, 2 * points)),
            (f"{name}.weight_w", (heads, points, c)),
            (f"{name}.weight_b", (heads, points)),
            (f"{name}.out_w", (c, 2 * c)),
            (f"{name}.out_b", (c,)),
        ]
    return (
        ln_blocks
        + [
            ("conf_mlp.w1", (CONFIDENCE_HIDDEN, c)),
            ("conf_mlp.b1", (CONFIDENCE_HIDDEN,)),
            ("conf_mlp.w2", (2, CONFIDENCE_HIDDEN)),
            ("conf_mlp.b2", (2,)),
            ("agg_w.w", (c, 2 * c)),
            ("agg_w.b", (c,)),
        ]
        + attn_blocks
        + [("out_conv.kernel", (c, c, 3, 3)), ("out_conv.bias", (c,))]
    )


def _block_value(params: FusionParams, name: str) -> np.ndarray:
    obj_name, attr = name.split(".")
    return getattr(getattr(params, obj_name), attr)
