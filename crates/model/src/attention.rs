//! Causal multi-head self-attention with manual backward.

use crate::linear::{Linear, PackedLinear};
use crate::param::{HasParams, Param};
use bagualu_tensor::ops::{matmul, matmul_nt, matmul_tn, softmax_rows_inplace, Activation};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// Backing store for one layer's key/value history during incremental
/// decoding. Positions are appended one at a time; reads return the
/// contiguous `[d_model]` key/value slice for a single cached position
/// (all heads packed).
///
/// [`KvCache`] is the growable in-memory implementation; `bagualu-serve`
/// provides a paged implementation backed by a shared block pool. The
/// attention math over a store is identical across stores, so swapping the
/// store cannot change outputs.
pub trait KvStore {
    /// Number of cached positions.
    fn len(&self) -> usize;
    /// Append one position's packed keys and values (each `[d_model]`).
    fn append(&mut self, keys: &[f32], values: &[f32]);
    /// Packed `[d_model]` keys for cached position `pos`.
    fn key(&self, pos: usize) -> &[f32];
    /// Packed `[d_model]` values for cached position `pos`.
    fn value(&self, pos: usize) -> &[f32];
    /// True when no positions are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-layer key/value history for incremental decoding. Keys and values
/// are stored position-major (`[t, d_model]` flattened), all heads packed.
#[derive(Debug, Clone, Default)]
pub struct KvCache {
    keys: Vec<f32>,
    values: Vec<f32>,
    d: usize,
}

impl KvCache {
    pub fn new(d_model: usize) -> KvCache {
        KvCache {
            keys: Vec::new(),
            values: Vec::new(),
            d: d_model,
        }
    }

    /// Cached positions.
    pub(crate) fn len(&self) -> usize {
        self.keys.len().checked_div(self.d).unwrap_or(0)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl KvStore for KvCache {
    fn len(&self) -> usize {
        KvCache::len(self)
    }

    fn append(&mut self, keys: &[f32], values: &[f32]) {
        debug_assert_eq!(keys.len(), self.d);
        debug_assert_eq!(values.len(), self.d);
        self.keys.extend_from_slice(keys);
        self.values.extend_from_slice(values);
    }

    fn key(&self, pos: usize) -> &[f32] {
        &self.keys[pos * self.d..(pos + 1) * self.d]
    }

    fn value(&self, pos: usize) -> &[f32] {
        &self.values[pos * self.d..(pos + 1) * self.d]
    }

    fn is_empty(&self) -> bool {
        KvCache::is_empty(self)
    }
}

/// Rotate the `[s, hd]` rows of `x` by RoPE angles for absolute positions
/// `start..start+s` (`sign = -1.0` applies the inverse rotation — the
/// backward pass, since rotations are orthogonal).
fn apply_rope(x: &mut Tensor, start: usize, sign: f32) {
    let hd = x.cols();
    rope_rows(x.as_mut_slice(), hd, start, sign);
}

/// [`apply_rope`] over bare rows: `rows` is `[s, hd]` row-major. The decode
/// path rotates one head's slice of a QKV row in place through this.
fn rope_rows(rows: &mut [f32], hd: usize, start: usize, sign: f32) {
    assert!(hd.is_multiple_of(2), "RoPE needs an even head dim");
    for (t, row) in rows.chunks_exact_mut(hd).enumerate() {
        let pos = (start + t) as f32;
        for i in 0..hd / 2 {
            let theta = pos * 10000f32.powf(-2.0 * i as f32 / hd as f32);
            let (sin, cos) = (sign * theta.sin(), theta.cos());
            let (a, b) = (row[2 * i], row[2 * i + 1]);
            row[2 * i] = a * cos - b * sin;
            row[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Causal multi-head self-attention over `[batch·seq, d_model]` inputs.
///
/// A fused QKV projection feeds per-`(batch, head)` score/softmax/context
/// kernels; a final output projection mixes heads. The causal mask sets
/// future positions to `−∞` before the softmax. With `rope`
/// enabled, queries and keys carry rotary position embeddings (scores then
/// depend only on *relative* distance, and no learned position table is
/// needed).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    pub(crate) wqkv: Linear,
    pub(crate) wo: Linear,
    pub(crate) n_heads: usize,
    /// Apply rotary position embeddings to queries and keys.
    pub(crate) rope: bool,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    qkv: Tensor,
    /// Softmax probabilities per (batch, head), row-major over batches then
    /// heads.
    probs: Vec<Tensor>,
    batch: usize,
    seq: usize,
}

impl MultiHeadAttention {
    pub fn new(name: &str, d_model: usize, n_heads: usize, rng: &mut Rng) -> MultiHeadAttention {
        assert!(
            n_heads > 0 && d_model.is_multiple_of(n_heads),
            "d_model must divide by heads"
        );
        MultiHeadAttention {
            wqkv: Linear::new(&format!("{name}.wqkv"), d_model, 3 * d_model, rng),
            wo: Linear::new(&format!("{name}.wo"), d_model, d_model, rng),
            n_heads,
            rope: false,
            cache: None,
        }
    }

    /// Enable rotary position embeddings (requires an even head dim).
    pub fn with_rope(mut self) -> MultiHeadAttention {
        assert!(
            self.head_dim().is_multiple_of(2),
            "RoPE needs an even head dim"
        );
        self.rope = true;
        self
    }

    pub(crate) fn d_model(&self) -> usize {
        self.wqkv.d_in()
    }

    /// Give both projections up to inference ([`Linear::freeze`]); the
    /// backward cache goes with the layer.
    pub fn freeze(self) -> ServedAttention {
        ServedAttention {
            wqkv: self.wqkv.freeze(),
            wo: self.wo.freeze(),
            n_heads: self.n_heads,
            rope: self.rope,
            scores: Vec::new(),
        }
    }

    fn head_dim(&self) -> usize {
        self.d_model() / self.n_heads
    }

    /// Copy columns `[c0, c0+w)` of rows `[r0, r0+s)` of `src` into a
    /// `[s, w]` tensor.
    fn gather_block(src: &Tensor, r0: usize, s: usize, c0: usize, w: usize) -> Tensor {
        let cols = src.cols();
        let mut out = Tensor::zeros(&[s, w]);
        for i in 0..s {
            let row = &src.as_slice()[(r0 + i) * cols + c0..(r0 + i) * cols + c0 + w];
            out.row_mut(i).copy_from_slice(row);
        }
        out
    }

    /// Add a `[s, w]` block into columns `[c0, c0+w)` of rows `[r0, r0+s)`.
    fn scatter_block(dst: &mut Tensor, block: &Tensor, r0: usize, c0: usize) {
        let cols = dst.cols();
        let (s, w) = (block.rows(), block.cols());
        for i in 0..s {
            let dst_row = &mut dst.as_mut_slice()[(r0 + i) * cols + c0..(r0 + i) * cols + c0 + w];
            for (d, &v) in dst_row.iter_mut().zip(block.row(i)) {
                *d += v;
            }
        }
    }

    /// Forward. `x` is `[batch·seq, d_model]`, flattened batch-major.
    pub fn forward(&mut self, x: &Tensor, batch: usize, seq: usize) -> Tensor {
        let d = self.d_model();
        assert_eq!(x.rows(), batch * seq);
        assert_eq!(x.cols(), d);
        let hd = self.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();

        let qkv = self.wqkv.forward(x);
        let mut ctx_all = Tensor::zeros(&[batch * seq, d]);
        let mut probs = Vec::with_capacity(batch * self.n_heads);

        for b in 0..batch {
            let r0 = b * seq;
            for h in 0..self.n_heads {
                let mut q = Self::gather_block(&qkv, r0, seq, h * hd, hd);
                let mut k = Self::gather_block(&qkv, r0, seq, d + h * hd, hd);
                let v = Self::gather_block(&qkv, r0, seq, 2 * d + h * hd, hd);
                if self.rope {
                    apply_rope(&mut q, 0, 1.0);
                    apply_rope(&mut k, 0, 1.0);
                }

                let mut scores = matmul_nt(&q, &k);
                scores.scale(scale);
                // Causal mask: position i may only attend to j ≤ i.
                for i in 0..seq {
                    for j in i + 1..seq {
                        scores.set(i, j, f32::NEG_INFINITY);
                    }
                }
                softmax_rows_inplace(&mut scores, &mut []);
                let ctx = matmul(&scores, &v);
                Self::scatter_block(&mut ctx_all, &ctx, r0, h * hd);
                probs.push(scores);
            }
        }

        self.cache = Some(Cache {
            qkv,
            probs,
            batch,
            seq,
        });
        self.wo.forward(&ctx_all)
    }

    /// Incremental (KV-cached) forward for autoregressive decoding: append
    /// one position's `[1, d]` input; `kv` holds the per-layer key/value
    /// history and is extended in place. Returns the `[1, d]` output.
    /// Inference-only — no backward cache is produced. The served layer
    /// ([`ServedAttention::forward`]) runs the same attention over its
    /// batch, so this is its one-row oracle.
    pub fn forward_incremental(&self, x: &Tensor, kv: &mut KvCache) -> Tensor {
        assert_eq!(x.shape(), &[1, self.d_model()]);
        let mut qkv = self.wqkv.apply(x, Activation::Identity);
        let mut ctx = Tensor::zeros(x.shape());
        let mut scores = Vec::with_capacity(kv.len() + 1);
        let (q, c) = (qkv.row_mut(0), ctx.row_mut(0));
        attend(self.n_heads, self.rope, q, kv, c, &mut scores);
        self.wo.apply(&ctx, Activation::Identity)
    }

    /// Backward; returns `dx`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let Cache {
            qkv,
            probs,
            batch,
            seq,
        } = self
            .cache
            .take()
            .expect("MultiHeadAttention::backward before forward");
        let d = self.d_model();
        let hd = self.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();

        let dctx_all = self.wo.backward(dy);
        let mut dqkv = Tensor::zeros(&[batch * seq, 3 * d]);

        for b in 0..batch {
            let r0 = b * seq;
            for h in 0..self.n_heads {
                let p = &probs[b * self.n_heads + h];
                let mut q = Self::gather_block(&qkv, r0, seq, h * hd, hd);
                let mut k = Self::gather_block(&qkv, r0, seq, d + h * hd, hd);
                let v = Self::gather_block(&qkv, r0, seq, 2 * d + h * hd, hd);
                if self.rope {
                    apply_rope(&mut q, 0, 1.0);
                    apply_rope(&mut k, 0, 1.0);
                }
                let dctx = Self::gather_block(&dctx_all, r0, seq, h * hd, hd);

                let dp = matmul_nt(&dctx, &v); // [s, s]
                let dv = matmul_tn(p, &dctx); // [s, hd]

                // Softmax backward: ds = p ⊙ (dp − rowsum(dp ⊙ p)).
                let mut ds = dp;
                for i in 0..seq {
                    let prow = p.row(i);
                    let drow = ds.row_mut(i);
                    let dot: f32 = drow.iter().zip(prow).map(|(a, b)| a * b).sum();
                    for (dj, &pj) in drow.iter_mut().zip(prow) {
                        *dj = pj * (*dj - dot);
                    }
                }

                let mut dq = matmul(&ds, &k);
                dq.scale(scale);
                let mut dk = matmul_tn(&ds, &q);
                dk.scale(scale);
                if self.rope {
                    // Rotations are orthogonal: the gradient through RoPE is
                    // the inverse rotation.
                    apply_rope(&mut dq, 0, -1.0);
                    apply_rope(&mut dk, 0, -1.0);
                }

                Self::scatter_block(&mut dqkv, &dq, r0, h * hd);
                Self::scatter_block(&mut dqkv, &dk, r0, d + h * hd);
                Self::scatter_block(&mut dqkv, &dv, r0, 2 * d + h * hd);
            }
        }

        self.wqkv.backward(&dqkv)
    }
}

impl HasParams for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wqkv.visit_params(f);
        self.wo.visit_params(f);
    }
}

/// Hands the closure it is given the KV store of row `i` of a decode batch:
/// `with_store(i, f)` runs `f` against that row's store.
pub(crate) type RowStores<'a> = dyn FnMut(usize, &mut dyn FnMut(&mut dyn KvStore)) + 'a;

/// A [`MultiHeadAttention`] given up to inference
/// ([`MultiHeadAttention::freeze`]): both projections as
/// [`PackedLinear`]s, and one head's scores kept between rows so decoding
/// allocates nothing per row.
#[derive(Debug, Clone)]
pub struct ServedAttention {
    wqkv: PackedLinear,
    wo: PackedLinear,
    n_heads: usize,
    rope: bool,
    scores: Vec<f32>,
}

impl ServedAttention {
    /// Decode attention over `[n, d]` rows, each the next position of some
    /// sequence: one QKV GEMM over the batch, then each row `i` against the
    /// KV store `with_store(i, ..)` hands over — rotating its queries and
    /// keys under RoPE, appending its keys and values, attending over the
    /// whole history — then one output GEMM. Rows of one sequence must
    /// arrive in position order. Every step is per row, so a row's bits do
    /// not depend on the rows beside it.
    pub fn forward(&mut self, x: &Tensor, with_store: &mut RowStores) -> Tensor {
        let mut qkv = self.wqkv.apply(x, Activation::Identity);
        let mut ctx = Tensor::zeros(&[x.rows(), self.wqkv.d_in()]);
        let (n_heads, rope, scores) = (self.n_heads, self.rope, &mut self.scores);
        for i in 0..x.rows() {
            let (qkv_row, ctx_row) = (qkv.row_mut(i), ctx.row_mut(i));
            with_store(i, &mut |kv| {
                attend(n_heads, rope, qkv_row, kv, ctx_row, scores)
            });
        }
        self.wo.apply(&ctx, Activation::Identity)
    }
}

/// One position of one sequence: rotate the row's queries and keys in place
/// (under RoPE, at the position `kv` is about to hold), append its keys and
/// values to `kv`, and write the attention context over the whole history —
/// this position included — into `ctx_row` (`[d]`, all heads packed).
/// `qkv_row` is one `[3d]` row of the QKV projection, `q | k | v`; `scores`
/// is scratch for one head's scores.
fn attend(
    n_heads: usize,
    rope: bool,
    qkv_row: &mut [f32],
    kv: &mut dyn KvStore,
    ctx_row: &mut [f32],
    scores: &mut Vec<f32>,
) {
    let d = ctx_row.len();
    assert_eq!(qkv_row.len(), 3 * d);
    let hd = d / n_heads;
    let scale = 1.0 / (hd as f32).sqrt();

    let (q_all, kv_new) = qkv_row.split_at_mut(d);
    let (k_new, v_new) = kv_new.split_at_mut(d);
    if rope {
        // Rotate per head at this absolute position; keys are stored
        // rotated, matching the batched path's score math.
        let this_pos = kv.len();
        for h in 0..n_heads {
            rope_rows(&mut q_all[h * hd..(h + 1) * hd], hd, this_pos, 1.0);
            rope_rows(&mut k_new[h * hd..(h + 1) * hd], hd, this_pos, 1.0);
        }
    }
    kv.append(k_new, v_new);
    let t = kv.len();

    for h in 0..n_heads {
        let q = &q_all[h * hd..(h + 1) * hd];
        // Scores over all cached positions for this head.
        scores.clear();
        for pos in 0..t {
            let k = &kv.key(pos)[h * hd..(h + 1) * hd];
            let s: f32 = q.iter().zip(k).map(|(a, b)| a * b).sum();
            scores.push(s * scale);
        }
        // Softmax.
        let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for s in scores.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        let inv = 1.0 / sum;
        // Weighted value sum.
        let out = &mut ctx_row[h * hd..(h + 1) * hd];
        out.fill(0.0);
        for (pos, s) in scores.iter().enumerate() {
            let w = s * inv;
            let v = &kv.value(pos)[h * hd..(h + 1) * hd];
            for (o, &vv) in out.iter_mut().zip(v) {
                *o += w * vv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let mut rng = Rng::seed_from(51);
        let mut attn = MultiHeadAttention::new("t", 8, 2, &mut rng);
        let x = Tensor::randn(&[2 * 4, 8], 1.0, &mut rng);
        let y1 = attn.forward(&x, 2, 4);
        let y2 = attn.forward(&x, 2, 4);
        assert_eq!(y1.shape(), &[8, 8]);
        assert!(y1.approx_eq(&y2, 0.0));
    }

    #[test]
    fn causality_future_tokens_do_not_affect_past() {
        let mut rng = Rng::seed_from(52);
        let mut attn = MultiHeadAttention::new("t", 8, 2, &mut rng);
        let x1 = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let mut x2 = x1.clone();
        // Perturb the last position only.
        for v in x2.row_mut(5) {
            *v += 1.0;
        }
        let y1 = attn.forward(&x1, 1, 6);
        let y2 = attn.forward(&x2, 1, 6);
        // Outputs at positions 0..5 must be identical.
        for t in 0..5 {
            assert_eq!(y1.row(t), y2.row(t), "position {t} saw the future");
        }
        assert_ne!(y1.row(5), y2.row(5));
    }

    #[test]
    fn batches_are_independent() {
        let mut rng = Rng::seed_from(53);
        let mut attn = MultiHeadAttention::new("t", 8, 2, &mut rng);
        let a = Tensor::randn(&[3, 8], 1.0, &mut rng);
        let b = Tensor::randn(&[3, 8], 1.0, &mut rng);
        let ab = Tensor::concat_rows(&[a.clone(), b.clone()]);
        let y_ab = attn.forward(&ab, 2, 3);
        let y_a = attn.forward(&a, 1, 3);
        let y_b = attn.forward(&b, 1, 3);
        assert!(y_ab.slice_rows(0, 3).approx_eq(&y_a, 1e-5));
        assert!(y_ab.slice_rows(3, 6).approx_eq(&y_b, 1e-5));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(54);
        let mut attn = MultiHeadAttention::new("t", 6, 2, &mut rng);
        let x = Tensor::randn(&[4, 6], 0.8, &mut rng);

        let y = attn.forward(&x, 1, 4);
        let dx = attn.backward(&y); // loss = ½‖y‖²

        let eps = 1e-3f32;
        let loss = |a: &mut MultiHeadAttention, x: &Tensor| 0.5 * a.forward(x, 1, 4).sq_norm();

        for &(i, j) in &[(0usize, 0usize), (1, 3), (3, 5)] {
            let mut x2 = x.clone();
            x2.set(i, j, x.at(i, j) + eps);
            let lp = loss(&mut attn, &x2);
            x2.set(i, j, x.at(i, j) - eps);
            let lm = loss(&mut attn, &x2);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.at(i, j)).abs() < 3e-2 * (1.0 + fd.abs()),
                "x[{i},{j}]: fd={fd} an={}",
                dx.at(i, j)
            );
        }

        // A QKV weight entry.
        let orig = attn.wqkv.w.value.at(2, 7);
        attn.wqkv.w.value.set(2, 7, orig + eps);
        let lp = loss(&mut attn, &x);
        attn.wqkv.w.value.set(2, 7, orig - eps);
        let lm = loss(&mut attn, &x);
        attn.wqkv.w.value.set(2, 7, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = attn.wqkv.w.grad.at(2, 7);
        assert!(
            (fd - an).abs() < 3e-2 * (1.0 + fd.abs()),
            "wqkv: fd={fd} an={an}"
        );
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn incremental_forward_matches_batched() {
        let mut rng = Rng::seed_from(57);
        let mut attn = MultiHeadAttention::new("t", 8, 2, &mut rng);
        let x = Tensor::randn(&[5, 8], 1.0, &mut rng);
        let full = attn.forward(&x, 1, 5);
        let mut kv = KvCache::new(8);
        // Batched scores sum q·k in ascending order from +0.0 like
        // `attend`'s, so the two paths agree bit for bit.
        for t in 0..5 {
            let step = attn.forward_incremental(&x.slice_rows(t, t + 1), &mut kv);
            assert_eq!(
                bits(&step),
                bits(&full.slice_rows(t, t + 1)),
                "position {t}"
            );
        }
        assert_eq!(kv.len(), 5);
    }

    #[test]
    fn rope_scores_depend_only_on_relative_position() {
        // ⟨rot(q, i), rot(k, j)⟩ must equal ⟨rot(q, i+s), rot(k, j+s)⟩.
        let mut rng = Rng::seed_from(58);
        let q0 = Tensor::randn(&[1, 8], 1.0, &mut rng);
        let k0 = Tensor::randn(&[1, 8], 1.0, &mut rng);
        let dot = |a: &Tensor, b: &Tensor| -> f32 {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| x * y)
                .sum()
        };
        let rotated = |x: &Tensor, pos: usize| {
            let mut y = x.clone();
            apply_rope(&mut y, pos, 1.0);
            y
        };
        let base = dot(&rotated(&q0, 3), &rotated(&k0, 1));
        for shift in [1usize, 5, 11] {
            let shifted = dot(&rotated(&q0, 3 + shift), &rotated(&k0, 1 + shift));
            assert!(
                (base - shifted).abs() < 1e-4,
                "shift {shift}: {base} vs {shifted}"
            );
        }
        // And rotation is invertible.
        let mut y = q0.clone();
        apply_rope(&mut y, 7, 1.0);
        apply_rope(&mut y, 7, -1.0);
        assert!(y.approx_eq(&q0, 1e-5));
    }

    #[test]
    fn rope_gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(59);
        let mut attn = MultiHeadAttention::new("t", 8, 2, &mut rng).with_rope();
        let x = Tensor::randn(&[4, 8], 0.8, &mut rng);
        let y = attn.forward(&x, 1, 4);
        let dx = attn.backward(&y);
        let eps = 1e-3f32;
        let loss = |a: &mut MultiHeadAttention, x: &Tensor| 0.5 * a.forward(x, 1, 4).sq_norm();
        for &(i, j) in &[(0usize, 0usize), (2, 5), (3, 7)] {
            let mut x2 = x.clone();
            x2.set(i, j, x.at(i, j) + eps);
            let lp = loss(&mut attn, &x2);
            x2.set(i, j, x.at(i, j) - eps);
            let lm = loss(&mut attn, &x2);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.at(i, j)).abs() < 3e-2 * (1.0 + fd.abs()),
                "x[{i},{j}]: fd={fd} an={}",
                dx.at(i, j)
            );
        }
    }

    #[test]
    fn rope_incremental_matches_batched() {
        let mut rng = Rng::seed_from(60);
        let mut attn = MultiHeadAttention::new("t", 8, 2, &mut rng).with_rope();
        let x = Tensor::randn(&[5, 8], 1.0, &mut rng);
        let full = attn.forward(&x, 1, 5);
        let mut kv = KvCache::new(8);
        for t in 0..5 {
            let step = attn.forward_incremental(&x.slice_rows(t, t + 1), &mut kv);
            assert_eq!(
                bits(&step),
                bits(&full.slice_rows(t, t + 1)),
                "rope position {t}"
            );
        }
    }

    #[test]
    fn single_token_sequence_attends_to_itself() {
        let mut rng = Rng::seed_from(55);
        let mut attn = MultiHeadAttention::new("t", 4, 1, &mut rng);
        let x = Tensor::randn(&[1, 4], 1.0, &mut rng);
        // With one position, softmax over one score = 1, so ctx = v.
        let y = attn.forward(&x, 1, 1);
        assert_eq!(y.shape(), &[1, 4]);
        assert!(!y.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "divide by heads")]
    fn head_count_must_divide() {
        let mut rng = Rng::seed_from(56);
        MultiHeadAttention::new("t", 10, 3, &mut rng);
    }
}
