//! The tape: a dynamically-built computation graph with reverse-mode
//! differentiation.
//! audit: module unwrap — tape node/slot indices are created by this module and
//! never cross an API boundary unchecked; the debug-audit runtime checkers and
//! gradient-check tests cover them.
//!
//! Every op records (a) its output value, computed eagerly, and (b) enough
//! metadata to push gradients back to its inputs. Node handles ([`Var`])
//! are plain indices; because ops can only reference already-created
//! nodes, reverse creation order *is* a valid topological order for the
//! backward sweep.
//!
//! # Slot-stable buffer reuse
//!
//! A training loop keeps one tape for the epoch and calls [`Tape::reset`]
//! between micro-batches. Node `i` is a *slot*: reset keeps the value
//! buffer, gradient buffer and dropout mask slot `i` held as that slot's
//! spares, and every op whose buffers scale with subgraph rows or edges
//! takes them through the slot it produces, reusing the spare when its
//! capacity fits. A spare its slot does not claim is freed as soon as the
//! slot is produced (gradient spares: when the backward sweep ends), so
//! the tape never retains more than the previous step's working set.
//! Buffers handed to accumulate-semantics kernels are zeroed first;
//! buffers an op overwrites in full are not. Under `debug-audit` the
//! retained spares and the unwritten part of every such buffer are NaN,
//! so a read-before-write trips the non-finite asserts. Reuse changes
//! where results are written, never what is computed or in which order,
//! so the bits are those of a fresh tape. DESIGN.md §4j has the details.

use crate::optim::SparseRowGrad;
use facility_linalg::rng::splitmix64;
use facility_linalg::{kernels, ops, Matrix, Rng};
use std::sync::Arc;

/// Norm floor for [`Tape::normalize_rows`]; rows below it are treated as
/// having this norm, keeping the op (and its gradient) finite.
const NORM_EPS: f32 = 1e-12;

/// Buffers of at least this many elements count toward
/// [`Tape::missed_reuse`]. Subgraph-sized values and gradients sit far
/// above it; scalars, score columns and weight tiles sit below.
pub const LARGE_BUFFER: usize = 1 << 14;

/// A fresh large buffer is allocated with `1 / LARGE_HEADROOM` spare
/// capacity, so a slot whose step grows by up to that much still reuses
/// its spare. Batch subgraphs differ in size from step to step; without
/// the headroom every step that beats the largest so far reallocates its
/// slots, and those frees and reallocations fragment the heap differently
/// from run to run.
const LARGE_HEADROOM: usize = 8;

/// Filler for the part of a buffer an op promises to overwrite in full.
/// Under `debug-audit` it is NaN, like the spares [`Tape::reset`]
/// poisons, so an op that reads such a buffer before writing it trips the
/// non-finite asserts instead of silently computing on stale numbers.
const UNWRITTEN: f32 = if cfg!(feature = "debug-audit") { f32::NAN } else { 0.0 };

/// `MatMul` backward computes `dA = g·Bᵀ`; when `B` has at most this many
/// elements (32 KiB — every layer/projection weight here qualifies) it is
/// transposed once so `dA` rides the register-blocked row-major matmul,
/// which is ~3x faster on tall `g` than the dot-per-element `A·Bᵀ` kernel.
const SMALL_WEIGHT_TRANSPOSE_LIMIT: usize = 1 << 13;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The raw node index (mostly useful for debugging).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Backward-pass metadata for one node.
enum Op {
    /// Input leaf; gradient accumulates here and is read by the caller.
    Leaf,
    /// Row gather: `out[i] = src[indices[i]]`.
    Gather {
        src: Var,
        indices: Arc<Vec<usize>>,
    },
    /// Gathering leaf over an *off-tape* parameter matrix:
    /// `out[i] = src[indices[i]]` where `src` never becomes a node. The
    /// gradient accumulates here (it is a leaf) and is read back
    /// row-sparse with [`Tape::take_sparse_grad`] — the dense
    /// `rows(src) × cols` scatter buffer of [`Op::Gather`] is never
    /// materialized.
    ParamGather {
        indices: Arc<Vec<usize>>,
        src_rows: usize,
    },
    /// `a · b`.
    MatMul {
        a: Var,
        b: Var,
    },
    /// `a · bᵀ`.
    MatMulTransB {
        a: Var,
        b: Var,
    },
    /// Elementwise `a + b`.
    Add {
        a: Var,
        b: Var,
    },
    /// Elementwise `a - b`.
    Sub {
        a: Var,
        b: Var,
    },
    /// Elementwise `a ∘ b`.
    Mul {
        a: Var,
        b: Var,
    },
    /// Add a `1 × cols` bias row to every row of `a`.
    AddBroadcastRow {
        a: Var,
        bias: Var,
    },
    /// Scale row `i` of `a` by scalar `w[i, 0]`.
    MulBroadcastCol {
        a: Var,
        w: Var,
    },
    /// `s * a`.
    Scale {
        a: Var,
        s: f32,
    },
    /// `a + s` elementwise.
    AddScalar {
        a: Var,
    },
    /// Horizontal concatenation `[a | b]`.
    ConcatCols {
        a: Var,
        b: Var,
    },
    /// Vertical stack of `a` over `b`.
    ConcatRows {
        a: Var,
        b: Var,
    },
    LeakyRelu {
        a: Var,
    },
    Relu {
        a: Var,
    },
    Tanh {
        a: Var,
    },
    Sigmoid {
        a: Var,
    },
    /// `ln(sigmoid(a))`, numerically stable.
    LogSigmoid {
        a: Var,
    },
    /// Per-row dot product → `N × 1`.
    RowwiseDot {
        a: Var,
        b: Var,
    },
    /// Per-row squared L2 norm → `N × 1`.
    RowwiseNormSq {
        a: Var,
    },
    /// Per-row L2 normalization `y_i = x_i / max(‖x_i‖, ε)`.
    NormalizeRows {
        a: Var,
    },
    /// Softmax over contiguous row segments of an `N × 1` score column.
    /// Segment `s` spans rows `offsets[s] .. offsets[s + 1]`.
    SegmentSoftmax {
        a: Var,
        offsets: Arc<Vec<usize>>,
    },
    /// Scatter-sum rows of `a` into `num_segments` output rows:
    /// `out[seg_of_row[i]] += a[i]`.
    SegmentSum {
        a: Var,
        seg_of_row: Arc<Vec<usize>>,
    },
    /// Fused attention aggregation
    /// `out[heads[e]] += h[tails[e]] · att[e]` over an edge list, in
    /// edge order (see [`Tape::gather_scale_segment_sum`]).
    GatherScaleSegmentSum {
        h: Var,
        att: Var,
        tails: Arc<Vec<usize>>,
        heads: Arc<Vec<usize>>,
    },
    /// Inverted dropout: `out[i] = a[i] · scale` where `keep[i]`, else
    /// `a[i] · 0`. One byte of mask per element.
    Dropout {
        a: Var,
        keep: Arc<Vec<bool>>,
        scale: f32,
    },
    /// Replace the listed rows of `a` with externally computed constants
    /// (the hub-representation cache); gradients through those rows are
    /// stopped.
    OverrideRows {
        a: Var,
        rows: Arc<Vec<usize>>,
    },
    /// Sum of all elements → `1 × 1`.
    SumAll {
        a: Var,
    },
    /// Mean of all elements → `1 × 1`.
    MeanAll {
        a: Var,
    },
    /// Squared Frobenius norm → `1 × 1`.
    FrobeniusSq {
        a: Var,
    },
}

impl Op {
    /// The tape nodes this op reads.
    fn inputs(&self) -> [Option<Var>; 2] {
        match *self {
            Op::Leaf | Op::ParamGather { .. } => [None, None],
            Op::Gather { src: a, .. }
            | Op::Scale { a, .. }
            | Op::AddScalar { a }
            | Op::LeakyRelu { a }
            | Op::Relu { a }
            | Op::Tanh { a }
            | Op::Sigmoid { a }
            | Op::LogSigmoid { a }
            | Op::RowwiseNormSq { a }
            | Op::NormalizeRows { a }
            | Op::SegmentSoftmax { a, .. }
            | Op::SegmentSum { a, .. }
            | Op::Dropout { a, .. }
            | Op::OverrideRows { a, .. }
            | Op::SumAll { a }
            | Op::MeanAll { a }
            | Op::FrobeniusSq { a } => [Some(a), None],
            Op::MatMul { a, b }
            | Op::MatMulTransB { a, b }
            | Op::Add { a, b }
            | Op::Sub { a, b }
            | Op::Mul { a, b }
            | Op::AddBroadcastRow { a, bias: b }
            | Op::MulBroadcastCol { a, w: b }
            | Op::ConcatCols { a, b }
            | Op::ConcatRows { a, b }
            | Op::RowwiseDot { a, b }
            | Op::GatherScaleSegmentSum { h: a, att: b, .. } => [Some(a), Some(b)],
        }
    }
}

struct Node {
    value: Matrix,
    op: Op,
    /// Whether any gradient flows into this node: set on [`Tape::leaf`]
    /// and [`Tape::gather_leaf`], clear on [`Tape::constant`], and the OR
    /// of the inputs' bits for every op. The backward sweep skips every
    /// contribution into a node without it.
    requires_grad: bool,
}

/// The buffers one node slot held when the tape was last reset, kept for
/// whichever op produces that slot next. An empty `Vec` is no spare.
#[derive(Default)]
struct Spare {
    value: Vec<f32>,
    grad: Vec<f32>,
    /// [`Op::Dropout`]'s keep mask.
    mask: Vec<bool>,
}

/// The uniform `[0, 1)` draw (24 random bits, as `Rng::gen_f32` takes
/// them) that [`Tape::dropout_keyed`] compares against `keep_prob` for
/// element `(row, col)` under `key`: the `col + 1`-th output of a
/// splitmix64 stream started at `splitmix64(key ^ splitmix64(row))`.
pub fn keyed_unit(key: u64, row: u64, col: u64) -> f32 {
    keyed_row(key, row)(col)
}

/// [`keyed_unit`] with the row's stream start hashed once.
fn keyed_row(key: u64, row: u64) -> impl Fn(u64) -> f32 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let start = splitmix64(key ^ splitmix64(row));
    move |col| {
        let bits = splitmix64(start.wrapping_add(GOLDEN.wrapping_mul(col)));
        ((bits >> 32) as u32 >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// A `len`-element buffer from `spare` when its capacity fits, else a
/// fresh allocation (a too-small spare is freed first and, when the new
/// buffer is large, counted in `missed`). With `all`, every element reads
/// as `fill`; otherwise only the elements past the spare's old length do,
/// and the caller overwrites every element.
fn take_buf<T: Copy>(
    spare: Option<&mut Vec<T>>,
    len: usize,
    fill: T,
    all: bool,
    missed: &mut usize,
) -> Vec<T> {
    let mut buf = spare.map(std::mem::take).unwrap_or_default();
    if buf.capacity() < len {
        if buf.capacity() > 0 && len >= LARGE_BUFFER {
            *missed += 1;
        }
        drop(buf);
        if len < LARGE_BUFFER {
            return vec![fill; len];
        }
        let mut fresh = Vec::with_capacity(len + len / LARGE_HEADROOM);
        fresh.resize(len, fill);
        return fresh;
    }
    if all {
        buf.clear();
    } else {
        buf.truncate(len);
    }
    buf.resize(len, fill);
    buf
}

/// Free an unclaimed spare, counting it in `missed` when it was large.
fn discard<T>(spare: &mut Vec<T>, missed: &mut usize) {
    if spare.capacity() >= LARGE_BUFFER {
        *missed += 1;
    }
    *spare = Vec::new();
}

/// Reorder `m`'s rows in place so that row `j` becomes the old row
/// `order[j]` (`order` is a permutation), following each cycle once.
fn permute_rows(m: &mut Matrix, order: &[usize]) {
    let cols = m.cols();
    let data = m.as_mut_slice();
    let mut done = vec![false; order.len()];
    let mut first = vec![0.0; cols];
    for start in 0..order.len() {
        if done[start] {
            continue;
        }
        first.copy_from_slice(&data[start * cols..(start + 1) * cols]);
        let mut j = start;
        loop {
            done[j] = true;
            let k = order[j];
            if k == start {
                data[j * cols..(j + 1) * cols].copy_from_slice(&first);
                break;
            }
            data.copy_within(k * cols..(k + 1) * cols, j * cols);
            j = k;
        }
    }
}

/// A reverse-mode differentiation tape.
///
/// A training loop holds one for the epoch and [`Tape::reset`]s it per
/// micro-batch, so each step reuses the previous step's buffers (see the
/// module docs); [`Tape::new`] is simply a tape with no spares.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
    /// Per-slot spares left by the last [`Tape::reset`].
    spares: Vec<Spare>,
    /// See [`Tape::missed_reuse`].
    missed: usize,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the tape for the next step. Every op node's value buffer and
    /// dropout mask and every node's gradient buffer becomes its slot's
    /// spare; leaf values (the caller's buffers) and spares left from
    /// older steps are freed, so the tape retains at most the buffers the
    /// step just ended held. [`Var`]s from before the reset must not be
    /// used after it. Resetting a tape that recorded nothing since its
    /// last reset keeps its spares, so a caller may reset early — to drop
    /// the shared index buffers the ops held — before a step that resets
    /// again.
    pub fn reset(&mut self) {
        if self.nodes.is_empty() {
            return;
        }
        self.spares.clear();
        let mut grads = self.grads.drain(..);
        for node in self.nodes.drain(..) {
            let grad = grads.next().flatten().map(Matrix::into_vec).unwrap_or_default();
            // A leaf's buffer came from the caller and no op can claim it.
            let value =
                if matches!(node.op, Op::Leaf) { Vec::new() } else { node.value.into_vec() };
            let mask = match node.op {
                Op::Dropout { keep, .. } => Arc::try_unwrap(keep).unwrap_or_default(),
                _ => Vec::new(),
            };
            self.spares.push(Spare { value, grad, mask });
        }
        self.missed = 0;
        // Masks need no poison: dropout writes each one in the pass
        // that draws it.
        #[cfg(feature = "debug-audit")]
        for s in &mut self.spares {
            s.value.fill(f32::NAN);
            s.grad.fill(f32::NAN);
        }
    }

    /// Large buffers (at least [`LARGE_BUFFER`] elements) produced since the
    /// last [`Tape::reset`] without reusing the spare their slot held: the
    /// spare was too small, or the op that produced the slot never claimed
    /// it. A slot with no spare had nothing to reuse and is not counted —
    /// every slot of a new tape, and a gradient the caller took away.
    /// Zero for a step with the same shapes as the step before the reset.
    pub fn missed_reuse(&self) -> usize {
        self.missed
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of the last [`Tape::backward`] root w.r.t. `v`, if `v`
    /// participated in that computation.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Take ownership of the gradient for `v`, leaving `None` behind.
    pub fn take_grad(&mut self, v: Var) -> Option<Matrix> {
        self.grads.get_mut(v.0).and_then(|g| g.take())
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        let requires_grad = match op {
            Op::Leaf | Op::ParamGather { .. } => true,
            _ => op.inputs().into_iter().flatten().any(|v| self.nodes[v.0].requires_grad),
        };
        self.push_node(value, op, requires_grad)
    }

    fn push_node(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        debug_assert!(value.all_finite(), "op produced non-finite values");
        if let Some(s) = self.spares.get_mut(self.nodes.len()) {
            // Whatever the producing op did not claim is freed now. A
            // leaf brings its own buffer, so its spare is no missed reuse.
            let mut leaf_spares = 0;
            let missed = if matches!(op, Op::Leaf) { &mut leaf_spares } else { &mut self.missed };
            discard(&mut s.value, missed);
            discard(&mut s.mask, missed);
        }
        self.nodes.push(Node { value, op, requires_grad });
        Var(self.nodes.len() - 1)
    }

    /// The value buffer of the node about to be pushed, from its slot's
    /// spare: all zeros when `zeroed` (for accumulate-semantics kernels),
    /// else [`UNWRITTEN`] contents the op overwrites in full.
    fn value_buf(&mut self, len: usize, zeroed: bool) -> Vec<f32> {
        let spare = self.spares.get_mut(self.nodes.len()).map(|s| &mut s.value);
        let fill = if zeroed { 0.0 } else { UNWRITTEN };
        take_buf(spare, len, fill, zeroed, &mut self.missed)
    }

    /// A buffer shaped like `v`'s value for `v`'s gradient, from the
    /// slot's spare (`zeroed` as for [`Tape::value_buf`]).
    fn grad_buf(&mut self, v: Var, zeroed: bool) -> Matrix {
        let (rows, cols) = self.nodes[v.0].value.shape();
        let spare = self.spares.get_mut(v.0).map(|s| &mut s.grad);
        let fill = if zeroed { 0.0 } else { UNWRITTEN };
        let buf = take_buf(spare, rows * cols, fill, zeroed, &mut self.missed);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Elementwise `f(a, b)` over two equally shaped values.
    fn zip_op(&mut self, a: Var, b: Var, what: &str, f: impl Fn(f32, f32) -> f32, op: Op) -> Var {
        let (sa, sb) = (self.value(a).shape(), self.value(b).shape());
        assert_eq!(sa, sb, "{what}: shape mismatch {sa:?} vs {sb:?}");
        let mut out = self.value_buf(sa.0 * sa.1, false);
        let (av, bv) = (self.nodes[a.0].value.as_slice(), self.nodes[b.0].value.as_slice());
        for ((o, &x), &y) in out.iter_mut().zip(av).zip(bv) {
            *o = f(x, y);
        }
        self.push(Matrix::from_vec(sa.0, sa.1, out), op)
    }

    /// Elementwise `f(a)`.
    fn map_op(&mut self, a: Var, f: impl Fn(f32) -> f32, op: Op) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut out = self.value_buf(rows * cols, false);
        for (o, &x) in out.iter_mut().zip(self.nodes[a.0].value.as_slice()) {
            *o = f(x);
        }
        self.push(Matrix::from_vec(rows, cols, out), op)
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Record an input leaf (parameter or data). Gradients accumulate on
    /// leaves and are retrieved with [`Tape::grad`].
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Constant leaf: a [`Tape::leaf`] that takes no gradient. Ops whose
    /// inputs are all constants take none either, and the backward sweep
    /// skips the work of every contribution into them (an attention
    /// column's per-edge dots, a frozen weight's `Aᵀ·g`).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push_node(value, Op::Leaf, false)
    }

    /// Whether the backward sweep computes a gradient for `v` (see
    /// [`Tape::constant`]).
    pub fn requires_grad(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    // ------------------------------------------------------------------
    // Structural ops
    // ------------------------------------------------------------------

    /// Row gather `out[i] = src[indices[i]]` — differentiable embedding
    /// lookup. Backward scatter-adds into `src`.
    pub fn gather_rows(&mut self, src: Var, indices: &[usize]) -> Var {
        self.gather_rows_arc(src, Arc::new(indices.to_vec()))
    }

    /// [`Tape::gather_rows`] taking a shared index list. Batch-local
    /// propagation gathers with the same remapped index vectors on every
    /// layer; sharing the `Arc` avoids one O(edges) copy per gather.
    pub fn gather_rows_arc(&mut self, src: Var, indices: Arc<Vec<usize>>) -> Var {
        let (src_rows, cols) = self.value(src).shape();
        for &i in indices.iter() {
            assert!(i < src_rows, "gather_rows: index {i} out of bounds ({src_rows} rows)");
        }
        let mut out = self.value_buf(indices.len() * cols, false);
        kernels::gather_rows_into(self.nodes[src.0].value.as_slice(), cols, &indices, &mut out);
        self.push(Matrix::from_vec(indices.len(), cols, out), Op::Gather { src, indices })
    }

    /// Gathering *leaf*: `out[i] = src[indices[i]]` where `src` is a
    /// parameter matrix that never joins the tape. The node behaves like
    /// [`Tape::leaf`] in the backward sweep; read the accumulated gradient
    /// back as a row-sparse [`SparseRowGrad`] with
    /// [`Tape::take_sparse_grad`]. This is the embedding-lookup fast path:
    /// neither the `src` clone of a dense leaf nor the dense scatter
    /// buffer of [`Tape::gather_rows`]' backward is ever allocated.
    pub fn gather_leaf(&mut self, src: &Matrix, indices: Arc<Vec<usize>>) -> Var {
        let (src_rows, cols) = src.shape();
        for &i in indices.iter() {
            assert!(i < src_rows, "gather_leaf: index {i} out of bounds ({src_rows} rows)");
        }
        let mut out = self.value_buf(indices.len() * cols, false);
        kernels::gather_rows_into(src.as_slice(), cols, &indices, &mut out);
        self.push(Matrix::from_vec(indices.len(), cols, out), Op::ParamGather { indices, src_rows })
    }

    /// Take the gradient of a [`Tape::gather_leaf`] node as a row-sparse
    /// gradient over the source parameter, folding duplicate gather
    /// indices in the same accumulation order as the dense scatter-add —
    /// the result densifies bitwise-equal to what
    /// [`Tape::gather_rows`] + [`Tape::take_grad`] would have produced.
    ///
    /// Returns `None` when the node did not participate in the last
    /// [`Tape::backward`].
    ///
    /// # Panics
    /// Panics if `v` was not created by [`Tape::gather_leaf`].
    pub fn take_sparse_grad(&mut self, v: Var) -> Option<SparseRowGrad> {
        let Op::ParamGather { indices, src_rows } = &self.nodes[v.0].op else {
            panic!("take_sparse_grad: node {} was not created by gather_leaf", v.0);
        };
        let (indices, src_rows) = (Arc::clone(indices), *src_rows);
        let mut g = self.grads.get_mut(v.0).and_then(|g| g.take())?;
        if indices.windows(2).all(|w| w[0] < w[1]) {
            // Already unique: one gradient row per parameter row. Mirror
            // the dense path's `0.0 + x` (it normalizes -0.0 to +0.0) so
            // downstream comparisons stay bitwise.
            for x in g.as_mut_slice() {
                *x += 0.0;
            }
            let sg = SparseRowGrad { n_rows: src_rows, rows: indices.to_vec(), values: g };
            #[cfg(feature = "debug-audit")]
            sg.validate("take_sparse_grad (unique fast path)");
            return Some(sg);
        }
        // Duplicates (or unsorted indices): group gather positions by
        // parameter row. Sorting by `(row, position)` keeps each row's
        // adds in gather order — the same order the dense scatter-add
        // visits them.
        let mut order: Vec<usize> = (0..indices.len()).collect();
        order.sort_unstable_by_key(|&k| (indices[k], k));
        if order.windows(2).all(|w| indices[w[0]] < indices[w[1]]) {
            // Unique but unsorted (a batch subgraph lists its seeds
            // first): the fold is a row permutation of `g` plus the
            // `0.0 + x`, done in place instead of into a fresh buffer.
            permute_rows(&mut g, &order);
            for x in g.as_mut_slice() {
                *x += 0.0;
            }
            let rows = order.iter().map(|&k| indices[k]).collect();
            let sg = SparseRowGrad { n_rows: src_rows, rows, values: g };
            #[cfg(feature = "debug-audit")]
            sg.validate_sorted("take_sparse_grad (permutation path)");
            return Some(sg);
        }
        let mut rows: Vec<usize> = Vec::new();
        for &k in &order {
            if rows.last() != Some(&indices[k]) {
                rows.push(indices[k]);
            }
        }
        let mut values = Matrix::zeros(rows.len(), g.cols());
        let mut out = 0;
        for &k in &order {
            if rows[out] != indices[k] {
                out += 1;
            }
            kernels::add_assign(values.row_mut(out), g.row(k));
        }
        let sg = SparseRowGrad { n_rows: src_rows, rows, values };
        #[cfg(feature = "debug-audit")]
        sg.validate_sorted("take_sparse_grad (fold path)");
        Some(sg)
    }

    /// Hand back a gradient taken with [`Tape::take_grad`], or the
    /// `values` of one taken with [`Tape::take_sparse_grad`], once the
    /// caller is done with it: it becomes `v`'s gradient spare at the next
    /// [`Tape::reset`], so the next step reuses the buffer instead of
    /// allocating one. A matrix not shaped like `v`'s gradient, or a slot
    /// that holds a gradient again, leaves the tape unchanged.
    pub fn recycle_grad(&mut self, v: Var, g: Matrix) {
        if g.shape() == self.nodes[v.0].value.shape() {
            if let Some(slot @ None) = self.grads.get_mut(v.0) {
                *slot = Some(g);
            }
        }
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let ((rows, ac), (br, bc)) = (self.value(a).shape(), self.value(b).shape());
        assert_eq!(rows, br, "concat_cols: row mismatch");
        let cols = ac + bc;
        let mut out = self.value_buf(rows * cols, false);
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        for (r, orow) in out.chunks_exact_mut(cols.max(1)).enumerate() {
            orow[..ac].copy_from_slice(av.row(r));
            orow[ac..].copy_from_slice(bv.row(r));
        }
        self.push(Matrix::from_vec(rows, cols, out), Op::ConcatCols { a, b })
    }

    /// Vertical stack of `a` over `b`.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let ((ar, cols), (br, bc)) = (self.value(a).shape(), self.value(b).shape());
        assert_eq!(cols, bc, "concat_rows: column mismatch");
        let mut out = self.value_buf((ar + br) * cols, false);
        let (top, bottom) = out.split_at_mut(ar * cols);
        top.copy_from_slice(self.nodes[a.0].value.as_slice());
        bottom.copy_from_slice(self.nodes[b.0].value.as_slice());
        self.push(Matrix::from_vec(ar + br, cols, out), Op::ConcatRows { a, b })
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = (self.value(a).rows(), self.value(b).cols());
        let mut out = self.value_buf(m * n, true);
        self.nodes[a.0].value.matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(Matrix::from_vec(m, n, out), Op::MatMul { a, b })
    }

    /// Matrix product `a · bᵀ`.
    pub fn matmul_transpose_b(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = (self.value(a).rows(), self.value(b).rows());
        let mut out = self.value_buf(m * n, true);
        self.nodes[a.0].value.matmul_transpose_b_into(&self.nodes[b.0].value, &mut out);
        self.push(Matrix::from_vec(m, n, out), Op::MatMulTransB { a, b })
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip_op(a, b, "add", |x, y| x + y, Op::Add { a, b })
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip_op(a, b, "sub", |x, y| x - y, Op::Sub { a, b })
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip_op(a, b, "hadamard", |x, y| x * y, Op::Mul { a, b })
    }

    /// Add a `1 × cols` bias row to every row of `a`.
    pub fn add_broadcast_row(&mut self, a: Var, bias: Var) -> Var {
        let ((rows, cols), bs) = (self.value(a).shape(), self.value(bias).shape());
        assert_eq!(bs.0, 1, "add_row_broadcast: bias must have one row");
        assert_eq!(bs.1, cols, "add_row_broadcast: column mismatch");
        let mut out = self.value_buf(rows * cols, false);
        let (av, bv) = (self.nodes[a.0].value.as_slice(), self.nodes[bias.0].value.as_slice());
        for (orow, arow) in out.chunks_exact_mut(cols.max(1)).zip(av.chunks_exact(cols.max(1))) {
            for ((o, &x), &b) in orow.iter_mut().zip(arow).zip(bv) {
                *o = x + b;
            }
        }
        self.push(Matrix::from_vec(rows, cols, out), Op::AddBroadcastRow { a, bias })
    }

    /// Scale row `i` of `a` by the scalar `w[i, 0]` (`w` is `N × 1`).
    pub fn mul_broadcast_col(&mut self, a: Var, w: Var) -> Var {
        let ((rows, cols), ws) = (self.value(a).shape(), self.value(w).shape());
        assert_eq!(ws.1, 1, "mul_broadcast_col: w must be a column");
        assert_eq!(rows, ws.0, "mul_broadcast_col: row mismatch");
        let mut out = self.value_buf(rows * cols, false);
        let (av, wv) = (self.nodes[a.0].value.as_slice(), self.nodes[w.0].value.as_slice());
        let rows_out = out.chunks_exact_mut(cols.max(1));
        for ((orow, arow), &s) in rows_out.zip(av.chunks_exact(cols.max(1))).zip(wv) {
            for (o, &x) in orow.iter_mut().zip(arow) {
                *o = x * s;
            }
        }
        self.push(Matrix::from_vec(rows, cols, out), Op::MulBroadcastCol { a, w })
    }

    /// Scalar multiple `s * a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        self.map_op(a, |x| x * s, Op::Scale { a, s })
    }

    /// Elementwise `a + s`.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        self.map_op(a, |x| x + s, Op::AddScalar { a })
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// LeakyReLU with the workspace-standard slope.
    pub fn leaky_relu(&mut self, a: Var) -> Var {
        self.map_op(a, ops::leaky_relu, Op::LeakyRelu { a })
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        self.map_op(a, ops::relu, Op::Relu { a })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.map_op(a, ops::tanh, Op::Tanh { a })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.map_op(a, ops::sigmoid, Op::Sigmoid { a })
    }

    /// Numerically stable `ln(sigmoid(a))` — the BPR loss kernel.
    pub fn log_sigmoid(&mut self, a: Var) -> Var {
        self.map_op(a, ops::log_sigmoid, Op::LogSigmoid { a })
    }

    // ------------------------------------------------------------------
    // Row-wise reductions
    // ------------------------------------------------------------------

    /// Per-row dot product `out[i] = a[i] · b[i]` → `N × 1`.
    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Var {
        let ((rows, cols), sb) = (self.value(a).shape(), self.value(b).shape());
        assert_eq!((rows, cols), sb, "rowwise_dot: shape mismatch {:?} vs {sb:?}", (rows, cols));
        let mut out = self.value_buf(rows, true);
        let (av, bv) = (self.nodes[a.0].value.as_slice(), self.nodes[b.0].value.as_slice());
        kernels::rowwise_dot_into(av, bv, cols, &mut out);
        self.push(Matrix::from_vec(rows, 1, out), Op::RowwiseDot { a, b })
    }

    /// Per-row squared L2 norm → `N × 1` (the TransR plausibility score,
    /// paper Eq. 1, once applied to `W_r e_h + e_r − W_r e_t`).
    pub fn rowwise_norm_sq(&mut self, a: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut out = self.value_buf(rows, true);
        let av = self.nodes[a.0].value.as_slice();
        kernels::rowwise_dot_into(av, av, cols, &mut out);
        self.push(Matrix::from_vec(rows, 1, out), Op::RowwiseNormSq { a })
    }

    /// Per-row L2 normalization `y_i = x_i / max(‖x_i‖, ε)` with
    /// `ε = 1e-12` (rows with tiny norms pass through scaled by `1/ε`-free
    /// clamping, i.e. they stay near zero). Used by KGAT-style models to
    /// keep layer outputs on a comparable scale before concatenation.
    pub fn normalize_rows(&mut self, a: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut out = self.value_buf(rows * cols, false);
        let av = self.nodes[a.0].value.as_slice();
        for (orow, xrow) in out.chunks_exact_mut(cols.max(1)).zip(av.chunks_exact(cols.max(1))) {
            let norm = kernels::dot(xrow, xrow).sqrt().max(NORM_EPS);
            for (o, &x) in orow.iter_mut().zip(xrow) {
                *o = x / norm;
            }
        }
        self.push(Matrix::from_vec(rows, cols, out), Op::NormalizeRows { a })
    }

    // ------------------------------------------------------------------
    // Segment ops (graph message passing)
    // ------------------------------------------------------------------

    /// Softmax over contiguous row segments of an `N × 1` score column
    /// (paper Eq. 5: attention normalized over each head's neighborhood).
    ///
    /// `offsets` has one more entry than there are segments; segment `s`
    /// spans rows `offsets[s] .. offsets[s+1]`. Empty segments are fine.
    ///
    /// # Panics
    /// Panics if `a` is not a column or `offsets` does not cover all rows.
    pub fn segment_softmax(&mut self, a: Var, offsets: Arc<Vec<usize>>) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!(cols, 1, "segment_softmax: input must be a column");
        assert!(!offsets.is_empty(), "segment_softmax: offsets must be non-empty");
        assert_eq!(
            *offsets.last().unwrap(),
            rows,
            "segment_softmax: offsets must end at the row count"
        );
        let mut out = self.value_buf(rows, false);
        out.copy_from_slice(self.nodes[a.0].value.as_slice());
        kernels::segment_softmax_in_place(&mut out, &offsets);
        self.push(Matrix::from_vec(rows, 1, out), Op::SegmentSoftmax { a, offsets })
    }

    /// Scatter-sum rows of `a` into `num_segments` output rows:
    /// `out[seg_of_row[i]] += a[i]` (paper Eq. 3: messages from a head's
    /// neighborhood are summed into its aggregate `e_{N_h}`).
    ///
    /// # Panics
    /// Panics if `seg_of_row.len() != a.rows()` or a segment id is out of
    /// range.
    pub fn segment_sum(&mut self, a: Var, seg_of_row: Arc<Vec<usize>>, num_segments: usize) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!(seg_of_row.len(), rows, "segment_sum: length mismatch");
        for &s in seg_of_row.iter() {
            assert!(s < num_segments, "segment_sum: segment {s} out of range");
        }
        let mut out = self.value_buf(num_segments * cols, true);
        kernels::segment_sum_into(self.nodes[a.0].value.as_slice(), cols, &seg_of_row, &mut out);
        self.push(Matrix::from_vec(num_segments, cols, out), Op::SegmentSum { a, seg_of_row })
    }

    /// Fused `gather_rows → mul_broadcast_col → segment_sum` over an
    /// edge list: `out[heads[e]] += h[tails[e]] · att[e]` for every edge
    /// `e`, in edge order. One pass over the edges replaces the two
    /// `E × cols` intermediates (the gathered tails and the scaled
    /// messages) the unfused chain materializes — and every product and
    /// every add happens with the same operands in the same order, so
    /// both the value and the backward are bit-for-bit the unfused
    /// chain's.
    pub fn gather_scale_segment_sum(
        &mut self,
        h: Var,
        att: Var,
        tails: Arc<Vec<usize>>,
        heads: Arc<Vec<usize>>,
        num_segments: usize,
    ) -> Var {
        let ((hr, cols), ws) = (self.value(h).shape(), self.value(att).shape());
        assert_eq!(ws.1, 1, "gather_scale_segment_sum: att must be a column");
        assert_eq!(ws.0, tails.len(), "gather_scale_segment_sum: att rows != edges");
        assert_eq!(tails.len(), heads.len(), "gather_scale_segment_sum: edge lists disagree");
        assert!(tails.iter().all(|&t| t < hr), "gather_scale_segment_sum: tail out of range");
        assert!(
            heads.iter().all(|&s| s < num_segments),
            "gather_scale_segment_sum: head out of range"
        );
        let mut out = self.value_buf(num_segments * cols, true);
        kernels::gather_scale_segment_sum_into(
            self.nodes[h.0].value.as_slice(),
            cols,
            &tails,
            self.nodes[att.0].value.as_slice(),
            &heads,
            &mut out,
        );
        let value = Matrix::from_vec(num_segments, cols, out);
        self.push(value, Op::GatherScaleSegmentSum { h, att, tails, heads })
    }

    // ------------------------------------------------------------------
    // Regularization / loss heads
    // ------------------------------------------------------------------

    /// Inverted dropout: elements are zeroed with probability
    /// `1 − keep_prob` and survivors are scaled by `1 / keep_prob`, so the
    /// expectation is unchanged. `keep_prob == 1.0` is the identity.
    pub fn dropout(&mut self, a: Var, keep_prob: f32, rng: &mut Rng) -> Var {
        assert!(
            (0.0..=1.0).contains(&keep_prob) && keep_prob > 0.0,
            "dropout: keep_prob must be in (0, 1]"
        );
        if keep_prob >= 1.0 {
            return a;
        }
        let (rows, cols) = self.value(a).shape();
        let scale = 1.0 / keep_prob;
        let mask_spare = self.spares.get_mut(self.nodes.len()).map(|s| &mut s.mask);
        let mut keep = take_buf(mask_spare, rows * cols, false, false, &mut self.missed);
        let mut out = self.value_buf(rows * cols, false);
        // One pass draws each element's keep/drop in element order and
        // writes mask and value together: the draws, the products and so
        // the bits of a mask-then-multiply pair.
        let av = self.nodes[a.0].value.as_slice();
        for ((o, k), &x) in out.iter_mut().zip(keep.iter_mut()).zip(av) {
            *k = rng.gen_f32() < keep_prob;
            *o = x * if *k { scale } else { 0.0 };
        }
        let op = Op::Dropout { a, keep: Arc::new(keep), scale };
        self.push(Matrix::from_vec(rows, cols, out), op)
    }

    /// Row-keyed inverted dropout: element `(r, c)` survives iff
    /// [`keyed_unit`]`(key, rows[r], c) < keep_prob`, so a row's mask is a
    /// pure function of `key` and the row's id `rows[r]` — the same for
    /// that id whichever other rows share the matrix, and whatever its
    /// position. Survivors are scaled by `1 / keep_prob` as in
    /// [`Tape::dropout`]; `keep_prob == 1.0` is the identity.
    ///
    /// # Panics
    /// Panics if `keep_prob` is outside `(0, 1]` or `rows` does not name
    /// every row of `a`.
    pub fn dropout_keyed(&mut self, a: Var, keep_prob: f32, key: u64, rows: &[usize]) -> Var {
        assert!(
            (0.0..=1.0).contains(&keep_prob) && keep_prob > 0.0,
            "dropout: keep_prob must be in (0, 1]"
        );
        if keep_prob >= 1.0 {
            return a;
        }
        let (n_rows, cols) = self.value(a).shape();
        assert_eq!(rows.len(), n_rows, "dropout_keyed: one id per row");
        let scale = 1.0 / keep_prob;
        let mask_spare = self.spares.get_mut(self.nodes.len()).map(|s| &mut s.mask);
        let mut keep = take_buf(mask_spare, n_rows * cols, false, false, &mut self.missed);
        let mut out = self.value_buf(n_rows * cols, false);
        let av = self.nodes[a.0].value.as_slice();
        let c = cols.max(1);
        let chunks = out.chunks_exact_mut(c).zip(keep.chunks_exact_mut(c)).zip(av.chunks_exact(c));
        for (((orow, krow), arow), &id) in chunks.zip(rows) {
            let draw = keyed_row(key, id as u64);
            for (col, ((o, k), &x)) in orow.iter_mut().zip(krow).zip(arow).enumerate() {
                *k = draw(col as u64) < keep_prob;
                *o = x * if *k { scale } else { 0.0 };
            }
        }
        let op = Op::Dropout { a, keep: Arc::new(keep), scale };
        self.push(Matrix::from_vec(n_rows, cols, out), op)
    }

    /// Dropout with an explicit keep mask (exposed for deterministic
    /// tests): kept elements are scaled by `1 / keep_prob`, the others
    /// zeroed.
    pub fn dropout_with_mask(&mut self, a: Var, keep: Vec<bool>, keep_prob: f32) -> Var {
        assert!(
            (0.0..=1.0).contains(&keep_prob) && keep_prob > 0.0,
            "dropout: keep_prob must be in (0, 1]"
        );
        let (rows, cols) = self.value(a).shape();
        assert_eq!(keep.len(), rows * cols, "dropout: mask length mismatch");
        let scale = 1.0 / keep_prob;
        let mut out = self.value_buf(rows * cols, false);
        for ((o, &x), &k) in out.iter_mut().zip(self.nodes[a.0].value.as_slice()).zip(&keep) {
            *o = x * if k { scale } else { 0.0 };
        }
        let op = Op::Dropout { a, keep: Arc::new(keep), scale };
        self.push(Matrix::from_vec(rows, cols, out), op)
    }

    /// Replace rows `rows[i]` of `a` with row `i` of `values`, treating
    /// the injected rows as *constants*: the backward pass propagates a
    /// zero gradient through every overridden row (stop-gradient) and the
    /// untouched rows pass their gradient through unchanged.
    ///
    /// This is the injection point for per-macro-step caches (e.g. CKAT's
    /// hub-representation cache): values computed once outside the tape
    /// against a frozen snapshot replace recomputation inside it.
    /// `rows` must be strictly increasing; an empty `rows` is the
    /// identity and records no node.
    ///
    /// # Panics
    /// Panics if `rows` is not strictly increasing, a row index is out of
    /// bounds, or `values` is not `rows.len() × a.cols()`.
    pub fn override_rows(&mut self, a: Var, rows: Arc<Vec<usize>>, values: &Matrix) -> Var {
        if rows.is_empty() {
            return a;
        }
        let (n_rows, cols) = self.value(a).shape();
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "override_rows: rows must be strictly increasing"
        );
        assert!(*rows.last().unwrap() < n_rows, "override_rows: row index out of bounds");
        assert_eq!(values.shape(), (rows.len(), cols), "override_rows: values shape mismatch");
        let mut out = self.value_buf(n_rows * cols, false);
        out.copy_from_slice(self.nodes[a.0].value.as_slice());
        for (i, &r) in rows.iter().enumerate() {
            out[r * cols..(r + 1) * cols].copy_from_slice(values.row(i));
        }
        self.push(Matrix::from_vec(n_rows, cols, out), Op::OverrideRows { a, rows })
    }

    /// Sum of every element → `1 × 1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(value, Op::SumAll { a })
    }

    /// Mean of every element → `1 × 1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push(value, Op::MeanAll { a })
    }

    /// Squared Frobenius norm → `1 × 1` (the `λ‖Θ‖²` term of Eq. 13).
    pub fn frobenius_sq(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).frobenius_sq()]);
        self.push(value, Op::FrobeniusSq { a })
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Run the reverse sweep from `root`, which must be a `1 × 1` scalar.
    ///
    /// After this call, [`Tape::grad`] returns `∂root/∂v` for every node
    /// `v` that (transitively) feeds `root`.
    ///
    /// # Panics
    /// Panics if `root` is not `1 × 1`.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(self.value(root).shape(), (1, 1), "backward: root must be a 1x1 scalar");
        #[cfg(feature = "debug-audit")]
        self.audit_invariants();
        let n = self.nodes.len();
        // Slots past the end were not produced this step: their spares
        // are unclaimed. A repeated sweep over the same tape recycles the
        // previous sweep's gradients.
        if self.spares.len() > n {
            for mut s in self.spares.drain(n..) {
                discard(&mut s.value, &mut self.missed);
                discard(&mut s.grad, &mut self.missed);
                discard(&mut s.mask, &mut self.missed);
            }
        }
        self.spares.resize_with(n, Spare::default);
        for (g, s) in self.grads.drain(..).zip(&mut self.spares) {
            if let Some(g) = g {
                s.grad = g.into_vec();
            }
        }
        self.grads.resize_with(n, || None);
        self.grads[root.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for id in (0..=root.0).rev() {
            let Some(g) = self.grads[id].take() else { continue };
            // Non-finite gradients propagate silently and poison training;
            // fail fast instead (debug builds only — hot path).
            debug_assert!(g.all_finite(), "non-finite gradient at node {id}");
            self.apply_backward(id, &g);
            self.grads[id] = Some(g);
        }
        // Gradient spares of nodes that took no gradient this sweep.
        for s in &mut self.spares {
            discard(&mut s.grad, &mut self.missed);
        }
        self.spares.clear();
    }

    /// Add a contribution `delta` into `v`'s gradient, where
    /// `fill(nodes, out)` writes `delta` into `out`: it accumulates onto
    /// zeros when `zeroed`, else it overwrites every element. On first
    /// touch `fill` writes straight into the slot's buffer; later touches
    /// fill a temporary and add it — the adds `Matrix::add_assign` of a
    /// separate delta performs, so the bits do not depend on the path.
    fn acc_with(&mut self, v: Var, zeroed: bool, fill: impl FnOnce(&[Node], &mut [f32])) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        if self.grads[v.0].is_none() {
            let mut d = self.grad_buf(v, zeroed);
            fill(&self.nodes, d.as_mut_slice());
            self.grads[v.0] = Some(d);
            return;
        }
        let mut delta = vec![0.0; self.nodes[v.0].value.len()];
        fill(&self.nodes, &mut delta);
        if let Some(g) = &mut self.grads[v.0] {
            kernels::add_assign(g.as_mut_slice(), &delta);
        }
    }

    /// [`Tape::acc_with`] for a borrowed delta: adds in place when the
    /// slot already has a gradient, copies into the slot's buffer on
    /// first touch.
    fn acc_ref(&mut self, v: Var, delta: &Matrix) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.grads[v.0] {
            Some(g) => g.add_assign(delta),
            None => self.acc_with(v, false, |_, out| out.copy_from_slice(delta.as_slice())),
        }
    }

    /// Take `v`'s gradient out for in-place accumulation — zeros from the
    /// slot's spare on first touch. The caller puts it back.
    fn take_acc(&mut self, v: Var) -> Matrix {
        match self.grads[v.0].take() {
            Some(g) => g,
            None => self.grad_buf(v, true),
        }
    }

    /// A zeroed throwaway buffer shaped like `v`'s value, for the half of
    /// a fused two-output backward kernel whose input takes no gradient.
    fn scratch_grad(&self, v: Var) -> Matrix {
        let (rows, cols) = self.nodes[v.0].value.shape();
        Matrix::zeros(rows, cols)
    }

    /// Row-sparse gradient accumulation: `grad[v][indices[i]] += src[i]`.
    ///
    /// When `v` already has a gradient the rows scatter straight into it,
    /// touching only `indices.len()` rows — the dense
    /// `zeros + scatter + full-matrix add` detour would stream the whole
    /// `rows(v) × cols` buffer three times per gather, which dominated the
    /// backward pass on batch-local subgraphs (~75k-row unions, ~1k-row
    /// scatters).
    fn acc_scatter(&mut self, v: Var, cols: usize, indices: &[usize], src: &[f32]) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        let mut d = self.take_acc(v);
        kernels::scatter_add_rows(d.as_mut_slice(), cols, indices, src);
        self.grads[v.0] = Some(d);
    }

    fn apply_backward(&mut self, id: usize, g: &Matrix) {
        // `Op` only stores Vars and shared metadata, so we can copy what we
        // need out of the node before mutating the grad slots.
        match &self.nodes[id].op {
            Op::Leaf => {}
            // A leaf w.r.t. the tape: the gradient stays here for
            // `take_sparse_grad`; the off-tape source is not a node.
            Op::ParamGather { .. } => {}
            Op::Gather { src, indices } => {
                let (src, indices) = (*src, Arc::clone(indices));
                self.acc_scatter(src, g.cols(), &indices, g.as_slice());
            }
            Op::MatMul { a, b } => {
                let (a, b) = (*a, *b);
                let bv = self.value(b);
                // `dA = g·Bᵀ`. When `B` is a small weight matrix (every
                // layer/projection weight in this workspace), transposing
                // it once and riding the register-blocked row-major matmul
                // is ~3x faster on tall gradients than the dot-per-element
                // `A·Bᵀ` kernel; the transposed copy is a few KiB.
                let small = bv.len() <= SMALL_WEIGHT_TRANSPOSE_LIMIT;
                let bt = (small && self.nodes[a.0].requires_grad).then(|| bv.transpose());
                self.acc_with(a, true, |nodes, out| match &bt {
                    Some(bt) => g.matmul_into(bt, out),
                    None => g.matmul_transpose_b_into(&nodes[b.0].value, out),
                });
                if !self.nodes[b.0].requires_grad {
                    return;
                }
                // `dB = Aᵀ·g` rides the accumulating transpose-matmul
                // kernel straight into the grad slot: on first touch the
                // slot starts from zeros exactly like the former
                // temporary, and on later touches the rank-1 updates land
                // on the running total — a pure reassociation that is
                // deterministic and identical across extraction modes
                // (the op stream, and hence the visit order, is).
                let mut db = self.take_acc(b);
                let av = &self.nodes[a.0].value;
                kernels::transpose_matmul_into(
                    av.as_slice(),
                    av.cols(),
                    g.as_slice(),
                    g.cols(),
                    db.as_mut_slice(),
                );
                self.grads[b.0] = Some(db);
            }
            Op::MatMulTransB { a, b } => {
                let (a, b) = (*a, *b);
                self.acc_with(a, true, |nodes, out| g.matmul_into(&nodes[b.0].value, out));
                self.acc_with(b, true, |nodes, out| {
                    let av = &nodes[a.0].value;
                    kernels::transpose_matmul_into(
                        g.as_slice(),
                        g.cols(),
                        av.as_slice(),
                        av.cols(),
                        out,
                    );
                });
            }
            Op::Add { a, b } => {
                let (a, b) = (*a, *b);
                self.acc_ref(a, g);
                self.acc_ref(b, g);
            }
            Op::Sub { a, b } => {
                let (a, b) = (*a, *b);
                self.acc_ref(a, g);
                self.acc_with(b, false, |_, out| {
                    for (o, &x) in out.iter_mut().zip(g.as_slice()) {
                        // `-x` is `x · (−1)` bit for bit: both flip the sign.
                        *o = -x;
                    }
                });
            }
            Op::Mul { a, b } => {
                let (a, b) = (*a, *b);
                for (v, other) in [(a, b), (b, a)] {
                    self.acc_with(v, false, |nodes, out| {
                        let ov = nodes[other.0].value.as_slice();
                        for ((o, &x), &y) in out.iter_mut().zip(g.as_slice()).zip(ov) {
                            *o = x * y;
                        }
                    });
                }
            }
            Op::AddBroadcastRow { a, bias } => {
                let (a, bias) = (*a, *bias);
                self.acc_ref(a, g);
                // Column sums: rows accumulated in increasing order.
                self.acc_with(bias, true, |_, out| {
                    for row in g.iter_rows() {
                        kernels::add_assign(out, row);
                    }
                });
            }
            Op::MulBroadcastCol { a, w } => {
                let (a, w) = (*a, *w);
                let (need_a, need_w) =
                    (self.nodes[a.0].requires_grad, self.nodes[w.0].requires_grad);
                if need_a && !need_w {
                    // `da[r][c] += g[r][c] · w[r]` alone: the fused
                    // kernel's `da` half, element for element.
                    let mut da = self.take_acc(a);
                    let (wv, cols) = (self.nodes[w.0].value.as_slice(), g.cols().max(1));
                    let rows = da
                        .as_mut_slice()
                        .chunks_exact_mut(cols)
                        .zip(g.as_slice().chunks_exact(cols));
                    for ((da_row, g_row), &wr) in rows.zip(wv) {
                        for (d, &gv) in da_row.iter_mut().zip(g_row) {
                            *d += gv * wr;
                        }
                    }
                    self.grads[a.0] = Some(da);
                    return;
                }
                // Take both grad slots (zeroed on first touch) and fold
                // the fused kernel's `+=` halves straight into them — the
                // exact element adds the former temporary-then-
                // `add_assign` detour performed, with two fewer
                // full-matrix passes. A half nobody needs lands in a
                // scratch buffer.
                let mut da = if need_a { self.take_acc(a) } else { self.scratch_grad(a) };
                let mut dw = self.take_acc(w);
                kernels::mul_broadcast_col_grad_acc(
                    g.as_slice(),
                    self.nodes[a.0].value.as_slice(),
                    self.nodes[w.0].value.as_slice(),
                    g.cols(),
                    da.as_mut_slice(),
                    dw.as_mut_slice(),
                );
                if need_a {
                    self.grads[a.0] = Some(da);
                }
                self.grads[w.0] = Some(dw);
            }
            Op::Scale { a, s } => {
                let (a, s) = (*a, *s);
                self.acc_with(a, false, |_, out| {
                    for (o, &x) in out.iter_mut().zip(g.as_slice()) {
                        *o = x * s;
                    }
                });
            }
            Op::AddScalar { a } => {
                let a = *a;
                self.acc_ref(a, g);
            }
            Op::ConcatCols { a, b } => {
                let (a, b) = (*a, *b);
                let ac = self.nodes[a.0].value.cols();
                let n = g.cols();
                // Each half takes its column block of every gradient row:
                // added straight in when the half already has a gradient
                // (the per-element adds a split-then-`add_assign` would
                // perform), copied into the slot's buffer on first touch.
                for (v, lo, hi) in [(a, 0, ac), (b, ac, n)] {
                    if !self.nodes[v.0].requires_grad {
                        continue;
                    }
                    let width = (hi - lo).max(1);
                    let g_rows = g.as_slice().chunks_exact(n.max(1));
                    match &mut self.grads[v.0] {
                        Some(d) => {
                            for (drow, grow) in d.as_mut_slice().chunks_exact_mut(width).zip(g_rows)
                            {
                                kernels::add_assign(drow, &grow[lo..hi]);
                            }
                        }
                        None => {
                            let mut d = self.grad_buf(v, false);
                            for (drow, grow) in d.as_mut_slice().chunks_exact_mut(width).zip(g_rows)
                            {
                                drow.copy_from_slice(&grow[lo..hi]);
                            }
                            self.grads[v.0] = Some(d);
                        }
                    }
                }
            }
            Op::ConcatRows { a, b } => {
                let (a, b) = (*a, *b);
                let split = self.value(a).len();
                let (top, bottom) = g.as_slice().split_at(split);
                self.acc_with(a, false, |_, out| out.copy_from_slice(top));
                self.acc_with(b, false, |_, out| out.copy_from_slice(bottom));
            }
            Op::LeakyRelu { a } => {
                let a = *a;
                self.acc_with(a, false, |nodes, out| {
                    kernels::leaky_relu_grad_mul(nodes[a.0].value.as_slice(), g.as_slice(), out)
                });
            }
            Op::Relu { a } => {
                let a = *a;
                self.acc_with(a, false, |nodes, out| {
                    kernels::relu_grad_mul(nodes[a.0].value.as_slice(), g.as_slice(), out)
                });
            }
            Op::Tanh { a } => {
                let a = *a;
                self.acc_with(a, false, |nodes, out| {
                    kernels::tanh_grad_mul(nodes[id].value.as_slice(), g.as_slice(), out)
                });
            }
            Op::Sigmoid { a } => {
                let a = *a;
                self.acc_with(a, false, |nodes, out| {
                    kernels::sigmoid_grad_mul(nodes[id].value.as_slice(), g.as_slice(), out)
                });
            }
            Op::LogSigmoid { a } => {
                let a = *a;
                // d/dx ln σ(x) = σ(−x)
                self.acc_with(a, false, |nodes, out| {
                    kernels::log_sigmoid_grad_mul(nodes[a.0].value.as_slice(), g.as_slice(), out)
                });
            }
            Op::RowwiseDot { a, b } => {
                let (a, b) = (*a, *b);
                // `da = b` scaled row-wise by `g`, and `db = a` likewise.
                for (v, other) in [(a, b), (b, a)] {
                    self.acc_with(v, false, |nodes, out| {
                        let ov = &nodes[other.0].value;
                        out.copy_from_slice(ov.as_slice());
                        kernels::scale_rows(out, ov.cols(), g.as_slice());
                    });
                }
            }
            Op::RowwiseNormSq { a } => {
                let a = *a;
                let g2 = g.scale(2.0);
                self.acc_with(a, false, |nodes, out| {
                    let av = &nodes[a.0].value;
                    out.copy_from_slice(av.as_slice());
                    kernels::scale_rows(out, av.cols(), g2.as_slice());
                });
            }
            Op::NormalizeRows { a } => {
                let a = *a;
                // With y = x/‖x‖:  dL/dx = (g − y (y · g)) / ‖x‖.
                self.acc_with(a, false, |nodes, out| {
                    let x = &nodes[a.0].value;
                    let cols = x.cols().max(1);
                    let rows = out.chunks_exact_mut(cols).zip(x.as_slice().chunks_exact(cols));
                    for ((orow, xr), gr) in rows.zip(g.as_slice().chunks_exact(cols)) {
                        let norm = kernels::dot(xr, xr).sqrt().max(NORM_EPS);
                        let dot_yg: f32 = kernels::dot(xr, gr) / norm;
                        for ((o, &xv), &gv) in orow.iter_mut().zip(xr).zip(gr) {
                            let y = xv / norm;
                            *o = (gv - y * dot_yg) / norm;
                        }
                    }
                });
            }
            Op::SegmentSoftmax { a, offsets } => {
                let (a, offsets) = (*a, Arc::clone(offsets));
                // Zeroed: rows outside every segment take no gradient.
                self.acc_with(a, true, |nodes, out| {
                    let y = nodes[id].value.as_slice();
                    kernels::segment_softmax_grad_into(y, g.as_slice(), &offsets, out);
                });
            }
            Op::GatherScaleSegmentSum { h, att, tails, heads } => {
                let (h, att) = (*h, *att);
                let (tails, heads) = (Arc::clone(tails), Arc::clone(heads));
                let (need_h, need_att) =
                    (self.nodes[h.0].requires_grad, self.nodes[att.0].requires_grad);
                if need_h && !need_att {
                    // A constant attention column (every CKAT caller):
                    // `dh[tails[e]] += g[heads[e]] · att[e]` in edge order
                    // is the forward aggregation with the edge roles
                    // swapped — the same products and adds as the fused
                    // backward's `dh` half, without the per-edge dots.
                    let mut dh = self.take_acc(h);
                    kernels::gather_scale_segment_sum_into(
                        g.as_slice(),
                        g.cols(),
                        &heads,
                        self.nodes[att.0].value.as_slice(),
                        &tails,
                        dh.as_mut_slice(),
                    );
                    self.grads[h.0] = Some(dh);
                    return;
                }
                // Mirror image of the forward fusion: one pass over the
                // edges folds `dh[tails[e]] += g[heads[e]] · att[e]` and
                // `datt[e] += g[heads[e]] ⋅ h[tails[e]]` straight into
                // the grad slots (zeroed on first touch). Values, dots
                // and scatter order all match the unfused
                // segment-sum / mul-broadcast / gather backward chain,
                // so the bits do too. A half nobody needs lands in a
                // scratch buffer.
                let mut dh = if need_h { self.take_acc(h) } else { self.scratch_grad(h) };
                let mut datt = self.take_acc(att);
                let hv = &self.nodes[h.0].value;
                kernels::gather_scale_segment_sum_grad(
                    g.as_slice(),
                    hv.as_slice(),
                    hv.cols(),
                    &tails,
                    self.nodes[att.0].value.as_slice(),
                    &heads,
                    dh.as_mut_slice(),
                    datt.as_mut_slice(),
                );
                if need_h {
                    self.grads[h.0] = Some(dh);
                }
                self.grads[att.0] = Some(datt);
            }
            Op::SegmentSum { a, seg_of_row } => {
                let (a, seg_of_row) = (*a, Arc::clone(seg_of_row));
                let cols = g.cols();
                if !self.nodes[a.0].requires_grad {
                    return;
                }
                if let Some(da) = &mut self.grads[a.0] {
                    // Gather-add each gradient row straight into the
                    // existing slot — the same element adds the
                    // temporary-then-`add_assign` detour performed.
                    let drows = da.as_mut_slice().chunks_exact_mut(cols.max(1));
                    for (drow, &seg) in drows.zip(seg_of_row.iter()) {
                        kernels::add_assign(drow, g.row(seg));
                    }
                    return;
                }
                // Each output row is a copy of its segment's gradient row.
                let mut da = self.grad_buf(a, false);
                kernels::gather_rows_into(g.as_slice(), cols, &seg_of_row, da.as_mut_slice());
                self.grads[a.0] = Some(da);
            }
            Op::Dropout { a, keep, scale } => {
                let (a, keep, scale) = (*a, Arc::clone(keep), *scale);
                self.acc_with(a, false, |_, out| {
                    for ((o, &x), &k) in out.iter_mut().zip(g.as_slice()).zip(keep.iter()) {
                        *o = x * if k { scale } else { 0.0 };
                    }
                });
            }
            Op::OverrideRows { a, rows } => {
                let (a, rows) = (*a, Arc::clone(rows));
                // Overridden rows are constants: their gradient stops
                // here; all other rows pass through.
                let cols = g.cols();
                self.acc_with(a, false, |_, out| {
                    out.copy_from_slice(g.as_slice());
                    for &r in rows.iter() {
                        out[r * cols..(r + 1) * cols].fill(0.0);
                    }
                });
            }
            Op::SumAll { a } => {
                let (a, s) = (*a, g[(0, 0)]);
                self.acc_with(a, false, |_, out| out.fill(s));
            }
            Op::MeanAll { a } => {
                let a = *a;
                let n = self.value(a).len().max(1) as f32;
                let s = g[(0, 0)] / n;
                self.acc_with(a, false, |_, out| out.fill(s));
            }
            Op::FrobeniusSq { a } => {
                let a = *a;
                let s = 2.0 * g[(0, 0)];
                self.acc_with(a, false, |nodes, out| {
                    for (o, &x) in out.iter_mut().zip(nodes[a.0].value.as_slice()) {
                        *o = x * s;
                    }
                });
            }
        }
    }
}

// ----------------------------------------------------------------------
// Debug audit (feature = "debug-audit")
// ----------------------------------------------------------------------

#[cfg(feature = "debug-audit")]
impl Tape {
    /// Validate the structural invariants every [`Tape::backward`] sweep
    /// relies on, panicking with the offending node id on violation:
    ///
    /// * **topological order** — every op input was created before the op
    ///   itself (creation order is the backward sweep's topo order);
    /// * **per-op shape agreement** — each node's stored value has the
    ///   shape its op implies from its inputs' shapes;
    /// * **index bounds** — gather indices, segment offsets, scatter
    ///   targets, and dropout masks are in range for their operands;
    /// * **leaf non-aliasing** — no two non-empty leaf values share a
    ///   buffer, so gradient accumulation on one leaf can never observe
    ///   another leaf's updates.
    ///
    /// Runs automatically at the start of `backward()` when the
    /// `debug-audit` feature is enabled.
    pub fn audit_invariants(&self) {
        let mut leaf_bufs: Vec<*const f32> = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            self.audit_node(id, node);
            if matches!(node.op, Op::Leaf) && !node.value.as_slice().is_empty() {
                leaf_bufs.push(node.value.as_slice().as_ptr());
            }
        }
        leaf_bufs.sort_unstable();
        let n = leaf_bufs.len();
        leaf_bufs.dedup();
        assert_eq!(leaf_bufs.len(), n, "debug-audit: two leaf nodes alias the same value buffer");
    }

    fn audit_node(&self, id: usize, node: &Node) {
        let shape = node.value.shape();
        let input = |v: Var| -> (usize, usize) {
            assert!(
                v.0 < id,
                "debug-audit: node {id} reads node {} created after it — not topologically ordered",
                v.0
            );
            self.nodes[v.0].value.shape()
        };
        let expect = |cond: bool, what: &str| {
            assert!(cond, "debug-audit: node {id}: {what} (value shape {shape:?})");
        };
        match &node.op {
            Op::Leaf => {}
            Op::ParamGather { indices, src_rows } => {
                expect(shape.0 == indices.len(), "ParamGather row count != index count");
                expect(
                    indices.iter().all(|&i| i < *src_rows),
                    "ParamGather index out of parameter bounds",
                );
            }
            Op::Gather { src, indices } => {
                let s = input(*src);
                expect(shape == (indices.len(), s.1), "Gather shape mismatch");
                expect(indices.iter().all(|&i| i < s.0), "Gather index out of bounds");
            }
            Op::MatMul { a, b } => {
                let (a, b) = (input(*a), input(*b));
                expect(a.1 == b.0, "MatMul inner dimensions disagree");
                expect(shape == (a.0, b.1), "MatMul output shape mismatch");
            }
            Op::MatMulTransB { a, b } => {
                let (a, b) = (input(*a), input(*b));
                expect(a.1 == b.1, "MatMulTransB inner dimensions disagree");
                expect(shape == (a.0, b.0), "MatMulTransB output shape mismatch");
            }
            Op::Add { a, b } | Op::Sub { a, b } | Op::Mul { a, b } => {
                let (a, b) = (input(*a), input(*b));
                expect(a == b, "elementwise op operand shapes disagree");
                expect(shape == a, "elementwise op output shape mismatch");
            }
            Op::AddBroadcastRow { a, bias } => {
                let (a, bias) = (input(*a), input(*bias));
                expect(bias == (1, a.1), "AddBroadcastRow bias is not 1 x cols");
                expect(shape == a, "AddBroadcastRow output shape mismatch");
            }
            Op::MulBroadcastCol { a, w } => {
                let (a, w) = (input(*a), input(*w));
                expect(w == (a.0, 1), "MulBroadcastCol weight is not rows x 1");
                expect(shape == a, "MulBroadcastCol output shape mismatch");
            }
            Op::Scale { a, .. }
            | Op::AddScalar { a }
            | Op::LeakyRelu { a }
            | Op::Relu { a }
            | Op::Tanh { a }
            | Op::Sigmoid { a }
            | Op::LogSigmoid { a }
            | Op::NormalizeRows { a } => {
                expect(shape == input(*a), "unary op output shape mismatch");
            }
            Op::Dropout { a, keep, .. } => {
                let a = input(*a);
                expect(shape == a, "Dropout output shape mismatch");
                expect(keep.len() == a.0 * a.1, "Dropout mask length != element count");
            }
            Op::OverrideRows { a, rows } => {
                let a = input(*a);
                expect(shape == a, "OverrideRows output shape mismatch");
                expect(
                    rows.windows(2).all(|w| w[0] < w[1]),
                    "OverrideRows rows not strictly increasing",
                );
                expect(
                    rows.last().is_none_or(|&r| r < a.0),
                    "OverrideRows row index out of bounds",
                );
            }
            Op::ConcatCols { a, b } => {
                let (a, b) = (input(*a), input(*b));
                expect(a.0 == b.0, "ConcatCols row counts disagree");
                expect(shape == (a.0, a.1 + b.1), "ConcatCols output shape mismatch");
            }
            Op::ConcatRows { a, b } => {
                let (a, b) = (input(*a), input(*b));
                expect(a.1 == b.1, "ConcatRows column counts disagree");
                expect(shape == (a.0 + b.0, a.1), "ConcatRows output shape mismatch");
            }
            Op::RowwiseDot { a, b } => {
                let (a, b) = (input(*a), input(*b));
                expect(a == b, "RowwiseDot operand shapes disagree");
                expect(shape == (a.0, 1), "RowwiseDot output is not rows x 1");
            }
            Op::RowwiseNormSq { a } => {
                expect(shape == (input(*a).0, 1), "RowwiseNormSq output is not rows x 1");
            }
            Op::SegmentSoftmax { a, offsets } => {
                let a = input(*a);
                expect(a.1 == 1, "SegmentSoftmax input is not a score column");
                expect(shape == a, "SegmentSoftmax output shape mismatch");
                expect(
                    offsets.first() == Some(&0) && offsets.last() == Some(&a.0),
                    "SegmentSoftmax offsets must span 0..rows",
                );
                expect(
                    offsets.windows(2).all(|w| w[0] <= w[1]),
                    "SegmentSoftmax offsets must be non-decreasing",
                );
            }
            Op::GatherScaleSegmentSum { h, att, tails, heads } => {
                let (h, att) = (input(*h), input(*att));
                expect(att == (tails.len(), 1), "GatherScaleSegmentSum att is not edges x 1");
                expect(tails.len() == heads.len(), "GatherScaleSegmentSum edge lists disagree");
                expect(shape.1 == h.1, "GatherScaleSegmentSum output width mismatch");
                expect(
                    tails.iter().all(|&t| t < h.0),
                    "GatherScaleSegmentSum tail index out of bounds",
                );
                expect(
                    heads.iter().all(|&s| s < shape.0),
                    "GatherScaleSegmentSum head index out of bounds",
                );
            }
            Op::SegmentSum { a, seg_of_row } => {
                let a = input(*a);
                expect(seg_of_row.len() == a.0, "SegmentSum map length != input rows");
                expect(shape.1 == a.1, "SegmentSum output width mismatch");
                expect(
                    seg_of_row.iter().all(|&s| s < shape.0),
                    "SegmentSum segment id out of output bounds",
                );
            }
            Op::SumAll { .. } | Op::MeanAll { .. } | Op::FrobeniusSq { .. } => {
                expect(shape == (1, 1), "reduction output is not 1 x 1");
            }
        }
    }

    /// Test hook: overwrite the stored value of `v` so corruption tests
    /// can violate shape invariants without going through the public op
    /// constructors (which check shapes eagerly).
    pub fn debug_replace_value_for_test(&mut self, v: Var, value: Matrix) {
        self.nodes[v.0].value = value;
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_gradient() {
        // loss = sum((2x)²) = 4 Σ x² → d/dx = 8x
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let y = t.scale(x, 2.0);
        let y2 = t.mul(y, y);
        let loss = t.sum_all(y2);
        t.backward(loss);
        let g = t.grad(x).unwrap();
        assert_eq!(g.as_slice(), &[8., 16., 24., 32.]);
    }

    #[test]
    fn gather_scatter_accumulates_duplicates() {
        let mut t = Tape::new();
        let e = t.leaf(Matrix::from_vec(3, 2, vec![1., 1., 2., 2., 3., 3.]));
        let g = t.gather_rows(e, &[0, 2, 0]);
        let loss = t.sum_all(g);
        t.backward(loss);
        let grad = t.grad(e).unwrap();
        // Row 0 gathered twice → gradient 2; row 1 never → 0; row 2 once.
        assert_eq!(grad.as_slice(), &[2., 2., 0., 0., 1., 1.]);
    }

    #[test]
    fn override_rows_forward_replaces_and_backward_stops_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(3, 2, vec![1., 1., 2., 2., 3., 3.]));
        let y = t.scale(x, 2.0);
        let cached = Matrix::from_vec(2, 2, vec![10., 20., 30., 40.]);
        let z = t.override_rows(y, Arc::new(vec![0, 2]), &cached);
        assert_eq!(t.value(z).as_slice(), &[10., 20., 4., 4., 30., 40.]);
        let loss = t.sum_all(z);
        t.backward(loss);
        // Rows 0 and 2 are constants → no gradient flows back through
        // them; row 1 passes through the ×2.
        assert_eq!(t.grad(x).unwrap().as_slice(), &[0., 0., 2., 2., 0., 0.]);
    }

    #[test]
    fn override_rows_with_empty_rows_is_identity() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let empty = Matrix::zeros(0, 2);
        let y = t.override_rows(x, Arc::new(Vec::new()), &empty);
        assert_eq!(y, x, "no node recorded for an empty override");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn override_rows_rejects_unsorted_rows() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(3, 2));
        let vals = Matrix::zeros(2, 2);
        t.override_rows(x, Arc::new(vec![2, 0]), &vals);
    }

    #[test]
    #[should_panic(expected = "values shape mismatch")]
    fn override_rows_rejects_wrong_value_shape() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(3, 2));
        let vals = Matrix::zeros(1, 2);
        t.override_rows(x, Arc::new(vec![0, 2]), &vals);
    }

    #[test]
    fn matmul_gradients_known_values() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1.
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = t.leaf(Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]));
        let c = t.matmul(a, b);
        let loss = t.sum_all(c);
        t.backward(loss);
        assert_eq!(t.grad(a).unwrap().as_slice(), &[11., 15., 11., 15.]);
        assert_eq!(t.grad(b).unwrap().as_slice(), &[4., 4., 6., 6.]);
    }

    #[test]
    fn segment_softmax_forward_uniform_and_grad_sums_to_zero() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(4, 1, vec![1., 1., 5., 2.]));
        let offsets = Arc::new(vec![0usize, 2, 4]);
        let y = t.segment_softmax(x, offsets);
        let yv = t.value(y).clone();
        assert!((yv[(0, 0)] - 0.5).abs() < 1e-6);
        assert!((yv[(1, 0)] - 0.5).abs() < 1e-6);
        assert!((yv[(2, 0)] + yv[(3, 0)] - 1.0).abs() < 1e-6);
        assert!(yv[(2, 0)] > yv[(3, 0)]);

        // Weight the softmax output and reduce; the gradient within each
        // segment must sum to ~0 (softmax is shift-invariant).
        let w = t.constant(Matrix::from_vec(4, 1, vec![1., -1., 2., 0.]));
        let yw = t.mul(y, w);
        let loss = t.sum_all(yw);
        t.backward(loss);
        let g = t.grad(x).unwrap();
        assert!((g[(0, 0)] + g[(1, 0)]).abs() < 1e-6);
        assert!((g[(2, 0)] + g[(3, 0)]).abs() < 1e-6);
    }

    #[test]
    fn segment_sum_forward_and_backward() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let y = t.segment_sum(x, Arc::new(vec![1, 0, 1]), 2);
        assert_eq!(t.value(y).as_slice(), &[3., 4., 6., 8.]);
        // Weighted reduction: rows of segment 1 receive that segment's grad.
        let w = t.constant(Matrix::from_vec(2, 2, vec![10., 10., 1., 1.]));
        let yw = t.mul(y, w);
        let loss = t.sum_all(yw);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[1., 1., 10., 10., 1., 1.]);
    }

    #[test]
    fn gather_scale_segment_sum_is_bitwise_the_unfused_chain() {
        // The fused attention aggregation must match
        // gather → mul_broadcast_col → segment_sum bit for bit, in both
        // the forward value and every gradient — the property that lets
        // `propagate_over` swap chains without moving any training gate.
        let rows = 23;
        let cols = 5;
        let n_seg = 6;
        let tails: Vec<usize> = (0..40).map(|e| (e * 7 + 3) % rows).collect();
        let heads: Vec<usize> = (0..40).map(|e| (e * 5) % n_seg).collect();
        let h_data: Vec<f32> =
            (0..rows * cols).map(|i| ((i * 37 + 11) % 19) as f32 * 0.173 - 1.5).collect();
        let att_data: Vec<f32> =
            (0..40).map(|e| ((e * 13 + 5) % 23) as f32 * 0.071 - 0.6).collect();

        let run = |fused: bool| {
            let mut t = Tape::new();
            let h = t.leaf(Matrix::from_vec(rows, cols, h_data.clone()));
            let att = t.leaf(Matrix::from_vec(40, 1, att_data.clone()));
            let e_n = if fused {
                t.gather_scale_segment_sum(
                    h,
                    att,
                    Arc::new(tails.clone()),
                    Arc::new(heads.clone()),
                    n_seg,
                )
            } else {
                let et = t.gather_rows(h, &tails);
                let msg = t.mul_broadcast_col(et, att);
                t.segment_sum(msg, Arc::new(heads.clone()), n_seg)
            };
            let loss = t.frobenius_sq(e_n);
            t.backward(loss);
            (
                t.value(e_n).as_slice().to_vec(),
                t.grad(h).unwrap().as_slice().to_vec(),
                t.grad(att).unwrap().as_slice().to_vec(),
            )
        };
        let (v_f, dh_f, datt_f) = run(true);
        let (v_u, dh_u, datt_u) = run(false);
        for (a, b) in v_f.iter().zip(&v_u) {
            assert_eq!(a.to_bits(), b.to_bits(), "forward value diverged");
        }
        for (a, b) in dh_f.iter().zip(&dh_u) {
            assert_eq!(a.to_bits(), b.to_bits(), "dh diverged");
        }
        for (a, b) in datt_f.iter().zip(&datt_u) {
            assert_eq!(a.to_bits(), b.to_bits(), "datt diverged");
        }
    }

    #[test]
    fn segment_sum_backward_large_matches_serial_path() {
        // Cross the parallel-backward threshold and check against the
        // analytically known gradient (each input row gets its segment's
        // gradient row — all ones under sum_all).
        let rows = 6000;
        let cols = 4;
        let mut t = Tape::new();
        let x = t.leaf(Matrix::filled(rows, cols, 0.5));
        let seg: Vec<usize> = (0..rows).map(|r| r % 7).collect();
        let y = t.segment_sum(x, Arc::new(seg), 7);
        let loss = t.sum_all(y);
        t.backward(loss);
        let g = t.grad(x).unwrap();
        assert_eq!(g.shape(), (rows, cols));
        assert!(g.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn gather_rows_arc_shares_indices_and_matches_slice_gather() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let idx = Arc::new(vec![2usize, 0, 2]);
        let a = t.gather_rows_arc(x, Arc::clone(&idx));
        let b = t.gather_rows(x, &idx);
        assert_eq!(t.value(a).as_slice(), t.value(b).as_slice());
        let loss = t.sum_all(a);
        t.backward(loss);
        // Row 2 gathered twice, row 0 once, row 1 never.
        assert_eq!(t.grad(x).unwrap().as_slice(), &[1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn dropout_identity_at_keep_one() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::filled(2, 2, 3.0));
        let mut rng = facility_linalg::seeded_rng(0);
        let y = t.dropout(x, 1.0, &mut rng);
        assert_eq!(y, x, "keep_prob=1 must be the identity (no node added)");
    }

    #[test]
    fn dropout_mask_zeroes_and_scales() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 4, vec![1., 2., 3., 4.]));
        let y = t.dropout_with_mask(x, vec![true, false, true, false], 0.5);
        assert_eq!(t.value(y).as_slice(), &[2., 0., 6., 0.]);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[2., 0., 2., 0.]);
    }

    /// A keyed row's mask, value and gradient depend on its id and the
    /// key only: the row for id 7 is the same alone, among other rows,
    /// and at another position.
    #[test]
    fn keyed_dropout_row_does_not_depend_on_other_rows() {
        let row7: Vec<f32> = (0..40).map(|c| c as f32 * 0.25 - 3.0).collect();
        let run = |ids: &[usize], at: usize| {
            let mut data = vec![1.5; ids.len() * 40];
            data[at * 40..(at + 1) * 40].copy_from_slice(&row7);
            let mut t = Tape::new();
            let x = t.leaf(Matrix::from_vec(ids.len(), 40, data));
            let y = t.dropout_keyed(x, 0.7, 0xC0FFEE, ids);
            let w = t.constant(Matrix::filled(ids.len(), 40, 0.5));
            let yw = t.mul(y, w);
            let loss = t.sum_all(yw);
            t.backward(loss);
            let bits = |m: &Matrix| -> Vec<u32> { m.row(at).iter().map(|v| v.to_bits()).collect() };
            (bits(t.value(y)), bits(t.grad(x).unwrap()))
        };
        let alone = run(&[7], 0);
        assert_eq!(alone, run(&[2, 7, 9], 1));
        assert_eq!(alone, run(&[9, 5, 3, 7], 3));
        let (value, _) = &alone;
        let dropped = value.iter().filter(|&&b| b == 0.0f32.to_bits() || b == (-0.0f32).to_bits());
        assert!((1..40).contains(&dropped.count()), "keep 0.7 drops some of 40 elements");
        // Another key or another id draws another mask.
        let mask = |key: u64, id: u64| -> Vec<bool> {
            (0..64).map(|c| keyed_unit(key, id, c) < 0.5).collect()
        };
        assert_ne!(mask(1, 7), mask(2, 7));
        assert_ne!(mask(1, 7), mask(1, 8));
    }

    #[test]
    fn keyed_dropout_identity_at_keep_one() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::filled(2, 2, 3.0));
        assert_eq!(t.dropout_keyed(x, 1.0, 5, &[0, 1]), x);
    }

    /// Constants take no gradient, nor do ops over constants only, and
    /// skipping them leaves every requires-grad gradient's bits alone.
    #[test]
    fn constants_take_no_gradient_and_leave_the_others_bitwise() {
        let h_data: Vec<f32> = (0..15).map(|i| (i as f32 * 0.37).sin()).collect();
        let att_data: Vec<f32> = (0..6).map(|e| 0.1 + e as f32 * 0.13).collect();
        let w_data: Vec<f32> = (0..6).map(|i| 0.2 - i as f32 * 0.07).collect();
        let run = |att_is_leaf: bool| {
            let mut t = Tape::new();
            let h = t.leaf(Matrix::from_vec(5, 3, h_data.clone()));
            let col = Matrix::from_vec(6, 1, att_data.clone());
            let att = if att_is_leaf { t.leaf(col) } else { t.constant(col) };
            let w = t.constant(Matrix::from_vec(3, 2, w_data.clone()));
            let tails = Arc::new(vec![1, 4, 0, 2, 2, 3]);
            let heads = Arc::new(vec![0, 0, 1, 2, 2, 2]);
            let agg = t.gather_scale_segment_sum(h, att, tails, heads, 3);
            let z = t.matmul(agg, w);
            let loss = t.frobenius_sq(z);
            assert!(t.requires_grad(loss));
            assert!(!t.requires_grad(w));
            t.backward(loss);
            assert!(t.grad(w).is_none(), "a constant weight takes no gradient");
            assert_eq!(t.grad(att).is_some(), att_is_leaf);
            t.grad(h).unwrap().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true), "dh must not depend on whether datt is computed");

        let mut t = Tape::new();
        let c = t.constant(Matrix::filled(2, 2, 1.0));
        let d = t.tanh(c);
        assert!(!t.requires_grad(d), "ops over constants only take no gradient");
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::filled(2, 2, 1.0));
        let b = t.leaf(Matrix::filled(2, 3, 1.0));
        let c = t.concat_cols(a, b);
        assert_eq!(t.value(c).shape(), (2, 5));
        let s = t.sum_all(c);
        t.backward(s);
        assert_eq!(t.grad(a).unwrap().shape(), (2, 2));
        assert_eq!(t.grad(b).unwrap().shape(), (2, 3));
        assert!(t.grad(a).unwrap().as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn diamond_reuse_accumulates() {
        // y = x + x → dy/dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Matrix::filled(1, 1, 3.0));
        let y = t.add(x, x);
        t.backward(y);
        assert_eq!(t.grad(x).unwrap()[(0, 0)], 2.0);
    }

    #[test]
    fn unused_leaf_has_no_grad() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::filled(1, 1, 3.0));
        let y = t.leaf(Matrix::filled(1, 1, 4.0));
        let loss = t.frobenius_sq(x);
        t.backward(loss);
        assert!(t.grad(x).is_some());
        assert!(t.grad(y).is_none());
    }

    #[test]
    #[should_panic(expected = "root must be a 1x1 scalar")]
    fn backward_rejects_non_scalar_root() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::filled(2, 2, 1.0));
        t.backward(x);
    }

    #[test]
    fn gather_leaf_forward_matches_gather_rows() {
        let src = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let mut t = Tape::new();
        let on_tape = t.leaf(src.clone());
        let dense = t.gather_rows(on_tape, &[2, 0, 2]);
        let sparse = t.gather_leaf(&src, Arc::new(vec![2, 0, 2]));
        assert_eq!(t.value(dense).as_slice(), t.value(sparse).as_slice());
    }

    #[test]
    fn take_sparse_grad_folds_duplicates_bitwise_like_dense_scatter() {
        let src = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let idx = vec![3usize, 1, 3, 3, 0];
        // Dense reference: leaf + gather_rows.
        let mut td = Tape::new();
        let leaf = td.leaf(src.clone());
        let gd = td.gather_rows(leaf, &idx);
        let wd =
            td.constant(Matrix::from_vec(5, 2, vec![1., -1., 2., 0.5, 3., 3., -4., 0.25, 7., 9.]));
        let pd = td.mul(gd, wd);
        let ld = td.sum_all(pd);
        td.backward(ld);
        let dense = td.take_grad(leaf).expect("dense grad");
        // Sparse path: gather_leaf + take_sparse_grad.
        let mut ts = Tape::new();
        let gs = ts.gather_leaf(&src, Arc::new(idx));
        let ws =
            ts.constant(Matrix::from_vec(5, 2, vec![1., -1., 2., 0.5, 3., 3., -4., 0.25, 7., 9.]));
        let ps = ts.mul(gs, ws);
        let ls = ts.sum_all(ps);
        ts.backward(ls);
        let sparse = ts.take_sparse_grad(gs).expect("sparse grad");
        assert_eq!(sparse.n_rows, 4);
        assert_eq!(sparse.rows, vec![0, 1, 3], "unique touched rows, sorted by fold");
        let densified = sparse.to_dense();
        for (a, b) in dense.as_slice().iter().zip(densified.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "fold must match dense scatter bitwise");
        }
    }

    #[test]
    fn take_sparse_grad_permutes_unique_unsorted_indices_in_place() {
        let src = Matrix::from_vec(6, 2, (0..12).map(|x| x as f32 * 0.5 - 2.0).collect());
        let idx = vec![4usize, 0, 5, 2, 1];
        let w = Matrix::from_vec(5, 2, vec![1., -1., 2., 0.5, 3., 3., -4., 0.25, 7., -0.0]);
        let mut td = Tape::new();
        let leaf = td.leaf(src.clone());
        let gd = td.gather_rows(leaf, &idx);
        let wd = td.constant(w.clone());
        let pd = td.mul(gd, wd);
        let ld = td.sum_all(pd);
        td.backward(ld);
        let dense = td.take_grad(leaf).expect("dense grad");
        let mut ts = Tape::new();
        let gs = ts.gather_leaf(&src, Arc::new(idx));
        let ws = ts.constant(w);
        let ps = ts.mul(gs, ws);
        let ls = ts.sum_all(ps);
        ts.backward(ls);
        let sparse = ts.take_sparse_grad(gs).expect("sparse grad");
        assert_eq!(sparse.rows, vec![0, 1, 2, 4, 5]);
        let densified = sparse.to_dense();
        for (a, b) in dense.as_slice().iter().zip(densified.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "permutation must match dense scatter bitwise");
        }
    }

    #[test]
    fn take_sparse_grad_unique_indices_skips_the_fold() {
        let src = Matrix::from_vec(5, 2, vec![0.; 10]);
        let mut t = Tape::new();
        let g = t.gather_leaf(&src, Arc::new(vec![1, 3, 4]));
        let s = t.sum_all(g);
        t.backward(s);
        let sg = t.take_sparse_grad(g).expect("participated");
        assert_eq!(sg.rows, vec![1, 3, 4]);
        assert_eq!(sg.values.shape(), (3, 2));
        assert!(sg.values.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn take_sparse_grad_is_none_for_unreached_node() {
        let src = Matrix::from_vec(2, 2, vec![0.; 4]);
        let mut t = Tape::new();
        let unused = t.gather_leaf(&src, Arc::new(vec![0]));
        let x = t.leaf(Matrix::filled(1, 1, 2.0));
        let loss = t.frobenius_sq(x);
        t.backward(loss);
        assert!(t.take_sparse_grad(unused).is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_leaf_rejects_out_of_bounds() {
        let src = Matrix::from_vec(2, 2, vec![0.; 4]);
        let mut t = Tape::new();
        t.gather_leaf(&src, Arc::new(vec![2]));
    }

    #[test]
    fn log_sigmoid_grad_is_sigmoid_of_neg() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 3, vec![-2.0, 0.0, 2.0]));
        let y = t.log_sigmoid(x);
        let loss = t.sum_all(y);
        t.backward(loss);
        let g = t.grad(x).unwrap();
        for (i, &xv) in [-2.0f32, 0.0, 2.0].iter().enumerate() {
            assert!((g[(0, i)] - ops::sigmoid(-xv)).abs() < 1e-6);
        }
    }
}
