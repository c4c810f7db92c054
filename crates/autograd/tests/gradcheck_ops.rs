//! Numerical gradient checks for every differentiable op on the tape.
//!
//! Each case builds the same scalar computation twice: once on a tape (for
//! the analytic gradient) and once as a plain closure (for central
//! differences). `f32` arithmetic limits precision, so inputs are kept in a
//! moderate range and the tolerance is 2e-2 on a scale-aware error metric.

use facility_autograd::gradcheck::check_gradient;
use facility_autograd::Tape;
use facility_linalg::{init, seeded_rng, Matrix};
use std::sync::Arc;

const EPS: f32 = 5e-3;
const TOL: f32 = 2e-2;

/// Run a gradient check for a scalar function expressed as a tape program
/// with a single differentiable leaf.
fn check(
    name: &str,
    at: Matrix,
    build: impl Fn(&mut Tape, facility_autograd::Var) -> facility_autograd::Var,
) {
    // Analytic gradient.
    let mut t = Tape::new();
    let x = t.leaf(at.clone());
    let loss = build(&mut t, x);
    assert_eq!(t.value(loss).shape(), (1, 1), "{name}: loss must be scalar");
    t.backward(loss);
    let analytic = t.grad(x).expect("leaf participates").clone();

    // Numerical gradient.
    let mut f = |m: &Matrix| {
        let mut t = Tape::new();
        let x = t.leaf(m.clone());
        let loss = build(&mut t, x);
        t.value(loss)[(0, 0)]
    };
    let report = check_gradient(&mut f, &at, &analytic, EPS);
    assert!(
        report.passes(TOL),
        "{name}: gradcheck failed: {report:?} (analytic {} vs numeric {})",
        report.analytic,
        report.numeric
    );
}

fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
    init::uniform(rows, cols, -1.0, 1.0, &mut seeded_rng(seed))
}

#[test]
fn grad_scale_add_scalar() {
    check("scale+add_scalar", sample(3, 4, 1), |t, x| {
        let y = t.scale(x, 1.7);
        let z = t.add_scalar(y, 0.3);
        t.frobenius_sq(z)
    });
}

#[test]
fn grad_add_sub_mul() {
    let c = sample(3, 4, 2);
    check("add/sub/mul", sample(3, 4, 3), move |t, x| {
        let cv = t.constant(c.clone());
        let a = t.add(x, cv);
        let b = t.sub(a, x);
        let m = t.mul(a, b);
        t.sum_all(m)
    });
}

#[test]
fn grad_matmul_left_and_right() {
    let c = sample(4, 3, 4);
    check("matmul left", sample(2, 4, 5), {
        let c = c.clone();
        move |t, x| {
            let cv = t.constant(c.clone());
            let y = t.matmul(x, cv);
            t.frobenius_sq(y)
        }
    });
    check("matmul right", sample(3, 2, 6), move |t, x| {
        let cv = t.constant(c.clone());
        let y = t.matmul(cv, x);
        t.frobenius_sq(y)
    });
}

#[test]
fn grad_matmul_transpose_b() {
    let c = sample(5, 4, 7);
    check("matmul_transpose_b left", sample(3, 4, 8), {
        let c = c.clone();
        move |t, x| {
            let cv = t.constant(c.clone());
            let y = t.matmul_transpose_b(x, cv);
            t.frobenius_sq(y)
        }
    });
    check("matmul_transpose_b right", sample(5, 4, 9), move |t, x| {
        let a = sample(3, 4, 10);
        let av = t.constant(a);
        let y = t.matmul_transpose_b(av, x);
        t.frobenius_sq(y)
    });
}

#[test]
fn grad_gather_rows() {
    check("gather", sample(5, 3, 11), |t, x| {
        let g = t.gather_rows(x, &[0, 4, 2, 0, 0]);
        let sq = t.mul(g, g);
        t.sum_all(sq)
    });
}

#[test]
fn grad_broadcasts() {
    let bias = sample(1, 4, 12);
    check("add_broadcast_row input", sample(3, 4, 13), {
        let bias = bias.clone();
        move |t, x| {
            let bv = t.constant(bias.clone());
            let y = t.add_broadcast_row(x, bv);
            let sq = t.mul(y, y);
            t.sum_all(sq)
        }
    });
    check("add_broadcast_row bias", bias, move |t, x| {
        let a = sample(3, 4, 14);
        let av = t.constant(a);
        let y = t.add_broadcast_row(av, x);
        let sq = t.mul(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_mul_broadcast_col() {
    let w = sample(3, 1, 15);
    check("mul_broadcast_col input", sample(3, 4, 16), {
        let w = w.clone();
        move |t, x| {
            let wv = t.constant(w.clone());
            let y = t.mul_broadcast_col(x, wv);
            t.frobenius_sq(y)
        }
    });
    check("mul_broadcast_col weights", w, move |t, x| {
        let a = sample(3, 4, 17);
        let av = t.constant(a);
        let y = t.mul_broadcast_col(av, x);
        t.frobenius_sq(y)
    });
}

#[test]
fn grad_concats() {
    let c = sample(3, 2, 18);
    check("concat_cols", sample(3, 4, 19), {
        let c = c.clone();
        move |t, x| {
            let cv = t.constant(c.clone());
            let y = t.concat_cols(x, cv);
            t.frobenius_sq(y)
        }
    });
    check("concat_rows", sample(2, 2, 20), move |t, x| {
        let cv = t.constant(c.clone());
        let y = t.concat_rows(cv, x);
        t.frobenius_sq(y)
    });
}

#[test]
fn grad_activations() {
    // Keep inputs away from the ReLU kinks where finite differences lie.
    let mut at = sample(3, 4, 21);
    at.map_assign(|x| if x.abs() < 0.15 { x + 0.3 } else { x });
    check("leaky_relu", at.clone(), |t, x| {
        let y = t.leaky_relu(x);
        t.frobenius_sq(y)
    });
    check("relu", at.clone(), |t, x| {
        let y = t.relu(x);
        t.frobenius_sq(y)
    });
    check("tanh", sample(3, 4, 22), |t, x| {
        let y = t.tanh(x);
        t.frobenius_sq(y)
    });
    check("sigmoid", sample(3, 4, 23), |t, x| {
        let y = t.sigmoid(x);
        t.frobenius_sq(y)
    });
    check("log_sigmoid", sample(3, 4, 24), |t, x| {
        let y = t.log_sigmoid(x);
        let s = t.sum_all(y);
        // Square to exercise a chain above the loss head.
        t.mul(s, s)
    });
}

#[test]
fn grad_rowwise_ops() {
    let c = sample(4, 3, 25);
    check("rowwise_dot left", sample(4, 3, 26), {
        let c = c.clone();
        move |t, x| {
            let cv = t.constant(c.clone());
            let y = t.rowwise_dot(x, cv);
            t.frobenius_sq(y)
        }
    });
    check("rowwise_dot right", sample(4, 3, 27), move |t, x| {
        let cv = t.constant(c.clone());
        let y = t.rowwise_dot(cv, x);
        t.frobenius_sq(y)
    });
    check("rowwise_norm_sq", sample(4, 3, 28), |t, x| {
        let y = t.rowwise_norm_sq(x);
        t.sum_all(y)
    });
}

#[test]
fn grad_segment_softmax() {
    let offsets = Arc::new(vec![0usize, 3, 3, 7]); // includes an empty segment
    let weights = sample(7, 1, 29);
    check("segment_softmax", sample(7, 1, 30), move |t, x| {
        let y = t.segment_softmax(x, Arc::clone(&offsets));
        let wv = t.constant(weights.clone());
        let yw = t.mul(y, wv);
        let s = t.sum_all(yw);
        t.mul(s, s)
    });
}

#[test]
fn grad_segment_sum() {
    let seg = Arc::new(vec![2usize, 0, 2, 1, 0]);
    check("segment_sum", sample(5, 3, 31), move |t, x| {
        let y = t.segment_sum(x, Arc::clone(&seg), 3);
        t.frobenius_sq(y)
    });
}

#[test]
fn grad_dropout_fixed_mask() {
    let keep = vec![true, false, true, false, true, true, false, true, false, true, true, false];
    check("dropout", sample(3, 4, 32), move |t, x| {
        let y = t.dropout_with_mask(x, keep.clone(), 0.5);
        t.frobenius_sq(y)
    });
}

#[test]
fn grad_normalize_rows() {
    // Keep rows away from zero so the ε-clamp (non-differentiable point)
    // is not exercised by finite differences.
    let mut at = sample(4, 3, 40);
    at.map_assign(|x| x + if x >= 0.0 { 0.5 } else { -0.5 });
    let w = sample(4, 3, 41);
    check("normalize_rows", at, move |t, x| {
        let y = t.normalize_rows(x);
        let wv = t.constant(w.clone());
        let yw = t.mul(y, wv);
        let s = t.sum_all(yw);
        t.mul(s, s)
    });
}

#[test]
fn normalize_rows_output_has_unit_norm() {
    let mut t = Tape::new();
    let x = t.leaf(sample(5, 4, 42));
    let y = t.normalize_rows(x);
    for r in 0..5 {
        let n: f32 = t.value(y).row(r).iter().map(|v| v * v).sum();
        assert!((n - 1.0).abs() < 1e-5, "row {r} norm² {n}");
    }
}

#[test]
fn grad_mean_all() {
    check("mean_all", sample(3, 4, 33), |t, x| {
        let m = t.mean_all(x);
        t.mul(m, m)
    });
}

/// The fused attention aggregation, once per differentiable input: the
/// embedding rows with the attention column constant (CKAT's case), and
/// the attention column as the leaf with the rows constant.
#[test]
fn grad_gather_scale_segment_sum() {
    let tails = Arc::new(vec![1usize, 4, 0, 2, 2, 3, 4]);
    let heads = Arc::new(vec![0usize, 0, 1, 2, 2, 2, 3]);
    let att = sample(7, 1, 40);
    let h = sample(5, 3, 41);
    let (t1, h1, a1) = (Arc::clone(&tails), Arc::clone(&heads), att.clone());
    check("gather_scale_segment_sum rows", h.clone(), move |t, x| {
        let a = t.constant(a1.clone());
        let y = t.gather_scale_segment_sum(x, a, Arc::clone(&t1), Arc::clone(&h1), 4);
        t.frobenius_sq(y)
    });
    check("gather_scale_segment_sum attention", att, move |t, x| {
        let hv = t.constant(h.clone());
        let y = t.gather_scale_segment_sum(hv, x, Arc::clone(&tails), Arc::clone(&heads), 4);
        t.frobenius_sq(y)
    });
}

/// End-to-end composite: a miniature one-layer attentive propagation +
/// BPR-style loss, exactly the computation pattern CKAT uses.
#[test]
fn grad_mini_gnn_composite() {
    // 4 entities, 6 edges sorted by head, embedding dim 3.
    let heads = vec![0usize, 0, 1, 2, 2, 3];
    let tails = vec![1usize, 2, 3, 0, 3, 1];
    let offsets = Arc::new(vec![0usize, 2, 3, 5, 6]);
    let seg_of_edge = Arc::new(heads.clone());
    let w = sample(6, 3, 34); // aggregation weight (2d -> d), d=3

    check("mini-gnn", sample(4, 3, 36), move |t, x| {
        // Attention: score(e) = (e_t · e_h) per edge, softmax per head.
        let eh = t.gather_rows(x, &heads);
        let et = t.gather_rows(x, &tails);
        let th = t.tanh(eh);
        let score = t.rowwise_dot(et, th);
        let att = t.segment_softmax(score, Arc::clone(&offsets));
        // Message: attention-weighted tails, summed per head.
        let msg = t.mul_broadcast_col(et, att);
        let agg = t.segment_sum(msg, Arc::clone(&seg_of_edge), 4);
        // Concat aggregate with self, linear transform, LeakyReLU.
        let cat = t.concat_cols(x, agg);
        let wv = t.constant(w.clone());
        let hidden = t.matmul(cat, wv);
        let h = t.leaky_relu(hidden);
        // BPR-ish pairwise loss between entity 0 (pos) and entity 1 (neg)
        // against user entity 2.
        let u = t.gather_rows(h, &[2]);
        let pos = t.gather_rows(h, &[0]);
        let neg = t.gather_rows(h, &[1]);
        let spos = t.rowwise_dot(u, pos);
        let sneg = t.rowwise_dot(u, neg);
        let diff = t.sub(spos, sneg);
        let ls = t.log_sigmoid(diff);
        let nls = t.scale(ls, -1.0);
        t.sum_all(nls)
    });
}
