//! Slot reuse is invisible: for every op kind, a tape recycled by
//! [`Tape::reset`] computes the same value and gradient bits as a fresh
//! tape, whether the spares it inherits came from a larger or a smaller
//! step, and a step with unchanged shapes reuses every large buffer.
//!
//! Run it under `--features debug-audit` as well: reset then fills every
//! spare with NaN, so an op that reads a recycled buffer before writing it
//! trips the non-finite asserts or breaks the bitwise comparison.

use facility_autograd::{Tape, Var};
use facility_linalg::{seeded_rng, Matrix};
use std::sync::Arc;

/// Sign-mixed test data with exact zeros sprinkled in (matmul skips zero
/// terms, so they exercise a distinct code path).
fn data(rows: usize, cols: usize, salt: usize) -> Matrix {
    let v = (0..rows * cols)
        .map(|i| {
            let k = (i * 37 + salt * 11 + 5) % 23;
            if k == 0 {
                0.0
            } else {
                (k as f32 - 11.5) * 0.071
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, v)
}

/// One test program: builds a graph whose shapes scale with `n` and
/// returns every node it created, the scalar loss last.
type Case = fn(&mut Tape, usize) -> Vec<Var>;

/// `vars` plus the Frobenius loss of `y`.
fn with_loss(t: &mut Tape, mut vars: Vec<Var>, y: Var) -> Vec<Var> {
    let loss = t.frobenius_sq(y);
    vars.extend([y, loss]);
    vars
}

fn unary(t: &mut Tape, n: usize, op: fn(&mut Tape, Var) -> Var) -> Vec<Var> {
    let x = t.leaf(data(n, 3, 1));
    let y = op(t, x);
    with_loss(t, vec![x], y)
}

fn binary(t: &mut Tape, n: usize, op: fn(&mut Tape, Var, Var) -> Var) -> Vec<Var> {
    let a = t.leaf(data(n, 3, 1));
    let b = t.leaf(data(n, 3, 2));
    let y = op(t, a, b);
    with_loss(t, vec![a, b], y)
}

const CASES: &[(&str, Case)] = &[
    ("Leaf", |t, n| {
        let x = t.leaf(data(n, 3, 1));
        with_loss(t, vec![], x)
    }),
    ("Gather", |t, n| {
        let x = t.leaf(data(n, 4, 1));
        let idx: Vec<usize> = (0..n + 5).map(|i| (i * 7) % n).collect();
        let y = t.gather_rows(x, &idx);
        with_loss(t, vec![x], y)
    }),
    ("ParamGather", |t, n| {
        let src = data(n + 3, 4, 1);
        let y = t.gather_leaf(&src, Arc::new((0..n).map(|i| i + 1).collect()));
        with_loss(t, vec![], y)
    }),
    ("MatMul", |t, n| {
        let a = t.leaf(data(n, 6, 1));
        let b = t.leaf(data(6, 5, 2));
        let y = t.matmul(a, b);
        with_loss(t, vec![a, b], y)
    }),
    ("MatMul (large right operand)", |t, n| {
        let a = t.leaf(data(n, 6, 1));
        let b = t.leaf(data(6, 1400, 2));
        let y = t.matmul(a, b);
        with_loss(t, vec![a, b], y)
    }),
    ("MatMulTransB", |t, n| {
        let a = t.leaf(data(n, 5, 1));
        let b = t.leaf(data(n / 2 + 3, 5, 2));
        let y = t.matmul_transpose_b(a, b);
        with_loss(t, vec![a, b], y)
    }),
    ("Add", |t, n| binary(t, n, Tape::add)),
    ("Sub", |t, n| binary(t, n, Tape::sub)),
    ("Mul", |t, n| binary(t, n, Tape::mul)),
    ("AddBroadcastRow", |t, n| {
        let a = t.leaf(data(n, 4, 1));
        let bias = t.leaf(data(1, 4, 2));
        let y = t.add_broadcast_row(a, bias);
        with_loss(t, vec![a, bias], y)
    }),
    ("MulBroadcastCol", |t, n| {
        let a = t.leaf(data(n, 4, 1));
        let w = t.leaf(data(n, 1, 2));
        let y = t.mul_broadcast_col(a, w);
        with_loss(t, vec![a, w], y)
    }),
    ("Scale", |t, n| unary(t, n, |t, x| t.scale(x, -1.75))),
    ("AddScalar", |t, n| unary(t, n, |t, x| t.add_scalar(x, 0.5))),
    ("ConcatCols", |t, n| {
        let a = t.leaf(data(n, 3, 1));
        let b = t.leaf(data(n, 2, 2));
        let y = t.concat_cols(a, b);
        with_loss(t, vec![a, b], y)
    }),
    ("ConcatRows", |t, n| {
        let a = t.leaf(data(n, 3, 1));
        let b = t.leaf(data(n / 2 + 1, 3, 2));
        let y = t.concat_rows(a, b);
        with_loss(t, vec![a, b], y)
    }),
    ("LeakyRelu", |t, n| unary(t, n, Tape::leaky_relu)),
    ("Relu", |t, n| unary(t, n, Tape::relu)),
    ("Tanh", |t, n| unary(t, n, Tape::tanh)),
    ("Sigmoid", |t, n| unary(t, n, Tape::sigmoid)),
    ("LogSigmoid", |t, n| unary(t, n, Tape::log_sigmoid)),
    ("RowwiseDot", |t, n| binary(t, n, Tape::rowwise_dot)),
    ("RowwiseNormSq", |t, n| unary(t, n, Tape::rowwise_norm_sq)),
    ("NormalizeRows", |t, n| {
        let mut m = data(n, 3, 1);
        m.row_mut(1).fill(0.0);
        let x = t.leaf(m);
        let y = t.normalize_rows(x);
        with_loss(t, vec![x], y)
    }),
    ("SegmentSoftmax", |t, n| {
        let x = t.leaf(data(n, 1, 1));
        let mut offsets: Vec<usize> = (0..n).step_by(3).collect();
        offsets.push(n);
        let y = t.segment_softmax(x, Arc::new(offsets));
        // Weight the output so the gradient is not identically zero.
        let w = t.constant(data(n, 1, 2));
        let yw = t.mul(y, w);
        let loss = t.sum_all(yw);
        vec![x, y, w, yw, loss]
    }),
    ("SegmentSum", |t, n| {
        let x = t.leaf(data(n, 3, 1));
        let seg: Vec<usize> = (0..n).map(|i| (i * 3) % (n / 4 + 1)).collect();
        let y = t.segment_sum(x, Arc::new(seg), n / 4 + 1);
        with_loss(t, vec![x], y)
    }),
    ("GatherScaleSegmentSum", |t, n| {
        let h = t.leaf(data(n, 4, 1));
        let att = t.leaf(data(2 * n, 1, 2));
        let tails: Vec<usize> = (0..2 * n).map(|e| (e * 7 + 3) % n).collect();
        let heads: Vec<usize> = (0..2 * n).map(|e| e % (n / 2 + 1)).collect();
        let y = t.gather_scale_segment_sum(h, att, Arc::new(tails), Arc::new(heads), n / 2 + 1);
        with_loss(t, vec![h, att], y)
    }),
    ("GatherScaleSegmentSum (constant attention)", |t, n| {
        let h = t.leaf(data(n, 4, 1));
        let att = t.constant(data(2 * n, 1, 2));
        let tails: Vec<usize> = (0..2 * n).map(|e| (e * 7 + 3) % n).collect();
        let heads: Vec<usize> = (0..2 * n).map(|e| e % (n / 2 + 1)).collect();
        let y = t.gather_scale_segment_sum(h, att, Arc::new(tails), Arc::new(heads), n / 2 + 1);
        with_loss(t, vec![h], y)
    }),
    ("Dropout", |t, n| unary(t, n, |t, x| t.dropout(x, 0.7, &mut seeded_rng(5)))),
    ("Dropout (keyed)", |t, n| {
        let x = t.leaf(data(n, 3, 1));
        let ids: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
        let y = t.dropout_keyed(x, 0.7, 11, &ids);
        with_loss(t, vec![x], y)
    }),
    ("Dropout (explicit mask)", |t, n| {
        let x = t.leaf(data(n, 3, 1));
        let y = t.dropout_with_mask(x, (0..3 * n).map(|i| i % 3 != 1).collect(), 0.5);
        with_loss(t, vec![x], y)
    }),
    ("OverrideRows", |t, n| {
        let x = t.leaf(data(n, 3, 1));
        let s = t.scale(x, 2.0);
        let y = t.override_rows(s, Arc::new(vec![0, 2, n - 1]), &data(3, 3, 2));
        with_loss(t, vec![x, s], y)
    }),
    ("SumAll", |t, n| {
        let x = t.leaf(data(n, 3, 1));
        let y = t.sum_all(x);
        with_loss(t, vec![x], y)
    }),
    ("MeanAll", |t, n| {
        let x = t.leaf(data(n, 3, 1));
        let y = t.mean_all(x);
        with_loss(t, vec![x], y)
    }),
    ("FrobeniusSq", |t, n| {
        let x = t.leaf(data(n, 3, 1));
        let y = t.frobenius_sq(x);
        let loss = t.scale(y, 0.5);
        vec![x, y, loss]
    }),
    // Two propagation layers in CKAT's op order, where gradients reach
    // the same node from several consumers (the accumulate paths).
    ("propagation stack", |t, n| {
        let src = data(n + 2, 4, 1);
        let h0 = t.gather_leaf(&src, Arc::new((0..n).collect()));
        let att = t.constant(data(3 * n, 1, 2));
        let tails = Arc::new((0..3 * n).map(|e| (e * 5 + 1) % n).collect::<Vec<_>>());
        let heads = Arc::new((0..3 * n).map(|e| e / 3).collect::<Vec<_>>());
        let mut vars = vec![h0, att];
        let (mut h, mut all) = (h0, h0);
        let mut rng = seeded_rng(11);
        for l in 0..2 {
            let e_n = t.gather_scale_segment_sum(h, att, Arc::clone(&tails), Arc::clone(&heads), n);
            let mixed = t.concat_cols(h, e_n);
            let w = t.leaf(data(8, 4, 3 + l));
            let b = t.leaf(data(1, 4, 5 + l));
            let z = t.matmul(mixed, w);
            let zb = t.add_broadcast_row(z, b);
            let act = t.leaky_relu(zb);
            let dropped = t.dropout(act, 0.8, &mut rng);
            let normed = t.normalize_rows(dropped);
            h = t.override_rows(normed, Arc::new(vec![1, n / 2]), &data(2, 4, 7));
            all = t.concat_cols(all, h);
            vars.extend([e_n, mixed, w, b, z, zb, act, dropped, normed, h, all]);
        }
        let u = t.gather_rows(all, &(0..n / 3).collect::<Vec<_>>());
        let i = t.gather_rows(all, &(n / 3..2 * (n / 3)).collect::<Vec<_>>());
        let d = t.rowwise_dot(u, i);
        let ls = t.log_sigmoid(d);
        let s = t.sum_all(ls);
        let reg = t.frobenius_sq(u);
        let loss = t.add(s, reg);
        vars.extend([u, i, d, ls, s, reg, loss]);
        vars
    }),
];

/// Value and gradient bits of every node in `vars`.
fn bits(t: &Tape, vars: &[Var]) -> Vec<(Vec<u32>, Option<Vec<u32>>)> {
    let b = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    vars.iter().map(|&v| (b(t.value(v)), t.grad(v).map(b))).collect()
}

/// Run `case` at size `n` on `t`, backward from its loss, and read every
/// node's bits.
fn run(t: &mut Tape, case: Case, n: usize) -> Vec<(Vec<u32>, Option<Vec<u32>>)> {
    let vars = case(t, n);
    t.backward(*vars.last().expect("a case returns its loss last"));
    bits(t, &vars)
}

#[test]
fn every_op_computes_the_same_bits_on_a_reset_tape() {
    let n = 48;
    for &(name, case) in CASES {
        let want = run(&mut Tape::new(), case, n);
        for prior in [3 * n, n / 4] {
            let mut t = Tape::new();
            run(&mut t, case, prior);
            t.reset();
            let got = run(&mut t, case, n);
            assert!(got == want, "{name}: a reset tape after a size-{prior} step changed the bits");
        }
    }
}

#[test]
fn a_repeated_step_reuses_every_large_buffer() {
    // Large enough that most of the stack's buffers count as large.
    let n = 6000;
    let case = CASES.iter().find(|(name, _)| *name == "propagation stack").expect("case").1;
    let mut t = Tape::new();
    let first = run(&mut t, case, n);
    t.reset();
    let second = run(&mut t, case, n);
    assert_eq!(t.missed_reuse(), 0, "an identical step must reuse every large spare");
    assert!(first == second);
    // The counter does see the slots: a larger step cannot fit its
    // buffers into the spares of a smaller one.
    t.reset();
    run(&mut t, case, 2 * n);
    assert!(t.missed_reuse() > 0, "growing shapes must count as missed reuse");
}

#[test]
fn backward_twice_on_one_tape_matches_a_single_sweep() {
    for &(name, case) in CASES {
        let want = run(&mut Tape::new(), case, 20);
        let mut t = Tape::new();
        let vars = case(&mut t, 20);
        let loss = *vars.last().expect("loss");
        t.backward(loss);
        t.backward(loss);
        assert!(bits(&t, &vars) == want, "{name}: a second sweep changed the gradients");
    }
}
