//! The tape: forward op recording and the reverse gradient sweep.

use rpf_tensor::matmul::{matmul, matmul_at, matmul_bt};
use rpf_tensor::{ops, Matrix};
use std::cell::RefCell;

/// Handle to a node on a [`Tape`]. Only valid for the tape that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// How a node was produced; drives its backward rule.
enum Op {
    /// Input / parameter — no parents.
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    /// Broadcast-add of a 1xC row vector (bias) to every row.
    AddRow(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Neg(Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Softplus(Var),
    Exp(Var),
    Log(Var),
    Square(Var),
    Sqrt(Var),
    Transpose(Var),
    SoftmaxRows(Var),
    /// Horizontal concatenation; stores each part and its column offset.
    HStack(Vec<(Var, usize, usize)>),
    SliceCols(Var, usize, usize),
    SliceRows(Var, usize, usize),
    /// Row gather (embedding lookup); backward scatter-adds.
    GatherRows(Var, Vec<usize>),
    Sum(Var),
    Mean(Var),
    /// Column-wise sum producing a 1xC vector.
    SumRows(Var),
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Records a computation DAG and differentiates it.
///
/// Not `Sync`: a tape belongs to one worker. Batch-level parallelism is done
/// with one tape per thread (see `rpf-nn`'s trainer).
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::with_capacity(256)),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, value: Matrix, op: Op) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var(nodes.len() - 1)
    }

    /// Clone out the value of a node.
    pub fn value(&self, v: Var) -> Matrix {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Shape of a node's value without cloning.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].value.shape()
    }

    /// Scalar value of a 1x1 node.
    pub fn scalar(&self, v: Var) -> f32 {
        let nodes = self.nodes.borrow();
        let m = &nodes[v.0].value;
        assert_eq!(
            m.shape(),
            (1, 1),
            "scalar() on non-scalar node {:?}",
            m.shape()
        );
        m.get(0, 0)
    }

    // ---- graph construction -------------------------------------------

    /// Record an input or parameter value.
    pub fn leaf(&self, m: Matrix) -> Var {
        self.push(m, Op::Leaf)
    }

    /// Matrix product.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            matmul(&nodes[a.0].value, &nodes[b.0].value)
        };
        self.push(v, Op::MatMul(a, b))
    }

    pub fn add(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::add(&nodes[a.0].value, &nodes[b.0].value)
        };
        self.push(v, Op::Add(a, b))
    }

    pub fn sub(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::sub(&nodes[a.0].value, &nodes[b.0].value)
        };
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::mul(&nodes[a.0].value, &nodes[b.0].value)
        };
        self.push(v, Op::Mul(a, b))
    }

    /// Elementwise division.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let bm = &nodes[b.0].value;
            let mut out = nodes[a.0].value.clone();
            for (o, &x) in out.as_mut_slice().iter_mut().zip(bm.as_slice()) {
                *o /= x;
            }
            out
        };
        self.push(v, Op::Div(a, b))
    }

    /// Broadcast-add a 1xC bias row to every row of `a`.
    pub fn add_row(&self, a: Var, bias: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::add_row(&nodes[a.0].value, &nodes[bias.0].value)
        };
        self.push(v, Op::AddRow(a, bias))
    }

    pub fn scale(&self, a: Var, s: f32) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::scale(&nodes[a.0].value, s)
        };
        self.push(v, Op::Scale(a, s))
    }

    pub fn add_scalar(&self, a: Var, s: f32) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::add_scalar(&nodes[a.0].value, s)
        };
        self.push(v, Op::AddScalar(a))
    }

    pub fn neg(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::scale(&nodes[a.0].value, -1.0)
        };
        self.push(v, Op::Neg(a))
    }

    pub fn sigmoid(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::sigmoid(&nodes[a.0].value)
        };
        self.push(v, Op::Sigmoid(a))
    }

    pub fn tanh(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::tanh(&nodes[a.0].value)
        };
        self.push(v, Op::Tanh(a))
    }

    pub fn relu(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::relu(&nodes[a.0].value)
        };
        self.push(v, Op::Relu(a))
    }

    /// Softplus `log(1+e^x)` — the paper's positivity link for sigma.
    pub fn softplus(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::softplus(&nodes[a.0].value)
        };
        self.push(v, Op::Softplus(a))
    }

    pub fn exp(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::exp(&nodes[a.0].value)
        };
        self.push(v, Op::Exp(a))
    }

    /// Elementwise natural log. Inputs must be positive.
    pub fn log(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::map(&nodes[a.0].value, f32::ln)
        };
        self.push(v, Op::Log(a))
    }

    pub fn square(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::map(&nodes[a.0].value, |x| x * x)
        };
        self.push(v, Op::Square(a))
    }

    /// Elementwise square root. Inputs must be non-negative.
    pub fn sqrt(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::map(&nodes[a.0].value, f32::sqrt)
        };
        self.push(v, Op::Sqrt(a))
    }

    pub fn transpose(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.transpose()
        };
        self.push(v, Op::Transpose(a))
    }

    /// Row-wise softmax (attention weights).
    pub fn softmax_rows(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::softmax_rows(&nodes[a.0].value)
        };
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Concatenate along columns. All parts must share a row count.
    pub fn hstack(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "hstack of nothing");
        let (v, spans) = {
            let nodes = self.nodes.borrow();
            let mats: Vec<&Matrix> = parts.iter().map(|p| &nodes[p.0].value).collect();
            let v = Matrix::hstack(&mats);
            let mut spans = Vec::with_capacity(parts.len());
            let mut off = 0;
            for (p, m) in parts.iter().zip(&mats) {
                spans.push((*p, off, off + m.cols()));
                off += m.cols();
            }
            (v, spans)
        };
        self.push(v, Op::HStack(spans))
    }

    /// Columns `[start, end)` of `a`.
    pub fn slice_cols(&self, a: Var, start: usize, end: usize) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.slice_cols(start, end)
        };
        self.push(v, Op::SliceCols(a, start, end))
    }

    /// Rows `[start, end)` of `a`.
    pub fn slice_rows(&self, a: Var, start: usize, end: usize) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.slice_rows(start, end)
        };
        self.push(v, Op::SliceRows(a, start, end))
    }

    /// Row gather: output row `i` is `a`'s row `indices[i]` (embedding lookup).
    pub fn gather_rows(&self, a: Var, indices: &[usize]) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.gather_rows(indices)
        };
        self.push(v, Op::GatherRows(a, indices.to_vec()))
    }

    /// Sum of all elements, as a 1x1 node.
    pub fn sum(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            Matrix::from_vec(1, 1, vec![nodes[a.0].value.sum()])
        };
        self.push(v, Op::Sum(a))
    }

    /// Mean of all elements, as a 1x1 node.
    pub fn mean(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            Matrix::from_vec(1, 1, vec![nodes[a.0].value.mean()])
        };
        self.push(v, Op::Mean(a))
    }

    /// Column-wise sum producing a 1xC node.
    pub fn sum_rows(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            ops::sum_rows(&nodes[a.0].value)
        };
        self.push(v, Op::SumRows(a))
    }

    // ---- backward ------------------------------------------------------

    /// Run the reverse sweep from `root` (must be 1x1) and return all
    /// gradients. The tape itself is left intact so values can still be read.
    pub fn backward(&self, root: Var) -> Gradients {
        assert_eq!(
            self.shape(root),
            (1, 1),
            "backward root must be a scalar node"
        );
        self.backward_keeping_all(root)
    }

    /// Reverse sweep that retains the gradient of every node. Used both as
    /// the public result and in tests that inspect interior gradients.
    fn backward_keeping_all(&self, root: Var) -> Gradients {
        let nodes = self.nodes.borrow();
        let mut grads: Vec<Option<Matrix>> = vec![None; nodes.len()];
        grads[root.0] = Some(Matrix::ones(1, 1));

        for i in (0..=root.0).rev() {
            // Taken, not cloned: a rule only writes its parents, which sit at
            // lower indices, and the slot is restored once the rule has run.
            let Some(g) = grads[i].take() else { continue };
            let node = &nodes[i];
            match &node.op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let da = matmul_bt(&g, &nodes[b.0].value);
                    let db = matmul_at(&nodes[a.0].value, &g);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::Add(a, b) => {
                    accumulate_ref(&mut grads, *a, &g);
                    accumulate_ref(&mut grads, *b, &g);
                }
                Op::Sub(a, b) => {
                    accumulate_ref(&mut grads, *a, &g);
                    accumulate(&mut grads, *b, ops::scale(&g, -1.0));
                }
                Op::Mul(a, b) => {
                    accumulate(&mut grads, *a, ops::mul(&g, &nodes[b.0].value));
                    accumulate(&mut grads, *b, ops::mul(&g, &nodes[a.0].value));
                }
                Op::Div(a, b) => {
                    let bm = &nodes[b.0].value;
                    let mut da = g.clone();
                    for (o, &x) in da.as_mut_slice().iter_mut().zip(bm.as_slice()) {
                        *o /= x;
                    }
                    let mut db = ops::mul(&g, &node.value);
                    for (o, &x) in db.as_mut_slice().iter_mut().zip(bm.as_slice()) {
                        *o = -*o / x;
                    }
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::AddRow(a, bias) => {
                    accumulate_ref(&mut grads, *a, &g);
                    accumulate(&mut grads, *bias, ops::sum_rows(&g));
                }
                Op::Scale(a, s) => accumulate(&mut grads, *a, ops::scale(&g, *s)),
                Op::AddScalar(a) => accumulate_ref(&mut grads, *a, &g),
                Op::Neg(a) => accumulate(&mut grads, *a, ops::scale(&g, -1.0)),
                Op::Sigmoid(a) => {
                    let mut da = g.clone();
                    for (o, &y) in da.as_mut_slice().iter_mut().zip(node.value.as_slice()) {
                        *o *= y * (1.0 - y);
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Tanh(a) => {
                    let mut da = g.clone();
                    for (o, &y) in da.as_mut_slice().iter_mut().zip(node.value.as_slice()) {
                        *o *= 1.0 - y * y;
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Relu(a) => {
                    let mut da = g.clone();
                    for (o, &x) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(nodes[a.0].value.as_slice())
                    {
                        if x <= 0.0 {
                            *o = 0.0;
                        }
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Softplus(a) => {
                    let mut da = g.clone();
                    for (o, &x) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(nodes[a.0].value.as_slice())
                    {
                        *o *= 1.0 / (1.0 + (-x).exp());
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Exp(a) => accumulate(&mut grads, *a, ops::mul(&g, &node.value)),
                Op::Log(a) => {
                    let mut da = g.clone();
                    for (o, &x) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(nodes[a.0].value.as_slice())
                    {
                        *o /= x;
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Square(a) => {
                    let mut da = g.clone();
                    for (o, &x) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(nodes[a.0].value.as_slice())
                    {
                        *o *= 2.0 * x;
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Sqrt(a) => {
                    let mut da = g.clone();
                    for (o, &y) in da.as_mut_slice().iter_mut().zip(node.value.as_slice()) {
                        *o *= 0.5 / y.max(1e-12);
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Transpose(a) => accumulate(&mut grads, *a, g.transpose()),
                Op::SoftmaxRows(a) => {
                    let s = &node.value;
                    let mut da = g.clone();
                    for r in 0..s.rows() {
                        let s_row = s.row(r);
                        let g_row = da.row_mut(r);
                        let dot: f32 = g_row.iter().zip(s_row).map(|(&gv, &sv)| gv * sv).sum();
                        for (gv, &sv) in g_row.iter_mut().zip(s_row) {
                            *gv = sv * (*gv - dot);
                        }
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::HStack(spans) => {
                    for (p, start, end) in spans {
                        accumulate(&mut grads, *p, g.slice_cols(*start, *end));
                    }
                }
                Op::SliceCols(a, start, end) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    let mut da = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        da.row_mut(r)[*start..*end].copy_from_slice(g.row(r));
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::SliceRows(a, start, end) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    let mut da = Matrix::zeros(rows, cols);
                    for (gr, r) in (*start..*end).enumerate() {
                        da.row_mut(r).copy_from_slice(g.row(gr));
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::GatherRows(a, indices) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    let mut da = Matrix::zeros(rows, cols);
                    for (out_r, &src_r) in indices.iter().enumerate() {
                        for (o, &x) in da.row_mut(src_r).iter_mut().zip(g.row(out_r)) {
                            *o += x;
                        }
                    }
                    let _ = cols;
                    accumulate(&mut grads, *a, da);
                }
                Op::Sum(a) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    accumulate(&mut grads, *a, Matrix::full(rows, cols, g.get(0, 0)));
                }
                Op::Mean(a) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    let n = (rows * cols).max(1) as f32;
                    accumulate(&mut grads, *a, Matrix::full(rows, cols, g.get(0, 0) / n));
                }
                Op::SumRows(a) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    let mut da = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        da.row_mut(r).copy_from_slice(g.row(0));
                    }
                    accumulate(&mut grads, *a, da);
                }
            }
            grads[i] = Some(g);
        }
        Gradients { grads }
    }
}

fn accumulate(grads: &mut [Option<Matrix>], v: Var, g: Matrix) {
    match &mut grads[v.0] {
        Some(existing) => ops::axpy(existing, 1.0, &g),
        slot @ None => *slot = Some(g),
    }
}

/// [`accumulate`] for a gradient passed through unchanged (the fan-out of
/// `Add`/`Sub`/`AddRow`/`AddScalar`): copied only into an empty slot.
fn accumulate_ref(grads: &mut [Option<Matrix>], v: Var, g: &Matrix) {
    match &mut grads[v.0] {
        Some(existing) => ops::axpy(existing, 1.0, g),
        slot @ None => *slot = Some(g.clone()),
    }
}

/// Gradients returned by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the root with respect to `v`, if `v` participated in the
    /// computation.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Take ownership of a gradient, leaving `None` behind.
    pub fn take(&mut self, v: Var) -> Option<Matrix> {
        self.grads.get_mut(v.0).and_then(|g| g.take())
    }
}
