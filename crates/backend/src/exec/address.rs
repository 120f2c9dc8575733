//! Compiled row addressing: the plan-time address programs of the wave
//! gather and the epilogue resolve.
//!
//! A kernel Cortex generates reads `h[left[n], k]` with plain address
//! arithmetic over the linearizer's arrays (§5); it does not walk an
//! expression graph to find its operand. At engine build every index
//! expression a row evaluates — the positions of a gathered operand or
//! of a row program's load or store ([`Addr`]), a row-uniform condition
//! ([`Cond`]), a wave's node binding ([`Coord`]) — is lowered here into
//! a flat sum of `coef · value` terms. A value is a constant, a slot, a
//! runtime scalar, one read `f(slot + c)` of a linearizer or schedule
//! array (`child_k`, `word`, `num_children`, `batch_begin`, …), or, so
//! that the lowering stays total, the source expression walked. `Add`
//! and `Sub` split into terms and `Mul` by a constant folds into the
//! coefficient; each position is then scaled by its buffer's stride. An
//! index walk charges only `leaf_check_loads`, and the same on every
//! row (it never short-circuits), so a program carries it as a constant.
//!
//! Every program keeps its source, which [`super::verify`] recompiles
//! and compares. The per-element path (`eval_idx`, `strided_offset`,
//! `resolve_product`) walks the source: it is the reference the
//! compiled programs are checked against.

use cortex_core::expr::{BoolExpr, CmpOp, IdxBinOp, IdxExpr, RtScalar, TensorId, Ufn, ValExpr};
use cortex_tensor::kernels;

use super::checked_assert;
use super::interp::{Buffer, Interp};
use crate::fastdot::Operand;

/// What one term reads.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Const(i64),
    Slot(usize),
    Rt(RtScalar),
    /// `f(slot + offset)`: one read of a linearizer or schedule array.
    Read(Ufn, usize, i64),
    /// Anything else, walked (uncounted: the charge is the program's).
    Walk(IdxExpr),
}

impl Value {
    /// What the summand `e` reads.
    fn of(e: &IdxExpr) -> Value {
        match e {
            IdxExpr::Const(c) => Value::Const(*c),
            IdxExpr::Var(v) => Value::Slot(v.id() as usize),
            IdxExpr::Rt(r) => Value::Rt(*r),
            IdxExpr::Ufn(f, args) if *f != Ufn::StageNodeAt => match args.first() {
                Some(IdxExpr::Var(v)) => Value::Read(*f, v.id() as usize, 0),
                Some(IdxExpr::Bin(IdxBinOp::Add, a, b)) => match (&**a, &**b) {
                    (IdxExpr::Var(v), IdxExpr::Const(c)) => Value::Read(*f, v.id() as usize, *c),
                    _ => Value::Walk(e.clone()),
                },
                _ => Value::Walk(e.clone()),
            },
            _ => Value::Walk(e.clone()),
        }
    }
}

/// Calls `emit` with each summand of `coef · e`: `Add` and `Sub` split,
/// and `Mul` by a constant folds into the coefficient.
fn split(e: &IdxExpr, coef: i64, emit: &mut impl FnMut(i64, &IdxExpr)) {
    match e {
        IdxExpr::Bin(IdxBinOp::Add, a, b) => {
            split(a, coef, emit);
            split(b, coef, emit);
        }
        IdxExpr::Bin(IdxBinOp::Sub, a, b) if coef != i64::MIN => {
            split(a, coef, emit);
            split(b, -coef, emit);
        }
        IdxExpr::Bin(IdxBinOp::Mul, a, b) => match (&**a, &**b) {
            (x, IdxExpr::Const(c)) | (IdxExpr::Const(c), x) if coef.checked_mul(*c).is_some() => {
                split(x, coef * c, emit)
            }
            _ => emit(coef, e),
        },
        _ => emit(coef, e),
    }
}

/// The `leaf_check_loads` one `eval_idx` walk of `e` charges: one per
/// `num_children` read it reaches.
fn leaf_loads(e: &IdxExpr) -> u64 {
    match e {
        IdxExpr::Const(_) | IdxExpr::Var(_) | IdxExpr::Rt(_) => 0,
        IdxExpr::Ufn(f, args) => {
            let read = if *f == Ufn::StageNodeAt { 2 } else { 1 };
            u64::from(*f == Ufn::NumChildren) + args.iter().take(read).map(leaf_loads).sum::<u64>()
        }
        IdxExpr::Bin(_, a, b) => leaf_loads(a) + leaf_loads(b),
    }
}

/// `coef · value`, a summand of index position `dim`.
type Term = (usize, i64, Value);

/// Index positions `index` compiled, but for the `hole`: the summands of
/// each position, and the charge of their walk. Most compile to one
/// term, kept inline.
#[derive(Debug, Clone, PartialEq)]
struct Terms {
    first: Option<Term>,
    rest: Vec<Term>,
    loads: u64,
}

impl Terms {
    /// Calls `emit` with each term `index` compiles to; returns the charge.
    fn each(
        index: &[IdxExpr],
        hole: Option<usize>,
        mut emit: impl FnMut(usize, i64, &IdxExpr),
    ) -> u64 {
        let mut loads = 0;
        for (d, e) in index.iter().enumerate().filter(|&(d, _)| Some(d) != hole) {
            split(e, 1, &mut |c, x| emit(d, c, x));
            loads += leaf_loads(e);
        }
        loads
    }

    fn new(index: &[IdxExpr], hole: Option<usize>) -> Terms {
        let (mut first, mut rest) = (None, Vec::new());
        let loads = Terms::each(index, hole, |d, c, x| match first {
            None => first = Some((d, c, Value::of(x))),
            Some(_) => rest.push((d, c, Value::of(x))),
        });
        Terms { first, rest, loads }
    }

    fn iter(&self) -> impl Iterator<Item = &Term> {
        self.first.iter().chain(&self.rest)
    }

    /// Whether these are what `index` compiles to (without building them).
    fn are_of(&self, index: &[IdxExpr], hole: Option<usize>) -> bool {
        let (mut stored, mut same) = (self.iter(), true);
        let loads = Terms::each(index, hole, |d, c, x| {
            same &= stored
                .next()
                .is_some_and(|t| (t.0, t.1) == (d, c) && t.2 == Value::of(x))
        });
        same && stored.next().is_none() && loads == self.loads
    }
}

/// One compiled index expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Coord {
    pub(crate) src: IdxExpr,
    terms: Terms,
}

impl Coord {
    pub(crate) fn new(src: &IdxExpr) -> Coord {
        let terms = Terms::new(std::slice::from_ref(src), None);
        Coord {
            src: src.clone(),
            terms,
        }
    }

    /// Whether this is what the compiler makes of its source.
    pub(crate) fn is_fresh(&self) -> bool {
        self.terms.are_of(std::slice::from_ref(&self.src), None)
    }
}

/// One compiled access `tensor[index]`: the base offset of the cells it
/// selects and the stride of its `hole`, the position a loop rides (`k`
/// of a gathered operand, `i` of a row program), never evaluated.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Addr {
    pub(crate) tensor: TensorId,
    pub(crate) index: Vec<IdxExpr>,
    pub(crate) hole: Option<usize>,
    terms: Terms,
}

impl Addr {
    pub(crate) fn new(tensor: TensorId, index: Vec<IdxExpr>, hole: Option<usize>) -> Addr {
        let terms = Terms::new(&index, hole);
        Addr {
            tensor,
            index,
            hole,
            terms,
        }
    }

    pub(crate) fn is_fresh(&self) -> bool {
        self.terms.are_of(&self.index, self.hole)
    }
}

/// A compiled condition: a comparison of two coordinates, or any other
/// condition walked (`And`/`Or` short-circuit: their charge depends on
/// the row, and the walk makes it).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Cond {
    Cmp(CmpOp, Coord, Coord),
    Walk(BoolExpr),
}

impl Cond {
    pub(crate) fn new(src: &BoolExpr) -> Cond {
        match src {
            BoolExpr::Cmp(op, a, b) => Cond::Cmp(*op, Coord::new(a), Coord::new(b)),
            other => Cond::Walk(other.clone()),
        }
    }

    pub(crate) fn is_fresh(&self) -> bool {
        match self {
            Cond::Cmp(_, a, b) => a.is_fresh() && b.is_fresh(),
            Cond::Walk(_) => true,
        }
    }
}

/// A reduction site's compiled row operand: the value-level select
/// guards around its `Sum`, then its `fastdot` operands as steps.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowOperand {
    /// Conjunction of the value-level `Select` guards wrapping the `Sum`
    /// (the DAG formulation `select(slot < nc(n), Σ_k …, 0)`), as
    /// `(cond, branch)` pairs: the site is reached when every `cond`
    /// evaluates to its `branch` (false = the `otherwise` arm). The
    /// per-element walk reaches the reduction only when every guard
    /// holds, so the gather evaluates them **silently** (no profile
    /// counters — the interpreter still walks each `Select` per served
    /// element and pays its counters there) and packs a zero row for
    /// guarded-off nodes, whose result slots are never read (their
    /// `Select` takes the other arm before the wave memo is consulted).
    pub(crate) guards: Vec<(Cond, bool)>,
    steps: Vec<Step>,
}

#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// `scale *= value` (a reduction-invariant factor).
    Scalar(ValExpr),
    /// `Guard(cond, skip)`: when `cond` fails, the streams up to step
    /// `skip` contribute nothing.
    Guard(Cond, usize),
    Stream(Addr),
    /// Ends a factor; `true`: its source is an `Add`, summed from zero
    /// even when one stream survives.
    Close(bool),
}

impl RowOperand {
    /// Whether two sites gather the same rows: equal programs but for
    /// each stream's hole, where each site has its own reduction
    /// variable. Their select guards are equal too, so the sites zero
    /// the same rows.
    pub(crate) fn same_rows(&self, other: &RowOperand) -> bool {
        let same = |(x, y): (&Step, &Step)| match (x, y) {
            (Step::Stream(a), Step::Stream(b)) => {
                (a.tensor, a.hole, a.index.len()) == (b.tensor, b.hole, b.index.len())
                    && (a.index.iter().zip(&b.index).enumerate())
                        .all(|(d, (p, q))| Some(d) == a.hole || p == q)
            }
            (x, y) => x == y,
        };
        self.guards == other.guards
            && self.steps.len() == other.steps.len()
            && self.steps.iter().zip(&other.steps).all(same)
    }

    /// Whether every address and condition in it is what the compiler
    /// makes of its source.
    pub(crate) fn is_fresh(&self) -> bool {
        self.guards.iter().all(|(c, _)| c.is_fresh())
            && self.steps.iter().all(|step| match step {
                Step::Guard(c, _) => c.is_fresh(),
                Step::Stream(a) => a.is_fresh(),
                Step::Scalar(_) | Step::Close(_) => true,
            })
    }

    pub(crate) fn new(operands: Vec<Operand>, guards: &[(BoolExpr, bool)]) -> RowOperand {
        fn streams(op: Operand, steps: &mut Vec<Step>) {
            match op {
                Operand::Load {
                    tensor,
                    index,
                    k_pos,
                } => steps.push(Step::Stream(Addr::new(tensor, index, Some(k_pos)))),
                Operand::Add(parts) => parts.into_iter().for_each(|p| streams(p, steps)),
                Operand::Guarded { cond, inner } => {
                    let at = steps.len();
                    steps.push(Step::Guard(Cond::new(&cond), 0));
                    streams(*inner, steps);
                    let end = steps.len();
                    if let Step::Guard(_, skip) = &mut steps[at] {
                        *skip = end;
                    }
                }
                Operand::Scalar(_) => unreachable!("scalars are top-level factors"),
            }
        }
        let mut steps = Vec::new();
        for op in operands {
            if let Operand::Scalar(e) = op {
                steps.push(Step::Scalar(e));
            } else {
                let add = matches!(op, Operand::Add(_));
                streams(op, &mut steps);
                steps.push(Step::Close(add));
            }
        }
        let guards = guards.iter().map(|(c, b)| (Cond::new(c), *b)).collect();
        RowOperand { guards, steps }
    }
}

/// A resolved reduction operand: the product of its factors, each the
/// sum of its `(tensor, base, k-stride)` streams, times `scale`. Filled
/// by the compiled [`Interp::resolve_row`] and by the reference walk
/// `resolve_product` alike, into scratch reused row after row.
#[derive(Default)]
pub(crate) struct Resolved {
    pub(crate) streams: Vec<(usize, usize, usize)>,
    /// Per factor: where its streams end, and whether it sums them
    /// (otherwise it is one stream, read as is).
    factors: Vec<(usize, bool)>,
    pub(crate) scale: f32,
    /// A factor resolved to no stream: the product is zero.
    pub(crate) zero: bool,
    /// A factor of [`Resolved::pack`] after the first.
    sum: Vec<f32>,
    /// The product [`Interp::eval_dot`] packs.
    pub(crate) row: Vec<f32>,
}

impl Resolved {
    pub(crate) fn clear(&mut self) {
        self.streams.clear();
        self.factors.clear();
        self.scale = 1.0;
        self.zero = false;
    }

    /// Ends the factor whose streams were pushed since the last one.
    pub(crate) fn close(&mut self, add: bool) {
        let n = self.streams.len() - self.factors.last().map_or(0, |f| f.0);
        self.zero |= n == 0;
        self.factors.push((self.streams.len(), add || n > 1));
    }

    /// The streams, one per factor, when no factor sums.
    pub(crate) fn plain(&self) -> Option<&[(usize, usize, usize)]> {
        (!self.factors.iter().any(|&(_, sums)| sums)).then_some(&self.streams)
    }

    /// Elements `0..out.len()` of the product (without `scale`), a
    /// factor at a time: element `k` is `1 · f₀ · f₁ ⋯` (the first factor
    /// stored as it is: `1 · x` is `x`), each summing factor added up
    /// from zero in stream order — what the per-element walk computes.
    pub(crate) fn pack(&mut self, bufs: &[Option<Buffer>], out: &mut [f32]) {
        // `dst = f`, a summing factor added up from zero.
        let load = |dst: &mut [f32], streams: &[(usize, usize, usize)], sums: bool| {
            if sums {
                dst.fill(0.0);
            }
            let n = dst.len();
            for &(t, b, s) in streams {
                let data = &bufs[t].as_ref().expect("allocated").data;
                // Bounds-checked once, not per element.
                let mut elems = data[b..=b + (n - 1) * s].iter().step_by(s);
                match (s, sums) {
                    (1, false) => dst.copy_from_slice(&data[b..b + n]),
                    (1, true) => kernels::axpy(dst, &data[b..b + n]),
                    (_, false) => dst.fill_with(|| *elems.next().expect("n elements")),
                    (_, true) => dst.iter_mut().zip(elems).for_each(|(o, x)| *o += x),
                }
            }
        };
        if self.factors.is_empty() {
            out.fill(1.0);
        }
        let sum = &mut self.sum;
        let streams = &self.streams;
        let mut start = 0;
        for (i, &(end, sums)) in self.factors.iter().enumerate() {
            if i == 0 {
                load(out, &streams[start..end], sums);
            } else {
                sum.resize(out.len(), 0.0);
                load(sum, &streams[start..end], sums);
                out.iter_mut().zip(sum.iter()).for_each(|(p, f)| *p *= f);
            }
            start = end;
        }
    }
}

impl<'a> Interp<'a> {
    #[inline]
    fn value(&self, v: &Value) -> i64 {
        match v {
            Value::Const(c) => *c,
            Value::Slot(s) => self.slots[*s],
            Value::Rt(r) => self.rt_scalar(*r),
            Value::Read(f, s, offset) => self.read(*f, self.slots[*s] + offset),
            Value::Walk(e) => self.idx_value(e, &mut 0),
        }
    }

    /// Evaluates a compiled coordinate, charging its walk's counters.
    pub(crate) fn coord(&mut self, c: &Coord) -> i64 {
        self.profile.leaf_check_loads += c.terms.loads;
        c.terms
            .iter()
            .map(|(_, coef, v)| coef * self.value(v))
            .sum()
    }

    /// The base offset and hole stride of a compiled access — exactly
    /// `strided_offset` of its source, with the same charges.
    pub(crate) fn addr(&mut self, a: &Addr) -> (usize, usize) {
        self.profile.leaf_check_loads += a.terms.loads;
        let mut coords = [0i64; 8];
        for (d, coef, v) in a.terms.iter() {
            coords[*d] += coef * self.value(v);
        }
        let buf = self.bufs[a.tensor.0 as usize]
            .as_ref()
            .expect("tensor allocated");
        let mut base = 0;
        for (d, &x) in coords[..a.index.len()].iter().enumerate() {
            if Some(d) != a.hole {
                checked_assert!(
                    x >= 0 && (x as usize) < buf.dims[d],
                    "index {x} out of bounds for dim {d} of {:?} (tensor {})",
                    buf.dims,
                    a.tensor
                );
                base += x as usize * buf.strides[d];
            }
        }
        (base, a.hole.map_or(0, |d| buf.strides[d]))
    }

    /// Selects row `r` of a wave: its loop slot and, if any, the node
    /// binding (counter-free, checked at plan time).
    pub(crate) fn enter_row(&mut self, n_idx: usize, node_let: &Option<(usize, Coord)>, r: usize) {
        self.slots[n_idx] = r as i64;
        if let Some((slot, value)) = node_let {
            self.slots[*slot] = self.coord(value);
        }
    }

    /// Evaluates a compiled condition, charging its walk's counters.
    pub(crate) fn cond(&mut self, c: &Cond) -> bool {
        match c {
            Cond::Cmp(op, a, b) => {
                let (x, y) = (self.coord(a), self.coord(b));
                op.apply(x, y)
            }
            Cond::Walk(e) => self.eval_bool(e),
        }
    }

    /// Whether every select guard takes its branch, evaluated without a
    /// trace in the `Profile` (the per-element walk pays each `Select`'s
    /// counters itself, once per served element). A condition loads no
    /// tensors and counts no flops or branches.
    pub(crate) fn guards_hold_silently(&mut self, guards: &[(Cond, bool)]) -> bool {
        let saved = self.profile.leaf_check_loads;
        let ok = guards.iter().all(|(c, want)| self.cond(c) == *want);
        self.profile.leaf_check_loads = saved;
        ok
    }

    /// Resolves a compiled row operand for the row the slots select
    /// into `out`, charging exactly what `resolve_product` would.
    pub(crate) fn resolve_row(&mut self, row: &RowOperand, out: &mut Resolved) {
        out.clear();
        let mut pc = 0;
        while let Some(step) = row.steps.get(pc) {
            pc += 1;
            match step {
                Step::Scalar(e) => out.scale *= self.eval_val(e),
                Step::Guard(cond, skip) => {
                    if !self.cond(cond) {
                        pc = *skip;
                    }
                }
                Step::Stream(a) => {
                    let (base, stride) = self.addr(a);
                    out.streams.push((a.tensor.0 as usize, base, stride));
                }
                Step::Close(add) => out.close(*add),
            }
        }
    }
}

#[cfg(test)]
mod tests;
