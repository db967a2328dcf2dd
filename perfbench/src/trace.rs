//! The traced pass's recorder and the wrappers that feed it.
//!
//! Every span is recorded from the benchmark's own files, around calls into
//! the library's public layers:
//!
//! * [`TracedComm`] wraps `ThreadComm` behind `CommBackend` (reductions,
//!   halo messages, persistence, recovery);
//! * [`TracedOps`] wraps the `auto_ops()` backend behind `LocalOps` and is
//!   handed to a `DistSpace` through `with_ops` (SpMV/SpMM, dots, updates);
//! * [`TracedPrecond`] wraps a `SpacePreconditioner` (applies).
//!
//! Each rank thread records into its own thread-local [`Tracer`]: per-op
//! aggregates (count, total and self time per span kind, plus exact work
//! counters) and, for the first [`SPAN_OPS`] ops, the individual spans
//! (name, start, end, parent, op id). A thread hands its record to a
//! process-wide sink when it exits — also when it exits because the rank
//! was killed — and the benchmark writes the spans once, at the end.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};

use resilience::kernel::{KrylovSpace, SpacePreconditioner};
use resilient_linalg::{auto_ops, CsrMatrix, LocalOps, SellMatrix};
use resilient_runtime::{
    CommBackend, RecoveryInfo, ReduceOp, Result, ShrinkInfo, Stored, ThreadComm, ThreadPending,
};

use crate::clock::Stamp;

/// Individual spans are kept for this many leading ops (aggregates for all).
pub const SPAN_OPS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Op,
    Reduce,
    Halo,
    Persist,
    Recovery,
    Spmv,
    Spmm,
    Dot,
    Update,
    Precond,
    CacheLookup,
    DistBuild,
}

pub const KINDS: usize = 12;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Reduce => "comm.reduce",
            Kind::Halo => "comm.halo",
            Kind::Persist => "lflr.persist",
            Kind::Recovery => "lflr.recovery",
            Kind::Spmv => "ops.spmv",
            Kind::Spmm => "ops.spmm",
            Kind::Dot => "ops.dot",
            Kind::Update => "ops.update",
            Kind::Precond => "precond.apply",
            Kind::CacheLookup => "precond.cache_lookup",
            Kind::DistBuild => "dist.build",
        }
    }
}

/// One rank incarnation's record of one op.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    pub op: usize,
    pub world_rank: usize,
    pub incarnation: u64,
    /// Seconds inside spans of each kind.
    pub total: [f64; KINDS],
    /// Seconds inside spans of each kind not covered by child spans.
    pub self_time: [f64; KINDS],
    /// Blocking and nonblocking reductions posted (barriers excluded).
    pub reductions: u64,
    /// Bytes of halo payload sent.
    pub halo_bytes: u64,
    /// FLOPs attributed to resilience checks via `record_check_flops`.
    pub check_flops: u64,
    /// FLOPs of the local kernels, from operand sizes.
    pub flops: u64,
    /// Bytes the SpMV/SpMM kernels touch, computed from matrix and vector
    /// sizes (not measured traffic).
    pub spmv_bytes: u64,
    /// Bytes written to the persistent store.
    pub persist_bytes: u64,
}

impl OpTrace {
    pub fn total(&self, k: Kind) -> f64 {
        self.total[k as usize]
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: usize,
    pub world_rank: usize,
    pub incarnation: u64,
    pub id: u64,
    pub parent: u64,
    pub kind: Kind,
    pub start_s: f64,
    pub end_s: f64,
}

struct Open {
    kind: Kind,
    start: Stamp,
    child: f64,
    id: u64,
}

#[derive(Default)]
struct Tracer {
    current: Option<OpTrace>,
    done: Vec<OpTrace>,
    stack: Vec<Open>,
    spans: Vec<Span>,
    next_id: u64,
}

impl Tracer {
    fn finish_op(&mut self) {
        if let Some(t) = self.current.take() {
            self.done.push(t);
        }
        self.stack.clear();
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.finish_op();
        if let Ok(mut sink) = SINK.lock() {
            sink.0.append(&mut self.done);
            sink.1.append(&mut self.spans);
        }
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

type Sink = (Vec<OpTrace>, Vec<Span>);
static SINK: Mutex<Sink> = Mutex::new((Vec::new(), Vec::new()));

fn epoch() -> Stamp {
    static EPOCH: OnceLock<Stamp> = OnceLock::new();
    *EPOCH.get_or_init(Stamp::now)
}

/// Start recording op `op` on this rank thread.
pub fn begin_op(op: usize, world_rank: usize, incarnation: u64) {
    epoch();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.finish_op();
        t.current = Some(OpTrace {
            op,
            world_rank,
            incarnation,
            ..OpTrace::default()
        });
    });
}

/// Close the current op's record.
pub fn end_op() {
    TRACER.with(|t| t.borrow_mut().finish_op());
}

/// Everything threads have handed in so far (threads hand in at exit).
pub fn drain() -> (Vec<OpTrace>, Vec<Span>) {
    let mut sink = SINK.lock().expect("trace sink poisoned");
    (std::mem::take(&mut sink.0), std::mem::take(&mut sink.1))
}

/// Add to the current op's counters (no-op outside an op).
pub fn count(f: impl FnOnce(&mut OpTrace)) {
    TRACER.with(|t| {
        if let Some(op) = t.borrow_mut().current.as_mut() {
            f(op);
        }
    });
}

/// An open span; closing happens on drop, so a span that a rank death
/// unwinds through is still closed.
pub struct Guard {
    active: bool,
}

/// Open a span of `kind`. Outside an op, and inside a preconditioner
/// apply (a leaf: it is timed as a whole, and its per-row kernel calls
/// would cost more to record than they take), nothing is recorded.
pub fn enter(kind: Kind) -> Guard {
    let active = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.current.is_none() || t.stack.last().is_some_and(|o| o.kind == Kind::Precond) {
            return false;
        }
        t.next_id += 1;
        let id = t.next_id;
        t.stack.push(Open {
            kind,
            start: Stamp::now(),
            child: 0.0,
            id,
        });
        true
    });
    Guard { active }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Stamp::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(open) = t.stack.pop() else {
                return;
            };
            let dur = end.since_s(open.start);
            let parent = t.stack.last_mut().map_or(0, |p| {
                p.child += dur;
                p.id
            });
            let Some(op) = t.current.as_mut() else {
                return;
            };
            let k = open.kind as usize;
            op.total[k] += dur;
            op.self_time[k] += (dur - open.child).max(0.0);
            if op.op < SPAN_OPS {
                let span = Span {
                    op: op.op,
                    world_rank: op.world_rank,
                    incarnation: op.incarnation,
                    id: open.id,
                    parent,
                    kind: open.kind,
                    start_s: open.start.since_s(epoch()),
                    end_s: end.since_s(epoch()),
                };
                t.spans.push(span);
            }
        });
    }
}

pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let _g = enter(kind);
    f()
}

/// Write the recorded spans, one tab-separated line each.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(
        out,
        "# op\tworld_rank\tincarnation\tid\tparent\tname\tstart_s\tend_s"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.9}\t{:.9}",
            s.op,
            s.world_rank,
            s.incarnation,
            s.id,
            s.parent,
            s.kind.name(),
            s.start_s,
            s.end_s
        )?;
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// runtime::threads
// ---------------------------------------------------------------------------

/// `ThreadComm` with a span around every communication call.
pub struct TracedComm<'c> {
    inner: &'c mut ThreadComm,
}

impl<'c> TracedComm<'c> {
    pub fn new(inner: &'c mut ThreadComm) -> Self {
        Self { inner }
    }
}

fn reduction() {
    count(|t| t.reductions += 1);
}

impl CommBackend for TracedComm<'_> {
    type Pending = ThreadPending;

    fn rank(&self) -> usize {
        CommBackend::rank(self.inner)
    }
    fn size(&self) -> usize {
        CommBackend::size(self.inner)
    }
    fn world_rank(&self) -> usize {
        CommBackend::world_rank(self.inner)
    }
    fn world_size(&self) -> usize {
        CommBackend::world_size(self.inner)
    }
    fn incarnation(&self) -> u64 {
        CommBackend::incarnation(self.inner)
    }
    fn recoveries(&self) -> u64 {
        CommBackend::recoveries(self.inner)
    }

    fn now(&self) -> f64 {
        CommBackend::now(self.inner)
    }
    fn advance(&mut self, seconds: f64) {
        CommBackend::advance(self.inner, seconds)
    }
    fn charge_flops(&mut self, flops: usize) {
        CommBackend::charge_flops(self.inner, flops)
    }
    fn record_check_flops(&mut self, flops: usize) {
        count(|t| t.check_flops += flops as u64);
        CommBackend::record_check_flops(self.inner, flops)
    }
    fn failure_point(&mut self) -> Result<()> {
        CommBackend::failure_point(self.inner)
    }
    fn check_health(&self) -> Result<()> {
        CommBackend::check_health(self.inner)
    }

    fn send_f64(&mut self, dest: usize, tag: i32, data: &[f64]) -> Result<()> {
        count(|t| t.halo_bytes += 8 * data.len() as u64);
        span(Kind::Halo, || {
            CommBackend::send_f64(self.inner, dest, tag, data)
        })
    }
    fn recv_f64(&mut self, source: usize, tag: i32) -> Result<(usize, Vec<f64>)> {
        span(Kind::Halo, || {
            CommBackend::recv_f64(self.inner, source, tag)
        })
    }

    fn barrier(&mut self) -> Result<()> {
        span(Kind::Reduce, || CommBackend::barrier(self.inner))
    }
    fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<Vec<f64>> {
        reduction();
        span(Kind::Reduce, || {
            CommBackend::allreduce(self.inner, op, data)
        })
    }
    fn allreduce_scalar(&mut self, op: ReduceOp, value: f64) -> Result<f64> {
        reduction();
        span(Kind::Reduce, || {
            CommBackend::allreduce_scalar(self.inner, op, value)
        })
    }
    fn global_dot(&mut self, local_partial: f64) -> Result<f64> {
        reduction();
        span(Kind::Reduce, || {
            CommBackend::global_dot(self.inner, local_partial)
        })
    }
    fn allgather(&mut self, data: &[f64]) -> Result<Vec<Vec<f64>>> {
        span(Kind::Reduce, || CommBackend::allgather(self.inner, data))
    }
    fn iallreduce(&mut self, op: ReduceOp, data: &[f64]) -> Result<ThreadPending> {
        reduction();
        span(Kind::Reduce, || {
            CommBackend::iallreduce(self.inner, op, data)
        })
    }
    fn wait_vector(&mut self, pending: ThreadPending) -> Result<Vec<f64>> {
        span(Kind::Reduce, || {
            CommBackend::wait_vector(self.inner, pending)
        })
    }

    fn persist(&mut self, key: &str, value: Stored) -> Result<()> {
        count(|t| t.persist_bytes += value.byte_len() as u64);
        span(Kind::Persist, || {
            CommBackend::persist(self.inner, key, value)
        })
    }
    fn restore(&mut self, rank: usize, key: &str) -> Result<Stored> {
        span(Kind::Recovery, || {
            CommBackend::restore(self.inner, rank, key)
        })
    }
    fn unpersist(&mut self, key: &str) {
        span(Kind::Persist, || CommBackend::unpersist(self.inner, key))
    }
    fn persisted(&self, rank: usize, key: &str) -> bool {
        CommBackend::persisted(self.inner, rank, key)
    }

    fn recovery_rendezvous(&mut self, proposal: f64) -> Result<RecoveryInfo> {
        span(Kind::Recovery, || {
            CommBackend::recovery_rendezvous(self.inner, proposal)
        })
    }
    fn shrink(&mut self) -> Result<ShrinkInfo> {
        span(Kind::Recovery, || CommBackend::shrink(self.inner))
    }
}

// ---------------------------------------------------------------------------
// linalg::ops
// ---------------------------------------------------------------------------

/// The `auto_ops()` backend with a span around every kernel and FLOP and
/// computed-byte counters. Calls made inside a preconditioner apply (the
/// triangular solves' per-row `axpy` and `msub_seq`) are counted but not
/// spanned: [`TracedPrecond`] times the apply as a whole.
pub struct TracedOps;

static TRACED_OPS: TracedOps = TracedOps;

pub fn traced_ops() -> &'static dyn LocalOps {
    &TRACED_OPS
}

fn inner() -> &'static dyn LocalOps {
    auto_ops()
}

fn flops(n: usize) {
    count(|t| t.flops += n as u64);
}

/// Bytes a CSR SpMV of `k` columns touches: values and column indices
/// once, row pointers once, `k` input and output columns.
fn csr_bytes(a: &CsrMatrix, k: usize) -> u64 {
    let matrix = a.nnz() * (8 + std::mem::size_of::<usize>()) + (a.nrows() + 1) * 8;
    (matrix + k * 8 * (a.nrows() + a.ncols())) as u64
}

/// Bytes a SELL-C-σ SpMV of `k` columns touches: every padded slot's value
/// and 32-bit column index, the row permutation and lengths, `k` input and
/// output columns.
fn sell_bytes(a: &SellMatrix, k: usize) -> u64 {
    let matrix = a.padded_slots() * (8 + 4) + a.nrows() * (4 + 4) + a.chunk_ptr().len() * 8;
    (matrix + k * 8 * (a.nrows() + a.ncols())) as u64
}

impl LocalOps for TracedOps {
    fn name(&self) -> &'static str {
        inner().name()
    }

    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        flops(2 * x.len());
        span(Kind::Dot, || inner().dot(x, y))
    }

    fn dot_pairs(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        flops(pairs.iter().map(|(x, _)| 2 * x.len()).sum());
        span(Kind::Dot, || inner().dot_pairs(pairs, out))
    }

    fn nrm2(&self, x: &[f64]) -> f64 {
        flops(2 * x.len());
        span(Kind::Dot, || inner().nrm2(x))
    }

    fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        flops(2 * x.len());
        span(Kind::Update, || inner().axpy(a, x, y))
    }

    fn scale(&self, a: f64, x: &mut [f64]) {
        flops(x.len());
        span(Kind::Update, || inner().scale(a, x))
    }

    fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
        flops(2 * x.len());
        span(Kind::Update, || inner().xpby(x, b, y))
    }

    fn waxpby_into(&self, a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
        flops(3 * x.len());
        span(Kind::Update, || inner().waxpby_into(a, x, b, y, w))
    }

    fn msub_seq(&self, s: f64, u: &[f64], x: &[f64]) -> f64 {
        flops(2 * u.len());
        inner().msub_seq(s, u, x)
    }

    fn spmv_csr(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        count(|t| {
            t.flops += 2 * a.nnz() as u64;
            t.spmv_bytes += csr_bytes(a, 1);
        });
        span(Kind::Spmv, || inner().spmv_csr(a, x, y))
    }

    fn spmv_sell(&self, a: &SellMatrix, x: &[f64], y: &mut [f64]) {
        count(|t| {
            t.flops += 2 * a.nnz() as u64;
            t.spmv_bytes += sell_bytes(a, 1);
        });
        span(Kind::Spmv, || inner().spmv_sell(a, x, y))
    }

    fn spmm_csr(&self, a: &CsrMatrix, k: usize, x: &[f64], y: &mut [f64]) {
        count(|t| {
            t.flops += 2 * (a.nnz() * k) as u64;
            t.spmv_bytes += csr_bytes(a, k);
        });
        span(Kind::Spmm, || inner().spmm_csr(a, k, x, y))
    }

    fn spmm_sell(&self, a: &SellMatrix, k: usize, x: &[f64], y: &mut [f64]) {
        count(|t| {
            t.flops += 2 * (a.nnz() * k) as u64;
            t.spmv_bytes += sell_bytes(a, k);
        });
        span(Kind::Spmm, || inner().spmm_sell(a, k, x, y))
    }

    fn dot_blocks(&self, k: usize, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        flops(pairs.iter().map(|(x, _)| 2 * x.len()).sum());
        span(Kind::Dot, || inner().dot_blocks(k, pairs, out))
    }

    fn axpy_blocks(&self, alphas: &[f64], x: &[f64], y: &mut [f64]) {
        flops(2 * x.len());
        span(Kind::Update, || inner().axpy_blocks(alphas, x, y))
    }

    fn xpby_blocks(&self, x: &[f64], betas: &[f64], y: &mut [f64]) {
        flops(2 * x.len());
        span(Kind::Update, || inner().xpby_blocks(x, betas, y))
    }

    fn waxpby_blocks(&self, a: &[f64], x: &[f64], b: &[f64], y: &[f64], w: &mut [f64]) {
        flops(3 * x.len());
        span(Kind::Update, || inner().waxpby_blocks(a, x, b, y, w))
    }
}

// ---------------------------------------------------------------------------
// kernel::precond
// ---------------------------------------------------------------------------

/// A preconditioner with a span around every apply.
pub struct TracedPrecond<P>(pub P);

impl<S: KrylovSpace, P: SpacePreconditioner<S>> SpacePreconditioner<S> for TracedPrecond<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn apply_into(&mut self, space: &mut S, r: &S::Vector, z: &mut S::Vector) -> Result<()> {
        span(Kind::Precond, || self.0.apply_into(space, r, z))
    }

    fn flops_per_apply(&self) -> usize {
        self.0.flops_per_apply()
    }
}
