//! The closed loop shared by `cg-kernel` and `many-rhs`: one 2-rank job
//! sets up once (repeated [`SETUP_REPS`] times, median reported) and then
//! runs ops back to back, each starting when the previous one has returned
//! on every rank.

use std::sync::Arc;

use resilience::prelude::{DistCsr, DistVector};
use resilient_runtime::{ReduceOp, Result, ThreadComm, ThreadConfig, ThreadRuntime};

use crate::clock::Stamp;
use crate::common::{
    column_result, same_bits, timed_max, verifier, ColumnResult, MIN_OPS, MIN_TRACE_OPS, RANKS,
    SETUP_REPS,
};
use crate::trace::{self, Kind};

/// What a solve returned on one rank, per right-hand side.
pub struct Solved {
    pub x: Vec<DistVector>,
    pub converged: Vec<bool>,
    pub iterations: Vec<usize>,
}

/// Set-up pieces the traced pass reports on their own (seconds on this
/// rank).
#[derive(Default, Clone, Copy)]
pub struct SetupParts {
    pub dist_build_s: f64,
    pub precond_setup_s: f64,
}

/// Workload facts read off the state after the run.
#[derive(Default, Clone, Copy, Debug)]
pub struct Extras {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub factor_bytes: usize,
    pub working_set_bytes: usize,
}

pub trait JobWorkload: Send + Sync + 'static {
    type State;
    type Rhs;

    /// Matrix generation, `DistCsr::from_global` and any first
    /// factorization: everything that happens before the first op.
    fn setup(&self, comm: &mut ThreadComm) -> Result<(Self::State, SetupParts)>;
    fn operator<'s>(&self, state: &'s Self::State) -> &'s DistCsr;
    fn rhs(&self, comm: &ThreadComm, state: &Self::State, op: usize) -> Self::Rhs;
    fn rhs_columns(&self, b: &Self::Rhs) -> Vec<DistVector>;
    /// One op: the public preset when `traced` is false; the same
    /// `DistSpace` + kernel + strategy composed with the traced wrappers
    /// when it is true.
    fn solve(
        &self,
        comm: &mut ThreadComm,
        state: &mut Self::State,
        b: &Self::Rhs,
        traced: bool,
    ) -> Result<Solved>;
    fn extras(&self, state: &Self::State) -> Extras;
}

/// One rank's view of a whole run.
#[derive(Debug, Default)]
pub struct RankRun {
    pub job_start_s: f64,
    /// Per set-up repetition, slowest rank.
    pub setup_s: Vec<f64>,
    pub dist_build_s: Vec<f64>,
    pub precond_setup_s: Vec<f64>,
    /// Untraced op wall time on this rank.
    pub op_s: Vec<f64>,
    pub traced_op_s: Vec<f64>,
    /// Per op, per right-hand side.
    pub columns: Vec<Vec<ColumnResult>>,
    pub traced_columns: Vec<Vec<ColumnResult>>,
    /// Per traced op: same iteration counts and bit-identical solution as
    /// its untraced twin on this rank.
    pub bit_identical: Vec<bool>,
    pub extras: Extras,
}

fn results(
    comm: &mut ThreadComm,
    check: &DistCsr,
    b: &[DistVector],
    s: &Solved,
) -> Result<Vec<ColumnResult>> {
    let mut out = Vec::with_capacity(b.len());
    for (c, bc) in b.iter().enumerate() {
        out.push(column_result(
            comm,
            check,
            bc,
            &s.x[c],
            s.converged[c],
            s.iterations[c],
        )?);
    }
    Ok(out)
}

/// One op started together on every rank; its wall time on this rank. A
/// traced op runs inside an `op` span and closes the op's trace record.
fn timed_op<W: JobWorkload>(
    w: &W,
    comm: &mut ThreadComm,
    state: &mut W::State,
    b: &W::Rhs,
    traced: bool,
) -> Result<(Solved, f64)> {
    comm.barrier()?;
    let t0 = Stamp::now();
    let solved = if traced {
        let s = trace::span(Kind::Op, || w.solve(comm, state, b, true));
        trace::end_op();
        s?
    } else {
        w.solve(comm, state, b, false)?
    };
    Ok((solved, t0.elapsed_s()))
}

fn rank_body<W: JobWorkload>(
    w: &W,
    comm: &mut ThreadComm,
    called: Stamp,
    seconds: f64,
    traced: bool,
) -> Result<RankRun> {
    let mut run = RankRun {
        job_start_s: called.elapsed_s(),
        ..RankRun::default()
    };
    let mut state: Option<W::State> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first, so set-ups never overlap in
        // memory.
        drop(state.take());
        let ((s, parts), dt) = timed_max(comm, |c| w.setup(c))?;
        run.setup_s.push(dt);
        run.dist_build_s.push(parts.dist_build_s);
        run.precond_setup_s.push(parts.precond_setup_s);
        state = Some(s);
    }
    let mut state = state.expect("at least one set-up repetition");
    let check = verifier(w.operator(&state));
    let rank = comm.rank();
    let min_ops = if traced { MIN_TRACE_OPS } else { MIN_OPS };
    let t_start = Stamp::now();
    for op in 0.. {
        // Rank 0 decides whether another op starts; the others follow.
        let more = rank == 0 && (op < min_ops || t_start.elapsed_s() < seconds);
        if comm.allreduce_scalar(ReduceOp::Max, f64::from(u8::from(more)))? == 0.0 {
            break;
        }
        let b = w.rhs(comm, &state, op);
        let cols = w.rhs_columns(&b);
        if !traced {
            let (plain, dt) = timed_op(w, comm, &mut state, &b, false)?;
            run.op_s.push(dt);
            run.columns.push(results(comm, &check, &cols, &plain)?);
            continue;
        }
        // Alternate which twin runs first, so warm caches favour neither.
        let (plain, got) = if op % 2 == 0 {
            let plain = timed_op(w, comm, &mut state, &b, false)?;
            trace::begin_op(op, comm.world_rank(), comm.incarnation());
            (plain, timed_op(w, comm, &mut state, &b, true)?)
        } else {
            trace::begin_op(op, comm.world_rank(), comm.incarnation());
            let got = timed_op(w, comm, &mut state, &b, true)?;
            (timed_op(w, comm, &mut state, &b, false)?, got)
        };
        run.op_s.push(plain.1);
        run.traced_op_s.push(got.1);
        run.columns.push(results(comm, &check, &cols, &plain.0)?);
        run.traced_columns
            .push(results(comm, &check, &cols, &got.0)?);
        let same = plain.0.iterations == got.0.iterations
            && plain
                .0
                .x
                .iter()
                .zip(&got.0.x)
                .all(|(p, g)| same_bits(&p.local, &g.local));
        run.bit_identical.push(same);
    }
    run.extras = w.extras(&state);
    Ok(run)
}

/// Run the workload's closed loop on [`RANKS`] threads; one [`RankRun`] per
/// rank, or the first error any rank hit.
pub fn run_job<W: JobWorkload>(
    w: W,
    seconds: f64,
    traced: bool,
) -> std::result::Result<Vec<RankRun>, String> {
    let w = Arc::new(w);
    let rt = ThreadRuntime::new(ThreadConfig::fast());
    let called = Stamp::now();
    let job = rt.run(RANKS, move |comm| {
        rank_body(w.as_ref(), comm, called, seconds, traced)
    });
    if let Some(e) = job.errors.iter().flatten().next() {
        return Err(format!("job failed: {e}"));
    }
    Ok(job.results.into_iter().flatten().collect())
}
