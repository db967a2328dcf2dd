//! `fault-stream`: a seeded stream of small resilient solves, each a fresh
//! 2-rank `ThreadRuntime::run` job. Six in ten ops are LFLR
//! `lflr_pipelined_pcg` solves (snapshot every 5 iterations), half of which
//! lose a rank at a seeded collective inside the solve; four in ten are
//! skeptical `pipelined_skeptical_gmres` solves, half of which take an
//! exponent-bit flip at a seeded SpMV application. Checks, snapshot
//! persistence, the recovery rendezvous and replacement spawn carry the
//! time here and nowhere else; at 512 rows per rank the collectives are
//! latency-bound. The mix puts the median inside the clean-LFLR class and
//! the 90th percentile inside the rank-death class.

use std::sync::Arc;

use resilience::kernel::{lflr_pipelined_pcg, pipelined_skeptical_gmres, KrylovLflrConfig};
use resilience::prelude::{DistCsr, DistVector, SkepticalConfig, SpmvFault};
use resilient_faults::ThreadDeathPlan;
use resilient_linalg::{poisson2d, CsrMatrix};
use resilient_runtime::{
    CommBackend, DeathInjector, Result, ThreadComm, ThreadConfig, ThreadRuntime,
};

use crate::clock::Stamp;
use crate::common::{
    bit_hash, column_result, local_nnz, rhs_entry, solve_opts, verifier, ColumnResult, Draw,
    MIN_OPS, RANKS, WINDOWS,
};
use crate::trace::{self, Kind, TracedComm};

/// Grid edge: n = 1 024, 512 rows per rank.
pub const NX: usize = 32;
const MAX_ITERS: usize = 1000;
const PERSIST_EVERY: usize = 5;
/// Flipped bits are drawn from the top of the exponent field: each flip
/// scales the struck entry by at least 2^128 (or sends it to Inf/NaN).
const FLIP_BITS: (u64, u64) = (59, 62);
/// Ops per second of `--seconds` a run is sized by, about the untraced rate
/// of a 2-vCPU x86-64 host (a traced op runs twice). The stream's length is
/// fixed by `--seconds`, not by the clock, so a seed's run repeats the same
/// ops, faults and outcomes (`attempted` and `failed` included) on any host.
const OPS_PER_SECOND: f64 = 30.0;
/// The traced pass's exact counts come from this fixed prefix of ops (it
/// needs more than the batch workloads to hold every op class).
pub const EXACT_OPS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Lflr,
    Skp,
}

/// One op of the stream, drawn from `(seed, op)`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub class: Class,
    /// `(world rank, collective ordinal)` at which a rank is killed.
    pub death: Option<(usize, u64)>,
    pub flip: Option<SpmvFault>,
}

impl Plan {
    pub fn scheduled_faults(&self) -> usize {
        usize::from(self.death.is_some()) + usize::from(self.flip.is_some())
    }
}

/// Clean-run geometry the fault points are drawn inside.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Collectives a rank completes in a clean LFLR solve.
    pub lflr_collectives: u64,
    /// Iterations (a lower bound on SpMV applications) of a clean SkP
    /// solve.
    pub skp_iterations: usize,
}

/// Op classes in one block of ten: six LFLR (three losing a rank), four
/// SkP (two taking a flip). Every block is a seeded shuffle of these, so
/// the class shares are exact in every run and the seed only moves order
/// and fault points.
const BLOCK: [(Class, bool); 10] = [
    (Class::Lflr, false),
    (Class::Lflr, false),
    (Class::Lflr, false),
    (Class::Lflr, true),
    (Class::Lflr, true),
    (Class::Lflr, true),
    (Class::Skp, false),
    (Class::Skp, false),
    (Class::Skp, true),
    (Class::Skp, true),
];

/// Ops in a run of `seconds`: whole blocks, and for an untraced run whole
/// [`WINDOWS`]-window sets of blocks, so every window holds each class
/// at its exact share.
pub fn op_count(seconds: f64, traced: bool) -> usize {
    let (ops, unit, min) = if traced {
        (seconds * OPS_PER_SECOND / 2.0, BLOCK.len(), EXACT_OPS)
    } else {
        (seconds * OPS_PER_SECOND, BLOCK.len() * WINDOWS, MIN_OPS)
    };
    ((ops / unit as f64).round() as usize * unit).max(min)
}

pub fn plan(seed: u64, op: usize, cal: &Calibration) -> Plan {
    let mut block = BLOCK;
    let mut shuffle = Draw::new(seed, (op / BLOCK.len()) as u64);
    for i in (1..block.len()).rev() {
        block.swap(i, shuffle.range(0, i as u64) as usize);
    }
    let (class, faulty) = block[op % BLOCK.len()];
    let mut d = Draw::new(seed ^ 0x5eed_fa17, op as u64);
    let rank = d.range(0, RANKS as u64 - 1) as usize;
    let mut p = Plan {
        class,
        death: None,
        flip: None,
    };
    if !faulty {
        return p;
    }
    match class {
        Class::Lflr => {
            // Inside the solve with margin on both sides: iteration counts
            // vary a little with the right-hand side.
            let c = cal.lflr_collectives;
            let lo = (c / 10).max(2);
            p.death = Some((rank, d.range(lo, (7 * c / 10).max(lo))));
        }
        Class::Skp => {
            let hi = (7 * cal.skp_iterations / 10).max(2) as u64;
            p.flip = Some(SpmvFault {
                rank,
                at_application: d.range(2, hi) as usize,
                local_element: d.range(0, (NX * NX / RANKS) as u64 - 1) as usize,
                bit: d.range(FLIP_BITS.0, FLIP_BITS.1) as u32,
            });
        }
    }
    p
}

pub fn rhs(seed: u64, op: usize) -> Vec<f64> {
    (0..NX * NX).map(|i| rhs_entry(seed, op, 0, i)).collect()
}

/// One rank's record of one op (from the incarnation that finished it).
#[derive(Debug, Clone)]
pub struct RankOp {
    pub incarnation: u64,
    /// Seconds from the `run` call until this incarnation's body started.
    pub start_s: f64,
    /// Seconds from the `run` call until the solve returned.
    pub end_s: f64,
    pub column: ColumnResult,
    /// Hash of the bit patterns of the local solution, for the traced
    /// pass's bit-identity check.
    pub x_bits: u64,
    pub detections: usize,
    pub restarts: usize,
    pub injections: usize,
    pub resumed_from: usize,
    pub recoveries: usize,
    pub collectives: u64,
}

/// The whole job's record of one op.
#[derive(Debug, Clone)]
pub struct OpRun {
    pub plan: Plan,
    /// Final incarnation of each rank; `None` if that rank errored.
    pub ranks: Vec<Option<RankOp>>,
    pub errors: Vec<String>,
    pub deaths_landed: usize,
}

impl OpRun {
    pub fn ok(&self) -> impl Iterator<Item = &RankOp> {
        self.ranks.iter().flatten()
    }

    /// Wall time until every rank's solve had returned.
    pub fn op_s(&self) -> f64 {
        self.ok().map(|r| r.end_s).fold(0.0, f64::max)
    }

    pub fn landed(&self) -> usize {
        self.deaths_landed + self.ok().map(|r| r.injections).sum::<usize>()
    }
}

struct Solve {
    x: DistVector,
    converged: bool,
    iterations: usize,
    detections: usize,
    restarts: usize,
    injections: usize,
    resumed_from: usize,
    recoveries: usize,
}

fn solve<C: CommBackend>(comm: &mut C, a: &CsrMatrix, b: &[f64], plan: &Plan) -> Result<Solve> {
    let opts = solve_opts(MAX_ITERS);
    match plan.class {
        Class::Lflr => {
            let cfg = KrylovLflrConfig::default().with_persist_every(PERSIST_EVERY);
            let (out, report) = lflr_pipelined_pcg(comm, a, b, &opts, &cfg)?;
            Ok(Solve {
                x: out.x,
                converged: out.converged,
                iterations: report.iterations,
                detections: 0,
                restarts: 0,
                injections: 0,
                resumed_from: report.resumed_from,
                recoveries: report.recoveries,
            })
        }
        Class::Skp => {
            let da = trace::span(Kind::DistBuild, || DistCsr::from_global(comm, a))?;
            let bv = DistVector::from_global(comm, b);
            let (out, report) = pipelined_skeptical_gmres(
                comm,
                &da,
                &bv,
                &opts,
                &SkepticalConfig::default(),
                plan.flip,
            )?;
            Ok(Solve {
                x: out.x,
                converged: out.converged,
                iterations: out.iterations,
                detections: report.skeptical.detections,
                restarts: report.policy_restarts,
                injections: report.injections,
                resumed_from: 0,
                recoveries: 0,
            })
        }
    }
}

fn body(
    comm: &mut ThreadComm,
    a: &CsrMatrix,
    b: &[f64],
    plan: &Plan,
    op: usize,
    traced: bool,
    called: Stamp,
) -> Result<RankOp> {
    let start_s = called.elapsed_s();
    let s = if traced {
        trace::begin_op(op, comm.world_rank(), comm.incarnation());
        let s = trace::span(Kind::Op, || solve(&mut TracedComm::new(comm), a, b, plan));
        trace::end_op();
        s?
    } else {
        solve(comm, a, b, plan)?
    };
    let end_s = called.elapsed_s();
    let collectives = comm.snapshot_stats().collectives;
    let check = verifier(&DistCsr::from_global(comm, a)?);
    let bv = DistVector::from_global(comm, b);
    let column = column_result(comm, &check, &bv, &s.x, s.converged, s.iterations)?;
    Ok(RankOp {
        incarnation: comm.incarnation(),
        start_s,
        end_s,
        column,
        x_bits: bit_hash(&s.x.local),
        detections: s.detections,
        restarts: s.restarts,
        injections: s.injections,
        resumed_from: s.resumed_from,
        recoveries: s.recoveries,
        collectives,
    })
}

/// Run op `op` of the stream as its own job.
pub fn run_op(a: &Arc<CsrMatrix>, b: &Arc<Vec<f64>>, plan: Plan, op: usize, traced: bool) -> OpRun {
    let mut rt = ThreadRuntime::new(ThreadConfig::fast());
    let deaths = plan
        .death
        .map(|(rank, nth)| Arc::new(ThreadDeathPlan::new().kill_at_collective(rank, nth)));
    if let Some(d) = &deaths {
        rt = rt.with_injector(Arc::clone(d) as Arc<dyn DeathInjector>);
    }
    let (a, b) = (Arc::clone(a), Arc::clone(b));
    let called = Stamp::now();
    let job = rt.run(RANKS, move |comm| {
        body(comm, &a, &b, &plan, op, traced, called)
    });
    OpRun {
        plan,
        errors: job.errors.iter().flatten().map(|e| e.to_string()).collect(),
        ranks: job.results,
        deaths_landed: deaths.map_or(0, |d| d.fired()),
    }
}

/// Per-rank working set of an LFLR op, computed: the dense block-Jacobi
/// factor, the SELL operator (f64 value and i32 index per nonzero) and the
/// pipelined-PCG vectors.
pub fn working_set_bytes(a: &CsrMatrix) -> usize {
    let n = a.nrows() / RANKS;
    8 * n * n + 12 * local_nnz(a, 0) + 8 * 8 * n
}

/// Set-up: generate the operator and measure one clean op of each class,
/// which fixes the windows the fault points are drawn from.
pub fn setup(seed: u64) -> std::result::Result<(Arc<CsrMatrix>, Calibration), String> {
    let a = Arc::new(poisson2d(NX, NX));
    let b = Arc::new(rhs(seed, 0));
    let clean = |class| Plan {
        class,
        death: None,
        flip: None,
    };
    let lflr = run_op(&a, &b, clean(Class::Lflr), 0, false);
    let skp = run_op(&a, &b, clean(Class::Skp), 0, false);
    for r in [&lflr, &skp] {
        if !r.errors.is_empty() || !r.ok().all(|o| o.column.verified()) {
            return Err(format!("calibration op failed: {:?}", r.errors));
        }
    }
    let cal = Calibration {
        lflr_collectives: lflr.ok().map(|r| r.collectives).min().unwrap_or(0),
        skp_iterations: skp.ok().map(|r| r.column.iterations).min().unwrap_or(0),
    };
    Ok((a, cal))
}
