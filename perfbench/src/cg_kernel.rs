//! `cg-kernel`: back-to-back unpreconditioned `dist_cg` solves of one large
//! 2-D Poisson system. Nearly all the time is `linalg::ops` (SpMV, dots,
//! vector updates) plus halo exchange; preconditioning, checks and
//! persistence are bypassed, so changes to them must not move it.

use resilience::kernel::{run_cg, DistSpace, FusedCgStep, PolicyStack};
use resilience::prelude::{dist_cg, DistCsr, DistVector};
use resilient_linalg::poisson2d;
use resilient_runtime::{Result, RuntimeError, ThreadComm, ThreadConfig, ThreadRuntime};

use crate::clock::Stamp;
use crate::common::{local_nnz, median, rhs_entry, solve_opts, RANKS};
use crate::jobloop::{Extras, JobWorkload, SetupParts, Solved};
use crate::trace::{traced_ops, TracedComm};

/// Grid edge: n = 65 536 unknowns, about 327 k nonzeros.
pub const NX: usize = 256;
const MAX_ITERS: usize = 4000;
/// CG keeps x, r, p, A·p and b, plus the ghost-assembled SpMV input.
const VECTORS: usize = 6;

pub struct CgKernel {
    pub seed: u64,
}

impl CgKernel {
    fn rhs_vector(&self, comm: &ThreadComm, op: usize) -> DistVector {
        DistVector::from_fn(comm, NX * NX, |i| rhs_entry(self.seed, op, 0, i))
    }
}

pub struct State {
    da: DistCsr,
    working_set_bytes: usize,
}

fn solved(out: resilience::prelude::DistSolveOutcome) -> Solved {
    Solved {
        converged: vec![out.converged],
        iterations: vec![out.iterations],
        x: vec![out.x],
    }
}

impl JobWorkload for CgKernel {
    type State = State;
    type Rhs = DistVector;

    fn setup(&self, comm: &mut ThreadComm) -> Result<(State, SetupParts)> {
        let a = poisson2d(NX, NX);
        let t = Stamp::now();
        let da = DistCsr::from_global(comm, &a)?;
        let dist_build_s = t.elapsed_s();
        // Calibration solve (op 0's system): fills caches and faults in the
        // solver's working set before the first timed op.
        let b = self.rhs_vector(comm, 0);
        if !dist_cg(comm, &da, &b, &solve_opts(MAX_ITERS))?.converged {
            return Err(RuntimeError::InvalidArgument(
                "cg-kernel calibration solve did not converge".into(),
            ));
        }
        // SELL layout: an f64 value and an i32 column index per nonzero.
        let working_set_bytes = local_nnz(&a, comm.rank()) * 12 + VECTORS * 8 * da.local_rows();
        let parts = SetupParts {
            dist_build_s,
            precond_setup_s: 0.0,
        };
        Ok((
            State {
                da,
                working_set_bytes,
            },
            parts,
        ))
    }

    fn operator<'s>(&self, state: &'s State) -> &'s DistCsr {
        &state.da
    }

    fn rhs(&self, comm: &ThreadComm, _state: &State, op: usize) -> DistVector {
        self.rhs_vector(comm, op)
    }

    fn rhs_columns(&self, b: &DistVector) -> Vec<DistVector> {
        vec![b.clone()]
    }

    fn solve(
        &self,
        comm: &mut ThreadComm,
        state: &mut State,
        b: &DistVector,
        traced: bool,
    ) -> Result<Solved> {
        let opts = solve_opts(MAX_ITERS);
        if !traced {
            return Ok(solved(dist_cg(comm, &state.da, b, &opts)?));
        }
        // `dist_cg` with its space built here, so the wrappers can be
        // installed.
        let mut tc = TracedComm::new(comm);
        let mut space = DistSpace::new(&mut tc, &state.da)
            .with_ops(traced_ops())
            .with_extra_work(opts.extra_work_per_iter);
        let (out, _) = run_cg(
            &mut space,
            b,
            None,
            &opts.solve_options(),
            &mut FusedCgStep::new(),
            &mut PolicyStack::empty(),
        )?;
        Ok(solved(out.into_dist_outcome(opts.tol)))
    }

    fn extras(&self, state: &State) -> Extras {
        Extras {
            working_set_bytes: state.working_set_bytes,
            ..Extras::default()
        }
    }
}

/// Wall time of `ops` solves of the same problem on one rank (the serial
/// baseline of `scale.eff_2r`), or `None` if any of them failed to
/// converge.
pub fn serial_solve_s(seed: u64, ops: usize) -> Option<Vec<f64>> {
    let rt = ThreadRuntime::new(ThreadConfig::fast());
    let job = rt.run(1, move |comm| {
        let da = DistCsr::from_global(comm, &poisson2d(NX, NX))?;
        let mut times = Vec::with_capacity(ops);
        for op in 0..ops {
            let b = CgKernel { seed }.rhs_vector(comm, op);
            let t = Stamp::now();
            let out = dist_cg(comm, &da, &b, &solve_opts(MAX_ITERS))?;
            times.push(t.elapsed_s());
            if !out.converged {
                return Ok(None);
            }
        }
        Ok(Some(times))
    });
    job.results.into_iter().next().flatten().flatten()
}

/// `t₁ / (RANKS · t₂)` from median one-rank and two-rank solve times.
pub fn scaling_efficiency(serial: &[f64], parallel: &[f64]) -> f64 {
    median(serial) / (RANKS as f64 * median(parallel))
}
