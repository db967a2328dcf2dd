//! `many-rhs`: the time-stepping user who re-solves one operator. A stream
//! of k = 8 right-hand-side batches goes through `dist_block_pcg` with a
//! block-Jacobi preconditioner from one `SetupCache`: the first lookup
//! misses inside set-up, every later lookup hits. Dense preconditioner
//! applies and cache lookups dominate; this is the workload a sparse local
//! preconditioner would move, and `cg-kernel` is its bypass.

use resilience::kernel::{run_block_cg, BlockCgMode, DistSpace, PolicyStack, SetupCache};
use resilience::prelude::{dist_block_pcg, DistCsr, DistMultiVector, DistVector};
use resilient_linalg::poisson2d;
use resilient_runtime::{Result, ThreadComm};

use crate::clock::Stamp;
use crate::common::{local_nnz, rhs_entry, solve_opts};
use crate::jobloop::{Extras, JobWorkload, SetupParts, Solved};
use crate::trace::{self, traced_ops, Kind, TracedComm, TracedPrecond};

/// Grid edge: n = 2 304, 1 152 rows per rank.
pub const NX: usize = 48;
/// Right-hand sides per batch.
pub const K: usize = 8;
const MAX_ITERS: usize = 1000;
/// Block CG keeps X, R, Z, P, A·P and B, k columns each.
const VECTORS: usize = 6;

pub struct ManyRhs {
    pub seed: u64,
}

pub struct State {
    da: DistCsr,
    cache: SetupCache,
    factor_bytes: usize,
    working_set_bytes: usize,
}

impl JobWorkload for ManyRhs {
    type State = State;
    type Rhs = DistMultiVector;

    fn setup(&self, comm: &mut ThreadComm) -> Result<(State, SetupParts)> {
        let a = poisson2d(NX, NX);
        let t = Stamp::now();
        let da = DistCsr::from_global(comm, &a)?;
        let dist_build_s = t.elapsed_s();
        let mut cache = SetupCache::new();
        let t = Stamp::now();
        let first = cache.block_jacobi(&da);
        let precond_setup_s = t.elapsed_s();
        let n = first.local_rows();
        let factor_bytes = 8 * n * n;
        let working_set_bytes =
            factor_bytes + local_nnz(&a, comm.rank()) * 12 + VECTORS * K * 8 * n;
        Ok((
            State {
                da,
                cache,
                factor_bytes,
                working_set_bytes,
            },
            SetupParts {
                dist_build_s,
                precond_setup_s,
            },
        ))
    }

    fn operator<'s>(&self, state: &'s State) -> &'s DistCsr {
        &state.da
    }

    fn rhs(&self, comm: &ThreadComm, _state: &State, op: usize) -> DistMultiVector {
        DistMultiVector::from_fn(comm, NX * NX, K, |c, i| rhs_entry(self.seed, op, c, i))
    }

    fn rhs_columns(&self, b: &DistMultiVector) -> Vec<DistVector> {
        (0..b.k()).map(|c| b.column(c)).collect()
    }

    fn solve(
        &self,
        comm: &mut ThreadComm,
        state: &mut State,
        b: &DistMultiVector,
        traced: bool,
    ) -> Result<Solved> {
        let opts = solve_opts(MAX_ITERS);
        let out = if traced {
            let bj = trace::span(Kind::CacheLookup, || state.cache.block_jacobi(&state.da));
            // `dist_block_pcg` with its space built here, so the wrappers
            // can be installed.
            let mut tc = TracedComm::new(comm);
            let mut space = DistSpace::new(&mut tc, &state.da)
                .with_ops(traced_ops())
                .with_extra_work(opts.extra_work_per_iter);
            let (out, _) = run_block_cg(
                &mut space,
                b,
                None,
                &opts.solve_options(),
                BlockCgMode::Fused,
                &mut TracedPrecond(bj),
                &mut PolicyStack::empty(),
            )?;
            out.into_block_solve_outcome()
        } else {
            let mut bj = state.cache.block_jacobi(&state.da);
            dist_block_pcg(comm, &state.da, b, &mut bj, &opts)?
        };
        Ok(Solved {
            x: (0..out.x.k()).map(|c| out.x.column(c)).collect(),
            converged: out.converged,
            iterations: out.column_iterations,
        })
    }

    fn extras(&self, state: &State) -> Extras {
        Extras {
            cache_hits: state.cache.hits(),
            cache_misses: state.cache.misses(),
            factor_bytes: state.factor_bytes,
            working_set_bytes: state.working_set_bytes,
        }
    }
}
