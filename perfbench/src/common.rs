//! Shared pieces of the three workloads: problem constants, seeded inputs,
//! answer verification, percentiles and the host record.

use resilience::prelude::{CampaignConfig, DistCsr, DistSolveOptions, DistVector};
use resilient_linalg::CsrMatrix;
use resilient_runtime::{CommBackend, ReduceOp, Result, ThreadComm};

use crate::clock::Stamp;

/// Rank threads per job; the benchmark host has two cores, so this is also
/// the largest rank count whose wall time measures scaling rather than
/// oversubscription.
pub const RANKS: usize = 2;
/// Stopping tolerance of every solve.
pub const TOL: f64 = 1e-8;
/// Each untraced run times at least this many ops, so each of its
/// [`WINDOWS`] windows holds at least ten.
pub const MIN_OPS: usize = 100;
/// `solve_s_p90` and `rhs_per_s` are medians over this many consecutive
/// windows of a run's ops.
pub const WINDOWS: usize = 10;
/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPS: usize = 9;
/// The traced pass derives its exact counts from this fixed prefix of the
/// op stream, so they repeat exactly for a given seed whatever the run
/// length.
pub const EXACT_OPS: usize = 4;
/// The traced pass times at least this many op pairs.
pub const MIN_TRACE_OPS: usize = 8;

/// Acceptance bound on an independently computed true relative residual:
/// the fault campaign's `accept_tol` at this tolerance.
pub fn accept_tol() -> f64 {
    CampaignConfig {
        tol: TOL,
        ..CampaignConfig::default()
    }
    .accept_tol()
}

pub fn solve_opts(max_iters: usize) -> DistSolveOptions {
    DistSolveOptions::default()
        .with_tol(TOL)
        .with_max_iters(max_iters)
}

/// SplitMix64 step: the benchmark's only source of randomness, so a seed
/// fixes every input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform value in `[0, 1)` keyed by `(seed, stream, index)`.
fn unit(seed: u64, stream: u64, index: u64) -> f64 {
    let h = mix(mix(mix(seed) ^ stream) ^ index);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Entry `i` of right-hand side `column` of op `op`: positive, away from
/// zero, and independent of the rank count.
pub fn rhs_entry(seed: u64, op: usize, column: usize, i: usize) -> f64 {
    0.5 + unit(seed, ((op as u64) << 8) | column as u64, i as u64)
}

/// A deterministic draw for the fault schedule.
pub struct Draw {
    state: u64,
}

impl Draw {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self {
            state: mix(seed ^ mix(stream)),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = mix(self.state);
        self.state
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The independent verifier: a CSR-layout copy of the operator applied with
/// the scalar reference kernels, so a fault in the solver's SELL/SIMD path
/// cannot vouch for itself.
pub fn verifier(a: &DistCsr) -> DistCsr {
    a.clone().with_csr_layout()
}

/// True relative residual `‖b − A·x‖ / ‖b‖` through a fresh apply of `a`
/// (collective).
pub fn true_relres<C: CommBackend>(
    comm: &mut C,
    a: &DistCsr,
    b: &DistVector,
    x: &DistVector,
) -> Result<f64> {
    let ax = a.apply(comm, x)?;
    let mut r = b.clone();
    r.axpy(-1.0, &ax);
    let rn = r.norm(comm)?;
    let bn = b.norm(comm)?;
    Ok(rn / bn.max(f64::MIN_POSITIVE))
}

/// What one rank saw of one right-hand side of one op.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnResult {
    pub converged: bool,
    pub iterations: usize,
    pub true_relres: f64,
    /// The locally owned solution contains NaN/Inf.
    pub non_finite: bool,
}

impl ColumnResult {
    pub fn verified(&self) -> bool {
        self.converged && !self.non_finite && self.true_relres <= accept_tol()
    }

    /// A convergence claim the verifier rejects: a silent wrong answer.
    pub fn silent_wrong(&self) -> bool {
        self.converged && !self.verified()
    }

    /// NaN or Inf reported as a converged answer.
    pub fn nan_success(&self) -> bool {
        self.converged && (self.non_finite || !self.true_relres.is_finite())
    }
}

pub fn column_result<C: CommBackend>(
    comm: &mut C,
    verifier: &DistCsr,
    b: &DistVector,
    x: &DistVector,
    converged: bool,
    iterations: usize,
) -> Result<ColumnResult> {
    Ok(ColumnResult {
        converged,
        iterations,
        true_relres: true_relres(comm, verifier, b, x)?,
        non_finite: x.local.iter().any(|v| !v.is_finite()),
    })
}

/// Bitwise equality of two local solution parts.
pub fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// FNV-style hash over the 64-bit patterns of `x`.
pub fn bit_hash(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Element-wise maximum over ranks of a per-rank series.
pub fn max_over_ranks(per_rank: &[Vec<f64>]) -> Vec<f64> {
    let len = per_rank.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| per_rank.iter().map(|s| s[i]).fold(0.0, f64::max))
        .collect()
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// [`WINDOWS`] consecutive, near-equal index ranges over `len` ops (one
/// range if there are fewer ops than windows).
fn windows(len: usize) -> Vec<std::ops::Range<usize>> {
    let k = if len < WINDOWS { 1 } else { WINDOWS };
    (0..k).map(|i| i * len / k..(i + 1) * len / k).collect()
}

/// Median over the [`windows`] of `op_s` of each window's 90th percentile.
/// On a shared host a burst of outside load slows a few seconds of a run:
/// it lifts the tail of the windows it falls in, not the reported figure.
pub fn windowed_p90(op_s: &[f64]) -> f64 {
    let tails: Vec<f64> = windows(op_s.len())
        .into_iter()
        .map(|w| percentile(&op_s[w], 0.9))
        .collect();
    median(&tails)
}

/// Median over the [`windows`] of the right-hand sides each window solved
/// to a verified answer (`done`, per op) per second of its op time.
pub fn windowed_rate(done: &[f64], op_s: &[f64]) -> f64 {
    let rates: Vec<f64> = windows(op_s.len())
        .into_iter()
        .map(|w| done[w.clone()].iter().sum::<f64>() / op_s[w].iter().sum::<f64>())
        .collect();
    median(&rates)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Time one collective set-up step on every rank and agree on the slowest
/// (the step is done when every rank has finished it).
pub fn timed_max<T>(
    comm: &mut ThreadComm,
    f: impl FnOnce(&mut ThreadComm) -> Result<T>,
) -> Result<(T, f64)> {
    comm.barrier()?;
    let t0 = Stamp::now();
    let value = f(comm)?;
    let dt = t0.elapsed_s();
    let slowest = comm.allreduce_scalar(ReduceOp::Max, dt)?;
    Ok((value, slowest))
}

/// Locally owned nonzeros of `a` on `rank` under the block row
/// distribution.
pub fn local_nnz(a: &CsrMatrix, rank: usize) -> usize {
    let dist = resilient_runtime::BlockDistribution::new(a.nrows(), RANKS);
    dist.range(rank).map(|i| a.row(i).0.len()).sum()
}

/// Process high-water resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size in bytes of the unified cache of `level` seen by CPU 0, read from
/// sysfs; `None` where the host does not expose it.
fn cache_bytes(level: u32) -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).ok();
        let lvl: Option<u32> = read("level").and_then(|s| s.trim().parse().ok());
        let kind = read("type").unwrap_or_default();
        if lvl == Some(level) && kind.trim() != "Instruction" {
            let size = read("size")?;
            let size = size.trim();
            let (digits, mult) = match size.strip_suffix('K') {
                Some(d) => (d, 1024),
                None => match size.strip_suffix('M') {
                    Some(d) => (d, 1024 * 1024),
                    None => (size, 1),
                },
            };
            return digits.parse::<u64>().ok().map(|v| v * mult);
        }
    }
    None
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// The host and exactness record printed ahead of every result.
pub fn host_record(working_set_bytes_per_rank: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"clock\": \"wall\", \"nproc\": {nproc}, \"ranks\": {RANKS}, \
         \"ops_backend\": \"{}\", \"working_set_bytes_per_rank\": {working_set_bytes_per_rank}, \
         \"working_set_label\": \"computed\", \"l2_bytes\": {}, \"l3_bytes\": {}}}",
        resilient_linalg::auto_ops().name(),
        json_opt(cache_bytes(2)),
        json_opt(cache_bytes(3)),
    )
}
