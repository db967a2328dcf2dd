//! Wall-clock benchmark of the resilience suite on the real-threads backend.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cg-kernel|many-rhs|fault-stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop on 2 rank threads (`ThreadRuntime`,
//! `ThreadConfig::fast()`), 2-D Poisson, tol 1e-8, inputs generated from
//! `--seed`. An *op* is one solve call or one k-RHS batch, timed until every
//! rank has returned. Every op's answer is checked by an independent
//! true-residual apply against the fault campaign's `accept_tol`.
//!
//! With `--trace 0` the run reports the end-to-end metrics (tracing off).
//! With `--trace 1` it runs each op twice — once through the public preset
//! and once composed with the span-recording wrappers of [`trace`] — checks
//! that both give the same iterations and a bit-identical solution, and
//! reports the per-layer metrics; spans of the first ops are written to
//! `.bench_trace/`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. The exit code is non-zero if any
//! answer was unverified where no fault was injected, any convergence
//! claim failed verification (NaN included), ranks disagreed on an
//! outcome, or a traced solve differed from its untraced twin.

mod cg_kernel;
mod clock;
mod common;
mod fault_stream;
mod jobloop;
mod many_rhs;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use clock::Stamp;
use common::{max_over_ranks, mean, median, percentile, windowed_p90, windowed_rate, EXACT_OPS};
use fault_stream::{Class, OpRun};
use jobloop::{JobWorkload, RankRun};
use trace::{Kind, OpTrace};

const WORKLOADS: [&str; 3] = ["cg-kernel", "many-rhs", "fault-stream"];
/// One-rank solves timed for `scale.eff_2r`.
const SERIAL_OPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(name, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:e}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Verdicts of a run: attempted/failed ops and contract violations.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    violations: Vec<String>,
    notes: Vec<String>,
}

impl Tally {
    fn violation(&mut self, v: String) {
        if self.violations.len() < 20 {
            eprintln!("violation: {v}");
        }
        self.violations.push(v);
    }
}

struct Report {
    metrics: Metrics,
    tally: Tally,
    host: String,
    spans: Vec<trace::Span>,
}

// ---------------------------------------------------------------------------
// Per-layer aggregation over traced ops
// ---------------------------------------------------------------------------

/// Traced records grouped by op id (all incarnations of all ranks).
struct Traced(BTreeMap<usize, Vec<OpTrace>>);

impl Traced {
    fn new(records: Vec<OpTrace>) -> Self {
        let mut m: BTreeMap<usize, Vec<OpTrace>> = BTreeMap::new();
        for r in records {
            m.entry(r.op).or_default().push(r);
        }
        Self(m)
    }

    fn ops(&self, filter: impl Fn(usize) -> bool) -> impl Iterator<Item = (&usize, &Vec<OpTrace>)> {
        self.0.iter().filter(move |(op, _)| filter(**op))
    }

    /// Per world rank, summed over its incarnations.
    fn per_rank(records: &[OpTrace], f: impl Fn(&OpTrace) -> f64) -> Vec<f64> {
        let mut by_rank: BTreeMap<usize, f64> = BTreeMap::new();
        for r in records {
            *by_rank.entry(r.world_rank).or_default() += f(r);
        }
        by_rank.into_values().collect()
    }

    /// Mean over the selected ops of the rank-mean of `f`.
    fn rank_mean(&self, filter: impl Fn(usize) -> bool, f: impl Fn(&OpTrace) -> f64) -> f64 {
        let v: Vec<f64> = self
            .ops(filter)
            .map(|(_, recs)| mean(&Self::per_rank(recs, &f)))
            .collect();
        mean(&v)
    }

    /// Mean over the selected ops of the rank-maximum of `f`.
    fn rank_max(&self, filter: impl Fn(usize) -> bool, f: impl Fn(&OpTrace) -> f64) -> f64 {
        let v: Vec<f64> = self
            .ops(filter)
            .map(|(_, recs)| Self::per_rank(recs, &f).into_iter().fold(0.0, f64::max))
            .collect();
        mean(&v)
    }

    /// Sum over the selected ops and all their records of `f`.
    fn sum(&self, filter: impl Fn(usize) -> bool, f: impl Fn(&OpTrace) -> f64) -> f64 {
        self.ops(filter)
            .flat_map(|(_, recs)| recs.iter())
            .map(f)
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics every workload reports, in `BENCHMARK.json` order.
/// `iters` maps each op the exact counts are taken over to its (lockstep
/// iterations, mean iterations per RHS).
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    t: &Traced,
    iters: &BTreeMap<usize, (f64, f64)>,
    job_start_s: f64,
    dist_build_s: f64,
    precond_setup_s: f64,
    traced_op_s: f64,
) {
    let all = |_: usize| true;
    let exact = |op: usize| iters.contains_key(&op);
    let time = |k: Kind| move |r: &OpTrace| r.total(k);
    let lockstep: f64 = iters.values().map(|v| v.0).sum();

    m.put(
        "comm.reduce_wait_s",
        t.rank_mean(all, time(Kind::Reduce)),
        "s",
    );
    m.put(
        "comm.allreduces_per_iter",
        ratio(
            t.sum(exact, |r| {
                if r.world_rank == 0 {
                    r.reductions as f64
                } else {
                    0.0
                }
            }),
            lockstep,
        ),
        "count/iter",
    );
    m.put("comm.halo_s", t.rank_mean(all, time(Kind::Halo)), "s");
    m.put(
        "comm.halo_bytes_per_iter",
        ratio(t.sum(exact, |r| r.halo_bytes as f64), lockstep),
        "B/iter",
    );
    m.put("comm.job_start_s", job_start_s, "s");

    let spmv_s = t.rank_mean(all, time(Kind::Spmv));
    let spmm_s = t.rank_mean(all, time(Kind::Spmm));
    m.put("ops.spmv_s", spmv_s, "s");
    m.put(
        "ops.spmv_gbs_computed",
        ratio(
            t.rank_mean(all, |r| r.spmv_bytes as f64) * 1e-9,
            spmv_s + spmm_s,
        ),
        "GB/s",
    );
    m.put("ops.dot_s", t.rank_mean(all, time(Kind::Dot)), "s");
    m.put("ops.update_s", t.rank_mean(all, time(Kind::Update)), "s");
    m.put(
        "ops.flops_per_iter",
        ratio(t.sum(exact, |r| r.flops as f64), lockstep),
        "flop/iter",
    );
    m.put("ops.spmm_s", spmm_s, "s");
    m.put("dist.build_s", dist_build_s, "s");

    let apply_s = t.rank_mean(all, time(Kind::Precond));
    m.put("precond.setup_s", precond_setup_s, "s");
    m.put("precond.apply_s", apply_s, "s");
    m.put("precond.apply_share", ratio(apply_s, traced_op_s), "ratio");
    m.put(
        "precond.cache_lookup_s",
        t.rank_mean(all, time(Kind::CacheLookup)),
        "s",
    );

    let per_rhs: Vec<f64> = iters.values().map(|v| v.1).collect();
    m.put("solver.iters_per_rhs", mean(&per_rhs), "iter");
    m.put(
        "solver.self_s",
        t.rank_mean(all, |r| r.self_time[Kind::Op as usize]),
        "s",
    );
}

// ---------------------------------------------------------------------------
// cg-kernel and many-rhs
// ---------------------------------------------------------------------------

/// Tally every op; per untraced op, whether its answer was verified.
fn tally_job(tally: &mut Tally, runs: &[RankRun], traced: bool) -> Vec<bool> {
    let mut check = |label: &str, per_rank: Vec<&Vec<Vec<common::ColumnResult>>>| {
        let mut verified = Vec::with_capacity(per_rank[0].len());
        for (op, cols) in per_rank[0].iter().enumerate() {
            tally.attempted += 1;
            let mut ok = true;
            for (r, rank_cols) in per_rank.iter().enumerate() {
                let Some(mine) = rank_cols.get(op) else {
                    tally.violation(format!("{label} op {op}: rank {r} has no record"));
                    ok = false;
                    continue;
                };
                for (c, col) in mine.iter().enumerate() {
                    let other = &cols[c];
                    if (col.converged, col.iterations) != (other.converged, other.iterations) {
                        tally.violation(format!(
                            "{label} op {op} rhs {c}: ranks disagree ({:?} vs {:?})",
                            (other.converged, other.iterations),
                            (col.converged, col.iterations)
                        ));
                    }
                    if col.silent_wrong() {
                        tally.violation(format!(
                            "{label} op {op} rhs {c}: convergence claimed, true relres {:e}",
                            col.true_relres
                        ));
                    }
                    ok &= col.verified();
                }
            }
            if !ok {
                tally.failed += 1;
                // No fault is injected on these workloads: any unverified
                // answer is a defect.
                tally.violation(format!("{label} op {op}: answer not verified"));
            }
            verified.push(ok);
        }
        verified
    };
    let verified = check("op", runs.iter().map(|r| &r.columns).collect());
    if traced {
        check(
            "traced op",
            runs.iter().map(|r| &r.traced_columns).collect(),
        );
        for (rank, run) in runs.iter().enumerate() {
            for (op, same) in run.bit_identical.iter().enumerate() {
                if !same {
                    tally.violation(format!(
                        "traced op {op} on rank {rank} differs from its untraced twin"
                    ));
                }
            }
        }
    }
    verified
}

fn run_job_workload<W: JobWorkload>(w: W, args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let is_cg = args.workload == "cg-kernel";
    let runs = jobloop::run_job(w, args.seconds, args.trace)?;
    let (records, spans) = trace::drain();
    let mut tally = Tally::default();
    let verified = tally_job(&mut tally, &runs, args.trace);
    let r0 = &runs[0];
    let host = common::host_record(r0.extras.working_set_bytes);
    let op_s = max_over_ranks(&runs.iter().map(|r| r.op_s.clone()).collect::<Vec<_>>());
    let mut m = Metrics::default();
    if !args.trace {
        let ncols = r0.columns.first().map_or(1, Vec::len) as f64;
        let done: Vec<f64> = verified
            .iter()
            .map(|&ok| f64::from(u8::from(ok)) * ncols)
            .collect();
        end_to_end(
            &mut m,
            median(&r0.setup_s),
            &op_s,
            &done,
            tally.attempted - tally.failed,
            tally.attempted,
        );
        return Ok(Report {
            metrics: m,
            tally,
            host,
            spans,
        });
    }

    let traced_s = max_over_ranks(
        &runs
            .iter()
            .map(|r| r.traced_op_s.clone())
            .collect::<Vec<_>>(),
    );
    let t = Traced::new(records);
    let iters: BTreeMap<usize, (f64, f64)> = r0
        .traced_columns
        .iter()
        .enumerate()
        .take(EXACT_OPS)
        .map(|(op, cols)| {
            let it: Vec<f64> = cols.iter().map(|c| c.iterations as f64).collect();
            (op, (it.iter().copied().fold(0.0, f64::max), mean(&it)))
        })
        .collect();
    layer_metrics(
        &mut m,
        &t,
        &iters,
        mean(&runs.iter().map(|r| r.job_start_s).collect::<Vec<_>>()),
        median(
            &runs
                .iter()
                .map(|r| median(&r.dist_build_s))
                .collect::<Vec<_>>(),
        ),
        median(
            &runs
                .iter()
                .map(|r| median(&r.precond_setup_s))
                .collect::<Vec<_>>(),
        ),
        mean(&traced_s),
    );
    let ex = r0.extras;
    m.put(
        "precond.cache_hit_ratio",
        ratio(
            ex.cache_hits as f64,
            (ex.cache_hits + ex.cache_misses) as f64,
        ),
        "ratio",
    );
    m.put(
        "precond.factor_mb",
        ex.factor_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    for name in [
        "checks.check_flops_per_op",
        "checks.detect_ratio",
        "checks.restarts",
        "lflr.persist_s",
        "lflr.persist_bytes_per_op",
        "lflr.recovery_s",
        "lflr.rework_iters",
        "lflr.resume_ratio",
        "faults.landed_ratio",
    ] {
        m.put(name, 0.0, unit_of(name));
    }
    m.put(
        "trace.overhead",
        ratio(median(&traced_s), median(&op_s)),
        "ratio",
    );
    let eff = if is_cg {
        match cg_kernel::serial_solve_s(seed, SERIAL_OPS) {
            Some(serial) => {
                let parallel: Vec<f64> = op_s.iter().take(SERIAL_OPS).copied().collect();
                cg_kernel::scaling_efficiency(&serial, &parallel)
            }
            None => {
                tally.violation("one-rank baseline solve did not converge".into());
                0.0
            }
        }
    } else {
        0.0
    };
    m.put("scale.eff_2r", eff, "ratio");
    tally.notes.push(
        "scale.eff_2r: this 2-core host measures no rank count above 2; \
         more ranks would measure oversubscription, not scaling"
            .into(),
    );
    Ok(Report {
        metrics: m,
        tally,
        host,
        spans,
    })
}

fn unit_of(name: &str) -> &'static str {
    match name {
        "checks.check_flops_per_op" => "flop/op",
        "lflr.persist_bytes_per_op" => "B/op",
        "lflr.rework_iters" => "iter",
        "checks.restarts" => "count/op",
        n if n.ends_with("_s") => "s",
        _ => "ratio",
    }
}

/// `rhs_done`: right-hand sides each op solved to a verified answer.
fn end_to_end(
    m: &mut Metrics,
    setup_s: f64,
    op_s: &[f64],
    rhs_done: &[f64],
    verified_ops: usize,
    attempted: usize,
) {
    m.put("setup_s", setup_s, "s");
    m.put("solve_s_p50", percentile(op_s, 0.5), "s");
    m.put("solve_s_p90", windowed_p90(op_s), "s");
    m.put("rhs_per_s", windowed_rate(rhs_done, op_s), "1/s");
    m.put(
        "verified_frac",
        ratio(verified_ops as f64, attempted as f64),
        "ratio",
    );
    m.put(
        "peak_rss_mb",
        common::peak_rss_mib().unwrap_or(f64::NAN),
        "MiB",
    );
}

// ---------------------------------------------------------------------------
// fault-stream
// ---------------------------------------------------------------------------

/// Count one op: failed if any rank errored or returned an unverified
/// answer; a violation if ranks disagree or NaN/Inf is claimed converged.
/// Returns whether the op's answer was verified.
fn tally_fault_op(tally: &mut Tally, op: usize, r: &OpRun) -> bool {
    tally.attempted += 1;
    let ok: Vec<&fault_stream::RankOp> = r.ok().collect();
    // A wrong convergence claim under an injected fault is a measured
    // failure here (it counts in `failed`); NaN claimed as an answer is a
    // contract violation.
    if ok.iter().any(|o| o.column.nan_success()) {
        tally.violation(format!(
            "op {op} ({:?}): NaN/Inf reported as converged",
            r.plan
        ));
    } else if let Some(o) = ok.iter().find(|o| o.column.silent_wrong()) {
        tally.notes.push(format!(
            "op {op} ({:?}): convergence claimed, true relres {:e}",
            r.plan, o.column.true_relres
        ));
    }
    if let Some(first) = ok.first() {
        for o in &ok[1..] {
            if (o.column.converged, o.column.iterations)
                != (first.column.converged, first.column.iterations)
            {
                tally.violation(format!("op {op} ({:?}): ranks disagree", r.plan));
            }
        }
    }
    let verified =
        r.errors.is_empty() && ok.len() == r.ranks.len() && ok.iter().all(|o| o.column.verified());
    if !verified {
        tally.failed += 1;
        eprintln!("op {op} ({:?}) not verified: {:?}", r.plan, r.errors);
    }
    verified
}

fn run_fault_stream(args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..common::SETUP_REPS {
        drop(built.take());
        let t = Stamp::now();
        built = Some(fault_stream::setup(seed)?);
        setup.push(t.elapsed_s());
    }
    let (a, cal) = built.expect("at least one set-up repetition");
    let host = common::host_record(fault_stream::working_set_bytes(&a));
    let mut tally = Tally::default();
    let mut runs: Vec<OpRun> = Vec::new();
    let mut traced_runs: Vec<OpRun> = Vec::new();
    let mut done: Vec<f64> = Vec::new();
    for op in 0..fault_stream::op_count(args.seconds, args.trace) {
        let plan = fault_stream::plan(seed, op, &cal);
        let b = Arc::new(fault_stream::rhs(seed, op));
        if !args.trace {
            let r = fault_stream::run_op(&a, &b, plan, op, false);
            done.push(f64::from(u8::from(tally_fault_op(&mut tally, op, &r))));
            runs.push(r);
        } else {
            // Alternate which twin runs first, so warm caches favour
            // neither.
            let (r, tr) = if op % 2 == 0 {
                let r = fault_stream::run_op(&a, &b, plan, op, false);
                (r, fault_stream::run_op(&a, &b, plan, op, true))
            } else {
                let tr = fault_stream::run_op(&a, &b, plan, op, true);
                (fault_stream::run_op(&a, &b, plan, op, false), tr)
            };
            tally_fault_op(&mut tally, op, &r);
            tally_fault_op(&mut tally, op, &tr);
            let same = r.ranks.len() == tr.ranks.len()
                && r.ranks.iter().zip(&tr.ranks).all(|(u, t)| match (u, t) {
                    (Some(u), Some(t)) => {
                        u.column.iterations == t.column.iterations && u.x_bits == t.x_bits
                    }
                    _ => false,
                });
            if !same {
                tally.violation(format!("traced op {op} differs from its untraced twin"));
            }
            traced_runs.push(tr);
            runs.push(r);
        }
    }
    let (records, spans) = trace::drain();
    let op_s: Vec<f64> = runs.iter().map(OpRun::op_s).collect();
    let classes = |rs: &[OpRun], c: Class, faulty: bool| {
        rs.iter()
            .filter(|r| r.plan.class == c && (r.plan.scheduled_faults() > 0) == faulty)
            .count()
    };
    tally.notes.push(format!(
        "ops: lflr clean {}, lflr death {}, skp clean {}, skp flip {}",
        classes(&runs, Class::Lflr, false),
        classes(&runs, Class::Lflr, true),
        classes(&runs, Class::Skp, false),
        classes(&runs, Class::Skp, true),
    ));
    let mut m = Metrics::default();
    if !args.trace {
        end_to_end(
            &mut m,
            median(&setup),
            &op_s,
            &done,
            tally.attempted - tally.failed,
            tally.attempted,
        );
        return Ok(Report {
            metrics: m,
            tally,
            host,
            spans,
        });
    }

    let t = Traced::new(records);
    let plan_of = |op: usize| traced_runs[op].plan;
    let first_ok = |op: usize| traced_runs[op].ok().next().cloned();
    let is_skp = |op: usize| plan_of(op).class == Class::Skp;
    let is_lflr = |op: usize| plan_of(op).class == Class::Lflr;
    let is_death = |op: usize| plan_of(op).death.is_some();
    // How many reductions a survivor posts (and check FLOPs it records)
    // before it notices a rank death depends on timing, so the exact
    // counts leave the death ops out.
    let iters: BTreeMap<usize, (f64, f64)> = (0..traced_runs.len().min(fault_stream::EXACT_OPS))
        .filter(|&op| !is_death(op))
        .filter_map(|op| {
            first_ok(op).map(|o| (op, (o.column.iterations as f64, o.column.iterations as f64)))
        })
        .collect();
    let traced_s: Vec<f64> = traced_runs.iter().map(OpRun::op_s).collect();
    let job_start: Vec<f64> = traced_runs
        .iter()
        .filter_map(|r| {
            r.ok()
                .filter(|o| o.incarnation == 0)
                .map(|o| o.start_s)
                .min_by(f64::total_cmp)
        })
        .collect();
    let skp_ops = (0..traced_runs.len()).filter(|&op| is_skp(op)).count();
    let lflr_ops = traced_runs.len() - skp_ops;
    layer_metrics(
        &mut m,
        &t,
        &iters,
        mean(&job_start),
        t.rank_mean(is_skp, |r| r.total(Kind::DistBuild)),
        0.0,
        mean(&traced_s),
    );
    m.put("precond.cache_hit_ratio", 0.0, "ratio");
    m.put("precond.factor_mb", 0.0, "MiB");

    m.put(
        "checks.check_flops_per_op",
        ratio(
            t.sum(|op| iters.contains_key(&op), |r| r.check_flops as f64),
            iters.len() as f64,
        ),
        "flop/op",
    );
    let flip_runs: Vec<&OpRun> = traced_runs
        .iter()
        .filter(|r| r.plan.flip.is_some())
        .collect();
    let flips_landed: usize = flip_runs.iter().map(|r| r.landed()).sum();
    let detections: usize = flip_runs
        .iter()
        .filter_map(|r| r.ok().next().map(|o| o.detections))
        .sum();
    m.put(
        "checks.detect_ratio",
        ratio(detections as f64, flips_landed as f64),
        "ratio",
    );
    let restarts: usize = traced_runs
        .iter()
        .filter(|r| r.plan.class == Class::Skp)
        .filter_map(|r| r.ok().next().map(|o| o.restarts))
        .sum();
    m.put(
        "checks.restarts",
        ratio(restarts as f64, skp_ops as f64),
        "count/op",
    );

    m.put(
        "lflr.persist_s",
        t.rank_mean(is_lflr, |r| r.total(Kind::Persist)),
        "s",
    );
    m.put(
        "lflr.persist_bytes_per_op",
        ratio(t.sum(is_lflr, |r| r.persist_bytes as f64), lflr_ops as f64),
        "B/op",
    );
    m.put(
        "lflr.recovery_s",
        t.rank_max(is_death, |r| r.total(Kind::Recovery)),
        "s",
    );
    // Reductions an LFLR attempt posts besides its one per iteration,
    // read off the clean LFLR ops; a death op's survivor ran two attempts.
    let overhead: Vec<f64> = (0..traced_runs.len())
        .filter(|&op| is_lflr(op) && !is_death(op))
        .filter_map(|op| {
            let o = first_ok(op)?;
            let red = t.sum(
                |x| x == op,
                |r| {
                    if r.world_rank == 0 {
                        r.reductions as f64
                    } else {
                        0.0
                    }
                },
            );
            Some(red - o.column.iterations as f64)
        })
        .collect();
    let per_attempt = mean(&overhead);
    let mut rework = Vec::new();
    let mut kept = 0.0;
    let mut redone = 0.0;
    for (op, r) in traced_runs.iter().enumerate() {
        let Some((dead, _)) = r.plan.death else {
            continue;
        };
        let survivor = 1 - dead;
        let Some(s) = r.ranks[survivor].as_ref() else {
            continue;
        };
        let red = t.sum(
            |x| x == op,
            |rec| {
                if rec.world_rank == survivor && rec.incarnation == 0 {
                    rec.reductions as f64
                } else {
                    0.0
                }
            },
        );
        let executed = red - (1.0 + s.recoveries as f64) * per_attempt;
        let lost = (executed - s.column.iterations as f64).max(0.0);
        rework.push(lost);
        kept += s.resumed_from as f64;
        redone += lost;
    }
    m.put("lflr.rework_iters", mean(&rework), "iter");
    m.put("lflr.resume_ratio", ratio(kept, kept + redone), "ratio");
    let scheduled: usize = traced_runs.iter().map(|r| r.plan.scheduled_faults()).sum();
    let landed: usize = traced_runs.iter().map(OpRun::landed).sum();
    m.put(
        "faults.landed_ratio",
        ratio(landed as f64, scheduled as f64),
        "ratio",
    );
    m.put(
        "trace.overhead",
        ratio(median(&traced_s), median(&op_s)),
        "ratio",
    );
    m.put("scale.eff_2r", 0.0, "ratio");
    tally.notes.push(
        "inside lflr_pipelined_pcg and pipelined_skeptical_gmres only comm-level spans are \
         attributed: the presets build their own space, so ops.* and precond.* read 0 here"
            .into(),
    );
    tally.notes.push(format!(
        "exact counts come from the {} death-free ops among the first {}",
        iters.len(),
        fault_stream::EXACT_OPS
    ));
    Ok(Report {
        metrics: m,
        tally,
        host,
        spans,
    })
}

const EXACT_METRICS: [&str; 5] = [
    "comm.allreduces_per_iter",
    "comm.halo_bytes_per_iter",
    "ops.flops_per_iter",
    "solver.iters_per_rhs",
    "checks.check_flops_per_op",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "cg-kernel" => run_job_workload(cg_kernel::CgKernel { seed: args.seed }, &args),
        "many-rhs" => run_job_workload(many_rhs::ManyRhs { seed: args.seed }, &args),
        _ => run_fault_stream(&args),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let tag = format!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# perfbench {tag}");
    println!("# host {}", report.host);
    if args.trace {
        println!("# exact (repeat exactly for a seed): {EXACT_METRICS:?}");
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match trace::write_spans(&path, &tag, &report.spans) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for note in &report.tally.notes {
        println!("# note: {note}");
    }
    for (name, value, unit) in &report.metrics.0 {
        println!("# {name:<28} {value:>14.6e} {unit}");
    }
    let t = &report.tally;
    println!(
        "# fail_frac {:.6} ({} of {} ops unverified)",
        ratio(t.failed as f64, t.attempted as f64),
        t.failed,
        t.attempted
    );
    let correct = t.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.attempted,
        t.failed,
        report.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} violation(s)", t.violations.len());
        ExitCode::from(1)
    }
}
