//! `whatif-sizing`: streams of single-gate what-if queries, the way a
//! sizing loop sends them.
//!
//! Set-up builds one `IncrementalAnalyzer` (one thread) per circuit,
//! s15850- and s38584-shaped. Most operations are probes (scale one
//! gate → `apply_delta` → `circuit_delay` + `yield_at` → `revert`);
//! about a third are commits, chained past the 64-delta-plane
//! compaction threshold and then reverted. Parse, arc build, levelize
//! and supergate extraction are not on this path: regions are cached.

use crate::cold::accuracy;
use crate::counter;
use crate::fits_another;
use crate::layers::{self, Layers};
use crate::report::{peak_rss_mb, Outcome};
use pep_celllib::Timing;
use pep_core::{AnalysisConfig, Delta, DeltaReport, IncrementalAnalyzer};
use pep_dist::DiscreteDist;
use pep_netlist::cone::fanout_cone;
use pep_netlist::generate::IscasProfile;
use pep_netlist::{Netlist, NodeId};
use pep_obs::Session;
use psta_perfbench::{
    best, circuit, cold_with_arrivals, gates_by_level, median, quantile, whatif_ops, CircuitInput,
    CommitDelta, WhatifOp,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every this many probes of a round, one is checked against a cold
/// analysis.
const CHECK_EVERY: usize = 40;

/// Set-ups at the start of an untimed run (more follow between rounds).
const SETUPS: usize = 3;

/// Untimed warm-up before the timed region.
const WARM_UP: Duration = Duration::from_secs(2);

/// One retained analysis and what the operation stream refers to.
struct Target {
    netlist: Netlist,
    timing: Timing,
    incr: IncrementalAnalyzer,
    gates: Vec<NodeId>,
    inputs: Vec<NodeId>,
    /// Yield deadline: the base circuit delay's 90% quantile.
    deadline: i64,
}

fn inputs(seed: u64) -> [CircuitInput; 2] {
    [
        circuit(IscasProfile::S15850, seed, 0x5B),
        circuit(IscasProfile::S38584, seed, 0x5A),
    ]
}

fn build(
    input: &CircuitInput,
    obs: &Session,
    spans: Option<&mut Layers>,
) -> Result<Target, String> {
    let (netlist, timing) = layers::load(input, spans)?;
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let incr = IncrementalAnalyzer::new_observed(&netlist, &timing, &config, obs)
        .map_err(|e| e.to_string())?;
    let deadline = incr.circuit_delay().quantile(0.9).unwrap_or(0);
    let gates = gates_by_level(&netlist);
    let inputs = netlist.primary_inputs().to_vec();
    Ok(Target {
        netlist,
        timing,
        incr,
        gates,
        inputs,
        deadline,
    })
}

fn build_both(
    seed: u64,
    obs: &Session,
    mut spans: Option<&mut Layers>,
) -> Result<[Target; 2], String> {
    let [a, b] = inputs(seed);
    Ok([
        build(&a, obs, spans.as_deref_mut())?,
        build(&b, obs, spans)?,
    ])
}

/// What one operation cost, in milliseconds per public call.
#[derive(Debug, Clone, Copy)]
struct OpTimes {
    apply: f64,
    read: f64,
    revert: f64,
    /// Instructions of the apply and read, millions.
    minstr_query: f64,
    /// Instructions of the revert, millions.
    minstr_revert: f64,
    dirty: usize,
    /// The node the delta edited.
    root: NodeId,
    /// Delta planes after the apply (`pep.incr.planes`; traced only).
    planes: f64,
}

impl OpTimes {
    fn total(&self) -> f64 {
        self.apply + self.read + self.revert
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn delta_of(target: &Target, op: &WhatifOp) -> Delta {
    match *op {
        WhatifOp::Probe { gate, factor, .. }
        | WhatifOp::Commit {
            delta: CommitDelta::Scale { gate, factor },
            ..
        } => Delta::ScaleCell {
            gate: target.gates[gate],
            factor,
        },
        WhatifOp::Commit {
            delta: CommitDelta::Arrival { input, ticks },
            ..
        } => Delta::PiArrival {
            input: target.inputs[input],
            arrival: DiscreteDist::point(ticks),
        },
    }
}

/// Runs one operation through the public calls, timing each.
fn execute(target: &mut Target, op: &WhatifOp, obs: &Session) -> Result<OpTimes, String> {
    let delta = delta_of(target, op);
    let root = match &delta {
        Delta::ScaleCell { gate, .. } => *gate,
        Delta::PiArrival { input, .. } => *input,
        Delta::RebindCell { gate, .. } => *gate,
    };
    let instr = counter::now();
    let t = Instant::now();
    let report: DeltaReport = target
        .incr
        .apply_delta_observed(&delta, obs)
        .map_err(|e| e.to_string())?;
    let apply = ms_since(t);
    let planes = if obs.is_enabled() {
        obs.gauge("pep.incr.planes").get()
    } else {
        0.0
    };
    let t = Instant::now();
    black_box(target.incr.circuit_delay());
    black_box(target.incr.yield_at(target.deadline));
    let read = ms_since(t);
    let instr_read = counter::now();
    let revert_now = match op {
        WhatifOp::Probe { .. } => true,
        WhatifOp::Commit { last, .. } => *last,
    };
    let mut revert = 0.0;
    if revert_now {
        let t = Instant::now();
        target.incr.revert();
        revert = ms_since(t);
    }
    Ok(OpTimes {
        apply,
        read,
        revert,
        minstr_query: (instr_read - instr) / 1e6,
        minstr_revert: counter::minstr_since(instr_read),
        dirty: report.dirty_nodes,
        root,
        planes,
    })
}

/// Checks the analyzer's current groups bit for bit against a cold
/// analysis of `timing` with the PI arrivals `arrivals`.
fn matches_cold(target: &Target, timing: &Timing, arrivals: &[(NodeId, i64)]) -> bool {
    let config = AnalysisConfig {
        threads: 2,
        ..target.incr.config().clone()
    };
    let cold = cold_with_arrivals(&target.netlist, timing, &config, arrivals);
    target
        .netlist
        .node_ids()
        .all(|n| target.incr.group(n).to_bits() == cold.group(n).to_bits())
}

/// Replays `ops` (all on `target`) without reverting and checks the
/// accumulated state against a cold analysis, then reverts.
fn check_against_cold(target: &mut Target, ops: &[WhatifOp]) -> Result<bool, String> {
    let mut timing = target.timing.clone();
    let mut arrivals = Vec::new();
    for op in ops {
        match *op {
            WhatifOp::Probe { gate, factor, .. }
            | WhatifOp::Commit {
                delta: CommitDelta::Scale { gate, factor },
                ..
            } => timing
                .scale_cell(target.gates[gate], factor)
                .map_err(|e| e.to_string())?,
            WhatifOp::Commit {
                delta: CommitDelta::Arrival { input, ticks },
                ..
            } => arrivals.push((target.inputs[input], ticks)),
        }
        let delta = delta_of(target, op);
        target.incr.apply_delta(&delta).map_err(|e| e.to_string())?;
    }
    let ok = matches_cold(target, &timing, &arrivals);
    target.incr.revert();
    Ok(ok)
}

fn circuit_of(op: &WhatifOp) -> usize {
    match *op {
        WhatifOp::Probe { circuit, .. } | WhatifOp::Commit { circuit, .. } => circuit,
    }
}

/// Runs the workload for `seconds` and returns its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(seed, seconds, traced, &mut out) {
        Ok(()) => out,
        Err(e) => {
            eprintln!("whatif-sizing: {e}");
            out.attempted += 1;
            out.failed += 1;
            out
        }
    }
}

/// One round: the first cycle of the operation stream over `targets`'
/// gates and inputs — a commit chain on the s15850-shaped analyzer with
/// probes of the s38584-shaped one interleaved, then probes of both. A
/// round starts and ends with both analyzers at their base, so rounds
/// repeat exactly: timed runs repeat them, and the traced run's unit is
/// one round.
fn round(seed: u64, targets: &[Target; 2]) -> Vec<WhatifOp> {
    whatif_ops(
        seed,
        [targets[0].gates.len(), targets[1].gates.len()],
        [targets[0].inputs.len(), targets[1].inputs.len()],
        1,
    )
}

/// Runs one round; returns its wall time and per-operation timings.
fn run_round(
    targets: &mut [Target; 2],
    ops: &[WhatifOp],
    obs: &Session,
    out: &mut Outcome,
) -> Result<(f64, Vec<OpTimes>), String> {
    let mut times = Vec::new();
    let t = Instant::now();
    for op in ops {
        out.attempted += 1;
        times.push(execute(&mut targets[circuit_of(op)], op, obs)?);
    }
    let wall = ms_since(t);
    for target in targets.iter_mut() {
        target.incr.revert();
    }
    Ok((wall, times))
}

fn run_inner(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    if traced {
        return run_traced(seed, seconds, out);
    }
    // Set-up: both analyzers, SETUPS times at the start and once more
    // (replacing the pair in use) before every timed round after the
    // first, so the samples of `setup_s` (their median) cover the whole
    // run and not only the host's state at its start.
    let mut setups = Vec::new();
    let mut set_up = |out: &mut Outcome| -> Result<[Target; 2], String> {
        let t = Instant::now();
        let targets = build_both(seed, &Session::disabled(), None)?;
        setups.push(t.elapsed().as_secs_f64());
        out.attempted += 2;
        Ok(targets)
    };
    let mut targets = set_up(out)?;
    for _ in 1..SETUPS {
        drop(targets);
        targets = set_up(out)?;
    }
    let ops = round(seed, &targets);

    // Warm-up: the round's operations for a fixed time, untimed.
    let warm_started = Instant::now();
    for op in &ops {
        if warm_started.elapsed() >= WARM_UP {
            break;
        }
        out.attempted += 1;
        if let Err(e) = execute(&mut targets[circuit_of(op)], op, &Session::disabled()) {
            eprintln!("warm-up operation failed: {e}");
            out.failed += 1;
        }
    }
    for target in targets.iter_mut() {
        target.incr.revert();
    }

    // Timed rounds. An operation's cost is a probe's whole round trip
    // or a commit's apply and read; each operation runs once per round.
    let started = Instant::now();
    let mut per_op: Vec<Vec<(f64, f64)>> = vec![Vec::new(); ops.len()];
    let mut rounds = 0;
    while rounds == 0 || fits_another(started, rounds, seconds) {
        if rounds > 0 {
            drop(targets);
            targets = set_up(out)?;
        }
        let (_, times) = run_round(&mut targets, &ops, &Session::disabled(), out)?;
        for ((samples, op), t) in per_op.iter_mut().zip(&ops).zip(&times) {
            samples.push(match op {
                WhatifOp::Probe { .. } => (t.total(), t.minstr_query + t.minstr_revert),
                WhatifOp::Commit { .. } => (t.apply + t.read, t.minstr_query),
            });
        }
        rounds += 1;
    }
    let rss = peak_rss_mb();
    out.set("setup_s", median(&setups));

    // Per operation: the median instruction count and the best time
    // over the rounds.
    let mut probes = Vec::new();
    let mut commits = Vec::new();
    for (op, samples) in ops.iter().zip(&per_op) {
        let ms: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let minstr: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let cost = (best(&ms), median(&minstr));
        match op {
            WhatifOp::Probe { .. } => probes.push(cost),
            WhatifOp::Commit { .. } => commits.push(cost),
        }
    }
    let avg = |v: &[(f64, f64)], f: fn(&(f64, f64)) -> f64| {
        v.iter().map(f).sum::<f64>() / v.len().max(1) as f64
    };

    // Outside the timed region: sampled probes and the round's commit
    // chain must equal a cold analysis of the edited timing bit for bit.
    let checked: Vec<WhatifOp> = ops
        .iter()
        .filter(|op| matches!(op, WhatifOp::Probe { .. }))
        .step_by(CHECK_EVERY)
        .copied()
        .collect();
    for op in &checked {
        let ok = check_against_cold(&mut targets[circuit_of(op)], std::slice::from_ref(op))?;
        out.check(ok, &format!("probe {op:?} differs from a cold analysis"));
    }
    let chain: Vec<WhatifOp> = ops
        .iter()
        .filter(|op| matches!(op, WhatifOp::Commit { .. }))
        .copied()
        .collect();
    let ok = check_against_cold(&mut targets[0], &chain)?;
    out.check(ok, "commit chain differs from a cold analysis");

    let bases: Vec<_> = targets.iter().map(|t| t.incr.analysis()).collect();
    let circuits: Vec<_> = targets
        .iter()
        .zip(&bases)
        .map(|(t, a)| (&t.netlist, &t.timing, a))
        .collect();
    let (mean, sigma) = accuracy(&circuits, seed);

    // The gated metrics count instructions (see `counter`); the times
    // are printed beside them. Commit costs span three decades (a deep
    // gate against a PI's whole fanout), so the median jumps between
    // seeds; the mean over the chain's evenly spread targets does not.
    let all: Vec<(f64, f64)> = probes.iter().chain(&commits).copied().collect();
    out.set_named("minstr_per_op", "whatif.minstr_per_op", avg(&all, |c| c.1));
    out.set_named(
        "heavy_minstr",
        "whatif.commit_minstr.mean",
        avg(&commits, |c| c.1),
    );
    let probe_minstr: Vec<f64> = probes.iter().map(|c| c.1).collect();
    out.set_named(
        "light_minstr.p50",
        "whatif.query_minstr.p50",
        median(&probe_minstr),
    );
    let probe_ms: Vec<f64> = probes.iter().map(|c| c.0).collect();
    out.note("whatif.query_best_ms.p50", median(&probe_ms), "ms");
    out.note("whatif.query_best_ms.p90", quantile(&probe_ms, 0.9), "ms");
    out.note("whatif.commit_best_ms.mean", avg(&commits, |c| c.0), "ms");
    out.note("whatif.ops_per_s", 1e3 / avg(&all, |c| c.0), "1/s");
    out.set_named("peak_rss_mb", "whatif.peak_rss_mb", rss);
    out.set_named("accuracy.mean_err_pct", "accuracy.mean_err_pct", mean);
    out.set_named("accuracy.sigma_err_pct", "accuracy.sigma_err_pct", sigma);
    let resident: usize = targets.iter().map(|t| t.incr.resident_bytes()).sum();
    out.note("whatif.resident_mb", resident as f64 / 1048576.0, "MiB");
    out.note("whatif.rounds", rounds as f64, "count");
    Ok(())
}

/// The traced run: one traced set-up, then untraced and traced rounds
/// alternately. Layer values are the set-up's plus the median round's.
fn run_traced(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let obs = layers::traced_session();
    let mut setup = Layers::new();
    let t = Instant::now();
    let mut targets = build_both(seed, &obs, Some(&mut setup))?;
    let setup_wall = ms_since(t);
    out.attempted += 2;
    let ops = &round(seed, &targets);
    layers::add(&mut setup, &layers::engine(&obs));
    let region_index = layers::phase(&obs, "region-index").0;
    let setup_attributed = setup["netlist.parse_ms"]
        + setup["celllib.annotate_ms"]
        + layers::engine_attributed_ms(&setup)
        + region_index;

    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut samples = Vec::new();
    while traced.is_empty() || fits_another(started, traced.len(), seconds) {
        untraced.push(run_round(&mut targets, ops, &Session::disabled(), out)?.0);
        let obs = layers::traced_session();
        let (wall, times) = run_round(&mut targets, ops, &obs, out)?;
        traced.push(wall);
        let mut sample = layers::engine(&obs);
        let apply: Vec<f64> = times.iter().map(|t| t.apply).collect();
        let read: Vec<f64> = times.iter().map(|t| t.read).collect();
        let reverts: Vec<f64> = times
            .iter()
            .filter(|t| t.revert > 0.0)
            .map(|t| t.revert)
            .collect();
        let dirty: Vec<f64> = times.iter().map(|t| t.dirty as f64).collect();
        sample.insert("incr.apply_ms.p50", median(&apply));
        sample.insert("incr.read_ms.p50", median(&read));
        sample.insert("incr.revert_ms.p50", median(&reverts));
        sample.insert("incr.dirty_nodes.p50", median(&dirty));
        let public: f64 = times.iter().map(OpTimes::total).sum();
        sample.insert(
            "unattributed_ms",
            setup_wall - setup_attributed + wall - public,
        );
        samples.push((sample, times));
    }
    // Pruning effectiveness: nodes re-evaluated over the static fanout
    // cones of the delta roots (counted outside the timed rounds).
    let times = &samples[0].1;
    let mut dirty = 0usize;
    let mut cone = 0usize;
    for (op, t) in ops.iter().zip(times) {
        let target = &targets[circuit_of(op)];
        dirty += t.dirty;
        cone += fanout_cone(&target.netlist, t.root).len();
    }
    let planes = times.iter().map(|t| t.planes).fold(0.0, f64::max);
    let mut layer = layers::median_of(&samples.into_iter().map(|(s, _)| s).collect::<Vec<_>>());
    // The set-up's layers ride along: parse, annotate, arcs and levelize
    // are set-up only, so they stay flat while queries change.
    for (k, v) in &setup {
        *layer.entry(k).or_insert(0.0) += v;
    }
    out.values.extend(layer);
    out.set("incr.planes.max", planes);
    out.set("incr.cone_ratio", dirty as f64 / cone.max(1) as f64);
    let resident: usize = targets.iter().map(|t| t.incr.resident_bytes()).sum();
    out.set("incr.resident_mb", resident as f64 / 1048576.0);
    out.set(
        "obs.trace_overhead_ratio",
        median(&traced) / median(&untraced),
    );
    out.note("whatif.traced_rounds", traced.len() as f64, "count");
    Ok(())
}
