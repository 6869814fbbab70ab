//! Per-layer readings from one traced engine session.
//!
//! The engine already records its phases (`arc-pmf-build`, `levelize`,
//! `propagate` / `incremental-propagate` with `supergate-extract` and
//! `sampling-eval` nested inside), its `pep.*` registry counters and,
//! from `TraceLevel::Nodes` up, per-kernel aggregates. This module reads
//! them and times parse and annotate around their public calls
//! ([`load`]); the incremental spans are added by `whatif`.

use pep_celllib::{DelayModel, Timing};
use pep_netlist::{parse_bench, Netlist};
use pep_obs::{KernelKind, PhaseReport, Session, Trace, TraceLevel};
use psta_perfbench::CircuitInput;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer metric values keyed by catalogue name.
pub type Layers = BTreeMap<&'static str, f64>;

/// `parse_bench` → `Timing::annotate` for one generated circuit. With
/// `spans`, the two calls' wall times are added to `netlist.parse_ms`
/// and `celllib.annotate_ms`.
pub fn load(input: &CircuitInput, spans: Option<&mut Layers>) -> Result<(Netlist, Timing), String> {
    let t = Instant::now();
    let netlist = parse_bench(&input.name, &input.bench).map_err(|e| e.to_string())?;
    let parsed = t.elapsed();
    let timing = Timing::annotate(&netlist, &DelayModel::dac2001(input.delay_seed));
    if let Some(spans) = spans {
        *spans.entry("netlist.parse_ms").or_insert(0.0) += parsed.as_secs_f64() * 1e3;
        *spans.entry("celllib.annotate_ms").or_insert(0.0) +=
            (t.elapsed() - parsed).as_secs_f64() * 1e3;
    }
    Ok((netlist, timing))
}

/// An enabled session recording phases, counters and kernel aggregates
/// (per-call kernel spans stay off).
pub fn traced_session() -> Session {
    let obs = Session::new();
    obs.set_trace(Trace::new(TraceLevel::Nodes));
    obs
}

fn phase_totals(phases: &[PhaseReport], name: &str, acc: &mut (f64, u64)) {
    for p in phases {
        if p.name == name {
            acc.0 += p.wall_seconds;
            acc.1 += p.count;
        }
        phase_totals(&p.children, name, acc);
    }
}

/// Wall milliseconds and call count of every phase named `name`.
pub fn phase(obs: &Session, name: &str) -> (f64, u64) {
    let mut acc = (0.0, 0);
    phase_totals(&obs.report("perfbench").phases, name, &mut acc);
    (acc.0 * 1e3, acc.1)
}

/// The engine layers one session saw.
pub fn engine(obs: &Session) -> Layers {
    let mut l = Layers::new();
    let (levelize, _) = phase(obs, "levelize");
    let (arcs, _) = phase(obs, "arc-pmf-build");
    let (extract, extract_calls) = phase(obs, "supergate-extract");
    let (sampling, sampling_calls) = phase(obs, "sampling-eval");
    let (propagate, _) = phase(obs, "propagate");
    let (incr_propagate, _) = phase(obs, "incremental-propagate");
    l.insert("netlist.levelize_ms", levelize);
    l.insert("core.arcs_ms", arcs);
    l.insert("netlist.supergate_extract_ms", extract);
    l.insert("netlist.supergate_extract_calls", extract_calls as f64);
    l.insert("core.sampling_eval_ms", sampling);
    l.insert("core.sampling_eval_calls", sampling_calls as f64);
    // Supergate extraction and sampling-evaluation nest inside the
    // scheduler's phase; what remains is wave scheduling and commit.
    l.insert(
        "core.schedule_self_ms",
        propagate + incr_propagate - extract - sampling,
    );
    for (name, counter) in [
        ("core.supergates", "pep.supergates"),
        ("core.stems_conditioned", "pep.stems_conditioned"),
        ("core.events_propagated", "pep.events_propagated"),
        ("core.events_dropped", "pep.events_dropped"),
    ] {
        l.insert(name, obs.counter(counter).get() as f64);
    }
    l.insert(
        "core.dropped_mass",
        obs.float_counter("pep.dropped_mass").get(),
    );
    let kernels = obs.trace().kernel_aggregates();
    for kind in KernelKind::ALL {
        let agg = &kernels[kind as usize];
        let (calls, ns) = match kind {
            KernelKind::Convolve => ("dist.convolve.calls", "dist.convolve.ns"),
            KernelKind::Max => ("dist.max.calls", "dist.max.ns"),
            KernelKind::Min => ("dist.min.calls", "dist.min.ns"),
            KernelKind::Accumulate => ("dist.accumulate.calls", "dist.accumulate.ns"),
            KernelKind::Coarsen => ("dist.coarsen.calls", "dist.coarsen.ns"),
        };
        l.insert(calls, agg.calls as f64);
        l.insert(ns, agg.total_ns as f64);
    }
    l
}

/// Self time the engine phases of `l` account for (nested phases are
/// counted once).
pub fn engine_attributed_ms(l: &Layers) -> f64 {
    [
        "netlist.levelize_ms",
        "core.arcs_ms",
        "netlist.supergate_extract_ms",
        "core.sampling_eval_ms",
        "core.schedule_self_ms",
    ]
    .iter()
    .map(|k| l.get(k).copied().unwrap_or(0.0))
    .sum()
}

/// Adds `b` into `a` key by key.
pub fn add(a: &mut Layers, b: &Layers) {
    for (k, v) in b {
        *a.entry(k).or_insert(0.0) += v;
    }
}

/// The per-key median over several samples.
pub fn median_of(samples: &[Layers]) -> Layers {
    let mut out = Layers::new();
    if let Some(first) = samples.first() {
        for k in first.keys() {
            let v: Vec<f64> = samples.iter().filter_map(|s| s.get(k).copied()).collect();
            out.insert(k, psta_perfbench::median(&v));
        }
    }
    out
}
