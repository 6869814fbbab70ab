//! `cold-iscas`: the paper's time to solution.
//!
//! One operation is one cold analysis of one circuit: `parse_bench` →
//! `Timing::annotate` → `try_analyze` (default configuration, two
//! threads) → mean and σ at every primary output. A pass covers the six
//! profile shapes.

use crate::counter::{measured, Cost};
use crate::fits_another;
use crate::layers::{self, Layers};
use crate::report::{peak_rss_mb, Outcome};
use pep_celllib::Timing;
use pep_core::{try_analyze_observed, AnalysisConfig, PepAnalysis};
use pep_netlist::Netlist;
use pep_obs::Session;
use pep_sta::monte_carlo::{run_monte_carlo, McConfig};
use psta_perfbench::{best, cold_set, median, mix, CircuitInput};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Engine threads of the timed runs.
const THREADS: usize = 2;

/// Set-up: the host is warmed with analyses of the smallest circuit for
/// this long before anything is timed.
const WARM_UP: Duration = Duration::from_secs(2);

/// Circuits of the set the accuracy metric compares against Monte Carlo:
/// the s5378- to s15850-shaped ones. The two largest would double the
/// Monte Carlo time of a run.
const ACCURACY_CIRCUITS: [usize; 4] = [0, 1, 2, 3];

/// One analysed circuit.
struct Analysed {
    netlist: Netlist,
    analysis: PepAnalysis,
}

fn config(threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        threads,
        ..AnalysisConfig::default()
    }
}

/// One operation. With a traced session, `spans` receives the parse and
/// annotate times the benchmark measures around those calls.
fn analyse(
    input: &CircuitInput,
    threads: usize,
    obs: &Session,
    spans: Option<&mut Layers>,
) -> Result<Analysed, String> {
    let (netlist, timing) = layers::load(input, spans)?;
    let analysis = try_analyze_observed(&netlist, &timing, &config(threads), obs)
        .map_err(|e| e.to_string())?;
    for &po in netlist.primary_outputs() {
        black_box((analysis.mean_time(po), analysis.std_time(po)));
    }
    Ok(Analysed { netlist, analysis })
}

fn digest(a: &Analysed) -> u64 {
    pep_serve::api::groups_digest(&a.netlist, &a.analysis)
}

/// One pass over the set: per-circuit costs and digests (`None` for a
/// failed operation).
fn pass(
    set: &[CircuitInput],
    threads: usize,
    out: &mut Outcome,
    mut session_for_op: impl FnMut() -> Session,
    mut spans: Option<&mut Layers>,
) -> (Vec<Cost>, Vec<Option<u64>>) {
    let mut times = Vec::with_capacity(set.len());
    let mut digests = Vec::with_capacity(set.len());
    for input in set {
        let obs = session_for_op();
        let (r, cost) = measured(|| analyse(input, threads, &obs, spans.as_deref_mut()));
        times.push(cost);
        out.attempted += 1;
        match r {
            Ok(a) => digests.push(Some(digest(&a))),
            Err(e) => {
                out.failed += 1;
                eprintln!("{}: analysis failed: {e}", input.name);
                digests.push(None);
            }
        }
    }
    (times, digests)
}

/// Paper accuracy (`M_e + 3σ_e`, %) of the mean and σ against a seeded
/// 5000-run Monte Carlo, averaged over `circuits`. Each run draws from
/// its own seeded generator, so the reference does not depend on the
/// Monte Carlo's two threads.
pub fn accuracy(circuits: &[(&Netlist, &Timing, &PepAnalysis)], seed: u64) -> (f64, f64) {
    let mut mean = 0.0;
    let mut sigma = 0.0;
    for (i, (netlist, timing, pep)) in circuits.iter().enumerate() {
        let mc = run_monte_carlo(
            netlist,
            timing,
            &McConfig {
                runs: 5_000,
                seed: mix(seed, 0x3C + i as u64),
                threads: 2,
                ..McConfig::default()
            },
        );
        let (m, s) = pep_core::compare::against_monte_carlo(netlist, pep, &mc).report();
        mean += m;
        sigma += s;
    }
    let n = circuits.len() as f64;
    (mean / n, sigma / n)
}

fn accuracy_of_set(set: &[CircuitInput], seed: u64, out: &mut Outcome) {
    let mut kept = Vec::new();
    for &i in &ACCURACY_CIRCUITS {
        let input = &set[i];
        let (netlist, timing) = layers::load(input, None).expect("generated text parses");
        match try_analyze_observed(&netlist, &timing, &config(THREADS), &Session::disabled()) {
            Ok(a) => kept.push((netlist, timing, a)),
            Err(e) => out.check(false, &format!("accuracy analysis of {}: {e}", input.name)),
        }
    }
    let refs: Vec<_> = kept.iter().map(|(n, t, a)| (n, t, a)).collect();
    let (mean, sigma) = accuracy(&refs, seed);
    out.set_named("accuracy.mean_err_pct", "accuracy.mean_err_pct", mean);
    out.set_named("accuracy.sigma_err_pct", "accuracy.sigma_err_pct", sigma);
}

fn check_digests(
    out: &mut Outcome,
    set: &[CircuitInput],
    got: &[Option<u64>],
    want: &[Option<u64>],
    what: &str,
) {
    for ((input, g), w) in set.iter().zip(got).zip(want) {
        out.check(g.is_some() && g == w, &format!("{}: {what}", input.name));
    }
}

/// Runs the workload for `seconds` and returns its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let set = cold_set(seed);
    let mut out = Outcome::default();

    // Set-up is warm-up only: cold analyses of the smallest circuit
    // (s5378-shaped) for a fixed time. One more runs before every timed
    // pass, so the samples of `setup_s` (their median) cover the whole
    // run and not only the host's state at its start. They run on one
    // thread: at this size two threads gain little (35 ms → 33 ms), and
    // their times jumped by a third between runs where one thread's
    // stayed within 5%.
    let mut warm = Vec::new();
    let mut warm_once = |out: &mut Outcome| {
        let t = Instant::now();
        let r = analyse(&set[0], 1, &Session::disabled(), None);
        warm.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if let Err(e) = r {
            out.failed += 1;
            eprintln!("warm-up failed: {e}");
        }
    };
    let warm_started = Instant::now();
    while warm_started.elapsed() < WARM_UP {
        warm_once(&mut out);
    }

    if traced {
        run_traced(&set, seconds, &mut out);
        return out;
    }

    // One untimed pass of the whole set: the big circuits' first run is
    // not timed, and its groups are what every timed pass must repeat.
    let (_, first) = pass(&set, THREADS, &mut out, Session::disabled, None);
    // Timed passes: every circuit is analysed once per pass, so each
    // one's runs are spread over the whole timed region.
    let started = Instant::now();
    let mut passes: Vec<Vec<Cost>> = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        warm_once(&mut out);
        let (times, digests) = pass(&set, THREADS, &mut out, Session::disabled, None);
        passes.push(times);
        check_digests(
            &mut out,
            &set,
            &digests,
            &first,
            "pass differs from the first pass",
        );
    }
    let rss = peak_rss_mb();
    out.set("setup_s", median(&warm));

    // Outside the timed region: the timed (two-thread) groups must equal
    // a single-thread run's, the configuration of the traced run.
    let (_, reference) = pass(&set, 1, &mut out, Session::disabled, None);
    check_digests(
        &mut out,
        &set,
        &first,
        &reference,
        "threads=2 groups differ from threads=1",
    );
    accuracy_of_set(&set, seed, &mut out);

    // The gated metrics count instructions (see `counter`); the times
    // are printed beside them.
    let n = set.len();
    let column =
        |i: usize, f: fn(&Cost) -> f64| -> Vec<f64> { passes.iter().map(|p| f(&p[i])).collect() };
    let per_pass = |f: fn(&Cost) -> f64| -> Vec<f64> {
        passes.iter().map(|p| p.iter().map(f).sum()).collect()
    };
    let circuit_minstr: Vec<f64> = (0..n).map(|i| median(&column(i, |c| c.minstr))).collect();
    out.set_named(
        "minstr_per_op",
        "cold.minstr_per_circuit",
        median(&per_pass(|c| c.minstr)) / n as f64,
    );
    out.set_named("heavy_minstr", "cold.largest_minstr", circuit_minstr[n - 1]);
    out.set_named(
        "light_minstr.p50",
        "cold.circuit_minstr.p50",
        median(&circuit_minstr),
    );
    let pass_ms = median(&per_pass(|c| c.ms));
    out.note("cold.pass_ms.p50", pass_ms, "ms");
    out.note(
        "cold.pass_best_ms",
        (0..n).map(|i| best(&column(i, |c| c.ms))).sum::<f64>(),
        "ms",
    );
    out.note(
        "cold.largest_ms.p50",
        median(&column(n - 1, |c| c.ms)),
        "ms",
    );
    out.note("cold.circuits_per_s", n as f64 / (pass_ms / 1e3), "1/s");
    out.set_named("peak_rss_mb", "cold.peak_rss_mb", rss);
    out.note("cold.passes", passes.len() as f64, "count");
    out
}

/// The traced run: single-thread passes, traced and untraced
/// alternately; per-layer values are medians per pass.
fn run_traced(set: &[CircuitInput], seconds: f64, out: &mut Outcome) {
    let (_, timed) = pass(set, THREADS, out, Session::disabled, None);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut samples: Vec<Layers> = Vec::new();
    while traced.is_empty() || fits_another(started, traced.len(), seconds) {
        let (times, _) = pass(set, 1, out, Session::disabled, None);
        untraced.push(times.iter().map(|c| c.ms).sum::<f64>());

        let mut spans = Layers::new();
        let mut sessions = Vec::new();
        let (times, digests) = pass(
            set,
            1,
            out,
            || {
                sessions.push(layers::traced_session());
                sessions[sessions.len() - 1].clone()
            },
            Some(&mut spans),
        );
        let wall: f64 = times.iter().map(|c| c.ms).sum();
        traced.push(wall);
        let mut sample = spans;
        for obs in &sessions {
            layers::add(&mut sample, &layers::engine(obs));
        }
        let attributed = sample["netlist.parse_ms"]
            + sample["celllib.annotate_ms"]
            + layers::engine_attributed_ms(&sample);
        sample.insert("unattributed_ms", wall - attributed);
        samples.push(sample);
        check_digests(
            out,
            set,
            &digests,
            &timed,
            "traced threads=1 groups differ from timed threads=2",
        );
    }
    out.values.extend(layers::median_of(&samples));
    out.set(
        "obs.trace_overhead_ratio",
        median(&traced) / median(&untraced),
    );
    out.note("cold.traced_passes", traced.len() as f64, "count");
}
