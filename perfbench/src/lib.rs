//! Seeded inputs and small statistics helpers for the psta benchmark.
//!
//! Everything a workload feeds the program is derived here from the
//! workload seed alone: delay-model seeds, the what-if delta stream and
//! the serving request mix. The program only ever sees the generated
//! inputs. `tests/inputs.rs` pins that one seed always yields
//! byte-identical inputs.
//!
//! Circuit *structure* is the profile's own (`IscasProfile::spec()`,
//! written out as `.bench` text) and does not follow the seed: with
//! seeded structure, run-to-run spreads across seeds were 12–27% of the
//! median (pass time, commit latency, σ error), far above the bounds a
//! regression gate needs. The same holds for which gates a delta edits:
//! with seeded targets, the instructions of the median probe spread 18%
//! across seeds. So targets are a fixed even spread over the circuit's
//! levels, and delays, scale factors, arrival ticks, request order and
//! arrival times follow the seed.

use pep_celllib::Timing;
use pep_core::{analyze_with_inputs, AnalysisConfig, PepAnalysis};
use pep_dist::DiscreteDist;
use pep_netlist::generate::{random_circuit, IscasProfile};
use pep_netlist::{GateKind, Netlist, NodeId};
use std::sync::Arc;

/// SplitMix64 of `seed` offset by `salt`: decorrelates the seeds of
/// the individual inputs drawn from one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator (xorshift64*), independent of the
/// vendored `rand` so input streams never move with it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed, salt) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// One generated circuit: its `.bench` text and the seed of its delay
/// model (`DelayModel::dac2001`).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitInput {
    /// Circuit name (the profile it is shaped like).
    pub name: String,
    /// ISCAS `.bench` text (shared by circuits of the same shape).
    pub bench: Arc<str>,
    /// Seed for `DelayModel::dac2001`.
    pub delay_seed: u64,
}

/// The profile circuit as `.bench` text, with a delay seed drawn from
/// `seed` and a per-use `salt`.
pub fn circuit(profile: IscasProfile, seed: u64, salt: u64) -> CircuitInput {
    CircuitInput {
        name: profile.name().to_owned(),
        bench: pep_netlist::to_bench(&random_circuit(&profile.spec())).into(),
        delay_seed: mix(seed, salt ^ 0xDE1A),
    }
}

/// Even picks from `0..n` along a golden-ratio sequence: any run of
/// picks covers the range (e.g. gates sorted by level) nearly
/// uniformly, so a short run already sees the same mix of shallow and
/// deep targets as a long one.
#[derive(Debug, Clone)]
pub struct Spread(f64);

impl Spread {
    /// A sequence starting at `start` (in `[0, 1)`).
    pub fn new(start: f64) -> Spread {
        Spread(start)
    }

    /// Next pick in `0..n` (`n > 0`).
    pub fn pick(&mut self, n: usize) -> usize {
        self.0 = (self.0 + 0.618_033_988_749_895) % 1.0;
        ((self.0 * n as f64) as usize).min(n - 1)
    }
}

/// The cold-analysis set: one circuit per paper profile, in the
/// paper's order (s38584-shaped last).
pub fn cold_set(seed: u64) -> Vec<CircuitInput> {
    IscasProfile::all()
        .into_iter()
        .enumerate()
        .map(|(i, p)| circuit(p, seed, 0xC01D + i as u64))
        .collect()
}

/// The netlist's gates (every non-input node) sorted by logic level,
/// then by node order: the list the stratified target picks index.
pub fn gates_by_level(netlist: &Netlist) -> Vec<NodeId> {
    let mut gates: Vec<NodeId> = netlist
        .node_ids()
        .filter(|&n| netlist.kind(n) != GateKind::Input)
        .collect();
    gates.sort_by_key(|&n| (netlist.level(n), n.index()));
    gates
}

/// Deltas stacked without a revert in one commit chain: one more than
/// the incremental engine's 64-delta-plane compaction threshold, so
/// every chain compacts.
pub const CHAIN_LEN: usize = 65;

/// Probes per cycle besides the ones interleaved with the chain; with
/// them a cycle is 65 commits out of 190 operations (34%). A cycle is
/// what a timed run repeats, so it is kept short enough to repeat
/// several times in 20 seconds.
pub const PROBES_AFTER_CHAIN: usize = 60;

/// Scale factor for a sizing step: uniform in 1.05–1.3 (`up`) or
/// 0.7–0.95, leaving out the near-no-op band within ±0.05 of 1. Callers
/// alternate `up`: a slower gate tends to change everything downstream
/// and a faster one is often masked by a `max`, so a seeded direction
/// made the median probe's cost jump between seeds.
pub fn sizing_factor(rng: &mut Rng, up: bool) -> f64 {
    let u = rng.unit() * 0.25;
    if up {
        1.05 + u
    } else {
        0.7 + u
    }
}

/// One committed change in a chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommitDelta {
    /// Scale gate `gate`'s cell delay.
    Scale {
        /// Index of the gate.
        gate: usize,
        /// Scale factor.
        factor: f64,
    },
    /// Move primary input `input`'s arrival to `ticks`.
    Arrival {
        /// Index of the primary input.
        input: usize,
        /// Arrival tick on the analysis grid.
        ticks: i64,
    },
}

/// One what-if operation against analyzer `circuit` (0 or 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WhatifOp {
    /// Scale one gate, read circuit delay and yield, revert.
    Probe {
        /// Analyzer index.
        circuit: usize,
        /// Index of the gate.
        gate: usize,
        /// Scale factor.
        factor: f64,
    },
    /// Apply one delta of a commit chain and read; the chain's last
    /// commit is followed by a revert.
    Commit {
        /// Analyzer index.
        circuit: usize,
        /// The committed delta.
        delta: CommitDelta,
        /// Whether this commit ends its chain (revert afterwards).
        last: bool,
    },
}

/// The what-if operation stream: `cycles` cycles, each a commit chain
/// on one analyzer interleaved one-for-one with probes on the other,
/// then [`PROBES_AFTER_CHAIN`] probes alternating between both. The
/// chain analyzer alternates between cycles. Gates and inputs are
/// indices into analyzer `c`'s lists of `gates[c]` gates (sorted by
/// level) and `inputs[c]` primary inputs. Three commits in ten move a
/// PI arrival, the rest scale a gate.
pub fn whatif_ops(
    seed: u64,
    gates: [usize; 2],
    inputs: [usize; 2],
    cycles: usize,
) -> Vec<WhatifOp> {
    let mut rng = Rng::new(seed, 0x5172E);
    let mut probes = [Spread::new(0.1), Spread::new(0.1)];
    let mut chain_gates = [Spread::new(0.4), Spread::new(0.4)];
    let mut chain_inputs = [Spread::new(0.7), Spread::new(0.7)];
    let mut ops = Vec::new();
    let mut probed = [0usize; 2];
    let mut probe = |rng: &mut Rng, circuit: usize| {
        probed[circuit] += 1;
        WhatifOp::Probe {
            circuit,
            gate: probes[circuit].pick(gates[circuit]),
            factor: sizing_factor(rng, probed[circuit].is_multiple_of(2)),
        }
    };
    for cycle in 0..cycles {
        let x = cycle % 2;
        let y = 1 - x;
        for k in 0..CHAIN_LEN {
            let delta = if k % 10 >= 3 {
                CommitDelta::Scale {
                    gate: chain_gates[x].pick(gates[x]),
                    factor: sizing_factor(&mut rng, k.is_multiple_of(2)),
                }
            } else {
                CommitDelta::Arrival {
                    input: chain_inputs[x].pick(inputs[x]),
                    ticks: 1 + rng.below(40) as i64,
                }
            };
            ops.push(WhatifOp::Commit {
                circuit: x,
                delta,
                last: k + 1 == CHAIN_LEN,
            });
            ops.push(probe(&mut rng, y));
        }
        for k in 0..PROBES_AFTER_CHAIN {
            ops.push(probe(&mut rng, k % 2));
        }
    }
    ops
}

/// One gate-scale or PI-arrival override of a served delta request.
#[derive(Debug, Clone, PartialEq)]
pub enum Override {
    /// Scale the named gate's delay.
    Scale {
        /// Gate name.
        gate: String,
        /// Scale factor.
        factor: f64,
    },
    /// Move the named primary input's arrival.
    Arrival {
        /// Primary-input name.
        input: String,
        /// Arrival tick.
        ticks: i64,
    },
}

/// One request of the serving mix.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeReq {
    /// What-if query against retained base `base` (0 or 1).
    Delta {
        /// Which retained base.
        base: usize,
        /// Overrides, applied in order.
        overrides: Vec<Override>,
    },
    /// Cold analysis of rotating-set circuit `circuit` (a cache hit).
    Hit {
        /// Index into the rotating set.
        circuit: usize,
    },
    /// Cold analysis of a never-seen circuit (a cache miss).
    Miss {
        /// Index into the miss list.
        circuit: usize,
    },
    /// `GET /healthz`.
    Health,
}

/// Circuits of the rotating (cache-hit) set.
pub const HIT_SET: usize = 4;

/// Shape of the serving circuit with index `i`: s5378 and s9234
/// alternate.
pub fn serve_profile(i: usize) -> IscasProfile {
    if i.is_multiple_of(2) {
        IscasProfile::S5378
    } else {
        IscasProfile::S9234
    }
}

/// The two retained bases (s5378- and s9234-shaped).
pub fn serve_bases(seed: u64) -> Vec<CircuitInput> {
    (0..2)
        .map(|i| {
            serve_circuit(
                i,
                seed,
                0xBA5E + i as u64,
                format!("{}-base", serve_profile(i).name()),
            )
        })
        .collect()
}

/// A serving circuit named `name`. Its delay seed is cut to 32 bits so
/// it travels exactly as a JSON number. Name and delay seed are part of
/// the server's circuit-cache key, so distinct names never share an
/// entry.
fn serve_circuit(i: usize, seed: u64, salt: u64, name: String) -> CircuitInput {
    let mut c = circuit(serve_profile(i), seed, salt);
    c.delay_seed &= 0xFFFF_FFFF;
    c.name = name;
    c
}

/// The rotating set of cold-analysis circuits the circuit cache keeps.
pub fn serve_hits(seed: u64) -> Vec<CircuitInput> {
    (0..HIT_SET)
        .map(|i| {
            serve_circuit(
                i,
                seed,
                0x417 + i as u64,
                format!("{}-hit{i}", serve_profile(i).name()),
            )
        })
        .collect()
}

/// The `i`-th never-seen circuit: the shape of `hits[i % 2]` (whose
/// text it shares) under a fresh name and delay seed, so it misses the
/// circuit cache and the server parses and annotates it.
pub fn serve_miss(seed: u64, i: usize, hits: &[CircuitInput]) -> CircuitInput {
    CircuitInput {
        name: format!("{}-miss{i}", serve_profile(i).name()),
        bench: Arc::clone(&hits[i % 2].bench),
        delay_seed: mix(seed, (0x1_0000_0000 + i as u64) ^ 0xDE1A) & 0xFFFF_FFFF,
    }
}

/// Request kinds of one block of the mix, shuffled per block: 12
/// deltas, 5 cache hits, 2 misses and 1 health probe in 20 (60/25/10/5%).
const MIX_BLOCK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 3];

/// `n` requests of the fixed mix. `gates[b]` (sorted by level) and
/// `inputs[b]` are the gate and PI names of base `b`. One delta in four
/// also moves a PI arrival. Misses are numbered from `first_miss`.
pub fn serve_requests(
    seed: u64,
    salt: u64,
    n: usize,
    first_miss: usize,
    gates: [&[String]; 2],
    inputs: [&[String]; 2],
) -> Vec<ServeReq> {
    let mut rng = Rng::new(seed, 0x5E7E ^ salt);
    let mut gate_picks = [Spread::new(0.1), Spread::new(0.1)];
    let mut input_picks = [Spread::new(0.7), Spread::new(0.7)];
    let mut next_miss = first_miss;
    let mut deltas = 0usize;
    let mut hits = 0usize;
    let mut block = MIX_BLOCK;
    let mut reqs = Vec::with_capacity(n);
    while reqs.len() < n {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        for &kind in block.iter().take(n - reqs.len()) {
            reqs.push(match kind {
                0 => {
                    let base = deltas % 2;
                    deltas += 1;
                    let mut overrides = vec![Override::Scale {
                        gate: gates[base][gate_picks[base].pick(gates[base].len())].clone(),
                        factor: sizing_factor(&mut rng, (deltas / 2).is_multiple_of(2)),
                    }];
                    if deltas.is_multiple_of(4) {
                        overrides.push(Override::Arrival {
                            input: inputs[base][input_picks[base].pick(inputs[base].len())].clone(),
                            ticks: 1 + rng.below(40) as i64,
                        });
                    }
                    ServeReq::Delta { base, overrides }
                }
                1 => {
                    hits += 1;
                    ServeReq::Hit {
                        circuit: (hits - 1) % HIT_SET,
                    }
                }
                2 => {
                    next_miss += 1;
                    ServeReq::Miss {
                        circuit: next_miss - 1,
                    }
                }
                _ => ServeReq::Health,
            });
        }
    }
    reqs
}

/// The metric list `list` (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`, the one place metric names and units are kept:
/// `(name, unit)` in file order.
pub fn catalogue(list: &str) -> Vec<(String, String)> {
    let json = serde::json::from_str(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    json.get(list)
        .and_then(serde::Value::as_seq)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {list:?}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(serde::Value::as_str).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .expect("a metric has a name and a unit")
        })
        .collect()
}

/// A cold analysis of `timing` in which every primary input arrives at
/// tick 0, except those listed in `arrivals` (the last entry for an
/// input wins): the reference a what-if answer must equal bit for bit.
pub fn cold_with_arrivals(
    netlist: &Netlist,
    timing: &Timing,
    config: &AnalysisConfig,
    arrivals: &[(NodeId, i64)],
) -> PepAnalysis {
    analyze_with_inputs(netlist, timing, config, |n| {
        let ticks = arrivals
            .iter()
            .rev()
            .find(|(p, _)| *p == n)
            .map_or(0, |(_, t)| *t);
        DiscreteDist::point(ticks)
    })
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The best (smallest) of `values`: the time of an operation repeated
/// across a run, with the host's interference left out as far as one
/// run allows.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
