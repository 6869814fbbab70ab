//! Pins the benchmark's seeded inputs: one workload seed always yields
//! byte-identical `.bench` text, delta streams and arrival schedules,
//! and another seed yields other delays, streams and schedules.

use pep_serve::bench::due_offsets;
use psta_perfbench::{cold_set, serve_bases, serve_hits, serve_miss, serve_requests, whatif_ops};

/// A stable text rendering of an input list, for byte-identity checks.
fn describe<T: std::fmt::Debug>(items: &[T]) -> String {
    items.iter().map(|item| format!("{item:?}\n")).collect()
}

fn names(n: usize, prefix: &str) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// Every generated input of one seed, as one text.
fn inputs_text(seed: u64) -> String {
    let mut text = String::new();
    let hits = serve_hits(seed);
    for c in cold_set(seed)
        .iter()
        .chain(&serve_bases(seed))
        .chain(&hits)
        .chain(&[serve_miss(seed, 0, &hits), serve_miss(seed, 1, &hits)])
    {
        text.push_str(&format!("{} {}\n{}", c.name, c.delay_seed, c.bench));
    }
    text.push_str(&describe(&whatif_ops(
        seed,
        [9_772, 19_253],
        [611, 1_464],
        2,
    )));
    let (g, i) = (names(50, "g"), names(10, "i"));
    text.push_str(&describe(&serve_requests(
        seed,
        0xA,
        300,
        0,
        [&g, &g],
        [&i, &i],
    )));
    text.push_str(&describe(&due_offsets(20.0, seed, 300)));
    text
}

#[test]
fn same_seed_same_bytes() {
    assert_eq!(inputs_text(7), inputs_text(7));
}

#[test]
fn another_seed_other_inputs() {
    let a = cold_set(7);
    let b = cold_set(8);
    for (x, y) in a.iter().zip(&b) {
        // Structure is the profile's own; the delays follow the seed.
        assert_eq!(x.bench, y.bench, "{} text", x.name);
        assert_ne!(x.delay_seed, y.delay_seed, "{} delay seed", x.name);
    }
    let ops = |s| describe(&whatif_ops(s, [100, 100], [10, 10], 1));
    assert_ne!(ops(7), ops(8));
    let (g, i) = (names(50, "g"), names(10, "i"));
    let reqs = |s| describe(&serve_requests(s, 0xA, 100, 0, [&g, &g], [&i, &i]));
    assert_ne!(reqs(7), reqs(8));
    assert_ne!(
        describe(&due_offsets(20.0, 7, 50)),
        describe(&due_offsets(20.0, 8, 50))
    );
}

#[test]
fn serve_circuits_never_share_a_cache_key() {
    let hits = serve_hits(3);
    let mut keys: Vec<(String, u64)> = serve_bases(3)
        .into_iter()
        .chain(hits.clone())
        .chain((0..40).map(|i| serve_miss(3, i, &hits)))
        .map(|c| (c.name, c.delay_seed))
        .collect();
    let n = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), n);
}

#[test]
fn whatif_stream_commits_a_third_in_chains_past_compaction() {
    let ops = whatif_ops(3, [100, 100], [10, 10], 2);
    let commits = ops
        .iter()
        .filter(|o| matches!(o, psta_perfbench::WhatifOp::Commit { .. }))
        .count();
    let share = commits as f64 / ops.len() as f64;
    assert!((0.33..0.35).contains(&share), "commit share {share}");
    const { assert!(psta_perfbench::CHAIN_LEN > 64) };
}

#[test]
fn serve_mix_matches_the_stated_shares() {
    let (g, i) = (names(50, "g"), names(10, "i"));
    let reqs = serve_requests(5, 0xA, 200, 0, [&g, &g], [&i, &i]);
    let count = |f: fn(&psta_perfbench::ServeReq) -> bool| reqs.iter().filter(|r| f(r)).count();
    use psta_perfbench::ServeReq::*;
    assert_eq!(count(|r| matches!(r, Delta { .. })), 120);
    assert_eq!(count(|r| matches!(r, Hit { .. })), 50);
    assert_eq!(count(|r| matches!(r, Miss { .. })), 20);
    assert_eq!(count(|r| matches!(r, Health)), 10);
}
