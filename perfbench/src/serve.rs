//! `serve-mixed`: one in-process `pep_serve::serve` (2 workers, job
//! `threads: 1`) on loopback, driven by one client thread over at most
//! two keep-alive connections with one fixed request mix — about 60%
//! delta requests against two retained bases, 25% cold analyses of a
//! small rotating set (circuit-cache hits), 10% never-seen circuits
//! (misses: parse and annotate) and 5% `GET /healthz`.
//!
//! Phase A is open-loop at a fixed rate below the knee; latency is
//! timed from each request's due instant. Phase B is closed-loop on the
//! same mix and gives the capacity. Heavy and cheap requests share one
//! queue, so head-of-line blocking shows. The router is left out: with
//! router, shards, workers and client, two cores would be
//! oversubscribed.

use crate::cold::accuracy;
use crate::counter::{self, measured};
use crate::layers::Layers;
use crate::report::{peak_rss_mb, Outcome};
use pep_celllib::{DelayModel, Timing};
use pep_core::{try_analyze, AnalysisConfig, PepAnalysis};
use pep_netlist::{parse_bench, Netlist};
use pep_serve::{serve, JobResult, JobStatus, ServeConfig, ServerHandle};
use psta_perfbench::{
    cold_with_arrivals, gates_by_level, median, quantile, serve_bases, serve_hits, serve_miss,
    serve_requests, CircuitInput, Override, ServeReq,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Phase-A arrival rate (requests/s): well below the knee of this mix
/// (about 45 req/s with two workers on two cores), so host noise moves
/// queueing little.
const RATE: f64 = 15.0;

/// Length of the closed-loop phase B of a run of `seconds`.
fn phase_b_secs(seconds: f64) -> f64 {
    (seconds * (1.0 - PHASE_A_SHARE)).max(1.0)
}

/// Phase-A latency limit (from the due instant) of the SLO.
const SLO_MS: f64 = 1000.0;

/// Share of the run spent in the open-loop phase A.
const PHASE_A_SHARE: f64 = 0.65;

/// Set-ups at the start of a run and after each phase; `setup_s` is
/// the median of all of them.
const SETUPS: usize = 5;

/// Untimed closed-loop warm-up before phase A.
const WARM_UP: Duration = Duration::from_secs(2);

/// Keep-alive connections of the client.
const CONNS: usize = 2;

/// Every this many delta requests, one is checked in-process.
const CHECK_DELTA_EVERY: usize = 8;

/// Delta requests, and cold (cache-hit) requests per rotating-set
/// circuit, sent one at a time after phase B to count their
/// instructions.
const ALONE_DELTAS: usize = 80;
const ALONE_HITS_EACH: usize = 2;

/// Phase-B requests generated per second of phase B: far above the
/// mix's capacity (about 45 req/s), so the requests never run out and
/// phase B always lasts its full time.
const PHASE_B_MAX_RATE: f64 = 500.0;

/// Per-response deadline; a stuck server fails the run instead of
/// hanging it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

fn job_config() -> AnalysisConfig {
    AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    }
}

fn full_body(c: &CircuitInput, retain: bool) -> String {
    format!(
        "{{\"bench\": {}, \"name\": {}, \"seed\": {}, \"config\": {{\"threads\": 1}}{}}}",
        serde::json::to_string(&*c.bench),
        serde::json::to_string(&c.name),
        c.delay_seed,
        if retain { ", \"retain\": true" } else { "" }
    )
}

fn delta_body(base: &str, overrides: &[Override]) -> String {
    let items: Vec<String> = overrides
        .iter()
        .map(|o| match o {
            Override::Scale { gate, factor } => {
                format!(
                    "{{\"gate\": {}, \"scale\": {factor:?}}}",
                    serde::json::to_string(gate)
                )
            }
            Override::Arrival { input, ticks } => {
                format!(
                    "{{\"input\": {}, \"arrival_ticks\": {ticks}}}",
                    serde::json::to_string(input)
                )
            }
        })
        .collect();
    format!(
        "{{\"base\": {}, \"overrides\": [{}]}}",
        serde::json::to_string(base),
        items.join(", ")
    )
}

fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut r = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    r.extend_from_slice(body.as_bytes());
    r
}

/// One parsed response.
struct Reply {
    status: u16,
    body: Vec<u8>,
}

/// Splits one complete response off the front of `buf`, if there is one.
fn take_reply(buf: &mut Vec<u8>) -> Result<Option<Reply>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let len = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or("response without content-length")?;
    if buf.len() < head_end + 4 + len {
        return Ok(None);
    }
    let body = buf[head_end + 4..head_end + 4 + len].to_vec();
    buf.drain(..head_end + 4 + len);
    Ok(Some(Reply { status, body }))
}

/// A keep-alive client connection with at most one request in flight.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    inflight: Option<Pending>,
}

struct Pending {
    index: usize,
    due: Instant,
    sent: Instant,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            inflight: None,
        })
    }

    fn send(&mut self, bytes: &[u8], pending: Pending) -> Result<(), String> {
        let mut off = 0;
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        while off < bytes.len() {
            match self.stream.write(&bytes[off..]) {
                Ok(0) => return Err("connection closed while sending".into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(50))
                }
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        self.inflight = Some(pending);
        Ok(())
    }

    /// Reads what has arrived; returns a completed reply, if any.
    fn poll(&mut self) -> Result<Option<(Pending, Reply)>, String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed by server".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        if let Some(reply) = take_reply(&mut self.buf)? {
            let pending = self.inflight.take().ok_or("reply without a request")?;
            return Ok(Some((pending, reply)));
        }
        if let Some(p) = &self.inflight {
            if p.sent.elapsed() > RESPONSE_TIMEOUT {
                return Err("response timed out".into());
            }
        }
        Ok(None)
    }
}

/// One completed (or failed) request.
struct Done {
    index: usize,
    /// From the due instant (phase A) or the send (phase B), ms.
    latency_ms: f64,
    /// From the send, ms.
    service_ms: f64,
    status: u16,
    body: Vec<u8>,
    error: Option<String>,
}

/// The server under test, its retained bases and the inputs behind them.
struct Fixture {
    server: ServerHandle,
    addr: String,
    base_keys: Vec<String>,
    base_digests: Vec<String>,
}

fn start(bases: &[CircuitInput]) -> Result<Fixture, String> {
    let server = serve(ServeConfig {
        workers: 2,
        cache_entries: 256,
        state_bytes: 1 << 30,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve: {e}"))?;
    let addr = server.local_addr().to_string();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match pep_serve::client::request(&addr, "GET", "/readyz", None) {
            Ok(r) if r.status == 200 => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            _ => return Err("server never became ready".into()),
        }
    }
    let mut base_keys = Vec::new();
    let mut base_digests = Vec::new();
    for b in bases {
        let r = pep_serve::client::request(&addr, "POST", "/analyze", Some(&full_body(b, true)))
            .map_err(|e| format!("retain: {e}"))?;
        let result = job_result(&r.body).map_err(|e| format!("retain reply {}: {e}", r.status))?;
        base_keys.push(result.base.ok_or("retain reply without a base key")?);
        base_digests.push(result.groups_digest);
    }
    Ok(Fixture {
        server,
        addr,
        base_keys,
        base_digests,
    })
}

/// The result inside a synchronous `POST /analyze` reply (a job status).
fn job_result(body: &str) -> Result<JobResult, String> {
    let status: JobStatus = serde::json::from_str_as(body).map_err(|e| e.to_string())?;
    status
        .result
        .ok_or_else(|| format!("job {} ended {}", status.id, status.state))
}

/// Names of a netlist's gates (sorted by level) and primary inputs.
fn names(netlist: &Netlist) -> (Vec<String>, Vec<String>) {
    let gates = gates_by_level(netlist)
        .into_iter()
        .map(|n| netlist.node_name(n).to_owned())
        .collect();
    let inputs = netlist
        .primary_inputs()
        .iter()
        .map(|&n| netlist.node_name(n).to_owned())
        .collect();
    (gates, inputs)
}

/// Everything the requests of a run refer to.
struct Inputs {
    bases: Vec<CircuitInput>,
    base_netlists: Vec<Netlist>,
    hits: Vec<CircuitInput>,
    misses: Vec<CircuitInput>,
}

impl Inputs {
    fn circuit(&self, req: &ServeReq) -> Option<&CircuitInput> {
        match req {
            ServeReq::Hit { circuit } => Some(&self.hits[*circuit]),
            ServeReq::Miss { circuit } => Some(&self.misses[*circuit]),
            _ => None,
        }
    }
}

/// The bytes of `req` on the wire (built at send time: the phase-B
/// list is long and a cold request carries a whole `.bench` text).
fn wire(inputs: &Inputs, req: &ServeReq, keys: &[String]) -> Vec<u8> {
    match req {
        ServeReq::Delta { base, overrides } => {
            http_request("POST", "/analyze", &delta_body(&keys[*base], overrides))
        }
        ServeReq::Hit { .. } | ServeReq::Miss { .. } => http_request(
            "POST",
            "/analyze",
            &full_body(inputs.circuit(req).expect("a cold request"), false),
        ),
        ServeReq::Health => http_request("GET", "/healthz", ""),
    }
}

/// Drives one phase. `due` holds open-loop offsets; `None` runs closed
/// loop for `duration`. Returns completions and the generator's largest
/// lateness in noticing a due instant.
fn drive(
    addr: &str,
    reqs: &[ServeReq],
    wire: impl Fn(&ServeReq) -> Vec<u8>,
    due: Option<&[Duration]>,
    duration: Duration,
) -> Result<(Vec<Done>, f64), String> {
    let mut conns = (0..CONNS)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut done = Vec::new();
    let mut next = 0;
    let mut noticed = 0;
    let mut lag_max: f64 = 0.0;
    let t0 = Instant::now();
    let limit = due.map_or(reqs.len(), |d| d.len().min(reqs.len()));
    loop {
        let now = Instant::now();
        if let Some(due) = due {
            while noticed < limit && t0 + due[noticed] <= now {
                lag_max = lag_max.max((now - (t0 + due[noticed])).as_secs_f64() * 1e3);
                noticed += 1;
            }
        }
        let issuing = due.is_some() || now - t0 < duration;
        for c in conns.iter_mut() {
            if c.inflight.is_none() && next < limit && issuing {
                let due_at = match due {
                    Some(d) if t0 + d[next] > now => continue,
                    Some(d) => t0 + d[next],
                    None => now,
                };
                let sent = Instant::now();
                c.send(
                    &wire(&reqs[next]),
                    Pending {
                        index: next,
                        due: due_at,
                        sent,
                    },
                )?;
                next += 1;
            }
        }
        let mut busy = false;
        for c in conns.iter_mut() {
            if c.inflight.is_none() {
                continue;
            }
            busy = true;
            match c.poll() {
                Ok(Some((pending, reply))) => {
                    let end = Instant::now();
                    done.push(Done {
                        index: pending.index,
                        latency_ms: (end - pending.due).as_secs_f64() * 1e3,
                        service_ms: (end - pending.sent).as_secs_f64() * 1e3,
                        status: reply.status,
                        body: reply.body,
                        error: None,
                    });
                }
                Ok(None) => {}
                Err(e) => {
                    let pending = c.inflight.take().expect("polled only while in flight");
                    done.push(Done {
                        index: pending.index,
                        latency_ms: f64::INFINITY,
                        service_ms: f64::INFINITY,
                        status: 0,
                        body: Vec::new(),
                        error: Some(e),
                    });
                    *c = Conn::open(addr)?;
                }
            }
        }
        let finished = if due.is_some() {
            next >= limit
        } else {
            !issuing || next >= limit
        };
        if finished && !busy {
            break;
        }
        std::thread::sleep(Duration::from_micros(250));
    }
    Ok((done, lag_max))
}

/// Sends each of `bodies` to `/analyze` alone and counts the
/// instructions until its reply. The server is otherwise idle, so the
/// process's count is the request's, client side included.
fn one_at_a_time(addr: &str, bodies: &[String], out: &mut Outcome) -> Result<Vec<f64>, String> {
    let mut minstr = Vec::new();
    for body in bodies {
        let (r, cost) =
            measured(|| pep_serve::client::request(addr, "POST", "/analyze", Some(body)));
        let r = r.map_err(|e| e.to_string())?;
        out.attempted += 1;
        if r.status == 200 {
            minstr.push(cost.minstr);
        } else {
            out.failed += 1;
            eprintln!("request sent alone failed: status {}", r.status);
        }
    }
    Ok(minstr)
}

/// Counters and histogram sums of one `/metrics` scrape.
fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let r = pep_serve::client::request(addr, "GET", "/metrics", None).map_err(|e| e.to_string())?;
    Ok(r.body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(k, v)| v.parse::<f64>().ok().map(|v| (k.to_owned(), v)))
        .collect())
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

fn phase_ms(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, phase: &str) -> f64 {
    delta(
        before,
        after,
        &format!("pep_serve_phase_seconds{{phase=\"{phase}\"}}"),
    ) * 1e3
}

/// In-process digest of one served analysis (`None` when it fails).
fn reference_digest(inputs: &Inputs, req: &ServeReq, spans: Option<&mut Layers>) -> Option<String> {
    let config = job_config();
    let (netlist, timing, arrivals, step_from) = match req {
        ServeReq::Health => return None,
        ServeReq::Hit { .. } | ServeReq::Miss { .. } => {
            let c = inputs.circuit(req).expect("a cold request");
            let (netlist, timing) = crate::layers::load(c, spans).ok()?;
            (netlist, timing, Vec::new(), None)
        }
        ServeReq::Delta { base, overrides } => {
            let c = &inputs.bases[*base];
            let netlist = inputs.base_netlists[*base].clone();
            let base_timing = Timing::annotate(&netlist, &DelayModel::dac2001(c.delay_seed));
            let mut timing = base_timing.clone();
            let mut arrivals = Vec::new();
            for o in overrides {
                match o {
                    Override::Scale { gate, factor } => {
                        timing.scale_cell(netlist.node_id(gate)?, *factor).ok()?
                    }
                    Override::Arrival { input, ticks } => {
                        arrivals.push((netlist.node_id(input)?, *ticks))
                    }
                }
            }
            (netlist, timing, arrivals, Some(base_timing))
        }
    };
    let analysis = match step_from {
        None => try_analyze(&netlist, &timing, &config).ok()?,
        Some(base_timing) => {
            // A delta answers on its base's pinned grid.
            let config = AnalysisConfig {
                step_override: Some(base_timing.step_for_samples(config.samples)),
                ..config
            };
            cold_with_arrivals(&netlist, &timing, &config, &arrivals)
        }
    };
    Some(format!(
        "{:016x}",
        pep_serve::api::groups_digest(&netlist, &analysis)
    ))
}

/// Runs the workload for `seconds` and returns its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bases = serve_bases(seed);
    let base_netlists: Vec<Netlist> = bases
        .iter()
        .map(|b| parse_bench(&b.name, &b.bench).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let (g0, i0) = names(&base_netlists[0]);
    let (g1, i1) = names(&base_netlists[1]);
    // Phase A, phase B and the warm-up in this order; misses are
    // numbered on across them, so every miss is a new circuit.
    let mut n_miss = 0;
    let mut requests = |salt: u64, n: f64| {
        let reqs = serve_requests(
            seed,
            salt,
            n.ceil() as usize,
            n_miss,
            [&g0, &g1],
            [&i0, &i1],
        );
        n_miss += reqs
            .iter()
            .filter(|r| matches!(r, ServeReq::Miss { .. }))
            .count();
        reqs
    };
    let reqs_a = requests(0xA, RATE * seconds * PHASE_A_SHARE);
    let reqs_b = requests(0xB, PHASE_B_MAX_RATE * phase_b_secs(seconds));
    let reqs_w = requests(0xC, PHASE_B_MAX_RATE * WARM_UP.as_secs_f64());
    let hits = serve_hits(seed);
    let inputs = Inputs {
        misses: (0..n_miss).map(|i| serve_miss(seed, i, &hits)).collect(),
        hits,
        bases,
        base_netlists,
    };

    // Set-up: server start to `/readyz` 200 plus the two retains,
    // SETUPS times; the last server is kept. SETUPS more servers are
    // started and stopped after each phase, so the samples of `setup_s`
    // (their median) cover the whole run and not only the host's state
    // at its start.
    let mut setups = Vec::new();
    let mut fixture: Option<Fixture> = None;
    for _ in 0..SETUPS {
        if let Some(f) = fixture.take() {
            f.server.shutdown_and_join();
        }
        fixture = Some(timed_start(&inputs.bases, &mut setups, &mut out)?);
    }
    let fx = fixture.expect("set-up ran");
    let result = measure(
        seed,
        &inputs,
        &fx,
        [reqs_w, reqs_a, reqs_b],
        seconds,
        traced,
        &mut setups,
        &mut out,
    );
    out.set("setup_s", median(&setups));
    let summary = fx.server.shutdown_and_join();
    if !summary.clean {
        out.check(false, "server did not drain cleanly");
    }
    result.map(|()| out)
}

/// One set-up (see [`start`]), timed into `setups`.
fn timed_start(
    bases: &[CircuitInput],
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<Fixture, String> {
    let t = Instant::now();
    let fx = start(bases)?;
    setups.push(t.elapsed().as_secs_f64());
    out.attempted += 2;
    Ok(fx)
}

/// SETUPS timed set-ups of servers that are stopped again at once.
fn extra_setups(
    bases: &[CircuitInput],
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    for _ in 0..SETUPS {
        let fx = timed_start(bases, setups, out)?;
        out.check(fx.server.shutdown_and_join().clean, "set-up server drained");
    }
    Ok(())
}

/// The warm-up, phase A and phase B (`[reqs_w, reqs_a, reqs_b]`) on
/// `fx`, then the requests sent alone; extra set-ups after each phase.
#[allow(clippy::too_many_arguments)]
fn measure(
    seed: u64,
    inputs: &Inputs,
    fx: &Fixture,
    [reqs_w, reqs_a, reqs_b]: [Vec<ServeReq>; 3],
    seconds: f64,
    traced: bool,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    // Warm the rotating set into the circuit cache (not measured).
    for c in &inputs.hits {
        let r =
            pep_serve::client::request(&fx.addr, "POST", "/analyze", Some(&full_body(c, false)))
                .map_err(|e| e.to_string())?;
        out.check(r.status == 200, "rotating-set warm-up");
    }
    let to_wire = |req: &ServeReq| wire(inputs, req, &fx.base_keys);
    // Warm-up: the same mix closed loop for a fixed time, untimed.
    for d in drive(&fx.addr, &reqs_w, to_wire, None, WARM_UP)?.0 {
        out.attempted += 1;
        if d.error.is_some() || d.status != 200 {
            out.failed += 1;
            eprintln!("warm-up request failed: {:?} status {}", d.error, d.status);
        }
    }
    let due = pep_serve::bench::due_offsets(RATE, seed, reqs_a.len());

    let m0 = scrape(&fx.addr)?;
    let (done_a, lag_max) = drive(&fx.addr, &reqs_a, to_wire, Some(&due), Duration::ZERO)?;
    let m1 = scrape(&fx.addr)?;
    extra_setups(&inputs.bases, setups, out)?;
    let b_instr = counter::now();
    let b_started = Instant::now();
    let b_secs = phase_b_secs(seconds);
    let (done_b, _) = drive(
        &fx.addr,
        &reqs_b,
        to_wire,
        None,
        Duration::from_secs_f64(b_secs),
    )?;
    let b_wall = b_started.elapsed().as_secs_f64();
    let b_minstr = counter::minstr_since(b_instr);
    let m2 = scrape(&fx.addr)?;
    extra_setups(&inputs.bases, setups, out)?;
    let deltas: Vec<String> = reqs_a
        .iter()
        .filter_map(|r| match r {
            ServeReq::Delta { base, overrides } => {
                Some(delta_body(&fx.base_keys[*base], overrides))
            }
            _ => None,
        })
        .take(ALONE_DELTAS)
        .collect();
    let delta_minstr = one_at_a_time(&fx.addr, &deltas, out)?;
    let hits: Vec<String> = (0..ALONE_HITS_EACH)
        .flat_map(|_| inputs.hits.iter().map(|c| full_body(c, false)))
        .collect();
    let hit_minstr = one_at_a_time(&fx.addr, &hits, out)?;
    let rss = peak_rss_mb();

    // Outcomes and correctness, outside the timed phases.
    let mut latencies = Vec::new();
    let mut what_if = Vec::new();
    let mut heavy = Vec::new();
    let mut missed = 0usize;
    let mut compute = Vec::new();
    let mut overhead = Vec::new();
    let mut healthz = Vec::new();
    let mut resp_bytes = Vec::new();
    let mut dirty = Vec::new();
    let mut supergates = 0.0;
    let mut stems = 0.0;
    let mut spans = Layers::new();
    let mut deltas_seen = 0usize;
    let mut ok_b = 0usize;
    let mut service: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (phase, done, reqs) in [("A", &done_a, &reqs_a), ("B", &done_b, &reqs_b)] {
        for d in done {
            let req = &reqs[d.index];
            out.attempted += 1;
            let ok = d.error.is_none() && d.status == 200;
            if !ok {
                out.failed += 1;
                eprintln!(
                    "phase {phase} request {} failed: {:?} status {}",
                    d.index, d.error, d.status
                );
            }
            if phase == "A" && (!ok || d.latency_ms > SLO_MS) {
                missed += 1;
            }
            if !ok {
                continue;
            }
            if phase == "B" {
                ok_b += 1;
            } else {
                let kind = match req {
                    ServeReq::Delta { .. } => "delta",
                    ServeReq::Hit { .. } => "hit",
                    ServeReq::Miss { .. } => "miss",
                    ServeReq::Health => "healthz",
                };
                service.entry(kind).or_default().push(d.service_ms);
                latencies.push(d.latency_ms);
                match req {
                    ServeReq::Delta { .. } => what_if.push(d.latency_ms),
                    ServeReq::Hit { .. } | ServeReq::Miss { .. } => heavy.push(d.latency_ms),
                    ServeReq::Health => {}
                }
                resp_bytes.push(d.body.len() as f64);
            }
            if matches!(req, ServeReq::Health) {
                if phase == "A" {
                    healthz.push(d.latency_ms);
                }
                out.check(d.body == b"ok\n", "healthz body");
                continue;
            }
            let result = match std::str::from_utf8(&d.body)
                .map_err(|e| e.to_string())
                .and_then(job_result)
            {
                Ok(r) => r,
                Err(e) => {
                    out.check(false, &format!("unparsable analyze reply: {e}"));
                    continue;
                }
            };
            if phase == "A" {
                compute.push(result.elapsed_ms as f64);
                overhead.push(d.service_ms - result.elapsed_ms as f64);
                supergates += result.supergates as f64;
                stems += result.stems_conditioned as f64;
                if let Some(n) = result.dirty_nodes {
                    dirty.push(n as f64);
                }
            }
            let check = match req {
                ServeReq::Delta { .. } => {
                    deltas_seen += 1;
                    deltas_seen % CHECK_DELTA_EVERY == 1
                }
                // Every cold reply of phase A is checked; phase B's
                // cache misses are too, and they time the in-process
                // parse and annotate the server's misses pay.
                _ => phase == "A" || matches!(req, ServeReq::Miss { .. }),
            };
            if check {
                let miss_a = phase == "A" && matches!(req, ServeReq::Miss { .. });
                let want = reference_digest(inputs, req, miss_a.then_some(&mut spans));
                out.check(
                    want.as_deref() == Some(result.groups_digest.as_str()),
                    &format!("served groups_digest of {req:?} differs from an in-process analysis"),
                );
            }
        }
    }
    out.check(
        done_a.len() == reqs_a.len(),
        "every phase-A request completed",
    );
    // The retained bases, in process: their digests must match what the
    // server retained, and they are what the accuracy metric scores.
    let mut bases = Vec::new();
    for ((c, netlist), want) in inputs
        .bases
        .iter()
        .zip(&inputs.base_netlists)
        .zip(&fx.base_digests)
    {
        let timing = Timing::annotate(netlist, &DelayModel::dac2001(c.delay_seed));
        let analysis = try_analyze(netlist, &timing, &job_config()).map_err(|e| e.to_string())?;
        let digest = format!("{:016x}", pep_serve::api::groups_digest(netlist, &analysis));
        out.check(&digest == want, "retained base digest");
        bases.push((netlist, timing, analysis));
    }

    let n_a = done_a.len().max(1) as f64;
    if traced {
        let cache_hits = delta(&m0, &m1, "pep_serve_cache_hits_total");
        let cache_misses = delta(&m0, &m1, "pep_serve_cache_misses_total");
        let state_hits = delta(&m0, &m1, "pep_serve_state_hits_total");
        let state_misses = delta(&m0, &m1, "pep_serve_state_misses_total");
        out.set("serve.compute_ms.p50", median(&compute));
        out.set("serve.overhead_ms.p50", median(&overhead));
        out.set("serve.overhead_ms.p90", quantile(&overhead, 0.9));
        out.set("serve.healthz_ms.p90", quantile(&healthz, 0.9));
        out.set("serve.resp_bytes.p50", median(&resp_bytes));
        out.set(
            "serve.cache_hit_ratio",
            cache_hits / (cache_hits + cache_misses).max(1.0),
        );
        out.set(
            "serve.state_hit_ratio",
            state_hits / (state_hits + state_misses).max(1.0),
        );
        out.set("serve.shed", delta(&m0, &m2, "pep_serve_jobs_shed_total"));
        out.set(
            "serve.http_errors",
            delta(&m0, &m2, "pep_serve_http_errors_total"),
        );
        out.set("serve.slo_miss_ratio", missed as f64 / n_a);
        out.set("serve.generator_lag_ms.max", lag_max);
        out.set("incr.dirty_nodes.p50", median(&dirty));
        out.set("core.supergates", supergates);
        out.set("core.stems_conditioned", stems);
        // Engine layers inside the server, from its phase rollup over
        // phase A.
        let extract = phase_ms(&m0, &m1, "supergate-extract");
        let sampling = phase_ms(&m0, &m1, "sampling-eval");
        let runs = |p: &str| delta(&m0, &m1, &format!("pep_serve_phase_runs{{phase=\"{p}\"}}"));
        let mut engine = Layers::new();
        engine.insert("netlist.levelize_ms", phase_ms(&m0, &m1, "levelize"));
        engine.insert("core.arcs_ms", phase_ms(&m0, &m1, "arc-pmf-build"));
        engine.insert("netlist.supergate_extract_ms", extract);
        engine.insert("netlist.supergate_extract_calls", runs("supergate-extract"));
        engine.insert("core.sampling_eval_ms", sampling);
        engine.insert("core.sampling_eval_calls", runs("sampling-eval"));
        engine.insert(
            "core.schedule_self_ms",
            phase_ms(&m0, &m1, "propagate") + phase_ms(&m0, &m1, "incremental-propagate")
                - extract
                - sampling,
        );
        let job_ms = delta(&m0, &m1, "pep_serve_job_seconds_sum") * 1e3;
        let attributed = crate::layers::engine_attributed_ms(&engine)
            + spans.get("netlist.parse_ms").unwrap_or(&0.0)
            + spans.get("celllib.annotate_ms").unwrap_or(&0.0);
        out.values.extend(engine);
        out.values.extend(spans);
        out.set("unattributed_ms", job_ms - attributed);
        return Ok(());
    }

    // Accuracy covers every circuit the mix keeps serving: both bases
    // and the rotating set (their served digests were checked above).
    let mut scored: Vec<(Netlist, Timing, PepAnalysis)> = Vec::new();
    for c in &inputs.hits {
        let (netlist, timing) = crate::layers::load(c, None)?;
        let analysis = try_analyze(&netlist, &timing, &job_config()).map_err(|e| e.to_string())?;
        scored.push((netlist, timing, analysis));
    }
    let refs: Vec<_> = bases
        .iter()
        .map(|(n, t, a)| (*n, t, a))
        .chain(scored.iter().map(|(n, t, a)| (n, t, a)))
        .collect();
    let (mean, sigma) = accuracy(&refs, seed);

    // The gated metrics count instructions (see `counter`): per
    // request over phase B, and per request of the two main kinds sent
    // one at a time. The latencies are printed beside them; the what-if
    // class is 60% of the mix, and over all requests the median falls
    // in the sparse gap between cheap deltas and cold analyses.
    out.set_named(
        "minstr_per_op",
        "serve.minstr_per_request",
        b_minstr / ok_b.max(1) as f64,
    );
    out.set_named("heavy_minstr", "serve.cold_minstr.p50", median(&hit_minstr));
    out.set_named(
        "light_minstr.p50",
        "serve.whatif_minstr.p50",
        median(&delta_minstr),
    );
    out.note("serve.whatif_latency_ms.p50", median(&what_if), "ms");
    out.note("serve.whatif_latency_ms.p90", quantile(&what_if, 0.9), "ms");
    out.note("serve.latency_ms.p50", median(&latencies), "ms");
    out.note("serve.latency_ms.p90", quantile(&latencies, 0.9), "ms");
    out.note("serve.cold_latency_ms.p50", median(&heavy), "ms");
    out.note("serve.capacity_rps", ok_b as f64 / b_wall, "1/s");
    out.set_named("peak_rss_mb", "serve.peak_rss_mb", rss);
    out.set_named("accuracy.mean_err_pct", "accuracy.mean_err_pct", mean);
    out.set_named("accuracy.sigma_err_pct", "accuracy.sigma_err_pct", sigma);
    out.note("serve.slo_miss_ratio", missed as f64 / n_a, "ratio");
    for (kind, ms) in &service {
        out.note(format!("serve.{kind}_service_ms.p50"), median(ms), "ms");
    }
    out.note("serve.phase_a_requests", n_a, "count");
    out.note("serve.phase_b_ok", ok_b as f64, "count");
    Ok(())
}
