//! `perfbench` — the repository benchmark: open-loop HTTP traffic against
//! the real `serve --listen`, retrain → rename → reload cycles beside live
//! traffic, and a traced run that attributes the time to layers.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --serve <path to serve>
//! ```
//!
//! Every run of a workload goes through the same phases:
//!
//! 1. **setup** (three times; the median is `setup_s`): generate the
//!    inputs from the seed, `serve --train` generation 1, spawn
//!    `serve --listen`, wait for `/healthz`;
//! 2. **light** and **heavy**: Poisson open-loop traffic at the
//!    workload's two fixed rates, each for 40% of `--seconds` in
//!    alternating rounds on the setup server, then a short closed loop
//!    for the serving CPU cost;
//! 3. **refresh**: `cycles` × (`serve --train --delta … --generation n`,
//!    atomic rename, `POST /admin/reload`, a fixed probe set) while a
//!    light-rate stream runs beside them;
//! 4. **quality**: every held-out user's basket as a cold request
//!    (`cold_recall_at_10`) and recall@50 of the reloaded model on the
//!    held-out split (`recall_at_50`).
//!
//! Every reply is checked; see `check.rs`. The result line carries the
//! gated end-to-end metrics; the serving figures, which host contention
//! moves by more than any bound, are in the report (see the README). With
//! `--trace 1` the run also replays the recorded request bytes and a
//! retrain cycle in process (`replay.rs`) and prints the per-layer metrics
//! instead of the end-to-end ones. The last line of standard output is
//! the result object; the line before it is the full report.

mod check;
mod client;
mod host;
mod inputs;
mod replay;
mod rng;
mod server;
mod stats;
mod trace;
mod workloads;

use client::{format_request, open_loop, Conn, Reply, Sample};
use inputs::{schedule, Ask, Inputs, ITEM_ID_BASE};
use ocular_serve::json::{obj, Json};
use ocular_serve::{shard_path, AnySnapshot, WireRequest};
use replay::{EngineLayers, EngineShape};
use server::Server;
use stats::{median, percentile, quiet_median};
use std::net::SocketAddr;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::process::{ExitCode, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::Trace;
use workloads::{Workload, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of `--seconds` each of the light and heavy phases runs.
const PHASE_SHARE: f64 = 0.4;
/// Open-loop warm-up before each measured phase, at the light rate.
const WARMUP_SECONDS: f64 = 0.5;
/// How long after its last due time a request may still be answered.
const GRACE: Duration = Duration::from_secs(3);
/// Length of the refresh stream's schedule; the stream stops when the
/// cycles end, long before this.
const REFRESH_SCHEDULE_SECONDS: f64 = 600.0;
/// Fixed probe set sent after every reload.
const PROBE_WARM: usize = 16;
const PROBE_COLD: usize = 16;
/// Recorded requests per phase that the traced run replays in process.
const REPLAY_PER_PHASE: usize = 2000;
/// `POST /admin/reload` calls after each retrain; `reload_ms` is their
/// median over all cycles.
const RELOADS_PER_CYCLE: usize = 3;
/// Latency metrics are taken over the requests due in the quietest
/// windows of this length: those in which the hypervisor took no CPU from
/// this machine (`steal` in `/proc/stat`), or at least [`QUIET_SHARE`] of
/// the requests. On a shared host, stolen time adds latency that says
/// nothing about the program and varies from minute to minute; a slower
/// program is slower in every window.
const WINDOW_NS: u64 = 100_000_000;
/// Time after a window's end that its requests may still be in flight.
const WINDOW_TAIL_NS: u64 = 20_000_000;
/// Least share of a phase's requests the latency metrics are taken over.
const QUIET_SHARE: f64 = 0.25;
/// Alternating light/heavy rounds the two measured phases are split into.
const ROUNDS: u64 = 8;
/// Length of the closed-loop run that measures the saturated throughput.
const CLOSED_LOOP: Duration = Duration::from_millis(1500);
/// Least CPU time (clock ticks, 10 ms each) the in-process request-path
/// measurement accrues, so the tick is at most 1% of it.
const REQUEST_CPU_TICKS: u64 = 100;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == key)?;
        argv.get(i + 1).cloned()
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let name = get("--workload").ok_or(format!("--workload is required ({names:?})"))?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload `{name}` ({names:?})"))?;
    let num = |v: Option<String>, key: &str, default: u64| -> Result<u64, String> {
        v.map_or(Ok(default), |s| {
            s.parse()
                .map_err(|_| format!("{key} must be a whole number"))
        })
    };
    let seed = num(get("--seed"), "--seed", 1)?;
    let seconds = num(get("--seconds"), "--seconds", 16)?.max(1);
    let trace = match num(get("--trace"), "--trace", 0)? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let serve = get("--serve").map(PathBuf::from).unwrap_or_else(|| {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        Path::new(&target).join("release").join("serve")
    });
    if !serve.is_file() {
        return Err(format!("no serve binary at {}", serve.display()));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        serve,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((report, result)) => {
            println!("{report}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sent / succeeded / shed / failed accounting of one phase.
#[derive(Default)]
struct Phase {
    name: &'static str,
    sent: u64,
    succeeded: u64,
    shed: u64,
    timeouts: u64,
    errors: u64,
    mismatches: u64,
    first_problem: Option<String>,
    /// `(due_ns, latency_us)` of every succeeded request.
    latency_us: Vec<(u64, f64)>,
    round_trip_us: Vec<f64>,
    late_us: Vec<f64>,
    /// `(ns on the phase's timeline, host steal ticks)`.
    steal: Vec<(u64, u64)>,
    /// CPU ticks the server used while the phase ran.
    server_cpu_ticks: u64,
}

impl Phase {
    fn new(name: &'static str) -> Phase {
        Phase {
            name,
            ..Phase::default()
        }
    }

    fn failed(&self) -> u64 {
        self.sent - self.succeeded
    }

    fn problem(&mut self, what: String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(what);
        }
    }

    /// Counts one reply that the caller already checked.
    fn count(&mut self, reply: Option<&Reply>, check: Result<(), String>) {
        self.sent += 1;
        match (reply, check) {
            (None, Err(e)) => {
                self.timeouts += 1;
                self.problem(e);
            }
            (Some(r), Err(e)) if r.status == 429 => {
                self.shed += 1;
                self.problem(e);
            }
            (Some(r), Err(e)) if r.status != 200 => {
                self.errors += 1;
                self.problem(e);
            }
            (_, Err(e)) => {
                self.mismatches += 1;
                self.problem(e);
            }
            (_, Ok(())) => self.succeeded += 1,
        }
    }

    /// Counts and checks one open-loop sample. `offset_ns` places the
    /// sample's due time on the phase's timeline (a phase may be driven in
    /// several rounds, each timed from its own start).
    fn add(
        &mut self,
        s: &Sample,
        offset_ns: u64,
        check: impl FnOnce(&Reply) -> Result<(), String>,
    ) {
        let result = match &s.reply {
            None if s.written_ns == 0 => Err("write failed".to_string()),
            None => Err("no reply before the deadline".to_string()),
            Some(r) => check(r),
        };
        if let Some(l) = s.late_ns() {
            self.late_us.push(l as f64 / 1e3);
        }
        if result.is_ok() {
            let latency = s.latency_ns().unwrap_or(0) as f64 / 1e3;
            self.latency_us.push((offset_ns + s.due_ns, latency));
            self.round_trip_us
                .push(s.round_trip_ns().unwrap_or(0) as f64 / 1e3);
        }
        self.count(s.reply.as_ref(), result);
    }

    /// Steal ticks the host took from this machine while the requests due
    /// in window `k` were served (`u64::MAX` when not sampled).
    fn window_steal(&self, k: u64) -> u64 {
        let (lo, hi) = (k * WINDOW_NS, (k + 1) * WINDOW_NS + WINDOW_TAIL_NS);
        let before = self.steal.iter().rev().find(|s| s.0 <= lo).map(|s| s.1);
        let after = self.steal.iter().find(|s| s.0 >= hi).map(|s| s.1);
        match (before, after) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => u64::MAX,
        }
    }

    fn latencies(&self) -> Vec<f64> {
        self.latency_us.iter().map(|&(_, l)| l).collect()
    }

    /// Latencies of the requests due in the phase's quietest windows: every
    /// window in which the hypervisor took no CPU from this machine, or at
    /// least the [`QUIET_SHARE`] of requests in the least-stolen windows.
    fn quiet_latencies(&self) -> Vec<f64> {
        stats::quietest(&self.latency_us, WINDOW_NS, QUIET_SHARE, |k| {
            self.window_steal(k)
        })
    }

    /// Server CPU time per succeeded request, in µs.
    fn cpu_us(&self) -> f64 {
        self.server_cpu_ticks as f64 * host::TICK_US / self.succeeded.max(1) as f64
    }

    /// The latency quantile reported as a metric, over
    /// [`Phase::quiet_latencies`].
    fn metric(&self, q: f64) -> Result<f64, String> {
        let quiet = self.quiet_latencies();
        percentile(&quiet, q).map(|p| p.value).ok_or_else(|| {
            format!(
                "{}: too few samples ({}) for the {q} quantile",
                self.name,
                quiet.len()
            )
        })
    }

    fn to_json(&self) -> Json {
        let json = |p: Option<stats::Pct>| match p {
            Some(p) => obj(vec![
                ("us", Json::Num(p.value)),
                ("count", Json::Int(p.count as u64)),
                ("beyond", Json::Int(p.beyond as u64)),
            ]),
            None => Json::Null,
        };
        let all = self.latencies();
        let quiet = self.quiet_latencies();
        let pct = |q: f64| json(percentile(&all, q));
        let quiet_pct = |q: f64| json(percentile(&quiet, q));
        let steal = match (self.steal.first(), self.steal.last()) {
            (Some(a), Some(b)) => Json::Int(b.1.saturating_sub(a.1)),
            _ => Json::Null,
        };
        obj(vec![
            ("phase", Json::Str(self.name.into())),
            ("sent", Json::Int(self.sent)),
            ("succeeded", Json::Int(self.succeeded)),
            ("shed", Json::Int(self.shed)),
            ("failed", Json::Int(self.failed())),
            ("timeouts", Json::Int(self.timeouts)),
            ("errors", Json::Int(self.errors)),
            ("mismatches", Json::Int(self.mismatches)),
            (
                "first_problem",
                self.first_problem.clone().map_or(Json::Null, Json::Str),
            ),
            ("p50", pct(0.5)),
            ("p90", pct(0.9)),
            ("p99", pct(0.99)),
            ("steal_ticks", steal),
            ("server_cpu_us_per_request", Json::Num(self.cpu_us())),
            ("quiet_p50", quiet_pct(0.5)),
            ("quiet_p90", quiet_pct(0.9)),
        ])
    }
}

/// The counters and latency quantiles of one `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
struct ServerStats {
    shed: u64,
    bad_requests: u64,
    p50_us: f64,
    p90_us: f64,
}

fn get_stats(addr: SocketAddr) -> Result<ServerStats, String> {
    let reply = Conn::open(addr)
        .and_then(|mut c| c.call("GET", "/stats", b""))
        .map_err(|e| format!("GET /stats: {e}"))?;
    let text = String::from_utf8_lossy(&reply.body);
    let v = Json::parse(text.trim_end()).map_err(|e| format!("/stats body: {e}"))?;
    let int = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    let lat = v.get("latency_us");
    let q = |k: &str| {
        lat.and_then(|l| l.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(ServerStats {
        shed: int("shed"),
        bad_requests: int("bad_requests"),
        p50_us: q("p50"),
        p90_us: q("p90"),
    })
}

/// The files and settings of one run.
struct Ctx<'a> {
    args: &'a Args,
    dir: PathBuf,
    inputs: Inputs,
    shape: EngineShape,
    /// The `serve` exit status after SIGTERM, per stopped server.
    exits: Vec<(&'static str, Option<ExitStatus>)>,
    peak_rss_kb: u64,
}

impl Ctx<'_> {
    fn w(&self) -> &Workload {
        self.args.workload
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn arg(p: &Path) -> String {
        p.display().to_string()
    }

    /// Runs `serve --train` into `snapshot`; returns its wall time, the
    /// steal ticks that accrued during it and its CPU seconds (user +
    /// system). The caller reaps no other child meanwhile, so the
    /// children's CPU counter grows by this training's alone.
    fn train(
        &self,
        snapshot: &Path,
        generation: u64,
        log: &Path,
    ) -> Result<(Duration, u64, f64), String> {
        let steal = host::steal_ticks().unwrap_or(0);
        let cpu = host::self_cpu_ticks(true).unwrap_or(0);
        let took = server::train(
            &self.args.serve,
            &self.train_args(snapshot, generation),
            log,
        )?;
        let stolen = host::steal_ticks().unwrap_or(0).saturating_sub(steal);
        let cpu = host::self_cpu_ticks(true).unwrap_or(0).saturating_sub(cpu);
        Ok((took, stolen, cpu as f64 * host::TICK_US / 1e6))
    }

    fn train_args(&self, snapshot: &Path, generation: u64) -> Vec<String> {
        let mut a: Vec<String> = [
            "--train",
            &Self::arg(&self.path("base.tsv")),
            "--delta",
            &Self::arg(&self.path("delta.tsv")),
            "--snapshot",
            &Self::arg(snapshot),
            "--k",
            &self.w().k.to_string(),
            "--iters",
            &self.w().iters.to_string(),
            "--format",
            "binary",
            "--generation",
            &generation.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        a.extend(self.w().engine_flags.iter().map(|s| s.to_string()));
        a
    }

    fn listen_args(&self) -> Vec<String> {
        let mut a: Vec<String> = [
            "--model",
            &Self::arg(&self.path("m.snap")),
            "--interactions",
            &Self::arg(&self.path("base.tsv")),
            "--delta",
            &Self::arg(&self.path("delta.tsv")),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        a.extend(self.w().engine_flags.iter().map(|s| s.to_string()));
        a
    }

    fn start_server(&self, name: &str) -> Result<Server, String> {
        Server::start(
            &self.args.serve,
            &self.listen_args(),
            &self.path(&format!("serve-{name}.log")),
        )
    }

    fn stop_server(&mut self, phase: &'static str, server: Server) {
        self.peak_rss_kb = self.peak_rss_kb.max(server.peak_rss_kb().unwrap_or(0));
        self.exits.push((phase, server.stop()));
    }

    fn request_bytes(&self, ask: Ask) -> Vec<u8> {
        format_request(
            "POST",
            "/recommend",
            ask.body(&self.inputs).as_bytes(),
            true,
        )
    }
}

/// One open-loop phase's schedule, samples and `/stats` around it.
struct Run {
    requests: Vec<Vec<u8>>,
    samples: Vec<Sample>,
    before: ServerStats,
    after: ServerStats,
}

/// Drives an open-loop schedule at `rate` for `seconds` and checks every
/// reply against `generations`.
fn drive(
    ctx: &Ctx,
    server: &Server,
    phase: &mut Phase,
    rate: f64,
    seconds: f64,
    stream: u64,
) -> Result<Run, String> {
    let w = ctx.w();
    let arrivals = schedule(
        &ctx.inputs,
        rate,
        seconds,
        w.cold_share,
        ctx.args.seed,
        stream,
    );
    let asks: Vec<Ask> = arrivals.iter().map(|a| a.ask).collect();
    let due: Vec<u64> = arrivals.iter().map(|a| a.due_ns).collect();
    let requests: Vec<Vec<u8>> = asks.iter().map(|&a| ctx.request_bytes(a)).collect();
    let before = get_stats(server.addr)?;
    let cpu_before = server.cpu_ticks();
    let start = Instant::now() + Duration::from_millis(5);
    let driven = open_loop(server.addr, start, &due, &requests, GRACE, None)
        .map_err(|e| format!("{}: {e}", phase.name))?;
    if let (Some(a), Some(b)) = (cpu_before, server.cpu_ticks()) {
        phase.server_cpu_ticks += b.saturating_sub(a);
    }
    let after = get_stats(server.addr)?;
    // rounds of one phase never share a window: each stream gets its own
    // stretch of the phase's timeline
    let offset_ns = stream * 1_000 * WINDOW_NS;
    phase
        .steal
        .extend(driven.steal.iter().map(|&(t, s)| (offset_ns + t, s)));
    let samples = driven.samples;
    for (s, &ask) in samples.iter().zip(&asks) {
        phase.add(s, offset_ns, |r| {
            check::check_reply(&ctx.inputs, ask, r, 1..=1)
        });
    }
    Ok(Run {
        requests,
        samples,
        before,
        after,
    })
}

/// What the refresh phase measured.
struct Refresh {
    /// `(seconds, steal ticks during it)` of each `serve --train`.
    retrain_s: Vec<(f64, u64)>,
    /// CPU seconds (user + system) of each `serve --train`.
    retrain_cpu_s: Vec<f64>,
    /// `(milliseconds, steal ticks during it)` of each reload.
    reload_ms: Vec<(f64, u64)>,
    /// Per cycle: the trained snapshot, the generation the server ran
    /// after the cycle's reloads, and the probe replies it gave.
    probes: Vec<(PathBuf, u64, Vec<Reply>)>,
    /// The generation serving when the cycles ended.
    generation: u64,
}

/// Moves a freshly trained snapshot family into the served paths: each
/// file is hard-linked to a temporary name and renamed over its target
/// (shards first), so a reader never sees a half-written file and the
/// trained generation stays on disk for verification.
fn install(ctx: &Ctx, trained: &Path) -> Result<(), String> {
    let served = ctx.path("m.snap");
    let n = ctx.shape.shards;
    let mut pairs: Vec<(PathBuf, PathBuf)> = Vec::new();
    if n > 1 {
        for s in 0..n {
            pairs.push((shard_path(trained, s, n), shard_path(&served, s, n)));
        }
    }
    pairs.push((trained.to_path_buf(), served));
    let tmp = ctx.path("next.tmp");
    for (from, to) in pairs {
        let _ = std::fs::remove_file(&tmp);
        if std::fs::hard_link(&from, &tmp).is_err() {
            std::fs::copy(&from, &tmp).map_err(|e| format!("copy {}: {e}", from.display()))?;
        }
        std::fs::rename(&tmp, &to).map_err(|e| format!("rename onto {}: {e}", to.display()))?;
    }
    Ok(())
}

/// The fixed probe set: warm users and cold baskets spread over the inputs.
fn probe_asks(inputs: &Inputs) -> Vec<Ask> {
    let warm = inputs.warm_users.len();
    let cold = inputs.cold.len();
    let mut asks: Vec<Ask> = (0..PROBE_WARM)
        .map(|i| Ask::Warm(i * warm / PROBE_WARM))
        .collect();
    asks.extend((0..PROBE_COLD.min(cold)).map(|i| Ask::Cold(i * cold / PROBE_COLD.min(cold))));
    asks
}

/// Runs the retrain → rename → reload cycles beside a light-rate stream.
fn refresh(
    ctx: &Ctx,
    server: &Server,
    stream_phase: &mut Phase,
    cycle_phase: &mut Phase,
) -> Result<Refresh, String> {
    let w = ctx.w();
    let arrivals = schedule(
        &ctx.inputs,
        w.light_rps,
        REFRESH_SCHEDULE_SECONDS,
        w.cold_share,
        ctx.args.seed,
        3,
    );
    let asks: Vec<Ask> = arrivals.iter().map(|a| a.ask).collect();
    let due: Vec<u64> = arrivals.iter().map(|a| a.due_ns).collect();
    let requests: Vec<Vec<u8>> = asks.iter().map(|&a| ctx.request_bytes(a)).collect();
    let probes = probe_asks(&ctx.inputs);
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let since = || start.elapsed().as_nanos() as u64;
    // (reload sent, reload answered, generation), in ns from `start`
    let mut timeline: Vec<(u64, u64, u64)> = Vec::new();
    let mut out = Refresh {
        retrain_s: Vec::new(),
        retrain_cpu_s: Vec::new(),
        reload_ms: Vec::new(),
        probes: Vec::new(),
        generation: 1,
    };
    let (cycles, samples) = std::thread::scope(|scope| {
        let stream =
            scope.spawn(|| open_loop(server.addr, start, &due, &requests, GRACE, Some(&stop)));
        let cycles = (|| -> Result<(), String> {
            std::thread::sleep(Duration::from_millis(200));
            let mut current = 1;
            for _ in 0..w.cycles {
                let trained = ctx.path(&format!("gen-{}.snap", current + 1));
                let log = ctx.path(&format!("train-{}.log", current + 1));
                let trained_in = ctx.train(&trained, current + 1, &log);
                cycle_phase.count(None, trained_in.as_ref().map(|_| ()).map_err(Clone::clone));
                let (took, stolen, cpu) = trained_in?;
                out.retrain_s.push((took.as_secs_f64(), stolen));
                out.retrain_cpu_s.push(cpu);
                install(ctx, &trained)?;
                // every reload, also of an unchanged file, swaps in the
                // next generation
                for _ in 0..RELOADS_PER_CYCLE {
                    let expected = current + 1;
                    let sent = since();
                    let steal = host::steal_ticks().unwrap_or(0);
                    let t = Instant::now();
                    let reply = Conn::open(server.addr)
                        .and_then(|mut c| c.call("POST", "/admin/reload", b""));
                    let took = t.elapsed().as_secs_f64() * 1e3;
                    let stolen = host::steal_ticks().unwrap_or(0).saturating_sub(steal);
                    out.reload_ms.push((took, stolen));
                    timeline.push((sent, since(), expected));
                    let want = format!("{{\"ok\":true,\"model_generation\":{expected}}}");
                    let check = match &reply {
                        Ok(r) if r.status == 200 && r.body.trim_ascii_end() == want.as_bytes() => {
                            Ok(())
                        }
                        Ok(r) => Err(format!(
                            "reload answered HTTP {}: {}",
                            r.status,
                            String::from_utf8_lossy(&r.body)
                        )),
                        Err(e) => Err(format!("reload: {e}")),
                    };
                    cycle_phase.count(reply.as_ref().ok(), check);
                    current = expected;
                }
                let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
                let mut replies = Vec::new();
                for &ask in &probes {
                    let reply = conn
                        .call("POST", "/recommend", ask.body(&ctx.inputs).as_bytes())
                        .map_err(|e| format!("probe: {e}"))?;
                    replies.push(reply);
                }
                out.probes.push((trained, current, replies));
            }
            out.generation = current;
            Ok(())
        })();
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::SeqCst);
        let samples = stream.join().expect("refresh stream panicked");
        (cycles, samples)
    });
    cycles?;
    let driven = samples.map_err(|e| format!("refresh stream: {e}"))?;
    stream_phase.steal = driven.steal;
    let samples = driven.samples;
    // A reply may come from any generation between the last swap that
    // finished before the request was written and the last one that had
    // started when its reply arrived.
    let window = |s: &Sample| -> RangeInclusive<u64> {
        let lo = timeline
            .iter()
            .filter(|t| t.1 <= s.written_ns)
            .map(|t| t.2)
            .max()
            .unwrap_or(1);
        let hi = timeline
            .iter()
            .filter(|t| t.0 <= s.done_ns)
            .map(|t| t.2)
            .max()
            .unwrap_or(1);
        lo..=hi
    };
    for (s, &ask) in samples.iter().zip(&asks) {
        stream_phase.add(s, 0, |r| check::check_reply(&ctx.inputs, ask, r, window(s)));
    }
    Ok(out)
}

/// Checks every cycle's probe replies against an in-process engine built
/// from that cycle's snapshot: they must match byte for byte.
fn verify_probes(
    ctx: &Ctx,
    log: &ocular_sparse::Dataset,
    refresh: &Refresh,
    phase: &mut Phase,
) -> Result<(), String> {
    let asks = probe_asks(&ctx.inputs);
    for (snap, generation, replies) in &refresh.probes {
        let engine = replay::build_engine(snap, log, &ctx.shape, *generation)?;
        for (&ask, reply) in asks.iter().zip(replies) {
            let body = ask.body(&ctx.inputs);
            let req = WireRequest::decode(&body).map_err(|e| e.message)?.request;
            let local = engine.wire_reply(&req, &engine.serve_one(&req));
            let mut expected = local.encode().into_bytes();
            expected.push(b'\n');
            let check = check::check_reply(&ctx.inputs, ask, reply, *generation..=*generation)
                .and_then(|()| {
                    if reply.body == expected && reply.status == local.http_status() {
                        Ok(())
                    } else {
                        Err(format!(
                            "probe reply differs from the in-process engine: {body}"
                        ))
                    }
                });
            phase.count(Some(reply), check);
        }
    }
    Ok(())
}

/// Request bytes sent and the reply each got.
type Exchanges = Vec<(Vec<u8>, Reply)>;

/// Sends every held-out user's basket as a cold request; returns the
/// request/reply pairs and the mean recall@10 against each user's
/// remaining items.
fn cold_quality(
    ctx: &Ctx,
    server: &Server,
    generation: u64,
    phase: &mut Phase,
) -> Result<(Exchanges, f64), String> {
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let mut pairs = Vec::new();
    let mut recalls = Vec::new();
    for (i, user) in ctx.inputs.cold.iter().enumerate() {
        let ask = Ask::Cold(i);
        let reply = conn
            .call("POST", "/recommend", ask.body(&ctx.inputs).as_bytes())
            .map_err(|e| format!("cold probe: {e}"))?;
        let check = check::check_reply(&ctx.inputs, ask, &reply, generation..=generation);
        if check.is_ok() {
            let text = String::from_utf8_lossy(&reply.body);
            if let Ok(ocular_serve::WireReply::Ok(r)) =
                ocular_serve::WireReply::decode(text.trim_end())
            {
                let ranked: Vec<usize> = r
                    .item_ids
                    .unwrap_or_default()
                    .iter()
                    .map(|&id| (id - ITEM_ID_BASE) as usize)
                    .collect();
                let mut relevant: Vec<u32> = user
                    .remaining
                    .iter()
                    .map(|&id| (id - ITEM_ID_BASE) as u32)
                    .collect();
                relevant.sort_unstable();
                recalls.push(ocular_eval::metrics::recall_at(&ranked, &relevant, 10));
            }
        }
        phase.count(Some(&reply), check);
        pairs.push((ctx.request_bytes(ask), reply));
    }
    Ok((pairs, stats::mean(&recalls)))
}

/// recall@50 of the served snapshot on the held-out split, under the
/// paper's protocol (`ocular_eval::protocol::evaluate`).
fn recall_at_50(snap: &Path, log: &ocular_sparse::Dataset, inputs: &Inputs) -> Result<f64, String> {
    let loaded = AnySnapshot::load_path_full(snap).map_err(|e| e.to_string())?;
    let AnySnapshot::Ocular(s) = loaded.snapshot else {
        return Err("served snapshot is not an ocular model".into());
    };
    let pairs: Vec<(usize, usize)> = inputs
        .test
        .iter()
        .filter_map(|&(u, i)| Some((log.user_index(u)?, log.item_index(i)?)))
        .collect();
    let test = ocular_sparse::CsrMatrix::from_pairs(log.n_users(), log.n_items(), &pairs)
        .map_err(|e| e.to_string())?;
    Ok(ocular_eval::protocol::evaluate(&s.model, log.matrix(), &test, 50).recall)
}

fn pct(v: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(v, q)
        .map(|p| p.value)
        .ok_or_else(|| format!("{what}: too few samples ({}) for the {q} quantile", v.len()))
}

fn run(args: &Args) -> Result<(String, String), String> {
    let w = args.workload;
    let steal_start = host::steal_ticks();
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(w.name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut ctx = Ctx {
        args,
        dir,
        inputs: Inputs::generate(w, args.seed),
        shape: EngineShape {
            shards: w.shards(),
            quantize: w.quantize(),
            k: w.k,
            iters: w.iters,
        },
        exits: Vec::new(),
        peak_rss_kb: 0,
    };
    let phase_seconds = args.seconds as f64 * PHASE_SHARE;

    // 1. set-up, several times
    let mut setup_s = Vec::new();
    let mut setup_rss_kb = Vec::new();
    // CPU seconds of every `serve --train`: the set-ups' and the refresh
    // cycles' do the same work (only the generation stamp differs)
    let mut train_cpu_s = Vec::new();
    let mut setup_server = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let inputs = Inputs::generate(w, args.seed);
        Inputs::write_edges(&ctx.path("base.tsv"), &inputs.base).map_err(|e| e.to_string())?;
        Inputs::write_edges(&ctx.path("delta.tsv"), &inputs.delta).map_err(|e| e.to_string())?;
        let (_, _, cpu) = ctx.train(&ctx.path("m.snap"), 1, &ctx.path("train-1.log"))?;
        train_cpu_s.push(cpu);
        let server = ctx.start_server("setup")?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_rss_kb.push(server.peak_rss_kb().unwrap_or(0) as f64);
        ctx.inputs = inputs;
        if i + 1 < SETUPS {
            ctx.stop_server("setup", server);
        } else {
            setup_server = Some(server);
        }
    }
    let log = replay::load_log(&ctx.path("base.tsv"), &ctx.path("delta.tsv"))?;

    // 2. light and heavy, in alternating rounds so that an episode of
    // host contention lands on both rates instead of on one
    let server = setup_server.expect("SETUPS > 0");
    let mut warmup = Phase::new("warmup");
    drive(&ctx, &server, &mut warmup, w.light_rps, WARMUP_SECONDS, 10)?;
    let mut light = Phase::new("light");
    let mut heavy = Phase::new("heavy");
    let round_seconds = phase_seconds / ROUNDS as f64;
    let mut light_requests = Vec::new();
    for round in 0..ROUNDS {
        let run = drive(
            &ctx,
            &server,
            &mut light,
            w.light_rps,
            round_seconds,
            100 + round,
        )?;
        light_requests.extend(run.requests);
        drive(
            &ctx,
            &server,
            &mut heavy,
            w.heavy_rps,
            round_seconds,
            200 + round,
        )?;
    }
    // serving cost at a fixed concurrency of two: a closed loop, so host
    // stalls cannot batch more requests together and change the cost
    let mut closed = Phase::new("closed-loop");
    let asks: Vec<Ask> = schedule(&ctx.inputs, w.light_rps, 1.0, w.cold_share, args.seed, 4)
        .iter()
        .map(|a| a.ask)
        .collect();
    let bodies: Vec<String> = asks.iter().map(|a| a.body(&ctx.inputs)).collect();
    let cpu_before = server.cpu_ticks();
    let (replies, secs) = client::closed_loop(server.addr, &bodies, CLOSED_LOOP)
        .map_err(|e| format!("closed loop: {e}"))?;
    if let (Some(a), Some(b)) = (cpu_before, server.cpu_ticks()) {
        closed.server_cpu_ticks = b.saturating_sub(a);
    }
    for (k, reply) in &replies {
        closed.count(
            Some(reply),
            check::check_reply(&ctx.inputs, asks[*k], reply, 1..=1),
        );
    }
    let saturated_rps = replies.len() as f64 / secs;
    ctx.stop_server("rounds", server);

    // the CPU cost of the request path itself: the light rounds' bytes
    // through the server's layer sequence in process, one at a time
    let engine = replay::build_engine(&ctx.path("m.snap"), &log, &ctx.shape, 1)?;
    let recorded: Vec<&[u8]> = light_requests.iter().map(Vec::as_slice).collect();
    let request_cpu_us = replay::request_cpu_us(&engine, &recorded, REQUEST_CPU_TICKS)
        .ok_or("a recorded request failed in the in-process request path")?;

    // traced run: each rate once more on a server of its own, so `/stats`
    // covers that rate alone; then replay the recorded bytes through the
    // layers against the generation the server ran
    let mut traced_light = Phase::new("light-traced");
    let mut traced_heavy = Phase::new("heavy-traced");
    let mut tr = Trace::new();
    let mut layers = EngineLayers::default();
    let mut traced_runs = Vec::new();
    if args.trace {
        let server = ctx.start_server("light-traced")?;
        drive(&ctx, &server, &mut warmup, w.light_rps, WARMUP_SECONDS, 11)?;
        traced_runs.push(drive(
            &ctx,
            &server,
            &mut traced_light,
            w.light_rps,
            phase_seconds,
            1,
        )?);
        ctx.stop_server("light-traced", server);
        let server = ctx.start_server("heavy-traced")?;
        drive(&ctx, &server, &mut warmup, w.light_rps, WARMUP_SECONDS, 12)?;
        traced_runs.push(drive(
            &ctx,
            &server,
            &mut traced_heavy,
            w.heavy_rps,
            phase_seconds,
            2,
        )?);
        ctx.stop_server("heavy-traced", server);

        for run in &traced_runs {
            let recorded: Vec<(&[u8], &Reply)> = run
                .requests
                .iter()
                .zip(&run.samples)
                .filter_map(|(q, s)| Some((q.as_slice(), s.reply.as_ref()?)))
                .take(REPLAY_PER_PHASE)
                .collect();
            replay::replay_engine(&mut tr, &engine, &recorded, &mut layers);
        }
    }

    // 3. refresh beside a light stream, 4. quality
    let server = ctx.start_server("refresh")?;
    let mut stream = Phase::new("refresh-stream");
    let mut cycle = Phase::new("refresh-cycles");
    let refreshed = refresh(&ctx, &server, &mut stream, &mut cycle)?;
    train_cpu_s.extend(&refreshed.retrain_cpu_s);
    let last_generation = refreshed.generation;
    let mut quality = Phase::new("quality");
    let (cold_pairs, cold_recall) = cold_quality(&ctx, &server, last_generation, &mut quality)?;
    ctx.stop_server("refresh", server);
    let mut probe = Phase::new("refresh-probes");
    verify_probes(&ctx, &log, &refreshed, &mut probe)?;
    let last_snap = ctx.path("m.snap");
    let recall50 = recall_at_50(&last_snap, &log, &ctx.inputs)?;

    let mut train_layers = None;
    let mut bytes_per_row = 0;
    if args.trace {
        let engine = replay::build_engine(&last_snap, &log, &ctx.shape, last_generation)?;
        bytes_per_row = replay::bytes_per_row(&engine);
        let recorded: Vec<(&[u8], &Reply)> =
            cold_pairs.iter().map(|(q, r)| (q.as_slice(), r)).collect();
        replay::replay_engine(&mut tr, &engine, &recorded, &mut layers);
        train_layers = Some(replay::replay_training(
            &mut tr,
            &ctx.path("base.tsv"),
            &ctx.path("delta.tsv"),
            &ctx.shape,
            &ctx.dir,
        )?);
        // client spans: due → written → first byte → complete, in ns from
        // the start of their phase
        for s in traced_runs.iter().flat_map(|r| &r.samples) {
            if s.reply.is_some() {
                let root = tr.record("client.request", None, s.due_ns, s.done_ns);
                tr.record("client.wait_to_send", Some(root), s.due_ns, s.written_ns);
                tr.record(
                    "client.to_first_byte",
                    Some(root),
                    s.written_ns,
                    s.first_byte_ns,
                );
                tr.record("client.body", Some(root), s.first_byte_ns, s.done_ns);
            }
        }
        tr.write_jsonl(&ctx.path("trace.jsonl"))
            .map_err(|e| format!("write trace: {e}"))?;
    }

    // results
    let mut phases = vec![
        warmup,
        light,
        heavy,
        closed,
        traced_light,
        traced_heavy,
        stream,
        cycle,
        probe,
        quality,
    ];
    phases.retain(|p| p.sent > 0);
    let attempted: u64 = phases.iter().map(|p| p.sent).sum();
    let failed: u64 = phases.iter().map(Phase::failed).sum();
    let mismatches: u64 =
        phases.iter().map(|p| p.mismatches).sum::<u64>() + layers.mismatches as u64;
    let clean_exits = ctx
        .exits
        .iter()
        .all(|(_, s)| s.is_some_and(|s| s.success()));
    let correct = mismatches == 0 && clean_exits;
    let find = |name: &str| phases.iter().find(|p| p.name == name).expect("phase ran");
    let (light, heavy, stream) = (find("light"), find("heavy"), find("refresh-stream"));

    // The gated end-to-end metrics: each held within its bound over ten
    // seeds while other tenants took up to half of a shared 2-vCPU host.
    let e2e: Vec<(&str, &str, f64)> = vec![
        ("setup_s", "s", median(&setup_s)),
        (
            "ok_share",
            "ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
        ("rss_mb", "MB", median(&setup_rss_kb) / 1024.0),
        // the median over every training of the run: on a shared 2-vCPU
        // VM the same training took 1.9 to 2.9 s of CPU from one minute to
        // the next, so a median over few trainings moves with the host
        ("retrain_cpu_s", "s", median(&train_cpu_s)),
        ("recall_at_50", "ratio", recall50),
    ];
    // What a user sees but the host or the seed moves by more than any
    // bound from one run to the next (wall-clock latency, retrain and
    // reload, CPU and memory under traffic, and cold recall): printed in
    // every report and tracked as per-layer metrics, not gated. The README
    // gives the spreads.
    let ungated: Vec<(&str, &str, f64)> = vec![
        (
            "reload_ms",
            "ms",
            quiet_median(&refreshed.reload_ms, QUIET_SHARE),
        ),
        ("peak_rss_mb", "MB", ctx.peak_rss_kb as f64 / 1024.0),
        ("light_p50_us", "us", light.metric(0.5)?),
        ("light_p90_us", "us", light.metric(0.9)?),
        ("heavy_p50_us", "us", heavy.metric(0.5)?),
        ("heavy_p90_us", "us", heavy.metric(0.9)?),
        ("refresh_p50_us", "us", stream.metric(0.5)?),
        ("request_cpu_us", "us", request_cpu_us),
        ("serve_cpu_us", "us", find("closed-loop").cpu_us()),
        ("light_cpu_us", "us", light.cpu_us()),
        ("heavy_cpu_us", "us", heavy.cpu_us()),
        (
            "retrain_s",
            "s",
            quiet_median(&refreshed.retrain_s, QUIET_SHARE),
        ),
        ("cold_recall_at_10", "ratio", cold_recall),
    ];

    let mut per_layer: Vec<(&str, &str, f64)> = Vec::new();
    if let (true, Some(t)) = (args.trace, &train_layers) {
        let m = replay::median_or_zero;
        let traced = find("light-traced");
        let (light_run, heavy_run) = (&traced_runs[0], &traced_runs[1]);
        let server_light = light_run.after;
        let late: Vec<f64> = light
            .late_us
            .iter()
            .chain(&heavy.late_us)
            .copied()
            .collect();
        let light_p50 = light.metric(0.5)?;
        per_layer = vec![
            (
                "net.transport_us",
                "us",
                m(&traced.round_trip_us) - server_light.p50_us,
            ),
            ("server.p50_us", "us", server_light.p50_us),
            ("server.p90_us", "us", server_light.p90_us),
            (
                "server.queue_us",
                "us",
                heavy_run.after.p50_us - layers.in_server_us(),
            ),
            ("server.saturated_rps", "1/s", saturated_rps),
            (
                "server.shed",
                "count",
                traced_runs
                    .iter()
                    .map(|r| r.after.shed - r.before.shed)
                    .sum::<u64>() as f64,
            ),
            (
                "server.bad_requests",
                "count",
                traced_runs
                    .iter()
                    .map(|r| r.after.bad_requests - r.before.bad_requests)
                    .sum::<u64>() as f64,
            ),
            ("http.parse_us", "us", m(&layers.parse_us)),
            ("http.format_us", "us", m(&layers.format_us)),
            ("protocol.decode_us", "us", m(&layers.decode_us)),
            ("protocol.encode_us", "us", m(&layers.encode_us)),
            ("parallel.dispatch_us", "us", m(&layers.dispatch_us)),
            ("parallel.fit_2t_s", "s", t.fit_2t_s),
            ("parallel.fit_speedup", "ratio", t.fit_s / t.fit_2t_s),
            ("engine.warm_us", "us", m(&layers.warm_us)),
            ("engine.cold_us", "us", m(&layers.cold_us)),
            (
                "engine.cold_p90_us",
                "us",
                pct(&layers.cold_us, 0.9, "engine.cold")?,
            ),
            ("engine.resolve_us", "us", m(&layers.resolve_us)),
            ("engine.scored_items", "count", stats::mean(&layers.scored)),
            (
                "engine.fallback_share",
                "ratio",
                stats::mean(&layers.fell_back),
            ),
            ("index.candidates_us", "us", m(&layers.candidates_us)),
            (
                "index.candidates_len",
                "count",
                stats::mean(&layers.candidates_len),
            ),
            ("foldin.p50_us", "us", m(&layers.foldin_us)),
            (
                "foldin.p90_us",
                "us",
                pct(&layers.foldin_us, 0.9, "foldin")?,
            ),
            (
                "foldin.steps_mean",
                "count",
                stats::mean(&layers.foldin_steps),
            ),
            (
                "foldin.zero_share",
                "ratio",
                stats::mean(&layers.foldin_zero),
            ),
            ("kernel.select_us", "us", m(&layers.select_us)),
            (
                "kernel.bytes_per_request",
                "B",
                stats::mean(&layers.scored) * bytes_per_row as f64,
            ),
            ("shard.overhead_us", "us", m(&layers.shard_overhead_us)),
            ("ingest.read_ms", "ms", t.read_ms),
            ("ingest.delta_ms", "ms", t.delta_ms),
            ("fit.s", "s", t.fit_s),
            ("fit.sweeps", "count", t.sweeps as f64),
            ("fit.sweep_mean_s", "s", t.sweep_mean_s),
            ("fit.final_objective", "value", t.final_objective),
            ("loss.objective_ms", "ms", t.objective_ms),
            (
                "loss.objective_share",
                "ratio",
                t.objective_ms * (t.sweeps + 1) as f64 / (t.fit_s * 1e3),
            ),
            ("snapshot.build_ms", "ms", t.build_ms),
            ("snapshot.encode_ms", "ms", t.encode_ms),
            ("snapshot.load_ms", "ms", t.load_ms),
            ("snapshot.bytes", "B", t.snapshot_bytes as f64),
            ("engine.build_ms", "ms", t.engine_build_ms),
            ("swap.swap_us", "us", t.swap_us),
            (
                "loadgen.late_p99_us",
                "us",
                pct(&late, 0.99, "generator lateness")?,
            ),
            (
                "trace.overhead_pct",
                "%",
                (traced.metric(0.5)? / light_p50 - 1.0) * 100.0,
            ),
        ];
        per_layer.extend(ungated.iter().copied());
    }
    for (name, _, v) in e2e.iter().chain(&ungated).chain(&per_layer) {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
    }

    let metric_json = |list: &[(&str, &str, f64)]| {
        Json::Obj(
            list.iter()
                .map(|&(name, unit, value)| {
                    (
                        name.to_string(),
                        obj(vec![
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let exits = Json::Arr(
        ctx.exits
            .iter()
            .map(|(phase, status)| {
                obj(vec![
                    ("server", Json::Str((*phase).into())),
                    (
                        "exit",
                        status.map_or(Json::Str("killed after SIGTERM deadline".into()), |s| {
                            Json::Str(s.to_string())
                        }),
                    ),
                ])
            })
            .collect(),
    );
    let pairs = |v: &[(f64, u64)]| {
        Json::Arr(
            v.iter()
                .map(|&(x, s)| Json::Arr(vec![Json::Num(x), Json::Int(s)]))
                .collect(),
        )
    };
    let report = obj(vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host::block(steal_start)),
        (
            "phases",
            Json::Arr(phases.iter().map(Phase::to_json).collect()),
        ),
        (
            "error_rate",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("replay_mismatches", Json::Int(layers.mismatches as u64)),
        ("replayed", Json::Int(layers.replayed as u64)),
        ("server_exits", exits),
        (
            "setup_s",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "train_cpu_s",
            Json::Arr(train_cpu_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("retrain_s_and_steal", pairs(&refreshed.retrain_s)),
        ("reload_ms_and_steal", pairs(&refreshed.reload_ms)),
        ("end_to_end", metric_json(&e2e)),
        ("ungated", metric_json(&ungated)),
        ("per_layer", metric_json(&per_layer)),
    ]);
    let wrapped = obj(vec![("perfbench_report", report)]).to_string();
    let _ = std::fs::write(ctx.path("report.json"), &wrapped);

    let shown = if args.trace { &per_layer } else { &e2e };
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metric_json(shown)),
    ]);
    Ok((wrapped, result.to_string()))
}
