//! In-process replays for the traced run.
//!
//! The engine replay feeds the request bytes a phase sent through the
//! same layer functions the server calls, one request at a time on one
//! thread, with a span around every call; the rendered response must be
//! byte-identical to what the server sent. The training replay times each
//! stage of a retrain cycle the way `serve --train` runs it.
//!
//! Spans are taken around the public functions of each layer, so a layer's
//! inner steps (scoring and top-M inside `serve_one`) are derived by
//! subtraction, not observed.

use crate::client::Reply;
use crate::stats::median;
use crate::trace::Trace;
use ocular_api::SnapshotMeta;
use ocular_core::{fit, fold_in_user_with, FoldInScratch, OcularConfig};
use ocular_serve::net::http::{format_response, parse_request, ParseOutcome};
use ocular_serve::{
    AnyEngine, AnySnapshot, CandidatePolicy, EngineBuilder, IndexConfig, QuantDtype, Request,
    ServeConfig, ServeEngine, ShardedEngine, Snapshot, SwapEngine, WireRequest,
};
use ocular_sparse::io::{
    append_edge_list, append_edge_list_str, read_edge_list, read_edge_list_str,
};
use ocular_sparse::Dataset;
use std::path::Path;
use std::time::Instant;

/// How a workload's server is configured (mirrors its CLI flags).
#[derive(Debug, Clone, Copy)]
pub struct EngineShape {
    pub shards: usize,
    pub quantize: Option<QuantDtype>,
    pub k: usize,
    pub iters: usize,
}

/// The serving configuration `serve` builds from its default flags.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        default_m: 10,
        candidates: CandidatePolicy::Clusters { min_candidates: 50 },
        foldin: OcularConfig {
            lambda: 0.5,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The training configuration `serve --train --k K --iters N` uses.
pub fn train_config(shape: &EngineShape) -> OcularConfig {
    OcularConfig {
        k: shape.k,
        lambda: 0.5,
        max_iters: shape.iters,
        seed: 0,
        ..Default::default()
    }
}

/// The interaction log a server started with `--interactions base
/// --delta delta` serves.
pub fn load_log(base: &Path, delta: &Path) -> Result<Dataset, String> {
    let d = read_edge_list(base, "\t", None)
        .map_err(|e| e.to_string())?
        .into_dataset();
    append_edge_list(&d, delta, "\t", None).map_err(|e| e.to_string())
}

/// Builds the engine `serve --listen` builds from the same files. The log
/// is the training input itself, so its id maps equal the snapshot's and
/// need no re-alignment.
pub fn build_engine(
    snap: &Path,
    log: &Dataset,
    shape: &EngineShape,
    generation_floor: u64,
) -> Result<AnyEngine, String> {
    let cfg = serve_config();
    if shape.shards > 1 {
        let load = AnySnapshot::load_path_sharded(snap, shape.shards).map_err(|e| e.to_string())?;
        let e = ShardedEngine::assemble(load, log, cfg, generation_floor, shape.quantize)
            .map_err(|e| e.to_string())?;
        return Ok(e.into());
    }
    let loaded = AnySnapshot::load_path_full(snap).map_err(|e| e.to_string())?;
    let generation = loaded
        .meta
        .map_or(0, |m| m.generation)
        .max(generation_floor);
    let mut b = EngineBuilder::from_snapshot(loaded.snapshot)
        .dataset(log.clone())
        .config(cfg)
        .generation(generation);
    if let Some(dtype) = shape.quantize {
        b = b.quantization(dtype);
    }
    Ok(b.build().map_err(|e| e.to_string())?.into())
}

/// The serving engines behind an [`AnyEngine`]: one, or one per shard.
fn shard_engines(eng: &AnyEngine) -> Vec<&ServeEngine> {
    match eng {
        AnyEngine::Single(e) => vec![e],
        AnyEngine::Sharded(s) => s.engines().iter().map(|e| e.as_ref()).collect(),
    }
}

/// The per-request layer measurements of one engine replay.
#[derive(Default)]
pub struct EngineLayers {
    pub replayed: usize,
    pub mismatches: usize,
    pub parse_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub resolve_us: Vec<f64>,
    pub candidates_us: Vec<f64>,
    pub candidates_len: Vec<f64>,
    pub foldin_us: Vec<f64>,
    pub foldin_steps: Vec<f64>,
    pub foldin_zero: Vec<f64>,
    pub warm_us: Vec<f64>,
    pub cold_us: Vec<f64>,
    pub select_us: Vec<f64>,
    pub shard_overhead_us: Vec<f64>,
    pub dispatch_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub format_us: Vec<f64>,
    pub scored: Vec<f64>,
    pub fell_back: Vec<f64>,
}

impl EngineLayers {
    /// Median replayed time of the steps the server takes outside its
    /// queue: parse, decode, the one-request batch, encode and format.
    pub fn in_server_us(&self) -> f64 {
        [
            &self.parse_us,
            &self.decode_us,
            &self.encode_us,
            &self.format_us,
        ]
        .iter()
        .map(|v| median_or_zero(v))
        .sum::<f64>()
            + median_or_zero(&self.dispatch_us)
            + median_or_zero(
                &self
                    .warm_us
                    .iter()
                    .chain(&self.cold_us)
                    .copied()
                    .collect::<Vec<_>>(),
            )
    }
}

pub fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// The request path the server runs for each request, in process: HTTP
/// parse, protocol decode, a one-request batch, reply encode, HTTP format.
/// Returns the response bytes.
fn request_path(eng: &AnyEngine, bytes: &[u8]) -> Option<Vec<u8>> {
    let Ok(ParseOutcome::Complete(http, _)) = parse_request(bytes) else {
        return None;
    };
    let req = WireRequest::decode(&String::from_utf8_lossy(&http.body))
        .ok()?
        .request;
    let served = eng.serve_batch(std::slice::from_ref(&req)).pop()?;
    let reply = eng.wire_reply(&req, &served);
    let mut body = reply.encode().into_bytes();
    body.push(b'\n');
    Some(format_response(reply.http_status(), &body, http.keep_alive))
}

/// CPU time (µs, user + system, this whole process) per request of
/// [`request_path`] over `requests`, passed over again until at least
/// `min_ticks` clock ticks have accrued so the 10 ms tick stays under 1%.
/// Batches of one and a single thread keep batching out of it (the work
/// still varies with the seed's data). `None` if a request fails.
pub fn request_cpu_us(eng: &AnyEngine, requests: &[&[u8]], min_ticks: u64) -> Option<f64> {
    if requests.is_empty() {
        return None;
    }
    let start = crate::host::self_cpu_ticks(false)?;
    let mut served = 0usize;
    loop {
        for bytes in requests {
            std::hint::black_box(request_path(eng, bytes)?);
        }
        served += requests.len();
        let ticks = crate::host::self_cpu_ticks(false)? - start;
        if ticks >= min_ticks {
            return Some(ticks as f64 * crate::host::TICK_US / served.max(1) as f64);
        }
    }
}

/// Replays `(request bytes, server reply)` pairs through the layers and
/// checks each rendered response against the server's bytes.
pub fn replay_engine(
    tr: &mut Trace,
    eng: &AnyEngine,
    recorded: &[(&[u8], &Reply)],
    out: &mut EngineLayers,
) {
    let cfg = serve_config();
    let engines = shard_engines(eng);
    let lead = engines[0];
    let model = lead.model();
    let item_sum = model.item_factors.column_sums();
    let mut scratch = FoldInScratch::new();
    for &(bytes, server) in recorded {
        out.replayed += 1;
        let root = tr.open("request", None);

        let t = Instant::now();
        let parsed = tr.time("http.parse", Some(root), || parse_request(bytes));
        out.parse_us.push(us(t));
        let Ok(ParseOutcome::Complete(http, _)) = parsed else {
            out.mismatches += 1;
            tr.close(root);
            continue;
        };
        let t = Instant::now();
        let decoded = tr.time("protocol.decode", Some(root), || {
            WireRequest::decode(&String::from_utf8_lossy(&http.body))
        });
        out.decode_us.push(us(t));
        let Ok(wire) = decoded else {
            out.mismatches += 1;
            tr.close(root);
            continue;
        };
        let req = wire.request;

        // the engine's inner steps, each called on its own
        let mut inner_us = 0.0;
        let mut owner: Option<&ServeEngine> = None;
        match &req {
            Request::WarmExternal { user, .. } => {
                let t = Instant::now();
                let found = tr.time("engine.resolve", Some(root), || {
                    engines
                        .iter()
                        .find_map(|e| e.dataset().user_index(*user).map(|u| (*e, u)))
                });
                let resolve = us(t);
                out.resolve_us.push(resolve);
                if let Some((e, u)) = found.filter(|&(e, u)| u < e.model_users()) {
                    owner = Some(e);
                    let factors = e.model().user_factors.row(u);
                    let t = Instant::now();
                    let c = tr.time("index.candidates", Some(root), || {
                        e.index().candidates(factors)
                    });
                    let cand = us(t);
                    out.candidates_us.push(cand);
                    out.candidates_len.push(c.len() as f64);
                    inner_us = resolve + cand;
                }
            }
            Request::ColdExternal { basket, .. } => {
                let t = Instant::now();
                let internal = tr.time("engine.resolve", Some(root), || {
                    basket
                        .iter()
                        .map(|&i| lead.dataset().item_index(i))
                        .collect::<Option<Vec<usize>>>()
                });
                let resolve = us(t);
                out.resolve_us.push(resolve);
                if let Some(internal) = internal {
                    let t = Instant::now();
                    let fold = tr.time("foldin", Some(root), || {
                        fold_in_user_with(
                            model,
                            &internal,
                            &cfg.foldin,
                            1.0,
                            cfg.foldin_steps,
                            &item_sum,
                            &mut scratch,
                        )
                    });
                    let foldin = us(t);
                    out.foldin_us.push(foldin);
                    out.foldin_steps.push(fold.steps as f64);
                    let zero = fold.factors.iter().all(|&x| x == 0.0);
                    out.foldin_zero.push(if zero { 1.0 } else { 0.0 });
                    let t = Instant::now();
                    let c = tr.time("index.candidates", Some(root), || {
                        lead.index().candidates(&fold.factors)
                    });
                    let cand = us(t);
                    out.candidates_us.push(cand);
                    out.candidates_len.push(c.len() as f64);
                    inner_us = resolve + foldin + cand;
                }
            }
            _ => {}
        }

        let cold = matches!(req, Request::ColdExternal { .. } | Request::Cold { .. });
        let t = Instant::now();
        let served = tr.time(
            if cold { "engine.cold" } else { "engine.warm" },
            Some(root),
            || eng.serve_one(&req),
        );
        let serve = us(t);
        if cold {
            out.cold_us.push(serve);
        } else {
            out.warm_us.push(serve);
        }
        out.select_us.push(serve - inner_us);
        if let Ok(list) = &served {
            out.scored.push(list.scored as f64);
            out.fell_back.push(if list.fell_back { 1.0 } else { 0.0 });
        }
        if let (AnyEngine::Sharded(_), Some(e)) = (eng, owner) {
            let t = Instant::now();
            let _ = tr.time("shard.owner", Some(root), || e.serve_one(&req));
            out.shard_overhead_us.push(serve - us(t));
        }
        let t = Instant::now();
        tr.time("parallel.serve_batch", Some(root), || {
            eng.serve_batch(std::slice::from_ref(&req))
        });
        out.dispatch_us.push(us(t) - serve);

        let t = Instant::now();
        let (status, body) = tr.time("protocol.encode", Some(root), || {
            let reply = eng.wire_reply(&req, &served);
            let mut body = reply.encode().into_bytes();
            body.push(b'\n');
            (reply.http_status(), body)
        });
        out.encode_us.push(us(t));
        let t = Instant::now();
        let bytes = tr.time("http.format", Some(root), || {
            format_response(status, &body, http.keep_alive)
        });
        out.format_us.push(us(t));
        tr.close(root);
        if status != server.status || body != server.body || bytes.len() < body.len() {
            out.mismatches += 1;
        }
    }
}

/// Per-stage times of one retrain cycle replayed in process.
pub struct TrainLayers {
    pub read_ms: f64,
    pub delta_ms: f64,
    pub fit_s: f64,
    pub sweeps: usize,
    pub sweep_mean_s: f64,
    pub final_objective: f64,
    pub fit_2t_s: f64,
    pub objective_ms: f64,
    pub build_ms: f64,
    pub encode_ms: f64,
    pub snapshot_bytes: usize,
    pub load_ms: f64,
    pub engine_build_ms: f64,
    pub swap_us: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays a retrain cycle on the workload's files: ingest, delta merge,
/// `fit` (with its sweeps as child spans), the two-thread trainer, one
/// objective evaluation, snapshot build/encode/load, engine build and an
/// engine swap. `dir` receives the replayed snapshot.
pub fn replay_training(
    tr: &mut Trace,
    base: &Path,
    delta: &Path,
    shape: &EngineShape,
    dir: &Path,
) -> Result<TrainLayers, String> {
    let base_text = std::fs::read_to_string(base).map_err(|e| e.to_string())?;
    let delta_text = std::fs::read_to_string(delta).map_err(|e| e.to_string())?;
    let root = tr.open("retrain", None);

    let t = Instant::now();
    let parsed = tr.time("ingest.read", Some(root), || {
        read_edge_list_str(&base_text, "\t", None).map(|p| p.into_dataset())
    });
    let read_ms = ms(t);
    let d = parsed.map_err(|e| e.to_string())?;
    let t = Instant::now();
    let d = tr
        .time("ingest.delta", Some(root), || {
            append_edge_list_str(&d, &delta_text, "\t", None)
        })
        .map_err(|e| e.to_string())?;
    let delta_ms = ms(t);

    let cfg = train_config(shape);
    let fit_span = tr.open("fit", Some(root));
    let t = Instant::now();
    let result = fit(&d, &cfg);
    let fit_s = t.elapsed().as_secs_f64();
    tr.close(fit_span);
    // sweeps as children, laid end to end from the fit start: the gaps the
    // history does not cover (objective evaluations, set-up) are fit's
    // self time
    let mut at = tr.spans()[fit_span].start_ns;
    for &s in &result.history.sweep_seconds {
        let end = at + (s * 1e9) as u64;
        tr.record("fit.sweep", Some(fit_span), at, end);
        at = end;
    }

    let t = Instant::now();
    tr.time("parallel.fit_2t", Some(root), || {
        ocular_parallel::fit_parallel(&d, &cfg, Some(2))
    });
    let fit_2t_s = t.elapsed().as_secs_f64();

    let weights = ocular_core::loss::user_weights(d.matrix(), cfg.weighting);
    let t = Instant::now();
    let q = tr.time("loss.objective", Some(root), || {
        ocular_core::loss::objective(d.matrix(), &result.model, cfg.lambda, &weights)
    });
    let objective_ms = ms(t);
    std::hint::black_box(q);

    let t = Instant::now();
    let snap = tr.time("snapshot.build", Some(root), || {
        let s = Snapshot::build(
            result.model.clone(),
            &IndexConfig {
                rel: 0.5,
                floor: 100,
            },
        );
        match shape.quantize {
            Some(dtype) => s.with_quantization(dtype),
            None => s,
        }
    });
    let build_ms = ms(t);
    let snap = AnySnapshot::Ocular(snap);
    let meta = SnapshotMeta {
        generation: 1,
        n_users: d.n_users() as u64,
        n_items: d.n_items() as u64,
        nnz: d.nnz() as u64,
    };
    let t = Instant::now();
    let bytes = tr
        .time("snapshot.encode", Some(root), || {
            snap.to_v3_bytes_full(d.ids(), Some(&meta))
        })
        .map_err(|e| e.to_string())?;
    let encode_ms = ms(t);
    let path = dir.join("replay.snap");
    std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
    if shape.shards > 1 {
        snap.save_path_sharded(&path, d.ids(), Some(&meta), shape.shards)
            .map_err(|e| e.to_string())?;
    }

    // what a reload does with the file: load it, build the engine
    let cfg = serve_config();
    let (load_ms, engine_build_ms, engine) = if shape.shards > 1 {
        let t = Instant::now();
        let load = tr
            .time("snapshot.load", Some(root), || {
                AnySnapshot::load_path_sharded(&path, shape.shards)
            })
            .map_err(|e| e.to_string())?;
        let load_ms = ms(t);
        let t = Instant::now();
        let engine = tr.time("engine.build", Some(root), || {
            ShardedEngine::assemble(load, &d, cfg, 1, shape.quantize)
        });
        let build_ms = ms(t);
        (
            load_ms,
            build_ms,
            AnyEngine::from(engine.map_err(|e| e.to_string())?),
        )
    } else {
        let t = Instant::now();
        let loaded = tr
            .time("snapshot.load", Some(root), || {
                AnySnapshot::load_path_full(&path)
            })
            .map_err(|e| e.to_string())?;
        let load_ms = ms(t);
        let t = Instant::now();
        let engine = tr.time("engine.build", Some(root), || {
            let b = EngineBuilder::from_snapshot(loaded.snapshot)
                .dataset(d.clone())
                .config(cfg)
                .generation(1);
            match shape.quantize {
                Some(dtype) => b.quantization(dtype).build(),
                None => b.build(),
            }
        });
        let build_ms = ms(t);
        (
            load_ms,
            build_ms,
            AnyEngine::from(engine.map_err(|e| e.to_string())?),
        )
    };
    let next = build_engine(&path, &d, shape, 2)?;
    let swap = SwapEngine::new(engine);
    let t = Instant::now();
    tr.time("swap.swap", Some(root), || swap.swap(next))
        .map_err(|e| e.to_string())?;
    let swap_us = us(t);
    tr.close(root);

    Ok(TrainLayers {
        read_ms,
        delta_ms,
        fit_s,
        sweeps: result.history.iterations(),
        sweep_mean_s: result.history.mean_sweep_seconds(),
        final_objective: result.history.final_objective(),
        fit_2t_s,
        objective_ms,
        build_ms,
        encode_ms,
        snapshot_bytes: bytes.len(),
        load_ms,
        engine_build_ms,
        swap_us,
    })
}

/// Bytes of item factors one scored item reads: the quantized row when the
/// engine serves a narrowed copy, else the f64 master row.
pub fn bytes_per_row(eng: &AnyEngine) -> usize {
    let k = shard_engines(eng)[0].model().k_total();
    match eng.dtype().and_then(QuantDtype::parse) {
        Some(dtype) => dtype.bytes_per_row(k),
        None => 8 * k,
    }
}
