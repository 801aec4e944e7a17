//! The workloads, and the system each one builds before its first timed
//! operation.

use crate::trace::span;
use rtgcn_core::{Checkpoint, DataSpec, RtGcn, RtGcnConfig, StockRanker, Strategy};
use rtgcn_graph::RelationTensor;
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_serve::servable::checkpoint_rtgcn;
use rtgcn_serve::{install_routes, market_key, Registry};
use rtgcn_stream::{share_model, StreamConfig, StreamEngine};
use rtgcn_telemetry::http::Server;
use rtgcn_tensor::Adam;
use std::sync::Arc;
use std::time::Instant;

/// Market shape of every workload: NASDAQ at `Scale::Medium` (256 stocks).
const SCALE: Scale = Scale::Medium;

/// Every `EVENT_EVERY`-th streamed day carries an edge add or drop.
pub const EVENT_EVERY: usize = 8;

/// One benchmark workload: a model strategy, and how the run's seconds and
/// load are spread over the fit, stream and serve phases. Why each exists is
/// recorded in `RATIONALE.md`.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub strategy: Strategy,
    /// Shares of the measured seconds given to the fit, stream and serve
    /// phases, in that order.
    pub shares: [f64; 3],
    /// Open-loop `GET /rank` rate, requests per second.
    pub rank_rate: f64,
    /// Open-loop rate of the interleaved `POST /score` and `POST /advance`
    /// requests, per second.
    pub mix_rate: f64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fit-medium-u",
        strategy: Strategy::Uniform,
        shares: [0.6, 0.15, 0.25],
        rank_rate: 300.0,
        mix_rate: 16.0,
    },
    Workload {
        name: "serve-medium-mix",
        strategy: Strategy::TimeSensitive,
        shares: [0.2, 0.2, 0.6],
        rank_rate: 400.0,
        mix_rate: 20.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Windows of the test split sent to `POST /score`.
const SCORE_WINDOWS: usize = 4;

/// Seed offsets so the served, streamed and trained models differ.
pub const SERVE_SALT: u64 = 0x5e41;
pub const STREAM_SALT: u64 = 0x57e4;
pub const FIT_SALT: u64 = 0xf17;

/// A `POST /score` body and the scores the in-process model gave it.
pub struct ScoreWindow {
    pub body: String,
    pub expected: Vec<f32>,
}

/// What set-up measured on its way.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub install_ms: f64,
}

/// Everything a run times: the pristine dataset and relations, the stream
/// engine, and the serving registry behind a loopback server.
pub struct System {
    pub ds: StockDataset,
    pub rel: RelationTensor,
    pub cfg: RtGcnConfig,
    pub engine: StreamEngine,
    pub registry: Arc<Registry>,
    pub server: Server,
    pub market: String,
    pub ckpt_bytes: Vec<u8>,
    pub windows: Vec<ScoreWindow>,
    pub times: SetupTimes,
}

/// Build the system for `w` from `seed`, warm every path once, and report
/// how long it took.
pub fn setup(w: &Workload, seed: u64) -> Result<System, String> {
    let t0 = Instant::now();
    let spec = UniverseSpec::of(Market::Nasdaq, SCALE);
    let t = Instant::now();
    let ds = {
        let _s = span("market.generate");
        StockDataset::generate(spec.clone(), seed)
    };
    let generate_s = t.elapsed().as_secs_f64();
    let rel = ds.relations(RelationKind::Both);
    let cfg = RtGcnConfig::with_strategy(w.strategy);

    let served = RtGcn::new(cfg.clone(), &rel, seed ^ SERVE_SALT);
    let data = DataSpec {
        spec,
        seed,
        relation_kind: RelationKind::Both,
    };
    let ckpt_bytes = checkpoint_rtgcn(&served, &data)
        .map_err(|e| format!("checkpoint: {e}"))?
        .to_bytes();
    let decoded = {
        let _s = span("core.ckpt_decode");
        Checkpoint::from_bytes(&ckpt_bytes).map_err(|e| format!("checkpoint decode: {e}"))?
    };
    let registry = Arc::new(Registry::new());
    let t = Instant::now();
    let entry = {
        let _s = span("serve.install");
        registry
            .install_checkpoint(&decoded)
            .map_err(|e| format!("install: {e}"))?
    };
    let install_ms = t.elapsed().as_secs_f64() * 1e3;
    install_routes(Arc::clone(&registry));
    let server = Server::start("127.0.0.1:0").map_err(|e| format!("bind loopback server: {e}"))?;
    let market = market_key(Market::Nasdaq);

    let engine = {
        let _s = span("stream.engine_new");
        let model = share_model(RtGcn::new(cfg.clone(), &rel, seed ^ STREAM_SALT));
        StreamEngine::new(
            ds.clone(),
            model,
            StreamConfig::new(cfg.t_steps, cfg.n_features, RelationKind::Both),
        )
    };

    let mut windows = Vec::with_capacity(SCORE_WINDOWS);
    for &day in ds.test_end_days().iter().rev().take(SCORE_WINDOWS) {
        let x = ds.sample(day, cfg.t_steps, cfg.n_features).x;
        let expected = entry
            .score_window(x.data())
            .map_err(|e| format!("in-process score: {e}"))?;
        windows.push(ScoreWindow {
            body: score_body(&market, x.data()),
            expected,
        });
    }

    let sys = System {
        ds,
        rel,
        cfg,
        engine,
        registry,
        server,
        market,
        ckpt_bytes,
        windows,
        times: SetupTimes {
            total_s: 0.0,
            generate_s,
            install_ms,
        },
    };
    warm_up(&sys, seed)?;
    Ok(System {
        times: SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            ..sys.times
        },
        ..sys
    })
}

/// Run every timed path once so first-touch costs land in set-up: one
/// train step and one scored day on a throwaway model, and one request on
/// each route (the first `/advance` builds the registry's stream engine).
fn warm_up(sys: &System, seed: u64) -> Result<(), String> {
    let mut model = RtGcn::new(sys.cfg.clone(), &sys.rel, seed ^ FIT_SALT);
    let mut opt = Adam::new(sys.cfg.lr, sys.cfg.lambda);
    let day = sys.ds.train_end_days(sys.cfg.t_steps)[0];
    let s = sys.ds.sample(day, sys.cfg.t_steps, sys.cfg.n_features);
    model.train_step_stats(&s.x, &s.y, &mut opt);
    let test_day = sys.ds.test_end_days()[0];
    model.scores_for_day(&sys.ds, test_day);

    let addr = sys.server.local_addr();
    let check = |what: &str, r: Result<crate::serve::Reply, String>| match r {
        Ok(r) if r.status == 200 => Ok(()),
        Ok(r) => Err(format!("warm-up {what}: HTTP {} {}", r.status, r.body)),
        Err(e) => Err(format!("warm-up {what}: {e}")),
    };
    check(
        "/advance",
        crate::serve::exchange(addr, &crate::serve::advance_request(&sys.market)),
    )?;
    check(
        "/rank",
        crate::serve::exchange(addr, &crate::serve::rank_request(&sys.market)),
    )?;
    for w in &sys.windows {
        check(
            "/score",
            crate::serve::exchange(addr, &crate::serve::post("/score", &w.body)),
        )?;
    }
    Ok(())
}

/// A `POST /score` body. Each value is written as the exact decimal of
/// its `f64` widening, so the server's `f64` parse narrows back to the
/// same `f32` bits.
pub fn score_body(market: &str, window: &[f32]) -> String {
    use std::fmt::Write;
    let mut body = String::with_capacity(window.len() * 24 + 64);
    let _ = write!(body, "{{\"market\":\"{market}\",\"window\":[");
    for (i, v) in window.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{:?}", f64::from(*v));
    }
    body.push_str("]}");
    body
}
