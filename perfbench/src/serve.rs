//! The serve phase: open-loop HTTP load on the loopback server, with every
//! reply checked against the in-process model.

use crate::stats::Samples;
use crate::system::{System, Workload};
use crate::trace::{in_request, next_request, span};
use parking_lot::Mutex;
use rtgcn_serve::{ModelEntry, Registry};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `k` of every `/rank` request.
const RANK_K: usize = 10;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One HTTP exchange as the client saw it.
#[derive(Clone, Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub connect_ns: u64,
}

/// Send one request on a fresh connection and read the reply to EOF.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Result<Reply, String> {
    let t = Instant::now();
    let mut stream = {
        let _s = span("http.connect");
        TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))?
    };
    let connect_ns = t.elapsed().as_nanos() as u64;
    let _s = span("http.exchange");
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set nodelay: {e}"))?;
    stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    stream
        .read_to_end(&mut buf)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(buf).map_err(|_| "reply is not UTF-8".to_string())?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            format!(
                "no HTTP status line in {:?}",
                text.get(..64).unwrap_or(&text)
            )
        })?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply {
        status,
        body,
        connect_ns,
    })
}

pub fn rank_request(market: &str) -> Vec<u8> {
    format!("GET /rank?market={market}&k={RANK_K} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

pub fn advance_request(market: &str) -> Vec<u8> {
    post(
        "/advance",
        &format!("{{\"market\":\"{market}\",\"days\":1}}"),
    )
}

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Timing of one scheduled request of an open-loop generator, in
/// nanoseconds from the generator's start.
#[derive(Clone, Copy, Debug)]
pub struct Shot {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Shot {
    /// Latency as a user sees it: from when the request was due, so a
    /// stall also delays every request queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }

    /// Time from send to reply.
    pub fn service_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }
}

/// Send request `i` at `start + i / rate` for every due time before
/// `start + dur`, calling `send(i)` on this thread. A request that comes
/// due while an earlier one is still out is sent as soon as that one ends,
/// and is still timed from its due time.
pub fn open_loop(
    start: Instant,
    rate: f64,
    dur: Duration,
    mut send: impl FnMut(usize),
) -> Vec<Shot> {
    let period_ns = 1e9 / rate;
    let end_ns = dur.as_nanos() as u64;
    let mut shots = Vec::new();
    for i in 0.. {
        let due_ns = (i as f64 * period_ns) as u64;
        if due_ns >= end_ns {
            break;
        }
        let now = start.elapsed().as_nanos() as u64;
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        let sent_ns = start.elapsed().as_nanos() as u64;
        send(i);
        let done_ns = start.elapsed().as_nanos() as u64;
        shots.push(Shot {
            due_ns,
            sent_ns,
            done_ns,
        });
    }
    shots
}

/// Whether a `/rank` body is exactly `ModelEntry::ranked(k)` of the
/// version it names.
pub fn check_rank_body(
    body: &str,
    versions: &BTreeMap<String, Arc<ModelEntry>>,
) -> Result<(), String> {
    let v: Value =
        serde_json::from_str(body).map_err(|e| format!("rank body is not JSON: {e:?}"))?;
    let version = v
        .get("version")
        .and_then(Value::as_str)
        .ok_or("rank body has no version")?;
    let entry = versions
        .get(version)
        .ok_or_else(|| format!("rank names unknown version {version}"))?;
    let k = v
        .get("k")
        .and_then(Value::as_u64)
        .ok_or("rank body has no k")? as usize;
    let ranked = v
        .get("ranked")
        .and_then(Value::as_seq)
        .ok_or("rank body has no ranked list")?;
    let want = entry.ranked(k);
    if ranked.len() != want.len() {
        return Err(format!(
            "rank lists {} stocks, version {version} ranks {}",
            ranked.len(),
            want.len()
        ));
    }
    for (got, (stock, score)) in ranked.iter().zip(want) {
        let g_stock = got.get("stock").and_then(Value::as_u64);
        let g_score = got
            .get("score")
            .and_then(Value::as_f64)
            .map(|s| (s as f32).to_bits());
        if g_stock != Some(stock as u64) || g_score != Some(score.to_bits()) {
            return Err(format!(
                "rank entry {got:?} differs from ({stock}, {score}) of {version}"
            ));
        }
    }
    Ok(())
}

/// Whether a `/score` body carries exactly the expected scores.
pub fn check_score_body(body: &str, expected: &[f32]) -> Result<(), String> {
    let v: Value =
        serde_json::from_str(body).map_err(|e| format!("score body is not JSON: {e:?}"))?;
    let scores = v
        .get("scores")
        .and_then(Value::as_seq)
        .ok_or("score body has no scores")?;
    let same = scores.len() == expected.len()
        && scores
            .iter()
            .zip(expected)
            .all(|(g, e)| g.as_f64().map(|g| (g as f32).to_bits()) == Some(e.to_bits()));
    if same {
        Ok(())
    } else {
        Err("served scores differ from in-process score_window".into())
    }
}

/// What the serve phase measured and checked.
#[derive(Debug, Default)]
pub struct ServeOut {
    pub rank: Samples,
    pub rank_service: Samples,
    pub rank_lateness: Samples,
    pub connect_us: Samples,
    pub score: Samples,
    pub advance: Samples,
    pub shed_503: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl ServeOut {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Count one `/rank` reply: anything but a 200 whose body matches the
    /// version it names is a failure.
    fn tally_rank(
        &mut self,
        reply: Result<Reply, String>,
        versions: &BTreeMap<String, Arc<ModelEntry>>,
    ) {
        self.attempted += 1;
        match reply {
            Ok(r) => {
                self.connect_us.push(r.connect_ns as f64 / 1e3);
                if r.status == 503 {
                    self.shed_503 += 1;
                }
                if r.status != 200 {
                    self.fail(format!("/rank HTTP {}", r.status));
                } else if let Err(e) = check_rank_body(&r.body, versions) {
                    self.fail(e);
                }
            }
            Err(e) => self.fail(format!("/rank: {e}")),
        }
    }
}

/// A reply and, for `/advance`, the verdict on the entry it published.
type MixReply = (Result<Reply, String>, Result<(), String>);

/// Open-loop load spread over the rounds of a run: one thread sends
/// `/rank` at the workload's rank rate, a second alternates `/score` and
/// `/advance` at its mix rate. Each round is tagged with the pass it
/// belongs to. Replies are kept and checked in [`Load::finish`], after the
/// load has stopped.
pub struct Load {
    versions: Mutex<BTreeMap<String, Arc<ModelEntry>>>,
    last_end_day: Option<usize>,
    score_reqs: Vec<Vec<u8>>,
    /// `(pass, shot, reply)` of every `/rank` request.
    rank: Vec<(usize, Shot, Result<Reply, String>)>,
    /// `(pass, index, shot, reply)` of every `/score` (even index) and
    /// `/advance` (odd index) request.
    mix: Vec<(usize, usize, Shot, MixReply)>,
}

impl Load {
    pub fn new(sys: &System) -> Load {
        let mut versions = BTreeMap::new();
        let current = sys.registry.get(&sys.market);
        let last_end_day = current.as_ref().map(|e| e.end_day);
        if let Some(e) = current {
            versions.insert(e.version.clone(), e);
        }
        let score_reqs = sys
            .windows
            .iter()
            .map(|w| post("/score", &w.body))
            .collect();
        Load {
            versions: Mutex::new(versions),
            last_end_day,
            score_reqs,
            rank: Vec::new(),
            mix: Vec::new(),
        }
    }

    /// Drive both generators for `dur`, tagging the requests with `pass`.
    pub fn round(&mut self, sys: &System, w: &Workload, dur: Duration, pass: usize) {
        let addr = sys.server.local_addr();
        let registry: &Registry = &sys.registry;
        let market = sys.market.as_str();
        let rank_req = rank_request(market);
        let advance_req = advance_request(market);
        let first_mix = self.mix.len();
        let score_reqs = &self.score_reqs;
        let versions = &self.versions;
        let last_end_day = &mut self.last_end_day;
        let start = Instant::now();

        let (rank, mix) = std::thread::scope(|s| {
            let rank = std::thread::Builder::new()
                .name("load-rank".into())
                .spawn_scoped(s, || {
                    let mut replies = Vec::new();
                    let shots = open_loop(start, w.rank_rate, dur, |_| {
                        replies.push(in_request(next_request(), || {
                            let _s = span("client.rank");
                            exchange(addr, &rank_req)
                        }));
                    });
                    shots
                        .into_iter()
                        .zip(replies)
                        .map(|(s, r)| (pass, s, r))
                        .collect::<Vec<_>>()
                })
                .expect("spawn /rank load thread");
            let mix = std::thread::Builder::new()
                .name("load-mix".into())
                .spawn_scoped(s, || {
                    let mut replies = Vec::new();
                    let shots = open_loop(start, w.mix_rate, dur, |i| {
                        let k = first_mix + i;
                        let is_score = k.is_multiple_of(2);
                        let reply = in_request(next_request(), || {
                            if is_score {
                                let _s = span("client.score");
                                exchange(addr, &score_reqs[(k / 2) % score_reqs.len()])
                            } else {
                                let _s = span("client.advance");
                                exchange(addr, &advance_req)
                            }
                        });
                        // The entry an `/advance` published is what `/rank`
                        // serves next, so it is recorded before the next send.
                        let mut verdict = Ok(());
                        if matches!(&reply, Ok(r) if r.status == 200 && !is_score) {
                            match registry.get(market) {
                                Some(e) if Some(e.end_day) > *last_end_day => {
                                    *last_end_day = Some(e.end_day);
                                    versions.lock().insert(e.version.clone(), e);
                                }
                                _ => {
                                    verdict =
                                        Err("/advance did not move end_day forward".to_string())
                                }
                            }
                        }
                        replies.push((reply, verdict));
                    });
                    shots
                        .into_iter()
                        .zip(replies)
                        .enumerate()
                        .map(|(i, (s, r))| (pass, first_mix + i, s, r))
                        .collect::<Vec<_>>()
                })
                .expect("spawn /score+/advance load thread");
            (
                rank.join().expect("/rank load thread panicked"),
                mix.join().expect("mix load thread panicked"),
            )
        });
        self.rank.extend(rank);
        self.mix.extend(mix);
    }

    /// Check every reply and collect the timings of each of `passes`.
    pub fn finish(self, sys: &System, passes: usize) -> Vec<ServeOut> {
        let versions = self.versions.into_inner();
        let mut outs: Vec<ServeOut> = (0..passes).map(|_| ServeOut::default()).collect();
        for (pass, shot, reply) in self.rank {
            let out = &mut outs[pass];
            out.rank.push(shot.latency_ms());
            out.rank_service.push(shot.service_ms());
            out.rank_lateness.push(shot.lateness_ms());
            out.tally_rank(reply, &versions);
        }
        for (pass, k, shot, (reply, verdict)) in self.mix {
            let out = &mut outs[pass];
            out.attempted += 1;
            let is_score = k.is_multiple_of(2);
            if is_score {
                out.score.push(shot.latency_ms());
            } else {
                out.advance.push(shot.latency_ms());
            }
            match reply {
                Ok(r) if r.status == 200 => {
                    let checked = if is_score {
                        check_score_body(
                            &r.body,
                            &sys.windows[(k / 2) % sys.windows.len()].expected,
                        )
                    } else {
                        verdict
                    };
                    if let Err(e) = checked {
                        out.fail(e);
                    }
                }
                Ok(r) => {
                    if r.status == 503 {
                        out.shed_503 += 1;
                    }
                    out.fail(format!(
                        "{} HTTP {}",
                        if is_score { "/score" } else { "/advance" },
                        r.status
                    ));
                }
                Err(e) => out.fail(e),
            }
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgcn_core::{DataSpec, RtGcn, RtGcnConfig, Strategy};
    use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
    use rtgcn_serve::servable::checkpoint_rtgcn;
    use rtgcn_telemetry::http::Server;

    #[test]
    fn open_loop_times_from_due_time_and_reports_lateness() {
        let start = Instant::now();
        // 1 ms period; the first request stalls for 20 ms.
        let shots = open_loop(start, 1000.0, Duration::from_millis(30), |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        assert_eq!(shots.len(), 30, "one request per due time, none dropped");
        assert_eq!(shots[5].due_ns, 5_000_000);
        // Request 1 was due at 1 ms but could only go once request 0 ended.
        assert!(
            shots[1].lateness_ms() >= 19.0,
            "lateness {}",
            shots[1].lateness_ms()
        );
        assert!(shots[1].latency_ms() >= 19.0 + shots[1].service_ms());
        assert!(shots[1].service_ms() < 5.0);
        // The stall is charged to every request queued behind it.
        assert!(
            shots[10].latency_ms() >= 9.0,
            "latency {}",
            shots[10].latency_ms()
        );
    }

    fn tiny_entry_server() -> (Server, Arc<Registry>, String) {
        let mut spec = UniverseSpec::of(Market::Nasdaq, Scale::Small);
        spec.stocks = 12;
        spec.train_days = 40;
        spec.test_days = 8;
        let ds = StockDataset::generate(spec.clone(), 5);
        let cfg = RtGcnConfig {
            t_steps: 8,
            n_features: 2,
            rel_filters: 8,
            temporal_filters: 8,
            strategy: Strategy::Uniform,
            ..RtGcnConfig::default()
        };
        let model = RtGcn::new(cfg, &ds.relations(RelationKind::Both), 5);
        let data = DataSpec {
            spec,
            seed: 5,
            relation_kind: RelationKind::Both,
        };
        let ckpt = checkpoint_rtgcn(&model, &data).expect("checkpoint");
        let registry = Arc::new(Registry::new());
        registry.install_checkpoint(&ckpt).expect("install");
        rtgcn_serve::install_routes(Arc::clone(&registry));
        let server = Server::start("127.0.0.1:0").expect("bind loopback");
        (server, registry, rtgcn_serve::market_key(Market::Nasdaq))
    }

    #[test]
    fn a_corrupted_rank_body_counts_as_a_failure() {
        let (server, registry, market) = tiny_entry_server();
        let entry = registry.get(&market).expect("installed");
        let versions: BTreeMap<_, _> = [(entry.version.clone(), Arc::clone(&entry))].into();
        let reply = exchange(server.local_addr(), &rank_request(&market)).expect("GET /rank");
        assert_eq!(reply.status, 200, "{}", reply.body);

        let mut out = ServeOut::default();
        out.tally_rank(Ok(reply.clone()), &versions);
        assert_eq!((out.attempted, out.failed), (1, 0), "{:?}", out.errors);

        let (top, _) = entry.ranked(1)[0];
        let other = (top + 1) % entry.n_stocks;
        let swapped = reply.body.replacen(
            &format!("\"stock\":{top},"),
            &format!("\"stock\":{other},"),
            1,
        );
        assert_ne!(swapped, reply.body);
        let truncated = reply.body[..reply.body.len() / 2].to_string();
        let renamed = reply.body.replace(&entry.version, "0000000000000000");
        for body in [swapped, truncated, renamed] {
            out.tally_rank(
                Ok(Reply {
                    body,
                    ..reply.clone()
                }),
                &versions,
            );
        }
        out.tally_rank(
            Ok(Reply {
                status: 503,
                ..reply.clone()
            }),
            &versions,
        );
        out.tally_rank(Err("connection reset".into()), &versions);
        assert_eq!(
            (out.attempted, out.failed, out.shed_503),
            (6, 5, 1),
            "{:?}",
            out.errors
        );
    }

    #[test]
    fn score_bodies_must_match_bit_for_bit() {
        let expected = [0.25f32, -1.5e-3];
        assert!(check_score_body(r#"{"scores":[0.25,-0.0015]}"#, &expected).is_ok());
        assert!(check_score_body(r#"{"scores":[0.25,-0.0016]}"#, &expected).is_err());
        assert!(check_score_body(r#"{"scores":[0.25]}"#, &expected).is_err());
    }
}
