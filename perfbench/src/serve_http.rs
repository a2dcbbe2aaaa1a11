//! `serve-http`: an in-process `x2s_serve::Server` with
//! `ServeConfig::default()` on a loopback ephemeral port, driven by two
//! closed-loop clients (two is the core count of the reference host, so
//! there are no more connections than cores). Each `GET /query` uses its
//! own connection.
//!
//! Execution is cheap on the small document, so the layers between the
//! socket and the executor — protocol parsing, admission,
//! canonicalization, the sat gate, single-flight and chunked streaming —
//! are a large share of each request. The Zipf-like mix keeps the plan
//! cache hot while coalescing and pruning both occur.

use std::collections::BTreeSet;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use x2s_core::Engine;
use x2s_dtd::samples;
use x2s_rel::{SqlDialect, Stats};
use x2s_serve::{
    read_request, stream_answers, write_rejection, write_simple, Bounded, PushError, ServeConfig,
    Server, SingleFlight,
};
use x2s_xml::rng::SplitMix64;
use x2s_xpath::{eval_from_document, parse_xpath, Sat};

use crate::gen::{document, sub_seed, zipf};
use crate::http::{body, decode_chunked, encode, get, ids};
use crate::stat::{Host, Samples, MIN_OPS};
use crate::trace::{SpanId, Tracer};
use crate::{replay, stat, Report, RunCfg, SETUP_REPS};

/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// Generator shape of the served `dept_simplified` document.
const SHAPE: (usize, usize, usize) = (12, 4, 3000);

/// The request mix, hottest first (Zipf-like weights `1 / rank`):
/// interval, child-only and qualifier queries, two spellings that
/// canonicalize to one plan key, a statically-empty query and one
/// document-rooted LFP query.
const MIX: [&str; 8] = [
    "dept//project",
    "dept/course",
    "dept/descendant-or-self::*/project",
    "dept//course[project or student]",
    "dept/project",
    "dept/course/student",
    "dept//student[course]",
    "//student",
];

/// What one client saw.
#[derive(Default)]
struct ClientOut {
    samples: Samples,
    ttfb_ms: f64,
    attempted: u64,
    failed: u64,
    payload_bytes: u64,
    answers: u64,
}

/// A closed loop: send the next request when the previous reply has been
/// read, until `limit` has passed and the clients together attempted at
/// least [`MIN_OPS`] requests. Traced clients open a `client` span per
/// request and pass its id to the server.
fn client(
    addr: SocketAddr,
    seed: u64,
    (start, limit, sent): (Instant, Instant, &AtomicU64),
    expected: &[Vec<u32>],
    traced: Option<(&Tracer, u64)>,
) -> Result<ClientOut, String> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = ClientOut::default();
    let targets: Vec<String> = MIX
        .iter()
        .map(|q| format!("/query?q={}", encode(q)))
        .collect();
    while Instant::now() < limit || sent.load(Ordering::Relaxed) < MIN_OPS as u64 {
        sent.fetch_add(1, Ordering::Relaxed);
        let qi = zipf(MIX.len(), &mut rng);
        out.attempted += 1;
        let reply = match traced {
            Some((t, base)) => {
                let op = base + out.attempted;
                let root = t.open("client", None, op);
                let reply = get(addr, &format!("{}&span={root}&op={op}", targets[qi]));
                t.close(root);
                reply
            }
            None => get(addr, &targets[qi]),
        };
        let reply = match reply {
            Ok(r) if r.status == 200 => r,
            _ => {
                out.failed += 1;
                continue;
            }
        };
        out.samples.push(
            start.elapsed().as_secs_f64(),
            reply.latency.as_secs_f64() * 1e3,
            qi,
        );
        out.ttfb_ms += reply.ttfb.as_secs_f64() * 1e3;
        let payload = decode_chunked(body(&reply.raw)?)?;
        let got = ids(&payload)?;
        if got != expected[qi] {
            return Err(format!(
                "{}: {} answers, oracle has {}",
                MIX[qi],
                got.len(),
                expected[qi].len()
            ));
        }
        out.payload_bytes += payload.len() as u64;
        out.answers += got.len() as u64;
    }
    Ok(out)
}

/// Run the clients against `addr` for `seconds`; returns their merged
/// results.
fn window(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    expected: &[Vec<u32>],
    tracer: Option<&Tracer>,
) -> Result<ClientOut, String> {
    let start = Instant::now();
    let limit = start + Duration::from_secs_f64(seconds);
    let sent = AtomicU64::new(0);
    let sent = &sent;
    let outs: Vec<Result<ClientOut, String>> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let traced = tracer.map(|t| (t, (c as u64 + 1) << 40));
                s.spawn(move || {
                    client(
                        addr,
                        sub_seed(seed, c as u64),
                        (start, limit, sent),
                        expected,
                        traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut all = ClientOut::default();
    for out in outs {
        let out = out?;
        all.samples.extend(out.samples);
        all.ttfb_ms += out.ttfb_ms;
        all.attempted += out.attempted;
        all.failed += out.failed;
        all.payload_bytes += out.payload_bytes;
        all.answers += out.answers;
    }
    Ok(all)
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if matches!(get(addr, "/healthz"), Ok(r) if r.status == 200) {
            return Ok(());
        }
        thread::sleep(Duration::from_millis(1));
    }
    Err(format!("server at {addr} never became healthy"))
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let dtd = samples::dept_simplified();
    let config = ServeConfig::default();
    let doc_seed = sub_seed(cfg.seed, 0);
    let mut report = Report::default();

    let mut expected: Vec<Vec<u32>> = {
        let tree = document(&dtd, SHAPE, doc_seed);
        report
            .notes
            .push(format!("document: dept={} elements", tree.len()));
        MIX.iter()
            .map(|q| {
                let path = parse_xpath(q).expect("mix queries parse");
                eval_from_document(&path, &tree, &dtd)
                    .into_iter()
                    .map(|n| n.0)
                    .collect()
            })
            .collect()
    };
    if cfg.corrupt && !expected[0].is_empty() {
        expected[0].remove(0);
    }

    let (mut setup_s, mut generate_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let tree = document(&dtd, SHAPE, doc_seed);
        let generated = Instant::now();
        let mut engine = Engine::new(&dtd);
        engine.load(&tree);
        let loaded = Instant::now();
        let server = Server::bind("127.0.0.1:0", config.clone()).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_handle().map_err(|e| e.to_string())?;
        let measured = thread::scope(|s| {
            let serving = s.spawn(|| server.run(&engine));
            let ready = wait_healthy(addr);
            setup_s.push(start.elapsed().as_secs_f64());
            generate_ms.push((generated - start).as_secs_f64() * 1e3);
            load_ms.push((loaded - generated).as_secs_f64() * 1e3);
            let measured = match ready {
                Ok(()) if rep + 1 == SETUP_REPS => {
                    measure(cfg, &engine, addr, &expected, &mut report)
                }
                other => other,
            };
            shutdown.trigger();
            match serving.join() {
                Ok(Ok(())) => measured,
                Ok(Err(e)) => Err(format!("server: {e}")),
                Err(_) => Err("server thread panicked".into()),
            }
        });
        measured?;
        if rep + 1 == SETUP_REPS {
            let tuples = engine.database().map_or(0, |db| db.total_tuples());
            report.set("setup.tuples", tuples as f64);
            if cfg.trace {
                traced(cfg, &engine, &config, &expected, &mut report)?;
            }
        }
    }
    report.setups(&setup_s, &generate_ms, &load_ms);
    report.set("peak_rss_mb", crate::peak_rss_mb());
    Ok(report)
}

/// The measured window against the real server.
fn measure(
    cfg: &RunCfg,
    engine: &Engine<'_>,
    addr: SocketAddr,
    expected: &[Vec<u32>],
    report: &mut Report,
) -> Result<(), String> {
    // Warm the plan cache and check every mix query once.
    let (mut ops, mut bytes, mut plans) = (0usize, 0usize, 0usize);
    for (qi, q) in MIX.iter().enumerate() {
        let reply = get(addr, &format!("/query?q={}", encode(q))).map_err(|e| e.to_string())?;
        if reply.status != 200 || ids(&decode_chunked(body(&reply.raw)?)?)? != expected[qi] {
            return Err(format!(
                "warm-up: {q} answered wrongly (status {})",
                reply.status
            ));
        }
        let prepared = engine.prepare(q).map_err(|e| e.to_string())?;
        if let Some(tr) = prepared.translation() {
            ops += tr.program.op_counts().total();
            bytes += prepared.sql(SqlDialect::Sql99).len();
            plans += 1;
        }
    }
    report.set("sql_ops_per_query", stat::ratio(ops as f64, plans as f64));
    report.set(
        "sql_bytes_per_query",
        stat::ratio(bytes as f64, plans as f64),
    );
    engine.reset_stats();

    let out = window(addr, sub_seed(cfg.seed, 100), cfg.seconds, expected, None)?;
    let s: Stats = engine.stats();
    let flights = s.plan_cache_hits + s.plan_cache_misses;
    let requests = s.requests_admitted;
    if s.requests_coalesced + flights + s.sat_pruned + s.requests_timed_out != requests
        || requests as u64 != out.attempted
    {
        return Err(format!(
            "accounting: coalesced {} + flights {flights} + sat_pruned {} + timed_out {} \
             != admitted {requests} (clients sent {})",
            s.requests_coalesced, s.sat_pruned, s.requests_timed_out, out.attempted
        ));
    }
    if s.analyze_warnings != 0 {
        return Err(format!("{} analyzer warnings", s.analyze_warnings));
    }
    let ok = (out.attempted - out.failed) as f64;
    report.attempted = out.attempted;
    report.failed = out.failed;
    report.set("serve.ttfb_ms", stat::ratio(out.ttfb_ms, ok));
    report.set(
        "serve.stream_bytes",
        stat::ratio(out.payload_bytes as f64, ok),
    );
    report.set(
        "serve.stream_chunks",
        stat::ratio(s.stream_chunks as f64, requests as f64),
    );
    report.set(
        "serve.coalesce_ratio",
        stat::ratio(s.requests_coalesced as f64, requests as f64),
    );
    report.set("serve.rejected", s.requests_rejected as f64);
    report.latencies(&out.samples, Host::AsMeasured)?;
    report.outcomes();
    report.counts(&s, out.attempted, out.answers);
    report.notes.push(format!(
        "requests {requests}: flights {flights}, coalesced {}, sat-pruned {}, timed out {}, rejected {}",
        s.requests_coalesced, s.sat_pruned, s.requests_timed_out, s.requests_rejected
    ));
    Ok(())
}

/// The traced window: the same clients against a replay of `Server::run`
/// assembled from the serving layer's public pieces, with spans.
fn traced(
    cfg: &RunCfg,
    engine: &Engine<'_>,
    config: &ServeConfig,
    expected: &[Vec<u32>],
    report: &mut Report,
) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let tracer = Tracer::default();
    let stop = AtomicBool::new(false);
    let result = thread::scope(|s| {
        s.spawn(|| serve_traced(&listener, engine, config, &tracer, &stop));
        let result = window(
            addr,
            sub_seed(cfg.seed, 101),
            cfg.seconds,
            expected,
            Some(&tracer),
        );
        stop.store(true, Ordering::SeqCst);
        // wake the blocking accept so the acceptor sees the flag
        let _ = TcpStream::connect(addr);
        result
    });
    result?;
    report.spans = tracer.into_spans();
    report.layers("client");
    let t = crate::trace::LayerTotals::of(&report.spans);
    let ops = t.count.get("client").copied().unwrap_or(0);
    report.set(
        "serve.wait_ms",
        t.total_ms("client", ops)
            - t.total_ms("serve.service", ops)
            - t.total_ms("serve.stream", ops),
    );
    Ok(())
}

type Flights = SingleFlight<Result<Arc<BTreeSet<u32>>, String>>;

/// `Server::run` rebuilt from public pieces — the bounded admission queue,
/// `read_request`, single-flight, `stream_answers` — with the service's
/// parse / normalize / sat / prepare / execute calls replayed under spans.
fn serve_traced(
    listener: &TcpListener,
    engine: &Engine<'_>,
    config: &ServeConfig,
    tracer: &Tracer,
    stop: &AtomicBool,
) {
    let flights = Flights::new();
    let queue: Bounded<TcpStream> = Bounded::new(config.queue_capacity);
    thread::scope(|s| {
        for _ in 0..config.workers.max(1) {
            s.spawn(|| {
                while let Some(conn) = queue.pop() {
                    let _ = handle(conn, engine, config, &flights, tracer);
                }
            });
        }
        for conn in listener.incoming() {
            let Ok(conn) = conn else { continue };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if let Err(PushError::Full(mut c) | PushError::Closed(mut c)) = queue.try_push(conn) {
                let _ = write_rejection(&mut c, config.retry_after_secs);
            }
        }
        queue.close();
    });
}

fn handle(
    mut conn: TcpStream,
    engine: &Engine<'_>,
    config: &ServeConfig,
    flights: &Flights,
    t: &Tracer,
) -> io::Result<()> {
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    let parse_start = t.now();
    let request = read_request(&mut BufReader::new(conn.try_clone()?))?;
    let parse_end = t.now();
    let param = |name| request.param(name).and_then(|v| v.parse::<u64>().ok());
    let parent = param("span").map(|p| p as SpanId);
    let op = param("op").unwrap_or(0);
    t.record("serve.protocol", parse_start, parse_end, parent, op);

    let service = t.open("serve.service", parent, op);
    let answers = query(
        engine,
        flights,
        request.param("q").unwrap_or_default(),
        (t, service, op),
    );
    t.close(service);
    let answers = match answers {
        Ok(a) => a,
        Err(e) => {
            let body = format!("engine error: {e}\n");
            return write_simple(
                &mut conn,
                500,
                "Internal Server Error",
                "text/plain",
                &[],
                &body,
            );
        }
    };
    let stream = t.open("serve.stream", parent, op);
    write!(
        conn,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\
         Connection: close\r\nX-Answer-Count: {}\r\n\r\n",
        answers.len()
    )?;
    let streamed = stream_answers(&mut conn, &answers, config.rows_per_chunk);
    t.close(stream);
    streamed.map(|_| ())
}

/// `QueryService::query` replayed: parse, normalize, the sat gate, then a
/// single flight that prepares and executes.
fn query(
    engine: &Engine<'_>,
    flights: &Flights,
    text: &str,
    (t, parent, op): (&Tracer, SpanId, u64),
) -> Result<Arc<BTreeSet<u32>>, String> {
    let path = t
        .time("xpath.parse", parent, op, || parse_xpath(text))
        .map_err(|e| e.to_string())?;
    let canon = t.time("xpath.canon", parent, op, || engine.normalize_path(&path));
    if let Sat::Empty { .. } = t.time("xpath.sat", parent, op, || engine.check_sat(&canon)) {
        return Ok(Arc::new(BTreeSet::new()));
    }
    let run = flights.run(&canon.to_string(), || {
        let mut stats = Stats::default();
        replay::prepared_execute(engine, &canon, &mut stats, (t, parent, op)).map(Arc::new)
    });
    match run {
        Ok((result, _)) => result,
        Err(_) => Err("flight panicked".into()),
    }
}
